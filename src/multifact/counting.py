"""Factorization-counting functions of a factored integer, each computable by
every route the library supports: partition sums, divisor recursions, the
prime-exponent (kappa) recursions, and composition sums.

All results are exact nonnegative integers.  Every function depends on n only
through its prime signature, so every cache here is keyed on
(n.signature, indices); that collapse is the main performance lever.  Every
memo here and in :mod:`multifact.partition_counts` is made by :func:`cache`,
and one :func:`clear_caches` empties them all.

The divisor and kappa recursions share one piece of plumbing, the reduction
table of a signature (:func:`reduction_table`): one row per power i, which
groups the divisor powers d**i of n by the signature of n / d**i, with the
group's size and its sum of kappa_pi(d) for the prime pi that carries n's
largest exponent.  Per power i it lists the other primes' exponents in
n / d**i once, sorted without zeros, and loops the first prime's exponent
outside them, so a divisor's key, the signature of n / d**i, needs a sort
only where that exponent is nonzero and below the first of the others.  Each
group's rest, n / d**i, is the canonical representative of that key
(:func:`canonical`: the first primes, largest exponent on 2), so the
recursions never build or factor the integer n / d**i.  Each recursion
walks the rows of the powers i it needs and does the work that depends on i
alone once per row: the sign, the index k - i, the j bounds and the signed
binomials C(i, j).  A group then costs one memo read and one multiply-add
per index it feeds, and the index-0 case at i = k reads only the row's last
group, the unit's.  The kappa routes anchor every call at that prime pi,
so each divides by kappa_pi(n) = n.signature[0].  The routes share no
formula: each applies its own weights and its own exact division.  Every
route reads n only through n.signature and n.big_omega; the unit is the n
with Omega(n) = 0.

The partition sum walks the partitions of k once per memo miss
(:func:`_colored_classes`), carrying each class size and the colored
partition counts nu_beta down the walk.  nu_beta at n's exponents depends
only on the parts of beta up to n's largest exponent, top, so the walk takes
parts up to top only, and closes every node whose rest of k exceeds top with
one block of larger parts, weighted by a count of permutations with long
cycles (:func:`_long_cycles`); for top >= k it visits every partition of k.
No k past Omega(n) is walked: parts 1 pad a factorization, so F_k(n) is
F_Omega(n) there, and distinct parts take at most one 1, so G_k(n) is 0 past
Omega(n) + 1.  It keeps no table sized by p(k) and never calls
:func:`partitions.euler_transform`, the Euler recurrence that gives the
composition sum (:func:`fedorov_F`) its nu_beta through
:func:`partitions.mu_beta`, so the two formula routes of F_k compute nu_beta
by different algorithms.  The composition sum reads its weights, one per
partition of k, from :func:`partitions.composition_weights`, which still
walks all 2**(k-1) compositions, once per k: the table is kept in its own
memo.  It builds each mu_beta once per partition.

The sign twins, f_k/g_k in each recursion and F_k/G_k in the partition sum,
are built by one factory per route with a sign flag.  Each twin keeps its own
public name and memo dict, and a recursion recurses through its own
module-level name, one stack frame per level.  Each recursion reads a memo hit
of a sub-state inline and calls that name only on a miss, so from cold caches
every call that gets past its guard adds one memo entry.  A
sub-state at index 0 is read inline too, as [rest is the unit], so no
recursion calls a route at index 0.  Every memoized route ends in
:func:`arith.settle`, its one checked exact division.

The module keeps only the nine base routes (big_F, big_G, fedorov_F, f_k_rec,
g_k_rec, f_k_kappa, g_k_kappa, f_kl, h_l) and the few helpers that turn a
k-part family into its at-most-k-part twin or a total (:func:`_k_sum`,
:func:`g_from_G`, :func:`f_total`, :func:`g_total`).  Each base route is the
one place that knows its boundary, and every route follows the paper's one
rule: outside its range a count is 1 when every index is 0 at the unit n = 1,
and 0 otherwise.  Each recursion and fedorov_F states it as one guard; the
partition sums' k = 0 term gives [n == 1] itself.  So the helpers read every
term, G_0 included, from a route.
The route table of :mod:`multifact.cli` composes every other route from them,
reading each by its module name at call time.
"""

from collections import Counter
from itertools import product
from math import comb, factorial, prod

from .arith import BigCount, FactoredInt, first_primes, settle
from .oracle import _check_partition_n
from .partitions import composition_weights, mu_beta

__all__ = [
    "big_F",
    "big_G",
    "cache",
    "canonical",
    "clear_caches",
    "f_k_kappa",
    "f_k_rec",
    "f_kl",
    "f_total",
    "fedorov_F",
    "g_from_G",
    "g_k_kappa",
    "g_k_rec",
    "g_total",
    "h_l",
    "reduction_table",
]


_CACHES: list = []  # every memo of counting and partition_counts, by cache()


def cache() -> dict:
    """A new memo dict, registered so that :func:`clear_caches` empties it."""
    _CACHES.append({})
    return _CACHES[-1]


def clear_caches() -> None:
    """Empty every memo made by :func:`cache` (benchmarks time cold runs)."""
    for memo in _CACHES:
        memo.clear()


_F_SUM = cache()
_G_SUM = cache()
_FED = cache()
_WEIGHTS = cache()  # k -> composition_weights(k), which depends on k alone
_FK_REC = cache()
_GK_REC = cache()
_FK_KAP = cache()
_GK_KAP = cache()
_FKL = cache()
_HL = cache()
_CANONICAL = cache()
_TABLES = cache()


# --------------------------------------------------------------------------
# partition-sum route

def _long_cycles(m_max: int, top: int, signed: bool) -> list:
    """D(m) for m = 0..m_max: the number of permutations of m objects whose
    cycles are all longer than top, each counted with the sign
    (-1)**(number of even cycles) when `signed`.

    The cycle through the first object has some length v > top, and its other
    v - 1 objects can be picked in order in (m-1)! / (m-v)! ways, so
    D(0) = 1 and D(m) = sum over v > top of s_v * (m-1)! / (m-v)! * D(m-v),
    with s_v = -1 for an even v when `signed` and 1 otherwise: the exponential
    formula for permutations with restricted cycle lengths (Flajolet and
    Sedgewick, Analytic Combinatorics, II.4), with no division.
    """
    d = [1]
    for m in range(1, m_max + 1):
        total, ways = 0, 1  # ways = (m-1)! / (m-v)!
        for v in range(1, m + 1):
            if v > top:
                term = ways * d[m - v]
                total += -term if signed and not v & 1 else term
            ways *= m - v
        d.append(total)
    return d


def _colored_classes(k: int, top: int, signed: bool):
    """Yield (weight, nu) for the partitions beta of k, grouped by their parts
    <= top: the small parts.  nu[m] for m = 0..top is the coefficient of x**m
    in prod over the small parts i of (1 - x**i)**(-beta_i), the number of
    partitions of m in which part i comes in beta_i colors; a part > top
    leaves nu[0..top] unchanged.  The weight is the sum of k! / z_beta over
    the partitions beta of k with those small parts, each with the sign
    theta(beta) = (-1)**(number of even parts) when `signed`.

    One depth-first pass with an explicit stack from one root, the empty
    partition; nothing sized by p(k) is kept.  The small parts are added in
    nondecreasing order, parts 1 like any other.  Adding a part v multiplies
    a copy of the parent's coefficients by 1 / (1 - x**v), one stride-v
    prefix sum.  The class size starts at k! and is divided by v * b when the
    b-th part v is added; each of those divisions is exact, as the z of a
    prefix of beta divides z_beta, which divides k!.

    A node whose rest r of k is larger than top also closes with one block of
    parts > top, summed in closed form: with s = k - r the small parts' sum,
    k! / z_small = C(k, r) * (s! / z_small) * r!, so the block's weight is the
    exact quotient (k! / z_small) // r! times D(r) of :func:`_long_cycles`.
    For top >= k no block closes and every partition of k is yielded on its
    own, p(k) of them; at top = 1 only the parts 1 are walked, and k weights
    come out where the walk over every partition yields p(k); at top = 0 the
    root closes as one block of k.
    """
    nu = [1] + [0] * top
    if not k:  # the empty partition has no part to take
        yield 1, nu
        return
    blocks = (tuple(zip(map(factorial, range(k + 1)), _long_cycles(k, top, signed)))
              if top < k else ())
    # (rest of k, least next part, count of that part so far, size, evens, nu)
    stack = [(k, 1, 0, factorial(k), 0, nu)]
    while stack:
        rest, low, mult, size, evens, nu = stack.pop()
        if rest > top:
            rest_fact, d = blocks[rest]
            weight = size // rest_fact * d
            yield (-weight if signed and evens & 1 else weight), nu
            # the next small part leaves a rest of at least itself
            parts = range(low, min(rest // 2, top) + 1)
        else:
            # the next part is the whole rest, or leaves a rest of at least itself
            parts = (*range(low, rest // 2 + 1), rest)
        for v in parts:
            b = mult + 1 if v == low else 1
            child = nu[:]
            for i in range(v, top + 1):
                child[i] += child[i - v]
            size_v, evens_v = size // (v * b), evens + (not v & 1)
            if v == rest:
                yield (-size_v if signed and evens_v & 1 else size_v), child
            else:
                stack.append((rest - v, v, b, size_v, evens_v, child))


def _partition_sum(name: str, memo: dict, signed: bool, doc: str):
    """The partition-sum route `name`, memoized in `memo`: the sum over the
    partitions beta of k of (k! / z_beta) * prod_j nu_beta(e_j), each term
    with the sign theta(beta) = (-1)**(number of even parts) when `signed`,
    divided once by k!.  nu_beta(e_j) depends only on the parts of beta up to
    the largest exponent, so the classes sharing those parts come as one
    weight, with their nu, from one pass of :func:`_colored_classes`, never
    from :func:`partitions.euler_transform`,
    so this route and :func:`fedorov_F` get nu by different algorithms.  The
    final division goes through :func:`arith.settle`.  A k past Omega(n) is
    read as Omega(n), or gives 0 past Omega(n) + 1 when `signed`; only then is
    the k left to walk checked against the oracle's budget of partitions
    (:data:`oracle.MAX_PARTITION_N`), and one past it raises
    :class:`OracleLimitError` before any work."""

    def route(n: FactoredInt, k: int) -> BigCount:
        # distinct parts take at most one part 1, and parts 1 pad a
        # factorization out to any k
        if k < 0 or signed and k > n.big_omega + 1:
            return 0
        k = min(k, n.big_omega + signed)
        _check_partition_n(k, name)
        key = (n.signature, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        powers = tuple(Counter(n.signature).items())  # (exponent, multiplicity)
        total = 0
        for weight, nu in _colored_classes(k, max(n.signature, default=0), signed):
            for e, mult in powers:
                v = nu[e]
                if not v:
                    break
                weight *= v**mult
            else:
                total += weight
        return settle(memo, key, total, factorial(k), name)

    route.__name__ = route.__qualname__ = name
    route.__doc__ = doc
    return route


big_F = _partition_sum("big_F", _F_SUM, False, """Factorizations of n into
    exactly k parts >= 1, via the partition sum.  F_0(n) = [n == 1];
    F_k(1) = 1.""")

big_G = _partition_sum("big_G", _G_SUM, True, """Factorizations of n into
    exactly k distinct parts >= 1; the partition sum of :func:`big_F` with the
    sign theta(beta) on each term.""")


def fedorov_F(n: FactoredInt, k: int) -> BigCount:
    """big_F by the composition-sum route: the sum of U(beta) * mu_beta at
    n's exponents over the table :func:`partitions.composition_weights`, read
    once per k into `_WEIGHTS`, divided once by k! through
    :func:`arith.settle`; a k > 20 raises :class:`OracleLimitError`.
    """
    if k <= 0:
        return 1 if k == 0 and not n.big_omega else 0
    key = (n.signature, k)
    hit = _FED.get(key)
    if hit is not None:
        return hit
    weights = _WEIGHTS.get(k)
    if weights is None:
        weights = _WEIGHTS[k] = composition_weights(k)
    total = sum(weight * mu_beta(beta, n.signature) for beta, weight in weights.items())
    return settle(_FED, key, total, factorial(k), "fedorov_F")


# --------------------------------------------------------------------------
# reduction tables

def _check_signature(name: str, sig: tuple[int, ...]) -> None:
    """Raise :class:`ValueError`, naming `name`, unless `sig` is a
    nonincreasing signature of exponents >= 1."""
    if list(sig) != sorted(sig, reverse=True) or min(sig, default=1) < 1:
        raise ValueError(f"{name} requires a nonincreasing signature of exponents >= 1, got {sig}")


def canonical(sig: tuple[int, ...]) -> FactoredInt:
    """The representative of a nonincreasing prime signature: the first
    primes, largest exponent on 2.  Built and validated once per signature:
    one that is not nonincreasing, or has an exponent below 1, raises
    :class:`ValueError`."""
    fi = _CANONICAL.get(sig)
    if fi is None:
        _check_signature("canonical", sig)
        factors = tuple(zip(first_primes(len(sig)), sig))
        fi = _CANONICAL[sig] = FactoredInt(prod(p**e for p, e in factors), factors)
    return fi


def reduction_table(sig: tuple[int, ...]) -> tuple:
    """The divisor powers d**i of any n with prime signature `sig`, grouped,
    as one row per power: rows[i] for i = 1..max(sig), and rows[0] empty.

    Each nonzero divisor exponent vector c and power i with i * c <= sig is one
    pair (d, i) of the divisor recursions.  Row i groups its pairs by the
    signature of n / d**i; a group is (rest, Omega(rest), count, weight), with
    rest the canonical representative, count the number of pairs in the
    group and weight the sum of c[0] over them, which is the group's total of
    kappa_pi(d) when pi carries sig[0], the largest exponent.

    For each power i the exponents of the other primes in n / d**i, the
    tails, are listed once by :func:`itertools.product`, each sorted
    nonincreasing without its zeros; the first prime's exponent
    sig[0] - c[0] * i, the head, runs outside them, so c[0] is its position.
    Each pair is keyed by the signature of n / d**i: the nonzero head, then
    the tail, when the head is 0 or at least the tail's first exponent, else
    one sort.  Each key keeps its [count, weight]; the key of c = 0 is sig
    and is dropped.  A key's rest is :func:`canonical`'s, read from its cache
    `_CANONICAL`, which every table shares.  A row's groups are unsorted, but
    the unit's group, key (), which a row has when i divides every exponent,
    comes last: its key is the last pair visited.  The unit's table is the
    one empty row.

    A signature that is not nonincreasing, or has an exponent below 1, raises
    :class:`ValueError` before any work.
    """
    table = _TABLES.get(sig)
    if table is not None:
        return table
    _check_signature("reduction_table", sig)
    rows = [()]
    for i in range(1, max(sig, default=0) + 1):
        # each tail without its zeros, sorted, with its first exponent, 0 for
        # an empty tail; the key is the head followed by the tail when the
        # head is 0 or at least that exponent
        tails = []
        for tail in product(*(range(e, -1, -i) for e in sig[1:])):
            tail = tuple(sorted(filter(None, tail), reverse=True))
            tails.append((tail[0] if tail else 0, tail))
        groups: dict = {}
        for c0, h in enumerate(range(sig[0], -1, -i)):
            head = (h,) if h else ()
            for lead, tail in tails:
                key = head + tail if h >= lead or not h else tuple(sorted(head + tail, reverse=True))
                group = groups.get(key)
                if group is None:
                    groups[key] = [1, c0]
                else:
                    group[0] += 1
                    group[1] += c0
        del groups[sig]
        row = []
        for key, (count, weight) in groups.items():
            rest = canonical(key)
            row.append((rest, rest.big_omega, count, weight))
        rows.append(tuple(row))
    table = _TABLES[sig] = tuple(rows)
    return table


# --------------------------------------------------------------------------
# divisor recursions

def _divisor_recursion(name: str, memo: dict, signed: bool, doc: str):
    """The divisor-power recursion `name`, memoized in `memo`:

    k * x_k(n) = sum over d**i | n, d >= 2 of s_i * x_{k-i}(n / d**i),

    with s_i = 1, or (-1)**(i+1) when `signed`.  The route recurses through
    the module-level `name`, one stack frame per level, so a wrapper put in
    its place sees every call."""

    def route(n: FactoredInt, k: int) -> BigCount:
        if not 0 < k <= n.big_omega:
            return 1 if k == 0 and not n.big_omega else 0
        key = (n.signature, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        recurse = globals()[name]
        rows = reduction_table(n.signature)
        total = 0
        for i in range(1, min(k, len(rows))):
            k_i, part = k - i, 0
            for rest, rest_omega, count, _ in rows[i]:
                if k_i <= rest_omega:
                    sub = memo.get((rest.signature, k_i))
                    if sub is None:
                        sub = recurse(rest, k_i)
                    part += count * sub
            total += -part if signed and not i & 1 else part
        if k < len(rows):
            # x_0(rest) = [rest is the unit], so at i == k only the unit's
            # group, last in its row, counts
            _, rest_omega, count, _ = rows[k][-1]
            if not rest_omega:
                total += -count if signed and not k & 1 else count
        return settle(memo, key, total, k, name)

    route.__name__ = route.__qualname__ = name
    route.__doc__ = doc
    return route


f_k_rec = _divisor_recursion("f_k_rec", _FK_REC, False, """Factorizations into
    exactly k parts >= 2, via the divisor-power recursion
    k * f_k(n) = sum over d**i | n, d >= 2 of f_{k-i}(n / d**i).""")

g_k_rec = _divisor_recursion("g_k_rec", _GK_REC, True, """Factorizations into
    exactly k distinct parts >= 2; alternating recursion with sign
    (-1)**(i+1) on the d**i term.""")


# --------------------------------------------------------------------------
# prime-exponent (kappa) recursions
#
# These replace the 1/k division by a division by kappa_pi(n), the exponent of
# a prime pi in n.  Any prime dividing n is valid; every call anchors at a
# prime that carries n's largest exponent, so kappa_pi(n) is n.signature[0]
# and the reduction table's one weight per entry, the sum of c[0], is the
# sum of kappa_pi(d) the call needs.  No route reads n itself.

def _kappa_recursion(name: str, memo: dict, signed: bool, doc: str):
    """The kappa recursion `name`, memoized in `memo`:

    kappa_pi(n) * x_k(n) = sum over d**i | n of s_i * x_{k-i}(n / d**i) * kappa_pi(d),

    with s_i as in :func:`_divisor_recursion`.  Like it, the route recurses
    through the module-level `name`, one stack frame per level."""

    def route(n: FactoredInt, k: int) -> BigCount:
        if not 0 < k <= n.big_omega:
            return 1 if k == 0 and not n.big_omega else 0
        key = (n.signature, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        recurse = globals()[name]
        rows = reduction_table(n.signature)
        total = 0
        for i in range(1, min(k, len(rows))):
            k_i, part = k - i, 0
            for rest, rest_omega, _, kap_d in rows[i]:
                if kap_d and k_i <= rest_omega:
                    sub = memo.get((rest.signature, k_i))
                    if sub is None:
                        sub = recurse(rest, k_i)
                    part += kap_d * sub
            total += -part if signed and not i & 1 else part
        if k < len(rows):
            # x_0(rest) = [rest is the unit], as in the divisor recursion
            _, rest_omega, _, kap_d = rows[k][-1]
            if not rest_omega:
                total += -kap_d if signed and not k & 1 else kap_d
        return settle(memo, key, total, n.signature[0], name)

    route.__name__ = route.__qualname__ = name
    route.__doc__ = doc
    return route


f_k_kappa = _kappa_recursion("f_k_kappa", _FK_KAP, False, """f_k via
    kappa_pi(n) * f_k(n) = sum f_{k-i}(n/d**i) * kappa_pi(d).""")

g_k_kappa = _kappa_recursion("g_k_kappa", _GK_KAP, True, """g_k via the signed
    kappa recursion.""")


def f_kl(n: FactoredInt, k: int, l: int) -> BigCount:
    """Factorizations with exactly k parts >= 2 of which exactly l are
    different, via the corrected double recursion in kappa form:

    kappa_pi(n) * f_{k,l}(n) =
        sum over d**i | n, d >= 2,  sum over j = 1..min(l, i) of
        (-1)**(j+1) * C(i, j) * f_{k-i, l-j}(n / d**i) * kappa_pi(d)

    Boundary: outside 0 < l <= k <= Omega(n),
    f_{k,l}(n) = [k == l == 0 and n == 1].
    """
    if not 0 < l <= k <= n.big_omega:
        return 1 if k == l == 0 and not n.big_omega else 0
    key = (n.signature, k, l)
    hit = _FKL.get(key)
    if hit is not None:
        return hit
    rows = reduction_table(n.signature)
    total = 0
    for i in range(1, min(k, len(rows))):
        k_i = k - i
        # f_{k-i,l-j}(rest) is 0 unless 1 <= l - j <= k - i: each j with its
        # index l - j and its signed C(i, j)
        terms = [(l - j, comb(i, j) if j & 1 else -comb(i, j))
                 for j in range(max(1, l - k_i), min(l - 1, i) + 1)]
        if not terms:
            continue
        for rest, rest_omega, _, kap_d in rows[i]:
            if kap_d and k_i <= rest_omega:
                part = 0
                for l_j, c in terms:
                    sub = _FKL.get((rest.signature, k_i, l_j))
                    if sub is None:
                        sub = f_kl(rest, k_i, l_j)
                    part += c * sub
                total += kap_d * part
    if k < len(rows):
        # at i == k only j = l is left, and f_{0,0}(rest) = [rest is the unit]
        _, rest_omega, _, kap_d = rows[k][-1]
        if not rest_omega:
            total += (comb(k, l) if l & 1 else -comb(k, l)) * kap_d
    return settle(_FKL, key, total, n.signature[0], "f_kl")


def h_l(n: FactoredInt, l: int) -> BigCount:
    """Factorizations with exactly l different part values >= 2, same recursion
    shape as :func:`f_kl` without the part-count index."""
    if not 0 < l <= n.big_omega:
        return 1 if l == 0 and not n.big_omega else 0
    key = (n.signature, l)
    hit = _HL.get(key)
    if hit is not None:
        return hit
    rows = reduction_table(n.signature)
    total = 0
    for i in range(1, len(rows)):
        # each j < l with its index l - j and its signed C(i, j); h_{l-j}(rest)
        # is 0 once l - j > Omega(rest), so a rest drops the first l - 1 - Omega
        terms = [(l - j, comb(i, j) if j & 1 else -comb(i, j))
                 for j in range(1, min(l - 1, i) + 1)]
        for rest, rest_omega, _, kap_d in rows[i]:
            if kap_d:
                part = 0
                for l_j, c in terms if rest_omega >= l - 1 else terms[l - 1 - rest_omega:]:
                    sub = _HL.get((rest.signature, l_j))
                    if sub is None:
                        sub = h_l(rest, l_j)
                    part += c * sub
                total += kap_d * part
        if l <= i:
            # j = l is left only at the unit, where h_0(rest) = [rest is the unit]
            _, rest_omega, _, kap_d = rows[i][-1]
            if not rest_omega:
                total += (comb(i, l) if l & 1 else -comb(i, l)) * kap_d
    return settle(_HL, key, total, n.signature[0], "h_l")


# --------------------------------------------------------------------------
# conversions between the k-parts and at-least-one-part families
#
# Each helper takes the route it reads as an argument, passed by the module
# name at call time, so a wrapper put in a route's place sees every call.

def _k_sum(route, n: FactoredInt, k: int) -> BigCount:
    """x_0(n) + x_1(n) + ... + x_k(n), each x_i read from the k-part route;
    x_i(n) is 0 past Omega(n), so the sum stops there."""
    return sum(route(n, i) for i in range(min(k, n.big_omega) + 1))


def g_from_G(n: FactoredInt, k: int) -> BigCount:
    """g_k recovered as the alternating sum G_k - G_{k-1} + ... +- G_0;
    G_i(n) is 0 past Omega(n) + 1, so the sum stops there."""
    return sum((-1) ** (k - i) * big_G(n, i) for i in range(min(k, n.big_omega + 1), -1, -1))


def f_total(n: FactoredInt) -> BigCount:
    """All factorizations into parts >= 2: F evaluated at k = Omega(n).

    Any k >= Omega(n) gives the same value: :func:`big_F` reads such a k as
    Omega(n), and the stability tests check it on :func:`fedorov_F`, which
    walks every k within its budget.
    """
    return big_F(n, n.big_omega)


def g_total(n: FactoredInt) -> BigCount:
    """All factorizations into distinct parts >= 2: G_Omega + G_{Omega-2} + ...,
    down to G_1, or to G_0 = [n == 1] when Omega(n) is even."""
    return sum(big_G(n, k) for k in range(n.big_omega, -1, -2))
