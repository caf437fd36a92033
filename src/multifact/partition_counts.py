"""Partition-side counts and identity checkers.

Partitions of n classified by distinct part values (the additive shadow of the
factorization counts, reached by evaluating them at prime powers), Stirling
numbers of the second kind, Bell numbers, and exact identities tying these to
the factorization counts of the n-th primorial p_1...p_n.

The identities are the paper's relations at a squarefree n, where
nu_beta(1) = beta_1 turns the partition sum into sum_beta beta_1**n / z_beta.
Their right-hand sides are read from the shipped routes of
:mod:`multifact.counting` (:func:`big_F`, :func:`big_G`, :func:`f_k_rec`,
the last also summed over k by :func:`counting._k_sum`) at the primorial
canonical((1,) * n), so a wrong route fails them; this module keeps no copy
of those sums.  Its memos are made by :func:`counting.cache`.  Those of
:func:`p_kl` and :func:`r_l` key on the tuple of their arguments.  That of
:func:`r_lj` holds one dict of rows per l, keyed by j, each row a list
indexed by n - j*l, with row[n - j*l] = r_{l,j}(n), or None where no state
is stored: a b-file session stores over a million r_lj states, and a list
slot costs 8 bytes where a dict entry costs about 48 and a key tuple more.
A row starts at n = j*l, where r_{l,j} stops being 0, so its length follows
the states stored, not n.  A cold r_lj(1300, 3, 1) keeps 1,260,145 states at
35 MB peak RSS.
"""

from collections import Counter
from dataclasses import dataclass
from math import comb, factorial

from .arith import BigCount, settle
from .counting import _k_sum, big_F, big_G, cache, canonical, f_k_rec
from .oracle import enumerate_partitions
from .partitions import centralizer_order, compositions_of, multiplicity_vector, prefix_product

__all__ = [
    "IDENTITIES",
    "IdentityReport",
    "bell",
    "check_identity",
    "p_kl",
    "r_l",
    "r_lj",
    "stirling2",
]


@dataclass(frozen=True)
class IdentityReport:
    """Result of evaluating both sides of one identity."""

    identity: str
    n: int
    k: int | None
    lhs: BigCount
    rhs: BigCount

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


_P_KL = cache()
_R_L = cache()
_R_LJ = cache()
_STIRLING = cache()  # "row": the last Stirling row, S(n, 0..n) for n = len - 1


def p_kl(n: int, k: int, l: int) -> BigCount:
    """Partitions of n with exactly k parts, of which exactly l are different.

    Computed by the triple-sum recursion
    n * p_{k,l}(n) = sum_{d=1..n} d * sum_{j=1..l} (-1)**(j+1)
                     * sum_{i=1..n//d} C(i, j) * p_{k-i, l-j}(n - i*d),
    with the one boundary rule: outside 0 < l <= k <= n and l(l+1)/2 <= n,
    p_{k,l}(n) = [n == k == l == 0].

    The loops skip every sub-state p_{k',l'}(m) that the guard below returns
    as 0, so the sum is the same.  With l' = l - j: at l' = 0 only d*k = n,
    i = k is left, and it adds C(k, j); at l' >= 1, i runs up to
    min(k - l', (n - l'(l'+1)/2) // d), and to (n - k) // (d - 1) when d > 1,
    so d stops where that bound drops below i = j.  A sub-state already in
    the memo is read from it without a call.
    """
    if not 0 < l <= k <= n or l * (l + 1) > 2 * n:
        return 1 if n == k == l == 0 else 0
    key = (n, k, l)
    hit = _P_KL.get(key)
    if hit is not None:
        return hit
    total = 0
    for j in range(1, l + 1):
        lp = l - j
        if lp == 0:
            inner = n // k * comb(k, j) if n % k == 0 else 0
        else:
            rest = n - lp * (lp + 1) // 2
            inner = 0
            for d in range(1, min(rest // j, 1 + (n - k) // j) + 1):
                top = min(k - lp, rest // d, (n - k) // (d - 1) if d > 1 else n)
                part = 0
                for i in range(j, top + 1):
                    sub = _P_KL.get((n - i * d, k - i, lp))
                    if sub is None:
                        sub = p_kl(n - i * d, k - i, lp)
                    if sub:
                        part += comb(i, j) * sub
                inner += d * part
        total += inner if j & 1 else -inner
    return settle(_P_KL, key, total, n, "p_kl")


def r_l(n: int, l: int) -> BigCount:
    """Partitions of n with exactly l different part values; same recursion
    shape as :func:`p_kl` without the part-count index, and the first such
    recursion with no auxiliary function.

    As in :func:`p_kl` the loops skip the sub-states that are 0: at
    l' = l - j = 0 only i = n/d with d | n is left, and it adds C(n/d, j);
    at l' >= 1, i <= (n - l'(l'+1)/2) // d.  Memo hits are read inline.
    """
    if l <= 0 or l * (l + 1) > 2 * n:
        return 1 if n == l == 0 else 0
    key = (n, l)
    hit = _R_L.get(key)
    if hit is not None:
        return hit
    total = 0
    for j in range(1, l + 1):
        lp = l - j
        if lp == 0:
            inner = sum(d * comb(n // d, j) for d in range(1, n // j + 1) if n % d == 0)
        else:
            rest = n - lp * (lp + 1) // 2
            inner = 0
            for d in range(1, rest // j + 1):
                part = 0
                for i in range(j, rest // d + 1):
                    sub = _R_L.get((n - i * d, lp))
                    if sub is None:
                        sub = r_l(n - i * d, lp)
                    part += comb(i, j) * sub
                inner += d * part
        total += inner if j & 1 else -inner
    return settle(_R_L, key, total, n, "r_l")


def r_lj(n: int, l: int, j: int) -> BigCount:
    """Partitions of n with exactly l different part values, all parts >= j.

    Splits on the number i of parts equal to j:
    r_{l,j}(n) = r_{l,j+1}(n) + sum_{i=1..n//j} r_{l-1,j+1}(n - i*j).
    r_l(n) is the j = 1 case.

    The sum skips the terms that are 0: at l = 1 it is [j | n], since
    r_{0,j+1}(m) = [m == 0]; at l >= 2, m = n - i*j runs down to
    (l-1)(j+1) only.  When the memo already holds r_{l,j}(n-j) and
    r_{l,j+1}(n-j) (or they are 0 because j*l > n-j), the same split at n - j
    telescopes the sum to
    r_{l-1,j+1}(n-j) + r_{l,j}(n-j) - r_{l,j+1}(n-j),
    which is one memo read or one call, and nothing when n - j is below the
    lower row's start (l-1)(j+1).  Only earlier calls fill those two
    entries, as when ``bfile`` walks n upward; they are never computed just
    for this, which would add a descent in n to the stack.  Memo hits are
    read inline, and the chain value r_{l,j+1}(n) is always the first
    sub-state asked for.

    The memo holds one dict of rows per l, keyed by j, each row a list with
    row[n - j*l] = r_{l,j}(n), or None where no state is stored; a read past
    the row's end is None too.  A state at the row's end is appended, and
    one past it pads the row with None up to its index.  The row starts at
    n = j*l, below which r_{l,j} is 0 and unstored, so its length is bounded
    by the states the recursion can reach, not by n: r_lj(10**9, 1, 10**9)
    stores one slot.  A read whose index would be negative is never made,
    since a negative list index wraps silently.  A call reads three rows:
    its own and the chain row j+1, both through one lookup of l, and the
    row j+1 of its inner sum, through one lookup of l-1.  Every call below
    this one has a larger j, so the calls this one makes write only their
    own state to the last two rows (the chain call n, each inner-sum call
    its m), this call reads none of those states again, and its own row
    keeps its length until this call writes to it.  A row that is missing
    when it is looked up thus holds none of the states this call reads: it
    is read as empty, and only the own row is created, by the first call
    that looks it up.
    """
    if j < 1:
        raise ValueError(f"r_lj requires j >= 1, got {j}")
    k = n - j * l  # the index of n in the own row
    if l <= 0 or k < 0:
        return 1 if n == l == 0 else 0
    rows = _R_LJ.get(l)
    if rows is None:
        rows = _R_LJ[l] = {}
    row = rows.get(j)
    if row is None:
        row = rows[j] = []
    size = len(row)
    if k < size:
        hit = row[k]
        if hit is not None:
            return hit
    chain = rows.get(j + 1, ())
    kc = k - l  # the index of n in the chain row, negative where it is 0
    total = chain[kc] if 0 <= kc < len(chain) else None
    if total is None:
        total = r_lj(n, l, j + 1)
    if l == 1:
        if n % j == 0:
            total += 1
    else:
        lower = _R_LJ.get(l - 1)
        lower = lower.get(j + 1, ()) if lower else ()
        # the inner sum reads m = n - j, n - 2j, ... down to the lower row's
        # start (l-1)(j+1), walked as indexes at = m - (l-1)(j+1) into it
        base = (l - 1) * (j + 1)
        top = n - j - base
        whole = 0 if k < j else row[k - j] if k - j < size else None
        tail = 0 if kc < j else chain[kc - j] if kc - j < len(chain) else None
        if whole is None or tail is None:
            for at in range(top, -1, -j):
                sub = lower[at] if at < len(lower) else None
                if sub is None:
                    sub = r_lj(at + base, l - 1, j + 1)
                total += sub
        else:
            total += whole - tail  # the terms i >= 2
            if top >= 0:  # the term i = 1
                sub = lower[top] if top < len(lower) else None
                if sub is None:
                    sub = r_lj(n - j, l - 1, j + 1)
                total += sub
    if k < size:
        row[k] = total
    else:
        if k > size:
            row.extend([None] * (k - size))
        row.append(total)
    return total


def stirling2(n: int, k: int) -> BigCount:
    """Stirling number of the second kind by the standard triangle
    S(n, k) = k * S(n-1, k) + S(n-1, k-1); S(0, 0) = 1.

    Only the last row is kept (O(n) ints): it is extended forward, and
    rebuilt from row 0 when a smaller n is asked for.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling_row_at(n)[k]


def _stirling_row_at(n: int) -> list[int]:
    """S(n, 0..n), from the kept row when it is not past n."""
    row = _STIRLING.get("row", [1])
    row = row if len(row) <= n + 1 else [1]
    while len(row) <= n:
        m = len(row)
        row = [0, *(i * row[i] + row[i - 1] for i in range(1, m)), row[m - 1]]
    _STIRLING["row"] = row
    return row


def bell(n: int) -> BigCount:
    """Bell number: total set partitions of n labeled items; 0 for n < 0."""
    return sum(_stirling_row_at(n)) if n >= 0 else 0


def _composition_aggregate(n: int) -> int:
    """The multiplicity vectors beta of the compositions of n whose weights
    n! / prod(prefix sums) sum to the class size n! / z_beta.  It reads no
    partitions, so a vector missing on either side fails the identity."""
    n_fact = factorial(n)
    sums = Counter()
    for comp in compositions_of(n):
        sums[multiplicity_vector(comp)] += n_fact // prefix_product(comp)
    return sum(1 for b, s in sums.items() if s == n_fact // centralizer_order(b))


# each identity: (lhs(n, k), rhs(n, k), whether k is an index, the largest n
# that verify checks it at); verify runs them in this order
_IDENTITY_TABLE = {
    "bell-partition-sum": (lambda n, k: bell(n),
                           lambda n, k: big_F(canonical((1,) * n), n), False, 20),
    "stirling-partial-sum": (lambda n, k: sum(stirling2(n, i) for i in range(1, k + 1)),
                             lambda n, k: big_F(canonical((1,) * n), k), True, 20),
    "choose2-plus-one": (lambda n, k: comb(n, 2) + 1,
                         lambda n, k: big_G(canonical((1,) * n), n), False, 20),
    "stirling-adjacent-sum": (lambda n, k: stirling2(n, k) + stirling2(n, k - 1),
                              lambda n, k: big_G(canonical((1,) * n), k), True, 20),
    "composition-aggregate": (lambda n, k: _composition_aggregate(n),
                              lambda n, k: sum(1 for _ in enumerate_partitions(n)), False, 12),
    "primorial-stirling": (lambda n, k: f_k_rec(canonical((1,) * n), k),
                           lambda n, k: stirling2(n, k), True, 10),
    "primorial-bell": (lambda n, k: _k_sum(f_k_rec, canonical((1,) * n), n),
                       lambda n, k: bell(n), False, 10),
}

IDENTITIES = tuple(_IDENTITY_TABLE)


def check_identity(identity: str, n: int, k: int | None = None) -> IdentityReport:
    """Evaluate both sides of one named identity with exact arithmetic.

    With P = canonical((1,) * n), the product of the first n primes:

    - ``bell-partition-sum``: B_n  ==  big_F(P, n)
    - ``stirling-partial-sum``: sum_{i<=k} S(n, i)  ==  big_F(P, k)
    - ``choose2-plus-one``: C(n, 2) + 1  ==  big_G(P, n)
    - ``stirling-adjacent-sum``: S(n, k) + S(n, k-1)  ==  big_G(P, k)
    - ``composition-aggregate``: per multiplicity vector beta of n, the weights
      n! / prod(prefix sums) of its compositions sum to the class size
      n! / z_beta; lhs counts the vectors that match, rhs = p(n) from
      :func:`oracle.enumerate_partitions`
    - ``primorial-stirling``: f_k_rec(P, k)  ==  S(n, k)
    - ``primorial-bell``: sum_{k<=n} f_k_rec(P, k)  ==  B_n, through _k_sum

    The first four read the partition-sum route, the last two the divisor
    recursion, so ``bell-partition-sum`` and ``primorial-bell`` check B_n by
    two different routes.  Every side reads the routes by their module names
    at call time.

    k-indexed identities require 1 <= k <= n.
    """
    if identity not in _IDENTITY_TABLE:
        raise ValueError(f"unknown identity {identity!r}")
    lhs, rhs, k_indexed, _ = _IDENTITY_TABLE[identity]
    if not k_indexed:
        k = None
    elif k is None or not 1 <= k <= n:
        raise ValueError(f"{identity} requires 1 <= k <= n, got k={k}, n={n}")
    return IdentityReport(identity, n, k, lhs(n, k), rhs(n, k))
