"""Acceptance suite: every criterion runs at exact (zero) tolerance.

Each test prints one pass line with its elapsed time (visible with -s); run

    pytest tests/test_acceptance.py -v -s

Criteria with runtime budgets assert them; every equality is between exact
integers, so there are no tolerances to tune.
"""

import random
import time
from collections import Counter
from math import factorial

from multifact import cli, counting, oracle
from multifact.arith import IntegrityError, factorize
from multifact.cli import check_identity
from multifact.counting import (
    big_F,
    big_G,
    canonical,
    f_k_kappa,
    f_k_rec,
    f_kl,
    f_total,
    fedorov_F,
    g_from_G,
    g_k_kappa,
    g_k_rec,
    g_total,
    h_l,
)
from multifact.oracle import enumerate_partitions, profile
from multifact.partition_counts import bell, p_kl, r_l, r_lj, stirling2
from multifact.partitions import (
    centralizer_order,
    compositions_of,
    euler_transform,
    multiplicity_vector,
    prefix_product,
)
from references import colored_partition_count, prime_power


def _report(criterion: str, started: float) -> float:
    elapsed = time.perf_counter() - started
    print(f"\n{criterion}: PASS ({elapsed:.2f}s)")
    return elapsed


def _clear_all():
    counting.clear_caches()


def test_criterion_01_worked_example_every_route():
    """n = 36 by every applicable route, cold caches, under one second."""
    _clear_all()
    t0 = time.perf_counter()
    fi = factorize(36)
    om = fi.big_omega
    prof = profile(36)
    read = cli._ORACLE_READS

    assert (
        f_total(fi) == counting._k_sum(f_k_rec, fi, om) == counting._k_sum(f_k_kappa, fi, om)
        == fedorov_F(fi, om) == read["f"](prof, None, None) == 9
    )
    assert (
        g_total(fi) == counting._k_sum(g_k_rec, fi, om) == counting._k_sum(g_k_kappa, fi, om)
        == read["g"](prof, None, None) == 5
    )
    assert (
        f_k_rec(fi, 2) == f_k_kappa(fi, 2) == big_F(fi, 2) - big_F(fi, 1)
        == fedorov_F(fi, 2) - fedorov_F(fi, 1) == read["f_k"](prof, 2, None) == 4
    )
    assert (
        g_k_rec(fi, 2) == g_k_kappa(fi, 2) == g_from_G(fi, 2)
        == read["g_k"](prof, 2, None) == 3
    )
    assert h_l(fi, 2) == read["h_l"](prof, None, 2) == 6
    assert f_kl(fi, 3, 2) == prof[(3, 2)] == 2

    elapsed = _report("criterion 1 (worked example, all routes)", t0)
    assert elapsed < 1.0


def test_criterion_02_route_agreement_sweep():
    """Five routes for F_k/f_k and all routes for G_k/g_k agree with each
    other and the enumeration profile, for 2 <= n <= 2000, 0 <= k <= Omega+2;
    single-threaded, under 60 s."""
    t0 = time.perf_counter()
    read = cli._ORACLE_READS
    for n in range(2, 2001):
        fi = factorize(n)
        prof = profile(n)
        for k in range(0, fi.big_omega + 3):
            F = big_F(fi, k)
            f_routes = {
                F,
                fedorov_F(fi, k),
                sum(f_k_rec(fi, i) for i in range(1, k + 1)),
                sum(f_k_kappa(fi, i) for i in range(1, k + 1)),
                read["F_k"](prof, k, None),
            }
            assert f_routes == {F}, (n, k, f_routes)
            fk = f_k_rec(fi, k)
            fk_routes = {
                fk,
                f_k_kappa(fi, k),
                big_F(fi, k) - big_F(fi, k - 1),
                fedorov_F(fi, k) - fedorov_F(fi, k - 1),
                read["f_k"](prof, k, None),
            }
            assert fk_routes == {fk}, (n, k, fk_routes)
            gk = g_k_rec(fi, k)
            gk_routes = {gk, g_k_kappa(fi, k), g_from_G(fi, k), read["g_k"](prof, k, None)}
            assert gk_routes == {gk}, (n, k, gk_routes)
            G = big_G(fi, k)
            g_pair = g_k_rec(fi, k) + g_k_rec(fi, k - 1)
            assert {G, g_pair, read["G_k"](prof, k, None)} == {G}, (n, k)
    elapsed = _report("criterion 2 (route agreement, n <= 2000)", t0)
    assert elapsed < 60.0


def test_criterion_03_fkl_hl_against_oracle():
    """The two-index and distinct-value recursions match enumeration for all
    n <= 1000 and every valid (k, l); under 60 s."""
    t0 = time.perf_counter()
    for n in range(2, 1001):
        fi = factorize(n)
        prof = profile(n)
        om = fi.big_omega
        for k in range(1, om + 1):
            for l in range(1, k + 1):
                assert f_kl(fi, k, l) == prof.get((k, l), 0), (n, k, l)
        for l in range(1, om + 2):
            assert h_l(fi, l) == cli._ORACLE_READS["h_l"](prof, None, l), (n, l)
    elapsed = _report("criterion 3 (f_kl/h_l vs oracle, n <= 1000)", t0)
    assert elapsed < 60.0


def test_criterion_04_composition_aggregation():
    """The composition-weight sums collapse to the partition weights for every
    multiplicity vector of every k <= 12, both scaled by k! to integers: the
    k! / prod(prefix sums) of the compositions with multiplicities beta sum
    to the class size k! / z_beta; under 10 s."""
    t0 = time.perf_counter()
    for k in range(1, 13):
        sums = Counter()
        for comp in compositions_of(k):
            sums[multiplicity_vector(comp)] += factorial(k) // prefix_product(comp)
        for p in enumerate_partitions(k):
            beta = multiplicity_vector(p)
            assert sums[beta] == factorial(k) // centralizer_order(beta), (k, beta)
    elapsed = _report("criterion 4 (composition aggregation, k <= 12)", t0)
    assert elapsed < 10.0


def test_criterion_05_euler_transform_dual_oracle():
    """Two genuinely independent computations of the colored-partition counts
    agree for every multiplicity vector from k <= 8 and every m <= 25."""
    t0 = time.perf_counter()
    assert colored_partition_count((0, 2, 1), 7) == 3
    for k in range(0, 9):
        for p in enumerate_partitions(k):
            beta = multiplicity_vector(p)
            values = euler_transform(beta, 25)
            for m in range(1, 26):
                assert values[m - 1] == colored_partition_count(beta, m), (beta, m)
    _report("criterion 5 (euler transform dual oracle)", t0)


def test_criterion_06_primorial_identities():
    """At primorial arguments, the k-part counts reduce to Stirling numbers of
    the second kind and the totals to Bell numbers, for n <= 10; under 30 s.
    Signature memoization is what makes the n = 10 case (value 6469693230)
    run in milliseconds."""
    t0 = time.perf_counter()
    for n in range(0, 11):
        P = canonical((1,) * n)
        for k in range(0, n + 1):
            s = stirling2(n, k)
            assert f_k_rec(P, k) == s, (n, k)
            assert g_k_rec(P, k) == s, (n, k)
        b = bell(n)
        assert f_total(P) == b, n
        assert g_total(P) == b, n
    elapsed = _report("criterion 6 (primorial identities, n <= 10)", t0)
    assert elapsed < 30.0


def test_criterion_07_partition_power_identities():
    """The four partition power-sum identities hold for all 1 <= k <= n <= 12,
    including the triangular-number form C(n,2) + 1."""
    t0 = time.perf_counter()
    for n in range(1, 13):
        assert check_identity("bell-partition-sum", n).passed, n
        rep = check_identity("choose2-plus-one", n)
        assert rep.passed and rep.lhs == n * (n - 1) // 2 + 1, n
        for k in range(1, n + 1):
            assert check_identity("stirling-partial-sum", n, k).passed, (n, k)
            assert check_identity("stirling-adjacent-sum", n, k).passed, (n, k)
    _report("criterion 7 (partition power-sum identities)", t0)


def test_criterion_08_partition_side_agreement():
    """Partition-side counts agree across their recursions, with the counts at
    prime powers for both 2 and 3, and with direct enumeration, for n <= 40."""
    t0 = time.perf_counter()
    for n in range(1, 41):
        pp = oracle.partition_profile(n)
        fis = {pi: prime_power(pi, n) for pi in (2, 3)}
        for l in range(0, 10):
            value = r_l(n, l)
            assert r_lj(n, l, 1) == value, (n, l)
            for pi, fi in fis.items():
                assert h_l(fi, l) == value, (n, l, pi)
            assert value == sum(v for (_, ll), v in pp.items() if ll == l), (n, l)
        for k in range(1, n + 1):
            for l in range(1, min(k, 9) + 1):
                value = p_kl(n, k, l)
                for pi, fi in fis.items():
                    assert f_kl(fi, k, l) == value, (n, k, l, pi)
                assert value == pp.get((k, l), 0), (n, k, l)
        assert sum(r_l(n, l) for l in range(1, n + 1)) == sum(pp.values()), n
    _report("criterion 8 (partition-side agreement, n <= 40)", t0)


def _signature_pairs(count: int, limit: int, seed: int = 20260808):
    rng = random.Random(seed)
    buckets: dict = {}
    pairs = []
    while len(pairs) < count:
        n = rng.randrange(2, limit + 1)
        fi = factorize(n)
        sig = tuple(sorted(fi.exponents, reverse=True))
        other = buckets.get(sig)
        if other is None:
            buckets[sig] = fi
        elif other.value != n:
            pairs.append((other, fi))
            del buckets[sig]
    return pairs


def test_criterion_09_prime_independence_random_pairs():
    """200 random signature-matched pairs below 10**6 give identical values
    for every factorization-counting function at every valid index."""
    t0 = time.perf_counter()
    pairs = _signature_pairs(200, 10**6)
    assert len(pairs) == 200
    for fa, fb in pairs:
        assert fa.value != fb.value
        om = fa.big_omega
        assert om == fb.big_omega
        assert f_total(fa) == f_total(fb)
        assert g_total(fa) == g_total(fb)
        for k in range(0, om + 2):
            assert f_k_rec(fa, k) == f_k_rec(fb, k)
            assert g_k_rec(fa, k) == g_k_rec(fb, k)
            assert f_k_kappa(fa, k) == f_k_kappa(fb, k)
            assert g_k_kappa(fa, k) == g_k_kappa(fb, k)
            assert big_F(fa, k) == big_F(fb, k)
            assert big_G(fa, k) == big_G(fb, k)
            assert fedorov_F(fa, k) == fedorov_F(fb, k)
            for l in range(1, k + 1):
                assert f_kl(fa, k, l) == f_kl(fb, k, l)
        for l in range(1, om + 1):
            assert h_l(fa, l) == h_l(fb, l)
    _report("criterion 9 (prime independence, 200 pairs)", t0)


def test_criterion_10_integrality_sentinels_never_fire():
    """No exactness sentinel (denominator-1 or remainder-0 check) fires across
    a cold-cache rerun of a mixed workload drawn from all the sweeps above.
    The sentinels raise IntegrityError, so any firing in criteria 1-9 would
    already have failed those tests; this rerun makes the check explicit."""
    t0 = time.perf_counter()
    _clear_all()
    fired = []
    try:
        for n in list(range(2, 301)) + [720, 1024, 1800, 6469693230]:
            fi = factorize(n) if n < 10**6 else canonical((1,) * 10)
            om = fi.big_omega
            for k in range(0, om + 3):
                big_F(fi, k), big_G(fi, k), fedorov_F(fi, k)
                f_k_rec(fi, k), g_k_rec(fi, k)
                f_k_kappa(fi, k), g_k_kappa(fi, k)
                for l in range(1, k + 1):
                    f_kl(fi, k, l)
            for l in range(0, om + 2):
                h_l(fi, l)
        for n in range(0, 41):
            for k in range(0, n + 1):
                for l in range(0, k + 1):
                    p_kl(n, k, l)
            for l in range(0, 9):
                r_l(n, l), r_lj(n, l, 1)
        for k in range(0, 15):
            for p in enumerate_partitions(k):
                euler_transform(multiplicity_vector(p), 30)
    except IntegrityError as exc:  # pragma: no cover - failure path
        fired.append(exc)
    assert not fired, fired
    _report("criterion 10 (integrality sentinels silent)", t0)


def test_acceptance_cli_verify_entry_point():
    """The packaged verify command reproduces the oracle sweep including the
    worked example row and exits cleanly."""
    t0 = time.perf_counter()
    assert cli.main(["verify", "--max", "36", "--suite", "oracle"]) == 0
    _report("cli verify --max 36 --suite oracle", t0)
