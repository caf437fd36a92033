"""Tests for the arithmetic base layer."""

import ast
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import multifact
from multifact import arith, partitions
from multifact.arith import (
    MAX_N,
    FactoredInt,
    IntegrityError,
    factorize,
    first_primes,
    kappa,
    prime_signature,
    settle,
)
from multifact.counting import canonical
from references import divisor_power_reductions, trial_factorize


def test_factorize_known_values():
    assert factorize(36).factors == ((2, 2), (3, 2))
    assert factorize(1).factors == ()
    assert factorize(75).factors == ((3, 1), (5, 2))


def test_factorize_rejects_zero_and_negative():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_round_trip(n):
    fi = factorize(n)
    rebuilt = 1
    for p, e in fi.factors:
        rebuilt *= p**e
    assert rebuilt == n == fi.value


def test_factorize_matches_trial_division_up_to_20000():
    for n in range(1, 20_001):
        assert factorize(n) == trial_factorize(n), n


@given(st.integers(min_value=10**12, max_value=10**12 + 10**9))
def test_factorize_matches_trial_division_near_10_12(n):
    # the range the b-file traffic of the sequence benchmark factors
    assert factorize(n) == trial_factorize(n)


# primes just past the trial-division bound 2**10 (and the last one below it),
# near the square root of 10**9 and just below the square root of MAX_N
HARD_PRIMES = (1021, 1031, 1033, 31607, 31627, 9999973, 9999991)


def _hard_cases() -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(n, factors) of every p*q, p**2, p**3 and p**2*q over HARD_PRIMES
    with n <= MAX_N."""
    cases = []
    for p in HARD_PRIMES:
        shapes = [{p: 2}, {p: 3}]
        shapes += [{p: 1, q: 1} for q in HARD_PRIMES if q > p]
        shapes += [{p: 2, q: 1} for q in HARD_PRIMES if q != p]
        for shape in shapes:
            n = prod(r**e for r, e in shape.items())
            if n <= MAX_N:
                cases.append((n, tuple(sorted(shape.items()))))
    return cases


def test_factorize_hard_shapes():
    for p in HARD_PRIMES:
        assert all(p % d for d in range(2, isqrt(p) + 1)), p
    cases = _hard_cases()
    assert (9999973 * 9999991, ((9999973, 1), (9999991, 1))) in cases
    assert (31607**3, ((31607, 3),)) in cases
    for n, factors in cases:
        assert factorize(n).factors == factors, n


def test_factorize_largest_prime_up_to_max_n():
    p = 99999999999973
    assert trial_factorize(p).factors == ((p, 1),)
    for n in range(p + 1, MAX_N + 1):
        assert trial_factorize(n).factors != ((n, 1),), n
    assert factorize(p).factors == ((p, 1),)


@pytest.mark.parametrize("n, factors", [
    # strong pseudoprimes to every base 2..13, with no prime factor below 2**10
    (75451785985621, ((6142141, 1), (12284281, 1))),
    (32398013051587, ((2845963, 1), (11383849, 1))),
    # the least strong pseudoprimes to bases 2..7, 2..11 and 2..13
    (3215031751, ((151, 1), (751, 1), (28351, 1))),
    (2152302898747, ((6763, 1), (10627, 1), (29947, 1))),
    (3474749660383, ((1303, 1), (16927, 1), (157543, 1))),
])
def test_factorize_strong_pseudoprimes(n, factors):
    assert prod(p**e for p, e in factors) == n
    assert factorize(n).factors == factors


def _strong_probable_prime(m: int, a: int) -> bool:
    """Whether the odd m > 2 passes the strong (Miller-Rabin) test to base a."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def test_each_psi_is_the_strong_pseudoprime_to_exactly_its_bases():
    # psi_t passes the first t prime bases and fails base t + 1 (else psi_t
    # would be psi_{t+1} too), so a mistyped bound fails here
    bases = first_primes(8)
    assert arith._MR_BASES == tuple(bases[:7])
    assert len(arith._PSI) == len(arith._MR_BASES)
    for t, psi in enumerate(arith._PSI[:-1], start=1):
        assert trial_factorize(psi).factors != ((psi, 1),), psi
        assert all(_strong_probable_prime(psi, a) for a in bases[:t]), psi
        assert not _strong_probable_prime(psi, bases[t]), psi
    # psi_7 passes all seven bases (and 19 too: psi_8 = psi_7), so the tiers
    # are exact only below it, and MAX_N must stay below it
    psi_7 = arith._PSI[-1]
    assert psi_7 == 10670053 * 32010157
    assert all(_strong_probable_prime(psi_7, a) for a in bases)
    assert psi_7 > MAX_N


def test_is_prime_gives_each_psi_one_base_more():
    # psi_1 = 2047 = 23 * 89 lies below 2**20, where _is_prime trusts that
    # trial division ran first; from psi_2 on, a bound read with <= would
    # give psi_t only its t bases, and it passes all of them
    for psi in arith._PSI[1:-1]:
        assert arith._is_prime(psi) is False, psi


@pytest.mark.parametrize("psi", [3215031751, 2152302898747])
@given(offset=st.integers(min_value=-10**6, max_value=10**6))
def test_factorize_matches_trial_division_around_a_base_tier(psi, offset):
    # around psi_4 and psi_5, where the cofactor's Miller-Rabin test takes
    # one base more
    assert psi in arith._PSI
    assert factorize(psi + offset) == trial_factorize(psi + offset)


@pytest.mark.parametrize("n", [
    # several trial primes, the last one, 1021, among them
    2**3 * 3 * 101 * 1019 * 1021**2,
    # 1021**k * q, with q the first primes past 2**10
    1021 * 1031, 1021**2 * 1031, 1021**3 * 1031, 1021**3 * 1033,
    # g = 2: p * p > g at the first prime, so the walk takes one step
    2**39,
    # the first 12 trial primes; the first 8 times a prime past 2**10, the
    # most of them that fit under MAX_N with it
    prod(first_primes(12)),
    prod(first_primes(8)) * 9999991,
])
def test_factorize_divides_out_the_primes_of_one_gcd(n):
    assert n <= MAX_N
    assert factorize(n) == trial_factorize(n)


def test_factorize_grows_no_sieve():
    # the largest prime below MAX_N needs no prime table past 2**10; that the
    # module keeps no table at all is the test below
    assert factorize(99999999999973).factors == ((99999999999973, 1),)


def test_arith_and_partitions_hold_no_module_level_cache():
    # the memo tables live in counting and partition_counts only
    for module in (arith, partitions):
        for name, value in vars(module).items():
            if not (name.startswith("__") and name.endswith("__")):
                assert not isinstance(value, (list, dict, set, bytearray)), name


def test_factored_int_validation():
    with pytest.raises(ValueError):
        FactoredInt(12, ((2, 1), (3, 1)))  # product is 6, not 12
    with pytest.raises(ValueError):
        FactoredInt(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        FactoredInt(2, ((2, 0),))  # zero exponent


def test_omega_counts():
    fi = factorize(360)  # 2^3 * 3^2 * 5
    assert fi.big_omega == 6
    assert fi.exponents == (3, 2, 1)


def test_prime_signature():
    assert prime_signature(factorize(12)) == (2, 1)
    assert prime_signature(factorize(75)) == (2, 1)
    assert prime_signature(factorize(1)) == ()


def test_primorial_values():
    assert canonical((1,) * 3).value == 30
    assert canonical((1,) * 0).value == 1
    assert canonical((1,) * 5).value == 2310
    assert canonical((1,) * 10).value == 6469693230


def test_primorial_signature_all_ones():
    for n in range(0, 12):
        assert prime_signature(canonical((1,) * n)) == (1,) * n


def _pairs(fi):
    """The (d, i) of every divisor power d**i, as divisor_power_reductions lists them."""
    return [(d, i) for d, i, _ in divisor_power_reductions(fi)]


def test_divisor_power_pairs_known():
    assert _pairs(factorize(12)) == [
        (2, 1), (2, 2), (3, 1), (4, 1), (6, 1), (12, 1),
    ]
    assert _pairs(factorize(8)) == [
        (2, 1), (2, 2), (2, 3), (4, 1), (8, 1),
    ]
    assert _pairs(factorize(97)) == [(97, 1)]


def test_divisor_power_pairs_rejects_unit():
    with pytest.raises(ValueError):
        _pairs(factorize(1))


def _brute_pairs(n):
    pairs = []
    for d in range(2, n + 1):
        power = d
        i = 1
        while n % power == 0:
            pairs.append((d, i))
            power *= d
            i += 1
    return pairs


@pytest.mark.parametrize("n", [2, 6, 12, 36, 64, 97, 360, 1024, 1800])
def test_divisor_power_pairs_match_brute_scan(n):
    assert _pairs(factorize(n)) == _brute_pairs(n)


def test_divisor_power_pairs_exhaustive_small_range():
    for n in range(2, 2001):
        assert _pairs(factorize(n)) == _brute_pairs(n)


def test_divisor_power_reductions_consistent():
    fi = factorize(360)
    for d, i, rest in divisor_power_reductions(fi):
        assert rest.value * d**i == 360
        assert rest.factors == factorize(rest.value).factors


def test_kappa():
    assert kappa(2, 36) == 2
    assert kappa(5, 36) == 0
    assert kappa(3, 81) == 4
    assert kappa(2, 1) == 0
    for pi in (0, -2, 1):  # pi = 1 would divide forever
        with pytest.raises(ValueError, match="pi >= 2"):
            kappa(pi, 36)


def test_first_primes_match_trial_division():
    # pi(10**4) = 1229; the sieve's prime list must be exactly these
    expected = [n for n in range(2, 10**4) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert len(expected) == 1229
    assert first_primes(1229) == expected
    # the 200th prime is 1223, so the last 28 pass the gcd test past 2**10
    assert first_primes(200) == expected[:200] and expected[199] == 1223


def test_no_module_imports_fractions():
    # every weight is an integer scaled by k!, divided once at the end; a
    # second, rational copy of the weights must not come back
    sources = sorted(Path(multifact.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "fractions" for name in names), path.name


def test_settle_stores_and_returns_an_exact_quotient():
    memo = {}
    assert settle(memo, ((2,), 2), 6, 3, "f_k_rec") == 2
    assert memo == {((2,), 2): 2}


def test_settle_raises_on_a_remainder_and_stores_nothing():
    memo = {((1,), 1): 1}
    for _ in range(2):  # nothing was stored, so the same call raises again
        with pytest.raises(IntegrityError,
                           match=r"^f_k_rec\(\(2,\), 2\): sum 3 not divisible by 2$"):
            settle(memo, ((2,), 2), 3, 2, "f_k_rec")
        assert memo == {((1,), 1): 1}
