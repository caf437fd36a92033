"""Tests for partition/composition iterators, weights, and the Euler transform."""

from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from multifact import oracle, partitions
from multifact.arith import IntegrityError, factorize
from multifact.partitions import (
    centralizer_order,
    compositions_of,
    euler_transform,
    mu_beta,
    multiplicity_vector,
    prefix_product,
)

# p(0)..p(40), OEIS A000041; the oracle's ascending-composition generator is
# also checked against a recursive reference for the first 13
PARTITION_COUNTS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385,
    490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604, 6842,
    8349, 10143, 12310, 14883, 17977, 21637, 26015, 31185, 37338,
]


def _partitions_reference(k, cap=None):
    """Partitions of k in descending lexicographic order, recursively."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, k if cap is None else cap), 0, -1):
        for rest in _partitions_reference(k - first, first):
            yield (first, *rest)


def _compositions_reference(k):
    """Compositions of k in ascending lexicographic order, recursively."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions_reference(k - first):
            yield (first, *rest)


def test_partitions_of_zero():
    assert list(oracle.enumerate_partitions(0)) == [()]


def test_partitions_of_5_count():
    assert len(list(oracle.enumerate_partitions(5))) == 7


@pytest.mark.parametrize("k", range(0, 16))
def test_partition_counts_and_validity(k):
    seen = set()
    for p in oracle.enumerate_partitions(k):
        assert sum(p) == k
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
        assert all(part >= 1 for part in p)
        seen.add(p)
    assert len(seen) == PARTITION_COUNTS[k]


def test_partitions_match_independent_enumerator():
    for k in range(0, 13):
        assert set(oracle.enumerate_partitions(k)) == set(_partitions_reference(k)), k


def test_partitions_of_counts_are_A000041():
    for k, expected in enumerate(PARTITION_COUNTS):
        assert sum(1 for _ in oracle.enumerate_partitions(k)) == expected, k


def test_compositions_of_equals_the_recursive_reference_in_order():
    for k in range(0, 15):
        assert list(compositions_of(k)) == list(_compositions_reference(k)), k


def test_compositions_of_counts_are_powers_of_two():
    assert sum(1 for _ in compositions_of(0)) == 1
    for k in range(1, 19):
        assert sum(1 for _ in compositions_of(k)) == 2 ** (k - 1), k


def test_multiplicity_vector():
    assert multiplicity_vector((2, 1)) == (1, 1)
    assert multiplicity_vector((3, 2, 2)) == (0, 2, 1)
    assert multiplicity_vector((1, 1, 1, 1)) == (4,)
    assert multiplicity_vector(()) == ()


@given(st.integers(min_value=0, max_value=14))
def test_multiplicity_vector_weight_preserved(k):
    for p in oracle.enumerate_partitions(k):
        beta = multiplicity_vector(p)
        assert sum(i * b for i, b in enumerate(beta, 1)) == k
        assert not beta or beta[-1] >= 1


def test_h_weight():
    # the weight h_beta = 1 / z_beta is summed as the class size k! / z_beta
    assert factorial(3) // centralizer_order((3,)) == 1
    assert factorial(3) // centralizer_order((1, 1)) == 3
    assert factorial(3) // centralizer_order((0, 0, 1)) == 2
    assert factorial(0) // centralizer_order(()) == 1


def test_centralizer_order():
    assert centralizer_order(()) == 1
    assert centralizer_order((3,)) == 6
    assert centralizer_order((0, 2, 1)) == 2**2 * 2 * 3


def test_h_weight_sums_to_one():
    # the weights 1 / z_beta sum to 1 over each k: k! / z_beta permutations
    # of k objects have cycle type beta, and the class sizes add up to k!
    for k in range(0, 13):
        total = sum(factorial(k) // centralizer_order(multiplicity_vector(p))
                    for p in oracle.enumerate_partitions(k))
        assert total == factorial(k)


def test_euler_transform_colored_example():
    assert euler_transform((0, 2, 1), 7) == [0, 2, 1, 3, 2, 5, 3]


def test_euler_transform_single_color_part_one():
    assert euler_transform((1,), 20) == [1] * 20


def test_euler_transform_first_value_is_beta1():
    for beta in [(3,), (2, 1), (0, 5), (4, 0, 2)]:
        assert euler_transform(beta, 1) == [beta[0]]


def test_euler_transform_of_empty_vector_is_zero():
    assert euler_transform((), 6) == [0] * 6


def _series_coefficients(beta, m_max):
    # truncated product of (1 - x^i)^(-beta_i) by direct polynomial
    # multiplication; independent of the divisor-sum recursion
    coeffs = [0] * (m_max + 1)
    coeffs[0] = 1
    for i, b in enumerate(beta, 1):
        for _ in range(b):
            # multiply by 1/(1 - x^i): running sum with stride i
            for m in range(i, m_max + 1):
                coeffs[m] += coeffs[m - i]
    return coeffs[1:]


def test_euler_transform_matches_series_expansion():
    for k in range(0, 9):
        for p in oracle.enumerate_partitions(k):
            beta = multiplicity_vector(p)
            assert euler_transform(beta, 30) == _series_coefficients(beta, 30)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=9),
    st.data(),
)
def test_nu_beta_with_parts_above_m_matches_the_untruncated_transform(beta, data):
    # nu_beta(m) = euler_transform(beta, m)[m - 1] sieves only the parts
    # <= m; it must equal the transform of the whole beta
    beta = tuple(beta)
    m = data.draw(st.integers(min_value=1, max_value=len(beta) - 1))
    truncated = [euler_transform(beta, i)[i - 1] for i in range(1, m + 1)]
    whole = euler_transform(beta, len(beta) + 3)
    assert truncated == whole[:m] == _series_coefficients(beta, m)
    assert euler_transform(beta, len(beta) + 3) == whole
    assert [euler_transform(beta, i)[i - 1] for i in range(1, m + 1)] == whole[:m]


def test_vectors_that_differ_above_m_agree_at_m():
    assert (euler_transform((1, 0, 0, 5), 2)[1] == euler_transform((1, 0, 2), 2)[1]
            == euler_transform((1,), 2)[1] == 1)


def test_euler_transform_division_check_still_fires(monkeypatch):
    # one extra unit in gamma(1) * nu(1) makes 2 * nu(2) = 3 for beta = (1,)
    monkeypatch.setattr(partitions, "mul", lambda a, b: a * b + 1)
    with pytest.raises(IntegrityError):
        euler_transform((1,), 2)


def test_euler_transform_all_ones_counts_bounded_partitions():
    # one color per part size up to a: plain partitions into parts <= a
    for a in range(1, 7):
        beta = (1,) * a
        values = euler_transform(beta, 20)
        for m in range(1, 21):
            expected = sum(
                1 for p in oracle.enumerate_partitions(m) if max(p) <= a
            )
            assert values[m - 1] == expected


def test_mu_beta():
    fi36 = factorize(36)
    assert mu_beta((1, 1), fi36.signature) == 4
    assert mu_beta((5, 2), factorize(1).signature) == 1
    assert mu_beta((3,), factorize(97).signature) == 3


def test_compositions_of_3_exact_order():
    assert list(compositions_of(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_compositions_of_1():
    assert list(compositions_of(1)) == [(1,)]


@pytest.mark.parametrize("k", range(1, 11))
def test_composition_count_and_validity(k):
    comps = list(compositions_of(k))
    assert len(comps) == 2 ** (k - 1)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == k and min(c) >= 1 for c in comps)


def test_composition_count_per_multiplicity_vector():
    # compositions matching beta number (sum beta_i)! / prod beta_i!
    for k in range(1, 11):
        comps = list(compositions_of(k))
        for p in oracle.enumerate_partitions(k):
            beta = multiplicity_vector(p)
            matching = sum(1 for c in comps if multiplicity_vector(c) == beta)
            expected = factorial(sum(beta))
            for b in beta:
                expected //= factorial(b)
            assert matching == expected


def test_fedorov_weight():
    # the Fedorov weight of a composition is 1 / prefix_product
    assert prefix_product((1, 1, 1)) == 6
    assert prefix_product((1, 2)) == 3
    assert prefix_product((2, 1)) == 6
    assert prefix_product(()) == 1


def test_prefix_products_divide_k_factorial():
    assert prefix_product((2, 1)) == 6 and prefix_product(()) == 1
    for k in range(1, 11):
        for comp in compositions_of(k):
            assert factorial(k) % prefix_product(comp) == 0


def _composition_sums(k):
    """Sum of k! / prod(prefix sums) over the compositions of k, per multiplicity vector."""
    sums = Counter()
    for comp in compositions_of(k):
        sums[multiplicity_vector(comp)] += factorial(k) // prefix_product(comp)
    return sums


def test_aggregate_fedorov_small():
    # k = 3: (1, 2) and (2, 1) weigh 6/3 + 6/6, the 3 transpositions;
    # (1, 1, 1) weighs 6/6, the identity; (3,) weighs 6/3, the two 3-cycles
    assert _composition_sums(3) == {(1, 1): 3, (3,): 1, (0, 0, 1): 2}
    assert _composition_sums(1) == {(1,): 1}


def test_aggregate_fedorov_equals_h_weight():
    # the compositions with part multiplicities beta weigh k! / prod(prefix
    # sums) each, and together the class size k! / z_beta; the weights
    # 1 / prod(prefix sums) of all compositions of k sum to 1, so the table
    # sums to k!
    for k in range(0, 17):
        table = partitions.composition_weights(k)
        assert table == _composition_sums(k), k
        betas = [multiplicity_vector(p) for p in oracle.enumerate_partitions(k)]
        assert sorted(table) == sorted(betas)
        assert sum(table.values()) == factorial(k)
        for beta in betas:
            assert table[beta] * centralizer_order(beta) == factorial(k), (k, beta)


@pytest.mark.parametrize("k", [21, 10**30])
def test_composition_weights_refuse_past_the_budget_at_once(k, within_a_second):
    with pytest.raises(oracle.OracleLimitError,
                       match=f"^more than {oracle.DEFAULT_MAX_FACTORIZATIONS} compositions of {k}$"):
        partitions.composition_weights(k)


def test_composition_weights_answer_at_the_last_k_within_the_budget():
    # 2**19 compositions of 20, in p(20) = 627 groups
    table = partitions.composition_weights(20)
    assert len(table) == PARTITION_COUNTS[20] and sum(table.values()) == factorial(20)
