"""Exact counting of unordered factorizations of integers.

Every counting function is available by several independent routes (partition
sums over the part-count index, divisor recursions, prime-exponent recursions,
composition sums, and brute-force enumeration) and the routes are
cross-verified against each other.  All arithmetic is exact: counts are
arbitrary-precision ints, and the weighted sums run in ints scaled by k!,
with one checked division at the end.
"""

from .arith import (
    BigCount,
    FactoredInt,
    IntegrityError,
    factorize,
)
from .counting import (
    big_F,
    big_G,
    canonical,
    f_k_kappa,
    f_k_rec,
    f_kl,
    f_total,
    fedorov_F,
    g_k_kappa,
    g_k_rec,
    g_total,
    h_l,
)
from .oracle import enumerate_factorizations, enumerate_partitions, profile
from .partition_counts import bell, p_kl, r_l, r_lj, stirling2

__version__ = "0.1.0"

__all__ = [
    "BigCount",
    "FactoredInt",
    "IntegrityError",
    "__version__",
    "bell",
    "big_F",
    "big_G",
    "canonical",
    "enumerate_factorizations",
    "enumerate_partitions",
    "f_k_kappa",
    "f_k_rec",
    "f_kl",
    "f_total",
    "factorize",
    "fedorov_F",
    "g_k_kappa",
    "g_k_rec",
    "g_total",
    "h_l",
    "p_kl",
    "profile",
    "r_l",
    "r_lj",
    "stirling2",
]
