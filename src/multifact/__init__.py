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
    prime_power,
    prime_signature,
    primorial,
)
from .counting import (
    big_F,
    big_G,
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
from .partition_counts import bell, check_identity, p_kl, r_l, r_lj, stirling2
from .partitions import (
    compositions_of,
    euler_transform,
    mu_beta,
)

__version__ = "0.1.0"

__all__ = [
    "BigCount",
    "FactoredInt",
    "IntegrityError",
    "__version__",
    "bell",
    "big_F",
    "big_G",
    "check_identity",
    "compositions_of",
    "enumerate_factorizations",
    "enumerate_partitions",
    "euler_transform",
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
    "mu_beta",
    "p_kl",
    "prime_power",
    "prime_signature",
    "primorial",
    "profile",
    "r_l",
    "r_lj",
    "stirling2",
]
