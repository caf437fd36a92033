"""Seeded workload generators for the multifact benchmark.

Each generator takes the seed and the program's `multifact.cli` module and
yields *rounds*: lists of ops.  An op is a tuple of calls, and a call is
exactly the argument tuple ``(function, method, n, k, l, j)`` of
``multifact.cli.evaluate``; the program never sees anything else.  run.py stops only at a round boundary, so a
round is the unit of work whose mix stays fixed from seed to seed.

Nothing here imports multifact.  The seed is the only input that varies;
from the cli module a generator reads only the route tables `METHODS_FOR`
and `DEFAULT_METHOD`, so a route the program adds is measured without an
edit here.
"""

import random
from dataclasses import dataclass
from math import prod
from types import ModuleType
from typing import Callable, Iterator

# n stays at or below this bound so that factorize's sieve, which is sized by
# isqrt(n), never grows past 10**6 + 1 entries; each warm-up op below builds
# that whole sieve, so no timed op pays for growing it.
N_LIMIT = 10**12
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def with_seeded_primes(rng: random.Random, sig: tuple[int, ...]) -> int:
    """An n <= N_LIMIT with prime signature `sig`, on distinct seed-chosen primes.

    The smallest prime takes the largest exponent.  kappa-recursion anchors
    at the smallest prime, so its work stays the same from seed to seed.
    """
    exponents = sorted(sig, reverse=True)
    while True:
        primes = sorted(rng.sample(PRIMES, len(sig)))
        n = prod(p**e for p, e in zip(primes, exponents))
        if n <= N_LIMIT:
            return n


def _single(function, method, n, k=None, l=None, j=None):
    return ((function, method, n, k, l, j),)


def _all_routes(cli, function, n, k=None, l=None, j=None):
    """One op of every route of `function`, as `compute --all-methods` runs them."""
    return tuple((function, m, n, k, l, j) for m in cli.METHODS_FOR[function])


def _cycles(rng: random.Random, pool, make_op) -> Iterator[list]:
    """Every entry of `pool` once per round, in a seeded order."""
    while True:
        yield [make_op(rng, entry) for entry in rng.sample(pool, len(pool))]


# --------------------------------------------------------------------------
# deep-signature
#
# Why: cold caches and one query per op isolate the divisor recursions, so
# `counting` and `arith.divisor_power_reductions` do nearly all the work while
# `partitions` and factorize do almost none.  Signatures have Omega between 8
# and 24 on at most 5 primes; the seed picks the primes, so n changes while
# the work per op (which depends on the signature only) stays put.
#
# The pool is ordered by cost, measured on a 2-vCPU VM.  The entries around
# 50 % and 90 % of the order have nearly equal costs, so that p50 and p90
# land inside a group of like ops rather than on a jump between two.

DEEP_POOL = (  # (function, method, signature, k, l)
    # cheap ops, 5..40 ms each
    ("f", "kappa-recursion", (12,), None, None),
    ("f_kl", "recursion", (6, 6), 6, 3),
    ("g_k", "kappa-recursion", (20,), 5, None),
    ("f_k", "recursion", (20,), 10, None),
    ("h_l", "recursion", (4, 4, 4), None, 3),
    ("f", "recursion", (16,), None, None),
    ("g", "recursion", (16,), None, None),
    ("g_k", "recursion", (24,), 6, None),
    ("f_k", "kappa-recursion", (24,), 12, None),
    ("g_k", "recursion", (8, 8), 4, None),
    ("h_l", "recursion", (3, 3, 2, 2, 2), None, 3),
    ("g", "recursion", (6, 6), None, None),
    ("f_k", "kappa-recursion", (4, 3, 2, 1, 1), 5, None),
    ("f_k", "kappa-recursion", (8, 8), 8, None),
    ("h_l", "recursion", (10, 10), None, 3),
    ("g_k", "kappa-recursion", (3, 3, 2, 2, 2), 3, None),
    # ranks 40-60 %, all of nearly one cost, so that p50 sits inside them
    ("f", "recursion", (24,), None, None),
    ("f", "kappa-recursion", (20,), None, None),
    ("g", "kappa-recursion", (4, 4, 4), None, None),
    ("f_kl", "recursion", (5, 5, 5), 7, 3),
    ("f_k", "kappa-recursion", (3, 3, 2, 2, 2), 6, None),
    ("f_kl", "recursion", (3, 3, 2, 2, 2), 6, 3),
    ("g_k", "recursion", (10, 10), 5, None),
    ("f", "kappa-recursion", (24,), None, None),
    # between the two
    ("g", "recursion", (24,), None, None),
    ("f_k", "recursion", (4, 3, 2, 1, 1), 5, None),
    ("h_l", "recursion", (20, 4), None, 3),
    ("g", "kappa-recursion", (8, 8), None, None),
    ("f", "recursion", (8, 8), None, None),
    ("h_l", "recursion", (12, 12), None, 3),
    ("f_kl", "recursion", (10, 10), 10, 3),
    ("f_k", "recursion", (10, 10), 10, None),
    # ranks 80-97.5 %, again of nearly one cost, around p90
    ("f_kl", "recursion", (6, 6, 6), 9, 3),
    ("g", "recursion", (4, 3, 2, 1, 1), None, None),
    ("f_k", "recursion", (20, 4), 12, None),
    ("f_k", "kappa-recursion", (6, 6, 6), 9, None),
    ("g", "kappa-recursion", (3, 3, 2, 2, 2), None, None),
    ("f_kl", "recursion", (20, 4), 12, 3),
    ("f_k", "kappa-recursion", (12, 12), 12, None),
    # the heaviest
    ("f", "recursion", (10, 10), None, None),
)


def deep_signature(seed: int, cli) -> Iterator[list]:
    def make_op(rng, entry):
        function, method, sig, k, l = entry
        return _single(function, method, with_seeded_primes(rng, sig), k, l)

    return _cycles(random.Random(seed), DEEP_POOL, make_op)


# --------------------------------------------------------------------------
# large-index
#
# Why: large part-count indices isolate `partitions` (partition and
# composition iterators, nu_beta prefixes, h_weight) and the Fraction
# accumulation of the partition-sum and fedorov routes, with almost no
# `arith` work.  Cold caches; signatures include prime powers and primorials.

LARGE_POOL = (  # (function, method, signature, k); tiers as in DEEP_POOL
    ("F_k", "fedorov", (30,), 10),
    ("F_k", "partition-sum", (1,) * 10, 20),
    ("G_k", "partition-sum", (20,), 16),
    ("G_k", "partition-sum", (1,) * 10, 20),
    ("F_k", "partition-sum", (24,), 16),
    ("F_k", "fedorov", (12,), 12),
    ("F_k", "partition-sum", (30,), 16),
    ("F_k", "fedorov", (2, 2, 1, 1), 12),
    ("G_k", "partition-sum", (12,), 20),
    ("F_k", "partition-sum", (1,) * 6, 24),
    ("F_k", "fedorov", (20,), 12),
    ("G_k", "partition-sum", (4, 3, 2, 1, 1), 24),
    ("F_k", "fedorov", (1,) * 10, 12),
    ("F_k", "fedorov", (12,), 13),
    ("F_k", "partition-sum", (8, 8), 24),
    ("f", "partition-sum", (10, 10, 4), None),
    # around p50
    ("G_k", "partition-sum", (12,), 24),
    ("F_k", "partition-sum", (20,), 20),
    ("F_k", "partition-sum", (12,), 24),
    ("G_k", "partition-sum", (12, 12), 24),
    ("F_k", "partition-sum", (30,), 20),
    ("G_k", "partition-sum", (30,), 20),
    ("F_k", "partition-sum", (12, 12), 24),
    ("F_k", "partition-sum", (4, 3, 2, 1, 1), 28),
    # between
    ("f", "partition-sum", (12, 12), None),
    ("G_k", "partition-sum", (4, 3, 2, 1, 1), 28),
    ("F_k", "fedorov", (8, 8), 14),
    ("f", "partition-sum", (16, 8), None),
    ("F_k", "partition-sum", (1,) * 10, 28),
    ("F_k", "partition-sum", (8, 8), 28),
    ("f", "partition-sum", (24,), None),
    ("F_k", "partition-sum", (12,), 28),
    ("F_k", "partition-sum", (2, 2, 1, 1), 32),
    # around p90: fedorov at k = 15 costs nearly the same on every signature
    ("F_k", "fedorov", (8, 8), 15),
    ("F_k", "fedorov", (30,), 15),
    ("F_k", "fedorov", (1,) * 6, 15),
    ("F_k", "fedorov", (4, 3, 2, 1, 1), 15),
    ("F_k", "fedorov", (24,), 15),
    # the heaviest
    ("F_k", "partition-sum", (2, 2, 1, 1), 36),
    ("f", "partition-sum", (20, 10), None),
)


def large_index(seed: int, cli) -> Iterator[list]:
    def make_op(rng, entry):
        function, method, sig, k = entry
        return _single(function, method, with_seeded_primes(rng, sig), k)

    return _cycles(random.Random(seed), LARGE_POOL, make_op)


# --------------------------------------------------------------------------
# sequence
#
# Why: b-file traffic on warm caches that are never cleared, so reads from the
# memo dominate writes -- the reverse of the cold workloads.  `factorize`
# (every factor-side op factors its own n near 10**12) and `partition_counts`
# dominate.  The r_lj stream runs to n = 1300 on purpose: past n of about
# 1000 the recursion raises RecursionError, and that defect must show in the
# failure count rather than be sized away.  A run is one whole b-file
# session of SEQ_ROUNDS rounds, whatever --seconds asks: cut anywhere, the
# session's mix would change with the speed of the machine, because the
# r_lj ops grow dearer with n and start failing only near the end.

SEQ_OFFSET_BASE = 10**12
SEQ_OFFSET_SPAN = 10**9
SEQ_FACTOR = (("f", None, None), ("g", None, None), ("f_k", 2, None),
              ("h_l", None, 2), ("F_k", 2, None), ("G_k", 2, None),
              ("f_kl", 3, 2))
R_LJ_MAX = 1300  # two n per round, l = 1..3, j = 1
SEQ_ROUNDS = R_LJ_MAX // 2
# factor-side n per round: enough that the cheap factor-side ops, spread
# evenly over the session, hold the median latency
SEQ_FACTOR_N = 3
R_L_MAX = 300    # one n per round, l = 1..3
P_KL_MAX = 300   # one n per round, (k, l) in P_KL_INDICES
P_KL_INDICES = ((3, 2), (4, 2))


def sequence(seed: int, cli) -> Iterator[list]:
    method = cli.DEFAULT_METHOD
    offset = SEQ_OFFSET_BASE + random.Random(seed).randrange(SEQ_OFFSET_SPAN)
    for r in range(SEQ_ROUNDS):
        ops = [_single(f, method[f], offset + SEQ_FACTOR_N * r + i, k, l)
               for i in range(SEQ_FACTOR_N) for f, k, l in SEQ_FACTOR]
        for m in (2 * r + 1, 2 * r + 2):
            ops += [_single("r_lj", method["r_lj"], m, None, l, 1) for l in (1, 2, 3)]
        m = r + 1
        if m <= R_L_MAX:
            ops += [_single("r_l", method["r_l"], m, None, l) for l in (1, 2, 3)]
        if m <= P_KL_MAX:
            ops += [_single("p_kl", method["p_kl"], m, k, l) for k, l in P_KL_INDICES]
        yield ops


# --------------------------------------------------------------------------
# cross-check
#
# Why: `compute --all-methods` traffic on cold caches -- each op runs every
# route of its function, `oracle` included, and needs exact agreement.  It is
# the only workload where oracle enumeration carries most of the work, so the
# paper's cross-verification path has its own number.  Factor-side n are
# highly composite between 10**6 and 10**7; partition-side n lie in 30..48.
# The seed picks the indices of each query; the pool is tiered by cost as in
# DEEP_POOL (the cost of an op depends mostly on n, little on the indices).

CROSS_POOL = (  # (function, n, k range, l range, j range); None: no such index
    ("p_kl", 30, (2, 10), (1, 3), None),
    ("r_l", 32, None, (1, 4), None),
    ("r_lj", 34, None, (1, 3), (1, 3)),
    ("p_kl", 36, (2, 10), (1, 3), None),
    ("r_l", 38, None, (1, 4), None),
    ("r_lj", 40, None, (1, 3), (1, 3)),
    ("p_kl", 40, (2, 10), (1, 3), None),
    # around p50
    ("h_l", 1081080, None, (1, 4), None),
    ("f_kl", 1081080, (2, 8), (1, 3), None),
    ("G_k", 1081080, (4, 10), None, None),
    ("g_k", 1081080, (3, 9), None, None),
    ("p_kl", 44, (2, 10), (1, 3), None),
    ("r_l", 44, None, (1, 4), None),
    # between
    ("h_l", 1441440, None, (1, 4), None),
    ("G_k", 1441440, (1, 12), None, None),
    ("r_lj", 48, None, (1, 3), (1, 3)),
    ("f_kl", 1441440, (2, 8), (1, 3), None),
    # around p90
    ("f", 1081080, None, None, None),
    ("f_k", 1441440, (3, 9), None, None),
    ("F_k", 1081080, (10, 12), None, None),
    # the heaviest
    ("g", 1441440, None, None, None),
)


def cross_check(seed: int, cli) -> Iterator[list]:
    def make_op(rng, entry):
        function, n, *ranges = entry
        k, l, j = (rng.randint(*bounds) if bounds else None for bounds in ranges)
        return _all_routes(cli, function, n, k, l, j)

    return _cycles(random.Random(seed), CROSS_POOL, make_op)


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cold: bool  # clear every cache before each op, as a fresh process would
    warmup: Callable[[ModuleType], tuple]  # one untimed op of the workload's shape
    rounds: Callable[[int, ModuleType], Iterator[list]]
    min_rounds: int = 0  # a run never stops before this many rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep-signature",
            "cold divisor recursions on deep prime signatures: counting and "
            "divisor_power_reductions do nearly all the work",
            True,
            lambda cli: _single("h_l", "recursion", 10**12, None, 3),
            deep_signature,
        ),
        Workload(
            "large-index",
            "cold partition-sum and fedorov routes at large k: partition and "
            "composition iterators, nu_beta prefixes and Fraction sums dominate",
            True,
            lambda cli: _single("F_k", "partition-sum", 10**12, 16),
            large_index,
        ),
        Workload(
            "sequence",
            "warm-cache b-file traffic: factorize near 10**12 and partition_counts "
            "dominate, memo reads outnumber writes, r_lj passes its RecursionError",
            False,
            lambda cli: _single("f", cli.DEFAULT_METHOD["f"],
                                SEQ_OFFSET_BASE + 2 * SEQ_OFFSET_SPAN + 1),
            sequence,
            SEQ_ROUNDS,
        ),
        Workload(
            "cross-check",
            "cold compute --all-methods traffic: every route of each query, "
            "oracle included, must agree; oracle enumeration carries most work",
            True,
            lambda cli: _all_routes(cli, "f_k", 720720, 3),
            cross_check,
        ),
    )
}
