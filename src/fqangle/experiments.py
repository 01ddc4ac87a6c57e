"""Verification suites and benchmarks.

Each suite turns one of the library's mathematical guarantees into an
exhaustive or seeded-randomized check and returns a SuiteReport.  Reports
are deterministic for fixed (parameters, seed): all randomness flows from
one seeded generator and every random input is materialized up front, so
any partition of the work over trials reproduces the same failure set.
Failures carry full input encodings for one-command reproduction.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .angle import (
    _angle_table,
    angle_fast,
    angle_fast_rows,
    angle_naive,
    angle_naive_rows,
    normalize_rows,
)
from .codes import (
    ENUMERATION_CAP,
    LinearCode,
    codeword_matrix,
    decode_rows,
    digit_rows,
    min_distance,
    projective_codeword_matrix,
)
from .errors import InvalidInput, SuiteTooLarge
from .gf import Field, _integer
from .vectors import Vector, format_vector

# Triple loops over all nonzero vectors stay tractable up to this many.
MAX_EXHAUSTIVE_VECTORS = 1 << 10

# Past this many (direction, error pattern) pairs the decoding suite samples this many.
MAX_DECODING_SAMPLES = 100_000

# bench_angle refuses repetitions x sum(n) past this many positions, before
# it draws any input: its memory bound.  Criterion 6 times 9 x 300,000 =
# 2.7e6, 25 times fewer.  At the bound one length holds 2^26 / 5 = 13.4M
# positions, so u and v take 107 MB each in int64.
MAX_BENCH_POSITIONS = 1 << 26

# The work budget, checked before any input is drawn or allocated:
# bench_angle refuses past it max(5, repetitions) x sum(n) x (q - 1), the
# positions of the naive oracle's passes, verify_angular_decoding
# samples x directions x n, the positions decode_rows scans, and
# angle_vs_dist_census samples x (directions + q^k) x n, the positions
# decode_rows scans and those its reference compares with every codeword.
# Measured on a 2-core Xeon, one warm call each: the oracle takes 1.2-3.8 ns
# per position of a pass (GF(251), n = 10^5: 46 ms; GF(65521), n = 4,000:
# 1.0 s), and decode_rows 6.7-10.4 ns per position (2,000 words on
# RS[7,3]/GF(7), RS[15,3]/GF(16) and RS[7,5]/GF(7), 263 ms on the last).
# So a call at the budget spends about 1-4 s in the oracle's timed runs, or
# 7-11 s decoding.  Criterion 6's bench is 6.75e8, and criterion 8's census
# (RS[7,3]/GF(7), 1,000 samples) 2.8e6.
MAX_WORK = 1 << 30


@dataclass
class SuiteReport:
    """Outcome of one verification suite run.

    Failure lines stop at 25 per check, and a suite may stop checking once
    it holds that many, but checks_run and the counts in observations always
    cover every check and input of the run, failing or not."""

    suite: str
    q: int
    n: int | None
    k: int | None
    trials: int | None
    seed: int | None
    checks_run: int
    failures: list[str]
    wall_time: float
    observations: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BenchRecord:
    """Median timing of one algorithm at one (q, n)."""

    algo: str
    q: int
    n: int
    repetitions: int
    median_ns: int

    @property
    def positions_per_second(self) -> float:
        return self.n / (self.median_ns * 1e-9)

    def to_dict(self) -> dict:
        return {**asdict(self), "positions_per_second": self.positions_per_second}


_MAX_REPORTED_FAILURES = 25


# ----------------------------------------------------------------------
# Input construction
# ----------------------------------------------------------------------

def _at_least(name: str, value, least: int) -> int:
    """value as an int; raises InvalidInput unless it is an integer >= least."""
    value = _integer(name, value)
    if value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value}")
    return value


def all_nonzero_vectors(field: Field, n: int) -> np.ndarray:
    """All q^n - 1 nonzero vectors as rows, ascending encoded order."""
    n = _at_least("n", n, 1)
    return digit_rows(np.arange(1, field.q**n), field.q, n)


def random_nonzero_rows(rng: np.random.Generator, field: Field, trials: int, n: int) -> np.ndarray:
    """(trials, n) random rows, with all-zero rows patched deterministically."""
    n = _at_least("n", n, 1)
    trials = _at_least("the number of trials", trials, 1)
    U = rng.integers(0, field.q, size=(trials, n), dtype=np.int64)
    zero_rows = np.flatnonzero(~U.any(axis=1))
    if zero_rows.size:
        U[zero_rows, zero_rows % n] = 1 + zero_rows % (field.q - 1)
    return U


def _pattern_count(field: Field, n: int, t: int) -> int:
    """The number of error vectors of weight <= t; raises SuiteTooLarge
    past ENUMERATION_CAP."""
    count = sum(math.comb(n, w) * (field.q - 1) ** w for w in range(t + 1))
    if count > ENUMERATION_CAP:
        raise SuiteTooLarge(f"{count} error patterns of weight <= {t} exceed the {ENUMERATION_CAP} guard")
    return count


def _check_work(work: int, terms: str):
    """Raise SuiteTooLarge when work, the product spelled by terms, exceeds MAX_WORK."""
    if work > MAX_WORK:
        raise SuiteTooLarge(f"{terms}: {work} exceeds the {MAX_WORK} work budget")


def error_patterns(field: Field, n: int, t: int) -> np.ndarray:
    """All error vectors of weight <= t as rows: by weight, then support in
    itertools.combinations order, then values in itertools.product order
    over the nonzero elements.  Raises SuiteTooLarge past ENUMERATION_CAP
    rows, before anything is allocated."""
    _pattern_count(field, n, t)
    q1 = field.q - 1
    blocks = [np.zeros((1, n), dtype=np.int64)]
    for w in range(1, t + 1):
        supports = np.array(list(itertools.combinations(range(n), w)))
        values = 1 + digit_rows(np.arange(q1**w), q1, w)
        E = np.zeros((len(supports), len(values), n), dtype=np.int64)
        E[np.arange(len(supports))[:, None, None], np.arange(len(values))[:, None], supports[:, None, :]] = values
        blocks.append(E.reshape(-1, n))
    return np.vstack(blocks)


def _exhaustive_vectors(field: Field, n: int) -> np.ndarray:
    """all_nonzero_vectors, refused past the triple-loop guard; n is an int >= 1."""
    # bound n before forming q**n, which is slow and too long to print when huge
    if n >= MAX_EXHAUSTIVE_VECTORS.bit_length() or field.q**n - 1 > MAX_EXHAUSTIVE_VECTORS:
        raise SuiteTooLarge(f"q^n - 1 = {field.q}^{n} - 1 nonzero vectors exceed the "
                            f"{MAX_EXHAUSTIVE_VECTORS} triple-loop guard")
    return all_nonzero_vectors(field, n)


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------

def _report(suite: str, t0: float, space: Field | LinearCode, checks_run: int, failures: list[str],
            observations: dict | None = None, *, n: int | None = None, trials: int | None = None,
            seed: int | None = None) -> SuiteReport:
    """The report of a suite started at t0 on a field (of length n) or a code."""
    if isinstance(space, LinearCode):
        q, n, k = space.field.q, space.n, space.k
    else:
        q, k = space.q, None
    return SuiteReport(suite=suite, q=q, n=n, k=k, trials=trials, seed=seed, checks_run=checks_run,
                       failures=failures, wall_time=time.perf_counter() - t0,
                       observations=observations or {})


def verify_metric_axioms(field: Field, n: int) -> SuiteReport:
    """Scalar identifiability, symmetry and the triangle inequality over
    every ordered pair/triple of nonzero vectors in GF(q)^n."""
    t0 = time.perf_counter()
    n = _at_least("n", n, 1)
    M = _exhaustive_vectors(field, n)
    N = M.shape[0]
    A = _angle_table(field, M, M)
    failures: list[str] = []

    # (1) angle zero exactly on equal projective classes
    powers = field.q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = normalize_rows(field, M) @ powers
    same_class = keys[:, None] == keys[None, :]
    for i, j in np.argwhere((A == 0) != same_class)[:_MAX_REPORTED_FAILURES]:
        failures.append(
            f"identifiability: angle={A[i, j]} same_class={bool(same_class[i, j])} "
            f"u={format_vector(M[i])} v={format_vector(M[j])} (q={field.q})"
        )

    # (2) symmetry
    for i, j in np.argwhere(A != A.T)[:_MAX_REPORTED_FAILURES]:
        failures.append(
            f"symmetry: {A[i, j]} != {A[j, i]} for u={format_vector(M[i])} v={format_vector(M[j])}"
        )

    # (3) triangle inequality over all ordered triples, in (i, j, k) order,
    # one i at a time so the temporaries stay (N, N), on a copy of the table
    # in the narrowest dtype that holds a sum of two angles (<= 2n)
    narrow = A.astype(np.min_scalar_type(2 * n))
    viol = ((i, j, k) for i in range(N)
            for j, k in np.argwhere(narrow[i, None, :] > narrow[i, :, None] + narrow))
    for i, j, k in itertools.islice(viol, _MAX_REPORTED_FAILURES):
        failures.append(
            f"triangle: angle(u,w)={A[i, k]} > {A[i, j]}+{A[j, k]} for "
            f"u={format_vector(M[i])} v={format_vector(M[j])} w={format_vector(M[k])}"
        )

    return _report("metric", t0, field, 2 * N * N + N**3, failures,
                   {"vectors": N, "triples": N**3}, n=n)


def verify_projective_descent(field: Field, n: int) -> SuiteReport:
    """Invariance of the angle under independent rescaling of both arguments,
    and agreement with the metric computed on canonical representatives."""
    t0 = time.perf_counter()
    n = _at_least("n", n, 1)
    M = _exhaustive_vectors(field, n)
    N = M.shape[0]
    A = _angle_table(field, M, M)
    failures: list[str] = []

    scaled = {c: field.scalar_mul_array(c, M) for c in field.nonzero_elements()}
    for alpha, beta in itertools.product(scaled, repeat=2):
        A_ab = _angle_table(field, scaled[alpha], scaled[beta])
        for i, j in np.argwhere(A_ab != A)[:_MAX_REPORTED_FAILURES]:
            failures.append(
                f"rescaling: angle({alpha}*u,{beta}*v)={A_ab[i, j]} != {A[i, j]} "
                f"for u={format_vector(M[i])} v={format_vector(M[j])}"
            )
        if len(failures) >= _MAX_REPORTED_FAILURES:
            break

    canon = normalize_rows(field, M)
    A_canon = _angle_table(field, canon, canon)
    for i, j in np.argwhere(A_canon != A)[:_MAX_REPORTED_FAILURES]:
        failures.append(
            f"canonical reps: {A_canon[i, j]} != {A[i, j]} for "
            f"u={format_vector(M[i])} v={format_vector(M[j])}"
        )

    pairs = (field.q - 1) ** 2
    return _report("projective", t0, field, (pairs + 1) * N * N, failures,
                   {"vectors": N, "scalar_pairs": pairs}, n=n)


def verify_oracle_equivalence(field: Field, n: int, trials: int, seed: int) -> SuiteReport:
    """The single-pass algorithm against the brute-force definition on
    seeded random nonzero pairs."""
    t0 = time.perf_counter()
    n = _at_least("n", n, 1)
    trials = _at_least("the number of trials", trials, 1)
    seed = _at_least("seed", seed, 0)
    rng = np.random.default_rng(seed)
    U = random_nonzero_rows(rng, field, trials, n)
    V = random_nonzero_rows(rng, field, trials, n)
    fast = angle_fast_rows(field, U, V)
    naive = angle_naive_rows(field, U, V)
    failures = [
        f"oracle: fast={fast[i]} naive={naive[i]} for u={format_vector(U[i])} "
        f"v={format_vector(V[i])} (q={field.q}, trial {i})"
        for i in np.flatnonzero(fast != naive)[:_MAX_REPORTED_FAILURES]
    ]
    return _report("oracle", t0, field, trials, failures, n=n, trials=trials, seed=seed)


def verify_angular_decoding(code: LinearCode, seed: int) -> SuiteReport:
    """Round-trip decoding of every codeword direction under every error
    pattern strictly inside the unique-decoding radius, with one random
    nonzero rescaling per sample; every list decode within the radius must
    hold at most one direction.

    Deliberate beyond-radius corruptions are also injected; their outcomes
    are recorded as observations, never as failures.  Raises SuiteTooLarge
    when samples x directions x n exceeds MAX_WORK, before any input is
    drawn or allocated.
    """
    t0 = time.perf_counter()
    seed = _at_least("seed", seed, 0)
    field = code.field
    d = min_distance(code)
    t_max = (d - 1) // 2
    rho = d // 2  # largest integer rho with 2*rho <= d
    P = projective_codeword_matrix(code)
    n = code.n
    D, N = P.shape[0], _pattern_count(field, n, t_max)
    samples = min(D * N, MAX_DECODING_SAMPLES)
    _check_work(samples * D * n, f"{samples} samples x {D} directions x {n} positions")
    rng = np.random.default_rng(seed)
    E = error_patterns(field, n, t_max)

    if D * N <= MAX_DECODING_SAMPLES:
        dir_idx, pat_idx = np.divmod(np.arange(D * N), N)
    else:
        dir_idx = rng.integers(0, D, size=MAX_DECODING_SAMPLES)
        pat_idx = rng.integers(0, N, size=MAX_DECODING_SAMPLES)
    alphas = rng.integers(1, field.q, size=dir_idx.size)
    U = field.mul_array(alphas[:, None], field.add_array(P[dir_idx], E[pat_idx]))
    best, angle, runner_up = decode_rows(code, U)
    decoded = (2 * angle < d) & (best == dir_idx)
    listed = runner_up >= rho

    failures: list[str] = []  # in sample order, each decode check before its list check
    for i in np.flatnonzero(~(decoded & listed)):
        if not decoded[i]:
            failures.append(
                f"decode: direction {format_vector(P[dir_idx[i]])} with errors {format_vector(E[pat_idx[i]])} "
                f"scalar {alphas[i]} gave angle {angle[i]} at direction {format_vector(P[best[i]])} "
                f"(u={format_vector(U[i])})"
            )
        if not listed[i]:
            failures.append(f"list: two directions at angle < rho={rho} for u={format_vector(U[i])}")
        if len(failures) >= _MAX_REPORTED_FAILURES:
            break

    # beyond-radius probes: weight ceil(d/2) corruption, outcome recorded only
    injected = min(10, D)
    w_beyond = min((d + 1) // 2, n)
    probes = P[:injected].copy()
    for word in probes:
        positions = rng.choice(n, size=w_beyond, replace=False)
        for pos in positions:
            word[pos] = field.add(int(word[pos]), int(rng.integers(1, field.q)))
        if not word.any():
            word[0] = 1
    beyond = int(np.count_nonzero(2 * decode_rows(code, probes)[1] >= d))

    observations = {"min_distance": d, "max_error_weight": t_max, "rho": rho,
                    "beyond_radius_injected": injected, "beyond_radius_observed": beyond}
    return _report("decoding", t0, code, 2 * dir_idx.size, failures, observations,
                   trials=dir_idx.size, seed=seed)


def angle_vs_dist_census(code: LinearCode, sample_size: int, seed: int) -> SuiteReport:
    """Tabulate angle-to-code vs distance-to-code over random nonzero inputs,
    check both against a scan of every codeword, and verify they agree
    exactly when the classical minimum is attained at a nonzero codeword.
    Raises SuiteTooLarge when samples x (directions + codewords) x n
    exceeds MAX_WORK, before any input is drawn or allocated."""
    t0 = time.perf_counter()
    sample_size = _at_least("sample_size", sample_size, 1)
    seed = _at_least("seed", seed, 0)
    q, k, n = code.field.q, code.k, code.n
    D = (q**k - 1) // (q - 1)
    _check_work(sample_size * (D + q**k) * n,
                f"{sample_size} samples x ({D} directions + {q**k} codewords) x {n} positions")
    rng = np.random.default_rng(seed)
    U = random_nonzero_rows(rng, code.field, sample_size, code.n)
    angles = decode_rows(code, U)[1]
    dists_to_code = np.minimum(np.count_nonzero(U, axis=1), angles)  # the zero codeword is at wt(u)
    CW = codeword_matrix(code)
    failures: list[str] = []
    for u, w, dist, ang in zip(U, U.astype(CW.dtype), dists_to_code.tolist(), angles.tolist()):
        dists = np.count_nonzero(CW != w, axis=1)  # compared in CW's narrow dtype
        attained_nonzero = bool((dists[1:] == dist).any())
        if (dist, ang) != (dists.min(), dists[1:].min()) or (ang == dist) != attained_nonzero:
            failures.append(
                f"census: angle={ang} dist={dist} attained_at_nonzero={attained_nonzero} "
                f"for u={format_vector(u)}"
            )
            if len(failures) >= _MAX_REPORTED_FAILURES:
                break
    equal = int(np.count_nonzero(angles == dists_to_code))
    return _report("census", t0, code, sample_size, failures,
                   {"equal": equal, "strict": sample_size - equal}, trials=sample_size, seed=seed)


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------

_BENCH_SEED = 0


def bench_angle(field: Field, n_values: list[int], repetitions: int = 9) -> list[BenchRecord]:
    """Median wall time of both algorithms on identical random inputs.

    At least 5 repetitions (1 to 4 run 5), medians taken over warm runs.
    Raises SuiteTooLarge, before any input is drawn, when repetitions x
    sum(n) exceeds MAX_BENCH_POSITIONS or that times q - 1 exceeds MAX_WORK.
    """
    reps = max(5, _at_least("repetitions", repetitions, 1))
    n_values = [_at_least("n", n, 1) for n in n_values]
    if reps * sum(n_values) > MAX_BENCH_POSITIONS:
        raise SuiteTooLarge(f"{reps} repetitions x {sum(n_values)} positions exceed the "
                            f"{MAX_BENCH_POSITIONS} bench guard")
    _check_work(reps * sum(n_values) * (field.q - 1),
                f"{reps} repetitions x {sum(n_values)} positions x {field.q - 1} oracle passes")
    rng = np.random.default_rng(_BENCH_SEED)
    records = []
    for n in n_values:
        u = Vector(field, random_nonzero_rows(rng, field, 1, n)[0])
        v = Vector(field, random_nonzero_rows(rng, field, 1, n)[0])
        for algo, fn in (("fast", angle_fast), ("naive", angle_naive)):
            fn(u, v)
            fn(u, v)  # warm-up
            times = []
            for _ in range(reps):
                start = time.perf_counter_ns()
                fn(u, v)
                times.append(time.perf_counter_ns() - start)
            records.append(
                BenchRecord(
                    algo=algo,
                    q=field.q,
                    n=n,
                    repetitions=reps,
                    median_ns=int(np.median(times)),
                )
            )
    return records
