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
from dataclasses import dataclass, field as dataclass_field

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
from .gf import Field
from .vectors import Vector

# Triple loops over all nonzero vectors stay tractable up to this many.
MAX_EXHAUSTIVE_VECTORS = 1 << 10

# Past this many (direction, error pattern) pairs the decoding suite samples this many.
MAX_DECODING_SAMPLES = 100_000


@dataclass
class SuiteReport:
    """Outcome of one verification suite run."""

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
        return {
            "suite": self.suite,
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "trials": self.trials,
            "seed": self.seed,
            "checks_run": self.checks_run,
            "failures": self.failures,
            "wall_time": self.wall_time,
            "observations": self.observations,
        }


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
        return {
            "algo": self.algo,
            "q": self.q,
            "n": self.n,
            "repetitions": self.repetitions,
            "median_ns": self.median_ns,
            "positions_per_second": self.positions_per_second,
        }


_MAX_REPORTED_FAILURES = 25


def _fmt_row(row: np.ndarray) -> str:
    return ",".join(str(int(x)) for x in row)


# ----------------------------------------------------------------------
# Input construction
# ----------------------------------------------------------------------

def _require_length(n: int):
    if n < 1:
        raise InvalidInput(f"vector length must be >= 1, got n = {n}")


def all_nonzero_vectors(field: Field, n: int) -> np.ndarray:
    """All q^n - 1 nonzero vectors as rows, ascending encoded order."""
    _require_length(n)
    return digit_rows(np.arange(1, field.q**n), field.q, n)


def random_nonzero_rows(rng: np.random.Generator, field: Field, trials: int, n: int) -> np.ndarray:
    """(trials, n) random rows, with all-zero rows patched deterministically."""
    _require_length(n)
    if trials < 1:
        raise InvalidInput(f"the number of trials must be >= 1, got {trials}")
    U = rng.integers(0, field.q, size=(trials, n), dtype=np.int64)
    zero_rows = np.flatnonzero(~U.any(axis=1))
    if zero_rows.size:
        U[zero_rows, zero_rows % n] = 1 + zero_rows % (field.q - 1)
    return U


def error_patterns(field: Field, n: int, t: int) -> np.ndarray:
    """All error vectors of weight <= t as rows: by weight, then support in
    itertools.combinations order, then values in itertools.product order
    over the nonzero elements.  Raises SuiteTooLarge past ENUMERATION_CAP
    rows, before anything is allocated."""
    q1 = field.q - 1
    count = sum(math.comb(n, w) * q1**w for w in range(t + 1))
    if count > ENUMERATION_CAP:
        raise SuiteTooLarge(f"{count} error patterns of weight <= {t} exceed the {ENUMERATION_CAP} guard")
    blocks = [np.zeros((1, n), dtype=np.int64)]
    for w in range(1, t + 1):
        supports = np.array(list(itertools.combinations(range(n), w)))
        values = 1 + digit_rows(np.arange(q1**w), q1, w)
        E = np.zeros((len(supports), len(values), n), dtype=np.int64)
        E[np.arange(len(supports))[:, None, None], np.arange(len(values))[:, None], supports[:, None, :]] = values
        blocks.append(E.reshape(-1, n))
    return np.vstack(blocks)


def _guard_exhaustive(field: Field, n: int):
    count = field.q**n - 1
    if count > MAX_EXHAUSTIVE_VECTORS:
        raise SuiteTooLarge(
            f"q^n - 1 = {count} nonzero vectors exceed the {MAX_EXHAUSTIVE_VECTORS} triple-loop guard"
        )


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------

def verify_metric_axioms(field: Field, n: int) -> SuiteReport:
    """Scalar identifiability, symmetry and the triangle inequality over
    every ordered pair/triple of nonzero vectors in GF(q)^n."""
    t0 = time.perf_counter()
    _guard_exhaustive(field, n)
    M = all_nonzero_vectors(field, n)
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
            f"u={_fmt_row(M[i])} v={_fmt_row(M[j])} (q={field.q})"
        )

    # (2) symmetry
    for i, j in np.argwhere(A != A.T)[:_MAX_REPORTED_FAILURES]:
        failures.append(
            f"symmetry: {A[i, j]} != {A[j, i]} for u={_fmt_row(M[i])} v={_fmt_row(M[j])}"
        )

    # (3) triangle inequality over all ordered triples
    viol = A[:, None, :] > A[:, :, None] + A[None, :, :]
    for i, j, k in np.argwhere(viol)[:_MAX_REPORTED_FAILURES]:
        failures.append(
            f"triangle: angle(u,w)={A[i, k]} > {A[i, j]}+{A[j, k]} for "
            f"u={_fmt_row(M[i])} v={_fmt_row(M[j])} w={_fmt_row(M[k])}"
        )

    return SuiteReport(
        suite="metric",
        q=field.q,
        n=n,
        k=None,
        trials=None,
        seed=None,
        checks_run=N * N + N * N + N**3,
        failures=failures,
        wall_time=time.perf_counter() - t0,
        observations={"vectors": N, "triples": N**3},
    )


def verify_projective_descent(field: Field, n: int) -> SuiteReport:
    """Invariance of the angle under independent rescaling of both arguments,
    and agreement with the metric computed on canonical representatives."""
    t0 = time.perf_counter()
    _guard_exhaustive(field, n)
    M = all_nonzero_vectors(field, n)
    N = M.shape[0]
    A = _angle_table(field, M, M)
    failures: list[str] = []
    checks = N * N

    for alpha in field.nonzero_elements():
        Ma = field.scalar_mul_array(alpha, M)
        for beta in field.nonzero_elements():
            A_ab = _angle_table(field, Ma, field.scalar_mul_array(beta, M))
            checks += N * N
            for i, j in np.argwhere(A_ab != A)[:_MAX_REPORTED_FAILURES]:
                failures.append(
                    f"rescaling: angle({alpha}*u,{beta}*v)={A_ab[i, j]} != {A[i, j]} "
                    f"for u={_fmt_row(M[i])} v={_fmt_row(M[j])}"
                )
            if len(failures) >= _MAX_REPORTED_FAILURES:
                break
        if len(failures) >= _MAX_REPORTED_FAILURES:
            break

    canon = normalize_rows(field, M)
    A_canon = _angle_table(field, canon, canon)
    for i, j in np.argwhere(A_canon != A)[:_MAX_REPORTED_FAILURES]:
        failures.append(
            f"canonical reps: {A_canon[i, j]} != {A[i, j]} for "
            f"u={_fmt_row(M[i])} v={_fmt_row(M[j])}"
        )

    return SuiteReport(
        suite="projective",
        q=field.q,
        n=n,
        k=None,
        trials=None,
        seed=None,
        checks_run=checks,
        failures=failures,
        wall_time=time.perf_counter() - t0,
        observations={"vectors": N, "scalar_pairs": (field.q - 1) ** 2},
    )


def verify_oracle_equivalence(field: Field, n: int, trials: int, seed: int) -> SuiteReport:
    """The single-pass algorithm against the brute-force definition on
    seeded random nonzero pairs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    U = random_nonzero_rows(rng, field, trials, n)
    V = random_nonzero_rows(rng, field, trials, n)
    fast = angle_fast_rows(field, U, V)
    naive = angle_naive_rows(field, U, V)
    failures = [
        f"oracle: fast={fast[i]} naive={naive[i]} for u={_fmt_row(U[i])} "
        f"v={_fmt_row(V[i])} (q={field.q}, trial {i})"
        for i in np.flatnonzero(fast != naive)[:_MAX_REPORTED_FAILURES]
    ]
    return SuiteReport(
        suite="oracle",
        q=field.q,
        n=n,
        k=None,
        trials=trials,
        seed=seed,
        checks_run=trials,
        failures=failures,
        wall_time=time.perf_counter() - t0,
    )


def verify_angular_decoding(code: LinearCode, seed: int) -> SuiteReport:
    """Round-trip decoding of every codeword direction under every error
    pattern strictly inside the unique-decoding radius, with one random
    nonzero rescaling per sample; every list decode within the radius must
    hold at most one direction.

    Deliberate beyond-radius corruptions are also injected; their outcomes
    are recorded as observations, never as failures.
    """
    t0 = time.perf_counter()
    field = code.field
    d = min_distance(code)
    t_max = (d - 1) // 2
    rho = d // 2  # largest integer rho with 2*rho <= d
    P = projective_codeword_matrix(code)
    n = code.n
    rng = np.random.default_rng(seed)
    E = error_patterns(field, n, t_max)

    D, N = P.shape[0], E.shape[0]
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
                f"decode: direction {_fmt_row(P[dir_idx[i]])} with errors {_fmt_row(E[pat_idx[i]])} "
                f"scalar {alphas[i]} gave angle {angle[i]} at direction {_fmt_row(P[best[i]])} "
                f"(u={_fmt_row(U[i])})"
            )
        if not listed[i]:
            failures.append(f"list: two directions at angle < rho={rho} for u={_fmt_row(U[i])}")
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

    return SuiteReport(
        suite="decoding",
        q=field.q,
        n=code.n,
        k=code.k,
        trials=dir_idx.size,
        seed=seed,
        checks_run=2 * dir_idx.size,
        failures=failures,
        wall_time=time.perf_counter() - t0,
        observations={
            "min_distance": d,
            "max_error_weight": t_max,
            "rho": rho,
            "beyond_radius_injected": injected,
            "beyond_radius_observed": beyond,
        },
    )


def angle_vs_dist_census(code: LinearCode, sample_size: int, seed: int) -> SuiteReport:
    """Tabulate angle-to-code vs distance-to-code over random nonzero inputs,
    check both against a scan of every codeword, and verify they agree
    exactly when the classical minimum is attained at a nonzero codeword."""
    t0 = time.perf_counter()
    field = code.field
    rng = np.random.default_rng(seed)
    U = random_nonzero_rows(rng, field, sample_size, code.n)
    angles = decode_rows(code, U)[1]
    dists_to_code = np.minimum(np.count_nonzero(U, axis=1), angles)  # the zero codeword is at wt(u)
    CW = codeword_matrix(code)
    failures: list[str] = []
    equal_count = 0
    strict_count = 0
    for i in range(sample_size):
        dist, ang = int(dists_to_code[i]), int(angles[i])
        dists = np.count_nonzero(CW != U[i][None, :], axis=1)
        attained_nonzero = bool((dists[1:] == dist).any())
        if (dist, ang) != (dists.min(), dists[1:].min()) or (ang == dist) != attained_nonzero:
            failures.append(
                f"census: angle={ang} dist={dist} attained_at_nonzero={attained_nonzero} "
                f"for u={_fmt_row(U[i])}"
            )
            if len(failures) >= _MAX_REPORTED_FAILURES:
                break
        if ang == dist:
            equal_count += 1
        else:
            strict_count += 1
    return SuiteReport(
        suite="census",
        q=field.q,
        n=code.n,
        k=code.k,
        trials=sample_size,
        seed=seed,
        checks_run=sample_size,
        failures=failures,
        wall_time=time.perf_counter() - t0,
        observations={"equal": equal_count, "strict": strict_count},
    )


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------

_BENCH_SEED = 0


def bench_angle(field: Field, n_values: list[int], repetitions: int = 9) -> list[BenchRecord]:
    """Median wall time of both algorithms on identical random inputs.

    At least 5 repetitions, medians taken over warm runs.
    """
    reps = max(5, repetitions)
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
