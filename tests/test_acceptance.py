"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test prints one pass/fail line; budgets are wall-clock seconds and
all value checks are exact integer comparisons.
"""

import json
import time

import numpy as np

from fqangle import (
    Vector,
    angle_fast,
    angle_fast_rows,
    angle_to_code,
    angular_decode,
    argmin_scalar,
    decode_rows,
    dist_to_code,
    dot,
    is_max_angle,
    make_field,
    make_repetition_code,
    make_rs_code,
    min_distance,
    projective_list_decode,
    projectivize,
    angle_vs_dist_census,
    bench_angle,
    verify_metric_axioms,
    verify_oracle_equivalence,
    verify_projective_descent,
)
from fqangle.cli import main as cli_main
from fqangle.codes import projective_codeword_matrix
from fqangle.experiments import all_nonzero_vectors, error_patterns, random_nonzero_rows

F3 = make_field(3)
F7 = make_field(7)


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {num:2d}] {status}  {label}  ({elapsed:.2f}s / budget {budget:g}s)")
    assert ok, f"criterion {num} ({label}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_worked_example_via_cli(capsys):
    t0 = time.perf_counter()
    code = cli_main(["angle", "--q", "3", "--u", "1,2,0", "--v", "1,1,2", "--verbose"])
    doc = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and doc["angle"] == 2
        and doc["trace"] == [{"c": 1, "distance": 2}, {"c": 2, "distance": 2}]
    )
    # the computation itself must be sub-millisecond (warm call, CLI parsing aside)
    u, v = Vector(F3, [1, 2, 0]), Vector(F3, [1, 1, 2])
    argmin_scalar(u, v)
    t1 = time.perf_counter()
    c_star, angle = argmin_scalar(u, v)
    is_max = is_max_angle(u, v)
    compute_time = time.perf_counter() - t1
    ok = ok and (c_star, angle, is_max) == (1, 2, False) and compute_time < 1e-3
    with capsys.disabled():
        _report(1, "worked example, angle 2 with c=1,2 trace", ok, time.perf_counter() - t0, 60)


def test_criterion_2_q2_collapse(capsys):
    t0 = time.perf_counter()
    f2 = make_field(2)
    ok = True
    for n in range(1, 9):
        M = all_nonzero_vectors(f2, n)
        N = M.shape[0]
        U = np.repeat(M, N, axis=0)
        V = np.tile(M, (N, 1))
        angles = angle_fast_rows(f2, U, V)
        distances = np.count_nonzero(U != V, axis=1)
        ok = ok and np.array_equal(angles, distances)
    with capsys.disabled():
        _report(2, "q=2: angle == Hamming distance, n <= 8 exhaustive", ok, time.perf_counter() - t0, 5)


def test_criterion_3_metric_axioms_exhaustive(capsys):
    t0 = time.perf_counter()
    ok = True
    for p, m, n in [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (7, 1, 2)]:
        report = verify_metric_axioms(make_field(p, m), n)
        ok = ok and report.passed
    with capsys.disabled():
        _report(3, "metric axioms over all triples, five (q,n) settings", ok, time.perf_counter() - t0, 60)


def test_criterion_4_projective_descent(capsys):
    t0 = time.perf_counter()
    ok = (
        verify_projective_descent(F3, 3).passed
        and verify_projective_descent(make_field(2, 2), 2).passed
    )
    with capsys.disabled():
        _report(4, "bi-scalar invariance and projective well-definedness", ok, time.perf_counter() - t0, 10)


def test_criterion_5_oracle_equivalence_sweep(capsys):
    t0 = time.perf_counter()
    ok = True
    for q in (3, 5, 7, 8, 9, 16, 251):
        field = make_field(q) if q in (3, 5, 7, 251) else {8: make_field(2, 3), 9: make_field(3, 2), 16: make_field(2, 4)}[q]
        for n in (10, 100, 1000):
            report = verify_oracle_equivalence(field, n, trials=10_000, seed=42)
            ok = ok and report.passed and report.checks_run >= 10_000
    with capsys.disabled():
        _report(5, "fast == naive on 10^4 pairs per (q, n) cell", ok, time.perf_counter() - t0, 60)


def test_criterion_6_linear_time_performance(capsys):
    t0 = time.perf_counter()
    f251 = make_field(251)
    records = {(r.algo, r.n): r.median_ns for r in bench_angle(f251, [100_000, 200_000], repetitions=9)}
    scaling = records[("fast", 200_000)] / records[("fast", 100_000)]
    speedup = records[("naive", 100_000)] / records[("fast", 100_000)]
    ok = 1.5 <= scaling <= 3.0 and speedup >= 20
    with capsys.disabled():
        print(f"    fast scaling 2e5/1e5 = {scaling:.2f}, naive/fast at 1e5 = {speedup:.0f}x")
        _report(6, "linear scaling and >= 20x naive speedup at q=251", ok, time.perf_counter() - t0, 120)


def test_criterion_7_max_angle_predicate(capsys):
    t0 = time.perf_counter()
    ok = True
    for field, n in [(F3, 3), (make_field(2, 2), 2)]:
        M = all_nonzero_vectors(field, n)
        for i in range(M.shape[0]):
            u = Vector(field, M[i])
            for j in range(M.shape[0]):
                v = Vector(field, M[j])
                ok = ok and is_max_angle(u, v) == (angle_fast(u, v) == n)
    with capsys.disabled():
        _report(7, "is_max_angle <=> angle == n, exhaustive", ok, time.perf_counter() - t0, 5)


def test_criterion_8_angle_vs_distance_to_code(capsys):
    t0 = time.perf_counter()
    rep = make_repetition_code(F3, 3)
    u = Vector(F3, [1, 0, 0])
    ok = dist_to_code(u, rep) == 1 and angle_to_code(u, rep) == 2
    report = angle_vs_dist_census(make_rs_code(F7, 7, 3), sample_size=1000, seed=8)
    ok = ok and report.passed and report.checks_run == 1000
    with capsys.disabled():
        _report(8, "strict angle/distance split and iff-condition on 10^3 inputs", ok, time.perf_counter() - t0, 10)


def test_criterion_9_angular_unique_decoding(capsys):
    t0 = time.perf_counter()
    code = make_rs_code(F7, 7, 3)
    d = min_distance(code)
    ok = d == 5 == code.n - code.k + 1

    # every direction under every error pattern of weight <= 2, every rescaling
    P = projective_codeword_matrix(code)
    E = error_patterns(F7, 7, 2)
    scalars = np.arange(1, 7)
    ok = ok and E.shape[0] == 1 + 7 * 6 + 21 * 36
    words = F7.add_array(P[:, None, :], E[None, :, :])  # (57, patterns, 7)
    U = F7.mul_array(scalars[None, None, :, None], words[:, :, None, :]).reshape(-1, 7)
    source = np.repeat(np.arange(P.shape[0]), E.shape[0] * scalars.size)
    best, angle, _ = decode_rows(code, U)
    decodes = U.shape[0]
    ok = ok and decodes == 57 * E.shape[0] * 6
    ok = ok and bool(np.all(2 * angle < d)) and np.array_equal(best, source)

    rng = np.random.default_rng(99)
    U = random_nonzero_rows(rng, F7, 1000, 7)
    best, angle, runner_up = decode_rows(code, U)
    for rho in (0, 1, 2):  # every integer rho with 2*rho <= 5: list size <= 1
        ok = ok and bool(np.all(runner_up >= rho))
    for i in range(1000):  # the one-word decoders agree with the batch
        u = Vector(F7, U[i])
        outcome = angular_decode(u, code)
        ok = ok and outcome.unique == (2 * angle[i] < d)
        ok = ok and outcome.best[0] == (projectivize(Vector(F7, P[best[i]])), angle[i])
        ok = ok and (len(outcome.best) > 1) == (runner_up[i] == angle[i])
        ok = ok and len(projective_list_decode(u, code, 2)) == int(angle[i] < 2)
    with capsys.disabled():
        print(f"    {decodes} exhaustive decodes (57 directions x {E.shape[0]} patterns x 6 scalars)")
        _report(9, "exhaustive unique decoding and list size <= 1", ok, time.perf_counter() - t0, 120)


def test_criterion_10_one_way_orthogonality(capsys):
    t0 = time.perf_counter()
    M = all_nonzero_vectors(F3, 3)
    vectors = [Vector(F3, row) for row in M]
    ok = all(
        dot(u, v) == 0
        for u in vectors
        for v in vectors
        if is_max_angle(u, v)
    )
    u, v = Vector(F3, [1, 2, 0]), Vector(F3, [1, 1, 2])
    ok = ok and dot(u, v) == 0 and angle_fast(u, v) == 2 < 3
    with capsys.disabled():
        _report(10, "max angle implies zero dot; converse falsified", ok, time.perf_counter() - t0, 5)
