"""Verification suites: zero-failure runs, determinism, guards, bench records."""

import itertools
import json

import numpy as np
import pytest

from fqangle import (
    InvalidInput,
    SuiteTooLarge,
    UniqueDecodingViolated,
    Vector,
    angle_to_code,
    angle_vs_dist_census,
    bench_angle,
    decode_rows,
    dist_to_code,
    make_field,
    make_repetition_code,
    make_rs_code,
    verify_angular_decoding,
    verify_metric_axioms,
    verify_oracle_equivalence,
    verify_projective_descent,
)
import fqangle.experiments
from fqangle.experiments import (
    MAX_BENCH_POSITIONS,
    MAX_WORK,
    all_nonzero_vectors,
    error_patterns,
    random_nonzero_rows,
)

F3 = make_field(3)
F7 = make_field(7)


def test_all_nonzero_vectors():
    M = all_nonzero_vectors(F3, 3)
    assert M.shape == (26, 3)
    rows = {tuple(r) for r in M.tolist()}
    assert len(rows) == 26 and (0, 0, 0) not in rows


def test_random_nonzero_rows_deterministic_and_nonzero():
    rng1 = np.random.default_rng(4)
    rng2 = np.random.default_rng(4)
    A = random_nonzero_rows(rng1, F3, 500, 4)
    B = random_nonzero_rows(rng2, F3, 500, 4)
    assert np.array_equal(A, B)
    assert A.any(axis=1).all()
    for trials in (0, -1):
        with pytest.raises(InvalidInput):
            random_nonzero_rows(rng1, F3, trials, 4)


@pytest.mark.parametrize("p,m,n,t", [(7, 1, 7, 2), (2, 2, 5, 3), (3, 1, 4, 0)])
def test_error_patterns_order(p, m, n, t):
    field = make_field(p, m)
    expected = [[0] * n]
    for w in range(1, t + 1):
        for positions in itertools.combinations(range(n), w):
            for values in itertools.product(field.nonzero_elements(), repeat=w):
                row = [0] * n
                for pos, val in zip(positions, values):
                    row[pos] = val
                expected.append(row)
    assert error_patterns(field, n, t).tolist() == expected


def test_error_pattern_guard():
    # RS[13,4] over GF(13) corrects 4 errors: 15,331,837 patterns > 2^20
    with pytest.raises(SuiteTooLarge):
        error_patterns(make_field(13), 13, 4)
    with pytest.raises(SuiteTooLarge):
        verify_angular_decoding(make_rs_code(make_field(13), 13, 4), seed=0)


# ----------------------------------------------------------------------
# Metric axioms
# ----------------------------------------------------------------------

def test_metric_suite_f3_cubed():
    report = verify_metric_axioms(F3, 3)
    assert report.passed
    assert report.observations["triples"] == 17576
    assert report.checks_run >= 17576


@pytest.mark.parametrize("q,n", [(2, 4), (5, 2)])
def test_metric_suite_other_params(q, n):
    report = verify_metric_axioms(make_field(q), n)
    assert report.passed
    assert report.failures == []


def test_metric_suite_guard():
    with pytest.raises(SuiteTooLarge):
        verify_metric_axioms(F3, 7)  # 3^7 - 1 = 2186 > 1024


@pytest.mark.parametrize("suite", [verify_metric_axioms, verify_projective_descent])
def test_exhaustive_guard_bounds_n_before_forming_q_to_the_n(suite):
    # 7^(10^5) has 84,510 digits: too slow to form and too long to print
    with pytest.raises(SuiteTooLarge, match=r"7\^100000 - 1 nonzero vectors exceed the 1024 triple-loop guard"):
        suite(F7, 10**5)


def test_metric_suite_triangle_check_keeps_its_temporaries_small():
    import tracemalloc

    tracemalloc.start()
    try:
        report = verify_metric_axioms(make_field(2), 8)  # N = 255: N^3 int64 would be 127 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.observations["triples"] == 255**3
    assert peak < 32 << 20


def test_metric_suite_reports_triangle_violations_in_order(monkeypatch):
    import fqangle.experiments

    real = fqangle.experiments._angle_table

    def tampered(field, A, B):
        table = real(field, A, B).copy()
        table[2, 5] = table[7, 1] = 3 * A.shape[1]  # far past every two-step path
        return table

    monkeypatch.setattr(fqangle.experiments, "_angle_table", tampered)
    report = verify_metric_axioms(F3, 3)
    M = all_nonzero_vectors(F3, 3)
    A = tampered(F3, M, M)

    def row(i):
        return ",".join(map(str, M[i]))

    # reference: every violation of the whole (N, N, N) cube, in argwhere order
    expected = [
        f"triangle: angle(u,w)={A[i, k]} > {A[i, j]}+{A[j, k]} for u={row(i)} v={row(j)} w={row(k)}"
        for i, j, k in np.argwhere(A[:, None, :] > A[:, :, None] + A[None, :, :])[:25]
    ]
    assert len(expected) == 25
    assert expected[-1].split(" for ")[1].startswith(f"u={row(7)} ")  # the cap cuts into the second row
    assert [f for f in report.failures if f.startswith("triangle")] == expected


# ----------------------------------------------------------------------
# Projective descent
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (2, 2, 2), (2, 1, 5)])
def test_projective_suite(p, m, n):
    report = verify_projective_descent(make_field(p, m), n)
    assert report.passed
    assert report.observations["scalar_pairs"] == (p**m - 1) ** 2


def test_projective_suite_counts_every_check_in_a_failing_run(monkeypatch):
    import fqangle.experiments

    real = fqangle.experiments._angle_table

    def tampered(field, A, B):  # off by one on every rescaled pair with A's first row not (0, 0, 1)
        table = real(field, A, B).copy()
        if not np.array_equal(A, B) and A[0, -1] != 1:
            table[:, :3] += 1
        return table

    passing = verify_projective_descent(F3, 3)
    monkeypatch.setattr(fqangle.experiments, "_angle_table", tampered)
    report = verify_projective_descent(F3, 3)
    assert len(report.failures) == 25  # the rescaling loop stops at the cap
    assert report.checks_run == passing.checks_run == (4 + 1) * 26**2


# ----------------------------------------------------------------------
# Oracle equivalence
# ----------------------------------------------------------------------

def test_oracle_suite():
    report = verify_oracle_equivalence(F7, 20, 2000, seed=42)
    assert report.passed
    assert report.checks_run == 2000


def test_oracle_suite_q2_trivial():
    report = verify_oracle_equivalence(make_field(2), 16, 500, seed=0)
    assert report.passed


def test_oracle_suite_extension_field():
    report = verify_oracle_equivalence(make_field(2, 3), 12, 1000, seed=5)
    assert report.passed


def test_oracle_suite_determinism():
    a = verify_oracle_equivalence(F7, 10, 300, seed=9).to_dict()
    b = verify_oracle_equivalence(F7, 10, 300, seed=9).to_dict()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


def test_oracle_suite_reports_reproducible_failures(monkeypatch):
    import fqangle.experiments as exp

    def broken_naive(field, U, V):
        return np.zeros(np.atleast_2d(U).shape[0], dtype=np.int64)

    monkeypatch.setattr(exp, "angle_naive_rows", broken_naive)
    report = verify_oracle_equivalence(F7, 6, 50, seed=1)
    assert not report.passed
    assert report.failures
    # every failure line carries both input encodings for reproduction
    for line in report.failures:
        assert "u=" in line and "v=" in line and "q=7" in line


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def test_decoding_suite_repetition_code():
    report = verify_angular_decoding(make_repetition_code(F3, 3), seed=1)
    assert report.passed
    assert report.observations["min_distance"] == 3
    assert report.observations["max_error_weight"] == 1
    # 1 direction, patterns: identity + 3 positions * 2 values
    assert report.trials == 7


def test_decoding_suite_small_rs():
    code = make_rs_code(make_field(5), 5, 2)  # d = 4, corrects weight-1 errors
    report = verify_angular_decoding(code, seed=2)
    assert report.passed
    assert report.observations["min_distance"] == 4
    assert report.observations["rho"] == 2


def test_decoding_suite_determinism():
    code = make_rs_code(make_field(5), 5, 2)
    a = verify_angular_decoding(code, seed=3).to_dict()
    b = verify_angular_decoding(code, seed=3).to_dict()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


# ----------------------------------------------------------------------
# Angle-vs-distance census
# ----------------------------------------------------------------------

def test_census_suite_and_example_classifications():
    code = make_repetition_code(F3, 3)
    report = angle_vs_dist_census(code, 300, seed=0)
    assert report.passed
    assert report.observations["equal"] + report.observations["strict"] == 300
    assert report.observations["strict"] > 0
    # the three classifications, checked directly
    u = Vector(F3, [1, 0, 0])
    assert (dist_to_code(u, code), angle_to_code(u, code)) == (1, 2)  # strict
    near = Vector(F3, [1, 1, 2])  # weight-1 perturbation of (1,1,1)
    assert dist_to_code(near, code) == angle_to_code(near, code) == 1  # equal
    word = Vector(F3, [2, 2, 2])
    assert dist_to_code(word, code) == angle_to_code(word, code) == 0


def test_census_suite_checks_against_every_codeword(monkeypatch):
    import fqangle.experiments

    def decode_rows_off_where_zero_is_closest(code, U):
        best, angle, runner_up = decode_rows(code, U)
        return best, angle + (angle > np.count_nonzero(U, axis=1)), runner_up

    # an angle one too large only where the zero codeword is closest leaves
    # dist, the equal/strict split and the iff condition intact; only the
    # comparison with the codeword scan catches it
    monkeypatch.setattr(fqangle.experiments, "decode_rows", decode_rows_off_where_zero_is_closest)
    report = angle_vs_dist_census(make_repetition_code(F3, 3), 300, seed=0)
    assert not report.passed
    assert report.failures[0].startswith("census: ")


def test_census_suite_counts_every_sample_in_a_failing_run(monkeypatch):
    import fqangle.experiments

    def decode_rows_off_at_odd_angles(code, U):
        best, angle, runner_up = decode_rows(code, U)
        return best, angle + 2 * (angle % 2), runner_up

    monkeypatch.setattr(fqangle.experiments, "decode_rows", decode_rows_off_at_odd_angles)
    report = angle_vs_dist_census(make_repetition_code(F3, 3), 300, seed=0)
    assert len(report.failures) == 25  # the scan stops at the cap
    assert report.observations["equal"] + report.observations["strict"] == report.trials == 300


def test_census_suite_asserts_unique_decoding(monkeypatch):
    import fqangle.codes

    # an angle table that ties every direction at angle 0, inside the radius
    monkeypatch.setattr(fqangle.codes, "_angle_table", lambda field, A, B: np.zeros((len(A), len(B)), dtype=np.int64))
    with pytest.raises(UniqueDecodingViolated):
        angle_vs_dist_census(make_rs_code(F7, 7, 3), 10, seed=0)


# ----------------------------------------------------------------------
# Pinned passing reports
# ----------------------------------------------------------------------

PINNED_REPORTS = [
    (lambda: verify_metric_axioms(F3, 2),
     {"suite": "metric", "q": 3, "n": 2, "k": None, "trials": None, "seed": None, "checks_run": 640,
      "failures": [], "observations": {"vectors": 8, "triples": 512}}),
    (lambda: verify_projective_descent(F3, 2),
     {"suite": "projective", "q": 3, "n": 2, "k": None, "trials": None, "seed": None, "checks_run": 320,
      "failures": [], "observations": {"vectors": 8, "scalar_pairs": 4}}),
    (lambda: verify_oracle_equivalence(F7, 6, 50, seed=1),
     {"suite": "oracle", "q": 7, "n": 6, "k": None, "trials": 50, "seed": 1, "checks_run": 50,
      "failures": [], "observations": {}}),
    (lambda: verify_angular_decoding(make_rs_code(make_field(5), 5, 2), seed=2),
     {"suite": "decoding", "q": 5, "n": 5, "k": 2, "trials": 126, "seed": 2, "checks_run": 252,
      "failures": [], "observations": {"min_distance": 4, "max_error_weight": 1, "rho": 2,
                                       "beyond_radius_injected": 6, "beyond_radius_observed": 6}}),
    (lambda: angle_vs_dist_census(make_repetition_code(F3, 3), 300, seed=0),
     {"suite": "census", "q": 3, "n": 3, "k": 1, "trials": 300, "seed": 0, "checks_run": 300,
      "failures": [], "observations": {"equal": 221, "strict": 79}}),
]


@pytest.mark.parametrize("run,expected", PINNED_REPORTS, ids=[e["suite"] for _, e in PINNED_REPORTS])
def test_passing_suite_reports_are_pinned(run, expected):
    report = run().to_dict()
    assert isinstance(report.pop("wall_time"), float)
    assert json.dumps(report) == json.dumps(expected)  # the same keys in the same order


# ----------------------------------------------------------------------
# Bench
# ----------------------------------------------------------------------

def test_bench_records():
    records = bench_angle(F7, [200, 400], repetitions=5)
    assert [r.algo for r in records] == ["fast", "naive", "fast", "naive"]
    for r in records:
        assert r.repetitions >= 5
        assert r.median_ns > 0
        assert r.positions_per_second > 0
        assert list(r.to_dict()) == ["algo", "q", "n", "repetitions", "median_ns", "positions_per_second"]
        assert r.to_dict()["positions_per_second"] == r.positions_per_second


def test_bench_minimum_reps_enforced():
    records = bench_angle(make_field(2), [64], repetitions=1)
    assert all(r.repetitions == 5 for r in records)


@pytest.mark.parametrize("reps", [0, -3])
def test_bench_rejects_reps_below_1(reps):
    with pytest.raises(InvalidInput):
        bench_angle(make_field(2), [64], repetitions=reps)


def test_bench_budget_counts_repetitions_times_total_length(monkeypatch):
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(fqangle.experiments, "random_nonzero_rows", drawn)
    part = MAX_BENCH_POSITIONS // 10
    with pytest.raises(Drawn):  # criterion 6's call is admitted
        bench_angle(make_field(251), [100_000, 200_000], 9)
    with pytest.raises(Drawn):  # at the budget
        bench_angle(F7, [part // 2, part - part // 2], 10)
    with pytest.raises(SuiteTooLarge):
        bench_angle(F7, [part, 1], 10)
    with pytest.raises(SuiteTooLarge):  # 1 repetition runs 5
        bench_angle(F7, [MAX_BENCH_POSITIONS // 5 + 1], 1)


def test_work_budget_counts_oracle_passes_and_decoding_positions(monkeypatch):
    # max(5, repetitions) x sum(n) x (q - 1) for bench, samples x directions
    # x n for the decoding suite: refused before any input is drawn or allocated
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(fqangle.experiments, "random_nonzero_rows", drawn)
    monkeypatch.setattr(fqangle.experiments, "error_patterns", drawn)
    F19 = make_field(19)
    with pytest.raises(Drawn):  # 5 x n x 18 at the budget
        bench_angle(F19, [MAX_WORK // 90], 1)
    with pytest.raises(SuiteTooLarge, match="work budget"):
        bench_angle(F19, [MAX_WORK // 90 + 1], 1)
    with pytest.raises(SuiteTooLarge, match="work budget"):  # inside the position bound, but hours of passes
        bench_angle(make_field(65521), [13_000_000], 5)
    with pytest.raises(Drawn):  # 10^5 samples x 757 directions x 7 = 5.3e8
        verify_angular_decoding(make_rs_code(make_field(3, 3), 7, 3), seed=0)
    for k in (5, 6, 7):  # 2.0e9, 2.7e9 and 9.6e10
        with pytest.raises(SuiteTooLarge, match="work budget"):
            verify_angular_decoding(make_rs_code(F7, 7, k), seed=0)


def test_census_work_budget_counts_directions_and_codewords(monkeypatch):
    # samples x (directions + q^k) x n, refused before any input is drawn
    # and before the code is enumerated
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(fqangle.experiments, "random_nonzero_rows", drawn)
    with pytest.raises(Drawn):  # criterion 8: 1,000 x (57 + 343) x 7 = 2.8e6
        angle_vs_dist_census(make_rs_code(F7, 7, 3), 1000, seed=0)
    large = make_rs_code(make_field(2, 4), 15, 5)  # (69,905 + 2^20) x 15 = 2^24 - 1 per sample
    with pytest.raises(Drawn):
        angle_vs_dist_census(large, 64, seed=0)
    for samples in (65, 10_000):  # 10^4, the CLI default, ran 9-10 min
        with pytest.raises(SuiteTooLarge, match="work budget"):
            angle_vs_dist_census(large, samples, seed=0)
    assert "_projective" not in vars(large) and "_codewords" not in vars(large)


def test_bench_q2_algorithms_comparable():
    # with a single nonzero scalar, brute force is one pass too
    records = {r.algo: r.median_ns for r in bench_angle(make_field(2), [1 << 16], repetitions=9)}
    ratio = records["fast"] / records["naive"]
    assert 1 / 3 <= ratio <= 3


# ----------------------------------------------------------------------
# Integer parameters
# ----------------------------------------------------------------------

BAD_INTEGERS = ("2", 2.0, 2.5, True, None)


@pytest.mark.parametrize("bad", BAD_INTEGERS)
def test_suite_and_bench_arguments_must_be_integers(bad):
    code = make_repetition_code(F3, 3)
    calls = [
        lambda: verify_metric_axioms(F3, bad),
        lambda: verify_projective_descent(F3, bad),
        lambda: verify_oracle_equivalence(F7, bad, 5, 0),
        lambda: verify_oracle_equivalence(F7, 5, bad, 0),
        lambda: verify_oracle_equivalence(F7, 5, 5, bad),
        lambda: verify_angular_decoding(code, bad),
        lambda: angle_vs_dist_census(code, bad, 0),
        lambda: angle_vs_dist_census(code, 5, bad),
        lambda: bench_angle(F7, [8, bad], 5),
        lambda: bench_angle(F7, [8], bad),
    ]
    for call in calls:
        with pytest.raises(InvalidInput):
            call()


def test_suite_arguments_below_their_least_value_are_typed():
    code = make_repetition_code(F3, 3)
    for call in (
        lambda: verify_metric_axioms(F3, 0),
        lambda: verify_oracle_equivalence(F7, 5, 0, 0),
        lambda: verify_oracle_equivalence(F7, 5, 5, -1),
        lambda: verify_angular_decoding(code, -1),
        lambda: angle_vs_dist_census(code, 0, 0),
        lambda: bench_angle(F7, [0], 5),
    ):
        with pytest.raises(InvalidInput):
            call()
    report = verify_oracle_equivalence(F7, np.int64(5), np.int64(4), np.int64(1))
    assert report.passed and (report.n, report.trials, report.seed) == (5, 4, 1)
    assert type(report.seed) is int


def test_suite_reports_with_numpy_integer_arguments_are_json():
    code = make_repetition_code(F3, 3)
    i = np.int64
    reports = [
        verify_metric_axioms(F3, i(2)),
        verify_projective_descent(F3, i(2)),
        verify_oracle_equivalence(F7, i(5), i(4), i(1)),
        verify_angular_decoding(code, i(1)),
        angle_vs_dist_census(code, i(6), i(0)),
    ]
    for report in reports:
        doc = json.loads(json.dumps(report.to_dict()))
        assert report.passed and doc["suite"] == report.suite
        for key in ("n", "k", "trials", "seed"):
            assert doc[key] is None or type(report.to_dict()[key]) is int
    assert (reports[2].n, reports[2].trials, reports[4].trials) == (5, 4, 6)
