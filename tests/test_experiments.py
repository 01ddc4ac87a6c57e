"""Verification suites: zero-failure runs, determinism, guards, bench records."""

import itertools

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
from fqangle.experiments import all_nonzero_vectors, error_patterns, random_nonzero_rows

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


# ----------------------------------------------------------------------
# Projective descent
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (2, 2, 2), (2, 1, 5)])
def test_projective_suite(p, m, n):
    report = verify_projective_descent(make_field(p, m), n)
    assert report.passed
    assert report.observations["scalar_pairs"] == (p**m - 1) ** 2


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


def test_census_suite_asserts_unique_decoding(monkeypatch):
    import fqangle.codes

    # an angle table that ties every direction at angle 0, inside the radius
    monkeypatch.setattr(fqangle.codes, "_angle_table", lambda field, A, B: np.zeros((len(A), len(B)), dtype=np.int64))
    with pytest.raises(UniqueDecodingViolated):
        angle_vs_dist_census(make_rs_code(F7, 7, 3), 10, seed=0)


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
        assert set(r.to_dict()) == {
            "algo",
            "q",
            "n",
            "repetitions",
            "median_ns",
            "positions_per_second",
        }


def test_bench_minimum_reps_enforced():
    records = bench_angle(make_field(2), [64], repetitions=1)
    assert all(r.repetitions == 5 for r in records)


def test_bench_q2_algorithms_comparable():
    # with a single nonzero scalar, brute force is one pass too
    records = {r.algo: r.median_ns for r in bench_angle(make_field(2), [1 << 16], repetitions=9)}
    ratio = records["fast"] / records["naive"]
    assert 1 / 3 <= ratio <= 3
