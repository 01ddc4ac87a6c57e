"""End-to-end CLI behavior: documents, exit codes, formats."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fqangle
from fqangle.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


# ----------------------------------------------------------------------
# angle
# ----------------------------------------------------------------------

def test_angle_worked_example(capsys):
    code, doc, _ = run_json(capsys, "angle", "--q", "3", "--u", "1,2,0", "--v", "1,1,2")
    assert code == 0
    assert doc == {"angle": 2, "argmin_c": 1, "is_max": False}


def test_angle_verbose_trace(capsys):
    code, doc, _ = run_json(
        capsys, "angle", "--q", "3", "--u", "1,2,0", "--v", "1,1,2", "--verbose"
    )
    assert code == 0
    assert doc["trace"] == [{"c": 1, "distance": 2}, {"c": 2, "distance": 2}]


def test_angle_max(capsys):
    code, doc, _ = run_json(capsys, "angle", "--q", "3", "--u", "1,0", "--v", "0,1")
    assert code == 0
    assert doc["angle"] == 2 and doc["is_max"] is True


def test_angle_parallel_pair(capsys):
    code, doc, _ = run_json(capsys, "angle", "--q", "5", "--u", "1,2", "--v", "2,4")
    assert code == 0
    assert doc["angle"] == 0 and doc["argmin_c"] == 3


def test_angle_extension_field_flags(capsys):
    code, doc, _ = run_json(capsys, "angle", "--p", "2", "--m", "2", "--u", "1,2", "--v", "2,3")
    assert code == 0
    code2, doc2, _ = run_json(capsys, "angle", "--q", "4", "--u", "1,2", "--v", "2,3")
    assert doc == doc2


def test_angle_on_a_large_odd_p_extension_field(capsys):
    from fqangle import Vector, angle_naive, make_field
    from fqangle.vectors import hamming_distance, scalar_mul

    f = make_field(3, 10)
    rng = np.random.default_rng(59049)
    v = rng.integers(1, f.q, 12)
    u = f.mul_array(12345, v)
    u[[0, 5, 9]] = rng.integers(0, f.q, 3)  # three corruptions of 12345 * v
    code, doc, _ = run_json(capsys, "angle", "--q", "59049", "--u", ",".join(map(str, u)),
                            "--v", ",".join(map(str, v)))
    assert code == 0
    U, V = Vector(f, u), Vector(f, v)
    assert doc["angle"] == angle_naive(U, V) <= 3
    assert hamming_distance(U, scalar_mul(doc["argmin_c"], V)) == doc["angle"]
    assert doc["is_max"] is False


def test_angle_usage_errors(capsys):
    assert run(capsys, "angle", "--q", "3", "--u", "1,2,0")[0] == 1  # missing --v
    assert run(capsys, "angle", "--u", "1,2", "--v", "2,1")[0] == 1  # no field
    assert run(capsys, "angle", "--q", "6", "--u", "1,2", "--v", "2,1")[0] == 1
    assert run(capsys, "angle", "--q", "65537", "--u", "1,2", "--v", "2,1")[0] == 1  # over the cap
    assert run(capsys, "angle", "--q", "3", "--u", "0,0", "--v", "1,2")[0] == 1
    assert run(capsys, "angle", "--q", "3", "--u", "1,2", "--v", "1,2,0")[0] == 1
    assert run(capsys, "angle", "--q", "3", "--u", "1,x", "--v", "1,2")[0] == 1
    code, out, err = run(capsys, "angle", "--q", "3", "--u", "0,0", "--v", "1,2")
    assert out == "" and "error" in err


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------

def test_decode_unique(capsys):
    # (0..6 squared) codeword with 2 corruptions
    code, doc, _ = run_json(
        capsys,
        "decode", "--q", "7", "--code", "rs", "--n", "7", "--k", "3",
        "--u", "1,1,4,2,2,4,1",  # (0,1,4,2,2,4,1) + e_0
    )
    assert code == 0
    assert doc["kind"] == "unique_direction"
    assert doc["best"] == [{"point": "0,1,4,2,2,4,1", "angle": 1}]
    assert doc["min_distance"] == 5
    assert doc["radius_bound"] == 2.5
    assert doc["within_radius"] is True


def test_decode_beyond_radius_exit_3(capsys):
    code, doc, _ = run_json(
        capsys, "decode", "--q", "3", "--code", "rep", "--n", "3", "--u", "1,2,0"
    )
    assert code == 3
    assert doc["kind"] == "beyond_radius"
    assert len(doc["best"]) >= 1


def test_decode_list_mode(capsys):
    code, doc, _ = run_json(
        capsys,
        "decode", "--q", "7", "--code", "rs", "--n", "7", "--k", "3",
        "--u", "1,1,4,2,2,4,1", "--rho", "2",
    )
    assert code == 0
    assert doc["list_size"] == 1
    assert doc["list"][0]["point"] == "0,1,4,2,2,4,1"


def test_decode_code_file(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("1,0,2\n0,1,1\n")
    code, doc, _ = run_json(
        capsys, "decode", "--q", "3", "--code", "file", "--code-file", str(path),
        "--u", "1,0,1",
    )
    assert code in (0, 3)
    assert "kind" in doc


def test_decode_enumeration_guard(capsys, tmp_path):
    rows = "\n".join(",".join("1" if i == j else "0" for j in range(13)) for i in range(13))
    path = tmp_path / "big.txt"
    path.write_text(rows + "\n")
    code, out, err = run(
        capsys, "decode", "--q", "3", "--code", "file", "--code-file", str(path),
        "--u", ",".join(["1"] * 13),
    )
    assert code == 2
    assert "guard" in err


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_metric(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "metric", "--q", "3", "--n", "3")
    assert code == 0
    assert doc["failures"] == []
    assert doc["observations"]["triples"] == 17576


def test_verify_oracle(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--suite", "oracle", "--q", "7", "--n", "10",
        "--trials", "500", "--seed", "7",
    )
    assert code == 0
    assert doc["trials"] == 500 and doc["seed"] == 7


def test_verify_oracle_at_a_large_prime(capsys):
    # c * v overflowed int32 in the oracle for p > 46341: naive = 99 != 98
    code, doc, _ = run_json(
        capsys, "verify", "--suite", "oracle", "--q", "65521", "--n", "100",
        "--trials", "20", "--seed", "1",
    )
    assert code == 0
    assert doc["failures"] == [] and doc["checks_run"] == 20


def test_verify_oracle_on_a_large_odd_p_extension_field(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--suite", "oracle", "--q", "59049", "--n", "50", "--trials", "5",
    )
    assert code == 0
    assert doc["failures"] == [] and doc["checks_run"] == 5


def test_verify_decoding(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--suite", "decoding", "--code", "rep", "--q", "3", "--n", "3",
    )
    assert code == 0
    assert doc["failures"] == []


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "--suite", "nope", "--q", "3", "--n", "3")[0] == 1


def test_verify_guard_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "metric", "--q", "3", "--n", "7")
    assert code == 2


@pytest.mark.parametrize("suite", ["metric", "projective"])
def test_verify_guard_refuses_a_huge_n_at_once(capsys, suite):
    # q^n is never formed: 7^(10^7) would take seconds, then fail to print
    code, out, err = run(capsys, "verify", "--suite", suite, "--q", "7", "--n", "10000000")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "guard" in err


def test_verify_decoding_pattern_guard_exit_2(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "decoding", "--q", "13", "--code", "rs", "--n", "13", "--k", "4",
    )
    assert code == 2
    assert out == "" and err.startswith("error: ") and "guard" in err


def test_unique_decoding_violation_exit_2(capsys, monkeypatch):
    import numpy as np

    import fqangle.codes

    # a scan that ties all 57 directions at angle 0, inside the radius
    monkeypatch.setattr(fqangle.codes, "_angle_table", lambda field, A, B: np.zeros((len(A), len(B)), dtype=np.int64))
    code, out, err = run(
        capsys, "decode", "--q", "7", "--code", "rs", "--n", "7", "--k", "3", "--u", "1,1,4,2,2,4,1",
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unique decoding violated")


def test_verify_failures_exit_2(capsys, monkeypatch):
    import numpy as np

    import fqangle.cli

    def broken_suite(field, n, trials, seed):
        from fqangle.experiments import SuiteReport

        return SuiteReport(
            suite="oracle", q=field.q, n=n, k=None, trials=trials, seed=seed,
            checks_run=trials, failures=["fast=1 naive=0 for u=1,0 v=1,0"],
            wall_time=0.0,
        )

    monkeypatch.setattr(fqangle.cli, "verify_oracle_equivalence", broken_suite)
    code, doc, _ = run_json(
        capsys, "verify", "--suite", "oracle", "--q", "3", "--n", "2", "--trials", "10",
    )
    assert code == 2
    assert doc["failures"]


@pytest.mark.parametrize(
    "target,argv",
    [
        ("verify_oracle_equivalence", ("verify", "--suite", "oracle", "--q", "7", "--n", "99999999999", "--trials", "2")),
        ("angle_vs_dist_census",
         ("verify", "--suite", "census", "--q", "7", "--code", "rs", "--n", "7", "--k", "3", "--trials", "99999999999")),
        ("bench_angle", ("bench", "--q", "7", "--n", "99999999999")),
    ],
)
def test_unallocatable_input_exit_1(capsys, monkeypatch, target, argv):
    import fqangle.cli

    # raised in place of the allocation itself, which a host that
    # overcommits memory might grant and then fail to back
    def too_large(*args):
        raise MemoryError("Unable to allocate 5.09 TiB for an array with shape (99999999999, 7)")

    monkeypatch.setattr(fqangle.cli, target, too_large)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: Unable to allocate 5.09 TiB for an array with shape (99999999999, 7)"]


def test_verify_byte_identical_modulo_timing(capsys):
    args = ("verify", "--suite", "oracle", "--q", "5", "--n", "8", "--trials", "200", "--seed", "3")
    _, doc1, _ = run_json(capsys, *args)
    _, doc2, _ = run_json(capsys, *args)
    doc1.pop("wall_time")
    doc2.pop("wall_time")
    assert doc1 == doc2


# ----------------------------------------------------------------------
# bench / mindist
# ----------------------------------------------------------------------

def test_bench_document(capsys):
    code, doc, _ = run_json(capsys, "bench", "--q", "2", "--n", "256,512", "--reps", "5")
    assert code == 0
    assert len(doc["records"]) == 4
    assert {r["algo"] for r in doc["records"]} == {"fast", "naive"}


def test_mindist_rs(capsys):
    code, doc, _ = run_json(capsys, "mindist", "--q", "7", "--code", "rs", "--n", "7", "--k", "3")
    assert code == 0
    assert doc["min_distance"] == 5
    assert doc["singleton_bound"] == 5
    assert doc["is_mds"] is True


def test_mindist_rep(capsys):
    code, doc, _ = run_json(capsys, "mindist", "--q", "3", "--code", "rep", "--n", "4")
    assert code == 0
    assert doc["min_distance"] == 4


def test_plain_format(capsys):
    code, out, _ = run(capsys, "angle", "--q", "3", "--u", "1,2,0", "--v", "1,1,2",
                       "--format", "plain")
    assert code == 0
    assert "angle: 2" in out


# ----------------------------------------------------------------------
# bad input: one error line, exit 1, never a traceback
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("angle", "--q", "3", "--u", "99999999999999999999", "--v", "1"),
        ("bench", "--q", "3", "--n", "0"),
        ("verify", "--suite", "oracle", "--q", "3", "--n", "0"),
        ("verify", "--suite", "metric", "--q", "2", "--n", "0"),
        ("verify", "--suite", "projective", "--q", "2", "--n", "0"),
        ("mindist", "--q", "3", "--code", "rep", "--n", "0"),
        ("verify", "--suite", "oracle", "--q", "3", "--n", "2", "--trials", "-1"),
        ("verify", "--suite", "oracle", "--q", "3", "--n", "2", "--trials", "0"),
        ("verify", "--suite", "census", "--q", "3", "--code", "rep", "--n", "3", "--trials", "-1"),
        ("verify", "--suite", "census", "--q", "3", "--code", "rep", "--n", "3", "--trials", "0"),
        # bounded before primality testing or forming p**m, which would hang
        ("angle", "--q", "2305843009213693951", "--u", "1", "--v", "1"),
        ("angle", "--p", "2305843009213693951", "--u", "1", "--v", "1"),
        ("angle", "--p", "2", "--m", "1000000000", "--u", "1", "--v", "1"),
        # int() would read these as 10,1 and 1,2
        ("angle", "--q", "11", "--u", "1_0,1", "--v", "1,1"),
        ("angle", "--q", "11", "--u", "\uff11,\uff12", "--v", "1,1"),
        ("bench", "--q", "3", "--n", "8", "--reps", "-3"),
        ("bench", "--q", "3", "--n", "8", "--reps", "0"),
    ],
)
def test_bad_input_exits_1_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "need at least one array" not in err  # no numpy message leaks through


def test_code_file_takes_only_ascii_decimal_digits(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("1,0,2\n0,1,\uff11\n")  # a fullwidth 1
    code, out, err = run(capsys, "decode", "--q", "3", "--code", "file", "--code-file", str(path), "--u", "1,0,1")
    assert code == 1 and out == "" and err.startswith("error: cannot parse vector")


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_closed_stdout_exits_1_without_traceback(fmt):
    # the child writes to a pipe whose read end is already closed
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(fqangle.__file__).parents[1])}
    argv = ["decode", "--q", "7", "--code", "rs", "--n", "7", "--k", "3", "--u", "1,2,3,4,5,6,1", "--rho", "9"]
    try:
        proc = subprocess.run([sys.executable, "-m", "fqangle", *argv, "--format", fmt],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_bench_refuses_past_its_budget_before_drawing_input(capsys, monkeypatch):
    import fqangle.experiments

    def no_draw(*args):
        raise AssertionError("an input was drawn")

    monkeypatch.setattr(fqangle.experiments, "random_nonzero_rows", no_draw)
    for argv in (("--n", "8", "--reps", "99999999999999999999"),  # never ended
                 ("--n", "99999999999"),  # failed to allocate
                 ("--n", "6000000,8000000", "--reps", "5")):
        code, out, err = run(capsys, "bench", "--q", "7", *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "bench guard" in lines[0]


def test_work_budget_refusals_exit_2(capsys, monkeypatch):
    import fqangle.experiments

    def no_work(*args):
        raise AssertionError("an input was drawn or decoded")

    monkeypatch.setattr(fqangle.experiments, "random_nonzero_rows", no_work)
    monkeypatch.setattr(fqangle.experiments, "decode_rows", no_work)
    for argv in (("bench", "--q", "65521", "--n", "13000000", "--reps", "5"),  # hours of oracle passes
                 ("verify", "--suite", "decoding", "--q", "7", "--code", "rs", "--n", "7", "--k", "7"),  # past 300 s
                 ("verify", "--suite", "census", "--q", "16", "--code", "rs", "--n", "15", "--k", "5")):  # 9-10 min
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "work budget" in lines[0]


def test_decode_and_angle_json_unchanged_on_a_seeded_set(capsys):
    # the digest of this set's exit codes, stdout and stderr, recorded with
    # every coordinate formatted as str(int(x)): the text must not change
    rng = np.random.default_rng(21)
    cases = []
    for q, n, k, words in ((7, 7, 3, 12), (8, 8, 4, 6), (16, 15, 5, 3)):
        code = ("--q", str(q), "--code", "rs", "--n", str(n), "--k", str(k))
        for _ in range(words):
            u = ",".join(map(str, rng.integers(0, q, n)))
            v = ",".join(map(str, rng.integers(0, q, n)))
            cases += [("decode", *code, "--u", u), ("decode", *code, "--u", u, "--rho", "3"),
                      ("angle", "--q", str(q), "--u", u, "--v", v, "--verbose")]
    digest = hashlib.sha256()
    for argv in cases:
        exit_code, out, err = run(capsys, *argv)
        digest.update(f"{exit_code}\n{out}{err}".encode())
    assert digest.hexdigest() == "4ab90f79a02d214e1e04f9d653ce70acb09ee4fcbae0b6d777db906151866889"
