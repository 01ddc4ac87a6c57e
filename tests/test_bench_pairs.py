"""The pair recorder (tools/bench_pairs.py): its summary, on canned result
lines, and its options.

No perfbench process is started: the summary is a pure function of the
result lines the runs print.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "call_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "cli_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def line(work, p50, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {"work_per_s": {"value": work, "unit": "1/s"}, "call_p50_us": {"value": p50, "unit": "us"}},
    }


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_ratios_and_wins_follow_each_metrics_direction():
    parent = [line(100, 50), line(110, 40), line(90, 60), line(105, 45), line(95, 55)]
    change = [line(130, 45), line(120, 42), line(140, 50), line(100, 40), line(135, 56)]
    out = bench_pairs.summarize(parent, change, END_TO_END)
    assert out["pairs"] == 5
    assert out["failed"] == {"parent": [0] * 5, "change": [0] * 5}
    assert out["correct"] == {"parent": True, "change": True}
    assert set(out["metrics"]) == {"work_per_s", "call_p50_us"}  # no run reported cli_p50_ms
    work = out["metrics"]["work_per_s"]
    assert (work["unit"], work["better"], work["bound"]) == ("1/s", "higher", 0.25)
    assert work["parent"] == {"q1": 95, "median": 100, "q3": 105}
    assert work["change"] == {"q1": 120, "median": 130, "q3": 135}
    assert work["change_over_parent"] == pytest.approx(1.3)
    assert work["change_wins"] == 4  # pair 3: 100 < 105
    assert work["runs"] == {"parent": [100, 110, 90, 105, 95], "change": [130, 120, 140, 100, 135]}
    p50 = out["metrics"]["call_p50_us"]
    assert p50["change_over_parent"] == pytest.approx(45 / 50)
    assert p50["change_wins"] == 3  # lower is better: pairs 0, 2 and 3


def test_summary_reports_failures_and_wrong_outputs_per_side():
    parent = [line(100, 50), line(100, 50)]
    change = [line(120, 40, failed=2), line(120, 40, correct=False)]
    out = bench_pairs.summarize(parent, change, END_TO_END)
    assert out["failed"] == {"parent": [0, 0], "change": [2, 0]}
    assert out["correct"] == {"parent": True, "change": False}
    assert out["metrics"]["work_per_s"]["change_wins"] == 2


STEADY = [100, 102, 98, 101, 99]  # quartiles 99, 100, 101: a spread of 2
WIDE = [60, 80, 100, 120, 140]  # quartiles 80, 100, 120: a spread of 40, past the bound of 25


@pytest.mark.parametrize("metric,parent,change,expected", [
    ("work_per_s", STEADY, [70, 72, 68, 71, 69], "worse"),  # 30 below the median, past the bound of 25
    ("work_per_s", STEADY, [80, 82, 78, 81, 79], "within_bound"),  # 20 below, inside the bound
    ("work_per_s", WIDE, [100, 101, 99, 100, 100], "unresolved"),
    ("work_per_s", WIDE, [141, 139, 150, 150, 150], "unresolved"),  # won 5 of 5 pairs, but 139 < 140
    ("work_per_s", WIDE, [141, 142, 150, 150, 150], "better"),  # every change run beats every parent run
    ("work_per_s", WIDE, [70, 71, 72, 73, 74], "worse"),  # past the bound, whatever the spread
    ("work_per_s", STEADY, [110, 111, 109, 112, 108], "better"),  # won 5 of 5, 10 above the median
    ("work_per_s", STEADY, [101, 103, 99, 102, 100], "within_bound"),  # won 5 of 5, by less than the spread
    ("work_per_s", STEADY, [110, 111, 109, 112, 90], "within_bound"),  # 10 above, but won 4 of 5
    ("call_p50_us", STEADY, [130, 132, 128, 131, 129], "worse"),  # lower is better
    ("call_p50_us", STEADY, [90, 91, 89, 92, 88], "better"),
    ("call_p50_us", WIDE, [59, 58, 50, 50, 50], "better"),  # every change run beats every parent run
])
def test_verdict_applies_the_no_regression_and_gain_rules(metric, parent, change, expected):
    make = (lambda w: line(w, 50)) if metric == "work_per_s" else (lambda w: line(100, w))
    out = bench_pairs.summarize([make(w) for w in parent], [make(w) for w in change], END_TO_END)
    assert out["metrics"][metric]["verdict"] == expected
    other = ({"work_per_s", "call_p50_us"} - {metric}).pop()
    assert out["metrics"][other]["verdict"] == "within_bound"  # equal runs on both sides


WORKLOADS = ["oracle-sweep", "angle-kernel", "decode-small", "decode-large"]
REQUIRED = ["--parent", "HEAD~1", "--change", "HEAD", "--label", "x"]


def test_claim_names_the_fresh_seed_workload():
    args = bench_pairs.parse_args(REQUIRED + ["--claim", "angle-kernel", "--fresh-seed", "7"], WORKLOADS)
    assert (args.claim, args.fresh_seed) == ("angle-kernel", 7)
    args = bench_pairs.parse_args(REQUIRED, WORKLOADS)
    assert (args.claim, args.fresh_seed, args.workload) == (None, None, None)
    args = bench_pairs.parse_args(REQUIRED + ["--claim", "decode-large", "--workload", "oracle-sweep"], WORKLOADS)
    assert (args.claim, args.workload) == ("decode-large", ["oracle-sweep"])


@pytest.mark.parametrize("extra", [
    ["--fresh-seed", "7"],  # a fresh seed checks the claim, so needs one
    ["--claim", "no-such-workload"],
    ["--claim", "angle-kernel", "--workload", "no-such-workload"],
])
def test_claim_and_workloads_are_validated(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(REQUIRED + extra, WORKLOADS)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_tier1_counts_read_pytests_last_line():
    assert bench_pairs.tier1_counts("....\n567 passed in 26.71s\n") == {"passed": 567}
    out = "F..\n== short test summary info ==\nFAILED t.py::x\n1 failed, 566 passed, 2 skipped in 30.12s\n"
    assert bench_pairs.tier1_counts(out) == {"failed": 1, "passed": 566, "skipped": 2}
    assert bench_pairs.tier1_counts("1 error in 0.5s") == {"error": 1}
    assert bench_pairs.tier1_counts("") == {}


def test_tier1_failures_name_the_failed_tests():
    out = ("F.E\n== short test summary info ==\nFAILED t.py::x - assert 0\n"
           "ERROR t.py::y\n1 failed, 1 passed, 1 error in 0.3s\n")
    assert bench_pairs.tier1_failures(out) == ["t.py::x", "t.py::y"]
    assert bench_pairs.tier1_failures("3 passed in 0.1s\n") == []


def test_tier1_summary_has_no_bound():
    runs = lambda *walls: [{"wall_s": w, "exit": 0, "counts": {"passed": 3}} for w in walls]
    out = bench_pairs.tier1_summary(runs(30.0, 32.0, 34.0), runs(24.0, 27.0, 25.0))
    assert (out["unit"], out["better"], out["bound"]) == ("s", "lower", None)
    assert out["parent"]["median"] == 32.0 and out["change"]["median"] == 25.0
    assert out["change_over_parent"] == pytest.approx(25 / 32)
    assert [r["wall_s"] for r in out["runs"]["change"]] == [24.0, 27.0, 25.0]


def test_tier1_once_runs_the_trees_own_suite(tmp_path):
    # a tree with one module under src/ and a suite that imports it
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tiny_pkg.py").write_text("VALUE = 3\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tiny.py").write_text(
        "import tiny_pkg\n\ndef test_a():\n    assert tiny_pkg.VALUE == 3\n\n"
        "def test_b():\n    assert tiny_pkg.VALUE == 4\n")
    run = bench_pairs.tier1_once(tmp_path)
    assert run["counts"] == {"failed": 1, "passed": 1}
    assert run["failed_tests"] == ["tests/test_tiny.py::test_b"]
    assert run["exit"] == 1 and run["wall_s"] > 0
