"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that two runs with one seed give identical work counts, and that a wrong
answer injected into the program is caught by the output checks.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import rebind, restore  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

fq = run.import_fqangle()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.2


def toy_run(name: str, seed: int = 3, traced: bool = False) -> dict:
    return run.run(fq, name, seed, SECONDS, traced, toy=True, out=io.StringIO())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_metric_emitted_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        for traced, expected in ((False, e2e), (True, layers)):
            line = toy_run(name, traced=traced)["line"]
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, (name, line)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == expected, (name, traced, set(got) ^ set(expected))
            assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
            json.dumps(line)


def test_same_seed_same_work_counts():
    for name in WORKLOADS:
        first, second = toy_run(name, seed=5), toy_run(name, seed=5)
        assert first["counts"] == second["counts"], name
        assert first["counts"], name


def test_injected_wrong_answer_counts_as_failure():
    """An off-by-one single-pass kernel must fail every workload's checks."""
    orig = fq.angle.angle_fast_rows

    def wrong(field, U, V):
        return orig(field, U, V) + 1

    for name in WORKLOADS:
        undo = rebind(orig, wrong)
        try:
            line = toy_run(name)["line"]
        finally:
            restore(undo)
        assert line["failed"] > 0 and not line["correct"], (name, line["failed"])
    assert fq.angle.angle_fast_rows is orig and fq.codes.angle_fast_rows is orig


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_") and callable(v)]
    for key, test in tests:
        test()
        print(f"ok {key}")
    print(f"{len(tests)} passed")
