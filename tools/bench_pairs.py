"""Record alternating parent/change perfbench pairs into BENCH_<label>.json.

Each revision is exported with ``git archive`` into its own temporary
tree, and every run is a fresh ``perfbench/run.py`` process started in
that tree, so both sides run their own benchmark and package code.  Pairs
alternate their order: even pairs (0, 2, ...) run the parent first, odd
pairs the change first.  Units, directions and bounds are read from
``BENCHMARK.json`` at the repository root; nothing under ``perfbench/`` is
touched.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --label my_change --note "what the change does"

Every run lasts ``run_seconds`` from ``BENCHMARK.json``, and the file is
written at the repository root.  Uncommitted work can be measured as the
commit ``git stash create`` prints after ``git add -A``; it touches no
branch, index or file.

The output holds, per workload and end-to-end metric, the quartiles of
both sides, the ratio of the medians, the number of pairs the change
won and a verdict, plus every run's raw value.  The verdict applies the
no-regression and gain rules, in this order, with the metric's ``bound``
taken relative to the parent's median and the parent's spread as the
distance between its quartiles:

- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's spread is wider than the bound, and not
  every change run beats every parent run;
- ``better``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's spread;
- ``within_bound`` otherwise.

``--claim WORKLOAD`` names the workload whose metric the change claims
to improve; ``--fresh-seed`` then adds a check of that workload on a
second seed, over ``FRESH_PAIRS`` pairs.

Last, each tree runs the Tier-1 suite ``TIER1_RUNS`` times, alternating as
the pairs do.  Its wall time is recorded per side beside pytest's counts
and the ids of any failed tests, with no bound, since ``BENCHMARK.json``
bounds no Tier-1 figure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload <name> --seed <seed> --seconds {seconds:g} --trace 0"
METHOD = ("alternating parent/change pairs, each side run from its own exported tree in a fresh "
          "process; even pairs (0, 2, ...) run the parent first, odd pairs the change first")
ENV_KEYS = ("python", "numpy", "nproc", "cpu")
FRESH_PAIRS = 4
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIER1_RUNS = 2


def export(rev: str, dest: Path) -> str:
    """Extract ``git archive rev`` into dest; returns the full commit sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced perfbench run; returns (result line, environment)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench {workload} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = {}
    for line in lines:
        if line.startswith("env: "):
            env = json.loads(line[len("env: "):])
    return json.loads(lines[-1]), {k: env.get(k) for k in ENV_KEYS}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent: list[float], change: list[float], wins: int, higher: bool, bound: float) -> str:
    """worse, unresolved, better or within_bound for one metric's paired
    runs (parent[i] and change[i] are pair i, wins of them won by the
    change), by the module docstring's rules."""
    sign = 1 if higher else -1
    p = quartiles(parent)
    gain = sign * (quartiles(change)["median"] - p["median"])  # > 0 where the change is better
    spread, limit = p["q3"] - p["q1"], bound * abs(p["median"])
    if gain < -limit:
        return "worse"
    if spread > limit and min(sign * x for x in change) <= max(sign * x for x in parent):
        return "unresolved"
    if 10 * wins >= 9 * len(parent) and gain > spread:
        return "better"
    return "within_bound"


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Summary of paired result lines (parent[i] and change[i] are pair i).

    end_to_end is BENCHMARK.json's list of {"name", "unit", "better",
    "bound"}; a metric missing from any run is left out.
    """
    out = {
        "pairs": len(parent),
        "failed": {"parent": [r["failed"] for r in parent], "change": [r["failed"] for r in change]},
        "correct": {"parent": all(r["correct"] for r in parent),
                    "change": all(r["correct"] for r in change)},
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in r["metrics"] for r in parent + change):
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        higher = spec["better"] == "higher"
        p_sum, c_sum = quartiles(p), quartiles(c)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": p_sum,
            "change": c_sum,
            "change_over_parent": c_sum["median"] / p_sum["median"] if p_sum["median"] else None,
            "change_wins": wins,
            "verdict": verdict(p, c, wins, higher, spec["bound"]),
            "runs": {"parent": p, "change": c},
        }
    return out


def tier1_counts(stdout: str) -> dict:
    """Counts from pytest's last summary line, e.g. "1 failed, 566 passed
    in 30.12s" -> {"failed": 1, "passed": 566}; {} without one."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    last = lines[-1] if lines else ""
    return {word: int(num) for num, word in
            re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)", last)}


def tier1_failures(stdout: str) -> list[str]:
    """Node ids of the FAILED and ERROR lines of pytest's short summary."""
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", stdout, re.MULTILINE)


def tier1_once(tree: Path) -> dict:
    """One Tier-1 run (``PYTHONPATH=src python -m pytest -q ...``) in tree:
    its wall time, exit code, counts and the ids of the tests that failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "counts": tier1_counts(proc.stdout),
            "failed_tests": tier1_failures(proc.stdout)}


def tier1_summary(parent: list[dict], change: list[dict]) -> dict:
    """Wall-time quartiles of both sides' Tier-1 runs and the ratio of the
    medians; no bound applies."""
    p = quartiles([r["wall_s"] for r in parent])
    c = quartiles([r["wall_s"] for r in change])
    return {
        "command": "PYTHONPATH=src python " + " ".join(TIER1),
        "unit": "s",
        "better": "lower",
        "bound": None,
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "runs": {"parent": parent, "change": change},
    }


def run_tier1(trees: dict) -> dict:
    out = {"parent": [], "change": []}
    for i in range(TIER1_RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out[side].append(tier1_once(trees[side]))
            print(f"tier1 run={i} {side}: {out[side][-1]}", file=sys.stderr, flush=True)
    return tier1_summary(out["parent"], out["change"])


def run_pairs(trees: dict, workload: str, seed: int, pairs: int, seconds: float,
              end_to_end: list[dict]) -> tuple[dict, dict]:
    runs = {"parent": [], "change": []}
    env = {}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            line, env = run_once(trees[side], workload, seed, seconds)
            runs[side].append(line)
            value = line["metrics"].get("work_per_s", {}).get("value")
            print(f"{workload} seed={seed} pair={i} {side}: work_per_s={value} failed={line['failed']}",
                  file=sys.stderr, flush=True)
    return summarize(runs["parent"], runs["change"], end_to_end), env


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    """Parsed options; workloads are the names BENCHMARK.json declares."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--note", default="", help="one line saying what the change does")
    parser.add_argument("--pairs", type=int, default=10,
                        help="a gain claim needs at least 10 pairs, 9 of them won")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--claim", choices=workloads,
                        help="the workload whose metric the change claims to improve")
    parser.add_argument("--fresh-seed", type=int, help="also run the --claim workload on this seed")
    args = parser.parse_args(argv)
    if args.fresh_seed is not None and args.claim is None:
        parser.error("--fresh-seed needs --claim")
    return args


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = bench["end_to_end"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    args = parse_args(argv, names)
    workloads = args.workload or names
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        parent_sha = export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        record = {
            "label": args.label,
            "change": args.note,
            "parent_commit": parent_sha,
            "command": COMMAND.format(seconds=seconds),
            "method": METHOD,
            "environment": {},
            "seed": args.seed,
            "claim": args.claim,
            "workloads": {},
        }
        for workload in workloads:
            record["workloads"][workload], record["environment"] = run_pairs(
                trees, workload, args.seed, args.pairs, seconds, end_to_end)
        if args.fresh_seed is not None:
            summary, _ = run_pairs(trees, args.claim, args.fresh_seed, FRESH_PAIRS,
                                   seconds, end_to_end)
            record["fresh_seed_check"] = {"workload": args.claim, "seed": args.fresh_seed,
                                          **summary}
        record["tier1"] = run_tier1(trees)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {os.path.relpath(path)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
