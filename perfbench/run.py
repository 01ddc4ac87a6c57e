"""fqangle benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload decode-small --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the last
line of stdout is a JSON object whose metrics are the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` the run first does everything the
untraced run does, then repeats set-up and the timed loop with spans on,
and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 21
SETUP_SECONDS = 1.0
CLI_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "work_per_s": "1/s",
    "call_p50_us": "us",
    "call_p90_us": "us",
    "cli_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# what work_per_s is called on a workload, by the unit of work it counts
WORK_ALIAS = {"pairs": "pairs_per_s", "positions": "positions_per_s", "decodes": "decodes_per_s"}


def import_fqangle():
    """Import fqangle from this checkout's src/ or fail."""
    if not (SRC / "fqangle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fqangle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fqangle
    import fqangle.cli  # noqa: F401  (cli is not imported by the package itself)

    if Path(fqangle.__file__).resolve().parent != SRC / "fqangle":
        raise SystemExit(f"perfbench: imported fqangle from {fqangle.__file__}, not {SRC}")
    return fqangle


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int, traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "seed": seed,
        "traced": traced,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

@dataclass
class Failures:
    failed: int = 0
    errors: list[str] = dataclass_field(default_factory=list)  # the first few, for stderr

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


@dataclass
class CliResult(Failures):
    times_ns: list[list[int]] = dataclass_field(default_factory=list)  # per command, per process

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times_ns)


@dataclass
class LoopResult(Failures):
    lat_ns: list[int] = dataclass_field(default_factory=list)
    pass_ends: list[int] = dataclass_field(default_factory=list)  # index into lat_ns after each pass
    pass_work: int = 0
    pass_counts: Counter = dataclass_field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.lat_ns)

    def best_of_passes(self) -> list[int]:
        """Each timed call's fastest latency over the passes of the run.

        The shared box alternates, every few seconds, between an
        uncontended state and one up to 1.5x slower, and the share of time
        in each varies from run to run.  Contention only ever slows a call,
        so the best of its repeats measures the program itself.
        """
        n = self.pass_ends[0]
        return np.asarray(self.lat_ns).reshape(-1, n).min(axis=0).tolist()


def timed_loop(calls, seconds: float, tracer=None, side=()) -> LoopResult:
    """Closed loop, one caller: repeat whole passes until the timed calls
    have been busy for `seconds`.

    Whole passes keep the mix of calls, and so the latency percentiles,
    the same in every run.  Checks run between calls, outside the timed
    region and with tracing paused.  The `side` tasks (CLI processes and
    repeated set-ups) run between passes, spread evenly over the run.
    """
    res = LoopResult(pass_work=sum(call.work for call in calls))
    busy = 0
    call_id = 0
    side_done = 0
    while True:
        for call in calls:
            out, error = None, None
            if tracer is not None:
                tracer.phase, tracer.call_id = "timed", call_id
                frame = tracer.enter("bench.call")
            t0 = time.perf_counter_ns()
            try:
                out = call.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{call.kind}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.exit(frame)
                tracer.phase = None
            call_id += 1
            busy += dt
            res.lat_ns.append(dt)
            if error is None:
                try:
                    if not call.check(out):
                        error = f"{call.kind}: output failed its check"
                    elif not res.pass_ends:
                        res.pass_counts.update(call.count(out))
                except Exception as exc:
                    error = f"{call.kind}: check raised {type(exc).__name__}: {exc}"
            if error is not None:
                res.fail(error)
        res.pass_ends.append(len(res.lat_ns))
        done = busy / 1e9 >= seconds
        while side_done < len(side) and (done or busy / 1e9 >= seconds * (side_done + 1) / (len(side) + 1)):
            side[side_done]()
            side_done += 1
        if done:
            return res


def cli_tasks(cases, repeats: int, res: CliResult) -> list:
    """`repeats` tasks per case, each a fresh `python -m fqangle` process
    timed from the parent."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    res.times_ns = [[] for _ in cases]

    def task(i, case):
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run([sys.executable, "-m", "fqangle", *case.argv], capture_output=True,
                                  text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            res.times_ns[i].append(time.perf_counter_ns() - t0)
            res.fail(f"cli {case.argv[0]}: timed out")
            return
        res.times_ns[i].append(time.perf_counter_ns() - t0)
        if not case.check(proc.stdout, proc.returncode):
            res.fail(f"cli {case.argv[0]}: exit {proc.returncode}, stderr {proc.stderr.strip()[-200:]!r}")

    return [functools.partial(task, i, case) for _ in range(repeats) for i, case in enumerate(cases)]


def cli_in_process(fq, cases, res: LoopResult):
    """Each case through fqangle.cli.main in this (warm) process."""
    for case in cases:
        buf = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = fq.cli.main(case.argv)
        res.lat_ns.append(time.perf_counter_ns() - t0)
        if not case.check(buf.getvalue(), code):
            res.fail(f"cli.main {case.argv[0]}: output failed its check")


def timed_setup(workload, times: list[float]):
    t0 = time.perf_counter()
    workload.setup()
    times.append(time.perf_counter() - t0)


def setup_tasks(workload, times: list[float]) -> list:
    """Further cold set-ups, as many as fit in SETUP_SECONDS (judged by the
    first, in `times`), between SETUP_MIN_REPS and SETUP_MAX_REPS in all.
    They run spread over the timed loop, so their median does not hang on
    the box's state during one moment."""
    reps = min(SETUP_MAX_REPS, max(SETUP_MIN_REPS, math.ceil(SETUP_SECONDS / times[0])))
    return [functools.partial(timed_setup, workload, times)] * (reps - 1)


def interleave(*task_lists) -> list:
    """Merge task lists so that each list's tasks stay evenly spaced."""
    keyed = [((i + 1) / (len(tasks) + 1), n, task) for n, tasks in enumerate(task_lists)
             for i, task in enumerate(tasks)]
    return [task for _, _, task in sorted(keyed, key=lambda k: k[:2])]


def end_to_end(loop: LoopResult, cli: CliResult, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, and what each was computed from."""
    best = loop.best_of_passes()
    p50, p90 = np.percentile(best, [50, 90]) / 1e3
    passes = len(loop.pass_ends)
    cli_best = [min(times) for times in cli.times_ns]
    metrics = {
        "work_per_s": loop.pass_work / (sum(best) / 1e9),
        "call_p50_us": float(p50),
        "call_p90_us": float(p90),
        "cli_p50_ms": statistics.median(cli_best) / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    calls = f"{len(best)} calls, best of {passes} passes each"
    samples = {
        "work_per_s": calls,
        "call_p50_us": calls,
        "call_p90_us": calls,
        "cli_p50_ms": f"{len(cli_best)} commands, best of {len(cli.times_ns[0])} processes each",
        "setup_s": f"median of {len(setups)} cold set-ups",
        "peak_rss_mb": "1 process",
    }
    return metrics, samples


def per_layer(tracer, passes: int, cli_main_ms: float, cli_p50_ms: float) -> dict:
    """Per-layer metrics with their units.

    Timed-phase figures are per pass over the workload's input set, so
    counts repeat exactly for a seed; set-up figures are one traced cold
    set-up; `cli.main.ms` is the median in-process command.
    """
    t = lambda name: tracer.get("timed", name)  # noqa: E731
    s = lambda name: tracer.get("setup", name)  # noqa: E731

    def per(num, den):
        return num / den if den else 0.0

    def self_s(*aggs):
        return sum(a.self_ns for a in aggs) / 1e9 / passes

    def count(value):
        return value / passes

    div, vec, naive = t("gf.div_array"), t("vectors.Vector"), t("angle.angle_naive_rows")
    fr = {path: t(f"angle.angle_fast_rows.{path}") for path in ("bincount", "sort")}
    dec, proj = t("codes.angular_decode"), t("angle.projectivize")
    m = {
        "gf.Field.build_s": (s("gf.Field.build").total_ns / 1e9, "s"),
        "gf.div_array.self_s": (self_s(div), "s"),
        "gf.div_array.ns_per_elem": (per(div.self_ns, div.counts["elements"]), "ns"),
        "gf.mul_array.self_s": (s("gf.mul_array").self_ns / 1e9, "s"),
        "gf.add_array.self_s": (s("gf.add_array").self_ns / 1e9, "s"),
        "gf.scalar_mul_array.calls": (count(t("gf.scalar_mul_array").calls), "count"),
        "vectors.Vector.constructions": (count(vec.calls), "count"),
        "vectors.Vector.self_s": (self_s(vec), "s"),
        "vectors.Vector.ns_per_construct": (per(vec.self_ns, vec.calls), "ns"),
        "angle.angle_fast_rows.calls": (count(sum(a.calls for a in fr.values())), "count"),
        "angle.angle_fast_rows.positions": (count(sum(a.counts["positions"] for a in fr.values())), "count"),
        "angle.angle_fast_rows.self_s": (self_s(*fr.values()), "s"),
    }
    for path, a in fr.items():
        m[f"angle.angle_fast_rows.{path}.self_s"] = (self_s(a), "s")
        m[f"angle.angle_fast_rows.{path}.ns_per_pos"] = (per(a.self_ns, a.counts["positions"]), "ns")
    m.update({
        "angle.angle_naive_rows.self_s": (self_s(naive), "s"),
        "angle.angle_naive_rows.ns_per_pos_scalar": (per(naive.self_ns, naive.counts["pos_scalars"]), "ns"),
        "angle.build_census.self_s": (self_s(t("angle.build_census")), "s"),
        "angle.projectivize.calls": (count(proj.calls), "count"),
        "angle.projectivize.self_s": (self_s(proj), "s"),
        "codes.projective_codeword_matrix.cold_s":
            (s("codes.projective_codeword_matrix").counts["cold_ns"] / 1e9, "s"),
        "codes.min_distance.cold_s": (s("codes.min_distance").counts["cold_ns"] / 1e9, "s"),
        "codes.codewords_enumerated": (s("codes.codeword_matrix").counts["cold_rows"]
                                       + s("codes.projective_codeword_matrix").counts["cold_rows"], "count"),
        "codes.angular_decode.self_s": (self_s(dec), "s"),
        "codes.angular_decode.total_s": (dec.total_ns / 1e9 / passes, "s"),
        "codes.angular_decode.kernel_s": (dec.counts["kernel_ns"] / 1e9 / passes, "s"),
        "codes.angular_decode.rows_scanned": (count(dec.counts["rows_scanned"]), "count"),
        "codes.angular_decode.directions_returned": (count(dec.counts["directions_returned"]), "count"),
        "codes.rows_scanned_per_direction_returned":
            (per(dec.counts["rows_scanned"], dec.counts["directions_returned"]), "ratio"),
        "codes.projective_list_decode.self_s": (self_s(t("codes.projective_list_decode")), "s"),
        "experiments.verify_oracle_equivalence.self_s": (self_s(t("experiments.verify_oracle_equivalence")), "s"),
        "cli.main.ms": (cli_main_ms, "ms"),
        "cli.startup_ms": (cli_p50_ms - cli_main_ms, "ms"),
        "bench.timed_s": (t("bench.call").total_ns / 1e9 / passes, "s"),
    })
    return m


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------

def run(fq, name: str, seed: int, seconds: float, traced: bool, toy: bool = False,
        out=sys.stdout, trace_dir: Path | None = None) -> dict:
    """Run one workload and print its report; returns the result object."""
    from workloads import WHY, WORKLOADS

    w = WORKLOADS[name](fq, seed, toy)
    print(f"perfbench workload={name} seed={seed} seconds={seconds} traced={int(traced)}", file=out)
    print(f"why: {WHY[name]}", file=out)
    print(f"env: {json.dumps(environment(seed, traced))}", file=out)

    setups = []
    timed_setup(w, setups)
    w.prepare()
    cli = CliResult()
    side = interleave(cli_tasks(w.cli_cases(), w.CLI_REPEATS, cli), setup_tasks(w, setups))
    loop = timed_loop(w.calls(), seconds, side=side)
    e2e, samples = end_to_end(loop, cli, setups)
    attempted = loop.attempted + cli.attempted
    failed = loop.failed + cli.failed

    alias = {"work_per_s": WORK_ALIAS[w.WORK_UNIT],
             "cli_p50_ms": f"cli_{w.cli_cases()[0].argv[0]}_p50_ms"}
    for key, value in e2e.items():
        label = f"{key} ({alias[key]})" if key in alias else key
        print(f"e2e {label} = {value:.6g} {END_TO_END_UNITS[key]}  [{samples[key]}]", file=out)
    print(f"e2e error_rate = {failed / max(attempted, 1):.6g}  [failed={failed} attempted={attempted}]",
          file=out)
    rates = sorted(loop.pass_work / (sum(loop.lat_ns[a:b]) / 1e9)
                   for a, b in zip([0] + loop.pass_ends[:-1], loop.pass_ends))
    print(f"pass rates ({w.WORK_UNIT}/s, all calls): min {rates[0]:.6g} "
          f"median {statistics.median(rates):.6g} max {rates[-1]:.6g}", file=out)
    by_kind = {}
    for call, best in zip(w.calls(), loop.best_of_passes()):
        by_kind.setdefault(call.kind, []).append(best)
    for kind, best in by_kind.items():
        print(f"call {kind}: {len(best)} per pass, median best {statistics.median(best) / 1e3:.6g} us",
              file=out)
    counts = dict(w.counts, **loop.pass_counts)
    print(f"work counts per pass: {json.dumps(counts, sort_keys=True)}", file=out)
    print(f"passes={len(loop.pass_ends)} timed_calls={loop.attempted} cli_processes={cli.attempted}", file=out)
    for message in loop.errors + cli.errors:
        print(f"perfbench: failed: {message}", file=sys.stderr)

    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    result = {"counts": counts, "e2e": e2e}
    if traced:
        from tracing import SPAN_FIELDS, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            tracer.phase = "setup"
            t0 = time.perf_counter()
            w.setup()
            traced_setup = time.perf_counter() - t0
            tracer.phase = None
            tloop = timed_loop(w.calls(), seconds, tracer)
            tracer.phase = "cli"
            main_loop = LoopResult()
            cli_in_process(fq, w.cli_cases(), main_loop)
        finally:
            tracer.uninstall()
        attempted += tloop.attempted + main_loop.attempted
        failed += tloop.failed + main_loop.failed
        for message in tloop.errors + main_loop.errors:
            print(f"perfbench: failed (traced): {message}", file=sys.stderr)
        cli_main_ms = statistics.median(main_loop.lat_ns) / 1e6
        layers = per_layer(tracer, len(tloop.pass_ends), cli_main_ms, e2e["cli_p50_ms"])
        for key, (value, unit) in layers.items():
            print(f"layer {key} = {value:.6g} {unit}", file=out)
        print(f"(timed-phase layer figures are per pass; {len(tloop.pass_ends)} traced passes)", file=out)
        traced_e2e = end_to_end(tloop, cli, [traced_setup])[0]
        for key in ("work_per_s", "call_p50_us", "call_p90_us", "setup_s"):
            print(f"tracing overhead {key} = {traced_e2e[key] - e2e[key]:+.6g} {END_TO_END_UNITS[key]}"
                  f"  (traced {traced_e2e[key]:.6g}, untraced {e2e[key]:.6g})", file=out)
        for statement, value, ok in w.stress(tracer.get, e2e["setup_s"]):
            print(f"stress {'ok' if ok else 'MISS'}: {statement}: {value:.4g}", file=out)
        if trace_dir is not None:
            path = trace_dir / f"trace-{name}-seed{seed}.npz"
            tracer.dump(path)
            print(f"spans: {len(tracer.spans) // len(SPAN_FIELDS)} kept, {tracer.dropped} dropped, written to "
                  f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}", file=out)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["layers"] = layers

    result["line"] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    fq = import_fqangle()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    result = run(fq, args.workload, args.seed, args.seconds, bool(args.trace),
                 trace_dir=ROOT / ".perfbench")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
