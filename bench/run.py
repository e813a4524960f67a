"""heightzeta benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --stages          # anchor stage times vs the ROADMAP table

Run it from the root of a checkout; heightzeta is imported from ``src/``
there and nowhere else.  ``--trace 0`` measures the end-to-end metrics of
BENCHMARK.json with tracing off; ``--trace 1`` runs one pass untraced and one
traced, and reports the per-layer metrics and the tracing overhead.  Times
are seconds at the reference host speed (see clock.py), except setup_s,
which is raw.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
the lines before it print the workload's own metrics (solve_s.*, count_s.*,
cli_latency_*, failed_frac) by name with their units.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from clock import Timer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / ".out"
WORKLOADS = ("algebra_ladder", "oracle_ladder", "cli_session")
SETUP_RUNS = 7
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import heightzeta; "
    "heightzeta.qpoly_factor(heightzeta.QPoly((-2, 0, 1))); print(time.perf_counter() - t0)"
)
END_TO_END = {  # name -> unit: the "end_to_end" list of BENCHMARK.json
    "setup_s": "s",
    "pass_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
GROUP_METRICS = {  # the workload's own breakdown: metric prefix, job groups
    "algebra_ladder": ("solve_s", ("S", "M", "L")),
    "oracle_ladder": ("count_s", ("fast", "enumerate", "region")),
}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it.

    Below 21 samples that percentile would fall under the median; the median
    is returned instead (toy runs only).
    """
    xs = sorted(values)
    i = max(len(xs) - 11, (len(xs) - 1) // 2)
    return xs[i], 100.0 * (i + 1) / len(xs)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the calibration
    loop of clock.py runs on the core that runs the timed work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    """The environment of every heightzeta child: sources from SRC, one thread."""
    env = {k: v for k, v in os.environ.items() if k != "HEIGHTZETA_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(runs: int) -> float:
    """Median raw time over fresh processes of `import heightzeta` plus the
    first qpoly_factor, timed inside the child."""
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


class Runner:
    """Runs jobs, keeps every call's timings and counts outcomes."""

    def __init__(self, jobs, timer: Timer):
        self.jobs = jobs
        self.timer = timer
        self.scaled: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.group_of: dict[str, str] = {}
        self.last: dict[str, float] = {}  # job name -> wall time of its last run
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def run_job(self, job, tracer=None):
        self.attempted += 1
        t0 = perf_counter()
        first_call = len(self.timer.calls)
        try:
            if tracer is None:
                result = job.run(self.timer)
            else:
                tracer.job = job.name
                with tracer:
                    result = job.run(self.timer)
        except Exception:  # a job that raises counts as failed; the run goes on
            self.failed += 1
            self.messages.append(f"{job.name}: raised\n{traceback.format_exc(limit=3)}")
            return
        finally:
            for call_id, scaled, raw in self.timer.calls[first_call:]:
                self.scaled.setdefault(call_id, []).append(scaled)
                self.raw.setdefault(call_id, []).append(raw)
                self.group_of[call_id] = job.group
            self.last[job.name] = perf_counter() - t0
        try:
            status, message = job.check(result)
        except Exception:  # output the check cannot even read, e.g. not JSON
            status, message = "wrong", traceback.format_exc(limit=2)
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            self.messages.append(f"{job.name}: {status}: {message}")

    def run_pass(self, tracer=None):
        for job in self.jobs:
            self.run_job(job, tracer)

    def fill(self, seconds: float, start: float):
        """Repeat jobs, in ladder order, while each one is predicted to end
        within `seconds` of `start`; cheap jobs collect more samples."""
        progress = True
        while progress:
            progress = False
            for job in self.jobs:
                if perf_counter() - start + self.last[job.name] <= seconds:
                    self.run_job(job)
                    progress = True

    def medians(self, raw: bool = False) -> dict[str, float]:
        """Per call id, the median over its samples."""
        samples = self.raw if raw else self.scaled
        scale = 1.0 if raw else self.timer.run_scale()
        return {c: statistics.median(ts) * scale for c, ts in samples.items()}


def warm_up():
    """Import sympy and fill lazy state, as any session's first factor call does."""
    from heightzeta import QPoly, qpoly_factor

    qpoly_factor(QPoly((-2, 0, 1)))


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, or of the largest CLI child for cli_session."""
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def report_lines(workload: str, runner: Runner) -> list[str]:
    """The workload's own metrics, by name with unit (scaled; raw in brackets)."""
    med, raw = runner.medians(), runner.medians(raw=True)
    samples = sum(len(v) for v in runner.scaled.values())
    lines = [f"# {workload}: {len(runner.jobs)} jobs, {len(med)} timed calls, {samples} samples"]
    if workload in GROUP_METRICS:
        prefix, groups = GROUP_METRICS[workload]
        for g in groups:
            calls = [c for c in med if runner.group_of[c] == g]
            n = sum(1 for j in runner.jobs if j.group == g)
            lines.append(f"{prefix}.{g} {sum(med[c] for c in calls):.4f} s "
                         f"[raw {sum(raw[c] for c in calls):.4f} s] ({n} jobs)")
    else:
        values = list(med.values())
        t, pct = tail(values)
        lines.append(f"cli_latency_p50_s {statistics.median(values):.4f} s "
                     f"({len(values)} invocations)")
        lines.append(f"cli_latency_tail_s {t:.4f} s (p{pct:.0f} of {len(values)} invocations)")
        lines.append(f"cli_session_s {sum(values):.4f} s [raw {sum(raw.values()):.4f} s]")
    frac = runner.failed / max(runner.attempted, 1)
    lines.append(f"failed_frac {frac:.4f} ({runner.failed} of {runner.attempted} jobs attempted; "
                 f"{runner.wrong} wrong results)")
    return lines


def untraced(args, jobs, timer: Timer) -> tuple[Runner, dict]:
    setup = measure_setup(1 if args.toy else SETUP_RUNS)
    warm_up()
    runner = Runner(jobs, timer)
    start = perf_counter()
    runner.run_pass()
    runner.fill(args.seconds, start)
    values = list(runner.medians().values())
    job_tail, pct = tail(values)
    metrics = {
        "setup_s": setup,
        "pass_s": sum(values),
        "job_p50_s": statistics.median(values),
        "job_tail_s": job_tail,
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    for line in report_lines(args.workload, runner):
        print(line)
    print(f"# job_tail_s is p{pct:.0f} of {len(values)} calls")
    return runner, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced(args, jobs, timer: Timer) -> tuple[Runner, dict]:
    """One untraced and one traced pass; per-layer values are per pass."""
    from tracing import Tracer, per_layer_names

    warm_up()
    runner = Runner(jobs, timer)
    runner.run_pass()
    plain_pass = sum(runner.medians().values())
    tracer = Tracer()
    traced_runner = Runner(jobs, timer)
    traced_runner.run_pass(tracer)
    traced_pass = sum(traced_runner.medians().values())
    # Self times are raw wall times; scale them like the pass they belong to.
    speed = traced_pass / sum(traced_runner.medians(raw=True).values())
    values = {"oracle.denominators": tracer.denominators,
              "trace.spans": len(tracer.spans),
              "trace.overhead_frac": traced_pass / plain_pass - 1.0}
    values.update(tracer.sizes)
    for name in tracer.calls:
        values[f"{name}.s"] = tracer.self_s[name] * speed
        values[f"{name}.calls"] = tracer.calls[name]
    metrics = {}
    for name in per_layer_names():
        unit = "s" if name.endswith(".s") else ("ratio" if name.endswith("_frac") else "count")
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.span_records()))
    print(f"# traced pass {traced_pass:.4f} s vs {plain_pass:.4f} s untraced; "
          f"spans in {spans_path.relative_to(ROOT)}")
    for name, m in sorted(metrics.items()):
        if name.endswith(".s") and m["value"]:
            print(f"{name} {m['value']:.4f} s (calls {metrics[name[:-2] + '.calls']['value']})")
    runner.attempted += traced_runner.attempted
    runner.failed += traced_runner.failed
    runner.wrong += traced_runner.wrong
    runner.messages += traced_runner.messages
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for bench/selftest.py")
    parser.add_argument("--stages", action="store_true",
                        help="print traced stage times of the S/M/L anchors beside the ROADMAP table")
    args = parser.parse_args(argv)
    if not (SRC / "heightzeta" / "__init__.py").is_file():
        print(f"error: no heightzeta sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.stages and args.workload is None:
        parser.error("--workload is required")
    os.environ.pop("HEIGHTZETA_THREADS", None)
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import heightzeta

    if Path(heightzeta.__file__).resolve().parent != SRC / "heightzeta":
        print(f"error: heightzeta imported from {heightzeta.__file__}", file=sys.stderr)
        return 2
    if args.stages:
        from stages import print_stage_table

        warm_up()
        print_stage_table()
        return 0

    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.build_jobs(args.workload, args.seed, args.toy, workdir,
                                    in_process=bool(args.trace), env=child_env())
        # cli_session's calls run in child processes: scale them per run.
        timer = Timer(per_call=args.workload != "cli_session")
        runner, metrics = (traced if args.trace else untraced)(args, jobs, timer)
    finally:
        for p in workdir.iterdir():
            p.unlink()
        workdir.rmdir()
    for message in runner.messages[:20]:
        print(f"# {message}", file=sys.stderr)
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
