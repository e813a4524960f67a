"""Fast self-test of the benchmark (about 20 s).

    python3 bench/selftest.py

Runs every workload at toy size, traced and untraced, and checks that the
last line of output is the result object with exactly the metric names and
units of BENCHMARK.json; that each workload's output check rejects a
corrupted result; and that without the sources the benchmark exits non-zero
without printing a result.  Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
problems: list[str] = []


def expect(condition: bool, message: str):
    if not condition:
        problems.append(message)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_outputs(config: dict):
    for workload in (w["name"] for w in config["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", trace, "--toy")
            where = f"{workload} --trace {trace}"
            expect(p.returncode == 0, f"{where}: exit {p.returncode}: {p.stderr[-500:]}")
            if p.returncode:
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{where}: correct is {result['correct']}")
            expect(result["attempted"] >= 1, f"{where}: attempted {result['attempted']}")
            want = {m["name"]: m["unit"] for m in config[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{where}: metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if trace == "0":
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{where}: an end-to-end metric reads 0")


def check_checks():
    """Each workload's output check must refuse a corrupted result."""
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import specs
    import workloads
    from clock import Timer

    timer = Timer()
    job = workloads.algebra_jobs(3, toy=True)[0]
    z, report, mains, rc = job.run(timer)
    expect(job.check((z, report, mains, rc)) == ("ok", ""), "algebra: valid result refused")
    bumped = mains[:1] + [mains[1] + Fraction(1, 7)] + mains[2:]
    expect(job.check((z, report, bumped, rc))[0] == "wrong", "algebra: wrong main term passed")
    expect(job.check((z, report, mains, replace(rc, ok=False)))[0] == "wrong",
           "algebra: failed remainder check passed")

    job = next(j for j in workloads.oracle_jobs(3, toy=True) if j.group == "fast")
    table = job.run(timer)
    expect(job.check(table) == ("ok", ""), "oracle: valid count refused")
    counts = dict(table.counts)
    counts[max(counts)] += 1
    expect(job.check(replace(table, counts=counts))[0] == "wrong", "oracle: wrong count passed")

    workdir = BENCH / ".out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    entries = specs.cli_session(3, toy=True)
    jobs = workloads.cli_jobs(3, True, workdir, in_process=True, env={})
    zeta_job = next(j for e, j in zip(entries, jobs) if e["command"] == "zeta" and e["expect_exit"] == 0)
    code, out, err = zeta_job.run(timer)
    expect(zeta_job.check((code, out, err)) == ("ok", ""), "cli: valid zeta output refused")
    payload = json.loads(out)
    payload["combined"]["num"][0] += 1
    expect(zeta_job.check((0, json.dumps(payload), ""))[0] == "wrong", "cli: wrong closed form passed")
    malformed = next(j for e, j in zip(entries, jobs) if e["expect_exit"] == 2)
    expect(malformed.check((0, "{}", ""))[0] == "wrong", "cli: accepted malformed spec passed")
    expect(malformed.check((1, "", "Traceback"))[0] == "failed",
           "cli: traceback on malformed input not counted as failed")
    shutil.rmtree(workdir)


def report_known_defects():
    """Malformed specs kept out of the session because the CLI crashes on them."""
    import specs
    import workloads

    workdir = BENCH / ".out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(specs.KNOWN_DEFECTS):
        path = workdir / f"defect{i}.json"
        path.write_text(json.dumps(spec))
        code, _, _ = workloads._in_process_run(["zeta", "--spec", str(path), "--format", "json"])
        state = "still exits 1" if code == 1 else f"exits {code}: put it back into the session"
        print(f"known defect {json.dumps(spec)}: {state}")
    shutil.rmtree(workdir)


def check_without_sources():
    bare = BENCH / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    p = run_bench(bare, "--workload", "algebra_ladder", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    lines = p.stdout.strip().splitlines()
    expect(p.returncode != 0, "without sources: exit code 0")
    expect(not lines or not lines[-1].startswith("{"), "without sources: printed a result")
    shutil.rmtree(bare)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_outputs(config)
    check_checks()
    report_known_defects()
    check_without_sources()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
