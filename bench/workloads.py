"""The three workloads as lists of jobs, each with an output check.

A job is one unit of closed-loop work; ``Job.run(timer)`` makes its calls
into the program through ``timer.call`` (see clock.py) and returns the
result.  An algebra job is one spec's full library path, timed call by call; an
oracle job is one counting call; a CLI job is one invocation.  ``Job.check``
returns ``(status, message)`` with status "ok", "failed" (the job raised or
exited with an unexpected code) or "wrong" (the program returned a result
that the check refutes).

Library calls go through the module attribute at call time, for example
``zeta.assemble_zeta``, so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import specs
from clock import Timer

from heightzeta import asymptotics, cli, curves, oracle, places, qfuncs, zeta
from heightzeta.gf import FqField, poly_from_string


@dataclass
class Job:
    name: str
    group: str
    run: Callable[[Timer], object]
    check: Callable[[object], tuple[str, str]]
    expected: dict = field(default_factory=dict)


# -- algebra_ladder ----------------------------------------------------------


def _prefix_main_terms(report, m: int, k_max: int) -> list[Fraction]:
    """main_term(k) for k <= k_max from series: p_j = a_j - g_j (remainder)."""
    a = qfuncs.series_coefficients(report.normalized, m)
    g = qfuncs.series_coefficients(report.remainder, m)
    e = report.alpha_exponent
    out = []
    for k in range(k_max + 1):
        out.append(sum((a[j] - g[j] for j in range(k // e + 1)), Fraction(0)))
    return out


def _genus0_phi(spec):
    if spec.f is not None:
        return spec.phi()
    return places.realize_phi(spec.field, [(bp.f_v, bp.vf) for bp in spec.bad_places], spec.d)


def _oracle_prefix(spec, m: int) -> tuple[int, dict]:
    """Oracle counts a_j for j <= m_or: a small budget of about 64 denominators."""
    n = 0
    while spec.q ** (n + 1) <= 64:
        n += 1
    m_or = min(m, spec.d * n)
    table = oracle.count_canonical_heights(_genus0_phi(spec), m_or)
    return m_or, table.counts


def _check_series(z, m: int) -> str | None:
    for j, c in enumerate(qfuncs.series_coefficients(z, m)):
        if c.denominator != 1 or c < 0:
            return f"Taylor coefficient a_{j} = {c} is not a nonnegative integer"
    return None


def _algebra_job(name: str, tier: str, spec, k_max: int, m: int) -> Job:
    def run(timer):
        closed = timer.call(f"{name}.assemble", zeta.assemble_zeta, spec)
        report = timer.call(f"{name}.report", asymptotics.build_report,
                            closed.combined, spec.q, spec.d)
        mains = [timer.call(f"{name}.main{k}", asymptotics.main_term, report, k)
                 for k in range(k_max + 1)]
        rc = timer.call(f"{name}.remainder", asymptotics.remainder_check, report, m)
        return closed.combined, report, mains, rc

    def check(result):
        z, report, mains, rc = result
        if not rc.differences_match_remainder:
            return "wrong", f"a_m - p_m differs from the remainder at m = {rc.first_failure}"
        if not rc.ok:
            return "wrong", f"remainder decay check failed at m = {rc.first_failure}"
        bad = _check_series(z, m)
        if bad:
            return "wrong", bad
        if mains != _prefix_main_terms(report, m, k_max):
            return "wrong", "main_term differs from the prefix sums of a_m - r_m"
        if spec.genus == 0:
            if "oracle" not in job.expected:
                job.expected["oracle"] = _oracle_prefix(spec, m)
            m_or, counts = job.expected["oracle"]
            a = qfuncs.series_coefficients(z, m_or)
            mism = [j for j in range(m_or + 1) if a[j] != counts.get(j, 0)]
            if mism:
                return "wrong", f"series differs from the oracle at m = {mism[0]}"
        return "ok", ""

    job = Job(name, tier, run, check)
    return job


def algebra_jobs(seed: int, toy: bool) -> list[Job]:
    jobs = []
    for i, (tier, spec_dict, k_max, m) in enumerate(specs.algebra_ladder(seed, toy)):
        jobs.append(_algebra_job(f"{tier}{i}", tier, cli.load_spec(spec_dict), k_max, m))
    return jobs


# -- oracle_ladder -------------------------------------------------------------


def _count_job(name, group, check, counter: str, *args, **kwargs) -> Job:
    """One call of oracle.<counter>, looked up when it runs so tracing sees it."""
    def run(timer):
        return timer.call(name, getattr(oracle, counter), *args, **kwargs)

    return Job(name, group, run, check)


def oracle_jobs(seed: int, toy: bool) -> list[Job]:
    jobs = []
    for entry in specs.oracle_ladder(seed, toy):
        q, d = entry["q"], entry["d"]
        field_ = FqField(q)
        spec = zeta.from_poly(field_, poly_from_string(field_, entry["f"]), d)
        phi = spec.phi()
        memo: dict = {}

        def series(m, spec=spec, memo=memo):
            if memo.get("m", -1) < m:
                memo["m"] = m
                memo["a"] = qfuncs.series_coefficients(zeta.assemble_zeta(spec).combined, m)
            return memo["a"]

        def check_counts(table, series=series):
            a = series(table.max_m)
            for j in range(table.max_m + 1):
                if a[j] != table[j]:
                    return "wrong", f"count a_{j} = {table[j]} but the closed form gives {a[j]}"
            return "ok", ""

        for method in ("fast", "enumerate"):
            for n in entry[method]:
                jobs.append(_count_job(f"q{q}.{method}.n{n}", method, check_counts,
                                       "count_canonical_heights", phi, d * n,
                                       method=method))
        n = entry["region"]
        for r in range(len(spec.bad_places) + 1):
            for t_set in combinations(range(len(spec.bad_places)), r):
                def check_region(table, spec=spec, t_set=t_set, n=n, d=d):
                    z = zeta.partial_zeta_DT(spec, t_set)
                    a = qfuncs.series_coefficients(z, d * n)
                    for h in range(n + 1):
                        if a[d * h] != table[h]:
                            return "wrong", (f"region {t_set}: {table[h]} points of height "
                                             f"exponent {h}, partial zeta gives {a[d * h]}")
                    return "ok", ""

                jobs.append(_count_job(f"q{q}.region{list(t_set)}.n{n}", "region",
                                       check_region, "count_region", phi, t_set, n))
    return jobs


# -- cli_session ----------------------------------------------------------------


def _argv(job: dict, path: Path | None) -> list[str]:
    command = job["command"]
    if command == "curve":
        c = job["curve"]
        argv = ["curve", "--q", str(c["q"]), "--h", c["h"], "--f", c["f"], "--d", str(c["d"])]
    else:
        argv = [command, "--spec", str(path)]
        if command == "asymptote":
            argv += ["--all-up-to", str(specs.ASYMPTOTE_K)]
    return argv + ["--format", "json"]


def _library_expectation(job: dict) -> dict:
    """What the CLI must print, computed through the library in this process."""
    command = job["command"]
    if command == "curve":
        c = job["curve"]
        field_ = FqField(c["q"])
        spec = curves.build_genus1_spec(field_, poly_from_string(field_, c["h"]),
                                        poly_from_string(field_, c["f"]), c["d"])
        return {"payload": cli.spec_to_json(spec)}
    spec = cli.load_spec(job["spec"])
    z = zeta.assemble_zeta(spec).combined
    if command == "zeta":
        num, den = z.to_integer_pair()
        return {"combined": {"num": num, "den": den}, "z": z}
    report = asymptotics.build_report(z, spec.q, spec.d)
    if command == "poles":
        return {"records": [
            ([int(c) for c in rec.factor.coeffs], rec.order,
             [[str(c) for c in el.rep.coeffs] for el in rec.laurent])
            for rec in report.pole_records]}
    if command == "asymptote":
        k_max = specs.ASYMPTOTE_K
        a = qfuncs.series_coefficients(z, k_max)
        counts = [sum(a[: k + 1]) for k in range(k_max + 1)] if spec.genus == 0 else None
        return {"mains": _prefix_main_terms(report, k_max, k_max), "counts": counts}
    return {}


def _check_cli(job: dict, expected: dict, result) -> tuple[str, str]:
    code, out, err = result
    want = job["expect_exit"]
    if code != want:
        tail = err.strip().splitlines()[-1:] or [""]
        # A result printed for malformed input, or a failed identity (3), is a
        # wrong answer; any other unexpected exit is a failed job.
        status = "wrong" if (want == 2 and code == 0) or code == 3 else "failed"
        return status, f"exit {code}, expected {want}: {tail[0]}"
    if want != 0:
        return "ok", ""
    if not expected:
        expected.update(_library_expectation(job))
    payload = json.loads(out)
    command = job["command"]
    if command == "zeta":
        if payload["combined"] != expected["combined"]:
            return "wrong", "printed Z differs from the library's closed form"
        bad = _check_series(expected["z"], 20)
        if bad:
            return "wrong", bad
    elif command == "poles":
        got = [(r["min_poly"], r["order"], [lc["coeffs"] for lc in r["laurent"]]) for r in payload]
        if got != expected["records"]:
            return "wrong", "printed pole records differ from the library's"
    elif command == "asymptote":
        rows = payload["rows"]
        if [Fraction(r["main_term"]) for r in rows] != expected["mains"]:
            return "wrong", "printed main terms differ from the prefix sums of a_m - r_m"
        if expected["counts"] is not None:
            for r, count in zip(rows, expected["counts"]):
                # The oracle column is printed only within the counting budget.
                if "oracle" in r and (r["oracle"] != count or Fraction(r["difference"])
                                      != count - Fraction(r["main_term"])):
                    return "wrong", f"oracle column wrong at k = {r['k']}"
    elif command == "verify":
        if payload["pass"] is not True:
            return "wrong", "verify reported a failed check"
    elif command == "curve":
        if payload != expected["payload"]:
            return "wrong", "printed curve spec differs from the library's"
    return "ok", ""


def _subprocess_run(argv: list[str], env: dict):
    p = subprocess.run([sys.executable, "-m", "heightzeta.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=150)
    return p.returncode, p.stdout, p.stderr


def _in_process_run(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv with exit 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error: python -m would exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def cli_jobs(seed: int, toy: bool, workdir: Path, in_process: bool, env: dict) -> list[Job]:
    """In-process jobs call cli.main(argv); the others run `python -m heightzeta.cli`."""
    jobs = []
    for i, entry in enumerate(specs.cli_session(seed, toy)):
        path = None
        if "spec" in entry:
            path = workdir / f"spec{i}.json"
            path.write_text(json.dumps(entry["spec"]))
        argv = _argv(entry, path)
        name = f"{i:02d}.{entry['command']}"

        def run(timer, argv=argv, name=name):
            if in_process:
                return timer.call(name, _in_process_run, argv)
            return timer.call(name, _subprocess_run, argv, env)

        job = Job(name, entry["command"], run, None)
        job.check = lambda result, entry=entry, job=job: _check_cli(entry, job.expected, result)
        jobs.append(job)
    return jobs


def build_jobs(workload: str, seed: int, toy: bool, workdir: Path, in_process: bool,
               env: dict) -> list[Job]:
    if workload == "algebra_ladder":
        return algebra_jobs(seed, toy)
    if workload == "oracle_ladder":
        return oracle_jobs(seed, toy)
    return cli_jobs(seed, toy, workdir, in_process, env)
