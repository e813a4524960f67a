"""Traced stage times of the S/M/L anchor specs beside the ROADMAP baseline.

    python3 bench/run.py --stages

After the warm-up factorization, runs each anchor through assemble_zeta,
build_report, main_term(k=200), remainder_check(60) and, for S and M,
decomposition_check (L's took 146 s in the baseline and is left out), with
the tracer installed, and prints each stage's raw wall time next to the
hand-timed ROADMAP numbers.  A ratio outside [0.5, 2] is flagged as a
disagreement.
"""

from __future__ import annotations

from time import perf_counter

import specs
from tracing import Tracer

from heightzeta import asymptotics, cli, zeta

STAGES = ("assemble", "build_report", "main_term k=200", "remainder_check 60",
          "decomposition_check")
# ROADMAP "Measured baseline at this re-anchor" (2 cores, Python 3.11.7).
BASELINE = {
    "S": (0.009, 0.015, 0.14, 0.09, 0.04),
    "M": (0.011, 0.061, 0.76, 0.19, 0.23),
    "L": (6.6, 4.0, 5.3, 1.6, 146.5),
}


def _stage_times(spec_dict: dict, with_decomposition: bool) -> list[float | None]:
    spec = cli.load_spec(spec_dict)
    out = []
    with Tracer():
        t0 = perf_counter()
        z = zeta.assemble_zeta(spec).combined
        out.append(perf_counter() - t0)
        t0 = perf_counter()
        report = asymptotics.build_report(z, spec.q, spec.d)
        out.append(perf_counter() - t0)
        t0 = perf_counter()
        asymptotics.main_term(report, 200)
        out.append(perf_counter() - t0)
        t0 = perf_counter()
        asymptotics.remainder_check(report, 60)
        out.append(perf_counter() - t0)
        if with_decomposition:
            t0 = perf_counter()
            zeta.decomposition_check(spec)
            out.append(perf_counter() - t0)
        else:
            out.append(None)
    return out


def print_stage_table():
    print("| spec | stage | ROADMAP | traced now | ratio |")
    print("| --- | --- | --- | --- | --- |")
    disagreements = []
    for tier in ("S", "M", "L"):
        times = _stage_times(specs.ANCHORS[tier], with_decomposition=tier != "L")
        for stage, base, now in zip(STAGES, BASELINE[tier], times):
            if now is None:
                print(f"| {tier} | {stage} | {base} s | skipped | |")
                continue
            ratio = now / base
            print(f"| {tier} | {stage} | {base} s | {now:.3f} s | {ratio:.2f} |")
            if not 0.5 <= ratio <= 2.0:
                disagreements.append(f"{tier} {stage}: {now:.3f} s vs {base} s")
    print("disagreements: " + ("; ".join(disagreements) if disagreements else "none"))
