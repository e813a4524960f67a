"""Self-time tracing of heightzeta's public functions, from outside the package.

``Tracer`` replaces each target function by a timing wrapper in every
heightzeta namespace that holds it (so ``heightzeta.asymptotics.unit_disk_poles``
is wrapped as well as ``heightzeta.qfuncs.unit_disk_poles``), and each target
method on its class; leaving the ``with`` block restores the originals.

Every wrapped call charges its wall time to its caller's frame, so a target's
self time is its time minus the time of the wrapped calls it made.  Coarse
targets also record a span (name, job, start, end, parent span); hot leaves
(``PolyFq.__divmod__``, ``QPoly.gcd``, per-m traces, per-element heights) are
counters only, because one span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (metric name, module, attribute path, kind); kind is "span" or "counter".
TARGETS = [
    ("zeta.assemble_zeta", "heightzeta.zeta", "assemble_zeta", "span"),
    ("zeta.decomposition_check", "heightzeta.zeta", "decomposition_check", "span"),
    ("qfuncs.QPoly.gcd", "heightzeta.qfuncs", "QPoly.gcd", "counter"),
    ("qfuncs.qpoly_factor", "heightzeta.qfuncs", "qpoly_factor", "span"),
    ("qfuncs.unit_disk_poles", "heightzeta.qfuncs", "unit_disk_poles", "span"),
    ("qfuncs.laurent_at_pole", "heightzeta.qfuncs", "laurent_at_pole", "span"),
    ("qfuncs.principal_part_remainder", "heightzeta.qfuncs", "principal_part_remainder", "span"),
    ("qfuncs.series_coefficients", "heightzeta.qfuncs", "series_coefficients", "span"),
    ("qfuncs.NumberFieldElem.trace", "heightzeta.qfuncs", "NumberFieldElem.trace", "counter"),
    ("qfuncs.orbit_contribution", "heightzeta.qfuncs", "orbit_contribution", "counter"),
    ("asymptotics.predicted_coefficient", "heightzeta.asymptotics", "predicted_coefficient", "counter"),
    ("asymptotics.main_term", "heightzeta.asymptotics", "main_term", "span"),
    ("asymptotics.remainder_check", "heightzeta.asymptotics", "remainder_check", "span"),
    ("asymptotics.build_report", "heightzeta.asymptotics", "build_report", "span"),
    ("gf.PolyFq.factor", "heightzeta.gf", "PolyFq.factor", "counter"),
    ("gf.PolyFq.__divmod__", "heightzeta.gf", "PolyFq.__divmod__", "counter"),
    ("oracle.count_canonical_heights", "heightzeta.oracle", "count_canonical_heights", "span"),
    ("oracle.count_region", "heightzeta.oracle", "count_region", "span"),
    ("places.canonical_height_exp", "heightzeta.places", "canonical_height_exp", "counter"),
    ("curves.build_genus1_spec", "heightzeta.curves", "build_genus1_spec", "span"),
    ("cli.load_spec", "heightzeta.cli", "load_spec", "span"),
    ("cli.zeta", "heightzeta.cli", "cmd_zeta", "span"),
    ("cli.poles", "heightzeta.cli", "cmd_poles", "span"),
    ("cli.asymptote", "heightzeta.cli", "cmd_asymptote", "span"),
    ("cli.verify", "heightzeta.cli", "cmd_verify", "span"),
    ("cli.curve", "heightzeta.cli", "cmd_curve", "span"),
]

# Sizes observed on results; they repeat exactly for a given seed.
SIZES = ["zeta.degree.max", "zeta.coeff_bits.max", "asymptotics.pole_records"]


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = []
    for name, *_ in TARGETS:
        names += [f"{name}.s", f"{name}.calls"]
    return names + ["oracle.denominators"] + SIZES + ["trace.spans", "trace.overhead_frac"]


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "heightzeta" or k.startswith("heightzeta."))]


class Tracer:
    """Install with ``with Tracer() as t``; read ``self_s``, ``calls``, ``spans``."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.denominators = 0
        self.spans: list[tuple] = []
        self.job = ""
        self._stack = [[0.0, None]]  # per active call: [child time, span index]
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, keep_span: bool):
        stack, self_s, calls, spans = self._stack, self.self_s, self.calls, self.spans
        observe = {"zeta.assemble_zeta": self._observe_zeta,
                   "asymptotics.build_report": self._observe_report}.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = None
            if keep_span:
                span = len(spans)
                spans.append(None)
            frame = [0.0, span if keep_span else parent[1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self_s[name] += t1 - t0 - frame[0]
                calls[name] += 1
                parent[0] += t1 - t0
                if keep_span:
                    spans[span] = (name, self.job, t0, t1, parent[1])
            if observe is not None:
                observe(result)
                parent[0] += perf_counter() - t1  # keep the observer out of self times
            return result

        return wrapper

    def _count_denominators(self, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.denominators += 1
                yield item

        return wrapper

    def _observe_zeta(self, closed):
        num, den = closed.combined.to_integer_pair()
        bits = max(abs(c).bit_length() for c in num + den)
        degree = max(len(num), len(den)) - 1
        self.sizes["zeta.degree.max"] = max(self.sizes["zeta.degree.max"], degree)
        self.sizes["zeta.coeff_bits.max"] = max(self.sizes["zeta.coeff_bits.max"], bits)

    def _observe_report(self, report):
        key = "asymptotics.pole_records"
        self.sizes[key] = max(self.sizes[key], len(report.pole_records))

    def _replace_everywhere(self, original, replacement):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def __enter__(self):
        for name, module_name, path, kind in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, kind == "span"))
                self._restore.append((cls, meth, original))
            else:
                original = getattr(module, path)
                self._replace_everywhere(original, self._wrap(name, original, kind == "span"))
        # oracle.denominators: monic denominators the oracle walks.  Only the
        # oracle's own reference is wrapped, so realize_phi is not counted.
        oracle = importlib.import_module("heightzeta.oracle")
        original = oracle.monic_polys
        oracle.monic_polys = self._count_denominators(original)
        self._restore.append((oracle, "monic_polys", original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def span_records(self) -> list[dict]:
        return [{"name": n, "job": j, "start": s, "end": e, "parent": p}
                for n, j, s, e, p in self.spans]
