"""Command line front end.

    heightzeta zeta      --spec FILE [--format json|text]
    heightzeta poles     --spec FILE [--format json|text]
    heightzeta asymptote --spec FILE (--bound-exponent K | --all-up-to K)
                         [--budget-override] [--format json|text]
    heightzeta verify    --spec FILE [--max-coeff M] [--budget-override]
                         [--format json|text]
    heightzeta curve     --q Q --h CUBIC --f POLY --d D [--format json|text]

Problem specs are JSON objects with fields q, genus, d, and exactly one of
"f" (a polynomial string over F_q[t]; genus 1 additionally needs "h") or
"bad_places" (a list of {"f_v": int, "vf": int}); genus 1 via "bad_places"
also needs "frobenius_trace".  "base_modulus" supplies the defining
polynomial when q is a proper prime power.  A key a spec's kind never reads
is refused: one outside these, a bad place's key other than "f_v" and "vf",
"h" or "frobenius_trace" in genus 0, "base_modulus" with a prime q; a
genus-1 "h" must carry the declared trace.  A residue degree "f_v" may not
exceed the largest that an "f" given as text can produce.  Exact rationals are
serialized as decimal-free "p/q" strings and coefficient arrays as integers;
floats appear only in displayed pole data (moduli and locations).  Exit
codes: 0 success, 2 input or validation error, 3 failed internal identity,
141 (the shell's status for SIGPIPE) when the reader closes standard
output early, as `| head` does.

Only what reading a spec and `zeta` need is imported at module level;
`poles`, `asymptotics`, `oracle` and `curves` are imported inside the
commands that use them, so a process compiles only the modules on its
command's path: `poles` builds the pole records alone, without the
principal parts that `asymptotics` splits off.

A command process (``python -m heightzeta.cli`` or the ``heightzeta``
script, both through ``run``) calls ``gc.freeze()`` once the command is
done.  The process is about to exit, and the interpreter's last cyclic
collection then skips every object the process made: on a ``verify`` of a
small spec that collection took about 8 ms of a 110 ms process.  ``main``
freezes nothing, so a caller that runs commands in process keeps its
collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import accumulate

from .fqt import poly_from_string, poly_to_string
from .gf import MAX_EXTENSION_Q, MAX_Q, FqField, _prime_divisors
from .places import BadPlace, realize_phi
from .qfuncs import QRatFunc, poly_str, series_coefficients
from .zeta import ProblemSpec, assemble_zeta, decomposition_check, from_poly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IDENTITY = 3
EXIT_BROKEN_PIPE = 141


class InputError(ValueError):
    pass


def _prime_power(q: int) -> tuple[int, int]:
    if q > MAX_Q:
        raise InputError(f"q = {q} exceeds the supported size 2^20")
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise InputError(f"q = {q} is not a prime power")
    p = primes[0]
    e = 1
    while p**e < q:
        e += 1
    return p, e


def _field_from_spec(data: dict) -> FqField:
    q = data["q"]
    p, e = _prime_power(q)
    if e == 1:
        if "base_modulus" in data:
            raise InputError(f"base_modulus applies to prime-power q only; q = {q} is prime")
        return FqField(p)
    if q > MAX_EXTENSION_Q:
        raise InputError(f"q = {q} = {p}^{e} exceeds the supported extension-field size 2^16")
    modulus_text = data.get("base_modulus")
    if not modulus_text:
        raise InputError(f"q = {q} = {p}^{e} requires a base_modulus polynomial")
    base = FqField(p)
    mod = poly_from_string(base, modulus_text)
    return FqField(p, e, mod.coeffs)


def _require_int(value, what: str):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")


def _refuse_unknown_keys(data: dict, known: tuple[str, ...], where: str):
    for key in data:
        if key not in known:
            raise InputError(f"unknown key {key!r} in {where}")


def load_spec(data: dict) -> ProblemSpec:
    _refuse_unknown_keys(
        data, ("q", "genus", "d", "f", "h", "bad_places", "frobenius_trace", "base_modulus"), "the spec"
    )
    for key in ("q", "genus", "d"):
        if key not in data:
            raise InputError(f"spec is missing {key!r}")
        _require_int(data[key], key)
    if data["genus"] not in (0, 1):
        raise InputError("genus must be 0 or 1")
    if data.get("frobenius_trace") is not None:
        _require_int(data["frobenius_trace"], "frobenius_trace")
        if data["genus"] == 0:  # from_poly would drop it
            raise InputError("frobenius_trace applies to genus 1 only")
    for key in ("f", "h", "base_modulus"):
        if key in data and not isinstance(data[key], str):
            raise InputError(f"{key} must be a string, got {data[key]!r}")
    if "bad_places" in data and not isinstance(data["bad_places"], list):
        raise InputError("bad_places must be a list")
    genus = data["genus"]
    d = data["d"]
    has_f = "f" in data
    has_bad = "bad_places" in data
    if has_f == has_bad:
        raise InputError("spec must contain exactly one of 'f' or 'bad_places'")
    if "h" in data and genus != 1:
        raise InputError("h applies to genus 1 only")
    field = _field_from_spec(data)
    if has_f:
        f = poly_from_string(field, data["f"])
        if genus == 0:
            return from_poly(field, f, d)
        if "h" not in data:
            raise InputError("genus 1 with 'f' requires the curve 'h'")
        from .curves import build_genus1_spec

        h = poly_from_string(field, data["h"])
        spec = build_genus1_spec(field, h, f, d)
        _check_trace(data.get("frobenius_trace"), spec.frobenius_trace)
        return spec
    bad = []
    for entry in data["bad_places"]:
        if not isinstance(entry, dict) or "f_v" not in entry or "vf" not in entry:
            raise InputError(f"malformed bad_places entry {entry!r}")
        _refuse_unknown_keys(entry, ("f_v", "vf"), f"bad_places entry {entry!r}")
        _require_int(entry["f_v"], "f_v")
        _require_int(entry["vf"], "vf")
        bad.append(BadPlace(f_v=entry["f_v"], vf=entry["vf"]))
    spec = ProblemSpec(
        q=data["q"],
        genus=genus,
        d=d,
        bad_places=tuple(bad),
        frobenius_trace=data.get("frobenius_trace"),
        field=field,
    )
    if "h" in data:  # as `curve` emits it: the curve must have the declared trace
        from .curves import curve_trace

        _check_trace(spec.frobenius_trace, curve_trace(poly_from_string(field, data["h"])))
    return spec


def _check_trace(declared: int | None, computed: int):
    if declared is not None and declared != computed:
        raise InputError(
            f"declared frobenius_trace {declared} contradicts the curve (computed {computed})"
        )


def _read_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("spec file must hold a JSON object")
    return load_spec(data)


def spec_to_json(spec: ProblemSpec) -> dict:
    out: dict = {"q": spec.q, "genus": spec.genus, "d": spec.d}
    if spec.frobenius_trace is not None:
        out["frobenius_trace"] = spec.frobenius_trace
    if spec.f is not None:
        out["f"] = poly_to_string(spec.f)
    else:
        out["bad_places"] = [{"f_v": bp.f_v, "vf": bp.vf} for bp in spec.bad_places]
    if spec.curve is not None:
        out["h"] = poly_to_string(spec.curve)
    return out


def _ratfunc_json(z: QRatFunc) -> dict:
    num, den = z.to_integer_pair()
    return {"num": num, "den": den}


def _phi_for_oracle(spec: ProblemSpec):
    if spec.genus != 0:
        return None
    if spec.f is not None:
        return spec.phi()
    return realize_phi(spec.field, [(bp.f_v, bp.vf) for bp in spec.bad_places], spec.d)


def cmd_zeta(args) -> int:
    spec = _read_spec(args.spec)
    closed = assemble_zeta(spec)
    payload = {
        "q": spec.q,
        "genus": spec.genus,
        "d": spec.d,
        "variable": f"w = {spec.q}^(-s/{spec.d})",
        "combined": _ratfunc_json(closed.combined),
        "main_term": _ratfunc_json(closed.main_term),
        "correction_term": _ratfunc_json(closed.correction_term),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        num, den = closed.combined.to_integer_pair()
        print(f"height zeta function in w = {spec.q}^(-s/{spec.d})")
        print(f"  Z(w) = ({_poly_text(num)}) / ({_poly_text(den)})")
        mn, md = closed.main_term.to_integer_pair()
        print(f"  main term        ({_poly_text(mn)}) / ({_poly_text(md)})")
        cn, cd = closed.correction_term.to_integer_pair()
        print(f"  correction term  ({_poly_text(cn)}) / ({_poly_text(cd)})")
    return EXIT_OK


def _poly_text(coeffs: list[int]) -> str:
    """Ascending-power rendering, matching how the series reads."""
    if not any(coeffs):
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            pw = "w" if i == 1 else f"w^{i}"
            body = pw if mag == 1 else f"{mag}{pw}"
        parts.append(sign + body)
    return "".join(parts)


def cmd_poles(args) -> int:
    from .poles import exponent_gcd_normalize, unit_disk_poles

    spec = _read_spec(args.spec)
    e, zt = exponent_gcd_normalize(assemble_zeta(spec).combined)
    pole_records = unit_disk_poles(zt, spec.q, spec.d, e)
    records = []
    for rec in pole_records:
        min_poly = [int(c) for c in rec.factor.coeffs]
        records.append(
            {
                "min_poly": min_poly,
                "order": rec.order,
                "modulus": float(f"{rec.modulus:.12g}"),
                "alpha_exponent": e,
                "alpha": f"{spec.q}^({e}/{spec.d})",
                "poles": [
                    [float(f"{re:.12g}"), float(f"{im:.12g}")] for re, im in rec.numeric_poles
                ],
                "laurent": [
                    {"min_poly": min_poly, "coeffs": [str(c) for c in elem.rep.coeffs]}
                    for elem in rec.laurent
                ],
            }
        )
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        print(f"{len(records)} pole record(s); alpha = {spec.q}^({e}/{spec.d})")
        for rec in pole_records:
            print(f"  factor {poly_str(rec.factor, 'u')} (order {rec.order}, modulus {rec.modulus:.6g})")
            for re, im in rec.numeric_poles:
                print(f"    pole at s = {re:.6g} + {im:.6g} i")
            for n, elem in enumerate(rec.laurent, start=1):
                print(f"    c_{n} = {poly_str(elem.rep, 'u')}")
    return EXIT_OK


def cmd_asymptote(args) -> int:
    kmax = args.bound_exponent if args.bound_exponent is not None else args.all_up_to
    if kmax < 0:
        raise InputError("bound exponent must be >= 0")
    ks = [kmax] if args.bound_exponent is not None else list(range(kmax + 1))
    spec = _read_spec(args.spec)
    from .asymptotics import build_report, main_terms

    report = build_report(assemble_zeta(spec).combined, spec.q, spec.d)
    phi = _phi_for_oracle(spec)
    oracle_cumulative = None
    if phi is not None:
        from .oracle import BudgetExceeded, count_canonical_heights

        try:
            table = count_canonical_heights(phi, kmax, override=args.budget_override)
            oracle_cumulative = list(accumulate(table[m] for m in range(kmax + 1)))
        except BudgetExceeded:
            pass
    mains = main_terms(report, kmax)
    rows = []
    for k in ks:
        predicted = mains[k]
        row = {
            "k": k,
            "bound": f"{spec.q}^({k}/{spec.d})",
            "main_term": str(predicted),
        }
        if oracle_cumulative is not None:
            row["oracle"] = oracle_cumulative[k]
            row["difference"] = str(oracle_cumulative[k] - predicted)
        rows.append(row)
    payload = {"alpha_exponent": report.alpha_exponent, "rows": rows}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"alpha = {spec.q}^({report.alpha_exponent}/{spec.d})")
        for row in rows:
            line = f"  k={row['k']:>3}  B={row['bound']:<10}  main={row['main_term']}"
            if "oracle" in row:
                line += f"  oracle={row['oracle']}  diff={row['difference']}"
            print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_coeff < 0:
        raise InputError("max-coeff must be >= 0")
    spec = _read_spec(args.spec)
    checks = []
    dec = decomposition_check(spec)

    phi = _phi_for_oracle(spec)
    if phi is not None:
        from .oracle import count_canonical_heights, max_height_exponent_within_budget

        budget_n = max_height_exponent_within_budget(spec.q)
        m_cap = spec.d * budget_n
        m_max = min(args.max_coeff, m_cap) if not args.budget_override else args.max_coeff
        series = series_coefficients(dec.assembled, m_max)
        table = count_canonical_heights(
            phi, m_max, override=args.budget_override
        )
        mism = [
            m
            for m in range(m_max + 1)
            if series[m] != table.counts.get(m, 0)
        ]
        checks.append(
            {
                "name": "series_vs_oracle",
                "pass": not mism,
                "max_coeff": m_max,
                "first_mismatch": mism[0] if mism else None,
            }
        )

    checks.append({"name": "decomposition", "pass": dec.ok})

    from .asymptotics import build_report, remainder_check

    report = build_report(dec.assembled, spec.q, spec.d)
    rc = remainder_check(report, max(args.max_coeff, 40))
    checks.append(
        {
            "name": "remainder_decay",
            "pass": rc.ok,
            "differences_match_remainder": rc.differences_match_remainder,
            "first_failure": rc.first_failure,
        }
    )

    ok = all(c["pass"] for c in checks)
    payload = {"pass": ok, "checks": checks}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for c in checks:
            line = f"  {'PASS' if c['pass'] else 'FAIL'}  {c['name']}"
            where = c.get("first_mismatch", c.get("first_failure"))
            if not c["pass"] and where is not None:
                line += f"  (first failing m = {where})"
            print(line)
        print("all checks passed" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_IDENTITY


def cmd_curve(args) -> int:
    from .curves import build_genus1_spec

    p, e = _prime_power(args.q)
    if e != 1:
        raise InputError("curve specs are supported over prime fields only")
    field = FqField(p)
    h = poly_from_string(field, args.h)
    f = poly_from_string(field, args.f)
    spec = build_genus1_spec(field, h, f, args.d)
    payload = spec_to_json(spec)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"genus 1 spec over F_{spec.q}, trace {spec.frobenius_trace}")
        for bp in spec.bad_places:
            print(f"  bad place: f_v={bp.f_v}, v(f)={bp.vf}  {bp.label}")
        print(json.dumps(payload))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heightzeta",
        description="exact dynamical height zeta functions over F_q(t)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--spec", required=True, help="path to a JSON problem spec")
        sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("zeta", help="print the closed-form zeta function")
    add_common(sp)
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("poles", help="strip poles with exact Laurent data")
    add_common(sp)
    sp.set_defaults(func=cmd_poles)

    sp = sub.add_parser("asymptote", help="main-term predictions for bounded-height counts")
    add_common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--bound-exponent", type=int, help="single k with B = q^(k/d)")
    group.add_argument("--all-up-to", type=int, help="all k from 0 to this bound")
    sp.add_argument("--budget-override", action="store_true")
    sp.set_defaults(func=cmd_asymptote)

    sp = sub.add_parser("verify", help="run oracle and identity checks")
    add_common(sp)
    sp.add_argument("--max-coeff", type=int, default=12)
    sp.add_argument("--budget-override", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("curve", help="build a genus-1 spec from a curve")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--h", required=True, help="cubic, e.g. t^3+3")
    sp.add_argument("--f", required=True, help="denominator polynomial of the map")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """The process entry point: ``main``, then a frozen heap for a quick exit.

    The process prints integers of any length: a main term at a large bound
    exponent has more digits than CPython's default string-conversion limit.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
