"""Seeded inputs for the three benchmark workloads.

Every input is a plain JSON-able dict (the CLI's problem-spec format) or a
polynomial string, drawn from a ``random.Random(seed)``; the same seed gives
the same inputs.  Nothing here imports heightzeta, so the program only ever
receives the generated specs and argv.

The ranges are narrow on purpose: a run's timings must agree across seeds
within the bounds in BENCHMARK.json, so each tier draws from specs of similar
cost, and the fixed anchor specs (the S/M/L rows of the ROADMAP baseline
table) carry most of each tier's time.
"""

from __future__ import annotations

import random
from math import isqrt

ANCHORS = {
    "S": {"q": 5, "genus": 1, "d": 2, "frobenius_trace": 0,
          "bad_places": [{"f_v": 2, "vf": 1}]},
    "M": {"q": 5, "genus": 0, "d": 3,
          "bad_places": [{"f_v": 1, "vf": 1}, {"f_v": 1, "vf": 2}, {"f_v": 2, "vf": 1}]},
    "L": {"q": 7, "genus": 1, "d": 5, "frobenius_trace": 2,
          "bad_places": [{"f_v": 1, "vf": 1}, {"f_v": 2, "vf": 3},
                         {"f_v": 3, "vf": 2}, {"f_v": 1, "vf": 4}]},
}

# Per tier: how many seeded specs join the anchor, the largest bound exponent
# K (main_term runs for every k <= K) and the remainder_check range m.
TIERS = {
    "S": {"seeded": 7, "K": 24, "m": 40},
    "M": {"seeded": 5, "K": 24, "m": 40},
    "L": {"seeded": 1, "K": 6, "m": 30},
}

# A toy ladder for the self-test: the S and M anchors and one seeded S spec,
# tiny K and m.
TOY_TIERS = {
    "S": {"seeded": 1, "K": 3, "m": 8},
    "M": {"seeded": 0, "K": 3, "m": 8},
}


def _trace(rng: random.Random, q: int) -> int:
    """A Frobenius trace inside the Hasse bound a^2 <= 4q."""
    bound = isqrt(4 * q)
    return rng.randint(-bound, bound)


def _places(rng: random.Random, f_vs, d: int) -> list[dict]:
    return [{"f_v": f_v, "vf": rng.randint(1, d - 1)} for f_v in f_vs]


def draw_spec(rng: random.Random, tier: str) -> dict:
    """One seeded spec from a tier's range.

    Each range keeps the anchor's shape, whose cost varies little across the
    range (within about 20% per spec), so that tier times agree across seeds:
    S: genus 1, q = 5, d = 2, one place of degree 2, trace in the Hasse range.
    M: genus 0, q = 5, d = 3, places of degrees {1, 1, 2}, each v(f) in {1, 2}.
    L: genus 0, q = 7, d = 5, places of degrees {1, 1, 2, 3}, each v(f) in 1..4
       (the genus-1 anchor alone costs as much as the rest of the ladder).
    """
    if tier == "S":
        return {"q": 5, "genus": 1, "d": 2, "frobenius_trace": _trace(rng, 5),
                "bad_places": _places(rng, [2], 2)}
    if tier == "M":
        return {"q": 5, "genus": 0, "d": 3, "bad_places": _places(rng, rng.sample((1, 1, 2), 3), 3)}
    if tier == "L":
        return {"q": 7, "genus": 0, "d": 5, "bad_places": _places(rng, rng.sample((1, 1, 2, 3), 4), 5)}
    raise ValueError(f"unknown tier {tier!r}")


def algebra_ladder(seed: int, toy: bool = False) -> list[tuple[str, dict, int, int]]:
    """(tier, spec, K, m) for every spec of the ladder, anchors first."""
    rng = random.Random(seed)
    out = []
    for tier, cfg in (TOY_TIERS if toy else TIERS).items():
        out.append((tier, ANCHORS[tier], cfg["K"], cfg["m"]))
        for _ in range(cfg["seeded"]):
            out.append((tier, draw_spec(rng, tier), cfg["K"], cfg["m"]))
    return out


def _poly_text(coeffs) -> str:
    """Ascending coefficients -> 't^2+3t+1' (the CLI's polynomial syntax)."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        terms.append(f"{c}{mono}" if c != 1 or i == 0 else mono)
    return "+".join(terms) or "0"


def _mul(a, b, q: int):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _pow(a, n: int, q: int):
    out = [1]
    for _ in range(n):
        out = _mul(out, a, q)
    return out


def oracle_f(rng: random.Random, q: int, d: int) -> str:
    """f = (t + a)^e1 (t + b)^e2 over F_q (q prime), a != b, 1 <= e_i < d.

    Two places of degree 1 whatever the seed, so the sizes of the regions
    D_T, and with them the counting costs, do not depend on the seed.
    """
    a, b = rng.sample(range(q), 2)
    f = _mul(_pow([a, 1], rng.randint(1, d - 1), q), _pow([b, 1], rng.randint(1, d - 1), q), q)
    return _poly_text(f)


# Per q: fast counting at two large height exponents n, enumeration at two
# small ones, and count_region over every region D_T at one n.
ORACLE_LADDER = {
    2: {"fast": (10, 11), "enumerate": (4, 5), "region": 9},
    3: {"fast": (6, 7), "enumerate": (2, 3), "region": 6},
    5: {"fast": (4, 5), "enumerate": (1, 2), "region": 4},
    7: {"fast": (3, 4), "enumerate": (1, 2), "region": 3},
}
TOY_ORACLE_LADDER = {
    2: {"fast": (3,), "enumerate": (2,), "region": 2},
    3: {"fast": (2,), "enumerate": (1,), "region": 2},
}


def oracle_ladder(seed: int, toy: bool = False) -> list[dict]:
    """One genus-0 map per q: {"q", "d", "f", "fast", "enumerate", "region"}."""
    rng = random.Random(seed)
    out = []
    for q, sizes in (TOY_ORACLE_LADDER if toy else ORACLE_LADDER).items():
        d = rng.choice((2, 3))
        out.append({"q": q, "d": d, "f": oracle_f(rng, q, d), **sizes})
    return out


def _smooth_cubic(rng: random.Random, q: int) -> str:
    """h = t^3 + a t + b with -4a^3 - 27b^2 != 0 mod q (q prime > 3)."""
    while True:
        a, b = rng.randrange(q), rng.randrange(q)
        if (-4 * a**3 - 27 * b**2) % q:
            return _poly_text([b, a, 0, 1])


def _linear_f(rng: random.Random, q: int, factors: int) -> str:
    """t + c (one factor) or (t + c1)(t + c2) with c1 != c2 (two factors)."""
    cs = rng.sample(range(q), factors)
    f = [1]
    for c in cs:
        f = _mul(f, [c, 1], q)
    return _poly_text(f)


def curve_args(rng: random.Random, factors: int, q: int | None = None) -> dict:
    """A genus-1 curve y^2 = h over F_q (q in {5, 7} unless given), map degree 3."""
    q = q or rng.choice((5, 7))
    return {"q": q, "h": _smooth_cubic(rng, q), "f": _linear_f(rng, q, factors), "d": 3}


# Malformed specs that the CLI must reject with exit code 2.  KNOWN_DEFECTS
# are malformed too, but load_spec raises a TypeError on them (exit 1 with a
# traceback; ROADMAP item 3).  A timed workload must not fail, so they are
# kept out of the session; selftest.py reports whether they still crash.
KNOWN_DEFECTS = [
    {"q": 5, "genus": 0, "d": "2", "f": "t"},
    {"q": 5.0, "genus": 0, "d": 2, "f": "t"},
]
MALFORMED_POOL = [
    {"q": 5, "genus": 0, "f": "t"},
    {"q": 5, "genus": 0, "d": 2, "f": "t^^3"},
    {"q": 6, "genus": 0, "d": 2, "f": "t"},
    {"q": 5, "genus": 1, "d": 2, "frobenius_trace": 6, "bad_places": [{"f_v": 1, "vf": 1}]},
    {"q": 5, "genus": 0, "d": 2, "f": "t", "bad_places": [{"f_v": 1, "vf": 1}]},
    {"q": 5, "genus": 0, "d": 2, "bad_places": [{"f_v": 1, "vf": 2}]},
    {"q": 5, "genus": 2, "d": 2, "bad_places": [{"f_v": 1, "vf": 1}]},
]

# Commands of one session and how many of each; the order is shuffled by seed.
SESSION = {"zeta": 4, "poles": 6, "asymptote": 6, "verify": 6, "curve": 2, "malformed": 4}
TOY_SESSION = {"zeta": 1, "poles": 1, "asymptote": 1, "verify": 1, "curve": 1, "malformed": 2}
ASYMPTOTE_K = 12


# Spec kinds of the invocations of each spec-reading command, in order: the
# same mix in every session, so that latency percentiles agree across seeds.
SESSION_KINDS = ("S", "M", "f", "curve", "S", "M")


def _session_spec(rng: random.Random, kind: str) -> dict:
    """An S/M-sized valid spec: a tier range, a concrete f, or a curve."""
    if kind in ("S", "M"):
        return draw_spec(rng, kind)
    if kind == "f":
        return {"q": 5, "genus": 0, "d": 2, "f": oracle_f(rng, 5, 2)}
    # One factor of f: at most two bad places upstairs, so verify's
    # decomposition_check stays S/M-sized.
    c = curve_args(rng, 1, q=5)
    return {"q": c["q"], "genus": 1, "d": c["d"], "h": c["h"], "f": c["f"]}


def cli_session(seed: int, toy: bool = False) -> list[dict]:
    """Invocations of one session: {"command", "spec" | "curve", "expect_exit"}."""
    rng = random.Random(seed)
    counts = TOY_SESSION if toy else SESSION
    jobs = []
    for bad in rng.sample(MALFORMED_POOL, counts["malformed"]):
        jobs.append({"command": rng.choice(("zeta", "poles", "asymptote", "verify")),
                     "spec": bad, "expect_exit": 2})
    for command, count in counts.items():
        for i in range(count if command != "malformed" else 0):
            if command == "curve":
                jobs.append({"command": "curve", "curve": curve_args(rng, rng.randint(1, 2)),
                             "expect_exit": 0})
            else:
                spec = _session_spec(rng, SESSION_KINDS[i % len(SESSION_KINDS)])
                jobs.append({"command": command, "spec": spec, "expect_exit": 0})
    rng.shuffle(jobs)
    return jobs
