"""Places and heights on K = F_q(t), and the canonical height for z^d + 1/f.

A finite place is a monic irreducible pi in F_q[t]; the remaining place is
the degree valuation at infinity.  Heights are carried as integer exponents:
the standard height of x is q^h with h = max(deg num, deg den), and the
canonical height of x under phi(z) = z^d + 1/f is q^(m/d) where

    m = d*h + sum over bad places v of f_v * v(f) * [v(x) >= 0].

The correction at a bad place applies exactly when v(x) >= 0, with the
convention v(0) = +infinity, so x = 0 collects every correction.  Exponents
stay integers throughout; no floating point enters any height comparison.
"""

from __future__ import annotations

import math

from .fqt import RatFuncFq, poly_to_string, ratfunc_compose_power_plus
from .gf import FqField, PolyFq


class Place:
    """A place of F_q(t): finite (monic irreducible pi) or infinite (pi=None)."""

    __slots__ = ("pi",)

    def __init__(self, pi: PolyFq | None):
        self.pi = pi

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    @property
    def f_v(self) -> int:
        return 1 if self.pi is None else self.pi.degree

    def __repr__(self):
        return "Place(inf)" if self.pi is None else f"Place({poly_to_string(self.pi)})"


class BadPlace:
    """Bad-reduction data at one place: residue degree f_v and v(f) > 0.

    For genus 0 the concrete place is attached; genus-1 specs built from
    curve data carry only (f_v, vf) plus a human-readable label.
    """

    __slots__ = ("f_v", "vf", "pi", "label")

    def __init__(self, f_v: int, vf: int, pi: PolyFq | None = None, label: str = ""):
        self.f_v = f_v
        self.vf = vf
        self.pi = pi
        self.label = label


class PhiSpec:
    """The map phi(z) = z^d + 1/f over F_q(t) with its validated bad set."""

    __slots__ = ("d", "f", "bad_places")

    def __init__(self, d: int, f: PolyFq, bad_places: tuple[BadPlace, ...]):
        self.d = d
        self.f = f
        self.bad_places = bad_places

    @property
    def field(self) -> FqField:
        return self.f.field

    def apply(self, x: RatFuncFq) -> RatFuncFq:
        return ratfunc_compose_power_plus(x, self.d, self.f)


def valuation(x: RatFuncFq, place: Place):
    """v(x) at the given place; +infinity for x = 0."""
    if x.is_zero():
        return math.inf
    if place.is_infinite:
        return x.den.degree - x.num.degree
    pi = place.pi
    # canonical form is coprime, so at most one of num/den is divisible by pi
    k = x.num.ord_at(pi)
    if k:
        return k
    return -x.den.ord_at(pi)


def standard_height_exp(x: RatFuncFq) -> int:
    """h with H_K(x) = q^h, i.e. max(deg num, deg den)."""
    if x.is_zero():
        return 0
    return max(x.num.degree, x.den.degree)


def validate_phi(f: PolyFq, d: int) -> PhiSpec:
    """Factor f and build the bad set, enforcing v(f) < d everywhere.

    The infinite place is never bad for a polynomial f.  A repeated factor
    of multiplicity >= d violates the standing hypothesis and is rejected.
    """
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if d < 2:
        raise ValueError("map degree d must be >= 2")
    _, factors = f.factor()
    bad = []
    for pi, mult in factors:
        if mult >= d:
            raise ValueError(f"v(f) < d violated at {poly_to_string(pi)} (v(f) = {mult})")
        bad.append(BadPlace(f_v=pi.degree, vf=mult, pi=pi, label=poly_to_string(pi)))
    return PhiSpec(d=d, f=f, bad_places=tuple(bad))


def local_correction_num(x: RatFuncFq, bp: BadPlace) -> int:
    """Numerator of the local canonical-minus-standard gap as a q-exponent.

    Returns f_v * v(f) when v(x) >= 0 (including x = 0) and 0 otherwise;
    this is d*(local canonical height - local standard height)/log q.
    Canonical parts are coprime, so pi divides the denominator exactly when
    v(x) < 0: no order is computed.
    """
    if bp.pi is None:
        raise ValueError("local correction needs a concrete place")
    if x.is_zero() or not (x.den % bp.pi).is_zero():
        return bp.f_v * bp.vf
    return 0


def canonical_height_exp(x: RatFuncFq, phi: PhiSpec) -> int:
    """m with canonical height q^(m/d): d*h plus the bad-place corrections."""
    m = phi.d * standard_height_exp(x)
    for bp in phi.bad_places:
        m += local_correction_num(x, bp)
    return m


def realize_phi(field: FqField, bad_data, d: int) -> PhiSpec:
    """Concrete genus-0 map matching abstract (f_v, vf) bad-place data.

    Counting tables depend only on the residue degrees, so the
    lexicographically first unused monic irreducible of each required degree
    serves; f is the product of the chosen irreducibles to their v(f) powers.
    """
    from .fqt import monic_polys

    used: set[PolyFq] = set()
    chosen: list[tuple[PolyFq, int]] = []
    for f_v, vf in bad_data:
        pick = None
        for cand in monic_polys(field, f_v):
            if cand not in used and cand.is_irreducible():
                pick = cand
                break
        if pick is None:
            raise ValueError(f"not enough irreducibles of degree {f_v} over F_{field.q}")
        used.add(pick)
        chosen.append((pick, vf))
    f = field.poly_one()
    for pi, vf in chosen:
        f = f * pi.pow_(vf)
    return validate_phi(f, d)

