"""Genus-1 setup data: point counts on y^2 = h(x), traces, and splitting.

Supports exactly the quadratic extensions F_q(t)(sqrt(h)) with h a smooth
cubic and q odd.  A place pi of F_q(t) splits, stays inert, or ramifies in
the extension according to the square class of h mod pi, which determines
the residue degrees and v(f) multipliers of the places upstairs; together
with the Frobenius trace from naive point counting this yields a complete
genus-1 problem spec for the zeta engine.
"""

from __future__ import annotations

from collections import Counter

from .fqt import poly_to_string, residue_square_class
from .gf import FqField, PolyFq
from .places import BadPlace
from .zeta import ProblemSpec


def affine_point_count(h: PolyFq) -> int:
    """#{(x, y) in F_q^2 : y^2 = h(x)}, counting the square roots of each h(x)."""
    field = h.field
    if field.p == 2:
        raise ValueError("char 2 unsupported")
    if h.degree != 3:
        raise ValueError("h must be a cubic")
    squares = Counter(field.mul(y, y) for y in field.elements())
    return sum(squares[h.eval(x)] for x in field.elements())


def frobenius_trace(q: int, affine_count: int) -> int:
    """a = q + 1 - #E(F_q) with #E = affine_count + 1 (the point at infinity)."""
    a = q - affine_count
    if a * a > 4 * q:
        raise ValueError(
            f"trace {a} violates the Hasse bound; singular curve or miscount"
        )
    return a


def cubic_discriminant(h: PolyFq) -> int:
    """Discriminant of a cubic over F_q (universal 5-term formula), as an element code."""
    if h.degree != 3:
        raise ValueError("h must be a cubic")
    F = h.field
    d0, c, b, a = h.coeffs  # h = a t^3 + b t^2 + c t + d0
    def m(*xs):
        out = 1
        for x in xs:
            out = F.mul(out, x)
        return out
    i18 = F.from_int(18)
    i4 = F.from_int(4)
    i27 = F.from_int(27)
    term = m(i18, a, b, c, d0)
    term = F.sub(term, m(i4, b, b, b, d0))
    term = F.add(term, m(b, b, c, c))
    term = F.sub(term, m(i4, a, c, c, c))
    term = F.sub(term, m(i27, a, a, d0, d0))
    return term


class SplittingType:
    """Behavior of a place of F_q(t) in F_q(t)(sqrt(h)): the places above it.

    kind is 'split', 'inert' or 'ramified'; places lists (f_v, e) pairs:
    residue degree over F_q and ramification index, one entry per place
    upstairs.
    """

    __slots__ = ("kind", "places")

    def __init__(self, kind: str, places: tuple[tuple[int, int], ...]):
        self.kind = kind
        self.places = places


def splitting_type(h: PolyFq, pi: PolyFq) -> SplittingType:
    """Splitting of the place pi in F_q(t)(sqrt(h)) via the square class of h mod pi."""
    cls = residue_square_class(h, pi)
    deg = pi.degree
    if cls == "square":
        return SplittingType("split", ((deg, 1), (deg, 1)))
    if cls == "nonsquare":
        return SplittingType("inert", ((2 * deg, 1),))
    return SplittingType("ramified", ((deg, 2),))


def curve_trace(h: PolyFq) -> int:
    """Frobenius trace of the smooth curve y^2 = h(x); refuses char 2 and a singular h."""
    if h.field.p == 2:
        raise ValueError("char 2 unsupported")
    if cubic_discriminant(h) == 0:
        raise ValueError("singular cubic: discriminant is zero")
    return frobenius_trace(h.field.q, affine_point_count(h))


def build_genus1_spec(field: FqField, h: PolyFq, f: PolyFq, d: int) -> ProblemSpec:
    """Problem spec for phi(z) = z^d + 1/f over K = F_q(t)(sqrt(h)).

    Bad places are the places of K above the irreducible factors of f, with
    v(f) = e * mult upstairs; any of them reaching v(f) >= d is rejected.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("f must be nonconstant")
    if d < 2:
        raise ValueError("map degree d must be >= 2")
    trace = curve_trace(h)
    bad: list[BadPlace] = []
    _, factors = f.factor()
    for pi, mult in factors:
        split = splitting_type(h, pi)
        for j, (f_v, e) in enumerate(split.places):
            vf = e * mult
            if vf >= d:
                raise ValueError(
                    f"v(f) < d violated above {poly_to_string(pi)} "
                    f"({split.kind}, v(f) = {vf})"
                )
            suffix = f"#{j+1}" if len(split.places) > 1 else ""
            bad.append(
                BadPlace(
                    f_v=f_v,
                    vf=vf,
                    label=f"above {poly_to_string(pi)} ({split.kind}){suffix}",
                )
            )
    return ProblemSpec(
        q=field.q,
        genus=1,
        d=d,
        bad_places=tuple(bad),
        frobenius_trace=trace,
        field=field,
        curve=h,
    )
