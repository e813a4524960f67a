"""Exact rational-function algebra over Q in the formal variable w = q^(-s/d).

Dense rational polynomials (QPoly), their gcd over Z (GCDHEU, with the
Euclidean algorithm over Q as the fallback), canonical rational functions
(QRatFunc) and exact Taylor coefficients: the arithmetic every zeta closed
form is built and printed with.  Factorization over Q is in ``zfactor``;
quotient fields Q[u]/(p), pole records, Laurent data, orbit traces and
principal parts are in ``poles``.  Each is a module of its own, so a process
compiles only the layers it runs (README, "Package layout").
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from math import gcd, lcm

from .gf import _power


class QPoly:
    """Dense polynomial over Q: ascending Fraction tuple, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((Fraction(c),))

    @classmethod
    def var(cls) -> "QPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.coeffs or not other.coeffs:
            return QPoly(())
        # multiply the primitive integer parts, then scale by both contents
        unit_a, a = _primitive(self.coeffs)
        unit_b, b = _primitive(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        unit = unit_a * unit_b
        return QPoly([unit * v for v in out])

    def scale(self, c) -> "QPoly":
        c = Fraction(c)
        return QPoly([c * x for x in self.coeffs])

    def __divmod__(self, other: "QPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        if self.degree < db:
            return QPoly(()), self
        # divide the primitive integer parts; the running dividend is a / den,
        # and den grows only by the factors of lead that a step needs
        unit_a, a = _primitive(self.coeffs)
        unit_b, b = _primitive(other.coeffs)
        lead, den = b[-1], 1
        quot = [Fraction(0)] * (len(a) - db)
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k]
            if c:
                m = lead // gcd(c, lead)
                if m != 1:
                    a = [m * v for v in a[:k + 1]]
                    den *= m
                qc = a[k] // lead
                quot[k - db] = Fraction(qc, den)
                for i in range(db + 1):
                    a[k - db + i] -= qc * b[i]
        unit = unit_a / unit_b
        return QPoly([unit * v for v in quot]), QPoly([unit_a * Fraction(v, den) for v in a[:db]])

    def __floordiv__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def monic(self) -> "QPoly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(1 / self.coeffs[-1])

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic gcd over Q, computed over Z (see _gcd_cofactors)."""
        if self.is_zero() or other.is_zero():
            return (other if self.is_zero() else self).monic()
        g, _, _ = _gcd_cofactors(_primitive(self.coeffs)[1], _primitive(other.coeffs)[1])
        return QPoly(g).monic()

    def pow_(self, n: int) -> "QPoly":
        return _power(self, n, QPoly((1,)))

    def compose_power(self, k: int) -> "QPoly":
        """Substitute w -> w^k."""
        if k == 1 or self.is_zero():
            return self
        out = [Fraction(0)] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return QPoly(out)

    def decimate(self, k: int) -> "QPoly":
        """Inverse of compose_power: keep coefficients at indices divisible by k."""
        for i, c in enumerate(self.coeffs):
            if c and i % k:
                raise ValueError("support is not contained in multiples of k")
        return QPoly(self.coeffs[::k])

    def eval(self, x) -> Fraction:
        acc = Fraction(0)
        x = Fraction(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def primitive_integer(self):
        """Write self = unit * g with g integer, content 1, positive leading coeff."""
        if self.is_zero():
            return Fraction(0), QPoly(())
        unit, ints = _primitive(self.coeffs)
        return unit, QPoly(ints)

    def support_gcd(self) -> int:
        """gcd of the exponents carrying nonzero coefficients (0 for constants)."""
        g = 0
        for i, c in enumerate(self.coeffs):
            if c and i:
                g = gcd(g, i)
        return g

    def __repr__(self):
        return f"QPoly({poly_str(self)})"


def _primitive(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, list[int]]:
    """(unit, g) with coeffs = unit * g, g integer, content 1, positive leading."""
    # A list, not a generator: CPython resizes a tuple built from a generator
    # and keeps up to 2000 freed tuples per size, so that form grows memory.
    den = lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return Fraction(content, den), [v // content for v in ints]


def _int_quotient(a: list[int], g: list[int]) -> list[int] | None:
    """a / g in Z[x] if g divides a exactly, else None (ascending lists)."""
    a = list(a)
    dg, lead = len(g) - 1, g[-1]
    quot = [0] * (len(a) - dg)
    for k in range(len(a) - 1, dg - 1, -1):
        if a[k]:
            qc, r = divmod(a[k], lead)
            if r:
                return None
            quot[k - dg] = qc
            for i in range(dg + 1):
                a[k - dg + i] -= qc * g[i]
    return None if any(a[:dg]) else quot


def _heuristic_gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]] | None:
    """(g, a/g, b/g) for primitive integer polynomials a and b, or None.

    GCDHEU (Char, Geddes and Gonnet, JSC 1989): evaluate both at an integer
    xi, take the integer gcd, read its balanced base-xi digits back as a
    polynomial, and keep its primitive part g if it divides both inputs.
    Because xi >= 2 * min(|a|_inf, |b|_inf) + 2, every root of a common
    factor has modulus below xi/2, so an accepted g is the gcd and not a
    proper divisor of it.  Gives up (None) after six evaluation points.
    """
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        h = gcd(_eval_int(a, xi), _eval_int(b, xi))
        digits = []
        while h:
            r = h % xi
            if 2 * r > xi:
                r -= xi
            digits.append(r)
            h = (h - r) // xi
        content = gcd(*digits) if digits[-1] > 0 else -gcd(*digits)
        g = [v // content for v in digits]
        qa = _int_quotient(a, g)
        qb = None if qa is None else _int_quotient(b, g)
        if qb is not None:
            return g, qa, qb
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _eval_int(a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _euclid_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by the Euclidean algorithm on Fraction coefficients."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _gcd_cofactors(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a/g, b/g), g = gcd(a, b) over Z for primitive integer polynomials.

    GCDHEU on Python ints; should it give up, the Euclidean algorithm over Q.
    """
    found = _heuristic_gcd(a, b)
    if found is not None:
        return found
    g = _primitive(_euclid_gcd(QPoly(a), QPoly(b)).coeffs)[1]
    return g, _int_quotient(a, g), _int_quotient(b, g)


def poly_str(p: QPoly, var: str = "w") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            pw = var if i == 1 else f"{var}^{i}"
            body = pw if mag == 1 else f"{mag}{pw}"
        parts.append(sign + body)
    return "".join(parts)


class QRatFunc:
    """Reduced rational function over Q: coprime parts, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = QPoly(())
            self.den = QPoly((1,))
            return
        unit_n, a = _primitive(num.coeffs)
        unit_d, b = _primitive(den.coeffs)
        _, a, b = _gcd_cofactors(a, b)
        scale = unit_n / (unit_d * b[-1])
        self.num = QPoly([scale * c for c in a])
        self.den = QPoly([Fraction(c, b[-1]) for c in b])

    @classmethod
    def zero(cls) -> "QRatFunc":
        return cls(QPoly(()), QPoly((1,)))

    @classmethod
    def const(cls, c) -> "QRatFunc":
        return cls(QPoly.const(c), QPoly((1,)))

    @classmethod
    def from_poly(cls, p: QPoly) -> "QRatFunc":
        return cls(p, QPoly((1,)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, QRatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "QRatFunc") -> "QRatFunc":
        return QRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QRatFunc":
        return QRatFunc(-self.num, self.den)

    def __sub__(self, other: "QRatFunc") -> "QRatFunc":
        return self + (-other)

    def __mul__(self, other: "QRatFunc") -> "QRatFunc":
        return QRatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "QRatFunc") -> "QRatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return QRatFunc(self.num * other.den, self.den * other.num)

    def pow_(self, n: int) -> "QRatFunc":
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("division by the zero function")
            return QRatFunc(self.den, self.num).pow_(-n)
        return QRatFunc(self.num.pow_(n), self.den.pow_(n))

    def scale(self, c) -> "QRatFunc":
        return QRatFunc(self.num.scale(c), self.den)

    def compose_power(self, k: int) -> "QRatFunc":
        return QRatFunc(self.num.compose_power(k), self.den.compose_power(k))

    def eval(self, x) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval(x) / d

    def to_integer_pair(self):
        """Clear denominators to coprime integer arrays with den(0) > 0.

        Requires den(0) != 0; the pair (num, den) reproduces the function.
        """
        if self.den.eval(0) == 0:
            raise ValueError("denominator vanishes at 0")
        if self.is_zero():
            return [0], [1]
        ints = _primitive(self.num.coeffs + self.den.coeffs)[1]
        nn, dd = ints[:len(self.num.coeffs)], ints[len(self.num.coeffs):]
        if dd[0] < 0:
            nn = [-v for v in nn]
            dd = [-v for v in dd]
        return nn, dd

    def __repr__(self):
        if self.den.is_one():
            return f"QRatFunc({poly_str(self.num)})"
        return f"QRatFunc(({poly_str(self.num)})/({poly_str(self.den)}))"


def series_coefficients(z: QRatFunc, m_max: int) -> list[Fraction]:
    """Exact Taylor coefficients a_0..a_M of z at w = 0 (den(0) must be nonzero)."""
    den = z.den.coeffs
    if not den or den[0] == 0:
        raise ValueError("denominator vanishes at 0; no Taylor expansion")
    num = z.num.coeffs
    inv0 = 1 / den[0]
    out: list[Fraction] = []
    for m in range(m_max + 1):
        acc = num[m] if m < len(num) else Fraction(0)
        for j in range(max(0, m - len(den) + 1), m):
            acc -= out[j] * den[m - j]
        out.append(acc * inv0)
    return out


# Names that bench/tracing.py and bench/workloads.py read from this module,
# which held them before zfactor and poles were split off.  The table exists
# only until ROADMAP item 1 retires the tracer; package code imports each
# name from its own module.
_MOVED = {
    "qpoly_factor": "zfactor",
    "NumberFieldElem": "poles",
    "laurent_at_pole": "poles",
    "orbit_contribution": "poles",
    "principal_part_remainder": "poles",
    "unit_disk_poles": "poles",
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_MOVED[name]}"), name)
