"""Exact rational-function algebra over Q in the formal variable w = q^(-s/d).

Everything a zeta closed form needs downstream lives here: dense rational
polynomials, canonical rational functions, factorization over Q, quotient
fields Q[u]/(p) for algebraic Laurent data, pole extraction on the closed
unit disk, strip principal parts by partial fractions, and exact
per-coefficient "orbit" sums via traces.

Conventions.  A pole record groups the full conjugate orbit of one
irreducible denominator factor p(u): every root u0 of p yields one pole
a = -Log(u0)/log(alpha) in the fundamental strip 0 <= Im(a) < 2*pi/log(alpha),
where alpha = q^(e/d) and the branch is fixed by arg(u0) shifted into
(-2*pi, 0].  Laurent coefficients are stored once, as elements of Q[u]/(p);
evaluating them at a specific root gives that pole's complex coefficient,
and summing over the orbit is a field trace, so predictions stay rational.
log(alpha) itself is never materialized: the stored c_n are the coefficients
of (log alpha)^(-n) (s-a)^(-n), which keeps all data algebraic.  The
Laurent data feeds the pole display and the trace check; the principal parts
themselves are read off the denominator factorization alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

import numpy as np

_EQUAL_MODULUS_TOL = 1e-9


class MixedModulusError(ValueError):
    """An irreducible denominator factor has roots of different moduli."""


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
        result = QPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

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
        den_l = lcm(
            lcm(*(c.denominator for c in self.num.coeffs)),
            lcm(*(c.denominator for c in self.den.coeffs)),
        )
        nn = [int(c * den_l) for c in self.num.coeffs]
        dd = [int(c * den_l) for c in self.den.coeffs]
        content = 0
        for v in nn + dd:
            content = gcd(content, v)
        nn = [v // content for v in nn]
        dd = [v // content for v in dd]
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


# -- factorization over Q -----------------------------------------------------

_SYMPY_U = None


def _sympy_u():
    global _SYMPY_U
    if _SYMPY_U is None:
        import sympy

        _SYMPY_U = sympy.Symbol("u")
    return _SYMPY_U


def qpoly_factor(p: QPoly):
    """Exact factorization over Q: (unit, [(irreducible, multiplicity), ...]).

    Factors are primitive integer polynomials with positive leading
    coefficient, sorted by (degree, coeffs); unit * prod == p exactly.
    """
    import sympy

    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit, g = p.primitive_integer()
    if g.degree == 0:
        return unit, []
    u = _sympy_u()
    sp = sympy.Poly([int(c) for c in reversed(g.coeffs)], u, domain="ZZ")
    content, factors = sp.factor_list()
    unit = unit * Fraction(int(content))
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(int(c)) for c in reversed(fac.all_coeffs())]
        qp = QPoly(coeffs)
        if qp.leading() < 0:
            qp = -qp
            if mult % 2:
                unit = -unit
        out.append((qp, int(mult)))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return unit, out


def has_rational_factor_of_degree(p: QPoly, k: int) -> bool:
    """Brute certificate helper: search for a degree-k divisor over Q.

    k = 1 uses the rational root theorem; k = 2 enumerates integer candidate
    divisors within a Mignotte-style coefficient bound.  Intended for the
    small polynomials this package produces, as an independent check on
    qpoly_factor's irreducibility claims.
    """
    _, g = p.primitive_integer()
    n = g.degree
    if k < 1 or k >= n:
        return False
    lead = int(g.leading())
    const = int(g.coeffs[0])
    if const == 0:
        return k == 1 or has_rational_factor_of_degree(QPoly(g.coeffs[1:]), k)
    if k == 1:
        for r in _divisors(abs(const)):
            for s in _divisors(abs(lead)):
                for sign in (1, -1):
                    if g.eval(Fraction(sign * r, s)) == 0:
                        return True
        return False
    if k == 2:
        bound = 4 * int(math.isqrt(sum(int(c) ** 2 for c in g.coeffs))) + 4
        for a in _divisors(abs(lead)):
            for c_abs in _divisors(abs(const)):
                for c in (c_abs, -c_abs):
                    for b in range(-bound, bound + 1):
                        cand = QPoly((c, b, a))
                        if (g % cand).is_zero():
                            return True
        return False
    raise ValueError("brute factor search supports k <= 2 only")


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# -- quotient fields Q[u]/(p) --------------------------------------------------


class NumberFieldElem:
    """Element of Q[u]/(p): residue class ``rep`` modulo the irreducible min_poly."""

    __slots__ = ("min_poly", "rep")

    def __init__(self, min_poly: QPoly, rep: QPoly):
        self.min_poly = min_poly
        self.rep = rep % min_poly

    @classmethod
    def rational(cls, min_poly: QPoly, c) -> "NumberFieldElem":
        return cls(min_poly, QPoly.const(c))

    @classmethod
    def generator(cls, min_poly: QPoly) -> "NumberFieldElem":
        return cls(min_poly, QPoly.var())

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, NumberFieldElem)
            and self.min_poly == other.min_poly
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.min_poly, self.rep))

    def _check(self, other: "NumberFieldElem"):
        if self.min_poly != other.min_poly:
            raise ValueError("elements of different quotient fields")

    def __add__(self, other: "NumberFieldElem") -> "NumberFieldElem":
        self._check(other)
        return NumberFieldElem(self.min_poly, self.rep + other.rep)

    def __neg__(self) -> "NumberFieldElem":
        return NumberFieldElem(self.min_poly, -self.rep)

    def __sub__(self, other: "NumberFieldElem") -> "NumberFieldElem":
        return self + (-other)

    def __mul__(self, other: "NumberFieldElem") -> "NumberFieldElem":
        self._check(other)
        return NumberFieldElem(self.min_poly, (self.rep * other.rep) % self.min_poly)

    def scale(self, c) -> "NumberFieldElem":
        return NumberFieldElem(self.min_poly, self.rep.scale(c))

    def inverse(self) -> "NumberFieldElem":
        if self.is_zero():
            raise ZeroDivisionError("zero divisor")
        return NumberFieldElem(self.min_poly, _inverse_mod(self.rep, self.min_poly))

    def __truediv__(self, other: "NumberFieldElem") -> "NumberFieldElem":
        return self * other.inverse()

    def pow_(self, n: int) -> "NumberFieldElem":
        if n < 0:
            return self.inverse().pow_(-n)
        result = NumberFieldElem(self.min_poly, QPoly((1,)))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def trace(self) -> Fraction:
        """Field trace to Q: sum of rep_i * Tr(u^i), with Tr(u^i) a power sum."""
        sums = _power_sums(self.min_poly.coeffs)
        return sum((c * s for c, s in zip(self.rep.coeffs, sums)), Fraction(0))

    def eval_at_root(self, root: complex) -> complex:
        return self.rep.eval_complex(root)

    def __repr__(self):
        return f"NumberFieldElem({poly_str(self.rep, 'u')} mod {poly_str(self.min_poly, 'u')})"


def _inverse_mod(a: QPoly, m: QPoly) -> QPoly:
    """The inverse of a modulo m in Q[u], by the extended Euclidean algorithm."""
    r0, r1 = m, a
    s0, s1 = QPoly(()), QPoly((1,))
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ValueError("not invertible: the gcd with the modulus has positive degree")
    return s0.scale(1 / r0.coeffs[0])


@lru_cache(maxsize=256)
def _power_sums(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Power sums s_0..s_(n-1) of the roots of sum_i coeffs[i] u^i (degree n).

    s_i = Tr(u^i) in Q[u]/(p).  Newton's identities on the monic polynomial
    u^n + c_(n-1) u^(n-1) + ... + c_0: s_k = -(k c_(n-k) + sum_(i<k) c_(n-i) s_(k-i)).
    """
    n = len(coeffs) - 1
    c = [x / coeffs[-1] for x in coeffs]
    sums = [Fraction(n)]
    for k in range(1, n):
        acc = k * c[n - k]
        for i in range(1, k):
            acc += c[n - i] * sums[k - i]
        sums.append(-acc)
    return tuple(sums)


# -- pole records and Laurent data ---------------------------------------------


@dataclass(frozen=True)
class PoleRecord:
    """Strip poles of one irreducible denominator factor, with Laurent data.

    ``numeric_poles`` lists (Re a, Im a) for each root of ``factor``, sorted
    by increasing imaginary part and aligned with ``numeric_roots``; they are
    advisory floats, while ``laurent`` is exact.
    """

    factor: QPoly
    order: int
    modulus: float
    alpha_exponent: int
    numeric_poles: tuple[tuple[float, float], ...]
    numeric_roots: tuple[complex, ...]
    laurent: tuple[NumberFieldElem, ...] = ()


def exponent_gcd_normalize(z: QRatFunc):
    """Largest e with z a function of w^e; returns (e, z rewritten in w^e).

    alpha = q^(e/d) is then the minimal Dirichlet base for z.  Constants give
    e = 1 by convention.
    """
    if z.is_zero():
        return 1, QRatFunc.zero()
    e = gcd(z.num.support_gcd(), z.den.support_gcd())
    if e == 0:
        e = 1
    if e == 1:
        return 1, z
    return e, QRatFunc(z.num.decimate(e), z.den.decimate(e))


def _strip_location(root: complex, log_alpha: float) -> tuple[float, float]:
    theta = math.atan2(root.imag, root.real)
    if theta > 0:
        theta -= 2 * math.pi
    re = -math.log(abs(root)) / log_alpha + 0.0
    im = -theta / log_alpha + 0.0
    return re, im


def unit_disk_poles(z: QRatFunc, q: int, d: int, e: int) -> list[PoleRecord]:
    """Pole records for denominator factors with root modulus <= 1.

    z must be exponent-normalized (a function of wtilde = alpha^(-s) with
    alpha = q^(e/d)).  Retention is decided exactly: an irreducible factor
    with equal-modulus roots has modulus <= 1 iff |p(0)| <= |leading|.
    Laurent slots are left empty; fill them with laurent_at_pole.
    """
    if z.den.eval(0) == 0:
        raise ValueError("denominator vanishes at 0")
    log_alpha = (e / d) * math.log(q)
    _, factors = qpoly_factor(z.den)
    records = []
    for p, mult in factors:
        deg = p.degree
        c0 = p.coeffs[0]
        ck = p.leading()
        modulus = float(abs(Fraction(c0, ck))) ** (1.0 / deg)
        roots = np.roots([float(c) for c in reversed(p.coeffs)])
        for r in roots:
            if abs(abs(complex(r)) - modulus) > _EQUAL_MODULUS_TOL * max(1.0, modulus):
                raise MixedModulusError(
                    "mixed-modulus factor: exact orbit summation unavailable"
                )
        if abs(c0.numerator * ck.denominator) > abs(ck.numerator * c0.denominator):
            continue  # modulus > 1: pole has Re(a) < 0
        located = sorted(
            ((_strip_location(complex(r), log_alpha), complex(r)) for r in roots),
            key=lambda t: (t[0][1], t[0][0]),
        )
        records.append(
            PoleRecord(
                factor=p,
                order=mult,
                modulus=modulus,
                alpha_exponent=e,
                numeric_poles=tuple(loc for loc, _ in located),
                numeric_roots=tuple(r for _, r in located),
            )
        )
    records.sort(key=lambda r: (r.modulus, r.factor.degree, r.factor.coeffs))
    return records


def laurent_at_pole(z: QRatFunc, rec: PoleRecord) -> list[NumberFieldElem]:
    """Exact Laurent coefficients c_1..c_N at the poles of one record.

    Works in F = Q[u]/(factor): substitute wtilde = u*exp(-tau) and expand z
    as a Laurent series in tau by exact series division; the coefficient of
    tau^(-n) is c_n, valid simultaneously for every root of the factor.
    """
    p = rec.factor
    n_ord = rec.order
    length = 2 * n_ord

    def fmul(a: QPoly, b: QPoly) -> QPoly:
        return (a * b) % p

    def series_mul(a: list[QPoly], b: list[QPoly]) -> list[QPoly]:
        out = [QPoly(()) for _ in range(length)]
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j in range(length - i):
                bj = b[j]
                if not bj.is_zero():
                    out[i + j] = out[i + j] + fmul(ai, bj)
        return out

    def eval_poly(qp: QPoly) -> list[QPoly]:
        # qp(u * exp(-tau)) = sum_t tau^t * sum_j qp_j (-j)^t / t! * u^j
        return [
            QPoly([c * Fraction((-j) ** t, factorial(t)) for j, c in enumerate(qp.coeffs)]) % p
            for t in range(length)
        ]

    num_s = eval_poly(z.num)
    den_s = eval_poly(z.den)
    if any(not den_s[i].is_zero() for i in range(n_ord)):
        raise RuntimeError("denominator series valuation below the factor multiplicity")
    unit = den_s[n_ord:] + [QPoly(()) for _ in range(n_ord)]
    lead = NumberFieldElem(p, unit[0])
    if lead.is_zero():
        raise RuntimeError("denominator series valuation above the factor multiplicity")
    inv0 = lead.inverse().rep
    # invert the unit series: b_0 = 1/a_0, b_m = -1/a_0 * sum a_j b_(m-j)
    inv_unit = [QPoly(()) for _ in range(length)]
    inv_unit[0] = inv0
    for m in range(1, length):
        acc = QPoly(())
        for j in range(1, m + 1):
            if not unit[j].is_zero():
                acc = acc + fmul(unit[j], inv_unit[m - j])
        inv_unit[m] = -fmul(inv0, acc)
    quotient = series_mul(num_s, inv_unit)
    return [NumberFieldElem(p, quotient[n_ord - n]) for n in range(1, n_ord + 1)]


def with_laurent(z: QRatFunc, rec: PoleRecord) -> PoleRecord:
    return replace(rec, laurent=tuple(laurent_at_pole(z, rec)))


def orbit_contribution(rec: PoleRecord, m: int) -> Fraction:
    """Exact total of alpha^(am) * sum_n c_n(a) m^(n-1)/(n-1)! over the record's poles.

    alpha^(am) = u0^(-m) at each root u0, so the orbit sum is the trace of
    u^(-m) * sum_n c_n m^(n-1)/(n-1)! in Q[u]/(factor); m^0 = 1 even at m = 0.
    """
    p = rec.factor
    if p.coeffs[0] == 0:
        raise ValueError("factor vanishes at 0; u is not invertible")
    if not rec.laurent:
        raise ValueError("laurent coefficients not filled")
    acc = NumberFieldElem(p, QPoly(()))
    for n, c in enumerate(rec.laurent, start=1):
        acc = acc + c.scale(Fraction(m ** (n - 1), factorial(n - 1)))
    u = NumberFieldElem.generator(p)
    return (u.pow_(-m) * acc).trace()


def split_principal_parts(z: QRatFunc, records: list[PoleRecord]) -> tuple[QRatFunc, QRatFunc]:
    """(sum of every record's principal parts, z minus that sum).

    The principal parts of z at the roots of one record's factor p, summed
    over the orbit, form the partial-fraction piece A/p^k of z (k the order):
    with z = num/(p^k * rest), A = num * rest^(-1) mod p^k.  Only the factor
    and the order are read, not the Laurent data.  The remainder has no
    strip poles: its denominator is coprime to each retained factor, so its
    Taylor coefficients decay geometrically.
    """
    total = QRatFunc.zero()
    for rec in records:
        pk = rec.factor.pow_(rec.order)
        rest = z.den // pk
        total = total + QRatFunc((z.num * _inverse_mod(rest % pk, pk)) % pk, pk)
    g = z - total
    for rec in records:
        if g.den.gcd(rec.factor).degree > 0:
            raise RuntimeError("principal part subtraction left a strip pole")
    return total, g


def principal_part_remainder(z: QRatFunc, records: list[PoleRecord]) -> QRatFunc:
    """z minus every record's principal parts; the result has no strip poles.

    A named entry point kept so that bench/tracing.py can time this layer.
    """
    return split_principal_parts(z, records)[1]
