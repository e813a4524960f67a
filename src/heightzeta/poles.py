"""Strip poles of a closed form: pole records, Laurent data and principal parts.

Quotient fields Q[u]/(p) (NumberFieldElem), pole extraction on the closed
unit disk (unit_disk_poles), exact Laurent data (laurent_at_pole), exact
per-coefficient "orbit" sums via traces (orbit_contributions), and strip
principal parts by partial fractions (split_principal_parts).

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
themselves are read off the denominator factorization alone.  The trace
check steps u^(-m) through m = 0, 1, ... at O(deg p) cost per step
(orbit_contributions).  Every decision is exact: a factor is a strip pole
unless |p(0)| > |lead(p)|, which unit_disk_poles refuses (no spec's closed
form has one), and records are ordered by comparing the exact moduli
|p(0)/lead(p)|^(1/deg p) through integer powers.  Floats are for display
only: a pole's real part comes from that modulus, and its imaginary part
from the argument of a root found by an Aberth-Ehrlich iteration (_roots).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import factorial, gcd, lcm

from .gf import _power
from .qfuncs import QPoly, QRatFunc, _primitive, poly_str
from .zfactor import qpoly_factor


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
        return _power(self, n, NumberFieldElem(self.min_poly, QPoly((1,))))

    def trace(self) -> Fraction:
        """Field trace to Q: sum of rep_i * Tr(u^i), with Tr(u^i) a power sum."""
        sums = _power_sums(self.min_poly.coeffs)
        return sum((c * s for c, s in zip(self.rep.coeffs, sums)), Fraction(0))

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


class PoleRecord:
    """Strip poles of one irreducible denominator factor, with Laurent data.

    ``factor`` has multiplicity ``order`` in the denominator; ``laurent``
    holds its exact c_1..c_order from laurent_at_pole.  ``modulus`` and the
    (Re a, Im a) per root in ``numeric_poles`` (sorted by Im a, aligned with
    ``numeric_roots``) are floats for display only.  ``modulus`` is
    |p(0)/leading(p)|^(1/deg p), the geometric mean of the roots' moduli:
    the common modulus for every spec's factor, whose roots lie on one
    circle, and for a hand-built factor with roots of different moduli the
    mean, which then also sets every Re a.
    """

    __slots__ = ("factor", "order", "modulus", "numeric_poles", "numeric_roots", "laurent")

    def __init__(self, factor: QPoly, order: int, modulus: float,
                 numeric_poles: tuple[tuple[float, float], ...],
                 numeric_roots: tuple[complex, ...], laurent: tuple[NumberFieldElem, ...]):
        self.factor = factor
        self.order = order
        self.modulus = modulus
        self.numeric_poles = numeric_poles
        self.numeric_roots = numeric_roots
        self.laurent = laurent


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


def _strip_location(root: complex, modulus: float, log_alpha: float) -> tuple[float, float]:
    theta = math.atan2(root.imag, root.real)
    if theta > 0:
        theta -= 2 * math.pi
    re = -math.log(modulus) / log_alpha + 0.0
    im = -theta / log_alpha + 0.0
    return re, im


def _roots(coeffs, radius: float) -> list[complex]:
    """Every complex root of sum_i coeffs[i] u^i, by Aberth-Ehrlich iteration.

    Aberth (Math. Comp. 1973): each sweep moves every approximation y_k by
    w / (1 - w * sum_(j != k) 1/(y_k - y_j)), w = p(y_k)/p'(y_k), using the
    moved y_j at once.  The polynomial is first rescaled to u = radius * y,
    so that roots of modulus radius lie on |y| = 1, where the starting points
    are spread.  A root stops moving once |p(y)| is within rounding error of
    the Horner sum of the |coefficients|.  Plain floats; display only.
    """
    n = len(coeffs) - 1
    c0 = coeffs[0]
    b = [float(c / c0) * radius**i for i, c in enumerate(coeffs)]
    b.reverse()
    ys = [complex(math.cos(t), math.sin(t)) for t in (2 * math.pi * k / n + 0.4 for k in range(n))]
    moving = set(range(n))
    for _ in range(50 * n + 100):
        for k in list(moving):
            y = ys[k]
            ay = abs(y)
            val, der, bound = 0j, 0j, 0.0
            for a in b:
                der = der * y + val
                val = val * y + a
                bound = bound * ay + abs(a)
            if abs(val) <= 4e-16 * n * bound:
                moving.discard(k)
                continue
            w = val / der
            pull = sum(1 / (y - x) for j, x in enumerate(ys) if j != k)
            ys[k] = y - w / (1 - w * pull)
        if not moving:
            break
    return [radius * y for y in ys]


def _by_modulus(a: PoleRecord, b: PoleRecord) -> int:
    """Order records by exact modulus |c_0/c_k|^(1/k), then by (degree, coeffs).

    With r_a = |c_0/c_k| of a's degree-k_a factor (likewise r_b),
    r_a^(1/k_a) < r_b^(1/k_b) exactly when r_a^k_b < r_b^k_a.
    """
    pa, pb = a.factor, b.factor
    ra = abs(pa.coeffs[0] / pa.leading()) ** pb.degree
    rb = abs(pb.coeffs[0] / pb.leading()) ** pa.degree
    if ra != rb:
        return -1 if ra < rb else 1
    ka, kb = (pa.degree, pa.coeffs), (pb.degree, pb.coeffs)
    return (ka > kb) - (ka < kb)


def unit_disk_poles(z: QRatFunc, q: int, d: int, e: int) -> list[PoleRecord]:
    """Complete pole records for the denominator factors, sorted by exact modulus.

    z must be exponent-normalized (a function of wtilde = alpha^(-s) with
    alpha = q^(e/d)).  Every root of the denominator must lie in the closed
    unit disk, as it does for every spec's closed form (root moduli
    q^(-j/d), q^(-1/(2d)) or 1): a factor p with |p(0)| > |leading(p)|,
    whose roots have product of moduli > 1, raises ValueError.  Each record
    carries its factor's laurent_at_pole data.
    """
    if z.den.eval(0) == 0:
        raise ValueError("denominator vanishes at 0")
    log_alpha = (e / d) * math.log(q)
    _, factors = qpoly_factor(z.den)
    records = []
    for p, mult in factors:
        c0, ck = p.coeffs[0], p.leading()
        if abs(c0.numerator * ck.denominator) > abs(ck.numerator * c0.denominator):
            raise ValueError(
                f"denominator factor {poly_str(p)} has a root outside the closed unit disk; "
                "every root must lie in |w| <= 1"
            )
        modulus = float(abs(Fraction(c0, ck))) ** (1.0 / p.degree)
        roots = [
            complex(r.real, 0.0) if abs(r.imag) <= 1e-12 * abs(r) else r
            for r in _roots(p.coeffs, modulus)
        ]
        located = sorted(
            ((_strip_location(r, modulus, log_alpha), r) for r in roots),
            key=lambda t: (t[0][1], t[0][0]),
        )
        records.append(
            PoleRecord(
                factor=p,
                order=mult,
                modulus=modulus,
                numeric_poles=tuple(loc for loc, _ in located),
                numeric_roots=tuple(r for _, r in located),
                laurent=laurent_at_pole(z, p, mult),
            )
        )
    records.sort(key=cmp_to_key(_by_modulus))
    return records


def laurent_at_pole(z: QRatFunc, p: QPoly, n_ord: int) -> tuple[NumberFieldElem, ...]:
    """Exact Laurent coefficients c_1..c_N of z at the roots of p, a factor of order N.

    p is an irreducible factor of z's denominator with multiplicity N.
    Works in F = Q[u]/(p): substitute wtilde = u*exp(-tau), so that the
    denominator becomes tau^N times a unit series, and divide the
    numerator's first N terms by that unit in one series recurrence; the
    coefficient of tau^(-n) is c_n, valid simultaneously for every root of p.
    """

    def expand(qp: QPoly, terms: int) -> list[QPoly]:
        # qp(u * exp(-tau)) = sum_t tau^t * sum_j qp_j (-j)^t / t! * u^j
        return [
            QPoly([c * Fraction((-j) ** t, factorial(t)) for j, c in enumerate(qp.coeffs)]) % p
            for t in range(terms)
        ]

    den_s = expand(z.den, 2 * n_ord)
    if any(not c.is_zero() for c in den_s[:n_ord]):
        raise RuntimeError("denominator series valuation below the factor multiplicity")
    unit = den_s[n_ord:]
    if unit[0].is_zero():
        raise RuntimeError("denominator series valuation above the factor multiplicity")
    inv0 = _inverse_mod(unit[0], p)
    # quotient b_m = (num_m - sum_(j=1..m) unit_j * b_(m-j)) / unit_0
    quotient: list[QPoly] = []
    for m, acc in enumerate(expand(z.num, n_ord)):
        for j in range(1, m + 1):
            acc = acc - unit[j] * quotient[m - j]
        quotient.append((inv0 * acc) % p)
    return tuple(NumberFieldElem(p, quotient[n_ord - n]) for n in range(1, n_ord + 1))


def orbit_contributions(rec: PoleRecord, m_max: int) -> list[Fraction]:
    """Orbit sums of alpha^(am) * sum_n c_n(a) m^(n-1)/(n-1)!, exactly, for every m <= m_max.

    alpha^(am) = u0^(-m) at each root u0, so the m-th orbit sum is the trace
    of sum_n u^(-m) c_n m^(n-1)/(n-1)! in Q[u]/(factor); m^0 = 1 even at
    m = 0.  Each v_n = u^(-m) c_n is stepped to the next m in O(deg): with
    factor = a_0 + a_1 u + ... + a_k u^k (primitive integers), u^(-1) =
    -(a_1 + a_2 u + ... + a_k u^(k-1))/a_0, so x u^(-1) = (x_1 + x_2 u + ...
    + x_(k-1) u^(k-2)) + x_0 u^(-1).  The v_n are kept as integer vectors
    over the common denominator scale * a_0^m, and each trace is their dot
    product with the power sums Tr(u^i).
    """
    p = rec.factor
    if p.coeffs[0] == 0:
        raise ValueError("factor vanishes at 0; u is not invertible")
    _, a = _primitive(p.coeffs)
    sums = _power_sums(p.coeffs)
    sums_den = lcm(*[s.denominator for s in sums])
    sums_int = [s.numerator * (sums_den // s.denominator) for s in sums]
    reps = [c.rep.coeffs for c in rec.laurent]
    laurent_den = lcm(*[c.denominator for rep in reps for c in rep])
    vs = [[c.numerator * (laurent_den // c.denominator) for c in rep] + [0] * (len(a) - len(rep))
          for rep in reps]
    top = factorial(len(reps) - 1)
    weights = [top // factorial(n - 1) for n in range(1, len(reps) + 1)]  # (N-1)!/(n-1)!
    scale = sums_den * laurent_den * top
    a0, tail = a[0], a[1:]
    out = []
    for m in range(m_max + 1):
        total, m_pow = 0, 1
        for weight, v in zip(weights, vs):
            total += weight * m_pow * sum(x * s for x, s in zip(v, sums_int))
            m_pow *= m
        out.append(Fraction(total, scale))
        # a_0 * (v * u^(-1)), with the padding slot v[k] = 0 kept in place
        vs = [[a0 * x - v[0] * c for x, c in zip(v[1:], tail)] + [0] for v in vs]
        scale *= a0
    return out


def orbit_contribution(rec: PoleRecord, m: int) -> Fraction:
    """orbit_contributions(rec, m)[m]: the orbit sum at one m."""
    return orbit_contributions(rec, m)[m]


def split_principal_parts(z: QRatFunc, records: list[PoleRecord]) -> tuple[QRatFunc, QRatFunc]:
    """(sum of every record's principal parts, z minus that sum).

    The principal parts of z at the roots of one record's factor p, summed
    over the orbit, form the partial-fraction piece A/p^k of z (k the order):
    with z = num/(p^k * rest), A = num * rest^(-1) mod p^k.  Only the factor
    and the order are read, not the Laurent data.  The remainder has no
    strip poles: its denominator is coprime to each retained factor.  With
    the records of unit_disk_poles every factor is retained, so the
    remainder is a polynomial.
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
