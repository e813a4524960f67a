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
from itertools import combinations
from math import factorial, gcd, lcm

from .gf import FqField, PolyFq, _distinct_degree, _equal_degree_split, _fp_divmod, _fp_rem, _is_prime, _power, _prime_divisors

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


# -- factorization over Q -----------------------------------------------------

def qpoly_factor(p: QPoly):
    """Exact factorization over Q: (unit, [(irreducible, multiplicity), ...]).

    Factors are primitive integer polynomials with positive leading
    coefficient, sorted by (degree, coeffs); unit * prod == p exactly.
    The factorization runs over Z: the primitive part loses its factor w^k,
    Yun's algorithm splits it into squarefree parts, each part loses its
    cyclotomic factors by exact division, and the rest is factored by
    Zassenhaus's method: factor modulo a prime, Hensel-lift, recombine
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14-15).
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit, g = _primitive(p.coeffs)
    k = next(i for i, c in enumerate(g) if c)
    found = [((0, 1), k)] if k else []
    for part, mult in _squarefree_parts(g[k:]):
        found.extend((f, mult) for f in _factor_squarefree_int(part))
    factors = [(QPoly(f), mult) for f, mult in found]
    factors.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return unit, factors


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _squarefree_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive f: (part, multiplicity) pairs.

    With a = gcd(f, f'), b = f/a, c = f'/a, each step takes the gcd of b and
    d = c - b', which is the part of multiplicity i; all divisions are exact.
    """
    out: list[tuple[list[int], int]] = []
    if len(f) < 2:
        return out
    df = [i * c for i, c in enumerate(f)][1:]
    a, b, _ = _gcd_cofactors(f, _primitive(df)[1])
    c = _int_quotient(df, a)
    i = 1
    while len(b) > 1:
        # c and b' both have degree deg(b) - 1
        d = _trim([x - j * y for j, (x, y) in enumerate(zip(c, b[1:]), start=1)])
        if d:
            a, b, _ = _gcd_cofactors(b, _primitive(d)[1])
            c = _int_quotient(d, a)
        else:
            a, b = b, [1]
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _factor_squarefree_int(h: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree h with h(0) != 0."""
    found = []
    for n, phi in _totients_up_to(len(h) - 1):
        if phi < len(h):
            # Phi_n | h forces h(z) = 0 mod l at an element z of order n
            ell, z = _unity_root_mod(n)
            acc = 0
            for c in reversed(h):
                acc = (acc * z + c) % ell
            if acc == 0:
                cyclotomic = list(_cyclotomic(n))
                quotient = _int_quotient(h, cyclotomic)
                if quotient is not None:
                    found.append(cyclotomic)
                    h = quotient
    if len(h) > 1:
        found.extend(_zassenhaus(h))
    return found


def _totients_up_to(limit: int) -> list[tuple[int, int]]:
    """Every (n, phi(n)) with phi(n) <= limit, sorted by n."""
    primes = [p for p in range(2, limit + 2) if _is_prime(p)]
    out = []

    def walk(start: int, n: int, phi: int):
        out.append((n, phi))
        for j in range(start, len(primes)):
            p = primes[j]
            m, f = n * p, phi * (p - 1)
            if f > limit:
                break
            while f <= limit:
                walk(j + 1, m, f)
                m, f = m * p, f * p

    walk(0, 1, 1)
    return sorted(out)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """The cyclotomic polynomial Phi_n, ascending integer coefficients.

    From Phi_1 = w - 1 by Phi_(mp)(w) = Phi_m(w^p) / Phi_m(w) for a prime p
    not dividing m, then Phi_n(w) = Phi_r(w^(n/r)) with r the radical of n.
    """
    phi, r = [-1, 1], 1
    for p in _prime_divisors(n):
        spread = [0] * (p * len(phi) - p + 1)
        spread[::p] = phi
        phi = _int_quotient(spread, phi)
        r *= p
    out = [0] * ((len(phi) - 1) * (n // r) + 1)
    out[:: n // r] = phi
    return tuple(out)


@lru_cache(maxsize=None)
def _unity_root_mod(n: int) -> tuple[int, int]:
    """(l, z): a prime l = 1 mod n and an element z of order exactly n in F_l."""
    ell = n + 1
    while not _is_prime(ell):
        ell += n
    primes = _prime_divisors(n)
    for g in range(1, ell):
        z = pow(g, (ell - 1) // n, ell)
        if all(pow(z, n // r, ell) != 1 for r in primes):
            return ell, z
    raise AssertionError("F_l^* is cyclic of order divisible by n")


def _zassenhaus(h: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree h, positive leading.

    Of up to five primes l that keep h's degree and squarefreeness, the one
    whose distinct-degree factorization gives the fewest factors is split
    by equal-degree factorization; the factors are Hensel-lifted until any
    factor's coefficients times lc(h) fit in (-l^a/2, l^a/2) (Mignotte's
    bound) and recombined.
    """
    n, lc = len(h) - 1, h[-1]
    if n == 1:
        return [h]
    best = None
    ell, tried = 1, 0
    while tried < 5:
        ell += 1
        if not _is_prime(ell) or lc % ell == 0:
            continue
        hbar = PolyFq(FqField(ell), [c % ell for c in h]).monic()
        if not hbar.gcd(hbar.derivative()).is_one():
            continue
        tried += 1
        parts, count = [], 0
        for g, k in _distinct_degree(hbar):
            parts.append((g, k))
            count += g.degree // k
            if best is not None and count >= best[0]:
                break
        else:
            if count == 1:
                return [h]
            if best is None or count < best[0]:
                best = (count, ell, parts)
    _, ell, parts = best
    modular = [list(f.coeffs) for g, k in parts for f in _equal_degree_split(g, k)]
    norm = math.isqrt(sum(c * c for c in h)) + 1
    bound = 2 * lc * math.comb(n - 1, (n - 1) // 2) * norm
    tree, m = _factor_tree(modular, ell), ell
    while m <= bound:
        m2 = m * m
        inv = pow(lc, -1, m2)
        _hensel_lift(tree, [c * inv % m2 for c in h], m)
        m = m2
    return _recombine(h, _tree_leaves(tree), m)


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:i + len(b)], b)]
    return _trim([v % m for v in out])


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim([v % m for v in out])


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _add_mod(a, [-v for v in b], m)


def _bezout(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*g + t*h = 1 mod the prime p, deg s < deg h, deg t < deg g.

    g and h are coprime mod p and h is monic.
    """
    r0, r1, s0, s1 = g, h, [1], []
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
    inv = pow(r0[0], -1, p)
    s = _fp_rem([c * inv % p for c in s0], h, p)
    t = _fp_divmod(_sub_mod([1], _mul_mod(s, g, p), p), h, p)[0]
    return s, t


def _factor_tree(factors: list[list[int]], p: int):
    """Balanced factor tree [g, h, s, t, left, right] over monic factors mod p.

    g and h are the products of the left and right halves, s*g + t*h = 1;
    a half with one factor has no subtree (None).
    """
    if len(factors) == 1:
        return None
    k = len(factors) // 2
    g, h = [1], [1]
    for f in factors[:k]:
        g = _mul_mod(g, f, p)
    for f in factors[k:]:
        h = _mul_mod(h, f, p)
    return [g, h, *_bezout(g, h, p), _factor_tree(factors[:k], p), _factor_tree(factors[k:], p)]


def _hensel_lift(node, f: list[int], m: int):
    """Lift a factor tree valid mod m to mod m^2 with root product f.

    One quadratic Hensel step per node (von zur Gathen and Gerhard,
    Algorithm 15.10), then each child is lifted towards its new product.
    """
    g, h, s, t = node[:4]
    m2 = m * m
    e = _sub_mod(f, _mul_mod(g, h, m2), m2)
    q, r = _fp_divmod(_mul_mod(s, e, m2), h, m2)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, m2), _mul_mod(q, g, m2), m2), m2)
    h = _add_mod(h, r, m2)
    b = _sub_mod(_add_mod(_mul_mod(s, g, m2), _mul_mod(t, h, m2), m2), [1], m2)
    c, d = _fp_divmod(_mul_mod(s, b, m2), h, m2)
    s = _sub_mod(s, d, m2)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, m2), _mul_mod(c, g, m2), m2), m2)
    node[:4] = g, h, s, t
    for child, product in ((node[4], g), (node[5], h)):
        if child is not None:
            _hensel_lift(child, product, m)


def _tree_leaves(node) -> list[list[int]]:
    out = []
    for child, product in ((node[4], node[0]), (node[5], node[1])):
        out.extend([product] if child is None else _tree_leaves(child))
    return out


def _recombine(h: list[int], lifted: list[list[int]], m: int) -> list[list[int]]:
    """True factors of h from its monic factors mod m, h = lc * prod(lifted).

    Subsets are tried by increasing size.  A subset's candidate is lc(f)
    times its product, in symmetric residues, with f what is left of h;
    its constant term must divide lc(f) * f(0), and its primitive part must
    divide f exactly.
    """
    found = []
    f = h
    size = 1
    while 2 * size <= len(lifted):
        lc = f[-1]
        for subset in combinations(range(len(lifted)), size):
            ct = lc
            for i in subset:
                ct = ct * lifted[i][0] % m
            if 2 * ct > m:
                ct -= m
            if ct == 0 or lc * f[0] % ct:
                continue
            cand = [lc]
            for i in subset:
                cand = _mul_mod(cand, lifted[i], m)
            g = _primitive([v - m if 2 * v > m else v for v in cand])[1]
            quotient = _int_quotient(f, g)
            if quotient is not None:
                found.append(g)
                f = quotient
                lifted = [x for i, x in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    found.append(f)
    return found


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
