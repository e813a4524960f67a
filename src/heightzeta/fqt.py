"""The polynomial ring F_q[t] beyond its arithmetic, and the field F_q(t).

Factorization over F_q (squarefree decomposition, distinct-degree and
Cantor-Zassenhaus equal-degree splitting), enumeration of polynomials and
monic irreducibles, square classes modulo an irreducible, canonical
rational functions in t, and the text format.  Field and polynomial
arithmetic are in ``gf``.

Rational functions are kept in canonical form: monic denominator, numerator
and denominator coprime, zero represented as 0/1.

Text format for polynomials (shared with the CLI and JSON payloads):
ASCII in the variable ``t``, ``^`` for powers, integer coefficients reduced
mod p, e.g. ``t^3+3``.  Printing uses descending powers with no zero terms.
"""

from __future__ import annotations

import random
from itertools import product

from .gf import MAX_TEXT_DEGREE, FqField, PolyFq


def _squarefree_decomposition(f: PolyFq):
    """Yield (squarefree part, multiplicity) pairs for monic f, handling char p."""
    F = f.field
    p = F.p
    result = []
    if f.is_one():
        return result
    c = f.gcd(f.derivative())
    w = f // c
    m = 1
    while not w.is_one():
        y = w.gcd(c)
        part = w // y
        if part.degree >= 1:
            result.append((part, m))
        w = y
        c = c // y
        m += 1
    if not c.is_one():
        # leftover is a p-th power (all of f when f' = 0)
        root_coeffs = [F.pth_root(cc) for cc in c.coeffs[::p]]
        for g, mm in _squarefree_decomposition(PolyFq(F, root_coeffs)):
            result.append((g, mm * p))
    return result


def _factor_squarefree(f: PolyFq):
    """Irreducible factors of a monic squarefree f (distinct-degree + equal-degree)."""
    return [h for g, k in _distinct_degree(f) for h in _equal_degree_split(g, k)]


def _distinct_degree(f: PolyFq):
    """Distinct-degree factorization of a monic squarefree f.

    Yields (g, k) by increasing k, for each k at which f has irreducible
    factors: g is the product of f's irreducible factors of degree k.  For
    any monic f, squarefree or not, the first k yielded is the smallest
    degree of an irreducible factor of f.
    """
    F = f.field
    t = PolyFq(F, (0, 1))
    h = t
    k = 0
    rest = f
    while rest.degree > 0:
        k += 1
        if 2 * k > rest.degree:
            yield rest, rest.degree
            return
        h = h.powmod(F.q, rest)
        g = rest.gcd(h - t)
        if g.degree > 0:
            yield g, k
            rest = rest // g
            h = h % rest


def _equal_degree_split(f: PolyFq, k: int):
    """Cantor-Zassenhaus splitting of monic squarefree f whose factors all have degree k."""
    if f.degree == k:
        return [f]
    F = f.field
    q = F.q
    rng = random.Random(hash((f.coeffs, k)) & 0xFFFFFFFF)
    one = PolyFq(F, (1,))
    while True:
        r = PolyFq(F, [rng.randrange(q) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        if F.p == 2:
            # additive trace map to F_2
            s = r % f
            acc = s
            for _ in range(k * F.e - 1):
                s = (s * s) % f
                acc = (acc + s) % f
            g = f.gcd(acc)
        else:
            m = (q**k - 1) // 2
            s = r.powmod(m, f)
            g = f.gcd(s - one)
        if 0 < g.degree < f.degree:
            return sorted(
                _equal_degree_split(g, k) + _equal_degree_split(f // g, k),
                key=lambda h: (h.degree, h.coeffs),
            )


def _polys(field: FqField, free: int, top: tuple[int, ...]):
    """Polynomials with ``free`` arbitrary low coefficients under the fixed ``top``.

    Ordered by code: the constant coefficient varies fastest.
    """
    for digits in product(range(field.q), repeat=free):
        yield PolyFq(field, digits[::-1] + top)


def monic_polys(field: FqField, degree: int):
    """All monic polynomials of the given degree, lexicographic in ascending coeffs."""
    return _polys(field, degree, (1,))


def all_polys(field: FqField, max_degree: int):
    """All polynomials of degree <= max_degree, including 0, lexicographic by code."""
    return _polys(field, max_degree + 1, ())


def irreducibles_up_to(field: FqField, n: int):
    """All monic irreducibles of degree <= n, sorted by (degree, coeffs)."""
    if n < 1:
        raise ValueError("degree bound must be >= 1")
    out = []
    for d in range(1, n + 1):
        for f in monic_polys(field, d):
            if f.is_irreducible():
                out.append(f)
    return out


def residue_square_class(h: PolyFq, pi: PolyFq) -> str:
    """Classify h mod pi as 'zero', 'square', or 'nonsquare' in F_q[t]/(pi).

    Uses the Euler criterion in the residue field of order q^deg(pi); the
    characteristic must be odd.
    """
    F = h.field
    if F.p == 2:
        raise ValueError("char 2 unsupported")
    if not pi.is_irreducible() or not pi.is_monic():
        raise ValueError("pi must be monic irreducible")
    r = h % pi
    if r.is_zero():
        return "zero"
    qv = F.q**pi.degree
    s = r.powmod((qv - 1) // 2, pi)
    if s.is_one():
        return "square"
    return "nonsquare"


class RatFuncFq:
    """Element of F_q(t) in canonical form: monic denominator, coprime parts."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyFq, den: PolyFq):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        F = num.field
        if num.is_zero():
            self.num = num
            self.den = PolyFq(F, (1,))
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != 1:
            c = F.inv(lead)
            num = num.scale(c)
            den = den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def from_canonical(cls, num: PolyFq, den: PolyFq) -> "RatFuncFq":
        """Wrap parts already in canonical form (coprime, den monic) unreduced."""
        x = cls.__new__(cls)
        x.num, x.den = num, den
        return x

    @property
    def field(self) -> FqField:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RatFuncFq)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFuncFq") -> "RatFuncFq":
        return RatFuncFq(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFuncFq":
        return RatFuncFq(-self.num, self.den)

    def __sub__(self, other: "RatFuncFq") -> "RatFuncFq":
        return self + (-other)

    def __mul__(self, other: "RatFuncFq") -> "RatFuncFq":
        return RatFuncFq(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFuncFq") -> "RatFuncFq":
        if other.is_zero():
            raise ZeroDivisionError("zero divisor")
        return RatFuncFq(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFuncFq":
        if self.is_zero():
            raise ZeroDivisionError("zero divisor")
        return RatFuncFq(self.den, self.num)

    def pow_(self, n: int) -> "RatFuncFq":
        if n < 0:
            return self.inverse().pow_(-n)
        return RatFuncFq(self.num.pow_(n), self.den.pow_(n))

    def __repr__(self):
        return f"RatFuncFq({poly_to_string(self.num)!r}, {poly_to_string(self.den)!r})"


def ratfunc_from_poly(f: PolyFq) -> RatFuncFq:
    return RatFuncFq(f, PolyFq(f.field, (1,)))


def ratfunc_compose_power_plus(x: RatFuncFq, d: int, f: PolyFq) -> RatFuncFq:
    """Evaluate z^d + 1/f at z = x, for f with v(f) < d at every place.

    With x = a/b canonical, z^d + 1/f = (a^d*f + b^d)/(b^d*f).  A prime of b
    divides the numerator v(f) < d*v(b) times, as often as it divides f, and
    a prime of f alone does not divide it; so gcd(f, b^d) is the common
    factor, and one gcd of f against b^d reduces the sum.  validate_phi
    enforces v(f) < d, so every PhiSpec.apply meets the condition.
    """
    if f.is_zero():
        raise ZeroDivisionError("zero divisor")
    bd = x.den.pow_(d)
    g = f.gcd(bd)
    rest = f // g
    num = x.num.pow_(d) * rest + bd // g
    den = bd * rest
    lead = den.coeffs[-1]
    if lead != 1:
        c = f.field.inv(lead)
        num, den = num.scale(c), den.scale(c)
    return RatFuncFq.from_canonical(num, den)


# -- text format -------------------------------------------------------------


def poly_from_string(field: FqField, text: str) -> PolyFq:
    """Parse a polynomial in t with integer coefficients, e.g. 't^3+3' or '2t+1'."""
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise ValueError("empty polynomial string")
    if s[0] not in "+-":
        s = "+" + s
    terms = []
    i = 0
    while i < len(s):
        sign = 1 if s[i] == "+" else -1
        i += 1
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        body = s[i:j]
        if not body:
            raise ValueError(f"malformed polynomial {text!r}")
        terms.append((sign, body))
        i = j

    def number(digits: str) -> int:
        # int() would also take underscores, whitespace and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"malformed polynomial {text!r}")
        return int(digits)

    coeffs: dict[int, int] = {}
    for sign, body in terms:
        if "t" in body:
            head, _, tail = body.partition("t")
            coeff = number(head) if head else 1
            if tail.startswith("^"):
                power = number(tail[1:])
            elif tail == "":
                power = 1
            else:
                raise ValueError(f"malformed polynomial {text!r}")
        else:
            coeff = number(body)
            power = 0
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    size = max(coeffs) + 1 if coeffs else 0
    if size > MAX_TEXT_DEGREE + 1:
        raise ValueError(f"{text!r} names t^{size - 1}; the largest power allowed is t^{MAX_TEXT_DEGREE}")
    out = [0] * size
    for power, c in coeffs.items():
        out[power] = field.from_int(c)
    return PolyFq(field, out)


def poly_to_string(f: PolyFq) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}t^{i}")
    return "+".join(parts)
