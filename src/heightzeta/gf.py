"""Exact arithmetic over finite fields F_q and the rational function field F_q(t).

Field elements are encoded as plain ints in ``range(q)``.  For a prime field
the code is the residue itself; for q = p^e the code is the base-p encoding
of the coefficient vector of the residue class modulo the defining modulus,
least significant digit first.  Keeping elements as ints makes polynomial
loops cheap and lets tables drive extension-field arithmetic.

An extension field builds three lists once, from a primitive element g
(Zech logarithms; Lidl and Niederreiter, *Finite Fields*): ``exp[i]`` is
the code of g^i, ``log[code]`` the discrete log, and ``zech[k]`` the log of
1 + g^k.  Then a*b = exp[log a + log b], 1/a = exp[q-1 - log a],
-a = exp[log a + (q-1)/2] in odd characteristic, and
a + b = exp[log a + zech[log b - log a]], so each operation takes one to
three lookups.  The lists have O(q) entries, which is why extension fields
are admitted only up to ``MAX_EXTENSION_Q``.

Polynomials are immutable ascending coefficient tuples with no trailing
zeros; the zero polynomial is the empty tuple.  Rational functions are kept
in canonical form: monic denominator, numerator and denominator coprime,
zero represented as 0/1.

Text format for polynomials (shared with the CLI and JSON payloads):
ASCII in the variable ``t``, ``^`` for powers, integer coefficients reduced
mod p, e.g. ``t^3+3``.  Printing uses descending powers with no zero terms.
"""

from __future__ import annotations

import operator
import random
from itertools import product

MAX_Q = 2**20  # largest field size FqField accepts
MAX_EXTENSION_Q = 2**16  # largest extension field; each one builds O(q) log tables
# Highest power of t a polynomial string may name.  The parsed coefficient
# list is dense, and factoring a map's f slows steeply with its degree.
MAX_TEXT_DEGREE = 64


def _power(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 by square-and-multiply, with ``one`` and ``mul`` as the monoid."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FqField:
    """The finite field F_q with q = p^e, elements encoded as ints in range(q).

    For e > 1 an irreducible monic modulus over F_p of degree e must be
    supplied (ascending coefficient tuple of ints, length e+1).  There is no
    built-in table of Conway polynomials; callers choose the modulus and it
    is validated here.  A prime field takes none.
    """

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if p**e > MAX_Q:
            raise ValueError(f"q = {p}^{e} exceeds the supported size 2^20")
        if e > 1 and p**e > MAX_EXTENSION_Q:
            raise ValueError(f"q = {p}^{e} exceeds the supported extension-field size 2^16")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.modulus = (0, 1)
            return
        if modulus is None:
            raise ValueError("an explicit irreducible modulus is required for e > 1")
        mod = tuple(c % p for c in modulus)
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        self.modulus = mod
        if not _modulus_irreducible(p, mod):
            raise ValueError("modulus is reducible over F_p")
        self._exp, self._log, self._zech = _log_tables(p, e, mod)

    # -- encoding ----------------------------------------------------------

    def from_vector(self, vec) -> int:
        p = self.p
        code = 0
        for i, c in enumerate(vec):
            code += (c % p) * p**i
        return code

    def from_int(self, c: int) -> int:
        """Embed an integer via the prime subfield."""
        return c % self.p

    def elements(self):
        return range(self.q)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[(log[b] - la) % (self.q - 1)]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero divisor")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_(self.inv(a), -n)
        return _power(a, n, 1, self.mul)

    def pth_root(self, a: int) -> int:
        """Inverse of the Frobenius x -> x^p (x -> x^(p^(e-1)))."""
        return self.pow_(a, self.p ** (self.e - 1))

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.q} = F_{self.p}[y]/{self.modulus}"

    # -- polynomial constructors --------------------------------------------

    def poly(self, coeffs) -> "PolyFq":
        return PolyFq(self, coeffs)

    def poly_one(self) -> "PolyFq":
        return PolyFq(self, (1,))

    def poly_t(self) -> "PolyFq":
        return PolyFq(self, (0, 1))


def _modulus_irreducible(p: int, mod: tuple[int, ...]) -> bool:
    base = FqField(p)
    return PolyFq(base, mod).is_irreducible()


def _log_tables(p: int, e: int, mod: tuple[int, ...]):
    """Antilog, log and Zech-log lists of F_p[y]/(mod) for a primitive element g.

    ``exp[i]`` is the code of g^i for i < 2(q-1), so a sum of two logs indexes
    it directly; ``log[code]`` is the discrete log of a nonzero element; and
    ``zech[k]`` is log(1 + g^k), or -1 where 1 + g^k = 0.  g is the first
    code whose (q-1)/r-th power is not 1 for any prime r dividing q - 1.
    """
    q = p**e
    base = FqField(p)
    modulus = PolyFq(base, mod)
    cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]

    def digits(code, k):
        return [code // p**i % p for i in range(k)]

    for g in range(2, q):
        gen = PolyFq(base, digits(g, e))
        if all(not gen.powmod(n, modulus).is_one() for n in cofactors):
            break
    # v -> v*g is F_p-linear, so with v = lo + y^h*hi the digits of v*g are
    # the digitwise sum mod p of two rows, each looked up from a list of
    # about sqrt(q) rows: one step costs O(e) on ints.
    h = e // 2
    split = p**h

    def row(vec):
        cs = (PolyFq(base, vec) * gen % modulus).coeffs
        return cs + (0,) * (e - len(cs))

    lows = [row(digits(c, h)) for c in range(split)]
    highs = [row([0] * h + digits(c, e - h)) for c in range(q // split)]
    weights = [p**i for i in range(e)]
    exp = [0] * (2 * (q - 1))
    log = [0] * q
    code = 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = code
        log[code] = i
        hi, lo = divmod(code, split)
        code = sum(map(operator.mul, [(a + b) % p for a, b in zip(lows[lo], highs[hi])], weights))
    zech = [0] * (q - 1)
    for k in range(q - 1):
        code = exp[k]
        digit = code % p
        plus_one = code - digit + (digit + 1) % p
        zech[k] = log[plus_one] if plus_one else -1
    return exp, log, zech


def _fp_rem(a: list, b, p: int) -> list:
    """Remainder of the int list ``a`` by ``b`` modulo ``p``: the one F_p division loop.

    Both are ascending and reduced mod p; ``b`` is nonzero with no trailing
    zeros.  A monic ``b`` may be divided modulo any integer p > 1; a leading
    coefficient other than 1 is inverted, which needs p prime.  The division
    runs in place: afterwards ``a[deg b:]`` holds the quotient, reduced mod p.
    Returns the remainder as a new list without trailing zeros.  Coefficients
    are reduced mod p only where one is read.
    """
    db = len(b) - 1
    lead = b[-1]
    inv_lead = 1 if lead == 1 else pow(lead, p - 2, p)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] % p
        if c and inv_lead != 1:
            c = c * inv_lead % p
        a[k] = c
        if c:
            for i in range(db):
                a[k - db + i] -= c * b[i]
    rem = [c % p for c in a[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _fp_divmod(a, b, p: int):
    """(quot, rem) of ``a`` by ``b`` modulo ``p`` as int lists, by ``_fp_rem`` on a copy."""
    a = list(a)
    rem = _fp_rem(a, b, p)
    return a[len(b) - 1:], rem


class PolyFq:
    """Univariate polynomial over F_q: ascending coefficient tuple, no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # degree of the zero polynomial is -1 by convention
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, PolyFq)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other: "PolyFq") -> "PolyFq":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return PolyFq(F, out)

    def __neg__(self) -> "PolyFq":
        F = self.field
        return PolyFq(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other: "PolyFq") -> "PolyFq":
        return self + (-other)

    def __mul__(self, other: "PolyFq") -> "PolyFq":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyFq(F, ())
        if F.e == 1:
            p = F.p
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] = (out[i + j] + ca * cb) % p
            return PolyFq(F, out)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = F.add(out[i + j], F.mul(ca, cb))
        return PolyFq(F, out)

    def scale(self, c: int) -> "PolyFq":
        F = self.field
        return PolyFq(F, [F.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other: "PolyFq"):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return PolyFq(F, ()), self
        if F.e == 1:
            quot, rem = _fp_divmod(a, b, F.p)
            return PolyFq(F, quot), PolyFq(F, rem)
        quot = [0] * (len(a) - db)
        inv_lead = F.inv(b[-1])
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k]
            if c:
                qc = F.mul(c, inv_lead)
                quot[k - db] = qc
                for i in range(db + 1):
                    a[k - db + i] = F.sub(a[k - db + i], F.mul(qc, b[i]))
        return PolyFq(F, quot), PolyFq(F, a)

    def __floordiv__(self, other: "PolyFq") -> "PolyFq":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyFq") -> "PolyFq":
        F = self.field
        if F.e == 1 and other.coeffs:
            return PolyFq(F, _fp_rem(list(self.coeffs), other.coeffs, F.p))
        return divmod(self, other)[1]

    def monic(self) -> "PolyFq":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "PolyFq") -> "PolyFq":
        F = self.field
        if F.e == 1:
            a, b = self.coeffs, other.coeffs
            while b:
                a, b = b, _fp_rem(list(a), b, F.p)
            return PolyFq(F, a).monic()
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_(self, n: int) -> "PolyFq":
        return _power(self, n, PolyFq(self.field, (1,)))

    def powmod(self, n: int, mod: "PolyFq") -> "PolyFq":
        return _power(self % mod, n, PolyFq(self.field, (1,)) % mod, lambda a, b: a * b % mod)

    def eval(self, x: int) -> int:
        F = self.field
        acc = 0
        if F.e == 1:
            p = F.p
            for c in reversed(self.coeffs):
                acc = (acc * x + c) % p
            return acc
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def derivative(self) -> "PolyFq":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            # i enters through the prime subfield
            out.append(F.mul(F.from_int(i), self.coeffs[i]))
        return PolyFq(F, out)

    def ord_at(self, pi: "PolyFq") -> int:
        """Multiplicity of the irreducible pi in self; raises ValueError for the zero polynomial."""
        if self.is_zero():
            raise ValueError("ord_at undefined for the zero polynomial")
        if pi.degree < 1:
            raise ValueError("ord_at needs pi of positive degree")
        k = 0
        if self.field.e == 1:
            p = self.field.p
            f, b = self.coeffs, pi.coeffs
            while True:
                quot, rem = _fp_divmod(f, b, p)
                if rem:
                    return k
                f = quot
                k += 1
        f = self
        while True:
            q, r = divmod(f, pi)
            if not r.is_zero():
                return k
            f = q
            k += 1

    # -- irreducibility and factorization ------------------------------------

    def is_irreducible(self) -> bool:
        if self.degree <= 0:
            return False
        f = self.monic()
        # The first distinct-degree gcd that is not 1 comes at the degree of
        # f's smallest irreducible factor, squarefree or not.
        return next(_distinct_degree(f))[1] == f.degree

    def factor(self):
        """Full factorization: returns (unit, [(monic irreducible, multiplicity), ...]).

        unit * prod(p_i^(m_i)) == self, factors sorted by (degree, coeffs).
        """
        if self.is_zero():
            raise ValueError("cannot factor the zero polynomial")
        F = self.field
        unit = self.coeffs[-1]
        f = self.monic()
        out: dict[PolyFq, int] = {}
        for g, mult in _squarefree_decomposition(f):
            for h in _factor_squarefree(g):
                out[h] = out.get(h, 0) + mult
        factors = sorted(out.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs))
        return unit, factors

    def __repr__(self):
        return f"PolyFq({poly_to_string(self)!r})"


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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
    """Evaluate z^d + 1/f at z = x."""
    if f.is_zero():
        raise ZeroDivisionError("zero divisor")
    return x.pow_(d) + ratfunc_from_poly(f).inverse()


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
