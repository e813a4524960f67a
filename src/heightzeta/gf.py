"""Exact arithmetic over finite fields F_q and the rational function field F_q(t).

Field elements are encoded as plain ints in ``range(q)``.  For a prime field
the code is the residue itself; for q = p^e the code is the base-p encoding
of the coefficient vector of the residue class modulo the defining modulus,
least significant digit first.  Keeping elements as ints makes polynomial
loops cheap and lets tables drive extension-field arithmetic.

Polynomials are immutable ascending coefficient tuples with no trailing
zeros; the zero polynomial is the empty tuple.  Rational functions are kept
in canonical form: monic denominator, numerator and denominator coprime,
zero represented as 0/1.

Text format for polynomials (shared with the CLI and JSON payloads):
ASCII in the variable ``t``, ``^`` for powers, integer coefficients reduced
mod p, e.g. ``t^3+3``.  Printing uses descending powers with no zero terms.
"""

from __future__ import annotations

import random

_TABLE_LIMIT = 4096  # build full mul/inv tables for extension fields up to this q
# Highest power of t a polynomial string may name.  The parsed coefficient
# list is dense, and factoring a map's f slows steeply with its degree.
MAX_TEXT_DEGREE = 64


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
    is validated here.
    """

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if p**e > 2**20:
            raise ValueError(f"q = {p}^{e} exceeds the supported size 2^20")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = (0, 1) if modulus is None else tuple(c % p for c in modulus)
            self._mul_table = None
            self._inv_table = None
            return
        if modulus is None:
            raise ValueError("an explicit irreducible modulus is required for e > 1")
        mod = tuple(c % p for c in modulus)
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        self.modulus = mod
        if not _modulus_irreducible(p, mod):
            raise ValueError("modulus is reducible over F_p")
        self._mul_table = None
        self._inv_table = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- encoding ----------------------------------------------------------

    def vector(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (length e) of the element code ``a``."""
        p = self.p
        return tuple((a // p**i) % p for i in range(self.e))

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
        p = self.p
        code = 0
        mul = 1
        for _ in range(self.e):
            code += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return code

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        code = 0
        mul = 1
        for _ in range(self.e):
            code += ((-a) % p) * mul
            a //= p
            mul *= p
        return code

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_generic(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero divisor")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow_(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow_(self.inv(a), -n)
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def pth_root(self, a: int) -> int:
        """Inverse of the Frobenius x -> x^p (x -> x^(p^(e-1)))."""
        return self.pow_(a, self.p ** (self.e - 1))

    def _mul_generic(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        va = self.vector(a)
        vb = self.vector(b)
        prod = [0] * (2 * e - 1)
        for i, ca in enumerate(va):
            if ca:
                for j, cb in enumerate(vb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce mod the defining polynomial
        mod = self.modulus
        for k in range(len(prod) - 1, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(e):
                    prod[k - e + i] = (prod[k - e + i] - c * mod[i]) % p
        return self.from_vector(prod[:e])

    def _build_tables(self):
        q = self.q
        table = [[0] * q for _ in range(q)]
        for a in range(q):
            row = table[a]
            for b in range(a, q):
                v = self._mul_generic(a, b)
                row[b] = v
                table[b][a] = v
        self._mul_table = table
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self.pow_(a, q - 2)
        self._inv_table = inv

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
        inv_lead = F.inv(b[-1])
        if len(a) - 1 < db:
            return PolyFq(F, ()), self
        quot = [0] * (len(a) - db)
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
        return divmod(self, other)[1]

    def monic(self) -> "PolyFq":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "PolyFq") -> "PolyFq":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_(self, n: int) -> "PolyFq":
        result = PolyFq(self.field, (1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def powmod(self, n: int, mod: "PolyFq") -> "PolyFq":
        result = PolyFq(self.field, (1,)) % mod
        base = self % mod
        while n:
            if n & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            n >>= 1
        return result

    def eval(self, x: int) -> int:
        F = self.field
        acc = 0
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
        """Multiplicity of the irreducible pi in self (0 for the zero polynomial caller to handle)."""
        if self.is_zero():
            raise ValueError("ord_at undefined for the zero polynomial")
        k = 0
        f = self
        while True:
            q, r = divmod(f, pi)
            if not r.is_zero():
                return k
            f = q
            k += 1

    # -- irreducibility and factorization ------------------------------------

    def is_irreducible(self) -> bool:
        n = self.degree
        if n <= 0:
            return False
        if n == 1:
            return True
        F = self.field
        q = F.q
        f = self.monic()
        t = PolyFq(F, (0, 1))
        # x^(q^n) = x mod f, and no earlier collapse at maximal proper divisors
        h = t
        powers = [t]
        for _ in range(n):
            h = h.powmod(q, f)
            powers.append(h)
        if h != t % f:
            return False
        for ell in _prime_divisors(n):
            g = (powers[n // ell] - t) % f
            if not f.gcd(g).is_one():
                return False
        return True

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
    df = f.derivative()
    if df.is_zero():
        # f = g(t^p); take p-th roots of coefficients
        root_coeffs = [F.pth_root(c) for c in f.coeffs[::p]]
        for g, m in _squarefree_decomposition(PolyFq(F, root_coeffs)):
            result.append((g, m * p))
        return result
    c = f.gcd(df)
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
        # leftover is a p-th power
        root_coeffs = [F.pth_root(cc) for cc in c.coeffs[::p]]
        for g, mm in _squarefree_decomposition(PolyFq(F, root_coeffs)):
            result.append((g, mm * p))
    return result


def _factor_squarefree(f: PolyFq):
    """Irreducible factors of a monic squarefree f (distinct-degree + equal-degree)."""
    F = f.field
    q = F.q
    t = PolyFq(F, (0, 1))
    out = []
    h = t
    k = 0
    rest = f
    while rest.degree > 0:
        k += 1
        if 2 * k > rest.degree:
            out.append(rest)
            break
        h = h.powmod(q, rest)
        g = rest.gcd(h - t)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, k))
            rest = rest // g
            h = h % rest
    return out


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


def monic_polys(field: FqField, degree: int):
    """All monic polynomials of the given degree, lexicographic in ascending coeffs."""
    if degree == 0:
        yield PolyFq(field, (1,))
        return
    q = field.q
    coeffs = [0] * degree + [1]
    total = q**degree
    for idx in range(total):
        rem = idx
        for i in range(degree):
            coeffs[i] = rem % q
            rem //= q
        yield PolyFq(field, tuple(coeffs))


def all_polys(field: FqField, max_degree: int):
    """All polynomials of degree <= max_degree, including 0, lexicographic by code."""
    q = field.q
    total = q ** (max_degree + 1)
    coeffs = [0] * (max_degree + 1)
    for idx in range(total):
        rem = idx
        for i in range(max_degree + 1):
            coeffs[i] = rem % q
            rem //= q
        yield PolyFq(field, tuple(coeffs))


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
    coeffs: dict[int, int] = {}
    for sign, body in terms:
        try:
            if "t" in body:
                head, _, tail = body.partition("t")
                coeff = int(head) if head else 1
                if tail.startswith("^"):
                    power = int(tail[1:])
                elif tail == "":
                    power = 1
                else:
                    raise ValueError
            else:
                coeff = int(body)
                power = 0
        except ValueError:
            raise ValueError(f"malformed polynomial {text!r}") from None
        if power < 0:
            raise ValueError(f"malformed polynomial {text!r}")
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
