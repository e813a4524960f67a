"""Brute-force ground truth over F_q(t): enumerate and tabulate heights.

Every x in F_q(t) with max(deg num, deg den) <= n appears exactly once in
canonical form (monic denominator, coprime parts), ordered by denominator
degree, then denominator, then numerator, both lexicographic in ascending
coefficient codes.  The logical enumeration size is q^(2n+1), and a budget
guard refuses runs past 10^8 of these unless overridden.

Two counting strategies produce the same tables and cross-check each other
in the tests:

* ``enumerate``: visit every element once and measure it from the valuation
  definitions; the slow, assumption-free path.  The walk finds each part's
  data once per call rather than once per element: the degree and the
  multiplicity of every bad place in each numerator of degree <= n, and in
  each monic denominator.  An element num/den then has
  v(x) = v(num) - v(den) at each bad place (v(0) = +infinity), which is
  ``places.valuation`` on canonical form.  Coprimality is Euclid's first
  step, gcd(num, den) = gcd(num mod den, den): one gcd per residue class
  mod den, then a lookup of num mod den for each numerator.  It assumes
  nothing about unit counts, the sieve or any numerator tally in closed
  form; it does assume that canonical forms are the coprime pairs with a
  monic denominator, and that the valuation of a product is the sum.
* ``fast`` (default): walk denominators only.  For a fixed monic Q the
  coprime numerators of degree < deg Q are exactly the unit residues mod Q,
  and each residue class contributes (q-1)q^(a-deg Q) numerators of exact
  degree a >= deg Q, so per-denominator tallies need only the unit count of
  F_q[t]/Q and the divisibility of Q by the bad places.  Both come from one
  multiplicative sieve per call over the monic irreducibles of degree <= n
  (Euler's phi for F_q[t]; Rosen, *Number Theory in Function Fields*,
  ch. 1), which finds the irreducibles itself; no factorization, necklace
  formula or zeta identity enters.  This is still counting from first
  principles, place by place.

Both hot loops are digit walks (``_affine_codes``).  A polynomial's code,
its coefficients in base q, is also a base-p number whose digits are the
F_p coordinates of the coefficients, and adding polynomials adds these
digits mod p.  Counting g through all its codes, constant digit fastest,
changes g at each step by the element whose digits are 1 at positions
0..K, K being where the step carries.  So for any F_p-linear map L, L(g)
changes by L of that element, a digit list computed once per walk, and its
code follows digit by digit.  The sieve takes L(g) = pi*g, the multiples of
an irreducible; the enumerate walk takes L(num) = num mod den, the residue
of every numerator.  Neither builds a polynomial per step, and prime and
extension fields share the walk.

Both strategies fill one tally, {(h, mask): #x}: h is the standard height
exponent and bit i of mask is set when v(x) < 0 at bad place i.  An
element's canonical height exponent m = d*h + sum of f_v*v(f) over the bad
places with v(x) >= 0, and its region D_T is the one whose T is the
complement of its mask, so both public counters are projections of the
tally; the strategy only decides how the tally is filled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice, zip_longest

from . import gf
from .gf import FqField, RatFuncFq, all_polys, monic_polys
from .places import PhiSpec

DEFAULT_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class CountTable:
    """Counts per height exponent: m -> #x (canonical q^(m/d) or standard q^m)."""

    q: int
    d: int
    counts: dict[int, int]
    max_m: int

    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, m: int) -> int:
        return self.counts.get(m, 0)


def enumeration_size(q: int, n: int) -> int:
    return q ** (2 * n + 1)


def _check_budget(field: FqField, n: int, override: bool):
    size = enumeration_size(field.q, n)
    if size > DEFAULT_BUDGET and not override:
        raise BudgetExceeded(
            f"enumeration of ~{size} elements (q={field.q}, height exponent {n}) "
            f"exceeds the budget {DEFAULT_BUDGET}; pass override to force"
        )


def max_height_exponent_within_budget(q: int) -> int:
    n = 0
    while enumeration_size(q, n + 1) <= DEFAULT_BUDGET:
        n += 1
    return n


def _ruler(p: int, m: int) -> list[int]:
    """Carry positions of a base-p counter run from 0 to p^m - 1.

    Entry s - 1 is the p-adic valuation of s: the step to s turns the digits
    below that position from p - 1 to 0 and raises the digit there by one.
    """
    seq: list[int] = []
    for k in range(m):
        seq = (seq + [k]) * (p - 1) + seq
    return seq


def _digits(field: FqField, coeffs, size: int) -> list[int]:
    """Base-p digits of a coefficient list padded to ``size`` F_q codes, e digits each.

    Their base-p value is the polynomial's code, and adding two polynomials
    adds their digits mod p, one by one.
    """
    cs = list(coeffs) + [0] * (size - len(coeffs))
    if field.e == 1:
        return cs
    p = field.p
    return [c // p**s % p for c in cs for s in range(field.e)]


def _counter_steps(p: int, images):
    """Per carry position K: the nonzero digits of the image of the counter step.

    A counter step carried through base-p position K = k*e + r adds to the
    counted polynomial the element whose digits are 1 at positions 0..K.
    ``images[K]`` lists the digits of a linear map's image of y^r*t^k (y^r
    is the code p^r), so the step's image is the digitwise sum of images[0..K].
    Each digit i with value w comes as (i, w, w*p^i, (w - p)*p^i): what the
    code gains when the digit does not, or does, wrap past p - 1.
    """
    steps, acc = [], []
    for image in images:
        acc = [(a + b) % p for a, b in zip_longest(acc, image, fillvalue=0)]
        steps.append([(i, w, w * p**i, (w - p) * p**i) for i, w in enumerate(acc) if w])
    return steps


def _affine_codes(p: int, digits: list[int], code: int, steps, carries):
    """Yield ``code``, then the code after adding steps[K] for each K in ``carries``.

    ``digits`` are the base-p digits of ``code`` and change in place; each
    step adds digits mod p and moves the code by each changed digit's gain,
    so no polynomial is built.
    """
    yield code
    for k in carries:
        for i, w, up, down in steps[k]:
            d = digits[i] + w
            if d < p:
                code += up
            else:
                d -= p
                code += down
            digits[i] = d
        yield code


def _walk(field: FqField, n: int, pis):
    """The one element walk: yield (den, b, den_ords, nums) per monic den of degree b <= n.

    ``nums`` lists the numerators coprime to den, each as (num, deg num,
    num_ords) in ascending code order, 0 included (degree -1) only when
    den = 1; the ords are the multiplicities of ``pis`` in the part, with
    +infinity for 0.  So every x with max(deg num, deg den) <= n comes once,
    in canonical form and in the enumeration order.  Each numerator's ords
    are found once per call and each denominator's once.  Coprimality takes
    one gcd per residue class mod den, by gcd(num, den) = gcd(num mod den, den).
    Each numerator is then looked up by the code of num mod den: reduction
    mod den is F_p-linear, so the codes of all q^(n+1) residues, in numerator
    order, come from one counter walk whose steps add the precomputed digits
    of (y^r t^k mod den); no numerator is divided.  The table's first q^b
    entries are the residues of degree < b.
    """
    q, p, e = field.q, field.p, field.e
    table = [(num, num.degree,
              tuple(num.ord_at(pi) for pi in pis) if num.coeffs else (math.inf,) * len(pis))
             for num in all_polys(field, n)]
    carries = _ruler(p, (n + 1) * e)
    for b in range(n + 1):
        for den in monic_polys(field, b):
            den_ords = tuple(den.ord_at(pi) for pi in pis)
            if b == 0:
                yield den, b, den_ords, table
                continue
            units = [r.gcd(den).is_one() for r, _, _ in table[: q**b]]
            images = [_digits(field, (gf.PolyFq(field, (0,) * k + (p**r,)) % den).coeffs, b)
                      for k in range(n + 1) for r in range(e)]
            codes = _affine_codes(p, [0] * (b * e), 0, _counter_steps(p, images), carries)
            yield den, b, den_ords, [entry for entry, code in zip(table, codes) if units[code]]


def enumerate_elements(field: FqField, n: int, override: bool = False):
    """Stream all x with standard height exponent <= n, each exactly once."""
    if n < 0:
        raise ValueError("height exponent bound must be >= 0")
    _check_budget(field, n, override)
    for den, _, _, nums in _walk(field, n, ()):
        for num, _, _ in nums:
            yield RatFuncFq.from_canonical(num, den)


def _sieve(field: FqField, n: int, bad_places):
    """Yield (b, units, masks) per degree b <= n, walking each denominator once.

    ``units[c]`` is #(F_q[t]/Q)^* and ``masks[c]`` has bit i set when bad
    place i divides Q, for the monic Q of degree b with code c: its low
    coefficients in base q, constant fastest, which is the walk order.
    Every entry starts at q^b.  A monic of degree b whose entry still reads
    q^b when b is reached has no irreducible factor of smaller degree, so it
    is an irreducible pi; each multiple pi*g of degree <= n then has its
    entry scaled by (1 - q^-b), exactly, and its mask bit set if pi is bad.
    By the time degree b is yielded its entries are final.

    The multiples pi*g of degree b + j are visited as codes only, in the
    counter order of g: the first is pi*t^j, whose code is pi's times q^j,
    and each counter step of g adds the precomputed digits of pi times that
    step (``_affine_codes``).  No product is multiplied out and no
    polynomial object is built.
    """
    q, p, e = field.q, field.p, field.e
    bits = {bp.pi.coeffs: 1 << i for i, bp in enumerate(bad_places)}
    units = [[q**b] * q**b for b in range(n + 1)]
    masks = [[0] * q**b for b in range(n + 1)]
    carries = _ruler(p, max(n - 1, 0) * e)
    for b in range(n + 1):
        qb = q**b
        row_u, row_m = units[b], masks[b]
        # The walk proper: each denominator of degree b is visited here once.
        found = [c for c, u in enumerate(row_u) if u == qb] if b else []
        for c in found:
            pi = [c // q**i % q for i in range(b)] + [1]
            bit = bits.get(tuple(pi), 0)
            # digits of y^r * pi for the e codes y^r = p^r; over a prime field just pi
            scaled = [_digits(field, [field.mul(p**r, a) for a in pi], b + 1) for r in range(e)]
            low = scaled[0][:-e]  # pi without its leading 1
            steps = _counter_steps(p, [[0] * (k * e) + scaled[r]
                                       for k in range(n - b) for r in range(e)])
            for j in range(n - b + 1):
                row_uj, row_mj = units[b + j], masks[b + j]
                for code in _affine_codes(p, [0] * (j * e) + low, c * q**j, steps,
                                          islice(carries, q**j - 1)):
                    row_uj[code] = row_uj[code] // qb * (qb - 1)
                    if bit:
                        row_mj[code] |= bit
        units[b] = masks[b] = None
        yield b, row_u, row_m


def _degree_class_counts(q: int, b: int, units: int, n: int):
    """Yield (h, count) for coprime numerators by standard height exponent.

    The denominators have degree b and ``units`` unit residues in total;
    h = max(deg num, deg den); counts cover all coprime numerators with
    deg <= n, including x = 0 when the denominator is 1.
    """
    if b == 0:
        yield 0, 1  # x = 0
        for a in range(0, n + 1):
            yield a, (q - 1) * q**a
        return
    yield b, units  # all residues: deg num < b
    for a in range(b, n + 1):
        yield a, units * (q - 1) * q ** (a - b)


def _tally(field: FqField, n: int, bad_places, method: str, override: bool) -> Counter:
    """Count every x with standard height exponent h <= n by (h, mask).

    Bit i of mask is set when v(x) < 0 at bad place i.  ``fast`` sums the
    sieve's unit counts per mask for each denominator degree: a numerator
    coprime to Q has v(x) < 0 exactly at the bad places dividing Q.
    ``enumerate`` measures each element by v(num) - v(den).
    """
    if method not in ("fast", "enumerate"):
        raise ValueError(f"unknown counting method {method!r}")
    _check_budget(field, n, override)
    tally: Counter = Counter()
    if method == "fast":
        for b, units, masks in _sieve(field, n, bad_places):
            sums: dict[int, int] = {}
            for u, mask in zip(units, masks):
                sums[mask] = sums.get(mask, 0) + u
            for mask, u in sums.items():
                for h, c in _degree_class_counts(field.q, b, u, n):
                    tally[h, mask] += c
    else:
        bits = [1 << i for i in range(len(bad_places))]
        for _, b, den_ords, nums in _walk(field, n, [bp.pi for bp in bad_places]):
            tally.update(
                (max(a, b), sum(bit for bit, i, j in zip(bits, num_ords, den_ords) if i < j))
                for _, a, num_ords in nums
            )
    return tally


def count_canonical_heights(
    phi: PhiSpec,
    m_max: int,
    override: bool = False,
    method: str = "fast",
) -> CountTable:
    """Exact counts a_m = #{x : canonical height = q^(m/d)} for m <= m_max.

    Tallies standard height exponents up to floor(m_max/d), which suffices
    because m = d*h + sum of f_v*v(f) over the bad places with v(x) >= 0.
    """
    d = phi.d
    weights = [bp.f_v * bp.vf for bp in phi.bad_places]
    counts: dict[int, int] = {}
    for (h, mask), c in _tally(phi.field, m_max // d, phi.bad_places, method, override).items():
        m = d * h + sum(w for i, w in enumerate(weights) if not mask >> i & 1)
        if m <= m_max:
            counts[m] = counts.get(m, 0) + c
    return CountTable(q=phi.field.q, d=d, counts=counts, max_m=m_max)


def count_region(
    phi: PhiSpec,
    t_set,
    h_max: int,
    override: bool = False,
    method: str = "fast",
) -> CountTable:
    """Standard-height histogram of the region D_T for T a set of bad indices.

    D_T requires v(x) >= 0 at the bad places indexed by T and v(x) < 0 at
    the others: the tally's entries whose mask is the complement of T.
    """
    bad = phi.bad_places
    t_set = frozenset(t_set)
    stray = t_set - frozenset(range(len(bad)))
    if stray:
        raise ValueError(f"bad-place indices {sorted(stray, key=repr)} are not in range({len(bad)})")
    want = sum(1 << i for i in range(len(bad)) if i not in t_set)
    tally = _tally(phi.field, h_max, bad, method, override)
    counts = {h: c for (h, mask), c in tally.items() if mask == want}
    return CountTable(q=phi.field.q, d=phi.d, counts=counts, max_m=h_max)


def cumulative_count(phi: PhiSpec, k: int, override: bool = False, method: str = "fast") -> int:
    """N(B) for B = q^(k/d): number of x with canonical height at most B."""
    if k < 0:
        raise ValueError("bound exponent must be >= 0")
    return count_canonical_heights(phi, k, override=override, method=method).total()
