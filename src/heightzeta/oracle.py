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
  multiplicity of every bad place in each polynomial of degree <= n, which
  serves numerators and monic denominators alike.  An element num/den then
  has v(x) = v(num) - v(den) at each bad place (v(0) = +infinity), which is
  ``places.valuation`` on canonical form.  Coprimality is Euclid's first
  step, gcd(num, den) = gcd(num mod den, den): each denominator gets a
  table of its unit residues, and each numerator is looked up there by
  num mod den.  The table takes no gcd either: a residue c*m, m monic, is a
  unit exactly when den mod m is a unit mod m, which m's table, built at
  the lower degree deg m, answers.  It assumes nothing about unit counts,
  the sieve or any numerator tally in closed form; it does assume that
  canonical forms are the coprime pairs with a monic denominator, and that
  the valuation of a product is the sum.
* ``fast`` (default): walk denominators only.  For a fixed monic Q the
  coprime numerators of degree < deg Q are exactly the unit residues mod Q,
  and each residue class contributes (q-1)q^(a-deg Q) numerators of exact
  degree a >= deg Q, so the tally needs, per degree and per set of bad
  places dividing Q, only the sum of the unit counts of F_q[t]/Q.  One
  multiplicative sieve per call over the monic irreducibles (Euler's phi
  for F_q[t]; Rosen, *Number Theory in Function Fields*, ch. 1), which
  finds the irreducibles itself, gives each degree's row of unit counts,
  and only their row sums are kept.  The split of a row sum by bad
  divisors comes from lower degrees by a recursion over the bad places
  (``_unit_sums``), which uses the same multiplicativity: no denominator
  is tested for a bad divisor.  The counts by height follow from those
  sums by one recurrence per set of bad divisors (``_tally``), one step
  per height, with no case for the denominator 1: its one residue, 0, is a
  unit mod 1, and it is x = 0.  The sieve runs only as deep as the request
  reads: a denominator with bad divisors M has degree >= deg P_M, P_M the
  product of M's places, and ``count_canonical_heights`` reads M only up
  to the height h_M at which m stays <= m_max, so the sieve stops at the
  largest h_M - deg P_M; at m_max = d*n with any bad place that is below
  n.  No factorization, necklace formula or zeta identity enters.  This is
  still counting from first principles, place by place.

Both hot loops are digit walks (``_affine_codes``).  A polynomial's code,
its coefficients in base q, is also a base-p number whose digits are the
F_p coordinates of the coefficients, and adding polynomials adds these
digits mod p.  Counting g through all its codes, constant digit fastest,
changes g at each step by the element whose digits are 1 at positions
0..K, K being where the step carries.  So for any F_p-linear map L, L(g)
changes by L of that element, computed once per walk from the codes of
L(y^r*t^k) (``_counter_steps``); every step image is a code from the start.
In characteristic 2 (F_2, F_4, F_8, ...) a digit is a bit and adding digits
is XOR, so that element is one int and a step is one ``code ^= step``.  For
odd p no int operation adds base-p digits, and the code follows digit by
digit; digits are read only for this odd-p stepper, each image's once.  The
sieve takes L(g) = pi*g, the proper multiples of an irreducible pi: it sets
pi's own entry where it finds pi, and never walks an irreducible of its top
degree, which has no multiple left to visit.  The enumerate walk takes
L(g) = g mod den, the residue of every numerator (and of every larger
denominator, for the unit tables).  Below deg den reduction is the
identity, so a residue walk steps once per block of up to
``RESIDUE_BLOCK`` codes and fills the block at C speed.  Neither builds a
polynomial per step, and prime and extension fields share the walk.

Both strategies fill one tally, {(h, mask): #x}: h is the standard height
exponent and bit i of mask is set when v(x) < 0 at bad place i.  An
element's canonical height exponent m = d*h + sum of f_v*v(f) over the bad
places with v(x) >= 0, and its region D_T is the one whose T is the
complement of its mask, so the public counters are projections of the
tally (``count_regions`` gives every region from one); the strategy only
decides how the tally is filled, and ``fast`` fills each mask only up to
the height its caller reads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, not_, xor

from . import gf
from .fqt import RatFuncFq, all_polys, monic_polys
from .gf import FqField
from .places import PhiSpec

DEFAULT_BUDGET = 10**8
RESIDUE_BLOCK = 64  # most residues a walk step of ``_residue_codes`` covers
COLUMN_BYTES = 2**20  # most coprimality flags ``_unit_tables`` holds at once


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class CountTable:
    """Counts per height exponent: m -> #x (canonical q^(m/d) or standard q^m), m <= max_m."""

    q: int
    d: int
    counts: dict[int, int]
    max_m: int

    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, m: int) -> int:
        if not 0 <= m <= self.max_m:
            raise IndexError(f"m = {m} was not tabulated: the table covers 0..max_m = {self.max_m}")
        return self.counts.get(m, 0)


def enumeration_size(q: int, n: int) -> int:
    return q ** (2 * n + 1)


def _check_budget(field: FqField, n: int, override: bool = False):
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


def _counter_steps(p: int, images):
    """Per carry position K: the image of the counter step, ready for ``_affine_codes``.

    A counter step carried through base-p position K = k*e + r adds to the
    counted polynomial the element whose digits are 1 at positions 0..K.
    ``images[K]`` is the code of a linear map's image of y^r*t^k (y^r is the
    code p^r), so the step's image is the digitwise sum of images[0..K].
    For p = 2 that sum is the XOR of the codes, one int per K, and no digit
    is read.  For odd p each code's digits are read once, and each digit i
    of the sum with value w comes as (i, w, w*p^i, (w - p)*p^i): what the
    code gains when the digit does not, or does, wrap past p - 1.
    """
    if p == 2:
        return list(accumulate(images, xor))
    steps, acc = [], []
    for image in images:
        i = 0
        while image:
            image, w = divmod(image, p)
            if i == len(acc):
                acc.append(0)
            acc[i] = (acc[i] + w) % p
            i += 1
        steps.append([(i, w, w * p**i, (w - p) * p**i) for i, w in enumerate(acc) if w])
    return steps


def _affine_codes(p: int, digits: list[int], code: int, steps, carries):
    """Iterate ``code``, then the code after adding steps[K] for each K in ``carries``.

    For p = 2 adding is XOR, and each step is one ``code ^= steps[K]``, at
    C speed.  For odd p no int operation adds base-p digits: ``digits``, the
    base-p digits of ``code``, change in place, and each step adds digits
    mod p and moves the code by each changed digit's gain.  No polynomial is
    built.
    """
    if p == 2:
        return accumulate(map(steps.__getitem__, carries), xor, initial=code)
    return _digit_codes(p, digits, code, steps, carries)


def _digit_codes(p: int, digits: list[int], code: int, steps, carries):
    """``_affine_codes`` for odd p, one changed digit at a time."""
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


def _code(field: FqField, f) -> int:
    """A polynomial's code: its coefficient codes as base-q digits, constant first."""
    q = field.q
    return sum(c * q**i for i, c in enumerate(f.coeffs))


@lru_cache(maxsize=None)
def _translations(p: int, j: int) -> tuple[tuple[int, ...], ...]:
    """``trans[s][x]`` is the code of x + s, added digitwise mod p, for codes s, x < p^j."""
    trans = ((0,),)
    for i in range(j):
        w = p**i
        trans = tuple(tuple(v + w * ((a + b) % p) for a in range(p) for v in row)
                      for b in range(p) for row in trans)
    return trans


def _residue_codes(field: FqField, mod, start, size: int):
    """Codes of (start + g) mod ``mod`` for g through the polynomials of degree < size.

    g runs in code order.  Reduction mod ``mod`` is F_p-linear, so the codes
    come from a counter walk (``_affine_codes``) whose steps add the
    precomputed codes of y^r t^k mod ``mod``; nothing is divided per step.
    The walk steps only through g's base-p digits from position j on: the
    j lowest are below deg ``mod``, where reduction is the identity, so the
    p^j codes under each step are that step's code with its low j digits
    translated by every g_low (``_translations``), at C speed.
    """
    p, e, q, b = field.p, field.e, field.q, mod.degree
    if b == 0:
        return repeat(0, q**size)  # mod 1 every residue is 0
    # y^r t^k is its own residue below deg mod, with code p^r q^k
    images = [p**r * q**k if k < b else _code(field, gf.PolyFq(field, (0,) * k + (p**r,)) % mod)
              for k in range(size) for r in range(e)]
    j = 0
    while j < min(b, size) * e and p ** (j + 1) <= RESIDUE_BLOCK:
        j += 1
    low, trans = p**j, _translations(p, j)
    rem = _code(field, start % mod)
    codes = _affine_codes(p, gf._digits(p, rem, b * e), rem,
                          _counter_steps(p, images[j:]), _ruler(p, size * e - j))
    return chain.from_iterable(map(add, trans[c % low], repeat(c - c % low)) for c in codes)


def _monic_ranks(field: FqField, n: int) -> list[int]:
    """Per residue code r < q^n: 0 for r = 0, else 1 + the rank of monic(r).

    Monics are ranked by degree, then code, so 1 has rank 0.  Each monic m
    gives its rank to all its scalings c*m, c != 0.
    """
    q = field.q
    ranks = [0] * q**n
    rank = 0
    for k in range(n):
        for m in monic_polys(field, k):
            rank += 1
            for c in range(1, q):
                ranks[_code(field, m.scale(c))] = rank
    return ranks


def _unit_tables(field: FqField, n: int):
    """Yield (den, units) per monic den of degree b <= n, in walk order.

    ``units[r]`` is 1 when the residue with code r < q^b is a unit mod den,
    that is coprime to den, else 0; the zero residue is a unit only mod 1.
    No gcd is taken: a nonzero residue r = c*m, m monic, is a unit exactly
    when m is coprime to den, so when den mod m is a unit mod m (Euclid's
    first step), and m's own table, yielded at the lower degree deg m, says
    so.  Per degree b, one residue walk per monic m of degree < b reads m's
    table at den mod m for a run of consecutive dens of degree b, as many as
    ``COLUMN_BYTES`` allows for all m together; each den's answers then
    spread over the residues c*m through ``_monic_ranks``.  Tables are kept,
    one byte per residue, only for the monic m of degree < n, which later
    denominators ask about.
    """
    q = field.q
    ranks = _monic_ranks(field, n)
    kept = [(field.poly_one(), b"\1")]  # (m, units of m), monic m in rank order
    yield kept[0]
    for b in range(1, n + 1):
        lower, ranks_b, dens = kept[:], ranks[: q**b], monic_polys(field, b)
        k = b  # a run is the q^k dens t^b + high*t^k + g, g of degree < k
        while k and len(lower) * q**k > COLUMN_BYTES:
            k -= 1
        for high in range(q ** (b - k)):
            start = gf.PolyFq(field, [0] * k + gf._digits(q, high, b - k) + [1])
            # cols[i][j] is 1 when the i-th m is coprime to the j-th den of the run
            cols = [bytes(map(units.__getitem__, _residue_codes(field, m, start, k)))
                    for m, units in lower]
            for den, row in zip(islice(dens, q**k), zip(*cols)):
                flags = b"\0" + bytes(row)
                units = bytes(map(flags.__getitem__, ranks_b))
                if b < n:
                    kept.append((den, units))
                yield den, units


def _valuations(field: FqField, n: int, pi) -> list:
    """v_pi(num) for every numerator of degree <= n in code order, +infinity for 0.

    v_pi(num) counts the powers pi^k dividing num, and pi^k | num exactly
    when num mod pi^k has code 0 (``_residue_codes``).
    """
    zero = gf.PolyFq(field, ())
    ords = [0] * field.q ** (n + 1)
    power = pi
    while power.degree <= n:
        ords = list(map(add, ords, map(not_, _residue_codes(field, power, zero, n + 1))))
        power = power * pi
    ords[0] = math.inf
    return ords


def _walk(field: FqField, n: int):
    """The one element walk: yield (den, selector) per monic den of degree <= n.

    ``selector`` runs over the numerators of degree <= n in code order, 0
    included, and is true exactly at those coprime to den.  So every x with
    max(deg num, deg den) <= n comes once, in canonical form and in the
    enumeration order.  A numerator is coprime to den exactly when num mod
    den is a unit mod den (Euclid's first step), so the selector reads den's
    unit table (``_unit_tables``) at the codes of num mod den
    (``_residue_codes``); no numerator is divided and no gcd is taken.
    """
    zero = gf.PolyFq(field, ())
    for den, units in _unit_tables(field, n):
        yield den, map(units.__getitem__, _residue_codes(field, den, zero, n + 1))


def enumerate_elements(field: FqField, n: int):
    """Stream all x with standard height exponent <= n, each exactly once."""
    if n < 0:
        raise ValueError("height exponent bound must be >= 0")
    _check_budget(field, n)
    nums = list(all_polys(field, n))
    for den, selector in _walk(field, n):
        for num in compress(nums, selector):
            yield RatFuncFq.from_canonical(num, den)


def _sieve(field: FqField, n: int):
    """Yield (b, units) per degree b <= n, walking each denominator once.

    ``units[c]`` is #(F_q[t]/Q)^* for the monic Q of degree b with code c:
    its low coefficients in base q, constant fastest, which is the walk
    order.  Every entry starts at q^b.  A monic of degree b whose entry
    still reads q^b when b is reached has no irreducible factor of smaller
    degree, so it is an irreducible pi.  Its own entry becomes q^b - 1 in
    the pass that finds it; each proper multiple pi*g of degree <= n then
    has its entry scaled by (1 - q^-b), exactly.  An irreducible of degree n
    has no such multiple, so it is never walked.  By the time degree b is
    yielded its entries are final.

    The multiples pi*g of degree b + j, j >= 1, are visited as codes only, in
    the counter order of g: the first is pi*t^j, whose code is pi's times q^j,
    and each counter step of g adds pi times that step, precomputed from the
    codes of y^r*pi*t^k (``_counter_steps``, ``_affine_codes``).  No product
    is multiplied out and no polynomial object is built.
    """
    q, p, e = field.q, field.p, field.e
    units = [[q**b] * q**b for b in range(n + 1)]
    carries = _ruler(p, max(n - 1, 0) * e)
    for b in range(n + 1):
        qb = q**b
        row = units[b]
        # The walk proper: each denominator of degree b is visited here once.
        found = [c for c, u in enumerate(row) if u == qb] if b else []
        for c in found:
            row[c] = qb - 1
            if b == n:
                continue  # no multiple of higher degree to visit
            # codes of y^r * pi for the e codes y^r = p^r; over a prime field just pi's
            scaled = [qb + c] if e == 1 else [sum(field.mul(p**r, (qb + c) // q**i % q) * q**i
                                                  for i in range(b + 1)) for r in range(e)]
            steps = _counter_steps(p, [s * q**k for k in range(n - b) for s in scaled])
            low = gf._digits(p, c, b * e)  # the digits of pi without its leading 1
            for j in range(1, n - b + 1):
                row_j = units[b + j]
                for code in _affine_codes(p, [0] * (j * e) + low, c * q**j, steps,
                                          islice(carries, q**j - 1)):
                    row_j[code] = row_j[code] // qb * (qb - 1)
        units[b] = None
        yield b, row


def _unit_sums(field: FqField, n: int, bad_places, top):
    """Split each degree's total unit count by bad divisors: {M: (deg P_M, sums)}.

    M is a set of bad places as a mask (bit i for place i) and P_M the
    product of its places.  Write S_b(M) for #(F_q[t]/Q)^* summed over the
    monic Q of degree b whose bad divisors are exactly M; it vanishes below
    b = deg P_M, and ``sums[e]`` is S_b(M) at b = deg P_M + e.  ``top(M)``
    is the highest b the caller reads for M, and the sets M with
    deg P_M > n are left out, as nothing of degree <= n is divisible by P_M.

    No denominator is looked at: the sieve's rows give T_b, the sum over
    all Q of degree b, and the rest follows by recursion.  For M nonempty
    with lowest place pi_i, of degree f_i, such a Q is pi_i times a Q' of
    degree b - f_i whose bad divisors are M or M - {i}, and #(F_q[t]/Q)^*
    is q^f_i or q^f_i - 1 times #(F_q[t]/Q')^* (the unit count is
    multiplicative), so

        S_b(M) = q^f_i*S_{b-f_i}(M) + (q^f_i - 1)*S_{b-f_i}(M - {i}),

    and S_b({}) = T_b minus the sum over M nonempty.  Unrolled, S_b(M) reads
    T only up to degree b - deg P_M, so the sieve is run only as deep as
    the largest top(M) - deg P_M.  The sets M are built up from the highest
    place down, each after M - {i}, so no pattern of total degree above n
    is ever visited, however many bad places there are.
    """
    q = field.q
    # (M, deg P_M, M - {i}, f_i, q^f_i), i the lowest place of M
    sets = [(0, 0, 0, 0, 1)]
    for i in reversed(range(len(bad_places))):
        f = bad_places[i].f_v
        sets += [(mask | 1 << i, deg + f, mask, f, q**f) for mask, deg, *_ in sets if deg + f <= n]
    sums = {mask: [] for mask, *_ in sets}
    empty = sums[0]
    for e, units in _sieve(field, max(top(mask) - deg for mask, deg, *_ in sets)):
        empty.append(sum(units) - sum(sums[mask][e - deg]
                                      for mask, deg, *_ in sets[1:] if deg <= e))
        for mask, deg, rest, f, qf in sets[1:]:
            row = sums[mask]
            row.append((qf * row[e - f] if e >= f else 0) + (qf - 1) * sums[rest][e])
    return {mask: (deg, sums[mask]) for mask, deg, *_ in sets}


def _tally(field: FqField, n: int, bad_places, top, method: str, override: bool = False) -> Counter:
    """Count every x with standard height exponent h <= n by (h, mask).

    Bit i of mask is set when v(x) < 0 at bad place i.  ``top(mask)`` <= n
    is the highest h the caller reads with that mask: ``fast`` tallies no h
    above it, ``enumerate`` tallies every h <= n.  ``fast`` takes the unit
    counts per denominator degree and exact set of bad divisors from
    ``_unit_sums``: a numerator coprime to Q has v(x) < 0 exactly at the
    bad places dividing Q.  With S_h the unit sum at degree h and mask M,
    height h holds q*S_h elements over the denominators of degree h (each
    unit residue, and q - 1 numerators of degree h per residue) and
    (q-1)*R_h over those of lower degree b, where R_h is the sum of
    S_b*q^(h-b) over b < h: R is 0 at h = deg P_M and steps as
    R_(h+1) = q*(R_h + S_h).  ``enumerate`` sorts the parts of
    degree <= n into classes (degree, v at each bad place), counts the
    coprime pairs per numerator and denominator class, and measures each
    pair of classes by v(num) - v(den).
    """
    if method not in ("fast", "enumerate"):
        raise ValueError(f"unknown counting method {method!r}")
    if n < 0:
        raise ValueError("bound exponent must be >= 0")
    _check_budget(field, n, override)
    q = field.q
    tally: Counter = Counter()
    if method == "fast":
        for mask, (deg, sums) in _unit_sums(field, n, bad_places, top).items():
            r = 0  # R_h: the sum of S_b(M)*q^(h-b) over deg P_M <= b < h
            for h, s in zip(range(deg, top(mask) + 1), sums):
                tally[h, mask] = q * s + (q - 1) * r
                r = q * (r + s)
    else:
        bits = [1 << i for i in range(len(bad_places))]
        # one class per (deg, v at each bad place) of the parts of degree <= n, in code order
        degrees = [-1] + [a for a in range(n + 1) for _ in range((q - 1) * q**a)]
        classes: dict = {}
        class_ids = [classes.setdefault(key, len(classes)) for key in
                     zip(degrees, *(_valuations(field, n, bp.pi) for bp in bad_places))]
        keys = list(classes)
        # per denominator class: how many coprime numerators fall in each class
        pairs: dict[int, Counter] = {}
        for den, selector in _walk(field, n):
            pairs.setdefault(class_ids[_code(field, den)], Counter()).update(
                compress(class_ids, selector))
        for j, counter in pairs.items():
            b, *den_ords = keys[j]
            for i, c in counter.items():
                a, *num_ords = keys[i]
                mask = sum(bit for bit, u, v in zip(bits, num_ords, den_ords) if u < v)
                tally[max(a, b), mask] += c
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
    With mask M (the bad places where v(x) < 0) the tally is read only up
    to h_M = floor((m_max - the weights off M)/d), and ``fast`` sieves no
    deeper than those reads need.
    """
    d = phi.d
    weights = [bp.f_v * bp.vf for bp in phi.bad_places]

    def shift(mask):  # m - d*h: the weights of the bad places where v(x) >= 0
        return sum(w for i, w in enumerate(weights) if not mask >> i & 1)

    counts: dict[int, int] = {}
    for (h, mask), c in _tally(phi.field, m_max // d, phi.bad_places,
                               lambda mask: (m_max - shift(mask)) // d, method, override).items():
        m = d * h + shift(mask)
        if m <= m_max:
            counts[m] = counts.get(m, 0) + c
    return CountTable(q=phi.field.q, d=d, counts=counts, max_m=m_max)


def count_regions(phi: PhiSpec, h_max: int, method: str = "fast") -> dict[frozenset, CountTable]:
    """Standard-height histograms of the regions D_T from one tally: T -> table.

    D_T requires v(x) >= 0 at the bad places indexed by T and v(x) < 0 at
    the others: the tally's entries whose mask is the complement of T.  Only
    the regions with a point of height exponent <= ``h_max`` have an entry;
    every other region's table is empty.
    """
    k = len(phi.bad_places)
    counts: dict[int, dict[int, int]] = {}
    tally = _tally(phi.field, h_max, phi.bad_places, lambda mask: h_max, method)
    for (h, mask), c in tally.items():
        counts.setdefault(mask, {})[h] = c
    return {frozenset(i for i in range(k) if not mask >> i & 1):
            CountTable(q=phi.field.q, d=phi.d, counts=cs, max_m=h_max)
            for mask, cs in counts.items()}


def count_region(phi: PhiSpec, t_set, h_max: int, method: str = "fast") -> CountTable:
    """Standard-height histogram of D_T, T a set of bad indices: one ``count_regions`` table."""
    k = len(phi.bad_places)
    t_set = frozenset(t_set)
    stray = t_set - frozenset(range(k))
    if stray:
        raise ValueError(f"bad-place indices {sorted(stray, key=repr)} are not in range({k})")
    empty = CountTable(q=phi.field.q, d=phi.d, counts={}, max_m=h_max)
    return count_regions(phi, h_max, method).get(t_set, empty)


def cumulative_count(phi: PhiSpec, k: int) -> int:
    """N(B) for B = q^(k/d): number of x with canonical height at most B."""
    return count_canonical_heights(phi, k).total()
