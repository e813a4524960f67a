"""Brute-force ground truth over F_q(t): enumerate and tabulate heights.

Every x in F_q(t) with max(deg num, deg den) <= n appears exactly once in
canonical form (monic denominator, coprime parts), ordered by denominator
degree, then denominator, then numerator, both lexicographic in ascending
coefficient codes.  The logical enumeration size is q^(2n+1), and a budget
guard refuses runs past 10^8 of these unless overridden.

Two counting strategies produce the same tables and cross-check each other
in the tests:

* ``enumerate``: stream every element and measure it directly from the
  valuation definitions; the slow, assumption-free path.
* ``fast`` (default): walk denominators only.  For a fixed monic Q the
  coprime numerators of degree < deg Q are exactly the unit residues mod Q,
  and each residue class contributes (q-1)q^(a-deg Q) numerators of exact
  degree a >= deg Q, so per-denominator tallies need only the unit count of
  F_q[t]/Q and the divisibility of Q by the bad places.  No zeta identity
  enters: this is still counting from first principles, place by place.

Both strategies walk the monic denominators once, serially, in the order
above, and add each denominator's tally into one count dict; the strategy
only decides how a single denominator is tallied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import FqField, PolyFq, RatFuncFq, all_polys, monic_polys
from .places import PhiSpec, canonical_height_exp, standard_height_exp

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


def _denominators(field: FqField, n: int):
    """All monic denominators of degree <= n, by degree, then lexicographic."""
    for b in range(n + 1):
        yield from monic_polys(field, b)


def _check_method(method: str):
    if method not in ("fast", "enumerate"):
        raise ValueError(f"unknown counting method {method!r}")


def _coprime_numerators(field: FqField, den: PolyFq, n: int):
    if den.is_one():
        yield from all_polys(field, n)
        return
    one = field.poly_one()
    for num in all_polys(field, n):
        if num.gcd(den) == one:
            yield num


def enumerate_elements(field: FqField, n: int, override: bool = False):
    """Stream all x with standard height exponent <= n, each exactly once."""
    if n < 0:
        raise ValueError("height exponent bound must be >= 0")
    _check_budget(field, n, override)
    for den in _denominators(field, n):
        for num in _coprime_numerators(field, den, n):
            yield RatFuncFq(num, den)


def _unit_count(den: PolyFq) -> int:
    """#(F_q[t]/den)^* via the factorization of den."""
    q = den.field.q
    if den.is_one():
        return 1
    _, factors = den.factor()
    total = 1
    for pi, mult in factors:
        qpi = q**pi.degree
        total *= qpi**mult - qpi ** (mult - 1)
    return total


def _degree_class_counts(field: FqField, den: PolyFq, n: int):
    """Yield (h, count) for coprime numerators by standard height exponent.

    h = max(deg num, deg den); counts cover all coprime numerators with
    deg <= n, including x = 0 when den = 1.
    """
    q = field.q
    b = den.degree
    if b == 0:
        yield 0, 1  # x = 0
        for a in range(0, n + 1):
            yield a, (q - 1) * q**a
        return
    units = _unit_count(den)
    yield b, units  # all residues: deg num < b
    for a in range(b, n + 1):
        yield a, units * (q - 1) * q ** (a - b)


def count_canonical_heights(
    phi: PhiSpec,
    m_max: int,
    override: bool = False,
    method: str = "fast",
) -> CountTable:
    """Exact counts a_m = #{x : canonical height = q^(m/d)} for m <= m_max.

    Enumeration covers standard height exponents up to floor(m_max/d), which
    suffices because m >= d*h always.
    """
    field = phi.field
    d = phi.d
    n = m_max // d
    _check_budget(field, n, override)
    _check_method(method)
    counts: dict[int, int] = {}
    for den in _denominators(field, n):
        if method == "fast":
            corr = sum(bp.f_v * bp.vf for bp in phi.bad_places if not (den % bp.pi).is_zero())
            tally = ((d * h + corr, c) for h, c in _degree_class_counts(field, den, n))
        else:
            tally = (
                (canonical_height_exp(RatFuncFq(num, den), phi), 1)
                for num in _coprime_numerators(field, den, n)
            )
        for m, c in tally:
            if m <= m_max:
                counts[m] = counts.get(m, 0) + c
    return CountTable(q=field.q, d=d, counts=counts, max_m=m_max)


def count_region(
    phi: PhiSpec,
    t_set,
    h_max: int,
    override: bool = False,
    method: str = "fast",
) -> CountTable:
    """Standard-height histogram of the region D_T for T a set of bad indices.

    D_T requires v(x) >= 0 at the bad places indexed by T and v(x) < 0 at
    the others; membership depends only on which bad places divide the
    denominator.
    """
    field = phi.field
    _check_budget(field, h_max, override)
    _check_method(method)
    bad = phi.bad_places
    want = frozenset(range(len(bad))) - frozenset(t_set)
    counts: dict[int, int] = {}
    for den in _denominators(field, h_max):
        if frozenset(i for i, bp in enumerate(bad) if (den % bp.pi).is_zero()) != want:
            continue
        if method == "fast":
            tally = _degree_class_counts(field, den, h_max)
        else:
            tally = (
                (standard_height_exp(RatFuncFq(num, den)), 1)
                for num in _coprime_numerators(field, den, h_max)
            )
        for h, c in tally:
            counts[h] = counts.get(h, 0) + c
    return CountTable(q=field.q, d=phi.d, counts=counts, max_m=h_max)


def cumulative_count(phi: PhiSpec, k: int, override: bool = False, method: str = "fast") -> int:
    """N(B) for B = q^(k/d): number of x with canonical height at most B."""
    if k < 0:
        raise ValueError("bound exponent must be >= 0")
    table = count_canonical_heights(phi, k, override=override, method=method)
    return sum(v for m, v in table.counts.items() if m <= k)
