import math
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from heightzeta.asymptotics import build_report, predicted_coefficients, remainder_check
from heightzeta.qfuncs import (
    NumberFieldElem,
    PoleRecord,
    QPoly,
    QRatFunc,
    _cyclotomic,
    _euclid_gcd,
    _roots,
    _totients_up_to,
    exponent_gcd_normalize,
    laurent_at_pole,
    orbit_contribution,
    orbit_contributions,
    poly_str,
    principal_part_remainder,
    qpoly_factor,
    series_coefficients,
    split_principal_parts,
    unit_disk_poles,
)


def R(num, den=(1,)):
    return QRatFunc(QPoly(num), QPoly(den))


TOY = R((0, 5, -5), (1, -5))  # 5w(1-w)/(1-5w)


def test_arithmetic_examples():
    a = R((1,), (1, -1))
    b = R((1,), (1, 1))
    assert a + b == R((2,), (1, 0, -1))
    assert R((1, 0, -1), (1, -1)) == R((1, 1))
    assert R((0, 1), (1, -5)) * QRatFunc.const(5) == R((0, 5), (1, -5))
    with pytest.raises(ZeroDivisionError):
        a / QRatFunc.zero()


def test_series_examples():
    assert series_coefficients(R((1,), (1, -5)), 3) == [1, 5, 25, 125]
    assert series_coefficients(TOY, 3) == [0, 5, 20, 100]
    # 5(1-x)/(1-25x) in x = q^(-s)
    assert series_coefficients(R((5, -5), (1, -25)), 2) == [5, 120, 3000]
    with pytest.raises(ValueError):
        series_coefficients(R((1,), (0, 1)), 2)


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


def sympy_factor(p: QPoly):
    """qpoly_factor's contract, computed by sympy's factor_list."""
    unit, g = p.primitive_integer()
    if g.degree == 0:
        return unit, []
    poly = sympy.Poly([int(c) for c in reversed(g.coeffs)], sympy.Symbol("u"), domain="ZZ")
    content, factors = poly.factor_list()
    unit *= int(content)
    out = []
    for fac, mult in factors:
        qp = QPoly([int(c) for c in reversed(fac.all_coeffs())])
        if qp.leading() < 0:
            qp = -qp
            unit *= (-1) ** mult
        out.append((qp, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return unit, out


def test_qpoly_factor_examples():
    unit, factors = qpoly_factor(QPoly((1, 0, -25)))
    assert unit == Fraction(-1)
    assert [(poly_str(p, "u"), m) for p, m in factors] == [("5u-1", 1), ("5u+1", 1)]

    # expand (1+u)(1-5u)(1+5u^4) and recover the factor list
    prod = QPoly((1, 1)) * QPoly((1, -5)) * QPoly((1, 0, 0, 0, 5))
    unit, factors = qpoly_factor(prod)
    labels = sorted(poly_str(p, "u") for p, m in factors)
    assert labels == ["5u-1", "5u^4+1", "u+1"]
    check = QPoly((unit,))
    for p, m in factors:
        check = check * p.pow_(m)
    assert check == prod

    unit, factors = qpoly_factor(QPoly((1, 0, 0, 0, 5)))
    assert len(factors) == 1 and factors[0][1] == 1
    quartic = factors[0][0]
    assert not has_rational_factor_of_degree(quartic, 1)
    assert not has_rational_factor_of_degree(quartic, 2)


def test_qpoly_factor_round_trip_with_multiplicity():
    p = QPoly((Fraction(1, 3), 1)).pow_(2) * QPoly((2, 0, 7)) * QPoly((Fraction(5),))
    unit, factors = qpoly_factor(p)
    check = QPoly((unit,))
    for f, m in factors:
        check = check * f.pow_(m)
    assert check == p


def test_cyclotomic_polynomials_and_totient_list():
    u = sympy.Symbol("u")
    for n in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, u), u).all_coeffs()
        assert _cyclotomic(n) == tuple(int(c) for c in reversed(expected))
    # phi(n) >= sqrt(n / 2), so every n with phi(n) <= 24 is below 2 * 24^2
    brute = [(n, int(sympy.totient(n))) for n in range(1, 2 * 24**2)]
    assert _totients_up_to(24) == [(n, phi) for n, phi in brute if phi <= 24]


def test_qpoly_factor_recombines_factors_that_split_modulo_every_prime():
    # u^4 - 10u^2 + 1 (minimal polynomial of sqrt(2) + sqrt(3)) is irreducible
    # over Q but splits into factors of degree <= 2 modulo every prime
    sd = QPoly((1, 0, -10, 0, 1))
    p = sd * QPoly((-2, 0, 1)) * QPoly((3, 0, 0, 0, 0, 0, 2)).pow_(2) * QPoly((0, 0, 7))
    assert qpoly_factor(p) == sympy_factor(p)
    assert [(f.degree, m) for f, m in qpoly_factor(p)[1]] == [(1, 2), (2, 1), (4, 1), (6, 2)]


@pytest.mark.parametrize(
    "spec_name", ["inert_spec", "m_anchor_spec", "l_anchor_spec", "xl_anchor_spec", "d32_spec"]
)
def test_qpoly_factor_equals_sympy_on_anchor_denominators(spec_name, request):
    from heightzeta.zeta import assemble_zeta

    den = assemble_zeta(request.getfixturevalue(spec_name)).combined.den
    assert qpoly_factor(den) == sympy_factor(den)


def test_exponent_gcd_normalize():
    # only even powers: e = 2
    z = R((0, 0, 1, 0, -1), (1, 0, -5))  # (w^2 - w^4)/(1 - 5w^2)
    e, zt = exponent_gcd_normalize(z)
    assert e == 2
    assert zt == R((0, 1, -1), (1, -5))
    e, zt = exponent_gcd_normalize(TOY)
    assert e == 1 and zt == TOY
    assert exponent_gcd_normalize(QRatFunc.const(7)) == (1, QRatFunc.const(7))


def test_unit_disk_poles_retention():
    # 1/((1 - w/2)(1 - 2w)): the root 2 lies outside the closed unit disk
    z = R((1,), (1, Fraction(-5, 2), 1))
    with pytest.raises(ValueError, match="factor w-2 has a root outside the closed unit disk"):
        unit_disk_poles(z, 5, 2, 1)
    # boundary modulus 1 is retained
    recs = unit_disk_poles(R((1,), (1, 1)), 5, 2, 1)
    assert len(recs) == 1 and recs[0].modulus == pytest.approx(1.0)


def test_unit_disk_poles_sorted_by_exact_modulus():
    # 1 - 3w, 1 + 3w + 27w^3 and 1 + 81w^4 all have modulus exactly 1/3, so the
    # tie falls to degree, though the float moduli differ in the last bit
    # (1/27)^(1/3) > (1/81)^(1/4); 1 + w (modulus 1) comes last
    den = QPoly((1, 1)) * QPoly((1, 0, 0, 0, 81)) * QPoly((1, 3, 0, 27)) * QPoly((1, -3))
    recs = unit_disk_poles(QRatFunc(QPoly((1,)), den), 3, 2, 1)
    assert [rec.factor.degree for rec in recs] == [1, 3, 4, 1]
    assert recs[1].modulus > recs[2].modulus


def test_mixed_modulus_factor_accepted():
    # w^2 + w - 1 is irreducible with roots 0.618... and -1.618..., and
    # |p(0)| = |lead|: the trace predictions stay exact for any irreducible factor
    report = build_report(R((1,), (-1, 1, 1)), 5, 2)
    (rec,) = report.pole_records
    assert rec.modulus == pytest.approx(1.0)  # the geometric mean of 0.618... and 1.618...
    rc = remainder_check(report, 60)
    assert rc.ok and rc.differences_match_remainder and rc.max_abs_difference == 0
    assert predicted_coefficients(report, 60) == series_coefficients(report.normalized, 60)


def _modulus(coeffs) -> float:
    return float(abs(Fraction(coeffs[0]) / Fraction(coeffs[-1]))) ** (1.0 / (len(coeffs) - 1))


def _assert_roots_on_circle(coeffs):
    """_roots finds deg distinct roots, each on the exact-modulus circle."""
    radius = _modulus(coeffs)
    roots = _roots([Fraction(c) for c in coeffs], radius)
    assert len(roots) == len(coeffs) - 1
    for r in roots:
        assert abs(abs(r) - radius) <= 1e-12 * radius
        value = sum(float(c) * r**i for i, c in enumerate(coeffs))
        size = sum(abs(float(c)) * abs(r) ** i for i, c in enumerate(coeffs))
        assert abs(value) <= 1e-13 * size
    gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    assert min(gaps, default=radius) > 1e-6 * radius


def test_roots_of_cyclotomic_and_anchor_factors(d32_spec):
    for n in range(1, 41):
        _assert_roots_on_circle(_cyclotomic(n))
    _assert_roots_on_circle((-1, 0, 0, 0, 0, 49))  # the L anchor's 49w^5 - 1
    _assert_roots_on_circle((1, 0, 5))  # the S anchor's conjugate pair
    (big,) = [rec.factor for rec in _pole_records(d32_spec) if rec.factor.degree == 64]
    _assert_roots_on_circle(big.coeffs)


def test_laurent_toy_cases():
    recs = unit_disk_poles(TOY, 5, 2, 1)
    assert recs[0].laurent[0].rep == QPoly((Fraction(4, 5),))
    z = R((1,), (1, -1))
    recs = unit_disk_poles(z, 5, 2, 1)
    assert recs[0].laurent[0].rep == QPoly((1,))


def test_laurent_higher_order_pole():
    z = R((1,), (1, -10, 25))  # 1/(1-5w)^2
    recs = unit_disk_poles(z, 5, 2, 1)
    assert recs[0].order == 2
    assert [c.rep for c in recs[0].laurent] == [QPoly((1,)), QPoly((1,))]
    # predictions (m+1)5^m match the series exactly; remainder vanishes
    series = series_coefficients(z, 8)
    for m in range(9):
        assert orbit_contribution(recs[0], m) == series[m]
    assert principal_part_remainder(z, recs).is_zero()


@pytest.mark.parametrize("k", range(1, 6))
def test_laurent_of_power_pole_matches_exponential_series(k):
    # 1/(1-w)^k at w = exp(-tau) is tau^(-k) * (tau/(1-exp(-tau)))^k
    z = QRatFunc(QPoly((1,)), QPoly((1, -1)).pow_(k))
    (rec,) = unit_disk_poles(z, 5, 2, 1)
    assert rec.order == k
    # (1-exp(-tau))/tau to k terms fixes the first k coefficients of its inverse
    unit = QPoly([Fraction((-1) ** j, math.factorial(j + 1)) for j in range(k)])
    expected = series_coefficients(QRatFunc(QPoly((1,)), unit.pow_(k)), k - 1)
    laurent = laurent_at_pole(z, rec.factor, rec.order)
    assert laurent == rec.laurent
    for n in range(1, k + 1):
        assert laurent[n - 1] == NumberFieldElem.rational(rec.factor, expected[k - n])


def test_double_pole_on_quadratic_factor():
    # 1/(1+w+w^2)^2: one irreducible quadratic factor, multiplicity 2,
    # both roots on the unit circle; support gcd is 1 so nothing compresses
    den = QPoly((1, 1, 1)) * QPoly((1, 1, 1))
    z = QRatFunc(QPoly((1, 2)), den)
    e, zt = exponent_gcd_normalize(z)
    assert e == 1
    recs = unit_disk_poles(zt, 5, 2, 1)
    assert len(recs) == 1 and recs[0].order == 2 and recs[0].factor.degree == 2
    g = principal_part_remainder(zt, recs)
    a = series_coefficients(zt, 30)
    g_series = series_coefficients(g, 30)
    for m in range(31):
        assert a[m] - orbit_contribution(recs[0], m) == g_series[m]


def test_orbit_contribution_examples():
    recs = unit_disk_poles(TOY, 5, 2, 1)
    assert orbit_contribution(recs[0], 3) == 100
    # alternating contribution at the axis pole u0 = -1
    factor = QPoly((1, 1))
    rec = PoleRecord(
        factor=factor,
        order=1,
        modulus=1.0,
        numeric_poles=((0.0, 0.0),),
        numeric_roots=(complex(-1),),
        laurent=(NumberFieldElem(factor, QPoly((Fraction(-200, 3),))),),
    )
    assert orbit_contribution(rec, 2) == Fraction(-200, 3)
    assert orbit_contribution(rec, 3) == Fraction(200, 3)
    # trace over Q[u]/(u-1) is the identity
    one = QPoly((-1, 1))
    assert NumberFieldElem(one, QPoly((Fraction(7, 3),))).trace() == Fraction(7, 3)


def reference_orbit_contribution(rec: PoleRecord, m: int) -> Fraction:
    """One m at a time: invert u, raise it to the m-th power, take the trace."""
    p = rec.factor
    acc = NumberFieldElem(p, QPoly(()))
    for n, c in enumerate(rec.laurent, start=1):
        acc = acc + c.scale(Fraction(m ** (n - 1), math.factorial(n - 1)))
    return (NumberFieldElem.generator(p).pow_(-m) * acc).trace()


@lru_cache(maxsize=None)
def _pole_records(spec) -> tuple[PoleRecord, ...]:
    """The spec's pole records with Laurent data (no principal parts)."""
    from heightzeta.zeta import assemble_zeta

    e, zt = exponent_gcd_normalize(assemble_zeta(spec).combined)
    return tuple(unit_disk_poles(zt, spec.q, spec.d, e))


@pytest.mark.parametrize(
    "spec_name", ["inert_spec", "m_anchor_spec", "l_anchor_spec", "xl_anchor_spec", "d32_spec"]
)
def test_stepped_orbit_contributions_equal_the_per_m_reference(spec_name, request):
    records = _pole_records(request.getfixturevalue(spec_name))
    assert records
    for rec in records:
        stepped = orbit_contributions(rec, 60)
        assert stepped == [reference_orbit_contribution(rec, m) for m in range(61)]
        assert orbit_contribution(rec, 17) == stepped[17]


def test_principal_part_remainder_examples():
    recs = unit_disk_poles(TOY, 5, 2, 1)
    g = principal_part_remainder(TOY, recs)
    assert g == R((Fraction(-4, 5), 1))
    z = R((1,), (1, -1))
    recs = unit_disk_poles(z, 5, 2, 1)
    assert principal_part_remainder(z, recs).is_zero()


def test_principal_parts_read_no_laurent_data():
    # partial fractions use only each record's factor and order
    z = R((1, 3), (1, Fraction(-9, 2), Fraction(-5, 2)))  # (1+3w)/((1-5w)(1+w/2))
    (rec,) = unit_disk_poles(R((1,), (1, -5)), 5, 2, 1)
    recs = [PoleRecord(factor=rec.factor, order=rec.order, modulus=rec.modulus,
                       numeric_poles=rec.numeric_poles, numeric_roots=rec.numeric_roots, laurent=())]
    principal, remainder = split_principal_parts(z, recs)
    assert principal == R((Fraction(16, 11),), (1, -5))
    assert principal + remainder == z


def test_series_splits_into_principal_parts_plus_remainder():
    # (1+3w)/((1-5w)(1+w/2)): the root -2 lies outside the closed unit disk
    z = R((1, 3), (1, Fraction(-9, 2), Fraction(-5, 2)))
    with pytest.raises(ValueError, match="outside the closed unit disk"):
        unit_disk_poles(z, 5, 2, 1)


def test_number_field_arithmetic():
    p = QPoly((1, 0, 5))  # 5u^2 = -1
    u = NumberFieldElem.generator(p)
    assert (u * u).rep == QPoly((Fraction(-1, 5),))
    inv = u.inverse()
    assert (u * inv).rep == QPoly((1,))
    assert u.pow_(-2).rep == QPoly((-5,))
    assert u.pow_(0).rep == QPoly((1,))
    assert u.pow_(3).rep == (u * u * u).rep
    assert QPoly((2, 1)).pow_(0) == QPoly((1,))
    assert QPoly((2, 1)).pow_(3) == QPoly((8, 12, 6, 1))
    assert u.trace() == 0
    assert NumberFieldElem.rational(p, Fraction(3, 7)).trace() == Fraction(6, 7)
    with pytest.raises(ZeroDivisionError):
        NumberFieldElem(p, QPoly(())).inverse()


def test_pole_locations_live_in_the_fundamental_strip(matrix_specs, inert_spec, split_spec):
    from heightzeta.zeta import assemble_zeta

    sample = [spec for spec, _, _, _ in matrix_specs[::5]] + [inert_spec, split_spec]
    for spec in sample:
        z = assemble_zeta(spec).combined
        e, zt = exponent_gcd_normalize(z)
        log_alpha = (e / spec.d) * math.log(spec.q)
        for rec in unit_disk_poles(zt, spec.q, spec.d, e):
            for re, im in rec.numeric_poles:
                assert re >= -1e-12
                assert -1e-12 <= im < 2 * math.pi / log_alpha


def test_matrix_denominator_factors_certified_irreducible(matrix_specs, inert_spec, split_spec):
    from heightzeta.zeta import assemble_zeta

    seen = set()
    for spec in [s for s, _, _, _ in matrix_specs] + [inert_spec, split_spec]:
        z = assemble_zeta(spec).combined
        _, factors = qpoly_factor(z.den)
        product = QPoly((qpoly_factor(z.den)[0],))
        for p, mult in factors:
            product = product * p.pow_(mult)
            seen.add(p.coeffs)
        assert product == z.den
    for coeffs in seen:
        p = QPoly(coeffs)
        # proper rational factorizations of degree <= 5 polynomials must
        # contain a part of degree <= 2; the matrix never exceeds degree 5
        assert p.degree <= 5
        for k in range(1, min(2, p.degree // 2) + 1):
            assert not has_rational_factor_of_degree(p, k)


def test_to_integer_pair_normalization():
    assert TOY.to_integer_pair() == ([0, 5, -5], [1, -5])
    z = R((Fraction(1, 3), Fraction(-2, 3)), (Fraction(-1, 2), 1))
    num, den = z.to_integer_pair()
    assert den[0] > 0
    rebuilt = QRatFunc(QPoly(num), QPoly(den))
    assert rebuilt == z
    assert QRatFunc.zero().to_integer_pair() == ([0], [1])


# -- property tests -------------------------------------------------------------

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=7)
nonzero_fracs = fracs.filter(bool)
polys = st.lists(fracs, max_size=6).map(QPoly)


def _polys_of_degree_at_least(n: int):
    """Nonzero polynomials of degree n..5; the leading coefficient is seldom 1."""
    lower = st.lists(fracs, min_size=n, max_size=5)
    return st.builds(lambda cs, lead: QPoly(cs + [lead]), lower, nonzero_fracs)


nonzero_polys = _polys_of_degree_at_least(0)
min_polys = _polys_of_degree_at_least(1)
ratfuncs = st.builds(QRatFunc, polys, nonzero_polys)


def _weil_trinomial(d: int, a: int, q: int) -> QPoly:
    """1 - a w^d + q w^(2d)."""
    return QPoly([1] + [0] * (d - 1) + [-a] + [0] * (d - 1) + [q])


factor_atoms = st.one_of(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4).flatmap(
        lambda cs: st.integers(1, 4).map(lambda lead: QPoly(cs + [lead]))
    ),
    st.integers(1, 40).map(lambda n: QPoly(_cyclotomic(n))),
    st.builds(
        lambda c, k: QPoly([-1] + [0] * (k - 1) + [c]),
        st.sampled_from([-3, 2, 3, 5, 7, 25]),
        st.integers(1, 12),
    ),
    st.builds(_weil_trinomial, st.integers(1, 8), st.integers(-6, 6), st.sampled_from([2, 3, 5, 7])),
)


@settings(max_examples=80)
@given(
    atoms=st.lists(st.tuples(factor_atoms, st.integers(1, 3)), min_size=1, max_size=4),
    w_power=st.integers(0, 2),
    scale=nonzero_fracs,
)
def test_qpoly_factor_equals_sympy_factor_list(atoms, w_power, scale):
    p = QPoly((scale,)) * QPoly.var().pow_(w_power)
    for atom, mult in atoms:
        p = p * atom.pow_(mult)
    unit, factors = qpoly_factor(p)
    assert (unit, factors) == sympy_factor(p)
    product = QPoly((unit,))
    for f, mult in factors:
        product = product * f.pow_(mult)
    assert product == p


def _reduces_to_zero(a: QPoly, b: QPoly) -> bool:
    return (a % b).is_zero()


@settings(max_examples=100)
@given(a=polys, b=polys, c=nonzero_polys)
def test_gcd_is_monic_common_divisor_equal_to_euclid(a, b, c):
    x, y = a * c, b * c
    g = x.gcd(y)
    assert g == _euclid_gcd(x, y)
    if x.is_zero() and y.is_zero():
        assert g.is_zero()
        return
    assert g.leading() == 1
    assert _reduces_to_zero(x, g) and _reduces_to_zero(y, g)
    # the common factor c survives into the gcd
    assert _reduces_to_zero(g, c.monic())


def test_gcd_falls_back_to_euclid_when_the_heuristic_gives_up(monkeypatch):
    import heightzeta.qfuncs as qfuncs

    monkeypatch.setattr(qfuncs, "_heuristic_gcd", lambda a, b: None)
    x = QPoly((1, 1)) * QPoly((Fraction(2, 3), 0, 5))
    y = QPoly((1, 1)) * QPoly((7, 1))
    assert x.gcd(y) == QPoly((1, 1))
    assert QRatFunc(x, y) == R((Fraction(2, 3), 0, 5), (7, 1))


def _is_canonical(r: QRatFunc) -> bool:
    if r.num.is_zero():
        return r.den == QPoly((1,))
    return r.den.leading() == 1 and _euclid_gcd(r.num, r.den) == QPoly((1,))


@settings(max_examples=60)
@given(a=ratfuncs, b=ratfuncs, c=ratfuncs)
def test_qratfunc_ring_laws_and_canonical_form(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    for r in (a, a + b, a * b, a - c, a * (b + c)):
        assert _is_canonical(r)


def _matrix_trace(x: NumberFieldElem) -> Fraction:
    """Trace of multiplication by x on the basis 1, u, ..., u^(n-1) of Q[u]/(p)."""
    p = x.min_poly
    total = Fraction(0)
    for i in range(p.degree):
        column = (x.rep * QPoly.var().pow_(i)) % p
        if i < len(column.coeffs):
            total += column.coeffs[i]
    return total


@settings(max_examples=100)
@given(p=min_polys, a=polys, b=polys, c=fracs)
def test_trace_is_additive_and_equals_the_matrix_trace(p, a, b, c):
    x, y = NumberFieldElem(p, a), NumberFieldElem(p, b)
    assert x.trace() == _matrix_trace(x)
    assert (x + y).trace() == x.trace() + y.trace()
    assert NumberFieldElem.rational(p, c).trace() == p.degree * c


def _is_irreducible(p: QPoly) -> bool:
    _, factors = qpoly_factor(p)
    return len(factors) == 1 and factors[0][1] == 1


@settings(max_examples=30)
@given(
    p=_polys_of_degree_at_least(1).filter(lambda p: p.coeffs[0] != 0).filter(_is_irreducible),
    reps=st.lists(polys, min_size=2, max_size=4),
)
def test_stepped_orbit_contributions_on_random_fields(p, reps):
    rec = PoleRecord(
        factor=p,
        order=len(reps),
        modulus=_modulus(p.coeffs),
        numeric_poles=(),
        numeric_roots=(),
        laurent=tuple(NumberFieldElem(p, rep) for rep in reps),
    )
    stepped = orbit_contributions(rec, 60)
    assert stepped == [reference_orbit_contribution(rec, m) for m in range(61)]
