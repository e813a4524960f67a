import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightzeta.gf import FqField, PolyFq
from heightzeta.qfuncs import (
    MixedModulusError,
    NumberFieldElem,
    PoleRecord,
    QPoly,
    QRatFunc,
    _euclid_gcd,
    exponent_gcd_normalize,
    has_rational_factor_of_degree,
    laurent_at_pole,
    orbit_contribution,
    poly_str,
    principal_part_remainder,
    qpoly_factor,
    series_coefficients,
    split_principal_parts,
    unit_disk_poles,
    with_laurent,
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
    # 1/((1 - w/2)(1 - 2w)): keep the root 1/2, drop the root 2
    z = R((1,), (1, Fraction(-5, 2), 1))
    recs = unit_disk_poles(z, 5, 2, 1)
    assert len(recs) == 1
    assert poly_str(recs[0].factor, "u") == "2u-1"
    assert recs[0].modulus == pytest.approx(0.5)
    # boundary modulus 1 is retained
    recs = unit_disk_poles(R((1,), (1, 1)), 5, 2, 1)
    assert len(recs) == 1 and recs[0].modulus == pytest.approx(1.0)


def test_mixed_modulus_factor_rejected():
    # w^2 + w - 1 is irreducible with roots 0.618... and -1.618...
    with pytest.raises(MixedModulusError, match="mixed-modulus"):
        unit_disk_poles(R((1,), (-1, 1, 1)), 5, 2, 1)


def test_laurent_toy_cases():
    recs = [with_laurent(TOY, r) for r in unit_disk_poles(TOY, 5, 2, 1)]
    assert recs[0].laurent[0].rep == QPoly((Fraction(4, 5),))
    z = R((1,), (1, -1))
    recs = [with_laurent(z, r) for r in unit_disk_poles(z, 5, 2, 1)]
    assert recs[0].laurent[0].rep == QPoly((1,))


def test_laurent_higher_order_pole():
    z = R((1,), (1, -10, 25))  # 1/(1-5w)^2
    recs = [with_laurent(z, r) for r in unit_disk_poles(z, 5, 2, 1)]
    assert recs[0].order == 2
    assert [c.rep for c in recs[0].laurent] == [QPoly((1,)), QPoly((1,))]
    # predictions (m+1)5^m match the series exactly; remainder vanishes
    series = series_coefficients(z, 8)
    for m in range(9):
        assert orbit_contribution(recs[0], m) == series[m]
    assert principal_part_remainder(z, recs).is_zero()


def test_double_pole_on_quadratic_factor():
    # 1/(1+w+w^2)^2: one irreducible quadratic factor, multiplicity 2,
    # both roots on the unit circle; support gcd is 1 so nothing compresses
    den = QPoly((1, 1, 1)) * QPoly((1, 1, 1))
    z = QRatFunc(QPoly((1, 2)), den)
    e, zt = exponent_gcd_normalize(z)
    assert e == 1
    recs = [with_laurent(zt, r) for r in unit_disk_poles(zt, 5, 2, 1)]
    assert len(recs) == 1 and recs[0].order == 2 and recs[0].factor.degree == 2
    g = principal_part_remainder(zt, recs)
    a = series_coefficients(zt, 30)
    g_series = series_coefficients(g, 30)
    for m in range(31):
        assert a[m] - orbit_contribution(recs[0], m) == g_series[m]


def test_orbit_contribution_examples():
    recs = [with_laurent(TOY, r) for r in unit_disk_poles(TOY, 5, 2, 1)]
    assert orbit_contribution(recs[0], 3) == 100
    # alternating contribution at the axis pole u0 = -1
    factor = QPoly((1, 1))
    rec = PoleRecord(
        factor=factor,
        order=1,
        modulus=1.0,
        alpha_exponent=1,
        numeric_poles=((0.0, 0.0),),
        numeric_roots=(complex(-1),),
        laurent=(NumberFieldElem(factor, QPoly((Fraction(-200, 3),))),),
    )
    assert orbit_contribution(rec, 2) == Fraction(-200, 3)
    assert orbit_contribution(rec, 3) == Fraction(200, 3)
    # trace over Q[u]/(u-1) is the identity
    one = QPoly((-1, 1))
    assert NumberFieldElem(one, QPoly((Fraction(7, 3),))).trace() == Fraction(7, 3)


def test_principal_part_remainder_examples():
    recs = [with_laurent(TOY, r) for r in unit_disk_poles(TOY, 5, 2, 1)]
    g = principal_part_remainder(TOY, recs)
    assert g == R((Fraction(-4, 5), 1))
    z = R((1,), (1, -1))
    recs = [with_laurent(z, r) for r in unit_disk_poles(z, 5, 2, 1)]
    assert principal_part_remainder(z, recs).is_zero()


def test_principal_parts_read_no_laurent_data():
    # partial fractions use only each record's factor and order
    z = R((1, 3), (1, Fraction(-9, 2), Fraction(-5, 2)))  # (1+3w)/((1-5w)(1+w/2))
    recs = unit_disk_poles(z, 5, 2, 1)
    assert len(recs) == 1 and recs[0].laurent == ()
    principal, remainder = split_principal_parts(z, recs)
    assert principal == R((Fraction(16, 11),), (1, -5))
    assert principal + remainder == z


def test_series_splits_into_principal_parts_plus_remainder():
    # denominator with one retained and one discarded factor
    z = R((1, 3), (1, Fraction(-9, 2), Fraction(-5, 2)))  # (1+3w)/((1-5w)(1+w/2))
    recs = [with_laurent(z, r) for r in unit_disk_poles(z, 5, 2, 1)]
    assert len(recs) == 1
    g = principal_part_remainder(z, recs)
    assert g.den.gcd(recs[0].factor).degree == 0
    a = series_coefficients(z, 40)
    g_series = series_coefficients(g, 40)
    for m in range(41):
        p_m = orbit_contribution(recs[0], m)
        assert a[m] - p_m == g_series[m]
        # geometric decay of the differences with ratio 1/2
        assert abs(a[m] - p_m) <= Fraction(8) * Fraction(1, 2) ** m
        assert isinstance(p_m, Fraction)


def test_number_field_arithmetic():
    p = QPoly((1, 0, 5))  # 5u^2 = -1
    u = NumberFieldElem.generator(p)
    assert (u * u).rep == QPoly((Fraction(-1, 5),))
    inv = u.inverse()
    assert (u * inv).rep == QPoly((1,))
    assert u.pow_(-2).rep == QPoly((-5,))
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
