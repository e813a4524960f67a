from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightzeta.asymptotics import (
    bernoulli,
    build_report,
    lemma51_check,
    main_term,
    main_terms,
    predicted_coefficient,
    predicted_coefficients,
    remainder_check,
    stirling2,
    stirling_pochhammer_check,
)
from heightzeta.gf import FqField
from heightzeta.places import BadPlace
from heightzeta.qfuncs import QPoly, QRatFunc, series_coefficients
from heightzeta.zfactor import qpoly_factor
from heightzeta.zeta import ProblemSpec, assemble_zeta, from_poly

F5 = FqField(5)


def R(num, den=(1,)):
    return QRatFunc(QPoly(num), QPoly(den))


def test_stirling_examples():
    assert stirling2(4, 2) == 7
    for n in range(11):
        assert stirling2(n, n) == 1
    for n in range(1, 11):
        assert stirling2(n, 0) == 0
    with pytest.raises(ValueError):
        stirling2(65, 1)
    with pytest.raises(ValueError):
        stirling2(3, 4)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    for n in range(3, 20, 2):
        assert bernoulli(n) == 0


def test_bernoulli_recurrence():
    # sum_(k<=n) C(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 20):
        total = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_lemma51(n):
    assert lemma51_check(n, 20)


@pytest.mark.parametrize("n", range(1, 11))
def test_stirling_pochhammer(n):
    assert stirling_pochhammer_check(n, 20)


@pytest.fixture(scope="module")
def toy_report():
    spec = from_poly(F5, F5.poly_t(), 2)
    return build_report(assemble_zeta(spec).combined, 5, 2)


def test_predicted_coefficients_toy(toy_report):
    # single simple pole with c_1 = 4/5: p_m = 4 * 5^(m-1)
    for m in range(8):
        assert predicted_coefficient(toy_report, m) == Fraction(4, 5) * 5**m


def test_main_term_toy(toy_report):
    assert main_term(toy_report, 0) == Fraction(4, 5)
    # B = 125: sum of 4*5^(m-1) for m = 0..6
    assert main_term(toy_report, 6) == Fraction(5**7 - 1, 5)
    with pytest.raises(ValueError):
        main_term(toy_report, -1)


def test_remainder_toy(toy_report):
    rc = remainder_check(toy_report, 40)
    assert rc.ok and rc.differences_match_remainder
    assert toy_report.remainder == R((Fraction(-4, 5), 1))
    diffs = [
        series_coefficients(toy_report.normalized, 3)[m]
        - predicted_coefficient(toy_report, m)
        for m in range(4)
    ]
    assert diffs == [Fraction(-4, 5), 1, 0, 0]


def test_remainder_trivial():
    report = build_report(R((1,), (1, -1)), 5, 2)
    rc = remainder_check(report, 20)
    assert rc.ok and rc.max_abs_difference == 0


def test_report_normalization_even_support(inert_spec=None):
    from heightzeta.places import BadPlace
    from heightzeta.zeta import ProblemSpec

    spec = ProblemSpec(
        q=5, genus=1, d=2, bad_places=(BadPlace(f_v=2, vf=1),), frobenius_trace=0
    )
    report = build_report(assemble_zeta(spec).combined, 5, 2)
    assert report.alpha_exponent == 2  # alpha = 5


def test_higher_order_pole_report():
    z = R((1,), (1, -10, 25))  # 1/(1-5w)^2
    report = build_report(z, 5, 2)
    assert report.pole_records[0].order == 2
    series = series_coefficients(z, 10)
    for m in range(11):
        assert predicted_coefficient(report, m) == series[m]
    assert remainder_check(report, 30).ok


def test_build_report_refuses_root_outside_unit_disk():
    # (1+3w)/((1-5w)(1+w/2)): the factor 1 + w/2 has its root -2 outside the closed unit disk
    z = R((1, 3), (1, Fraction(-9, 2), Fraction(-5, 2)))
    with pytest.raises(ValueError, match="outside the closed unit disk"):
        build_report(z, 5, 2)


def test_in_family_double_pole_validated_by_oracle():
    # three equal linear bad places leave (1+w)^2 in the denominator, so the
    # axis pole has order 2; the remainder is a polynomial, which forces the
    # m*c_2 prediction term to match brute-force counts exactly for large m
    from heightzeta.fqt import poly_from_string
    from heightzeta.oracle import count_canonical_heights
    from heightzeta.zeta import from_poly

    spec = from_poly(F5, poly_from_string(F5, "t^3+3t^2+2t"), 2)
    z = assemble_zeta(spec).combined
    report = build_report(z, 5, 2)
    assert sorted(r.order for r in report.pole_records) == [1, 2]
    axis = [r for r in report.pole_records if r.order == 2][0]
    assert [c.rep.coeffs for c in axis.laurent] == [
        (Fraction(1000, 9),),
        (Fraction(-80, 3),),
    ]
    assert report.remainder.den.degree == 0
    table = count_canonical_heights(spec.phi(), 10)
    cutoff = report.remainder.num.degree
    for m in range(cutoff + 1, 11):
        assert predicted_coefficient(report, m) == table[m]
    assert remainder_check(report, 40).ok


def test_laurent_values_match_numeric_residues():
    # independent numeric check: c_1 at a simple pole u0 is the limit of
    # tau * Z(u0 * exp(-tau)) as tau -> 0
    from heightzeta.places import BadPlace
    from heightzeta.zeta import ProblemSpec
    import cmath

    specs = [
        from_poly(F5, F5.poly_t(), 2),
        ProblemSpec(
            q=5,
            genus=1,
            d=2,
            bad_places=(BadPlace(1, 1), BadPlace(1, 1)),
            frobenius_trace=0,
        ),
    ]
    for spec in specs:
        report = build_report(assemble_zeta(spec).combined, spec.q, spec.d)
        num, den = report.normalized.num, report.normalized.den

        def z_at(u):
            return num.eval_complex(u) / den.eval_complex(u)

        eps = 1e-7
        for rec in report.pole_records:
            if rec.order != 1:
                continue
            for root in rec.numeric_roots:
                approx = eps * z_at(root * cmath.exp(-eps))
                exact = rec.laurent[0].rep.eval_complex(root)
                assert abs(approx - exact) < 1e-4 * max(1.0, abs(exact))


def test_genus1_cubic_map_with_ramified_place():
    # d = 3 over F_5(t, sqrt(t^3+t)): the place above t is ramified with
    # v(f) = 2, and the zeta numerator contributes a degree-6 factor in w
    from heightzeta.curves import build_genus1_spec
    from heightzeta.fqt import poly_from_string
    from heightzeta.zeta import decomposition_check

    F5_local = FqField(5)
    spec = build_genus1_spec(
        F5_local, poly_from_string(F5_local, "t^3+t"), F5_local.poly_t(), 3
    )
    assert spec.frobenius_trace == 2
    assert [(bp.f_v, bp.vf) for bp in spec.bad_places] == [(1, 2)]
    report = build_report(assemble_zeta(spec).combined, 5, 3)
    assert report.alpha_exponent == 1
    assert sorted(r.factor.degree for r in report.pole_records) == [3, 6]
    assert remainder_check(report, 60).ok
    assert decomposition_check(spec).ok


def test_inert_example_main_term_leading_coefficient(inert_spec):
    # dominant growth (25/273) * 25^j for B = 5^j, up to oscillating lower order
    report = build_report(assemble_zeta(inert_spec).combined, 5, 2)
    for j in (6, 7, 8):
        ratio = main_term(report, 2 * j) / (Fraction(25, 273) * 25**j)
        assert abs(ratio - 1) < Fraction(1, 10**4)


def test_series_identity_principal_plus_remainder(toy_report):
    # a_m = (series of principal parts)_m + (series of remainder)_m, with the
    # principal-part series given exactly by the trace predictions
    a = series_coefficients(toy_report.normalized, 25)
    g = series_coefficients(toy_report.remainder, 25)
    for m in range(26):
        assert a[m] == predicted_coefficient(toy_report, m) + g[m]


@pytest.mark.parametrize("fixture", ["inert_spec", "split_spec", "m_anchor_spec", "l_anchor_spec"])
def test_series_main_terms_equal_trace_predictions(fixture, request):
    # main terms come from one series; the per-m traces are the independent check
    spec = request.getfixturevalue(fixture)
    report = build_report(assemble_zeta(spec).combined, spec.q, spec.d)
    e = report.alpha_exponent
    p = [predicted_coefficient(report, m) for m in range(24 // e + 1)]
    assert p == predicted_coefficients(report, 24 // e)
    mains = main_terms(report, 24)
    for k in range(25):
        expected = sum(p[: k // e + 1], Fraction(0))
        assert main_term(report, k) == mains[k] == expected


def test_xl_anchor_report_and_remainder(xl_anchor_spec):
    spec = xl_anchor_spec
    report = build_report(assemble_zeta(spec).combined, spec.q, spec.d)
    rc = remainder_check(report, 30)
    assert rc.ok and rc.differences_match_remainder


@st.composite
def _valid_specs(draw):
    """Genus-0 and genus-1 specs with small q, d <= 6 and at most 3 bad places.

    Genus 1 draws a trace in the Hasse range, which ProblemSpec refuses when
    no curve has it (over F_8, for instance, trace 2).
    """
    genus = draw(st.sampled_from((0, 1)))
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    d = draw(st.integers(2, 6))
    places = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, d - 1)), max_size=3))
    trace = None
    if genus == 1:
        bound = isqrt(4 * q)
        trace = draw(st.integers(-bound, bound))
    try:
        return ProblemSpec(q=q, genus=genus, d=d, frobenius_trace=trace,
                           bad_places=tuple(BadPlace(f_v=f_v, vf=vf) for f_v, vf in places))
    except ValueError:  # an unrealizable trace, or more bad places of some degree than the field has
        assume(False)


@settings(max_examples=40)
@given(spec=_valid_specs())
def test_every_denominator_factor_is_a_pole_record_and_the_remainder_a_polynomial(spec):
    # each root of Z's denominator in w has modulus q^(-j/d), q^(-1/(2d)) or 1,
    # so no factor lies outside the closed unit disk
    report = build_report(assemble_zeta(spec).combined, spec.q, spec.d)
    _, factors = qpoly_factor(report.normalized.den)
    assert sorted((p.coeffs, k) for p, k in factors) == sorted(
        (rec.factor.coeffs, rec.order) for rec in report.pole_records)
    assert report.remainder.den.degree == 0
    assert remainder_check(report, 2 * report.remainder.num.degree + 8).ok
