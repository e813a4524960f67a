"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from heightzeta.asymptotics import (
    build_report,
    lemma51_check,
    main_term,
    predicted_coefficient,
    remainder_check,
    stirling_pochhammer_check,
)
from heightzeta.curves import affine_point_count, build_genus1_spec, frobenius_trace, splitting_type
from heightzeta.fqt import RatFuncFq, irreducibles_up_to, poly_from_string
from heightzeta.gf import FqField, PolyFq
from heightzeta.places import canonical_height_exp
from heightzeta.qfuncs import QPoly, QRatFunc, series_coefficients
from heightzeta.zeta import assemble_zeta, decomposition_check, dedekind_zeta

from conftest import matrix_m_cap

LOG5 = math.log(5)


def _report_for(spec):
    return build_report(assemble_zeta(spec).combined, spec.q, spec.d)


def _all_poles(report):
    return [
        (re, im, rec.order)
        for rec in report.pole_records
        for re, im in rec.numeric_poles
    ]


def test_criterion_1_inert_example_laurent_table(inert_spec):
    start = time.monotonic()
    report = _report_for(inert_spec)
    assert report.alpha_exponent == 2  # alpha = 5

    poles = _all_poles(report)
    assert sorted(round(re, 9) for re, _, _ in poles) == [0.0, 0.5, 0.5, 2.0]
    assert all(order == 1 for _, _, order in poles)

    by_factor = {tuple(int(c) for c in r.factor.coeffs): r for r in report.pole_records}
    assert by_factor[(-1, 25)].laurent[0].rep == QPoly((Fraction(8, 91),))
    assert by_factor[(1, 1)].laurent[0].rep == QPoly((Fraction(400, 13),))

    pair = by_factor[(1, 0, 5)]
    # c_1 on the conjugate pair, as one element of Q[u]/(5u^2+1)
    assert pair.laurent[0].rep == QPoly((Fraction(46, 7), Fraction(30, 7)))
    # pairing: at Im(a) = pi/(2 log 5) the value is (2/7)(23 - 3 sqrt(-5))
    (re0, im0), (re1, im1) = pair.numeric_poles
    assert im0 == pytest.approx(math.pi / (2 * LOG5), abs=1e-9)
    assert im1 == pytest.approx(3 * math.pi / (2 * LOG5), abs=1e-9)
    v0 = pair.laurent[0].rep.eval_complex(pair.numeric_roots[0])
    assert v0.real == pytest.approx(46 / 7, abs=1e-9)
    assert v0.imag == pytest.approx(-6 * math.sqrt(5) / 7, abs=1e-9)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"\n[criterion 1] PASS inert example: poles Re {{2, 1/2, 1/2, 0}} simple, "
        f"c_1(2)=8/91, pair (2/7)(23 -+ 3 sqrt(-5)), axis 400/13 ({elapsed:.2f}s)"
    )


def test_criterion_2_split_example_closed_form_and_laurent(split_spec):
    start = time.monotonic()
    closed = assemble_zeta(split_spec)

    def display(nums, dens):
        out = QRatFunc.const(1)
        for c in nums:
            out = out * QRatFunc.from_poly(QPoly(c))
        for c in dens:
            out = out / QRatFunc.from_poly(QPoly(c))
        return out

    main = display(
        [(0, 0, 1), (1, -1), (1, 5), (1, 0, 0, 0, 125)],
        [(1, 1), (1, -5), (1, 0, 0, 0, 5)],
    )
    corr = display([(0, 0, 4), (1, -1), (1, 0, -5)], [(1, 1), (1, 0, 0, 0, 5)])
    assert closed.main_term == main
    assert closed.correction_term == corr
    assert closed.combined == main + corr

    report = _report_for(split_spec)
    assert report.alpha_exponent == 1  # alpha = sqrt(5)
    poles = _all_poles(report)
    assert len(poles) == 6
    assert sorted(round(re, 9) for re, _, _ in poles) == [0.0, 0.5, 0.5, 0.5, 0.5, 2.0]
    assert all(order == 1 for _, _, order in poles)

    by_factor = {tuple(int(c) for c in r.factor.coeffs): r for r in report.pole_records}
    # Laurent data under the log(alpha) = log(5)/2 normalization; criterion 3
    # pins these against the exact series coefficients.  (Quoting the same
    # residues against log(5) instead doubles every value: 8/63, -200/3.)
    c1_real = by_factor[(-1, 5)].laurent[0].rep
    assert c1_real == QPoly((Fraction(4, 63),))
    assert 2 * c1_real.coeffs[0] == Fraction(8, 63)
    assert by_factor[(1, 1)].laurent[0].rep == QPoly((Fraction(-100, 3),))

    quartic = by_factor[(1, 0, 0, 0, 5)]
    rep = quartic.laurent[0].rep.coeffs
    # recover b with c_1 = b0 + b1 u^-1 + b2 u^-2 + b3 u^-3 in Q[u]/(5u^4+1)
    b = (rep[0], -rep[3] / 5, -rep[2] / 5, -rep[1] / 5)
    assert b == (
        Fraction(-43, 63),
        Fraction(130, 63),
        Fraction(-37, 63),
        Fraction(-20, 63),
    )

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"\n[criterion 2] PASS split example: displayed two-term closed form, 6 strip "
        f"poles, c_1(2)=4/63, b=(1/63)(-43,130,-37,-20) ({elapsed:.2f}s)"
    )


def test_criterion_3_remainder_cross_validation(inert_spec, split_spec):
    for label, spec in (("inert", inert_spec), ("split", split_spec)):
        report = _report_for(spec)
        rc = remainder_check(report, 60)
        assert rc.ok and rc.differences_match_remainder
        # the remainder is a polynomial here, so predictions are EXACT past its degree
        cutoff = report.remainder.num.degree
        assert report.remainder.den.degree == 0
        series = series_coefficients(report.normalized, 60)
        for m in range(cutoff + 1, 61):
            assert series[m] == predicted_coefficient(report, m)
    print(
        "\n[criterion 3] PASS remainder check to m=60 for both examples: exact "
        "series minus trace predictions vanishes beyond the polynomial remainder"
    )


def test_criterion_4_genus0_oracle_equality(matrix_specs, matrix_count_tables):
    start = time.monotonic()
    checked = 0
    for spec, field, f, d in matrix_specs:
        m_max = matrix_m_cap(field.q, d, 12)
        table = matrix_count_tables[(field.q, tuple(f.coeffs), d)]
        series = series_coefficients(assemble_zeta(spec).combined, m_max)
        for m in range(m_max + 1):
            assert series[m] == table[m], (field.q, f, d, m)
        checked += 1
    # anchor values
    anchor = matrix_count_tables[(5, (0, 1), 2)]
    assert [anchor[m] for m in range(4)] == [0, 5, 20, 100]
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"\n[criterion 4] PASS oracle equality on {checked} genus-0 specs "
        f"(m up to min(12, budget); anchor (0,5,20,100); {elapsed:.1f}s)"
    )


def test_criterion_5_counting_asymptotics_bounded(matrix_specs, matrix_count_tables):
    constant_diff = None
    for spec, field, f, d in matrix_specs:
        k_eff = matrix_m_cap(field.q, d, 16)
        table = matrix_count_tables[(field.q, tuple(f.coeffs), d)]
        report = build_report(assemble_zeta(spec).combined, field.q, d)
        diffs = []
        running = 0
        for k in range(k_eff + 1):
            running += table[k]
            diffs.append(abs(Fraction(running) - main_term(report, k)))
        assert max(diffs) == max(diffs[: k_eff // 2 + 1]), (field.q, f, d)
        if field.q == 5 and f.coeffs == (0, 1) and d == 2:
            constant_diff = [
                Fraction(sum(table[m] for m in range(k + 1))) - main_term(report, k)
                for k in range(k_eff + 1)
            ]
    # the anchor spec settles to an exactly constant difference from k = 1 on
    assert constant_diff[0] == Fraction(-4, 5)
    assert all(dk == Fraction(1, 5) for dk in constant_diff[1:])
    print(
        "\n[criterion 5] PASS |N_oracle - main_term| bounded with no growth on every "
        "matrix spec; anchor spec difference exactly 1/5 for all k >= 1"
    )


def test_criterion_6_identity_suites(matrix_specs, inert_spec, split_spec):
    for n in range(1, 9):
        assert lemma51_check(n, 20)
    for n in range(1, 11):
        assert stirling_pochhammer_check(n, 20)
    for spec, _, _, _ in matrix_specs:
        assert decomposition_check(spec).ok
    assert decomposition_check(inert_spec).ok
    assert decomposition_check(split_spec).ok
    # genus-0 zeta coefficients count effective divisors (place enumeration)
    for q in (2, 3, 5):
        field = FqField(q)
        degrees = [1] + [p.degree for p in irreducibles_up_to(field, 4)]
        counts = [0] * 5
        counts[0] = 1
        for deg in degrees:
            for m in range(deg, 5):
                counts[m] += counts[m - deg]
        assert series_coefficients(dedekind_zeta(0, q), 4) == counts
    print(
        "\n[criterion 6] PASS identity suites: Laurent-series lemma (n<=8), "
        "Pochhammer identity (n<=10), symbolic decomposition on all specs, "
        "divisor-count zeta coefficients"
    )


def test_criterion_7_functional_equation(matrix_specs):
    start = time.monotonic()
    total = 0
    for spec, field, f, d in matrix_specs:
        phi = spec.phi()
        rng = random.Random(field.q * 1000 + d * 10 + f.degree)
        for _ in range(10_000):
            num = PolyFq(field, [rng.randrange(field.q) for _ in range(3)])
            den = PolyFq(
                field, [rng.randrange(field.q) for _ in range(rng.randrange(3))] + [1]
            )
            x = RatFuncFq(num, den)
            assert canonical_height_exp(phi.apply(x), phi) == d * canonical_height_exp(
                x, phi
            )
            total += 1
    elapsed = time.monotonic() - start
    print(
        f"\n[criterion 7] PASS functional equation m(phi(x)) = d*m(x) on {total} "
        f"random points ({elapsed:.1f}s)"
    )


def test_criterion_8_curve_facts():
    F5 = FqField(5)
    t = F5.poly_t()
    h_inert = poly_from_string(F5, "t^3+3")
    h_split = poly_from_string(F5, "t^3+1")
    assert affine_point_count(h_inert) == 5
    assert affine_point_count(h_split) == 5
    assert frobenius_trace(5, 5) == 0
    assert splitting_type(h_inert, t).kind == "inert"
    assert splitting_type(h_split, t).kind == "split"
    with pytest.raises(ValueError):
        build_genus1_spec(F5, poly_from_string(F5, "t^3+t"), t, 2)
    spec = build_genus1_spec(F5, h_inert, t, 2)
    assert [(bp.f_v, bp.vf) for bp in spec.bad_places] == [(2, 1)]
    print(
        "\n[criterion 8] PASS curve facts: 5 affine points each, trace 0, inert/split "
        "at t as stated, ramified input rejected"
    )
