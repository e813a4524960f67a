import time
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heightzeta.zeta as zeta

from heightzeta.curves import affine_point_count, cubic_discriminant, frobenius_trace
from heightzeta.fqt import all_polys, irreducibles_up_to, poly_from_string
from heightzeta.gf import FqField
from heightzeta.oracle import count_canonical_heights
from heightzeta.places import BadPlace
from heightzeta.qfuncs import QPoly, QRatFunc, series_coefficients
from heightzeta.zeta import (
    ProblemSpec,
    assemble_zeta,
    adelic_integral,
    decomposition_check,
    dedekind_zeta,
    from_poly,
    local_bad_factor,
    partial_zeta_DT,
    partial_zeta_DU,
    place_count,
)
from heightzeta.zeta import _trace_realizable

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)


def R(num, den=(1,)):
    return QRatFunc(QPoly(num), QPoly(den))


def _display(num_factors, den_factors, power=1):
    """Product of polynomials given in a base variable, substituted with w^power."""
    out = QRatFunc.const(1)
    for coeffs in num_factors:
        out = out * QRatFunc.from_poly(QPoly(coeffs).compose_power(power))
    for coeffs in den_factors:
        out = out / QRatFunc.from_poly(QPoly(coeffs).compose_power(power))
    return out


def test_dedekind_zeta_examples():
    assert dedekind_zeta(1, 5, 0) == R((1, 0, 5), (1, -6, 5))
    assert series_coefficients(dedekind_zeta(0, 5), 4) == [
        (5 ** (n + 1) - 1) // 4 for n in range(5)
    ]
    assert series_coefficients(dedekind_zeta(0, 2), 1)[1] == 3
    with pytest.raises(ValueError):
        dedekind_zeta(2, 5, 0)
    with pytest.raises(ValueError):
        dedekind_zeta(1, 5)


def _effective_divisor_counts(field, n):
    """Multisets of places by total degree: the coin-counting DP over P^1."""
    degrees = [1] + [p.degree for p in irreducibles_up_to(field, n)]
    counts = [0] * (n + 1)
    counts[0] = 1
    for deg in degrees:
        for m in range(deg, n + 1):
            counts[m] += counts[m - deg]
    return counts


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dedekind_genus0_counts_effective_divisors(q):
    field = FqField(q)
    zk = dedekind_zeta(0, q)
    assert series_coefficients(zk, 4) == _effective_divisor_counts(field, 4)


def test_local_bad_factor_examples():
    assert local_bad_factor(5, 1, 2) == R((0, 1, 5), (1, 1))  # u(1+5u)/(1+u)
    assert local_bad_factor(25, 1, 2) == R((0, 1, 25), (1, 1))
    assert local_bad_factor(2, 1, 2) == R((0, 1, 2), (1, 1))
    with pytest.raises(ValueError):
        local_bad_factor(5, 2, 2)


def test_adelic_integral_examples(inert_spec, split_spec):
    spec0 = from_poly(F5, F5.poly_one(), 2)
    z = adelic_integral(spec0)
    assert z == R((5, 0, -5), (1, 0, -25))
    assert series_coefficients(z, 4)[::2] == [5, 120, 3000]

    # one inert place: x(1-x)(1+25x)(1+125x^2) / ((1+x)(1-25x)(1+5x^2)) in x = w^2
    display = _display(
        [(0, 1), (1, -1), (1, 25), (1, 0, 125)],
        [(1, 1), (1, -25), (1, 0, 5)],
        power=2,
    )
    assert adelic_integral(inert_spec) == display

    # two split places: u^2(1-u)(1+5u)(1+125u^4) / ((1+u)(1-5u)(1+5u^4))
    display = _display(
        [(0, 0, 1), (1, -1), (1, 5), (1, 0, 0, 0, 125)],
        [(1, 1), (1, -5), (1, 0, 0, 0, 5)],
    )
    assert adelic_integral(split_spec) == display


def test_assemble_zeta_genus0():
    spec = from_poly(F5, F5.poly_t(), 2)
    closed = assemble_zeta(spec)
    assert closed.combined == R((0, 5, -5), (1, -5))
    assert closed.correction_term.is_zero()
    assert closed.combined == closed.main_term + closed.correction_term


def test_assemble_zeta_split_example(split_spec):
    closed = assemble_zeta(split_spec)
    correction = _display([(0, 0, 4), (1, -1), (1, 0, -5)], [(1, 1), (1, 0, 0, 0, 5)])
    assert closed.correction_term == correction
    combined = closed.main_term + correction
    assert closed.combined == combined


def test_assemble_zeta_inert_correction(inert_spec):
    # direct substitution yields 4x(1-x)(1-5x)/((1+x)(1+5x^2)) in x = w^2
    correction = _display(
        [(0, 4), (1, -1), (1, -5)], [(1, 1), (1, 0, 5)], power=2
    )
    assert assemble_zeta(inert_spec).correction_term == correction


def test_partial_zeta_DU_examples():
    spec = from_poly(F5, F5.poly_t(), 2)
    w_u = partial_zeta_DU(spec, [0])
    assert w_u == R((5, 0, -25), (1, 0, -25))  # 5(1-5x)/(1-25x)
    assert series_coefficients(w_u, 4)[::2] == [5, 100, 2500]
    assert partial_zeta_DU(spec, []) == R((5, 0, -5), (1, 0, -25))


def test_partial_zeta_DU_genus1_tail(inert_spec):
    # W(D(U)) is the constrained integral plus c(g)/(zeta_K(s)(1 - q_v^(-s)))
    got = partial_zeta_DU(inert_spec, [0])
    # build the integral part from scratch: zeta_K(s-1)/zeta_K(s) * (1-q_v^(1-s))/(1-q_v^(-s))
    zk = dedekind_zeta(1, 5, 0)
    shifted = QRatFunc(
        QPoly([c * 5**i for i, c in enumerate(zk.num.coeffs)]),
        QPoly([c * 5**i for i, c in enumerate(zk.den.coeffs)]),
    )
    integral = (shifted / zk).compose_power(2)
    w4 = lambda top: QRatFunc.from_poly(QPoly((1, 0, 0, 0, top)))
    integral = integral * w4(-25) / w4(-1)  # q_v = 25, q_v^(-s) = w^4
    tail = zk.pow_(-1).compose_power(2).scale(4) / w4(-1)
    assert got == integral + tail


def test_partial_zeta_DT_examples(m_anchor_spec, l_anchor_spec, inert_spec, split_spec):
    spec = from_poly(F5, F5.poly_t(), 2)
    w_empty = partial_zeta_DT(spec, [])
    assert w_empty == R((0, 0, 20), (1, 0, -25))  # 20x/(1-25x)
    assert series_coefficients(w_empty, 4)[::2] == [0, 20, 500]
    assert partial_zeta_DT(spec, [0]) == partial_zeta_DU(spec, [0])
    # regions partition K: sum of W(D_T) is the full height zeta
    total = partial_zeta_DT(spec, []) + partial_zeta_DT(spec, [0])
    assert total == partial_zeta_DU(spec, [])
    # reference: W(D_T) by inclusion-exclusion over the D(U) with U containing T
    for anchor in (m_anchor_spec, l_anchor_spec, inert_spec, split_spec):
        n = len(anchor.bad_places)
        for r in range(n + 1):
            for t_set in combinations(range(n), r):
                rest = [i for i in range(n) if i not in t_set]
                expected = QRatFunc.zero()
                for size in range(len(rest) + 1):
                    for extra in combinations(rest, size):
                        term = partial_zeta_DU(anchor, t_set + extra)
                        expected = expected + (-term if size % 2 else term)
                assert partial_zeta_DT(anchor, t_set) == expected


@pytest.mark.parametrize("entry_index", range(6))
def test_decomposition_check_sample(matrix_specs, entry_index):
    spec, _, _, _ = matrix_specs[entry_index * len(matrix_specs) // 6]
    assert decomposition_check(spec).ok


def test_decomposition_check_genus1(inert_spec, split_spec):
    assert decomposition_check(inert_spec).ok
    assert decomposition_check(split_spec).ok
    # ramified place with v(f) = 2 under d = 3
    from heightzeta.curves import build_genus1_spec

    ramified = build_genus1_spec(F5, poly_from_string(F5, "t^3+t"), F5.poly_t(), 3)
    assert decomposition_check(ramified).ok


def test_decomposition_check_fuzz():
    import random

    from heightzeta.gf import PolyFq

    rng = random.Random(99)
    cases = 0
    while cases < 10:
        q = rng.choice((2, 3, 5))
        field = FqField(q)
        deg = rng.randrange(1, 5)
        f = PolyFq(field, [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])
        d = rng.choice((2, 3))
        try:
            spec = from_poly(field, f, d)
        except ValueError:
            continue
        result = decomposition_check(spec)
        assert result.ok, (q, f, d, result.difference)
        cases += 1


def _literal_region_sum(spec):
    """sum over T of w^(sum over T of f_v * v(f)) * W(D_T): the 2^n-term reference."""
    n = len(spec.bad_places)
    total = QRatFunc.zero()
    for r in range(n + 1):
        for t_set in combinations(range(n), r):
            shift = sum(spec.bad_places[i].f_v * spec.bad_places[i].vf for i in t_set)
            total = total + R([0] * shift + [1]) * partial_zeta_DT(spec, t_set)
    return total


def test_literal_region_sum_is_the_assembled_zeta(matrix_specs, inert_spec, split_spec,
                                                  l_anchor_spec, xl_anchor_spec):
    specs = [spec for spec, *_ in matrix_specs] + [inert_spec, split_spec, l_anchor_spec,
                                                    xl_anchor_spec]
    for spec in specs:
        result = decomposition_check(spec)
        assert result.ok and result.difference.is_zero()
        assert _literal_region_sum(spec) == assemble_zeta(spec).combined == result.assembled


def test_decomposition_check_d32(d32_spec):
    # 8 bad places: the region sum has 256 terms
    assert decomposition_check(d32_spec).ok


def _mutated_local_factors(monkeypatch, term):
    """Replace the v(x) < 0 factor of one global term with a wrong one.

    main: (q_v - 1)*y becomes q_v*y; correction: -y becomes +y.
    """
    real = zeta._local_factors

    def local_factors(q_v, k, a, b):
        main, tail = real(q_v, k, a, b)
        if b is not None:
            w_b_y = QPoly([0] * (b + k) + [1])
            if term == "main":
                main = main + w_b_y
            else:
                tail = tail + w_b_y.scale(2)
        return main, tail

    monkeypatch.setattr(zeta, "_local_factors", local_factors)


def test_a_wrong_main_term_factor_fails_the_check(monkeypatch, m_anchor_spec, inert_spec):
    _mutated_local_factors(monkeypatch, "main")
    for spec in (m_anchor_spec, inert_spec):
        result = decomposition_check(spec)
        assert result.ok is False
        assert not result.difference.is_zero()


def test_a_wrong_correction_term_factor_fails_the_check(monkeypatch, m_anchor_spec, inert_spec,
                                                        split_spec):
    # c(0) = 0: a genus-0 spec has no correction term to get wrong
    assert decomposition_check(m_anchor_spec).ok
    _mutated_local_factors(monkeypatch, "correction")
    assert decomposition_check(m_anchor_spec).ok
    for spec in (inert_spec, split_spec):
        assert decomposition_check(spec).ok is False


@st.composite
def realizable_specs(draw):
    """Genus 0 or 1 over a small F_q, d <= 8, up to 8 bad places the field has."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    genus = draw(st.integers(0, 1))
    trace = None
    if genus:
        bound = isqrt(4 * q)
        trace = draw(st.sampled_from([a for a in range(-bound, bound + 1)
                                      if _trace_realizable(q, a)]))
    d = draw(st.integers(2, 8))
    room = {k: place_count(q, k, trace) for k in (1, 2, 3)}
    places = []
    for _ in range(draw(st.integers(0, 8))):
        degrees = [k for k, count in room.items() if count]
        if not degrees:
            break
        k = draw(st.sampled_from(degrees))
        room[k] -= 1
        places.append(BadPlace(f_v=k, vf=draw(st.integers(1, d - 1))))
    return ProblemSpec(q=q, genus=genus, d=d, bad_places=tuple(places), frobenius_trace=trace)


@settings(max_examples=80)
@given(spec=realizable_specs())
def test_decomposition_identity_on_realizable_specs(spec):
    result = decomposition_check(spec)
    assert result.ok
    if len(spec.bad_places) <= 4:
        assert _literal_region_sum(spec) == result.assembled


def test_leading_coefficient_invariant(matrix_specs):
    for spec, field, f, d in matrix_specs:
        a0 = series_coefficients(assemble_zeta(spec).combined, 0)[0]
        if spec.bad_places:
            assert a0 == 0
        else:
            assert a0 == field.q


def test_genus0_series_equals_oracle_counts_sample():
    for field, f_text, d, m_max in [
        (F5, "t", 2, 10),
        (F3, "t^2+1", 2, 8),
        (F2, "t^2+t", 3, 9),
        (F3, "t^4+2t^2+1", 3, 12),  # one bad place with f_v = 2 and v(f) = 2
    ]:
        f = poly_from_string(field, f_text)
        spec = from_poly(field, f, d)
        series = series_coefficients(assemble_zeta(spec).combined, m_max)
        table = count_canonical_heights(spec.phi(), m_max)
        for m in range(m_max + 1):
            assert series[m] == table[m]


@pytest.mark.parametrize(
    "field, n", [(F5, 6), (F2, 13), (F2, 14), (F3, 9)], ids=["q5-n6", "q2-n13", "q2-n14", "q3-n9"]
)
def test_fast_oracle_equals_closed_form_at_scale(field, n):
    # two degree-1 bad places; both bounds are past the enumeration budget,
    # which measures the enumerate path, so the fast path needs the override
    spec = from_poly(field, poly_from_string(field, "t^2+t"), 2)
    assert len(spec.bad_places) == 2
    m_max = spec.d * n
    series = series_coefficients(assemble_zeta(spec).combined, m_max)
    table = count_canonical_heights(spec.phi(), m_max, override=True)
    assert [table[m] for m in range(m_max + 1)] == series[: m_max + 1]


def test_region_counts_match_partial_zetas():
    spec = from_poly(F5, poly_from_string(F5, "t^2+t"), 2)
    from heightzeta.oracle import count_regions

    h_max = 3
    regions = count_regions(spec.phi(), h_max)
    assert len(regions) == 4
    for t_set, table in regions.items():
        series = series_coefficients(partial_zeta_DT(spec, t_set), h_max * 2)
        for h in range(h_max + 1):
            assert series[2 * h] == table[h]


def test_bad_place_validation():
    with pytest.raises(ValueError, match="Hasse"):
        ProblemSpec(q=5, genus=1, d=2, bad_places=(), frobenius_trace=6)
    with pytest.raises(ValueError):
        ProblemSpec(q=5, genus=0, d=2, bad_places=(BadPlace(f_v=1, vf=2),))
    with pytest.raises(ValueError):
        ProblemSpec(q=5, genus=2, d=2, bad_places=())
    with pytest.raises(ValueError):
        ProblemSpec(q=5, genus=1, d=2, bad_places=())  # missing trace


@pytest.mark.parametrize("q, trace, realizable", [
    (8, 2, False), (8, 1, True), (8, 4, True), (8, 0, True), (8, -4, True),
    (25, 0, False), (27, 3, False), (27, 9, True),
])
def test_genus1_trace_must_be_realizable_over_a_prime_power(q, trace, realizable):
    # Waterhouse (1969), Thm 4.1: over F_(p^n), n > 1, some traces within the Hasse bound have no curve
    def spec():
        return ProblemSpec(q=q, genus=1, d=2, bad_places=(), frobenius_trace=trace)

    if realizable:
        assert spec().frobenius_trace == trace
    else:
        with pytest.raises(ValueError, match=f"no elliptic curve over F_{q} has trace {trace}"):
            spec()


def test_decomposition_check_l_anchor(l_anchor_spec):
    assert decomposition_check(l_anchor_spec).ok


@pytest.mark.parametrize("field", [F2, F3, FqField(2, 2, (1, 1, 1)), F5], ids=lambda f: f.q)
def test_genus0_place_counts_are_the_monic_irreducibles(field):
    by_degree = {}
    for pi in irreducibles_up_to(field, 5):
        by_degree[pi.degree] = by_degree.get(pi.degree, 0) + 1
    assert [place_count(field.q, k) for k in range(1, 6)] == [by_degree[k] for k in range(1, 6)]


@pytest.mark.parametrize("p, modulus", [(3, (1, 0, 1)), (5, (2, 0, 1))], ids=["q3", "q5"])
def test_genus1_place_counts_match_points_over_the_quadratic_extension(p, modulus):
    # N_1 and N_2 by counting points of y^2 = h over F_p and F_(p^2); the
    # places of degree 1 and 2 are N_1 and (N_2 - N_1)/2
    base, ext = FqField(p), FqField(p, 2, modulus)
    curves = [h for h in all_polys(base, 3) if h.degree == 3 and cubic_discriminant(h)]
    assert curves
    for h in curves:
        n1 = affine_point_count(h) + 1
        # codes below p are the prime subfield in F_(p^2) as well
        n2 = affine_point_count(ext.poly(h.coeffs)) + 1
        a = frobenius_trace(p, n1 - 1)
        assert place_count(p, 1, a) == n1
        assert place_count(p, 2, a) == (n2 - n1) // 2


def test_bad_places_beyond_the_place_count_are_refused():
    def spec(q, genus, places, trace=None):
        bad = tuple(BadPlace(f_v=k, vf=1) for k in places)
        return ProblemSpec(q=q, genus=genus, d=2, bad_places=bad, frobenius_trace=trace)

    spec(2, 0, [1, 1, 2])  # t, t + 1 and t^2 + t + 1
    with pytest.raises(ValueError, match="3 bad places of degree 1.* only 2 finite places of degree 1"):
        spec(2, 0, [1, 1, 1])
    with pytest.raises(ValueError, match="2 bad places of degree 2.* only 1 finite places of degree 2"):
        spec(2, 0, [2, 2])
    # trace 0 over F_2: #E(F_2) = 3 and #E(F_4) = 9, so 3 places of degree 1 and 3 of degree 2
    spec(2, 1, [1, 1, 1, 2, 2, 2], trace=0)
    with pytest.raises(ValueError, match="4 bad places of degree 1.* trace 0 has only 3 places"):
        spec(2, 1, [1, 1, 1, 1], trace=0)
    with pytest.raises(ValueError, match="4 bad places of degree 2.* only 3 places of degree 2"):
        spec(2, 1, [2] * 4, trace=0)
    # the largest admitted genus-1 degree passes the Hasse-Weil bound without counting
    spec(2, 1, [128] * 3, trace=2)
    with pytest.raises(ValueError, match="f_v = 129 exceeds the supported maximum 128 for genus 1"):
        spec(2, 1, [129] * 3, trace=2)


@pytest.mark.parametrize("genus, trace", [(0, None), (1, 2)])
def test_a_huge_residue_degree_is_refused_at_once(genus, trace):
    # assemble_zeta on such a spec would compute q**f_v
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"f_v = {10**30} exceeds the supported maximum"):
        ProblemSpec(q=5, genus=genus, d=2, bad_places=(BadPlace(f_v=10**30, vf=1),),
                    frobenius_trace=trace)
    assert time.perf_counter() - start < 1
