import pytest

from heightzeta.curves import (
    affine_point_count,
    build_genus1_spec,
    cubic_discriminant,
    frobenius_trace,
    splitting_type,
)
from heightzeta.fqt import all_polys, monic_polys, poly_from_string
from heightzeta.gf import FqField

F3 = FqField(3)
F5 = FqField(5)
F7 = FqField(7)


def test_affine_point_count_examples():
    assert affine_point_count(poly_from_string(F5, "t^3+3")) == 5
    assert affine_point_count(poly_from_string(F5, "t^3+1")) == 5
    assert affine_point_count(poly_from_string(F3, "t^3+1")) == 3
    with pytest.raises(ValueError):
        affine_point_count(poly_from_string(F5, "t^2+1"))
    with pytest.raises(ValueError, match="char 2"):
        affine_point_count(poly_from_string(FqField(2), "t^3+1"))


def test_frobenius_trace():
    assert frobenius_trace(5, 5) == 0
    assert frobenius_trace(5, 9) == -4
    with pytest.raises(ValueError, match="Hasse"):
        frobenius_trace(5, 0)


def test_hasse_bound_for_all_smooth_cubics_over_f5():
    for h in all_polys(F5, 3):
        if h.degree != 3 or cubic_discriminant(h) == 0:
            continue
        a = frobenius_trace(5, affine_point_count(h))
        assert a * a <= 20


def test_splitting_type_examples():
    t = F5.poly_t()
    assert splitting_type(poly_from_string(F5, "t^3+3"), t).kind == "inert"
    assert splitting_type(poly_from_string(F5, "t^3+3"), t).places == ((2, 1),)
    assert splitting_type(poly_from_string(F5, "t^3+1"), t).places == ((1, 1), (1, 1))
    assert splitting_type(poly_from_string(F5, "t^3+t"), t).kind == "ramified"
    assert splitting_type(poly_from_string(F5, "t^3+t"), t).places == ((1, 2),)


def test_splitting_vs_exhaustive_squares_degree2():
    # inert/split decision agrees with brute-force square search mod pi
    h = poly_from_string(F7, "t^3+2t+1")
    for pi in monic_polys(F7, 2):
        if not pi.is_irreducible():
            continue
        residues = list(all_polys(F7, 1))
        squares = {(r * r % pi).coeffs for r in residues}
        r = h % pi
        kind = splitting_type(h, pi).kind
        if r.is_zero():
            assert kind == "ramified"
        elif r.coeffs in squares:
            assert kind == "split"
        else:
            assert kind == "inert"


def test_split_frequencies_match_affine_count():
    # each split linear place carries 2 affine points, ramified carries 1
    for h_text in ["t^3+3", "t^3+1", "t^3+t", "t^3+2t+1", "t^3+4t"]:
        h = poly_from_string(F5, h_text)
        kinds = [splitting_type(h, pi).kind for pi in monic_polys(F5, 1)]
        predicted = 2 * kinds.count("split") + kinds.count("ramified")
        assert predicted == affine_point_count(h)


def test_build_genus1_specs():
    t = F5.poly_t()
    inert = build_genus1_spec(F5, poly_from_string(F5, "t^3+3"), t, 2)
    assert inert.genus == 1 and inert.frobenius_trace == 0
    assert [(bp.f_v, bp.vf) for bp in inert.bad_places] == [(2, 1)]

    split = build_genus1_spec(F5, poly_from_string(F5, "t^3+1"), t, 2)
    assert [(bp.f_v, bp.vf) for bp in split.bad_places] == [(1, 1), (1, 1)]

    with pytest.raises(ValueError, match="violated"):
        build_genus1_spec(F5, poly_from_string(F5, "t^3+t"), t, 2)
    # the same ramified place is fine when d = 3 (v(f) = 2 < 3)
    ramified = build_genus1_spec(F5, poly_from_string(F5, "t^3+t"), t, 3)
    assert [(bp.f_v, bp.vf) for bp in ramified.bad_places] == [(1, 2)]


def test_build_genus1_rejects_bad_input():
    t = F5.poly_t()
    with pytest.raises(ValueError, match="singular"):
        build_genus1_spec(F5, poly_from_string(F5, "t^3"), t, 2)
    with pytest.raises(ValueError, match="nonconstant"):
        build_genus1_spec(F5, poly_from_string(F5, "t^3+3"), F5.poly_one(), 2)
    with pytest.raises(ValueError, match="char 2"):
        field = FqField(2)
        build_genus1_spec(field, poly_from_string(field, "t^3+1"), field.poly_t(), 2)


def test_discriminant_detects_singular_cubics():
    # char 3: t^3+1 = (t+1)^3 is a cusp; the universal formula still vanishes
    assert cubic_discriminant(poly_from_string(F3, "t^3+1")) == 0
    assert cubic_discriminant(poly_from_string(F5, "t^3+1")) != 0
    assert cubic_discriminant(poly_from_string(F5, "t^3+t")) != 0  # smooth, 2-torsion
    assert cubic_discriminant(poly_from_string(F5, "t^3")) == 0
