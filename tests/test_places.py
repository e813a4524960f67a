import math
import random

import pytest

from heightzeta.gf import FqField, PolyFq, RatFuncFq, poly_from_string, ratfunc_from_poly
from heightzeta.places import (
    Place,
    canonical_height_exp,
    local_correction_num,
    realize_phi,
    standard_height_exp,
    validate_phi,
    valuation,
)

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)


def _rat(field, num_text, den_text="1"):
    return RatFuncFq(poly_from_string(field, num_text), poly_from_string(field, den_text))


def test_valuation_examples():
    t_place = Place(F5.poly_t())
    assert valuation(_rat(F5, "t", "t+1"), t_place) == 1
    assert valuation(_rat(F5, "1", "t"), t_place) == -1
    assert valuation(_rat(F5, "t^2+1", "t"), Place(None)) == -1
    assert valuation(RatFuncFq(F5.poly(()), F5.poly_one()), t_place) == math.inf


def test_standard_height_examples():
    assert standard_height_exp(_rat(F5, "3")) == 0
    assert standard_height_exp(_rat(F5, "t", "t+1")) == 1
    assert standard_height_exp(_rat(F5, "t^2+1", "t")) == 2


def test_validate_phi():
    phi = validate_phi(F5.poly_t(), 2)
    assert [(bp.f_v, bp.vf) for bp in phi.bad_places] == [(1, 1)]
    with pytest.raises(ValueError, match="violated at t"):
        validate_phi(poly_from_string(F5, "t^2"), 2)
    with pytest.raises(ValueError):
        validate_phi(F5.poly_t(), 1)
    assert validate_phi(F5.poly_one(), 2).bad_places == ()
    # multiplicity d-1 is fine
    assert validate_phi(poly_from_string(F5, "t^2"), 3).bad_places[0].vf == 2


def test_local_correction_examples():
    phi = validate_phi(F5.poly_t(), 2)
    bp = phi.bad_places[0]
    zero = RatFuncFq(F5.poly(()), F5.poly_one())
    assert local_correction_num(zero, bp) == 1
    assert local_correction_num(_rat(F5, "1", "t"), bp) == 0
    assert local_correction_num(_rat(F5, "t+1"), bp) == 1


def test_canonical_height_examples():
    phi = validate_phi(F5.poly_t(), 2)
    zero = RatFuncFq(F5.poly(()), F5.poly_one())
    assert canonical_height_exp(zero, phi) == 1  # height 5^(1/2)
    assert canonical_height_exp(_rat(F5, "1", "t"), phi) == 2
    good = validate_phi(F5.poly_one(), 2)
    assert canonical_height_exp(ratfunc_from_poly(F5.poly_t()), good) == 2


def _random_elements(field, rng, count, max_deg=3):
    out = []
    while len(out) < count:
        num = PolyFq(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])
        den = PolyFq(
            field, [rng.randrange(field.q) for _ in range(rng.randrange(max_deg + 1))] + [1]
        )
        out.append(RatFuncFq(num, den))
    return out


def _support_places(x):
    """All places where x has nonzero valuation, plus infinity."""
    places = [Place(None)]
    for poly in (x.num, x.den):
        if poly.degree >= 1:
            places.extend(Place(pi) for pi, _ in poly.factor()[1])
    return places


@pytest.mark.parametrize("field", [F2, F3, F5], ids=lambda f: f"q{f.q}")
def test_product_formula(field):
    rng = random.Random(field.q * 7)
    for x in _random_elements(field, rng, 60):
        if x.is_zero():
            continue
        total = sum(p.f_v * valuation(x, p) for p in _support_places(x))
        assert total == 0


@pytest.mark.parametrize(
    "q,f_text,d",
    [
        (2, "t", 2),
        (2, "t+1", 3),
        (3, "t", 2),
        (3, "t^2+2t", 2),
        (5, "t", 2),
        (5, "t^2+2t", 3),
    ],
)
def test_functional_equation_sample(q, f_text, d):
    field = FqField(q)
    phi = validate_phi(poly_from_string(field, f_text), d)
    rng = random.Random(q * 100 + d)
    for x in _random_elements(field, rng, 300):
        assert canonical_height_exp(phi.apply(x), phi) == d * canonical_height_exp(x, phi)


def test_monotonicity_and_equality_conditions():
    phi = validate_phi(poly_from_string(F5, "t^2+2t"), 2)  # bad places t, t+2
    rng = random.Random(5)
    for x in _random_elements(F5, rng, 200):
        h = standard_height_exp(x)
        m = canonical_height_exp(x, phi)
        assert m >= 2 * h
        negative_everywhere = all(
            valuation(x, Place(bp.pi)) < 0 for bp in phi.bad_places
        )
        assert (m == 2 * h) == negative_everywhere
    # empty bad set: always equality
    good = validate_phi(F5.poly_one(), 2)
    for x in _random_elements(F5, rng, 50):
        assert canonical_height_exp(x, good) == 2 * standard_height_exp(x)


def test_preperiodic_characterization():
    # with a nonempty bad set no point has canonical height 1
    phi = validate_phi(F5.poly_t(), 2)
    rng = random.Random(9)
    for x in _random_elements(F5, rng, 200):
        assert canonical_height_exp(x, phi) > 0
    # good reduction: exactly the constants have m = 0
    good = validate_phi(F5.poly_one(), 2)
    for x in _random_elements(F5, rng, 200):
        assert (canonical_height_exp(x, good) == 0) == (standard_height_exp(x) == 0)


def test_realize_phi_from_abstract_data():
    phi = realize_phi(F5, [(1, 1), (2, 1)], 2)
    assert sorted((bp.f_v, bp.vf) for bp in phi.bad_places) == [(1, 1), (2, 1)]
    phi2 = realize_phi(F2, [(1, 1), (1, 1)], 2)
    assert len(phi2.bad_places) == 2
    with pytest.raises(ValueError, match="not enough irreducibles"):
        realize_phi(F2, [(1, 1), (1, 1), (1, 1)], 2)
