import random

import pytest

from heightzeta.gf import (
    FqField,
    PolyFq,
    RatFuncFq,
    all_polys,
    irreducibles_up_to,
    monic_polys,
    poly_from_string,
    poly_to_string,
    ratfunc_compose_power_plus,
    ratfunc_from_poly,
    residue_square_class,
)

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)
F9 = FqField(3, 2, (1, 0, 1))


def test_prime_field_arithmetic():
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.pow_(2, -1) == 3
    assert F5.sub(1, 4) == 2
    assert F5.div(2, 4) == 3  # 2 * 4^-1 = 2*4 = 8 = 3


def test_extension_field_modulus_relation():
    y = F9.from_vector((0, 1))
    assert F9.mul(y, y) == F9.from_int(-1) == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        F9.div(1, 0)


def test_bad_field_parameters():
    with pytest.raises(ValueError):
        FqField(4)
    with pytest.raises(ValueError):
        FqField(3, 2)  # missing modulus
    with pytest.raises(ValueError, match="reducible"):
        FqField(3, 2, (2, 0, 1))  # y^2 + 2 = (y+1)(y+2) over F_3


@pytest.mark.parametrize(
    "field",
    [F2, F3, F5, FqField(7), F9, FqField(2, 3, (1, 1, 0, 1)), FqField(5, 2, (2, 0, 1))],
    ids=lambda f: f"q{f.q}",
)
def test_field_axioms_random_triples(field):
    rng = random.Random(field.q)
    for _ in range(200):
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
        # pow by square-and-multiply agrees with repeated multiplication
        n = rng.randrange(1, 9)
        acc = 1
        for _ in range(n):
            acc = field.mul(acc, a)
        assert field.pow_(a, n) == acc


def test_factor_examples():
    unit, factors = poly_from_string(F5, "t^2+2t").factor()
    assert unit == 1
    assert [(poly_to_string(p), m) for p, m in factors] == [("t", 1), ("t+2", 1)]

    unit, factors = poly_from_string(F5, "t^2").factor()
    assert factors == [(F5.poly_t(), 2)]

    f = poly_from_string(F3, "t^2+1")
    # irreducible because -1 has no root mod 3: exhaustive evaluation
    assert all(f.eval(x) != 0 for x in F3.elements())
    assert f.factor()[1] == [(f, 1)]

    with pytest.raises(ValueError):
        PolyFq(F5, ()).factor()


@pytest.mark.parametrize("field", [F2, F3, F5, F9], ids=lambda f: f"q{f.q}")
def test_factor_round_trip_random(field):
    rng = random.Random(42 + field.q)
    for _ in range(250):
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(field.q) for _ in range(deg)] + [
            rng.randrange(1, field.q)
        ]
        f = PolyFq(field, coeffs)
        if f.is_zero():
            continue
        unit, factors = f.factor()
        product = PolyFq(field, (unit,))
        for p, mult in factors:
            assert p.is_monic() and p.is_irreducible()
            product = product * p.pow_(mult)
        assert product == f


def _moebius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def _necklace_count(q, k):
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    return sum(_moebius(k // d) * q**d for d in divisors) // k


@pytest.mark.parametrize("q", [2, 3, 5])
def test_irreducible_counts_match_necklace_formula(q):
    field = FqField(q)
    irr = irreducibles_up_to(field, 6)
    by_degree = {}
    for p in irr:
        by_degree[p.degree] = by_degree.get(p.degree, 0) + 1
    for k in range(1, 7):
        assert by_degree.get(k, 0) == _necklace_count(q, k)


def test_irreducibles_small_examples():
    assert len([p for p in irreducibles_up_to(F5, 1)]) == 5
    assert [poly_to_string(p) for p in irreducibles_up_to(F2, 2)] == [
        "t",
        "t+1",
        "t^2+t+1",
    ]
    assert sum(1 for p in irreducibles_up_to(F3, 2) if p.degree == 2) == 3


def test_residue_square_class_examples():
    t = F5.poly_t()
    assert residue_square_class(poly_from_string(F5, "t^3+3"), t) == "nonsquare"
    assert residue_square_class(poly_from_string(F5, "t^3+1"), t) == "square"
    assert residue_square_class(poly_from_string(F5, "t^3+t"), t) == "zero"
    with pytest.raises(ValueError, match="char 2"):
        residue_square_class(F2.poly_t(), poly_from_string(F2, "t+1"))


@pytest.mark.parametrize("field", [F3, F5, FqField(7), F9], ids=lambda f: f"q{f.q}")
def test_residue_square_class_vs_exhaustive_search(field):
    rng = random.Random(field.q)
    pis = [p for p in irreducibles_up_to(field, 2)]
    for pi in pis:
        residues = list(all_polys(field, pi.degree - 1))
        squares = {(r * r % pi).coeffs for r in residues if not (r % pi).is_zero()}
        for _ in range(20):
            h = PolyFq(field, [rng.randrange(field.q) for _ in range(4)])
            got = residue_square_class(h, pi)
            r = h % pi
            if r.is_zero():
                assert got == "zero"
            elif r.coeffs in squares:
                assert got == "square"
            else:
                assert got == "nonsquare"


def test_large_extension_field_without_tables():
    # q = 5^6 = 15625 is past the table threshold; generic arithmetic applies
    field = FqField(5, 6, (2, 1, 0, 0, 0, 0, 1))  # t^6 + t + 2, irreducible
    assert field._mul_table is None
    rng = random.Random(77)
    for _ in range(40):
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        if a:
            assert field.mul(a, field.inv(a)) == 1
    y = field.from_vector((0, 1, 0, 0, 0, 0))
    assert field.pow_(y, 6) == field.neg(field.from_vector((2, 1, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match="2\\^20"):
        FqField(2, 21, tuple([1] * 22))


def test_ratfunc_reduces_to_lowest_terms():
    x = RatFuncFq(poly_from_string(F5, "2t+2"), F5.poly((2,)))
    assert poly_to_string(x.num) == "t+1" and x.den.is_one()
    y = RatFuncFq(poly_from_string(F5, "t^2-1"), poly_from_string(F5, "t-1"))
    assert poly_to_string(y.num) == "t+1" and y.den.is_one()
    with pytest.raises(ZeroDivisionError):
        RatFuncFq(F5.poly_t(), F5.poly(()))


def test_ratfunc_arithmetic_and_phi_evaluation():
    t = ratfunc_from_poly(F5.poly_t())
    phi_t = ratfunc_compose_power_plus(t, 2, F5.poly_t())
    assert poly_to_string(phi_t.num) == "t^3+1"
    assert poly_to_string(phi_t.den) == "t"
    # field-style identities in F_q(t)
    a = RatFuncFq(poly_from_string(F5, "t+2"), poly_from_string(F5, "t^2+2"))
    b = RatFuncFq(F5.poly_t(), poly_from_string(F5, "t+1"))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == ratfunc_from_poly(F5.poly_one())


def test_poly_text_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        f = PolyFq(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 7))])
        assert poly_from_string(F5, poly_to_string(f)) == f
    assert poly_to_string(PolyFq(F5, ())) == "0"
    assert poly_to_string(poly_from_string(F5, "3t^2 + 0t + 4")) == "3t^2+4"
    assert poly_from_string(F5, "-t+7") == poly_from_string(F5, "4t+2")
    with pytest.raises(ValueError, match="malformed"):
        poly_from_string(F5, "t^^3")
    with pytest.raises(ValueError):
        poly_from_string(F5, "")


def test_monic_enumeration_order_is_deterministic():
    first = [poly_to_string(p) for p in monic_polys(F3, 2)]
    second = [poly_to_string(p) for p in monic_polys(F3, 2)]
    assert first == second
    assert len(first) == 9 and len(set(first)) == 9
