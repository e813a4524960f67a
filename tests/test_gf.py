import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heightzeta.gf import (
    FqField,
    PolyFq,
    RatFuncFq,
    _prime_divisors,
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
F4 = FqField(2, 2, (1, 1, 1))
F5 = FqField(5)
F9 = FqField(3, 2, (1, 0, 1))


def test_prime_field_arithmetic():
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.pow_(2, -1) == 3
    assert F5.pow_(2, 0) == F5.pow_(0, 0) == 1
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        F5.pow_(0, -1)
    assert F5.sub(1, 4) == 2
    assert F5.mul(2, F5.inv(4)) == 3  # 2 * 4^-1 = 2*4 = 8 = 3


def test_extension_field_modulus_relation():
    y = F9.from_vector((0, 1))
    assert F9.mul(y, y) == F9.from_int(-1) == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        F9.mul(1, F9.inv(0))


def test_bad_field_parameters():
    with pytest.raises(ValueError):
        FqField(4)
    with pytest.raises(ValueError):
        FqField(3, 2)  # missing modulus
    with pytest.raises(ValueError, match="reducible"):
        FqField(3, 2, (2, 0, 1))  # y^2 + 2 = (y+1)(y+2) over F_3
    with pytest.raises(ValueError, match="takes no modulus"):
        FqField(5, 1, (2, 1))


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
        assert field.pow_(a, 0) == 1


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


@pytest.mark.parametrize("field", [F2, F4, F9], ids=lambda f: f"q{f.q}")
def test_poly_pow_and_powmod_agree_with_repeated_multiplication(field):
    rng = random.Random(field.q)
    one = field.poly_one()
    for _ in range(20):
        f = PolyFq(field, [rng.randrange(field.q) for _ in range(rng.randrange(0, 4))])
        mod = PolyFq(field, [rng.randrange(field.q) for _ in range(3)] + [1])
        acc = one
        for n in range(9):
            assert f.pow_(n) == acc
            assert f.powmod(n, mod) == acc % mod
            acc = acc * f
    assert field.poly_t().pow_(0) == one
    # x^0 modulo a unit is the zero class, as for any other exponent
    assert field.poly_t().powmod(0, one).is_zero()


def _has_proper_factor(f):
    """Trial division: some monic of degree 1..deg(f)//2 divides f."""
    return any(
        (f % g).is_zero()
        for k in range(1, f.degree // 2 + 1)
        for g in monic_polys(f.field, k)
    )


@pytest.mark.parametrize(
    "field, max_degree", [(F2, 8), (F3, 6), (F4, 5), (F9, 4)], ids=lambda x: getattr(x, "q", x)
)
def test_is_irreducible_agrees_with_trial_division(field, max_degree):
    rng = random.Random(field.q)

    def random_monic(lo, hi):
        degree = rng.randrange(lo, hi + 1)
        return PolyFq(field, [rng.randrange(field.q) for _ in range(degree)] + [1])

    cases = [field.poly((c,)) for c in range(field.q)]
    cases += [f for d in range(1, 4) for f in monic_polys(field, d)]
    for _ in range(60):
        g = random_monic(1, max_degree // 2)
        h = random_monic(1, max_degree // 2)
        cases += [random_monic(4, max_degree), g * g, g * h, g * g * h]
    for f in cases:
        for c in (1, rng.randrange(1, field.q)):
            scaled = f.scale(c)
            expected = scaled.degree >= 1 and not _has_proper_factor(scaled)
            assert scaled.is_irreducible() == expected, (scaled, c)


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


@pytest.mark.parametrize("q", [2, 3, 5, 4])
def test_irreducible_counts_match_necklace_formula(q):
    field = F4 if q == 4 else FqField(q)
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


def test_large_extension_field_arithmetic():
    # q = 5^6 = 15625, the largest extension field the package uses
    field = FqField(5, 6, (2, 1, 0, 0, 0, 0, 1))  # t^6 + t + 2, irreducible
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


def _reference_ops(field: FqField):
    """add, sub, neg, mul and a checked inv by PolyFq arithmetic over F_p mod the modulus."""
    base = FqField(field.p)
    modulus = PolyFq(base, field.modulus)

    def poly(a):
        return PolyFq(base, [a // field.p**i % field.p for i in range(field.e)])

    def code(f):
        return field.from_vector(f.coeffs)

    def check(a, b):
        x, y = poly(a), poly(b)
        assert field.add(a, b) == code(x + y)
        assert field.sub(a, b) == code(x - y)
        assert field.neg(a) == code(-x)
        assert field.mul(a, b) == code(x * y % modulus)
        if a:
            assert (x * poly(field.inv(a)) % modulus).is_one()

    return check


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6)])
def test_extension_field_tables_match_polynomial_arithmetic(p, e):
    # every pair, under up to three irreducible moduli; y^2+1 over F_3 is
    # among them, a modulus whose root y is not a primitive element
    moduli = [f.coeffs for f in monic_polys(FqField(p), e) if f.is_irreducible()][:3]
    for mod in moduli:
        field = FqField(p, e, mod)
        check = _reference_ops(field)
        for a in range(field.q):
            for b in range(field.q):
                check(a, b)


@pytest.mark.parametrize(
    "p, e, modulus",
    # t^6+t+2 over F_5 and t^16+t^5+t^3+t+1 over F_2
    [(5, 6, (2, 1, 0, 0, 0, 0, 1)), (2, 16, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,))],
    ids=["F5^6", "F2^16"],
)
def test_extension_field_tables_on_random_pairs(p, e, modulus):
    field = FqField(p, e, modulus)
    check = _reference_ops(field)
    rng = random.Random(p * 100 + e)
    for _ in range(2000):
        check(rng.randrange(field.q), rng.randrange(field.q))
    check(0, rng.randrange(field.q))


@pytest.mark.parametrize(
    "p, e, modulus",
    [(5, 6, (2, 1, 0, 0, 0, 0, 1)), (2, 16, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,))],
    ids=["F5^6", "F2^16"],
)
def test_log_tables_follow_their_definition(p, e, modulus):
    # g = exp[1] is the first primitive code, exp[i] is the code of g^i, and
    # log and zech are read off exp: this fixes all three lists exactly
    field = FqField(p, e, modulus)
    q, exp, log, zech = field.q, field._exp, field._log, field._zech
    base = FqField(p)
    mod = PolyFq(base, modulus)

    def poly(code):
        return PolyFq(base, [code // p**i % p for i in range(e)])

    cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]

    def primitive(code):
        return all(not poly(code).powmod(n, mod).is_one() for n in cofactors)

    g = exp[1]
    assert primitive(g) and not any(primitive(c) for c in range(2, g))
    assert exp[: q - 1] == exp[q - 1 :] and sorted(exp[: q - 1]) == list(range(1, q))
    assert all(log[exp[i]] == i for i in range(q - 1))
    rng = random.Random(q)
    for i in rng.sample(range(q - 1), 100):
        assert exp[i] == field.from_vector(poly(g).powmod(i, mod).coeffs)
        one_plus = field.from_vector((poly(exp[i]) + base.poly_one()).coeffs)
        assert zech[i] == (log[one_plus] if one_plus else -1)


def test_extension_field_of_order_4096_builds_at_once():
    modulus = poly_from_string(FqField(2), "t^12+t^3+1").coeffs
    start = time.perf_counter()
    field = FqField(2, 12, modulus)
    assert field.mul(field.inv(3), 3) == 1
    assert time.perf_counter() - start < 2


def test_extension_fields_above_2_16_are_refused():
    modulus = poly_from_string(FqField(2), "t^17+t^3+1").coeffs
    with pytest.raises(ValueError, match="2\\^16"):
        FqField(2, 17, modulus)
    with pytest.raises(ValueError, match="2\\^16"):
        FqField(3, 11, (1, 2) + (0,) * 9 + (1,))
    assert FqField(1048573).q == 1048573  # prime fields keep the 2^20 bound


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


@pytest.mark.parametrize("text", ["1_1t", "\u0663t", "t^1_0", "t^\uff13", "3\t"])
def test_poly_text_takes_only_ascii_digits(text):
    # int() reads each of these (as t, 3t, t^10, t^3 and 3)
    with pytest.raises(ValueError, match="malformed polynomial"):
        poly_from_string(F5, text)


def test_monic_enumeration_order_is_deterministic():
    first = [poly_to_string(p) for p in monic_polys(F3, 2)]
    second = [poly_to_string(p) for p in monic_polys(F3, 2)]
    assert first == second
    assert len(first) == 9 and len(set(first)) == 9
    # by code: the constant coefficient varies fastest
    assert first[:5] == ["t^2", "t^2+1", "t^2+2", "t^2+t", "t^2+t+1"]
    assert first[-1] == "t^2+2t+2"
    assert [poly_to_string(p) for p in all_polys(F2, 1)] == ["0", "1", "t", "t+1"]
    assert [poly_to_string(p) for p in monic_polys(F2, 0)] == ["1"]


# -- prime-field division kernels (gcd, ord_at, divmod) ----------------------
#
# The references below know divisibility only through multiplication: g
# divides a exactly when a is one of the products g*h.  No division runs in
# them, so the kernels are not their own reference.


def _monic_divisors(field, max_degree):
    """Each nonzero polynomial of degree <= max_degree -> the set of its monic divisors."""
    divisors = {}
    for k in range(max_degree + 1):
        for g in monic_polys(field, k):
            for h in all_polys(field, max_degree - k):
                if not h.is_zero():
                    divisors.setdefault((g * h).coeffs, set()).add(g.coeffs)
    return divisors


def _reference_gcd(a, b, divisors):
    """The monic common divisor of largest degree (0 when a = b = 0)."""
    if a.is_zero() and b.is_zero():
        return ()
    if a.is_zero() or b.is_zero():
        common = divisors[(a if b.is_zero() else b).coeffs]
    else:
        common = divisors[a.coeffs] & divisors[b.coeffs]
    return max(common, key=len)


def _reference_ord(f, pi, divisors):
    """Largest k with pi^k dividing f, by trial of the powers of monic(pi)."""
    m = pi.scale(pow(pi.leading(), -1, pi.field.p))
    k, power = 0, m
    while power.coeffs in divisors[f.coeffs]:
        k, power = k + 1, power * m
    return k


KERNEL_FIELDS = [(F2, 6), (F3, 4), (F5, 3)]


@pytest.mark.parametrize("field, max_degree", KERNEL_FIELDS, ids=lambda x: getattr(x, "q", x))
def test_prime_field_gcd_is_the_largest_monic_common_divisor(field, max_degree):
    rng = random.Random(field.q)
    divisors = _monic_divisors(field, max_degree)
    polys = list(all_polys(field, max_degree))
    small = [p for p in polys if p.degree <= 0]  # zero and the constants
    pairs = [(a, b) for a in small for b in polys] + [(b, a) for a in small for b in polys]
    pairs += [(rng.choice(polys), rng.choice(polys)) for _ in range(3000)]
    for a, b in pairs:
        g = a.gcd(b)
        assert g.coeffs == _reference_gcd(a, b, divisors), (a, b)
        assert g.is_zero() or g.is_monic()


@pytest.mark.parametrize("field, max_degree", KERNEL_FIELDS, ids=lambda x: getattr(x, "q", x))
def test_prime_field_ord_at_agrees_with_trial_division(field, max_degree):
    rng = random.Random(field.q)
    divisors = _monic_divisors(field, max_degree)
    nonzero = [p for p in all_polys(field, max_degree) if not p.is_zero()]
    # every pi of degree 1 or 2: monic or not, irreducible or not
    pis = [p for p in all_polys(field, 2) if p.degree >= 1]
    fs = nonzero if len(nonzero) * len(pis) <= 10_000 else rng.sample(nonzero, 10_000 // len(pis))
    for f in fs:
        for pi in pis:
            assert f.ord_at(pi) == _reference_ord(f, pi, divisors), (f, pi)
    with pytest.raises(ValueError):
        nonzero[0].ord_at(field.poly((1,)))
    with pytest.raises(ValueError):
        field.poly(()).ord_at(field.poly_t())


@given(
    p=st.sampled_from([2, 3, 5]),
    a=st.lists(st.integers(0, 4), max_size=12),
    b=st.lists(st.integers(0, 4), max_size=7),
    c=st.lists(st.integers(0, 4), max_size=5),
    k=st.integers(0, 3),
)
def test_prime_field_division_kernels_properties(p, a, b, c, k):
    field = FqField(p)
    a, b, c = (PolyFq(field, [x % p for x in xs]) for xs in (a, b, c))
    if not b.is_zero():
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree
        assert a % b == rem
    # gcd(a c, b c) = gcd(a, b) * monic(c), for c != 0
    if not c.is_zero():
        assert (a * c).gcd(b * c) == a.gcd(b) * c.monic()
    # ord_at counts every factor pi^k that is multiplied in
    pi = PolyFq(field, (1, 1))  # t + 1, irreducible over every F_p
    if not a.is_zero():
        assert (a * pi.pow_(k)).ord_at(pi) == a.ord_at(pi) + k


@pytest.mark.parametrize("field", [F2, F3, F4, F5, FqField(7), F9], ids=lambda f: f.q)
def test_eval_is_the_sum_of_the_terms(field):
    rng = random.Random(field.q)
    for _ in range(50):
        f = PolyFq(field, [rng.randrange(field.q) for _ in range(rng.randrange(6))])
        for x in field.elements():
            total = 0
            for i, c in enumerate(f.coeffs):
                total = field.add(total, field.mul(c, field.pow_(x, i)))
            assert f.eval(x) == total, (f, x)
