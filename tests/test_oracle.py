from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heightzeta.oracle as oracle
from heightzeta.fqt import all_polys, irreducibles_up_to, monic_polys, poly_from_string
from heightzeta.gf import FqField, PolyFq
from heightzeta.oracle import (
    BudgetExceeded,
    count_canonical_heights,
    count_region,
    count_regions,
    cumulative_count,
    enumerate_elements,
    enumeration_size,
    max_height_exponent_within_budget,
)
from heightzeta.places import BadPlace, canonical_height_exp, standard_height_exp, validate_phi

F2 = FqField(2)
F3 = FqField(3)
F4 = FqField(2, 2, (1, 1, 1))
F5 = FqField(5)
F8 = FqField(2, 3, (1, 1, 0, 1))
F9 = FqField(3, 2, (1, 0, 1))
F29 = FqField(29)


def test_enumeration_counts():
    assert len(list(enumerate_elements(F5, 0))) == 5
    elements = list(enumerate_elements(F5, 1))
    assert len(elements) == 125 == enumeration_size(5, 1)
    assert len(set(elements)) == 125
    assert len(list(enumerate_elements(F2, 2))) == 32


def test_enumeration_is_canonical_and_deterministic():
    first = list(enumerate_elements(F3, 2))
    second = list(enumerate_elements(F3, 2))
    assert first == second
    for x in first:
        assert x.den.is_monic() or x.num.is_zero()
        if not x.num.is_zero():
            assert x.num.gcd(x.den).is_one()
        assert max(x.num.degree, x.den.degree) <= 2


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 10**4)
    with pytest.raises(BudgetExceeded):
        list(enumerate_elements(F5, 4))
    # override allows it
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 10**2)
    phi = validate_phi(F5.poly_t(), 2)
    table = count_canonical_heights(phi, 4, override=True)
    assert table[1] == 5
    monkeypatch.undo()
    assert max_height_exponent_within_budget(5) == 5
    assert max_height_exponent_within_budget(2) == 12


def test_count_anchor_values():
    phi = validate_phi(F5.poly_t(), 2)
    table = count_canonical_heights(phi, 3)
    assert [table[m] for m in range(4)] == [0, 5, 20, 100]
    # good reduction: only the constants sit at height 1
    phi0 = validate_phi(F5.poly_one(), 2)
    assert count_canonical_heights(phi0, 2)[0] == 5


@pytest.mark.parametrize(
    "q,f_text,d,m_max",
    [
        (2, "t", 2, 8),
        (2, "t^2+t", 3, 9),
        (3, "t+1", 2, 8),
        (5, "t", 2, 6),
        (5, "t^2", 3, 7),
    ],
)
def test_fast_and_enumerate_paths_agree(q, f_text, d, m_max):
    field = FqField(q)
    phi = validate_phi(poly_from_string(field, f_text), d)
    fast = count_canonical_heights(phi, m_max, method="fast")
    slow = count_canonical_heights(phi, m_max, method="enumerate")
    assert fast.counts == slow.counts


def test_fast_and_enumerate_paths_agree_fuzz():
    import random

    from heightzeta.gf import PolyFq

    rng = random.Random(2024)
    cases = 0
    while cases < 12:
        q = rng.choice((2, 3))
        field = FqField(q)
        deg = rng.randrange(1, 5)
        f = PolyFq(field, [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])
        d = rng.choice((2, 3))
        try:
            phi = validate_phi(f, d)
        except ValueError:
            continue
        m_max = rng.randrange(4, 9)
        fast = count_canonical_heights(phi, m_max, method="fast")
        slow = count_canonical_heights(phi, m_max, method="enumerate")
        assert fast.counts == slow.counts, (q, f, d)
        cases += 1


def test_scaling_symmetry_divisibility():
    # height classes are unions of F_q^* scaling orbits plus possibly {0}
    for q, f_text, d in [(3, "t", 2), (5, "t+1", 2), (5, "t^2+t", 3)]:
        field = FqField(q)
        phi = validate_phi(poly_from_string(field, f_text), d)
        from heightzeta.fqt import RatFuncFq
        from heightzeta.places import canonical_height_exp

        zero_m = canonical_height_exp(RatFuncFq(field.poly(()), field.poly_one()), phi)
        table = count_canonical_heights(phi, 2 * d)
        for m, count in table.counts.items():
            adjusted = count - (1 if m == zero_m else 0)
            assert adjusted % (q - 1) == 0


REGION_CASES = pytest.mark.parametrize(
    "field, method",
    [(F5, "fast"), (F5, "enumerate"), (F4, "fast"), (F4, "enumerate")],
    ids=["F5-fast", "F5-enumerate", "F4-fast", "F4-enumerate"],
)


@REGION_CASES
def test_region_counts_and_partition(field, method):
    q = field.q
    phi = validate_phi(field.poly_t(), 2)
    # v_t(x) < 0 at height 1: x = a/t with a of degree <= 1 and a(0) != 0
    assert count_region(phi, set(), 1, method=method).counts == {1: (q - 1) * q}
    assert count_region(phi, {0}, 1, method=method).counts == {0: q, 1: q**3 - q - (q - 1) * q}
    # regions partition all elements of each height: q^(2h+1) - q^(2h-1) of height h >= 1
    total = Counter()
    for table in count_regions(phi, 2, method=method).values():
        total.update(table.counts)
    assert total == {0: q, 1: q**3 - q, 2: q**5 - q**3}


@REGION_CASES
def test_region_shift_reconciliation(field, method):
    # canonical-height counts are the region histograms shifted by the
    # correction sum of the free places
    phi = validate_phi(poly_from_string(field, "t^2+t"), 2)
    assert len(phi.bad_places) == 2
    d = 2
    h_max = 2
    canonical = count_canonical_heights(phi, d * h_max, method=method)
    rebuilt = {}
    for t_set, table in count_regions(phi, h_max, method=method).items():
        shift = sum(phi.bad_places[i].f_v * phi.bad_places[i].vf for i in t_set)
        for h, c in table.counts.items():
            m = d * h + shift
            rebuilt[m] = rebuilt.get(m, 0) + c
    for m in range(d * h_max + 1):
        assert rebuilt.get(m, 0) == canonical[m]


@REGION_CASES
def test_count_regions_projects_one_tally(field, method):
    # every region's table is count_region's, and together they count every x by height
    phi = validate_phi(poly_from_string(field, "t^2+t"), 2)
    h_max = 2
    regions = count_regions(phi, h_max, method=method)
    assert set(regions) <= {frozenset(t) for t in [(), (0,), (1,), (0, 1)]}
    for r in range(3):
        for t_set in combinations(range(2), r):
            table = count_region(phi, t_set, h_max, method=method)
            assert table == regions.get(frozenset(t_set), table)
            assert (frozenset(t_set) in regions) == bool(table.counts)
    standard = Counter(standard_height_exp(x) for x in enumerate_elements(field, h_max))
    total = Counter()
    for table in regions.values():
        total.update(table.counts)
    assert total == standard


def test_cumulative_count_examples():
    phi = validate_phi(F5.poly_t(), 2)
    assert cumulative_count(phi, 2) == 25
    assert cumulative_count(phi, 0) == 0
    phi0 = validate_phi(F5.poly_one(), 2)
    assert cumulative_count(phi0, 2) == 125


def test_count_region_rejects_unknown_bad_indices():
    phi = validate_phi(poly_from_string(F5, "t^2+t"), 2)
    assert len(phi.bad_places) == 2
    for t_set in ({7}, {2}, {-1}, {0, 5}):
        for method in ("fast", "enumerate"):
            with pytest.raises(ValueError, match="not in range"):
                count_region(phi, t_set, 2, method=method)


def test_unknown_method_is_reported_before_the_budget():
    phi = validate_phi(F5.poly_t(), 2)
    # both bounds are far past the budget: the method is checked first
    with pytest.raises(ValueError, match="unknown counting method"):
        count_canonical_heights(phi, 40, method="bogus")
    with pytest.raises(ValueError, match="unknown counting method"):
        count_region(phi, set(), 20, method="bogus")
    with pytest.raises(BudgetExceeded):
        count_canonical_heights(phi, 40)


def test_count_table_refuses_an_untabulated_m():
    phi = validate_phi(F5.poly_t(), 2)
    table = count_canonical_heights(phi, 7)
    assert table[7] == table.counts[7] > 0
    for m in (8, 100, -1):
        with pytest.raises(IndexError, match=f"m = {m} .*max_m = 7"):
            table[m]
    region = count_region(phi, {0}, 2)
    assert region[2] == region.counts[2]
    with pytest.raises(IndexError, match="max_m = 2"):
        region[3]


def test_negative_bounds_are_refused():
    phi = validate_phi(F5.poly_t(), 2)
    for method in ("fast", "enumerate"):
        for bound in (-1, -5):
            with pytest.raises(ValueError, match="must be >= 0"):
                count_canonical_heights(phi, bound, method=method)
            with pytest.raises(ValueError, match="must be >= 0"):
                count_region(phi, set(), bound, method=method)
    with pytest.raises(ValueError, match="must be >= 0"):
        cumulative_count(phi, -1)
    # a bound of 0 still counts
    assert count_canonical_heights(phi, 0).counts == {}
    assert count_region(phi, {0}, 0).counts == {0: 5}


def _reference_unit_count(den):
    """#(F_q[t]/den)^* from the factorization: prod of |pi|^k - |pi|^(k-1)."""
    q = den.field.q
    total = 1
    for pi, k in den.factor()[1]:
        total *= q ** (pi.degree * k) - q ** (pi.degree * (k - 1))
    return total


def _bad_places(field):
    """Two degree-1 places and the first degree-2 place, as bad places."""
    quad = next(p for p in monic_polys(field, 2) if p.is_irreducible())
    pis = list(monic_polys(field, 1))[:2] + [quad]
    return tuple(BadPlace(f_v=pi.degree, vf=1, pi=pi) for pi in pis)


def _assert_sieve_matches_factorization(field, n, bad):
    # the sieve's unit counts, den by den, and the recursion's split of their row sums
    # by exact set of bad divisors, against the unit counts of the factorization
    expected: Counter = Counter()  # (b, mask) -> units summed over the dens of degree b
    degrees = []
    for b, units in oracle._sieve(field, n):
        dens = list(monic_polys(field, b))
        assert len(dens) == len(units) == field.q**b
        for den, u in zip(dens, units):
            assert u == _reference_unit_count(den), den
            mask = sum(1 << i for i, bp in enumerate(bad) if (den % bp.pi).is_zero())
            expected[b, mask] += u
        degrees.append(b)
    assert degrees == list(range(n + 1))
    split = oracle._unit_sums(field, n, bad, lambda mask: n)
    got = {(b, mask): s for mask, (deg, sums) in split.items()
           for b, s in zip(range(deg, n + 1), sums) if s}
    assert got == expected


@pytest.mark.parametrize(
    "field, n", [(F2, 8), (F3, 5), (F5, 4), (F4, 3), (F8, 3), (F9, 3)],
    ids=lambda x: getattr(x, "q", x),
)
def test_sieve_matches_factorization(field, n):
    _assert_sieve_matches_factorization(field, n, _bad_places(field))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", [F2, F3, F4, F5, F8, F9], ids=lambda f: f.q)
def test_sieve_sets_the_bit_of_a_bad_place_of_degree_n(field, n):
    # the sieve walks no irreducible of degree n, yet the split must still count one that
    # is bad under its bit, from the row sum at degree n and the lower degrees
    top = [pi for pi in monic_polys(field, n) if pi.is_irreducible()]
    pis = {top[0], top[-1], next(monic_polys(field, 1))}
    bad = tuple(BadPlace(f_v=pi.degree, vf=1, pi=pi) for pi in sorted(pis, key=lambda pi: pi.coeffs))
    _assert_sieve_matches_factorization(field, n, bad)


F7 = FqField(7)
SIEVE_FIELDS = {2: (F2, 6), 3: (F3, 4), 4: (F4, 3), 5: (F5, 3), 7: (F7, 2), 8: (F8, 2), 9: (F9, 2)}


@lru_cache(maxsize=None)
def _places_of_degree_at_most_3(q):
    return irreducibles_up_to(SIEVE_FIELDS[q][0], 3)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(SIEVE_FIELDS)),
    size=st.integers(0, 6),
    picks=st.sets(st.integers(0, 10**6), max_size=4),
)
def test_sieve_rows_match_factorization_for_any_bad_set(q, size, picks):
    # a random set of places of degree 1-3, each checked against den's factorization
    field, n_max = SIEVE_FIELDS[q]
    irr = _places_of_degree_at_most_3(q)
    pis = sorted({irr[i % len(irr)] for i in picks}, key=lambda pi: (pi.degree, pi.coeffs))
    bad = tuple(BadPlace(f_v=pi.degree, vf=1, pi=pi) for pi in pis)
    _assert_sieve_matches_factorization(field, min(size, n_max), bad)


# per q: the largest n at which enumerate stays within a few tens of ms
DEPTH_FIELDS = {2: (F2, 6), 3: (F3, 4), 4: (F4, 3), 5: (F5, 2), 9: (F9, 2)}


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from(sorted(DEPTH_FIELDS)),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 3)), max_size=3),
    lead=st.integers(1, 8),
    d=st.integers(2, 4),
    size=st.integers(0, 6),
    residue=st.integers(0, 3),
)
@example(q=5, picks=[(0, 3), (5, 3), (6, 3)], lead=1, d=4, size=1, residue=3)  # m_max 7 < weight 15
def test_fast_reads_as_deep_as_enumerate(q, picks, lead, d, size, residue):
    # 0-3 bad places of degree 1-2 and m_max in every class mod d, also below the total
    # weight, where some sets of bad places are read at no height at all
    field, n_max = DEPTH_FIELDS[q]
    irr = [pi for pi in _places_of_degree_at_most_3(q) if pi.degree <= 2]
    f = field.poly((lead % (q - 1) + 1,))
    for pi, k in {irr[i % len(irr)]: min(k, d - 1) for i, k in picks}.items():
        f = f * pi.pow_(k)
    phi = validate_phi(f, d)
    m_max = d * min(size, n_max) + residue % d
    fast = count_canonical_heights(phi, m_max, method="fast")
    assert fast.counts == count_canonical_heights(phi, m_max, method="enumerate").counts


@pytest.mark.parametrize(
    "field, f_text, d", [(F2, "t", 2), (F3, "t^2+t", 3), (F5, "t^3+2t", 3), (F9, "t^2+1", 2)],
    ids=lambda x: getattr(x, "q", x),
)
def test_the_sieve_runs_only_as_deep_as_the_request_reads(monkeypatch, field, f_text, d):
    # at m_max = d*n with a bad place, a set M of bad places is read up to height n only if it
    # holds every place, and then from degree deg P_M >= 1 on: no T_b above b = n - 1 is needed
    depths = []
    sieve = oracle._sieve
    monkeypatch.setattr(oracle, "_sieve", lambda field, n: depths.append(n) or sieve(field, n))
    phi = validate_phi(poly_from_string(field, f_text), d)
    assert phi.bad_places
    n = 3
    count_canonical_heights(phi, d * n)
    count_regions(phi, n)
    assert depths[0] < n == depths[1]
    depths.clear()
    count_canonical_heights(validate_phi(field.poly_one(), d), d * n)  # no bad place
    assert depths == [n]


def test_many_bad_places_split_without_walking_every_subset():
    # 24 places of degree 1: the split visits the 25 sets of total degree <= 1, not 2^24
    f = F29.poly_one()
    for c in range(24):
        f = f * PolyFq(F29, (c, 1))
    phi = validate_phi(f, 30)
    assert len(phi.bad_places) == 24
    # below the total weight 24 nothing is read; 30 reads height 0 with no bad divisor,
    # 53 adds height 1 with one bad divisor, and 59 every x of height <= 1
    for m_max in (20, 30, 53, 59):
        fast = count_canonical_heights(phi, m_max)
        assert fast.counts == count_canonical_heights(phi, m_max, method="enumerate").counts
    assert count_regions(phi, 1) == count_regions(phi, 1, method="enumerate")


@pytest.mark.parametrize("method", ["fast", "enumerate"])
@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8, F9, F29], ids=lambda f: f.q)
def test_the_denominator_one_counts_zero_and_the_constants_at_height_0(field, method):
    # only the denominator 1 reaches height 0: x = 0 and the q - 1 nonzero constants
    for n in (0, 1):
        assert oracle._tally(field, n, (), lambda mask: n, method)[0, 0] == field.q


@pytest.mark.parametrize(
    "field, lin, quad, d, n",
    [(F4, (2, 1), (2, 1, 1), 3, 3), (F9, (4, 1), (3, 1, 1), 3, 2)],
    ids=["F4", "F9"],
)
def test_fast_and_enumerate_agree_over_extension_fields(field, lin, quad, d, n):
    # f = pi1^2 * pi2: a repeated degree-1 factor and a degree-2 bad place
    pi1, pi2 = PolyFq(field, lin), PolyFq(field, quad)
    assert pi1.is_irreducible() and pi2.is_irreducible()
    phi = validate_phi(pi1 * pi1 * pi2, d)
    assert sorted((bp.f_v, bp.vf) for bp in phi.bad_places) == [(1, 2), (2, 1)]
    m_max = phi.d * n
    fast = count_canonical_heights(phi, m_max, method="fast")
    slow = count_canonical_heights(phi, m_max, method="enumerate")
    assert fast.counts == slow.counts
    assert count_regions(phi, n, method="fast") == count_regions(phi, n, method="enumerate")


def _reference_elements(field, n):
    """(num, den) in the enumeration order, by a gcd test on every pair."""
    for b in range(n + 1):
        for den in monic_polys(field, b):
            for num in all_polys(field, n):
                if den.is_one() or num.gcd(den).is_one():
                    yield num, den


@pytest.mark.parametrize(
    "field, n", [(F2, 4), (F3, 2), (F4, 2), (F5, 1), (F9, 1)], ids=lambda x: getattr(x, "q", x)
)
def test_element_stream_matches_the_pairwise_reference(field, n):
    got = [(x.num, x.den) for x in enumerate_elements(field, n)]
    assert got == list(_reference_elements(field, n))


@settings(max_examples=60)
@given(
    q=st.sampled_from([2, 3, 5]),
    coeffs=st.lists(st.integers(0, 4), max_size=4),
    lead=st.integers(1, 4),
    d=st.sampled_from([2, 3]),
    size=st.integers(1, 4),
    extra=st.integers(0, 2),
)
@example(q=2, coeffs=[0, 0, 1], lead=1, d=3, size=4, extra=0)  # t^2 (t+1): numerators carry t^2
@example(q=3, coeffs=[1, 0], lead=1, d=2, size=2, extra=0)  # t^2+1: a bad place of degree 2
def test_enumerate_counts_equal_the_definitional_tally(q, coeffs, lead, d, size, extra):
    field = FqField(q)
    f = PolyFq(field, [c % q for c in coeffs] + [lead % q or 1])
    try:
        phi = validate_phi(f, d)
    except ValueError:
        assume(False)
    n = min(size, {2: 4, 3: 2, 5: 1}[q])
    m_max = d * n + extra % d
    elements = list(enumerate_elements(field, n))
    # every x with m <= m_max has standard height exponent <= m_max // d = n
    heights = Counter(canonical_height_exp(x, phi) for x in elements)
    expected = {m: c for m, c in heights.items() if m <= m_max}
    assert count_canonical_heights(phi, m_max, method="enumerate").counts == expected
    assert count_canonical_heights(phi, m_max, method="fast").counts == expected
    # x is in D_T when exactly the bad places outside T divide its denominator
    regions: dict = {}
    for x in elements:
        t_set = frozenset(i for i, bp in enumerate(phi.bad_places) if not (x.den % bp.pi).is_zero())
        regions.setdefault(t_set, Counter())[standard_height_exp(x)] += 1
    for method in ("enumerate", "fast"):
        tables = count_regions(phi, n, method=method)
        assert {t_set: table.counts for t_set, table in tables.items()} == regions


@settings(max_examples=60)
@given(
    field=st.sampled_from([F2, F3, F4, F5, F8, F9]),
    coeffs=st.lists(st.integers(0, 8), max_size=4),
)
@example(field=F9, coeffs=[5, 7, 1, 0])  # early in the degree-4 walk, which builds every column
def test_unit_table_matches_gcd(field, coeffs):
    # den = coeffs + [1]; its table is read at every residue r of degree < deg den, by code
    den = PolyFq(field, [c % field.q for c in coeffs] + [1])
    units = next(u for m, u in oracle._unit_tables(field, den.degree, {}) if m == den)
    residues = list(all_polys(field, den.degree - 1))
    assert len(units) == len(residues) == field.q**den.degree
    assert list(units) == [int(r.gcd(den).is_one()) for r in residues]


@pytest.mark.parametrize("column_bytes", [1, 50])
def test_unit_tables_do_not_depend_on_the_column_budget(monkeypatch, column_bytes):
    # a small budget splits each degree's denominators into runs, down to one per run
    cases = [(F3, 3), (F4, 3), (F5, 2), (F8, 2)]
    expected = [list(oracle._unit_tables(field, n, {})) for field, n in cases]
    monkeypatch.setattr(oracle, "COLUMN_BYTES", column_bytes)
    assert [list(oracle._unit_tables(field, n, {})) for field, n in cases] == expected


def _digit_walk(p, digits, images, carries):
    """Reference walk: add images[0..K] to the digits one digit at a time, mod p."""
    digits = list(digits)
    codes = [sum(w * p**i for i, w in enumerate(digits))]
    for k in carries:
        for image in images[: k + 1]:
            for i, w in enumerate(image):
                digits[i] = (digits[i] + w) % p
        codes.append(sum(w * p**i for i, w in enumerate(digits)))
    return codes


@settings(max_examples=80)
@given(
    p=st.sampled_from([2, 3, 5]),
    size=st.integers(1, 12),
    data=st.data(),
)
def test_a_counter_walk_adds_the_step_images_digit_by_digit(p, size, data):
    # the walk takes each image as its code; for p = 2 a step is one XOR of the prefix XOR
    # of the codes, and the reference adds the images' digits one by one
    digit = st.integers(0, p - 1)
    digits = data.draw(st.lists(digit, min_size=size, max_size=size))
    images = data.draw(st.lists(st.lists(digit, min_size=1, max_size=size), min_size=1, max_size=6))
    carries = data.draw(st.lists(st.integers(0, len(images) - 1), max_size=40))
    code = sum(w * p**i for i, w in enumerate(digits))
    codes = [sum(w * p**i for i, w in enumerate(image)) for image in images]
    walk = oracle._affine_codes(p, list(digits), code, oracle._counter_steps(p, codes), carries)
    assert list(walk) == _digit_walk(p, digits, images, carries)


@settings(max_examples=80)
@given(
    field=st.sampled_from([F2, F3, F4, F5, F9]),
    mod_low=st.lists(st.integers(0, 8), max_size=3),
    start=st.lists(st.integers(0, 8), max_size=5),
    size=st.integers(0, 3),
    data=st.data(),
)
def test_residue_codes_list_the_residues_of_start_plus_every_g(field, mod_low, start, size, data):
    # the codes of (start + g) mod mod for g of degree < size in code order, start mod mod at 0:
    # read through the table of every code they come back unchanged, and through any table
    # as that table's entries; the two reads share one plan, at sizes that may differ
    q = field.q
    mod = PolyFq(field, [c % q for c in mod_low] + [1])
    start = PolyFq(field, [c % q for c in start])

    def residues(size):
        return [oracle._code(field, (start + g) % mod) for g in all_polys(field, size - 1)]

    plan: dict = {}
    first = data.draw(st.integers(0, 3))
    table = data.draw(st.binary(min_size=q**mod.degree, max_size=q**mod.degree))
    got = oracle._read_residues(field, plan, mod, start, first, table)
    assert list(got) == [table[code] for code in residues(first)]
    codes = range(q**mod.degree)
    assert list(oracle._read_residues(field, plan, mod, start, size, codes)) == residues(size)


@pytest.mark.parametrize(
    "field, n", [(F2, 5), (F3, 3), (F4, 2), (F5, 2), (F9, 2)], ids=lambda x: getattr(x, "q", x)
)
def test_a_count_builds_the_steps_of_each_walked_modulus_once(monkeypatch, field, n):
    # one _counter_steps call per distinct modulus an enumerate count walks (the number j of
    # low digits read by slice is the modulus's own in every walk that steps), and no plan
    # outlives its count: a second count builds them all again
    steps, read = oracle._counter_steps, oracle._read_residues
    calls, walked = [], set()
    monkeypatch.setattr(oracle, "_counter_steps",
                        lambda p, images: calls.append(p) or steps(p, images))

    def spy(field, plan, mod, start, size, table):
        if mod.degree:  # mod 1 is read without a walk
            walked.add(mod)
        return read(field, plan, mod, start, size, table)

    monkeypatch.setattr(oracle, "_read_residues", spy)
    phi = validate_phi(poly_from_string(field, "t^2+t"), 2)
    oracle.count_canonical_heights(phi, 2 * n, method="enumerate")
    assert len(calls) == len(walked) == (field.q ** (n + 1) - field.q) // (field.q - 1)
    oracle.count_canonical_heights(phi, 2 * n, method="enumerate")
    assert len(calls) == 2 * len(walked)
