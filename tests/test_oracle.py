import pytest

import heightzeta.oracle as oracle
from heightzeta.gf import FqField, poly_from_string
from heightzeta.oracle import (
    BudgetExceeded,
    count_canonical_heights,
    count_region,
    cumulative_count,
    enumerate_elements,
    enumeration_size,
    max_height_exponent_within_budget,
)
from heightzeta.places import validate_phi

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)


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
        from heightzeta.gf import RatFuncFq
        from heightzeta.places import canonical_height_exp

        zero_m = canonical_height_exp(RatFuncFq(field.poly(()), field.poly_one()), phi)
        table = count_canonical_heights(phi, 2 * d)
        for m, count in table.counts.items():
            adjusted = count - (1 if m == zero_m else 0)
            assert adjusted % (q - 1) == 0


def test_region_counts_and_partition():
    phi = validate_phi(F5.poly_t(), 2)
    assert count_region(phi, {0}, 1).counts == {0: 5, 1: 100}
    assert count_region(phi, set(), 1).counts == {1: 20}
    # regions partition all elements of each height
    total = {}
    for t_set in [set(), {0}]:
        for h, c in count_region(phi, t_set, 2).counts.items():
            total[h] = total.get(h, 0) + c
    assert total == {0: 5, 1: 120, 2: 3000}
    fast = count_region(phi, {0}, 2, method="fast").counts
    slow = count_region(phi, {0}, 2, method="enumerate").counts
    assert fast == slow


def test_region_shift_reconciliation():
    # canonical-height counts are the region histograms shifted by the
    # correction sum of the free places
    field = F5
    phi = validate_phi(poly_from_string(field, "t^2+t"), 2)
    d = 2
    h_max = 2
    canonical = count_canonical_heights(phi, d * h_max)
    rebuilt = {}
    for t_set in [(), (0,), (1,), (0, 1)]:
        shift = sum(phi.bad_places[i].f_v * phi.bad_places[i].vf for i in t_set)
        for h, c in count_region(phi, t_set, h_max).counts.items():
            m = d * h + shift
            rebuilt[m] = rebuilt.get(m, 0) + c
    for m in range(d * h_max + 1):
        assert rebuilt.get(m, 0) == canonical[m]


def test_cumulative_count_examples():
    phi = validate_phi(F5.poly_t(), 2)
    assert cumulative_count(phi, 2) == 25
    assert cumulative_count(phi, 0) == 0
    phi0 = validate_phi(F5.poly_one(), 2)
    assert cumulative_count(phi0, 2) == 125
