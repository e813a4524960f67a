import pytest
from hypothesis import settings

from heightzeta.fqt import poly_from_string
from heightzeta.gf import FqField
from heightzeta.oracle import count_canonical_heights, max_height_exponent_within_budget
from heightzeta.places import BadPlace
from heightzeta.zeta import ProblemSpec, from_poly

# Property tests draw the same examples on every run, and no example fails
# for taking long: host speed varies too much for a per-example deadline.
settings.register_profile("heightzeta", derandomize=True, deadline=None)
settings.load_profile("heightzeta")


def matrix_entries():
    """The genus-0 verification matrix: (field, f, d) with every v(f) < d."""
    out = []
    for q in (2, 3, 5):
        field = FqField(q)
        f_texts = ["t", "t+1", "t^2", "t^2+t"]
        if q == 3:
            f_texts.append("t^2+1")
        if q == 5:
            f_texts.append("t^2+2")
        for f_text in f_texts:
            f = poly_from_string(field, f_text)
            _, factors = f.factor()
            for d in (2, 3):
                if all(mult < d for _, mult in factors):
                    out.append((field, f, d))
    return out


def matrix_m_cap(q: int, d: int, target: int) -> int:
    """Largest coefficient index coverable within the enumeration budget."""
    return min(target, d * max_height_exponent_within_budget(q))


@pytest.fixture(scope="session")
def matrix_specs():
    return [(from_poly(field, f, d), field, f, d) for field, f, d in matrix_entries()]


@pytest.fixture(scope="session")
def matrix_count_tables(matrix_specs):
    """Canonical-height count tables for the matrix, up to the k <= 16 range."""
    tables = {}
    for spec, field, f, d in matrix_specs:
        m_max = matrix_m_cap(field.q, d, 16)
        phi = spec.phi()
        tables[(field.q, tuple(f.coeffs), d)] = count_canonical_heights(phi, m_max)
    return tables


@pytest.fixture(scope="session")
def inert_spec():
    """Genus-1 spec with one inert bad place: q=5, trace 0, d=2, (f_v, vf) = (2, 1)."""
    return ProblemSpec(
        q=5, genus=1, d=2, bad_places=(BadPlace(f_v=2, vf=1),), frobenius_trace=0
    )


@pytest.fixture(scope="session")
def split_spec():
    """Genus-1 spec with two split bad places: q=5, trace 0, d=2, twice (1, 1)."""
    return ProblemSpec(
        q=5,
        genus=1,
        d=2,
        bad_places=(BadPlace(f_v=1, vf=1), BadPlace(f_v=1, vf=1)),
        frobenius_trace=0,
    )


def _anchor(q, genus, d, places, trace=None):
    return ProblemSpec(
        q=q,
        genus=genus,
        d=d,
        bad_places=tuple(BadPlace(f_v=f_v, vf=vf) for f_v, vf in places),
        frobenius_trace=trace,
    )


# The M/L/XL rows of the ROADMAP baseline table (the S row is inert_spec).
@pytest.fixture(scope="session")
def m_anchor_spec():
    return _anchor(5, 0, 3, [(1, 1), (1, 2), (2, 1)])


@pytest.fixture(scope="session")
def l_anchor_spec():
    return _anchor(7, 1, 5, [(1, 1), (2, 3), (3, 2), (1, 4)], trace=2)


@pytest.fixture(scope="session")
def xl_anchor_spec():
    return _anchor(11, 0, 7, [(1, 1), (2, 3), (3, 2), (1, 4), (4, 6)])


@pytest.fixture(scope="session")
def d32_spec():
    """Genus-1 spec with d = 32: q=7, trace 2, 8 places (f_v, vf) = (1 + i%2, 1 + i%31)."""
    return _anchor(7, 1, 32, [(1 + i % 2, 1 + i % 31) for i in range(8)], trace=2)
