"""The package namespace: every public name loads from its module on first use."""

import importlib

import pytest

import heightzeta

# The names the package re-exported when it imported every module up front.
PUBLIC = {
    "asymptotics": [
        "AsymptoticReport", "bernoulli", "build_report", "lemma51_check", "main_term",
        "main_terms", "predicted_coefficient", "predicted_coefficients", "remainder_check",
        "stirling2", "stirling_pochhammer_check",
    ],
    "curves": ["affine_point_count", "build_genus1_spec", "frobenius_trace", "splitting_type"],
    "gf": [
        "FqField", "PolyFq", "RatFuncFq", "irreducibles_up_to", "poly_from_string",
        "poly_to_string", "residue_square_class",
    ],
    "oracle": [
        "CountTable", "count_canonical_heights", "count_region", "cumulative_count",
        "enumerate_elements",
    ],
    "places": [
        "BadPlace", "PhiSpec", "Place", "canonical_height_exp", "standard_height_exp",
        "validate_phi", "valuation",
    ],
    "qfuncs": [
        "NumberFieldElem", "PoleRecord", "QPoly", "QRatFunc", "exponent_gcd_normalize",
        "laurent_at_pole", "orbit_contribution", "orbit_contributions",
        "principal_part_remainder", "qpoly_factor", "series_coefficients",
        "split_principal_parts", "unit_disk_poles",
    ],
    "zeta": [
        "ProblemSpec", "ZetaClosedForm", "adelic_integral", "assemble_zeta",
        "decomposition_check", "dedekind_zeta", "local_bad_factor", "partial_zeta_DT",
        "partial_zeta_DU",
    ],
}
OWNER = {name: module for module, names in PUBLIC.items() for name in names}


@pytest.mark.parametrize("name", sorted(OWNER))
def test_each_name_is_its_modules_object(name):
    module = importlib.import_module(f"heightzeta.{OWNER[name]}")
    assert getattr(heightzeta, name) is getattr(module, name)


def test_all_lists_exactly_the_public_names():
    assert len(OWNER) == 56
    assert sorted(heightzeta.__all__) == sorted(OWNER)


def test_dir_and_star_import_expose_the_names():
    assert set(OWNER) <= set(dir(heightzeta))
    namespace = {}
    exec("from heightzeta import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(OWNER)


def test_from_import_of_a_submodule_returns_it():
    from heightzeta import oracle

    assert oracle is importlib.import_module("heightzeta.oracle")


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'heightzeta' has no attribute 'no_such_name'"):
        heightzeta.no_such_name
