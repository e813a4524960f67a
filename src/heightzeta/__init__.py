"""Exact dynamical height zeta functions for z^d + 1/f over F_q(t), genus 0 and 1.

The public names below load on first use (PEP 562): ``import heightzeta``
imports no submodule, and ``heightzeta.qpoly_factor`` imports only
``zfactor`` and what it needs (``qfuncs``, ``gf`` and ``fqt``).  The first
access caches the name in this namespace.
"""

import importlib

_EXPORTS = {
    "asymptotics": (
        "AsymptoticReport",
        "bernoulli",
        "build_report",
        "lemma51_check",
        "main_term",
        "main_terms",
        "predicted_coefficient",
        "predicted_coefficients",
        "remainder_check",
        "stirling2",
        "stirling_pochhammer_check",
    ),
    "curves": ("affine_point_count", "build_genus1_spec", "frobenius_trace", "splitting_type"),
    "fqt": (
        "RatFuncFq",
        "irreducibles_up_to",
        "poly_from_string",
        "poly_to_string",
        "residue_square_class",
    ),
    "gf": ("FqField", "PolyFq"),
    "oracle": (
        "CountTable",
        "count_canonical_heights",
        "count_region",
        "count_regions",
        "cumulative_count",
        "enumerate_elements",
    ),
    "places": (
        "BadPlace",
        "PhiSpec",
        "Place",
        "canonical_height_exp",
        "standard_height_exp",
        "validate_phi",
        "valuation",
    ),
    "poles": (
        "NumberFieldElem",
        "PoleRecord",
        "exponent_gcd_normalize",
        "laurent_at_pole",
        "orbit_contribution",
        "orbit_contributions",
        "principal_part_remainder",
        "split_principal_parts",
        "unit_disk_poles",
    ),
    "qfuncs": ("QPoly", "QRatFunc", "series_coefficients"),
    "zeta": (
        "ProblemSpec",
        "ZetaClosedForm",
        "adelic_integral",
        "assemble_zeta",
        "decomposition_check",
        "dedekind_zeta",
        "local_bad_factor",
        "partial_zeta_DT",
        "partial_zeta_DU",
    ),
    "zfactor": ("qpoly_factor",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule read as an attribute before anything imported it
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
