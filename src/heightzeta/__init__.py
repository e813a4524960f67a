"""Exact dynamical height zeta functions for z^d + 1/f over F_q(t), genus 0 and 1."""

from .asymptotics import (
    AsymptoticReport,
    bernoulli,
    build_report,
    lemma51_check,
    main_term,
    main_terms,
    predicted_coefficient,
    predicted_coefficients,
    remainder_check,
    stirling2,
    stirling_pochhammer_check,
)
from .curves import affine_point_count, build_genus1_spec, frobenius_trace, splitting_type
from .gf import (
    FqField,
    PolyFq,
    RatFuncFq,
    irreducibles_up_to,
    poly_from_string,
    poly_to_string,
    residue_square_class,
)
from .oracle import (
    CountTable,
    count_canonical_heights,
    count_region,
    cumulative_count,
    enumerate_elements,
)
from .places import (
    BadPlace,
    PhiSpec,
    Place,
    canonical_height_exp,
    standard_height_exp,
    validate_phi,
    valuation,
)
from .qfuncs import (
    NumberFieldElem,
    PoleRecord,
    QPoly,
    QRatFunc,
    exponent_gcd_normalize,
    laurent_at_pole,
    orbit_contribution,
    orbit_contributions,
    principal_part_remainder,
    qpoly_factor,
    series_coefficients,
    split_principal_parts,
    unit_disk_poles,
)
from .zeta import (
    ProblemSpec,
    ZetaClosedForm,
    adelic_integral,
    assemble_zeta,
    decomposition_check,
    dedekind_zeta,
    local_bad_factor,
    partial_zeta_DT,
    partial_zeta_DU,
)

__version__ = "0.1.0"
