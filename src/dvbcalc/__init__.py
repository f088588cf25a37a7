"""Numerical calculus on decomposed double vector bundles.

Decomposed elements, duals and their pairings, linear sections, grids and
warps, tangent/cotangent chart models, and a deterministic verification
harness over all of it.
"""

from .charts import Chart, Connection, TrivialBundle
from .cotangent import (
    bracket_pairing,
    bracket_pairing_check,
    canonical_one_form,
    canonical_two_form,
    complete_lift_squarecap,
    connection_pairing,
    connection_pairing_check,
    cotangent_flip,
    diagram_check,
    dnu_sharp,
    dual_horizontal_field,
    ell_differential,
    flip_relation_residual,
    i_components,
    j_star,
    momentum_function,
    squarecap_complete_lift,
    squarecap_horizontal,
    squarecap_tangent_lift,
    symplectic_checks,
    tangent_pairing,
    tangent_pairing_via_sections,
)
from .dvb import (
    DvbElement,
    DvbShape,
    DualAElement,
    DualBElement,
    IncompatibleElements,
    IterACElement,
    IterBCElement,
    add_over_a,
    add_over_b,
    core_difference,
    core_embed,
    dual_iso_a,
    dual_iso_a_inverse,
    dual_iso_b,
    dual_iso_b_inverse,
    pair_a,
    pair_b,
    pair_cstar_a,
    pair_cstar_b,
    pair_duals_ab,
    pair_duals_ba,
    pairing_map_a,
    pairing_map_b,
    scale_over_a,
    scale_over_b,
    solve_dual_iso_a,
    sub_over_a,
    sub_over_b,
    zero_over_a,
    zero_over_b,
)
from .expressions import ParseError, parse, to_string
from .jets import DomainError, Jet
from .sections import (
    Grid,
    LinearSectionA,
    LinearSectionB,
    cstar_projection,
    ell_a,
    ell_b,
    squarecap_a,
    squarecap_b,
    squarecap_pairing,
    swap_grid,
    warp,
    warp_pairing_check,
)
from .smoothmaps import (
    DimensionMismatch,
    MatrixMap,
    SmoothMap,
    directional_derivative,
    jacobian,
    lie_bracket,
)
from .tangent import (
    canonical_involution,
    complete_lift,
    connection_grid,
    covariant_derivative_via_warp,
    double_tangent_grid,
    horizontal_field,
    lie_bracket_via_warp,
    linear_vector_field_operator,
    tangent_lift,
)

__version__ = "0.1.0"
