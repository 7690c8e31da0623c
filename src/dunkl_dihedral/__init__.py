"""Dunkl kernel and its homogeneous components for dihedral groups.

Four independent evaluation routes -- a symbolic polynomial oracle, a
vectorized orbit recurrence, a generating-series extraction and a contour /
weighted-time integral -- cross-validated against each other, plus closed
forms on the mirror axis and certified growth bounds.
"""

__version__ = "0.1.0"

from .dihedral import (
    DihedralGroup,
    OrbitPairings,
    is_sigma_invariant,
    make_group,
    orbit_pairings,
    pairing,
)
from .errors import ConsistencyError, ConvergenceError, DomainError, DunklError
from .kernel import (
    DeltaConstant,
    KernelResult,
    check_ek_bound,
    check_em_bound,
    delta_effective,
    ek_integral,
    ek_series,
    ek_sigma_closed,
    kernel_K,
)
from .polyalg import (
    ParameterK,
    Poly2,
    a_op,
    dunkl_apply,
    h_op,
    intertwine,
    oracle_em,
    pochhammer_table,
)
from .recurrence import em_sequence, y_step
from .series import (
    SeriesData,
    a_coeffs,
    em_closed_sigma,
    em_genseries,
    g_values,
    phi_sigma_invariant,
)

__all__ = [
    "DihedralGroup",
    "OrbitPairings",
    "is_sigma_invariant",
    "make_group",
    "orbit_pairings",
    "pairing",
    "DunklError",
    "DomainError",
    "ConvergenceError",
    "ConsistencyError",
    "ParameterK",
    "Poly2",
    "dunkl_apply",
    "a_op",
    "h_op",
    "intertwine",
    "oracle_em",
    "pochhammer_table",
    "y_step",
    "em_sequence",
    "SeriesData",
    "a_coeffs",
    "g_values",
    "em_genseries",
    "phi_sigma_invariant",
    "em_closed_sigma",
    "KernelResult",
    "DeltaConstant",
    "delta_effective",
    "ek_series",
    "ek_sigma_closed",
    "kernel_K",
    "ek_integral",
    "check_em_bound",
    "check_ek_bound",
    "__version__",
]
