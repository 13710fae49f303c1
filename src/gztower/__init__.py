"""Numerical Gelfand-Zeitlin toolkit on corner-compatible matrix towers.

Builds the classical commuting observables tr(X_i^j) on finite towers of
complex matrices, their gradients, Hamiltonian fields and exact flows,
the abelian group action they integrate to, strong-regularity tests, and
the orbit symplectic pairing with its Lagrangian verification.
"""

from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
    bracket_matrix,
    commutator,
    corner,
    embed,
    mat_exp,
    spectra_disjoint,
    trace_pair,
)
from .tower import (
    GenerationError,
    Tower,
    extend,
    new_tower,
    random_theta_tower,
    tower_from_json,
    tower_to_json,
)
from .gz import (
    GZIndex,
    gz_indices,
    PowerTable,
    power_table,
    stack_traces,
)
from .regularity import (
    SregReport,
    is_sreg_centralizers,
    is_sreg_differentials,
    is_sreg_tangents,
    sreg_report,
)
from .action import (
    AParams,
    a_act,
    a_act_stepwise,
    flow,
    flow_stack,
    random_params,
    zero_params,
)
from .symplectic import (
    LagrangianReport,
    kk_form,
    lagrangian_check,
    match_residual,
)

__version__ = "0.4.0"

__all__ = [
    "__version__",
    "Tolerance",
    "DEFAULT_TOL",
    "as_cmatrix",
    "corner",
    "embed",
    "commutator",
    "trace_pair",
    "bracket_matrix",
    "mat_exp",
    "spectra_disjoint",
    "Tower",
    "GenerationError",
    "new_tower",
    "extend",
    "random_theta_tower",
    "tower_to_json",
    "tower_from_json",
    "GZIndex",
    "gz_indices",
    "PowerTable",
    "power_table",
    "stack_traces",
    "SregReport",
    "is_sreg_differentials",
    "is_sreg_centralizers",
    "is_sreg_tangents",
    "sreg_report",
    "AParams",
    "zero_params",
    "random_params",
    "a_act",
    "a_act_stepwise",
    "flow",
    "flow_stack",
    "kk_form",
    "match_residual",
    "lagrangian_check",
    "LagrangianReport",
]
