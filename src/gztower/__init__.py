"""Numerical Gelfand-Zeitlin toolkit on corner-compatible matrix towers.

Builds the classical commuting observables tr(X_i^j) on finite towers of
complex matrices, their gradients, Hamiltonian fields and exact flows,
the abelian group action they integrate to, strong-regularity tests, and
the orbit symplectic pairing with its Lagrangian verification.
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it, and matcore is
# the first submodule to import numpy.  Almost every kernel here is n x n with
# n <= 64, where a second thread costs CPU and seldom saves time, so a process
# that starts with this package runs on one thread.  A program that loaded
# numpy first, or a caller who set a thread count, keeps its count.
if "numpy" not in sys.modules and not (
    "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
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
    flow_stack,
    random_params,
)
from .symplectic import (
    LagrangianReport,
    lagrangian_check,
    match_residual,
)

__version__ = "0.7.2"

__all__ = [
    "__version__",
    "Tolerance",
    "DEFAULT_TOL",
    "as_cmatrix",
    "corner",
    "embed",
    "commutator",
    "trace_pair",
    "mat_exp",
    "spectra_disjoint",
    "Tower",
    "GenerationError",
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
    "random_params",
    "a_act",
    "a_act_stepwise",
    "flow_stack",
    "match_residual",
    "lagrangian_check",
    "LagrangianReport",
]
