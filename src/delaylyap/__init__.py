"""Delay Lyapunov matrices for linear systems with a pointwise delay and
an exponential-kernel distributed delay.

The core object is the matrix function ``P`` on ``[-h, h]`` that turns an
infinite-horizon quadratic cost of the delay system into a finite
quadratic form in the initial data. It is built by collapsing the
distributed kernel into auxiliary states, solving one linear
boundary-value problem through the matrix exponential (:mod:`.solver`),
and is cross-checked by direct simulation and quadrature (:mod:`.sim`).
"""

from .model import (
    TimeDelaySystem,
    Weight,
    kernel_at,
    sincos_kernel,
    zero_kernel,
)
from .solver import (
    AuxOperator,
    LyapunovSolution,
    OmegaBlocks,
    P_at,
    assemble,
    endpoint_residuals,
    flip_residuals,
    residual_algebraic,
    residual_collapsed,
    residual_dde,
    residual_report,
    solve,
    solve_boundary,
)
from .spectrum import (
    SpectrumConditionViolated,
    SpectrumReport,
    characteristic_matrix,
)
from .spectrum import check as check_spectrum
from .sim import (
    CostEstimate,
    HistorySpec,
    Trajectory,
    cost_quadrature,
    cost_to_go,
    fundamental_matrix,
    oracle_P,
    simulate,
)
from .config import (
    ConfigError,
    build_histories,
    build_system,
    build_weight,
    default_config,
    dump_config,
    parse_config,
    tau_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AuxOperator",
    "ConfigError",
    "CostEstimate",
    "HistorySpec",
    "LyapunovSolution",
    "OmegaBlocks",
    "P_at",
    "SpectrumConditionViolated",
    "SpectrumReport",
    "TimeDelaySystem",
    "Trajectory",
    "Weight",
    "assemble",
    "build_histories",
    "build_system",
    "build_weight",
    "characteristic_matrix",
    "check_spectrum",
    "cost_quadrature",
    "cost_to_go",
    "default_config",
    "dump_config",
    "endpoint_residuals",
    "flip_residuals",
    "fundamental_matrix",
    "kernel_at",
    "oracle_P",
    "parse_config",
    "residual_algebraic",
    "residual_collapsed",
    "residual_dde",
    "residual_report",
    "simulate",
    "sincos_kernel",
    "solve",
    "solve_boundary",
    "tau_grid",
    "zero_kernel",
]
