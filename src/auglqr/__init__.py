"""Ramsey optimal policy via the discounted augmented linear-quadratic regulator.

The pipeline, in order: validate a model, screen it for stabilizability (a
PBH test of the modes on or outside 1/sqrt(beta), and a stable forcing
block), solve the Riccati equation for the feedback gain, solve the
Sylvester equation for the feedforward gain on exogenous forcing variables,
anchor the forward-looking variables at date 0 through the zero-multiplier
condition, simulate the closed loop (paths, impulse responses, discounted
loss, multipliers), and optionally change basis to an autoregressive
representation in observables.  A backward-induction oracle provides an
independent finite-horizon route for verification.
"""

from .anchor import AnchoredState, anchor_x0
from .augmented import AugmentedSolution, solve_sylvester
from .checks import CheckReport, run_checks
from .errors import (
    AugLQRError,
    DimensionError,
    DivergenceError,
    InstabilityError,
    InvalidModelError,
    ModelFormatError,
    SingularMatrixError,
)
from .model import (
    Dims,
    ModelSpec,
    ValidationReport,
    load_model,
    rescale,
    save_model,
    validate,
    variable_names,
)
from .oracle import FiniteHorizonSolution, backward_induction, grid_search_x0
from .regulator import RegulatorSolution, riccati_rhs, solve_riccati
from .simulate import ClosedLoopSystem, Trajectory, build_closed_loop, irf, simulate_path
from .varrep import VarRepresentation, to_var, var_simulate_check

__version__ = "0.1.0"

__all__ = [
    "AnchoredState",
    "AugLQRError",
    "AugmentedSolution",
    "CheckReport",
    "ClosedLoopSystem",
    "DimensionError",
    "Dims",
    "DivergenceError",
    "FiniteHorizonSolution",
    "InstabilityError",
    "InvalidModelError",
    "ModelFormatError",
    "ModelSpec",
    "RegulatorSolution",
    "SingularMatrixError",
    "Trajectory",
    "ValidationReport",
    "VarRepresentation",
    "anchor_x0",
    "backward_induction",
    "build_closed_loop",
    "grid_search_x0",
    "irf",
    "load_model",
    "rescale",
    "riccati_rhs",
    "run_checks",
    "save_model",
    "simulate_path",
    "solve_riccati",
    "solve_sylvester",
    "to_var",
    "validate",
    "var_simulate_check",
    "variable_names",
]
