"""Ramsey optimal policy via the discounted augmented linear-quadratic regulator.

The pipeline, in order: validate a model, screen it for stabilizability (a
PBH test of the modes on or outside 1/sqrt(beta), and a stable forcing
block), then ``solve``, the one chain of the solver's stages: the Riccati
equation for the feedback gain, the Sylvester equation for the feedforward
gain on exogenous forcing variables, the anchoring of the forward-looking
variables at date 0 by the zero-multiplier condition, and the closed loop.
Simulate it (paths, impulse responses, discounted loss, multipliers), and
optionally change basis to an autoregressive representation in observables.
A backward-induction oracle gives an independent finite-horizon check.
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
    validate,
    variable_names,
)
from .oracle import FiniteHorizonSolution, backward_induction
from .pipeline import solve
from .regulator import RegulatorSolution, solve_riccati
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
    "irf",
    "load_model",
    "rescale",
    "run_checks",
    "simulate_path",
    "solve",
    "solve_riccati",
    "solve_sylvester",
    "to_var",
    "validate",
    "var_simulate_check",
    "variable_names",
]
