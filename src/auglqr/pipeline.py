"""The solve chain: Riccati, Sylvester, anchor and closed loop, in that order.

``solve`` runs no gate: each caller keeps the checks its policy needs (the
CLI enforces both, ``--force`` downgrading only stabilizability).
"""

from .anchor import anchor_x0
from .augmented import solve_sylvester
from .kernel import DEFAULT_TOL
from .regulator import solve_riccati
from .simulate import build_closed_loop


def _unnamed(stage: str):
    pass


def solve(spec, tol: float = DEFAULT_TOL, at=_unnamed):
    """``(reg, aug, anchored, system)`` of a model, solved stage by stage.

    ``at(name)`` is called before each stage with its name: ``riccati``,
    ``sylvester``, ``anchor``, ``closed-loop``.  ``tol`` is the Riccati
    tolerance.  A stage's error propagates as it is raised.
    """
    at("riccati")
    reg = solve_riccati(spec, tol=tol)
    at("sylvester")
    aug = solve_sylvester(spec, reg)
    at("anchor")
    anchored = anchor_x0(spec, reg, aug)
    at("closed-loop")
    return reg, aug, anchored, build_closed_loop(spec, reg, aug, anchored)
