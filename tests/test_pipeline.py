"""``auglqr.solve``: the stages it runs, in order, the names it reports, and
the inverses it takes."""

import numpy as np
import pytest

from auglqr import anchor_x0, build_closed_loop, solve, solve_riccati, solve_sylvester
from auglqr.model import symmetrize

from _support import load_fixture


def test_stage_names_in_order(golden_spec):
    names = []
    solve(golden_spec, at=names.append)
    assert names == ["riccati", "sylvester", "anchor", "closed-loop"]


def test_same_bits_as_the_stages_by_hand(back_spec):
    # a loose tolerance, so a tol that is not passed on changes P_y
    reg, aug, anchored, system = solve(back_spec, 1e-6)
    by_hand = solve_riccati(back_spec, tol=1e-6)
    assert by_hand.iterations < solve_riccati(back_spec).iterations
    aug_by_hand = solve_sylvester(back_spec, by_hand)
    anchored_by_hand = anchor_x0(back_spec, by_hand, aug_by_hand)
    system_by_hand = build_closed_loop(back_spec, by_hand, aug_by_hand, anchored_by_hand)
    pairs = [
        (reg.P_y, by_hand.P_y),
        (aug.P_z, aug_by_hand.P_z),
        (anchored.y0, anchored_by_hand.y0),
        (system.T_cl, system_by_hand.T_cl),
    ]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["golden", "back"])
def test_one_inverse_per_matrix(name, inv_calls):
    # R, the W of each doubling step, S once for both gains, and P_y[x,x]
    # when there is a forward block: golden has n_x = 1, back n_x = 0
    spec = load_fixture(f"{name}.json")
    reg = solve(spec)[0]
    assert len(inv_calls) == reg.iterations + 2 + (spec.dims.n_x > 0)
    s = symmetrize(spec.R + spec.beta * (spec.B_y.T @ reg.P_y @ spec.B_y))
    assert sum(np.array_equal(m, s) for m in inv_calls) == 1
