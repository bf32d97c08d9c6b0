"""``auglqr.solve``: the stages it runs, in order, and the names it reports."""

from auglqr import anchor_x0, build_closed_loop, solve, solve_riccati, solve_sylvester


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
