import pytest

from revc.pebble import (
    PLACE, REMOVE, InfeasibleError, Move, _min_steps, bennett_strategy,
    incremental_strategy, knill_optimal, lmt_strategy, tradeoff_csv, tradeoff_table,
    validate,
)

from helpers import exhaustive_min_steps, reference_min_steps, reference_moves


def test_bennett_10():
    moves = bennett_strategy(10)
    rep = validate(moves, 10, 10, require_clean=True)
    assert rep.ok and rep.clean
    assert rep.steps == 19
    assert rep.peak_pebbles == 10
    assert rep.placements == 10


def test_bennett_general():
    for T in (1, 2, 5, 33):
        rep = validate(bennett_strategy(T), T, T, require_clean=True)
        assert rep.ok and rep.steps == 2 * T - 1 and rep.peak_pebbles == T


def test_validate_rejects_illegal_moves():
    assert not validate([Move(PLACE, 2)], 3, 3).ok  # predecessor unpebbled
    assert not validate([Move(PLACE, 1), Move(PLACE, 1)], 3, 3).ok  # double place
    assert not validate([Move(REMOVE, 1)], 3, 3).ok  # remove empty
    assert not validate([Move(PLACE, 1), Move(PLACE, 2)], 3, 1).ok  # over budget
    assert not validate([Move(PLACE, 1)], 3, 3).ok  # T never pebbled


def test_lmt_32():
    moves = lmt_strategy(32)
    rep = validate(moves, 32, 6, require_clean=True)
    assert rep.ok and rep.clean
    assert rep.peak_pebbles <= 6
    assert rep.steps == 193


def test_incremental_at_the_bound():
    for k in range(2, 9):
        T = k * (k + 1) // 2
        moves = incremental_strategy(T, k)
        rep = validate(moves, T, k)
        assert rep.ok, rep.violation
        assert rep.peak_pebbles <= k
        assert rep.placements <= 4 * T
        # checkpoints remain: one per segment except the last node
        assert len(rep.final_state) == k


def test_incremental_infeasible_reports_minimum():
    with pytest.raises(InfeasibleError) as ei:
        incremental_strategy(11, 4)  # 4 pebbles reach only node 10
    assert ei.value.minimum == 5


def test_knill_matches_bfs_small():
    for T in range(1, 9):
        for k in range(1, 6):
            bfs = exhaustive_min_steps(T, k)
            if bfs is None:
                with pytest.raises(InfeasibleError):
                    knill_optimal(T, k)
            else:
                steps, moves = knill_optimal(T, k)
                assert steps == bfs, (T, k)
                rep = validate(moves, T, k, require_clean=True)
                assert rep.ok and rep.steps == steps


def test_knill_reach_bound():
    # feasible iff T <= 2^(k-1)
    assert knill_optimal(4, 3)[0] == 9
    with pytest.raises(InfeasibleError):
        knill_optimal(5, 3)
    assert knill_optimal(8, 4)[0] < float("inf")
    with pytest.raises(InfeasibleError):
        knill_optimal(9, 4)


def test_knill_monotone_in_budget():
    prev = None
    for k in range(6, 11):
        steps, _ = knill_optimal(32, k)
        if prev is not None:
            assert steps <= prev
        prev = steps
    assert knill_optimal(32, 32)[0] == 63  # unconstrained = Bennett


def test_space_time_tradeoff_24():
    # Shrinking the budget from 24 to 7 pebbles keeps the step count
    # within 2x of the unconstrained 2T-1 = 47 steps.
    assert knill_optimal(24, 7)[0] <= 2 * 47
    # One pebble fewer already costs more than 2x.
    assert knill_optimal(24, 6)[0] > 2 * 47


def test_tradeoff_table_csv():
    rows = tradeoff_table(6, [2, 3])
    text = tradeoff_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "pebbles,gates,min_steps"
    assert len(lines) == 1 + 2 * 6
    table = {(int(p), int(g)): s for p, g, s in (ln.split(",") for ln in lines[1:])}
    assert table[(2, 2)] == "3"
    assert table[(2, 3)] == ""  # unreachable with 2 pebbles
    assert table[(3, 4)] == "9"


def test_min_steps_keeps_the_dp_midpoints():
    # the closed form for k >= n gives the DP's value and first midpoint,
    # so every play, and every `revc pebble` table, is the DP's
    for n in range(41):
        for k in range(n + 3):
            assert _min_steps(n, k) == reference_min_steps(n, k), (n, k)
    for T in range(1, 41):
        for k in range(1, T + 3):
            if reference_min_steps(T, k)[0] != float("inf"):
                moves = knill_optimal(T, k)[1]
                assert [(m.action, m.node) for m in moves] == \
                    reference_moves(T, k), (T, k)


def test_knill_with_a_pebble_per_node_is_bennett():
    # no table to fill: a line far past the DP's work bound plays at once
    steps, moves = knill_optimal(2000, 2000)
    assert steps == 3999 and moves == bennett_strategy(2000)
    assert [r.min_steps for r in tradeoff_table(400, [400])][-3:] == \
        [795, 797, 799]
