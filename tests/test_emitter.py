import random
from importlib import resources

import pytest

from revc.circuit import CNOT, TOFFOLI, format_circuit, stats, verify
from revc.emitter import Emitter, compile_flat, emit
from revc.frontend import flatten, parse
from revc.mdd import build_mdd
from revc.scheduler import bennett_cleanup, eager_cleanup, schedule


def corpus(name: str) -> str:
    return (resources.files("revc") / "corpus" / name).read_text()


def prog_of(src: str, params=None):
    return flatten(parse(src, params=params))


def ripple(n: int):
    return prog_of(corpus("adder_ripple.rev"), {"n": n})


AND_SRC = "let f (a : bool) (b : bool) = a && b\n\nf"


def test_single_and_eager_is_one_toffoli():
    prog = prog_of(AND_SRC)
    plan, circ = compile_flat(prog, "eager")
    assert circ.width == 3
    assert [g.kind for g in circ.gates] == [TOFFOLI]
    assert verify(prog, circ).ok


def test_single_and_bennett_is_two_toffolis_one_cnot():
    prog = prog_of(AND_SRC)
    plan, circ = compile_flat(prog, "bennett")
    kinds = [g.kind for g in circ.gates]
    assert kinds == [TOFFOLI, CNOT, TOFFOLI]
    assert circ.width == 4
    assert verify(prog, circ).ok


@pytest.mark.parametrize("strategy", ["bennett", "eager", "incremental"])
def test_ripple_adder_table_numbers(strategy):
    n = 10
    plan, circ = compile_flat(ripple(n), strategy)
    st = stats(circ)
    assert st["toffoli_count"] == 4 * n - 6
    want_width = {"bennett": 5 * n - 1, "eager": 4 * n, "incremental": 5 * n - 1}
    assert circ.width == want_width[strategy]
    assert verify(ripple(n), circ, samples=100, seed=1).ok


def test_bennett_mirror_is_gatewise_inverse():
    prog = ripple(8)
    circ = emit(bennett_cleanup(build_mdd(prog)))
    half = (len(circ.gates) - len(prog.output_slots)) // 2
    fwd = circ.gates[:half]
    bwd = circ.gates[-half:]
    assert fwd == list(reversed(bwd))


@pytest.mark.parametrize("strategy,budget", [
    ("bennett", None), ("eager", None), ("incremental", 672)])
def test_plan_emits_identically_twice(strategy, budget):
    # emission keeps its per-run records off the plan, so a plan is reusable
    prog = prog_of(corpus("sha2.rev"), {"rounds": 4})
    plan = schedule(prog, strategy, budget)
    first, second = emit(plan), emit(plan)
    assert format_circuit(first) == format_circuit(second)
    if budget is not None:
        assert plan.checkpoints >= 1


def test_emitter_snapshot_restore():
    prog = ripple(6)
    em = Emitter(prog)
    snap = em.snapshot()
    from revc.scheduler import Action
    for s in prog.statements:
        em.apply(Action("fwd", stmt=s))
    assert em.gates
    em.restore(snap)
    assert em.gates == []
    assert em.width == len(prog.input_slots)
    assert em.slot_map == {s: i for i, s in enumerate(prog.input_slots)}


def test_ancillas_balance_on_mirror():
    prog = ripple(6)
    plan = bennett_cleanup(build_mdd(prog))
    em = Emitter(prog)
    for a in plan.actions:
        em.apply(a)
    # after the full mirror only inputs and the output copies are live
    assert em.live == len(prog.input_slots) + len(prog.output_slots)


def test_incremental_checkpoint_circuit_verifies():
    prog = ripple(10)
    plan, circ = compile_flat(prog, "incremental", qubit_budget=36)
    assert plan.checkpoints >= 1
    assert verify(prog, circ, samples=100, seed=2).ok


def test_inplace_block_strategies_verify():
    prog = prog_of(corpus("sha2.rev"), {"rounds": 1})
    for strategy in ("bennett", "eager"):
        plan, circ = compile_flat(prog, strategy)
        assert verify(prog, circ, samples=15, seed=3).ok


def test_unclean_fallback_verifies():
    prog = prog_of(corpus("md5.rev"), {"rounds": 1})
    plan, circ = compile_flat(prog, "eager")
    assert plan.unclean_nodes
    assert verify(prog, circ, samples=10, seed=4).ok


def test_eager_never_wider_than_bennett_on_corpus():
    cases = [("adder_ripple.rev", {"n": 12}), ("adder_select.rev", {"n": 10}),
             ("sha2.rev", {"rounds": 1}), ("md5.rev", {"rounds": 1})]
    for name, params in cases:
        prog = prog_of(corpus(name), params)
        _, ben = compile_flat(prog, "bennett")
        _, eag = compile_flat(prog, "eager")
        assert eag.width <= ben.width, name


def test_gates_are_interned_and_recipes_shared():
    prog = prog_of(corpus("sha2.rev"), {"rounds": 2})
    em = Emitter(prog)
    for a in eager_cleanup(build_mdd(prog)).actions:
        em.apply(a)
    # one object per distinct gate, one recipe per expression shape
    assert len({id(g) for g in em.gates}) == len(set(em.gates))
    assert len(em.recipes) < len(em.compiled)


def test_fresh_write_to_live_slot_is_rejected():
    from revc.frontend import Compute
    from revc.scheduler import Action
    prog = prog_of(AND_SRC)
    em = Emitter(prog)
    stmt = prog.statements[0]
    em.apply(Action("fwd", stmt=stmt))
    with pytest.raises(RuntimeError, match="fresh write to live slot"):
        em.apply(Action("fwd", stmt=Compute(stmt.slot, stmt.expr, True)))
