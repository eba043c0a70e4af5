import random
from importlib import resources

import pytest

from revc.boolexpr import band, bvar, bxor
from revc.circuit import CNOT, TOFFOLI, format_circuit, stats, verify
from revc.emitter import Emitter, compile_flat, emit
from revc.frontend import (
    CleanSlot, Compute, FlatProgram, InPlaceBlock, flatten, parse,
)
from revc.mdd import build_mdd
from revc.scheduler import (
    Action, BudgetError, bennett_cleanup, eager_cleanup, reopened_locals,
    schedule,
)


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
    circ = emit(bennett_cleanup(prog))
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


def test_ancillas_balance_on_mirror():
    prog = ripple(6)
    plan = bennett_cleanup(prog)
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
    actions = eager_cleanup(build_mdd(prog)).actions
    for a in actions:
        em.apply(a)
    # one object per distinct gate, one recipe per expression shape
    assert len({id(g) for g in em.gates}) == len(set(em.gates))
    assert len(em.recipes) < len(em.compiled)
    # and one block recipe per template, direction and entry pattern
    runs = sum(isinstance(a.stmt, InPlaceBlock) for a in actions)
    assert em.block_recipes < runs
    assert em.block_recipes + em.block_replays == runs


class StatementEmitter(Emitter):
    """The emitter with blocks run statement by statement on wires, as
    before block recipes: the reference the recipes must match."""

    def _run_block(self, block, forward):
        body = block.body
        if forward:
            for s in body:
                self._fwd_stmt(s)
            for l in block.local_slots:
                if l in self.slot_map:
                    self.heap.free(self.slot_map.pop(l))
        else:
            for l in reopened_locals(body, block.local_slots):
                self.slot_map[l] = self.heap.alloc()
            for s in reversed(body):
                self._bwd_stmt(s)


def template_calls(reads: str) -> str:
    """Calls of one template from different entry patterns: `z <- add b`
    first writes an unwritten target and `h <- add z` reads it.  The body
    reads written locals, `reads` in one statement, then unwrites them:
    it `clean`s `z` and leaves `t`, zero again, mapped at the block's
    end."""
    return f"""
let add (x : bool array) =
    let z = Array.zeroCreate 4
    let t = Array.zeroCreate 2
    let out = Array.zeroCreate 2
    for i in 1 .. 3 do
        z.[i] <- z.[i] <> x.[i % 2]
    t.[0] <- t.[0] <> (x.[0] && x.[1])
    out.[0] <- out.[0] <> (t.[0] && ({reads})) <> x.[1]
    out.[1] <- out.[1] <> (x.[0] && (z.[3] || t.[0]))
    t.[0] <- t.[0] <> (x.[0] && x.[1])
    for i in 1 .. 3 do
        z.[i] <- z.[i] <> x.[i % 2]
    clean z
    out

let main (a : bool[2]) (b : bool[2]) =
    let mutable h = a
    let mutable z = Array.zeroCreate 2
    h <- add b
    z <- add b
    h <- add b
    h <- add z
    z <- add b
    Array.concat [h; z]

main
"""


# with two locals read in one statement, whose `variables` set order
# differs between blocks, blocks still share recipes
@pytest.mark.parametrize("src,params", [
    (template_calls("z.[1]"), None),
    (template_calls("z.[1] <> z.[2]"), None),
    (corpus("sha2.rev"), {"rounds": 2}),
    (corpus("md5.rev"), {"rounds": 1}),
], ids=["template-calls", "set-order", "sha2-r2", "md5-r1"])
def test_block_recipes_emit_what_running_the_body_does(src, params):
    prog = prog_of(src, params)
    plans = [bennett_cleanup(prog), eager_cleanup(build_mdd(prog))]
    try:
        schedule(prog, "incremental", len(prog.input_slots))
    except BudgetError as e:  # a checkpointed plan at the smallest budget
        plans.append(schedule(prog, "incremental", e.minimum))
    for plan in plans:
        em = Emitter(prog)
        circ = em.run(plan)
        runs = sum(isinstance(a.stmt, InPlaceBlock) for a in plan.actions)
        assert em.block_recipes + em.block_replays == runs
        assert em.block_replays > 0
        assert format_circuit(circ) == format_circuit(
            StatementEmitter(prog).run(plan)), plan.strategy
        assert verify(prog, circ).ok


def block_program(body, target=(2,), locals_=(3, 4)) -> FlatProgram:
    """`x0 && x1` into slot 2, then an in-place block onto it over the
    inputs 0 and 1."""
    return FlatProgram(
        name="block", input_slots=[0, 1], output_slots=[2],
        statements=[Compute(2, band([bvar(0), bvar(1)]), True),
                    InPlaceBlock.from_statements(list(target), body,
                                                 list(locals_))],
        slot_count=5)


def run_forward(em: Emitter, prog: FlatProgram) -> None:
    for stmt in prog.statements:
        em.apply(Action("fwd", stmt=stmt))


@pytest.mark.parametrize("body", [
    [Compute(2, bvar(0), True)],
    [Compute(3, bvar(0), True), Compute(3, bvar(1), True)],
], ids=["target", "local"])
def test_block_walk_rejects_fresh_write_to_live_slot(body):
    prog = block_program(body)
    with pytest.raises(RuntimeError, match="fresh write to live slot"):
        run_forward(Emitter(prog), prog)


@pytest.mark.parametrize("body", [
    [Compute(2, band([bvar(0), bvar(2)]), False)],
    [Compute(3, bvar(0), True), Compute(3, bxor([bvar(3), bvar(1)]), False)],
], ids=["target", "local"])
def test_block_walk_rejects_target_inside_expression(body):
    prog = block_program(body)
    with pytest.raises(ValueError, match="appears inside the expression"):
        run_forward(Emitter(prog), prog)


def test_block_replay_rejects_aliased_entry_wires():
    body = [Compute(3, bvar(0), True), Compute(2, band([bvar(3), bvar(1)]),
                                               False),
            Compute(3, bvar(0), False)]
    prog = block_program(body, locals_=(3,))
    block = prog.statements[1]
    em = Emitter(prog)
    run_forward(em, prog)
    assert em.block_recipes == 1
    # the same entry pattern with slots 1 and 2 on one wire: the registers
    # differ, the wires do not
    em.slot_map[1] = em.slot_map[2]
    with pytest.raises(ValueError, match="two slots on one wire"):
        em.apply(Action("fwd", stmt=block))
    assert (em.block_recipes, em.block_replays) == (1, 1)


def test_fresh_write_to_live_slot_is_rejected():
    prog = prog_of(AND_SRC)
    em = Emitter(prog)
    stmt = prog.statements[0]
    em.apply(Action("fwd", stmt=stmt))
    with pytest.raises(RuntimeError, match="fresh write to live slot"):
        em.apply(Action("fwd", stmt=Compute(stmt.slot, stmt.expr, True)))


# slot 3 is never written: a program from source never touches it, since
# flatten reads such a slot as the constant 0
UNWRITTEN_SLOT = {  # case -> (statements, output slots)
    "read": ([Compute(2, band([bvar(0), bvar(3)]), True)], [2]),
    "accumulate": ([Compute(3, bvar(0), False)], [0]),
    "clean": ([CleanSlot(3)], [0]),
    "output": ([Compute(2, bvar(0), True)], [3]),
}


def unwritten_slot_program(case: str) -> FlatProgram:
    stmts, outputs = UNWRITTEN_SLOT[case]
    return FlatProgram(name=case, input_slots=[0, 1], output_slots=outputs,
                       statements=stmts, slot_count=4)


@pytest.mark.parametrize("case", UNWRITTEN_SLOT)
def test_slot_nothing_wrote_is_an_error(case):
    prog = unwritten_slot_program(case)
    em = Emitter(prog)
    with pytest.raises(RuntimeError, match=r"^slot 3 has no wire$"):
        run_forward(em, prog)
        em.finish()
