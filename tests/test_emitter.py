
import pytest

from revc import blif
from revc import emitter as emitter_mod
from revc.boolexpr import (
    AND, BoolExp, Recipe, band, bnot, bvar, bxor, check_recipe, compile_form,
)
from revc.circuit import (
    CNOT, TOFFOLI, Circuit, built_circuit, check_gate, format_circuit, kind,
    reverse, stats, verify,
)
from revc.emitter import Emitter, compile_flat, emit
from revc.frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from revc.mdd import build_mdd
from revc.scheduler import (
    Action, BudgetError, Copy, bennett_cleanup, eager_cleanup, schedule,
)

from helpers import corpus, prog_of, ripple


AND_SRC = "let f (a : bool) (b : bool) = a && b\n\nf"


def test_single_and_eager_is_one_toffoli():
    prog = prog_of(AND_SRC)
    plan, circ = compile_flat(prog, "eager")
    assert circ.width == 3
    assert [kind(g) for g in circ.gates] == [TOFFOLI]
    assert verify(prog, circ).ok


def test_single_and_bennett_is_two_toffolis_one_cnot():
    prog = prog_of(AND_SRC)
    plan, circ = compile_flat(prog, "bennett")
    kinds = [kind(g) for g in circ.gates]
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
    # a plan is data that emission does not change, so it is reusable
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
    # one object per distinct gate, one recipe per distinct form
    assert len({id(g) for g in em.gates}) == len(set(em.gates))
    assert len(em.recipes) < len(em.compiled)
    # and one block recipe per template, direction and entry pattern
    runs = sum(isinstance(a.stmt, InPlaceBlock) for a in actions)
    assert em.block_recipes < runs
    assert em.block_recipes + em.block_replays == runs


def test_each_distinct_form_is_compiled_once_per_emission(monkeypatch):
    # the top-level statements and the block bodies of SHA-2 share a few
    # hundred form objects of five distinct forms, whatever the number of
    # rounds; each object costs one lookup, each distinct form one recipe
    compiled = []
    monkeypatch.setattr(emitter_mod, "compile_form",
                        lambda form, n: compiled.append(form)
                        or compile_form(form, n))
    prog = prog_of(corpus("sha2.rev"), {"rounds": 4})
    tokens = {s.token for s in prog.statements if isinstance(s, InPlaceBlock)}
    forms = {id(s.form) for s in [*prog.statements,
                                  *(x for t in tokens for x in t.stmts)]
             if isinstance(s, Compute)}
    for strategy in ("eager", "bennett"):
        compiled.clear()
        em = Emitter(prog)
        em.run(schedule(prog, strategy))
        assert sorted(em.compiled) == sorted(forms)
        assert len(compiled) == len(set(compiled)) == len(em.recipes) == 5


def test_circuit_gates_are_interned():
    # each distinct gate is one tuple in the finished circuit, output copy
    # included: one tuple per gate instance would cost peak memory
    _, c = compile_flat(prog_of(corpus("sha2.rev"), {"rounds": 4}), "bennett")
    assert len({id(g) for g in c.gates}) == len(set(c.gates)) < len(c.gates)


class StatementEmitter(Emitter):
    """The emitter with blocks run statement by statement on wires, as
    before block recipes: the reference the recipes must match."""

    def _run_block(self, block, forward):
        body = block.body
        if forward:
            for s in body:
                self.apply(Action("fwd", stmt=s))
            for l in block.local_slots:
                if l in self.slot_map:
                    self.heap.free(self.slot_map.pop(l))
        else:
            for p in block.token.open_locals:
                self.slot_map[block.slots[p]] = self.heap.alloc()
            for s in reversed(body):
                self.apply(Action("bwd", stmt=s))


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
        ref = StatementEmitter(prog)
        assert format_circuit(circ) == format_circuit(ref.run(plan)), \
            plan.strategy
        assert ref.block_recipes == ref.block_replays == 0
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


def test_copy_onto_its_own_slot_is_rejected_before_any_gate():
    # a plan's copies write new slots; a hand-built one may not
    prog = prog_of(AND_SRC)
    em = Emitter(prog)
    copy = Copy((0,), (0,))
    with pytest.raises(RuntimeError, match="fresh write to live slot 0"):
        em.apply(Action("fwd", copy))
    with pytest.raises(RuntimeError, match="copy of a slot onto its own wire"):
        em.apply(Action("bwd", copy))
    assert em.gates == [] and em.live == len(prog.input_slots)


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
        em.finish(prog.output_slots)


# The emitter's circuits are valid by construction: `finish` does not
# check each gate again.  The full per-gate check is the reference.
CORPUS_CASES = [("adder_ripple.rev", {"n": 40}), ("adder_select.rev", None),
                ("sha2.rev", {"rounds": 4}), ("sha2.rev", {"rounds": 16}),
                ("md5.rev", {"rounds": 2})]
BY_CONSTRUCTION = [
    *((name, params, s, None) for name, params in CORPUS_CASES
      for s in ("bennett", "eager")),
    ("sha2.rev", {"rounds": 4}, "incremental", 672),
    ("md5.rev", {"rounds": 2}, "incremental", 800),
    *((name, xor, "eager", None)
      for name in ("example3.blif", "majority.blif", "mux_net.blif")
      for xor in (False, True)),
]


def by_construction_id(case) -> str:
    name, params, strategy, budget = case
    if name.endswith(".blif"):
        extra = ["xor" if params else "or"]
    else:
        extra = [f"{k}={v}" for k, v in (params or {}).items()]
    return "-".join([name.split(".")[0], *extra, strategy,
                     *([str(budget)] if budget else [])])


@pytest.mark.parametrize("case", BY_CONSTRUCTION, ids=by_construction_id)
def test_emitted_gates_pass_the_full_check(case):
    name, params, strategy, budget = case
    if name.endswith(".blif"):
        prog = blif.lower(blif.parse_blif(corpus(name)), optimize=params)
    else:
        prog = prog_of(corpus(name), params)
    _, circ = compile_flat(prog, strategy, budget)
    for g in circ.gates:
        check_gate(g, circ.width)
    assert Circuit(circ.width, list(circ.gates), circ.inputs,
                   circ.outputs) == circ


@pytest.mark.parametrize("heap_ops,gates,match", [
    ((), ((0, 0, -1),), "repeats a register"),
    ((), ((1, 0, 1),), "repeats a register"),
    ((), ((0, 2, -1),), "not a triple of registers below 2"),
    ((), ((-1, 0, -1),), "not a triple"),
    ((), ((0, -1, 1),), "not a triple"),
    ((), ((0, 1),), "not a triple"),
    ((), ((0, True, -1),), "not a triple"),
    # register 2 is freed before register 3 is taken: they may share a wire
    ((-1, 2, -1), ((2, 3, -1),), "not live at once"),
    ((1, -1), ((1, 2, -1),), "not live at once"),
    ((-1, 3), (), "frees 3, not a live register"),
    ((-1, 2, 2), (), "frees 2, not a live register"),
], ids=["cnot-repeat", "tof-repeat", "above-count", "negative", "gap",
        "pair", "bool", "freed-scratch", "freed-entry", "unknown-free",
        "double-free"])
def test_check_recipe_rejects_a_bad_recipe(heap_ops, gates, match):
    with pytest.raises(ValueError, match=match):
        check_recipe(Recipe(2, heap_ops, gates))


def test_recipe_check_keeps_registers_live_at_once():
    # a scratch register and the one taken after it is freed never meet
    # in a gate; with both live at once they may
    check_recipe(Recipe(2, (-1, 2, -1, 3),
                        ((0, 2, -1), (1, 3, -1), (0, 1, -1))))
    check_recipe(Recipe(2, (-1, -1, 3, 2), ((2, 3, 0), (1, -1, -1))))


def test_each_block_recipe_is_checked_when_walked(monkeypatch):
    # the walk of a block body is where a block recipe is built, and it
    # passes the recipe through `check_recipe` once
    checked = []
    monkeypatch.setattr(emitter_mod, "check_recipe", checked.append)
    em = Emitter(prog_of(corpus("sha2.rev"), {"rounds": 4}))
    em.run(schedule(em.program, "eager"))
    assert em.block_recipes > 0
    assert checked == [recipe for recipe, _ in em.blocks.values()]


@pytest.mark.parametrize("form,n_vars,error,match", [
    (BoolExp(AND, (bvar(0), bvar(0))), 1, ValueError, "variable 0 twice"),
    (BoolExp(AND, (bvar(1), bnot(bvar(1)), bvar(0))), 2, ValueError,
     "variable 1 twice"),
    (band([bvar(0), bvar(2)]), 2, IndexError, "out of range"),
    (bxor([bvar(0), bvar(1)]), 1, IndexError, "out of range"),
], ids=["and-repeat", "and-negated-repeat", "and-past-positions",
        "var-past-positions"])
def test_synthesis_checks_what_it_reads_from_the_form(form, n_vars, error,
                                                      match):
    # a form from `canonical` never does this; a hand-built one may
    with pytest.raises(error, match=match):
        compile_form(form, n_vars)


def test_compute_with_two_args_on_one_wire_raises_before_any_gate():
    # x0 && x1 && x2 takes a scratch wire for its Toffoli chain
    stmt = Compute(3, band([bvar(0), bvar(1), bvar(2)]), True)
    prog = FlatProgram(name="and3", input_slots=[0, 1, 2], output_slots=[3],
                       statements=[stmt], slot_count=4)
    em = Emitter(prog)
    em.slot_map[2] = em.slot_map[1]
    with pytest.raises(ValueError, match="two slots on one wire"):
        em.apply(Action("fwd", stmt=stmt))
    assert em.gates == []
    # the fresh target took its wire, and the recipe's heap ops did not run
    assert em.heap.state() == ([], 4) and em.heap.live_count == 1


@pytest.mark.parametrize("bad,match", [
    ((-1, 0, 1), "negative or non-integer wire"),
    ((0, 1.0), "negative or non-integer wire"),
    ((0, True), "negative or non-integer wire"),
    ((0, 0, 1), "repeats a wire"),
    ((2, 2), "repeats a wire"),
    ((99,), "outside width"),
    ((0, 1, 2, 3), "not 1 to 3"),
], ids=["negative", "float", "bool", "tof-repeat", "cnot-repeat", "width",
        "four-wires"])
def test_circuits_from_outside_the_emitter_keep_the_full_check(bad, match):
    # an emitted circuit with one bad gate added is rejected by
    # `Circuit(...)` and by `reverse`, which `built_circuit` does not weaken
    _, c = compile_flat(ripple(4), "eager")
    gates = [*c.gates, bad]
    with pytest.raises(ValueError, match=match):
        Circuit(c.width, gates, c.inputs, c.outputs)
    with pytest.raises(ValueError, match=match):
        reverse(built_circuit(c.width, gates, c.inputs, c.outputs))


@pytest.mark.parametrize("strategy", ["bennett", "eager"])
def test_cleaning_an_input_slot_is_an_error(strategy):
    # the one bad free a hand-built program can reach: a clean of an input
    # slot, whose wire is below the pool's base
    prog = FlatProgram(name="clean-input", input_slots=[0, 1],
                       output_slots=[2],
                       statements=[Compute(2, bvar(1), True), CleanSlot(0)],
                       slot_count=3)
    with pytest.raises(ValueError, match=r"^wire 0 is not allocated$"):
        compile_flat(prog, strategy)


def test_the_emitted_circuit_still_checks_its_header_wires():
    # only the gates are valid by construction; a hand-built program may
    # name one output slot twice
    prog = FlatProgram(name="dup", input_slots=[0, 1], output_slots=[0, 0],
                       statements=[], slot_count=2)
    with pytest.raises(ValueError, match="output wire 0 repeated"):
        Emitter(prog).finish(prog.output_slots)
