import collections
import dataclasses
import random

import pytest

from revc.boolexpr import band, bor, bvar, bxor
from revc.circuit import verify
from revc.emitter import Emitter, emit
from revc.frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from revc.mdd import OP, OUTPUT, build_mdd
from revc.scheduler import (
    CLEANED_EAGERLY, UNCLEAN, Action, BudgetError, Copy,
    bennett_cleanup, eager_cleanup, incremental_cleanup, invert, live_profile,
    mirror, schedule,
)

from helpers import chain_program, corpus, prog_of, random_program, ripple


MUTATED_INPUT_SRC = """
let f (a : bool) (bin : bool) =
    let mutable b = bin
    let c = a && b
    b <- b <> c
    b

f
"""


def cleaned_reads_chain_source(k: int) -> str:
    """t_i = (t_{i-1} && t_{i-2}) <> z.[i], where z is written, zero
    again and `clean`ed before the chain reads it, and t_{-1}, t_{-2} are
    x.[1], x.[0]."""
    lines = ["let chain (x : bool[2]) =",
             f"    let z = Array.zeroCreate {k}",
             f"    for i in 0 .. {k - 1} do",
             "        z.[i] <- z.[i] <> x.[0]",
             "        z.[i] <- z.[i] <> x.[0]",
             "    clean z",
             "    let t0 = (x.[0] && x.[1]) <> z.[0]"]
    prev = ("t0", "x.[1]")
    for i in range(1, k):
        lines.append(f"    let t{i} = ({prev[0]} && {prev[1]}) <> z.[{i}]")
        prev = (f"t{i}", prev[0])
    return "\n".join(lines + [f"    t{k - 1}", "", "chain"])


def test_invert_is_involutive():
    a = Action("fwd", stmt="s")
    assert invert(a) == Action("bwd", "s")
    assert invert(invert(a)) == a
    c = Action("fwd", Copy((1, 2), (5, 6)))
    assert invert(c).kind == "bwd" and invert(c).stmt is c.stmt
    assert invert(invert(c)) == c


def test_actions_are_frozen():
    a = Action("fwd", Copy((1, 2), (5, 6)))
    with pytest.raises(AttributeError):
        a.stmt = None
    with pytest.raises(AttributeError):
        a.stmt.dst = (3,)


PLAN_CASES = {  # name -> (plan, its checkpoints, whether it copies outputs)
    "bennett": (lambda: bennett_cleanup(ripple(6)), 0, True),
    "eager": (lambda: eager_cleanup(build_mdd(ripple(8))), 0, False),
    "eager-unclean": (
        lambda: eager_cleanup(build_mdd(prog_of(MUTATED_INPUT_SRC))), 0, True),
    "incremental-checkpoint": (
        lambda: incremental_cleanup(prog_of(corpus("sha2.rev"), {"rounds": 4}),
                                    672), 1, True),
    "incremental-chain": (
        lambda: incremental_cleanup(chain_program(24), 11), 3, True),
}


def named_slots(stmt) -> set:
    """The slots a statement of a plan reads or writes."""
    if isinstance(stmt, Compute):
        return {stmt.slot, *stmt.args}
    if isinstance(stmt, CleanSlot):
        return {stmt.slot}
    if isinstance(stmt, InPlaceBlock):
        return set(stmt.slots)
    return {*stmt.src, *stmt.dst}


@pytest.mark.parametrize("case", PLAN_CASES)
def test_plans_are_immutable_data(case):
    make, checkpoints, copied = PLAN_CASES[case]
    plan = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.actions = ()
    assert type(plan.actions) is tuple
    # the counters are read off the plan's data, not kept beside it
    fields = {f.name for f in dataclasses.fields(plan)}
    assert "checkpoints" not in fields
    assert plan.checkpoints == checkpoints == len(plan.cuts)
    copies = [a.stmt for a in plan.actions
              if a.kind == "fwd" and isinstance(a.stmt, Copy)]
    assert len(copies) == checkpoints + copied
    assert mirror(mirror(plan.actions)) == list(plan.actions)


@pytest.mark.parametrize("case", PLAN_CASES)
def test_checkpoints_rename_onto_new_slots(case):
    plan = PLAN_CASES[case][0]()
    prog = plan.program
    stmt_classes = (Compute, CleanSlot, InPlaceBlock, Copy)
    assert all(a.kind in ("fwd", "bwd") and isinstance(a.stmt, stmt_classes)
               for a in plan.actions)
    named: set = set(range(prog.slot_count))  # by the actions so far
    taken: set = set()  # slots whose values a copy took over
    copies = []
    for i, a in enumerate(plan.actions):
        stmt = a.stmt
        if isinstance(stmt, Copy):
            if a.kind == "fwd":
                # distinct new slots, named by no action before
                assert len(set(stmt.dst)) == len(stmt.dst), (case, i)
                assert min(stmt.dst) >= prog.slot_count, (case, i)
                assert not named & set(stmt.dst), (case, i)
                copies.append(stmt)
                if len(copies) > plan.checkpoints:  # the output copy
                    break
                taken |= set(stmt.src)
        elif a.kind == "fwd":
            # the forward runs of the statements after a checkpoint
            assert not named_slots(stmt) & taken, (case, i)
        named |= named_slots(stmt)
    assert len(copies) == plan.checkpoints + (plan.output_slots
                                              != tuple(prog.output_slots))
    if len(copies) > plan.checkpoints:
        assert plan.output_slots == copies[-1].dst
    # every copy is run backwards once, after it ran forwards
    backward = [a.stmt for a in plan.actions
                if a.kind == "bwd" and isinstance(a.stmt, Copy)]
    assert backward == copies[:plan.checkpoints][::-1]
    assert verify(prog, emit(plan)).ok


def test_bennett_shape():
    prog = ripple(6)
    plan = bennett_cleanup(prog)
    acts = plan.actions
    n = len(prog.statements)
    assert len(acts) == 2 * n + 1
    # the program's own statements forwards, then backwards
    assert all(a.kind == "fwd" and a.stmt is s
               for a, s in zip(acts[:n], prog.statements))
    outputs = tuple(prog.output_slots)
    new = tuple(range(prog.slot_count, prog.slot_count + len(outputs)))
    assert acts[n] == Action("fwd", Copy(outputs, new))
    assert plan.output_slots == new
    assert [a.kind for a in acts[n + 1:]] == ["bwd"] * n
    # exact mirror: same statements in reverse order
    for f, b in zip(acts[:n], reversed(acts[n + 1:])):
        assert f.stmt is b.stmt
    # planned from the statements: no graph, so no node dispositions
    assert plan.dispositions == {}
    assert plan.mdd is None


def test_eager_cleans_ripple_without_copy():
    prog = ripple(8)
    plan = eager_cleanup(build_mdd(prog))
    assert not plan.unclean_nodes
    assert plan.output_slots == tuple(prog.output_slots)
    assert not any(isinstance(a.stmt, Copy) for a in plan.actions)
    # every carry reversal is present: bwd count equals garbage count
    bwd = sum(1 for a in plan.actions if a.kind == "bwd")
    assert bwd == 7  # n-1 garbage carries
    assert set(plan.dispositions.values()) == {CLEANED_EAGERLY}


def test_eager_marks_mutated_input_dependency_unclean():
    prog = prog_of(MUTATED_INPUT_SRC)
    plan = eager_cleanup(build_mdd(prog))
    assert len(plan.unclean_nodes) == 1
    # copy & reverse: the residue is swept by a full mirror, after one
    # copy of the outputs onto new slots
    copies = [i for i, a in enumerate(plan.actions)
              if isinstance(a.stmt, Copy)]
    assert len(copies) == 1
    (i,) = copies
    assert plan.actions[i].kind == "fwd"
    assert plan.actions[i].stmt.src == tuple(prog.output_slots)
    assert plan.output_slots == plan.actions[i].stmt.dst
    assert list(plan.actions[i + 1:]) == mirror(plan.actions[:i])


def test_eager_single_path_equals_bennett_on_that_path():
    # a lone AND feeding the output has nothing to clean early
    plan = eager_cleanup(build_mdd(prog_of("let f (a : bool) (b : bool) = a && b\n\nf")))
    assert [a.kind for a in plan.actions] == ["fwd"]
    assert not plan.unclean_nodes


def test_incremental_without_budget_equals_bennett():
    prog = ripple(6)
    inc = incremental_cleanup(prog)
    ben = bennett_cleanup(prog)
    assert [a.kind for a in inc.actions] == [a.kind for a in ben.actions]
    assert [a.stmt for a in inc.actions] == [a.stmt for a in ben.actions]
    assert inc.checkpoints == 0


@pytest.mark.parametrize("source", ["sha2-r1", "md5-r1", "clean-chain"])
def test_bennett_is_the_checkpointed_plan_with_no_cuts(source):
    prog = {"sha2-r1": lambda: prog_of(corpus("sha2.rev"), {"rounds": 1}),
            "md5-r1": lambda: prog_of(corpus("md5.rev"), {"rounds": 1}),
            "clean-chain": lambda: prog_of(clean_chain_source(3))}[source]()
    ben, inc = bennett_cleanup(prog), incremental_cleanup(prog)
    assert (ben.strategy, inc.strategy) == ("bennett", "incremental")
    assert ben.actions == inc.actions
    assert ben.output_slots == inc.output_slots
    assert ben.cuts == inc.cuts == () and ben.checkpoints == 0
    # with no cut nothing is renamed: both run the program's own statements
    stmts = [a.stmt for a in inc.actions if not isinstance(a.stmt, Copy)]
    assert all(s is t for s, t in zip(stmts, prog.statements))


def test_incremental_tight_budget_inserts_reverse_segment():
    prog = chain_program(24)
    plan = incremental_cleanup(prog, qubit_budget=12)
    assert plan.checkpoints >= 1
    stmts = [a.stmt for a in plan.actions]
    # a reverse segment appears before the final output copy
    out_pos = stmts.index(next(s for s in stmts if isinstance(s, Copy)
                               and s.dst == plan.output_slots))
    assert "bwd" in [a.kind for a in plan.actions[:out_pos]]
    # the statements after the first checkpoint are renamed, those before
    # it are the program's own
    first = plan.cuts[0][0]
    assert all(a.stmt is s for a, s in zip(plan.actions[:first],
                                           prog.statements))
    assert all(s is not t for s in stmts for t in prog.statements[first:])


def test_incremental_infeasible_reports_minimum():
    prog = chain_program(24)
    with pytest.raises(BudgetError) as exc:
        incremental_cleanup(prog, qubit_budget=4)
    minimum = exc.value.minimum
    assert minimum is not None
    plan = incremental_cleanup(prog, qubit_budget=minimum)
    assert plan.checkpoints >= 1
    with pytest.raises(BudgetError):
        incremental_cleanup(prog, qubit_budget=minimum - 1)


ORACLE_CASES = {  # id -> (program, incremental budget)
    "sha2-r4-672": (lambda: prog_of(corpus("sha2.rev"), {"rounds": 4}), 672),
    "sha2-r4-800": (lambda: prog_of(corpus("sha2.rev"), {"rounds": 4}), 800),
    "md5-r2-800": (lambda: prog_of(corpus("md5.rev"), {"rounds": 2}), 800),
    "chain24-11": (lambda: chain_program(24), 11),
}


def assert_profile_tracks_the_emitter(plan) -> list[int]:
    """live_profile(plan) must be the live count a full emission sees after
    every action, or incremental plans would drift from the circuits."""
    profile = live_profile(plan)
    assert len(profile) == len(plan.actions)
    em = Emitter(plan.program)
    for i, (a, live) in enumerate(zip(plan.actions, profile)):
        em.apply(a)
        assert live == em.live, (i, a.kind)
    return profile


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_live_profile_tracks_the_emitter(case):
    make, budget = ORACLE_CASES[case]
    plan = incremental_cleanup(make(), qubit_budget=budget)
    assert plan.checkpoints >= 1
    assert_profile_tracks_the_emitter(plan)


def block_program() -> FlatProgram:
    """An in-place block that leaves one local mapped but zero at its end
    (the block releases it) and cleans another, then writes it again."""
    a, b = bvar(0), bvar(1)
    body = [Compute(3, band([a, b]), True), Compute(2, bvar(3), False),
            Compute(3, band([a, b]), False),
            Compute(4, bxor([a, b]), True), Compute(4, bxor([a, b]), False),
            CleanSlot(4),
            Compute(4, bor([a, b]), True), Compute(2, bvar(4), False),
            Compute(4, bor([a, b]), False)]
    return FlatProgram(name="block", input_slots=[0, 1], output_slots=[2],
                       statements=[Compute(2, band([a, b]), True),
                                   InPlaceBlock.from_statements(
                                       [2], body, [3, 4])],
                       slot_count=5, input_layout=[("x0", 1), ("x1", 1)])


PROFILE_PROGRAMS = {
    "adder-n8": lambda: ripple(8),
    "adder_select": lambda: prog_of(corpus("adder_select.rev")),
    "sha2-r2": lambda: prog_of(corpus("sha2.rev"), {"rounds": 2}),
    "md5-r2": lambda: prog_of(corpus("md5.rev"), {"rounds": 2}),
    "block": block_program,
}


@pytest.mark.parametrize("case", PROFILE_PROGRAMS)
def test_live_profile_tracks_the_emitter_on_corpus(case):
    prog = PROFILE_PROGRAMS[case]()
    for plan in (bennett_cleanup(prog), eager_cleanup(build_mdd(prog))):
        profile = assert_profile_tracks_the_emitter(plan)
        # a copy-and-reverse plan ends with inputs and output copies live
        if plan.output_slots != tuple(prog.output_slots):
            assert profile[-1] == len(prog.input_slots) + len(prog.output_slots)


def test_live_profile_tracks_the_emitter_on_random_programs():
    checkpointed = 0
    for seed in range(60):
        for prog in (random_program(seed), mutating_program(seed)):
            for plan in (bennett_cleanup(prog),
                         eager_cleanup(build_mdd(prog))):
                assert_profile_tracks_the_emitter(plan)
            try:
                incremental_cleanup(prog, qubit_budget=len(prog.input_slots))
                continue
            except BudgetError as exc:
                minimum = exc.minimum
            plan = incremental_cleanup(prog, qubit_budget=minimum)
            checkpointed += plan.checkpoints > 0
            assert_profile_tracks_the_emitter(plan)
    assert checkpointed > 20


def clean_chain_source(seed: int) -> str:
    """A chain of steps, each ANDing the running bit with a temporary that
    it uncomputes and `clean`s with probability 0.7, so that checkpoints
    save slots a later top-level `clean` releases."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    lines = [f"let main (a : bool[{n}]) =", "    let mutable acc = a.[0]"]
    for k in range(rng.randint(3, 9)):
        i, j = rng.sample(range(n), 2)
        step = f"a.[{i}] && a.[{j}]"
        lines += [f"    let t{k} = Array.zeroCreate 1",
                  f"    t{k}.[0] <- t{k}.[0] <> ({step})",
                  f"    let s{k} = Array.zeroCreate 1",
                  f"    s{k}.[0] <- s{k}.[0] <> (acc && t{k}.[0])"]
        if rng.random() < 0.7:
            lines += [f"    t{k}.[0] <- t{k}.[0] <> ({step})",
                      f"    clean t{k}"]
        lines.append(f"    acc <- s{k}.[0] <> a.[{rng.randrange(n)}]")
    return "\n".join(lines + ["    acc", "", "main"])


def test_checkpoints_of_cleaned_slots_verify_at_every_budget():
    """From the reported minimum up to Bennett's width, every budget either
    raises BudgetError or compiles to a circuit that verifies."""
    checkpointed = 0
    for seed in range(40):
        prog = prog_of(clean_chain_source(seed))
        try:
            incremental_cleanup(prog, qubit_budget=len(prog.input_slots))
            minimum = len(prog.input_slots)
        except BudgetError as exc:
            minimum = exc.minimum
        for budget in range(minimum, emit(bennett_cleanup(prog)).width + 1):
            try:
                plan = incremental_cleanup(prog, qubit_budget=budget)
            except BudgetError:
                continue
            assert verify(prog, emit(plan)).ok, (seed, budget)
            assert_profile_tracks_the_emitter(plan)
            checkpointed += plan.checkpoints > 0
    assert checkpointed > 100


# budgets at which the chain's incremental plan crashed in the emitter
# when a read of a `clean`ed bit took a zero wire that nothing freed
CLEANED_READS_CRASHED_AT = {4: 9, 24: 33}


@pytest.mark.parametrize("k", sorted(CLEANED_READS_CRASHED_AT))
def test_cleaned_reads_verify_at_every_budget(k):
    """The cleaned bits read as the constant 0, so every budget either
    raises BudgetError or compiles to a circuit that verifies, with the
    emitter's live profile."""
    prog = prog_of(cleaned_reads_chain_source(k))
    verified = []
    for budget in range(3, 60):
        try:
            plan = incremental_cleanup(prog, qubit_budget=budget)
        except BudgetError:
            continue
        assert verify(prog, emit(plan)).ok, budget
        assert_profile_tracks_the_emitter(plan)
        verified.append(budget)
    assert CLEANED_READS_CRASHED_AT[k] in verified


def test_only_eager_builds_the_dependency_graph(monkeypatch):
    prog = prog_of(corpus("sha2.rev"), {"rounds": 2})

    def no_graph(program):
        raise AssertionError("build_mdd called")

    monkeypatch.setattr("revc.scheduler.build_mdd", no_graph)
    plans = [schedule(prog, "bennett"), schedule(prog, "incremental"),
             schedule(prog, "incremental", 1000)]
    assert plans[2].checkpoints == 0  # the forward run peaks below 1000
    with pytest.raises(BudgetError) as exc:  # runs the minimal-budget search
        schedule(prog, "incremental", len(prog.input_slots))
    plans.append(schedule(prog, "incremental", exc.value.minimum))
    assert plans[-1].checkpoints >= 1
    for plan in plans:
        assert plan.mdd is None and plan.dispositions == {}

    calls = []

    def counted(program):
        calls.append(program)
        return build_mdd(program)

    monkeypatch.setattr("revc.scheduler.build_mdd", counted)
    plan = schedule(prog, "eager")
    assert calls == [prog] and plan.mdd is not None
    assert set(plan.dispositions.values()) == {CLEANED_EAGERLY}


def test_schedule_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        schedule(ripple(4), "magic")


def test_mirror_round_trip():
    acts = [Action("fwd", stmt=i) for i in range(5)]
    back = mirror(mirror(acts))
    assert [a.kind for a in back] == ["fwd"] * 5
    assert [a.stmt for a in back] == [a.stmt for a in acts]


# ---------------------------------------------------------------------------
# eager against a direct reference: one event list, positions found by
# search, reversals spliced in place, and the destroyed-input check spelled
# out.  Quadratic, but plainly the algorithm.


def reference_eager(g):
    """(kind, stmt) rows of the eager plan before any copy-out, and the
    ids of the Unclean terminals."""
    events = [("fwd", i) for i in range(len(g.program.statements))]
    reads = collections.defaultdict(set)  # event -> node ids it reads
    for n in g.nodes:
        if n.kind == OP:
            reads[("fwd", n.stmt_index)] |= set(g.reads[n.id])
            reads[("bwd", n.id)] = set(g.reads[n.id])
    undone_by: dict = {}  # node -> reversal events of its cleaned path
    unclean = set()
    terminals = [n for n in g.nodes
                 if n.kind == OP and n.id not in g.mutation_next]
    for term in sorted(terminals, key=lambda n: -n.id):
        path = g.modification_path(term.id)
        ops = [g.node(x) for x in path if g.node(x).kind == OP]
        if any(n.group is not None for n in ops):
            unclean.add(term.id)
            continue
        d = max([events.index(("fwd", term.stmt_index))]
                + [p for p, ev in enumerate(events) if term.id in reads[ev]])
        for u in g.input_nodes(path):
            w = g.mutation_next.get(u)
            if (w is not None and g.node(w).kind != OUTPUT
                    and events.index(("fwd", g.node(w).stmt_index)) <= d):
                break
            if any(ev in undone_by.get(u, ()) for ev in events[:d + 1]):
                break
        else:
            undo = [("bwd", n.id) for n in reversed(ops)]
            events[d + 1:d + 1] = undo
            undone_by.update((x, set(undo)) for x in path)
            continue
        unclean.add(term.id)
    stmts = g.program.statements
    rows = [(kind, stmts[x] if kind == "fwd" else g.node(x).stmt)
            for kind, x in events]
    return rows, unclean


def mutating_program(seed: int) -> FlatProgram:
    """A random straight-line program that also updates inputs and
    temporaries in place, so that some values cannot be cleaned eagerly."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    live, stmts = list(range(n)), []
    for _ in range(rng.randint(3, 20)):
        target = rng.choice(live) if rng.random() < 0.4 else None
        srcs = [s for s in live if s != target]
        args = [bvar(v) for v in rng.sample(srcs, rng.randint(1, min(3, len(srcs))))]
        expr = args[0] if len(args) == 1 else rng.choice((band, bor, bxor))(args)
        fresh = target is None
        if fresh:
            target = len(live)
            live.append(target)
        stmts.append(Compute(target, expr, fresh=fresh))
    outs = sorted(rng.sample(live, rng.randint(1, min(3, len(live)))))
    return FlatProgram(name=f"mut{seed}", input_slots=list(range(n)),
                       output_slots=outs, statements=stmts, slot_count=len(live),
                       input_layout=[(f"x{i}", 1) for i in range(n)])


def test_eager_matches_reference_on_mutating_programs():
    unclean_seen = 0
    for seed in range(300):
        g = build_mdd(mutating_program(seed))
        plan = eager_cleanup(g)
        rows, unclean = reference_eager(g)
        assert [(a.kind, a.stmt) for a in plan.actions[:len(rows)]] == rows, seed
        assert set(plan.unclean_nodes) == unclean, seed
        assert verify(g.program, emit(plan)).ok, seed
        unclean_seen += bool(unclean)
    assert unclean_seen > 30


@pytest.mark.parametrize("name,params,unclean", [
    ("md5.rev", {"rounds": 2}, 64), ("sha2.rev", {"rounds": 2}, 0),
    ("sha2.rev", {"rounds": 4}, 0)])
def test_eager_matches_reference_on_programs_with_blocks(name, params,
                                                         unclean):
    # the random programs above hold no in-place block; MD5's 64 Unclean
    # values sit behind blocks
    g = build_mdd(prog_of(corpus(name), params))
    assert any(n.group is not None for n in g.nodes)
    plan = eager_cleanup(g)
    rows, ref_unclean = reference_eager(g)
    assert [(a.kind, a.stmt) for a in plan.actions[:len(rows)]] == rows
    assert set(plan.unclean_nodes) == ref_unclean
    assert len(ref_unclean) == unclean
