import gc
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import revc

from revc.boolexpr import band, bvar, variables
from revc.circuit import verify
from revc.emitter import compile_flat
from revc.frontend import (
    Compute, FlatProgram, InPlaceBlock, flatten, interpret, parse,
)
from revc.mdd import CLEAN, INIT, INPUT, OP, OUTPUT, build_mdd, to_dot
from revc.scheduler import eager_cleanup, incremental_cleanup

from helpers import (
    INTERDEPENDENT, ONE_WAY, chain_program, classify_paths, corpus,
    evaluate_mdd, mutation_paths, prog_of,
)


AND_SRC = """
let f (a : bool) (b : bool) = a && b

f
"""

# a garbage value computed from an input that is itself later mutated
MUTATED_INPUT_SRC = """
let f (a : bool) (bin : bool) =
    let mutable b = bin
    let c = a && b
    b <- b <> c
    b

f
"""


def test_single_and_graph_shape():
    g = build_mdd(prog_of(AND_SRC))
    kinds = [n.kind for n in g.nodes]
    # two inputs, one init+op for the fresh AND, one output designation
    assert kinds.count(INPUT) == 2
    assert kinds.count(INIT) == 1
    assert kinds.count(OP) == 1
    assert kinds.count(OUTPUT) == 1
    op = next(n for n in g.nodes if n.kind == OP)
    assert sorted(g.reads[op.id]) == g.input_ids
    # mutation: init -> op -> output
    init = next(n for n in g.nodes if n.kind == INIT)
    assert g.mutation_next[init.id] == op.id
    assert g.node(g.mutation_next[op.id]).kind == OUTPUT


def test_mutated_input_has_mutation_edge_and_is_interdependent():
    g = build_mdd(prog_of(MUTATED_INPUT_SRC))
    b_input = g.node(g.input_ids[1])
    assert b_input.id in g.mutation_next, "mutated input must start a path"
    cls = classify_paths(g)
    assert INTERDEPENDENT in cls.values()


def test_one_way_classification():
    g = build_mdd(prog_of(AND_SRC))
    assert set(classify_paths(g).values()) <= {ONE_WAY}


def test_modification_path_and_inputs():
    g = build_mdd(prog_of(MUTATED_INPUT_SRC))
    c_op = next(n for n in g.nodes if n.kind == OP and n.id not in
                {g.mutation_next.get(i) for i in g.input_ids})
    path = g.modification_path(c_op.id)
    assert path[-1] == c_op.id
    assert g.node(path[0]).kind == INIT
    ins = g.input_nodes(path)
    assert set(ins) == set(g.input_ids)


def test_mutation_paths_are_vertex_disjoint():
    for name, params in [("adder_ripple.rev", {"n": 6}), ("sha2.rev", None)]:
        g = build_mdd(prog_of(corpus(name), params))
        seen = set()
        for p in mutation_paths(g):
            assert not (set(p) & seen)
            seen |= set(p)


def test_evaluate_mdd_matches_interpreter():
    rng = random.Random(11)
    for name, params in [("adder_ripple.rev", {"n": 8}),
                         ("adder_select.rev", {"n": 10}),
                         ("sha2.rev", {"rounds": 1})]:
        prog = prog_of(corpus(name), params)
        g = build_mdd(prog)
        n = len(prog.input_slots)
        for _ in range(20):
            bits = [rng.randrange(2) for _ in range(n)]
            assert evaluate_mdd(g, bits) == interpret(prog, bits)


def test_dot_output():
    g = build_mdd(prog_of(AND_SRC))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert "style=bold" in dot and "style=dashed" in dot


def test_build_scales_linearly_enough():
    # ~4x the statements should take well under ~10x the time; this is a
    # coarse smoke check that the build is a single pass
    small = prog_of(corpus("sha2.rev"), {"rounds": 1})
    big = prog_of(corpus("sha2.rev"), {"rounds": 4})
    t0 = time.perf_counter()
    for _ in range(3):
        build_mdd(small)
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(3):
        build_mdd(big)
    t_big = time.perf_counter() - t0
    assert t_big < max(t_small, 1e-3) * 40


ACCUMULATION_LOOP = """\
let chain (a : bool[2]) =
    let t = Array.zeroCreate 1
    for i in 1 .. N do
        t.[0] <- t.[0] <> (a.[0] && a.[1])
    t
"""


def test_flatten_scales_linearly_on_a_loop():
    # 4x the iterations should take well under 10x the time to flatten:
    # the loop's write is walked once per slot pattern (fresh, then
    # written) and replayed after.  Best of three, with the collector off
    def best(ast):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            flatten(ast)
            runs.append(time.perf_counter() - t0)
        return min(runs)

    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n in (5_000, 20_000):
            ast = parse(ACCUMULATION_LOOP.replace("N", str(n)))
            counts = {}
            assert len(flatten(ast, counts=counts).statements) == n
            assert (counts["assign_templates"],
                    counts["assign_replays"]) == (2, n - 2)
            times.append(best(ast))
    finally:
        if enabled:
            gc.enable()
    small, big = times
    assert big < max(small, 1e-3) * 8


def accumulation_chain(n: int) -> FlatProgram:
    """`for i in 1 .. n do t.[0] <- t.[0] <> (a.[0] && a.[1])` over a local
    t that is not an output, as flatten gives it: one mutation path of n
    operations, which eager cleans with n reversals."""
    e = band([bvar(0), bvar(1)])
    stmts = [Compute(2, e, fresh=i == 0) for i in range(n)]
    return FlatProgram(name="chain", input_slots=[0, 1], output_slots=[0, 1],
                       statements=stmts, slot_count=3,
                       input_layout=[("a", 2)])


def best(f) -> float:
    """The fastest of three runs of f, in seconds."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        f()
        runs.append(time.perf_counter() - t0)
    return min(runs)


def test_eager_scales_linearly_on_an_accumulation_chain():
    # 4x the chain should take well under 10x the time to walk its path
    # and plan its cleanup; growing the path at its head made both
    # quadratic.  Best of three, with the collector off so that it times
    # the pass and not the heap
    times = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n in (10_000, 40_000):
            g = build_mdd(accumulation_chain(n))
            term = g.garbage_terminals()[-1].id
            path = g.modification_path(term)
            assert len(path) == n + 1 and path[-1] == term
            plan = eager_cleanup(g)
            assert plan.reversals_inserted == n and not plan.unclean_nodes
            times[n] = (best(lambda: g.modification_path(term)),
                        best(lambda: eager_cleanup(g)))
    finally:
        if enabled:
            gc.enable()
    (path_small, plan_small), (path_big, plan_big) = times.values()
    assert path_big < max(path_small, 1e-4) * 8
    assert plan_big < plan_small * 8


def test_checkpoint_renaming_scales_linearly_on_a_chain():
    # each statement after a checkpoint is renamed once.  4x the chain at
    # its minimum budget, 86 checkpoints to 39, should plan in well under
    # 8x the time; and 86 checkpoints of the long chain in well under
    # 2.5x the time of 4.  Renaming the rest of the program at every cut
    # grows with the statements times the checkpoints: about 5x on the
    # second ratio, 7x to 11x on the first.  Best of three, with the
    # collector off
    times = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k, budget, checkpoints in ((2000, 91, 39), (8000, 180, 86),
                                       (8000, 2000, 4)):
            prog = chain_program(k)
            plan = incremental_cleanup(prog, budget)
            assert plan.checkpoints == checkpoints
            times[k, budget] = best(lambda: incremental_cleanup(prog, budget))
    finally:
        if enabled:
            gc.enable()
    assert times[8000, 180] < times[2000, 91] * 8
    assert times[8000, 180] < times[8000, 2000] * 2.5


def test_clean_nodes_recorded():
    src = """
let f (a : bool) (b : bool) =
    let mutable t = a && b
    t <- t <> (a && b)
    clean t
    a <> true

f
"""
    g = build_mdd(prog_of(src))
    assert any(n.kind == CLEAN for n in g.nodes)


def test_reads_of_a_compute_are_its_sorted_args():
    prog = prog_of(corpus("sha2.rev"), {"rounds": 2})
    g = build_mdd(prog)
    ops = [n for n in g.nodes if n.kind == OP and isinstance(n.stmt, Compute)]
    assert len(ops) == 256
    for n in ops:
        assert [g.node(r).slot for r in g.reads.get(n.id, [])] == sorted(
            n.stmt.args) == sorted(variables(n.stmt.expr))


def test_block_members_share_one_read_list():
    prog = prog_of(corpus("sha2.rev"), {"rounds": 2})
    g = build_mdd(prog)
    members: dict[int, list] = {}  # block statement index -> member ids
    for n in g.nodes:
        if n.group is not None:
            members.setdefault(n.group, []).append(n.id)
    blocks = [s for s in prog.statements if isinstance(s, InPlaceBlock)]
    assert len(members) == len(blocks) > 1
    for ids in members.values():
        assert len({id(g.reads[m]) for m in ids}) == 1
        for src in g.reads[ids[0]]:
            # an argument's readers name each block by its first member
            assert [r for r in g.dependents[src] if r in ids] == ids[:1]
    # read edges still count per member
    assert sum(map(len, g.reads.values())) == sum(
        len(variables(s.expr)) if isinstance(s, Compute) else
        len(s.target_slots) * len(s.arg_slots) if isinstance(s, InPlaceBlock)
        else 0 for s in prog.statements)
    # a graph where every member has reads and dependents of its own
    ref = build_mdd(prog)
    for ids in members.values():
        for m in ids[1:]:
            ref.reads[m] = list(ref.reads[ids[0]])
            for src in ref.reads[m]:
                ref.dependents[src].append(m)
    assert len({id(r) for r in ref.reads.values()}) == len(ref.nodes)
    plan, ref_plan = eager_cleanup(g), eager_cleanup(ref)
    assert plan.dispositions == ref_plan.dispositions
    assert [(a.kind, id(a.stmt)) for a in plan.actions] == [
        (a.kind, id(a.stmt)) for a in ref_plan.actions]


# a hand-built program may name one output slot twice: the graph would
# give the slot's last state two output successors
REPEATED_OUTPUT = ('FlatProgram(name="dup", input_slots=[0, 1], '
                   'output_slots=[0, 0], statements=[], slot_count=2)')


def test_repeated_output_slot_is_a_value_error_under_eager():
    prog = FlatProgram(name="dup", input_slots=[0, 1], output_slots=[0, 0],
                       statements=[], slot_count=2)
    with pytest.raises(ValueError, match="^output slot 0 repeated$"):
        compile_flat(prog, "eager")
    # bennett and incremental copy each output to a wire of its own
    for strategy in ("bennett", "incremental"):
        _, circ = compile_flat(prog, strategy)
        assert verify(prog, circ).ok


def test_repeated_output_slot_is_a_value_error_without_asserts():
    # the check holds under `python -O`, which skips assert statements
    src = str(Path(revc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from revc.emitter import compile_flat\n"
            "from revc.frontend import FlatProgram\n"
            "try:\n"
            f"    compile_flat({REPEATED_OUTPUT}, 'eager')\n"
            "except ValueError as e:\n"
            "    print(e)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "output slot 0 repeated\n", "")
