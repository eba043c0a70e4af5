"""End-to-end acceptance checks for the whole toolkit.

Each test pins one externally meaningful guarantee: oracle equivalence of
every compiled circuit, the closed-form adder resource law, SHA-2 resource
scaling, pebble-game strategy bounds, the optimal-play referee, the BLIF
XOR optimization, linear OR lowering, the eager-cleanup soundness property, and a mutation
check that the verifier itself has teeth.
"""

import itertools
import random
import time

import pytest

from revc import pebble
from revc.blif import clique_cover, lower, parse_blif, reorder
from revc.circuit import Circuit, stats, verify
from revc.emitter import compile_flat
from revc.mdd import build_mdd
from revc.scheduler import eager_cleanup

from helpers import (
    ONE_WAY, classify_paths, corpus, exhaustive_min_steps, prog_of,
    random_program,
)

STRATEGIES = ("bennett", "eager", "incremental")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence on the whole corpus, every strategy


ORACLE_CASES = (
    [("adder_ripple.rev", {"n": n}) for n in (4, 10, 24, 40)]
    + [("adder_select.rev", {"n": 10})]
    + [("sha2.rev", {"rounds": r}) for r in (1, 2, 3, 4)]
    + [("md5.rev", {"rounds": r}) for r in (1, 2)]
)


def test_oracle_equivalence_corpus_and_random():
    t0 = time.perf_counter()
    for name, params in ORACLE_CASES:
        prog = prog_of(corpus(name), params)
        for strategy in STRATEGIES:
            plan, circ = compile_flat(prog, strategy)
            rep = verify(prog, circ, samples=200, seed=0)
            assert rep.ok, (name, params, strategy, rep.mismatches[:3])
    for seed in range(20):
        prog = random_program(seed)
        for strategy in STRATEGIES:
            plan, circ = compile_flat(prog, strategy)
            rep = verify(prog, circ, samples=200, seed=seed)
            assert rep.ok, (seed, strategy, rep.mismatches[:3])
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. Ripple-adder resource law


@pytest.mark.parametrize("n", [10, 15, 20, 25, 30, 35, 40])
def test_adder_gate_and_qubit_law(n):
    prog = prog_of(corpus("adder_ripple.rev"), {"n": n})
    widths = {}
    for strategy in STRATEGIES:
        plan, circ = compile_flat(prog, strategy)
        assert stats(circ)["toffoli_count"] == 4 * n - 6, strategy
        widths[strategy] = circ.width
    assert abs(widths["bennett"] - (5 * n - 1)) <= 0.10 * (5 * n - 1)
    assert abs(widths["eager"] - 4 * n) <= 0.10 * (4 * n)
    # exact targets hit on this implementation
    assert widths["bennett"] == 5 * n - 1
    assert widths["eager"] == 4 * n
    assert widths["incremental"] == widths["bennett"]  # no budget given


# ---------------------------------------------------------------------------
# 3. SHA-2 structural laws


def test_sha2_resource_scaling():
    eager_widths, bennett_widths = [], []
    for r in (1, 2, 3, 4):
        prog = prog_of(corpus("sha2.rev"), {"rounds": r})
        _, eag = compile_flat(prog, "eager")
        _, ben = compile_flat(prog, "bennett")
        assert stats(eag)["toffoli_count"] == 690 * r
        eager_widths.append(eag.width)
        bennett_widths.append(ben.width)
    assert len(set(eager_widths)) == 1, "eager width must not grow with rounds"
    deltas = {b - a for a, b in zip(bennett_widths, bennett_widths[1:])}
    assert len(deltas) == 1, "Bennett width must grow by a constant per round"
    assert abs(eager_widths[0] - 353) <= 0.15 * 353
    assert abs(bennett_widths[0] - 704) <= 0.15 * 704
    assert deltas == {128}


# ---------------------------------------------------------------------------
# 4. Pebble-game strategy bounds


def test_pebble_strategy_bounds():
    rep = pebble.validate(pebble.bennett_strategy(10), 10, 10)
    assert rep.ok and rep.steps == 19 and rep.peak_pebbles == 10

    rep = pebble.validate(pebble.lmt_strategy(32), 32, 6)
    assert rep.ok and rep.peak_pebbles <= 6
    assert abs(rep.steps - 193) <= 0.20 * 193

    for k in range(2, 9):
        T = k * (k + 1) // 2
        rep = pebble.validate(pebble.incremental_strategy(T, k), T, k)
        assert rep.ok and rep.peak_pebbles <= k
        assert rep.placements <= 4 * T


# ---------------------------------------------------------------------------
# 5. Optimal-play referee


def test_optimal_steps_match_exhaustive_search():
    t0 = time.perf_counter()
    for T in range(1, 9):
        for k in range(1, 6):
            brute = exhaustive_min_steps(T, k)
            try:
                steps, moves = pebble.knill_optimal(T, k)
            except pebble.InfeasibleError:
                steps = None
            if steps is None:
                assert brute is None, (T, k)
            else:
                assert steps == brute, (T, k)
                assert pebble.validate(moves, T, k).ok
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 6. BLIF XOR optimization


BLIF_FILES = ["example3.blif", "majority.blif", "mux_net.blif"]
# netlists where regrouping restructures the lowered expression; covers whose
# exclusive cubes only pair up are already collapsed by constant folding at
# expression build time, so only >= 3-cube cliques / mixed OR contexts shrink
STRICTLY_SMALLER = {"example3.blif", "majority.blif"}


@pytest.mark.parametrize("name", BLIF_FILES)
def test_blif_optimization(name):
    net = parse_blif(corpus(name))
    rnet = reorder(net)
    # semantics preserved, exhaustively (all bundled netlists are narrow)
    base_prog = lower(net)
    opt_prog = lower(net, optimize=True)
    from revc.frontend import interpret
    for bits in itertools.product((0, 1), repeat=len(net.inputs)):
        assert interpret(base_prog, list(bits)) == interpret(opt_prog, list(bits))

    base = compile_flat(base_prog, "eager")[1]
    opt = compile_flat(opt_prog, "eager")[1]
    tb, to = stats(base)["toffoli_count"], stats(opt)["toffoli_count"]
    assert to <= tb
    has_clique = any(len(cl) >= 2 for c in rnet.covers for cl in (c.cliques or []))
    if name in STRICTLY_SMALLER:
        assert has_clique
        assert to < tb

    for prog in (base_prog, opt_prog):
        _, eag = compile_flat(prog, "eager")
        _, ben = compile_flat(prog, "bennett")
        assert eag.width <= ben.width
        assert verify(prog, eag).ok and verify(prog, ben).ok


@pytest.mark.parametrize("k", [14, 200])
def test_k_way_or_is_linear(k):
    # De Morgan: one chain of 2(k-2)+1 Toffolis and k-2 scratch wires per
    # synthesis; Bennett computes, copies the output and uncomputes
    prog = prog_of(f"let g (x : bool[{k}]) =\n    "
                   + " || ".join(f"x.[{i}]" for i in range(k)) + "\n\ng\n")
    _, circ = compile_flat(prog, "bennett")
    st = stats(circ)
    assert st["toffoli_count"] == 2 * (2 * (k - 2) + 1)
    assert len(circ.gates) == 2 * (4 * k - 2) + 1
    assert st["qubit_count"] == k + 1 + (k - 2) + 1
    assert verify(prog, circ).ok


# ---------------------------------------------------------------------------
# 7. Eager-cleanup soundness on one-way graphs


def test_eager_clean_on_all_oneway_graphs():
    for seed in range(500):
        prog = random_program(seed)
        g = build_mdd(prog)
        assert set(classify_paths(g).values()) <= {ONE_WAY}, seed
        plan = eager_cleanup(g)
        assert not plan.unclean_nodes, seed


def test_eager_unclean_fallback_on_mutated_input():
    src = """
let f (a : bool) (bin : bool) =
    let mutable b = bin
    let c = a && b
    b <- b <> c
    b

f
"""
    prog = prog_of(src)
    plan, circ = compile_flat(prog, "eager")
    assert len(plan.unclean_nodes) == 1
    assert verify(prog, circ, samples=200, seed=0).ok


# ---------------------------------------------------------------------------
# 8. The verifier has teeth


def test_single_gate_deletion_always_detected():
    prog = prog_of(corpus("adder_ripple.rev"), {"n": 4})
    _, circ = compile_flat(prog, "eager")
    assert verify(prog, circ).ok
    rng = random.Random(2024)
    picks = rng.sample(range(len(circ.gates)), 10)
    for i in picks:
        mutated = Circuit(circ.width, circ.gates[:i] + circ.gates[i + 1:],
                          list(circ.inputs), list(circ.outputs))
        assert not verify(prog, mutated).ok, f"deleting gate {i} went unnoticed"
