import json
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import revc
from revc.cli import main
from revc.boolexpr import MAX_STATEMENT_GATES
from revc.circuit import Circuit, depth, format_circuit, parse_circuit
from revc.frontend import (
    MAX_ALLOCATED_BITS, MAX_NESTING, MAX_UNROLLED_ITERATIONS, FlattenError,
    InPlaceBlock, InterpretError, flatten, interpret_source, parse,
)
from revc.scheduler import schedule


def corpus_path(name: str) -> str:
    return str(resources.files("revc") / "corpus" / name)


def test_compile_writes_circuit_and_stats(tmp_path, capsys):
    out = tmp_path / "adder.tfc"
    stats = tmp_path / "stats.json"
    rc = main(["compile", corpus_path("adder_ripple.rev"), "--param", "n=10",
               "--strategy", "eager", "-o", str(out), "--stats", str(stats)])
    assert rc == 0
    assert out.exists()
    rep = json.loads(stats.read_text())
    assert rep["toffoli_count"] == 34
    assert rep["qubit_count"] == 40
    # a gate that recurs (an AND computed and uncomputed) counts once
    assert 0 < rep["distinct_gates"] < rep["gate_count"]
    assert rep["compile_seconds"] >= 0


def test_stats_report_stage_seconds(capsys):
    rc = main(["stats", corpus_path("adder_ripple.rev"), "--param", "n=6",
               "--strategy", "incremental", "--qubits", "24"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    stages = rep["stage_seconds"]
    assert set(stages) == {"parse", "flatten", "schedule", "emit"}
    assert all(v >= 0 for v in stages.values())
    assert rep["compile_seconds"] == pytest.approx(
        stages["schedule"] + stages["emit"], abs=2e-6)


def test_stats_time_the_graph_as_its_own_stage_under_eager(capsys):
    rc = main(["stats", corpus_path("adder_ripple.rev"), "--param", "n=6",
               "--strategy", "eager"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    stages = rep["stage_seconds"]
    assert set(stages) == {"parse", "flatten", "mdd", "schedule", "emit"}
    assert all(v >= 0 for v in stages.values())
    assert rep["compile_seconds"] == pytest.approx(
        stages["mdd"] + stages["schedule"] + stages["emit"], abs=3e-6)

def test_compile_emit_mdd(tmp_path):
    dot = tmp_path / "g.dot"
    rc = main(["compile", corpus_path("adder_ripple.rev"), "--param", "n=4",
               "-o", str(tmp_path / "a.tfc"), "--emit-mdd", str(dot)])
    assert rc == 0
    assert dot.read_text().startswith("digraph")


def test_sim_adds_integers(capsys):
    rc = main(["sim", corpus_path("adder_ripple.rev"), "--param", "n=4",
               "--inputs", "11001010"])  # a=3, b=5 little-endian
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0001"  # 8


@pytest.mark.parametrize("inputs,bad", [("0121", "2"), ("0101 0101", " "),
                                        ("01x", "x")])
def test_sim_rejects_other_input_characters(capsys, inputs, bad):
    rc = main(["sim", corpus_path("adder_ripple.rev"), "--param", "n=4",
               "--inputs", inputs])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --inputs takes only 0 and 1, got {bad!r}\n"


def test_verify_ok(capsys):
    rc = main(["verify", corpus_path("adder_ripple.rev"), "--param", "n=6",
               "--strategy", "eager", "--samples", "50"])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


# the adder n=6 has 12 inputs, more than an exhaustive check takes, so
# zero samples would check nothing
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_needs_a_sample(capsys, samples):
    rc = main(["verify", corpus_path("adder_ripple.rev"), "--param", "n=6",
               "--samples", samples])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --samples must be at least 1, got {samples}\n"


def test_revc_seed_is_read_only_by_verify_without_seed(tmp_path, capsys,
                                                       monkeypatch):
    adder = [corpus_path("adder_ripple.rev"), "--param", "n=6"]
    monkeypatch.setenv("REVC_SEED", "5")
    assert main(["verify", *adder, "--samples", "20"]) == 0
    assert "(20 samples, seed 5)" in capsys.readouterr().out
    monkeypatch.setenv("REVC_SEED", "abc")
    assert main(["compile", *adder, "-o", str(tmp_path / "out.tfc")]) == 0
    assert main(["verify", *adder, "--samples", "20", "--seed", "3"]) == 0
    assert "(20 samples, seed 3)" in capsys.readouterr().out
    assert main(["verify", *adder, "--samples", "20"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: REVC_SEED must be an integer, got 'abc'\n"


def test_stats_constant_sha_width(capsys):
    rc = main(["stats", corpus_path("sha2.rev"), "--param", "rounds=2",
               "--strategy", "eager"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["qubit_count"] == 353
    assert rep["toffoli_count"] == 2 * 690
    # seven in-place additions per round, each a 189-statement body
    assert (rep["flat_statements"], rep["inplace_blocks"],
            rep["block_body_statements"], rep["slots"]) == (
                270, 14, 14 * 189, 590)
    # no value is left Unclean, so every bwd is an inserted reversal
    assert (rep["mdd_nodes"], rep["mdd_read_edges"],
            rep["reversals_inserted"]) == (1536, 15104, 256)
    # the most wires live between actions; the width adds one wire of
    # synthesis scratch
    assert rep["peak_live"] == 352


def test_stats_report_one_dependency_graph_under_every_strategy(capsys):
    # bennett and incremental plan without the graph; the report builds it
    graphs = {}
    for strategy in ("bennett", "eager", "incremental"):
        rc = main(["stats", corpus_path("sha2.rev"), "--param", "rounds=2",
                   "--strategy", strategy])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        graphs[strategy] = (rep["mdd_nodes"], rep["mdd_read_edges"])
    assert set(graphs.values()) == {(1536, 15104)}


def stats_of(capsys, name: str, *flags: str) -> dict:
    """The `revc stats` report of a corpus program."""
    assert main(["stats", corpus_path(name), *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_stats_pin_the_sha2_incremental_plan_at_its_minimum_budget(capsys):
    # at the minimum budget of 672 one checkpoint is saved; the most wires
    # live between actions, and the width, are above the budget, which
    # bounds the forward segments only
    rep = stats_of(capsys, "sha2.rev", "--param", "rounds=4",
                   "--strategy", "incremental", "--qubits", "672")
    assert (rep["checkpoints"], rep["peak_live"], rep["qubit_count"]) == (
        1, 1120, 1121)


def test_stats_pin_the_md5_eager_plan_counters(capsys):
    rep = stats_of(capsys, "md5.rev", "--param", "rounds=2",
                   "--strategy", "eager")
    assert (rep["reversals_inserted"], rep["unclean_count"]) == (64, 64)


def test_stats_pin_the_sha2_rounds16_eager_plan_and_graph(capsys):
    rep = stats_of(capsys, "sha2.rev", "--param", "rounds=16",
                   "--strategy", "eager")
    assert (rep["reversals_inserted"], rep["unclean_count"], rep["mdd_nodes"],
            rep["mdd_read_edges"]) == (2048, 0, 8256, 120832)


def test_stats_report_depth_and_toffoli_depth(capsys):
    # depth counts ASAP layers, a gate occupying all its wires; Toffoli
    # depth the same over the Toffolis alone, CNOTs and NOTs dropped
    reps = [stats_of(capsys, name, "--param", f"rounds={rounds}",
                     "--strategy", "eager")
            for name, rounds in (("sha2.rev", 16), ("md5.rev", 2))]
    assert [(r["depth"], r["toffoli_depth"]) for r in reps] == [
        (27414, 9536), (6065, 2388)]
    # a NOT, a CNOT and a Toffoli in a row, and a CNOT beside them
    c = Circuit(5, [(0,), (0, 1), (3, 4), (0, 1, 2)])
    assert depth(c) == (3, 1)
    assert depth(Circuit(3, [(0, 1), (1, 2)])) == (2, 0)
    assert depth(Circuit(0)) == (0, 0)


def test_stats_report_the_eager_graph_under_bennett(capsys):
    # bennett plans without the graph; the report builds the same one
    eager, bennett = (stats_of(capsys, "sha2.rev", "--param", "rounds=4",
                               "--strategy", s) for s in ("eager", "bennett"))
    assert bennett["mdd_nodes"] == eager["mdd_nodes"]


def test_stats_count_block_recipes_and_replays(capsys):
    rc = main(["stats", corpus_path("sha2.rev"), "--param", "rounds=4",
               "--strategy", "eager"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    plan = schedule(flatten(parse(Path(corpus_path("sha2.rev")).read_text(),
                                  params={"rounds": 4})), "eager")
    runs = sum(isinstance(a.stmt, InPlaceBlock) for a in plan.actions)
    assert runs >= rep["inplace_blocks"] == 28
    # the blocks run a few shared bodies
    assert 0 < rep["block_templates"] < rep["inplace_blocks"]
    # every block run walks its body once per template, direction and
    # entry pattern and replays that recipe otherwise
    assert rep["block_replays"] > 0
    assert rep["block_recipes"] + rep["block_replays"] == runs


def test_stats_count_call_templates_and_replays(capsys):
    # a SHA-2 round makes 11 calls: 7 in place, all of one signature, and
    # ch, ma, s0 and s1 out of place; only the first of each is inlined
    assert main(["stats", corpus_path("sha2.rev"), "--param", "rounds=4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["call_templates"], rep["call_replays"]) == (5, 4 * 11 - 5)
    # the 18 assignments of addMod2_32, ch, ma, s0 and s1 run 316 times,
    # all while their calls are first inlined; each meets one slot
    # pattern, so each is walked once and replayed after
    assert (rep["assign_templates"], rep["assign_replays"]) == (18, 316 - 18)
    # MD5 rounds=2: the 15 assignments of addMod2_32 and F run 440 times;
    # three writes onto the target meet it fresh in the first addition
    # onto a new `t`, and F's meets C sharing B's slots in round 2
    assert main(["stats", corpus_path("md5.rev"), "--param", "rounds=2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["assign_templates"], rep["assign_replays"]) == (19, 440 - 19)
    # every .rev job of the benchmark: a lost replay fails here, not only
    # as a slower compile
    for name, params, counters in [
            ("sha2.rev", ["rounds=4"], (5, 39, 18, 298)),
            ("sha2.rev", ["rounds=8"], (5, 83, 18, 298)),
            ("sha2.rev", ["rounds=16"], (5, 171, 18, 298)),
            ("md5.rev", ["rounds=2"], (4, 8, 19, 421)),
            ("adder_ripple.rev", ["n=40"], (0, 0, 4, 74)),
            ("adder_select.rev", [], (2, 3, 4, 6))]:
        args = [a for p in params for a in ("--param", p)]
        assert main(["stats", corpus_path(name), *args]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["call_templates"], rep["call_replays"],
                rep["assign_templates"], rep["assign_replays"]) == counters, (
                    name, params)
    assert main(["stats", corpus_path("majority.blif")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["call_templates"], rep["call_replays"]) == (0, 0)
    assert (rep["assign_templates"], rep["assign_replays"]) == (0, 0)


def test_stats_count_expression_forms_and_recipes(tmp_path, capsys):
    # replayed calls, blocks and assignments share their templates' forms:
    # a form object is made once per assignment template, so SHA-2's
    # loops make 18 and more rounds add none, and the emitter compiles one
    # recipe per distinct form
    reps = []
    for name, rounds in (("sha2.rev", 4), ("sha2.rev", 16), ("md5.rev", 2)):
        assert main(["stats", corpus_path(name),
                     "--param", f"rounds={rounds}"]) == 0
        reps.append(json.loads(capsys.readouterr().out))
    assert [(r["expression_forms"], r["expression_recipes"])
            for r in reps] == [(18, 5), (18, 5), (83, 4)]
    # each BLIF cover is a form object of its own, and covers of equal
    # forms share a recipe
    path = tmp_path / "ands.blif"
    path.write_text(".model m\n.inputs a b c\n.outputs x y z\n"
                    ".names a b x\n11 1\n.names c b y\n11 1\n"
                    ".names a c z\n10 1\n.end\n")
    assert main(["stats", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["expression_forms"], rep["expression_recipes"]) == (3, 2)


def test_empty_file_is_user_error(tmp_path, capsys):
    empty = tmp_path / "empty.rev"
    empty.write_text("")
    rc = main(["compile", str(empty)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_infeasible_budget_is_user_error(capsys):
    rc = main(["compile", corpus_path("adder_ripple.rev"), "--param", "n=10",
               "--strategy", "incremental", "--qubits", "25",
               "-o", "/dev/null"])
    assert rc == 1
    assert "minimum" in capsys.readouterr().err


def test_infeasible_sha2_budget_names_the_minimum(tmp_path, capsys):
    out = tmp_path / "sha2.tfc"
    rc = main(["compile", corpus_path("sha2.rev"), "--param", "rounds=4",
               "--strategy", "incremental", "--qubits", "600",
               "-o", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "minimum is 672" in err
    assert not out.exists()


def test_compiled_circuit_reads_back_byte_for_byte(tmp_path):
    # the emitter's circuit, built without the per-gate check, goes
    # through the checked path of `parse_circuit` and back
    out = tmp_path / "sha2_eager.tfc"
    assert main(["compile", corpus_path("sha2.rev"), "--param", "rounds=4",
                 "--strategy", "eager", "-o", str(out)]) == 0
    text = out.read_text()
    assert format_circuit(parse_circuit(text)) == text


@pytest.mark.parametrize("strategy", ["bennett", "eager"])
def test_qubits_needs_the_incremental_strategy(tmp_path, capsys, strategy):
    out = tmp_path / "a.tfc"
    rc = main(["compile", corpus_path("adder_ripple.rev"), "--param", "n=4",
               "--strategy", strategy, "--qubits", "3", "-o", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "incremental" in err
    assert not out.exists()


def test_pebble_reports(capsys):
    rc = main(["pebble", "--time", "10", "--strategy", "bennett"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "19 steps" in out and "peak 10" in out


def test_pebble_table(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["pebble-table", "--time-max", "5", "--pebbles", "2,3",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "pebbles,gates,min_steps"
    assert len(lines) == 11


@pytest.mark.parametrize("argv", [
    *(["pebble", "--time", str(10 ** 9), "--pebbles", "64", "--strategy", s]
      for s in ("bennett", "incremental", "lmt", "knill")),
    ["pebble-table", "--time-max", str(10 ** 9), "--pebbles", "2,64"],
    # a pebble per node needs no DP, but its play lists the line
    ["pebble", "--time", str(10 ** 9), "--pebbles", str(10 ** 9),
     "--strategy", "knill"],
    ["pebble-table", "--time-max", str(10 ** 9), "--pebbles", str(10 ** 9)],
], ids=["bennett", "incremental", "lmt", "knill", "pebble-table",
        "knill-pebble-per-node", "pebble-table-pebble-per-node"])
def test_pebble_past_its_bound_is_user_error(argv, capsys):
    # a line too long to list, or a DP too large to solve, is one line,
    # not a hang or a MemoryError
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: pebble ") and err.count("\n") == 1


@pytest.mark.parametrize("strategy,time_,pebbles,need", [
    ("bennett", 10, 5, 10), ("lmt", 32, 3, 6)])
def test_pebble_budget_below_a_fixed_play_is_user_error(capsys, strategy,
                                                       time_, pebbles, need):
    # bennett and lmt play a fixed game: a smaller budget is a user error
    # naming what the play needs, not a verification failure (exit 2)
    assert main(["pebble", "--time", str(time_), "--pebbles", str(pebbles),
                 "--strategy", strategy]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {strategy} needs {need} pebbles for T={time_}, "
                   f"got {pebbles}\n")
    # at what it needs the play runs
    assert main(["pebble", "--time", str(time_), "--pebbles", str(need),
                 "--strategy", strategy]) == 0
    assert f"peak {need} pebbles" in capsys.readouterr().out


def test_pebble_bounds_keep_the_readme_example(capsys):
    assert main(["pebble", "--time", "32", "--strategy", "lmt"]) == 0
    assert capsys.readouterr().out == (
        "lmt T=32: 193 steps, peak 6 pebbles, 97 placements, clean=True\n")


def test_blif_batch_report(tmp_path, capsys):
    report = tmp_path / "rows.json"
    rc = main(["blif", corpus_path("example3.blif"), corpus_path("majority.blif"),
               "--optimize-xor", "--report", str(report)])
    assert rc == 0
    rows = json.loads(report.read_text())
    assert len(rows) == 2
    assert all(r["toffoli_optimized"] <= r["toffoli_unoptimized"] for r in rows)


def test_blif_cover_naming_an_input_twice_is_user_error(tmp_path, capsys):
    # `.names a a c` would read one wire twice in a cube: it is rejected
    # with its line, not met by the emitter
    path = tmp_path / "twice.blif"
    path.write_text(".model m\n.inputs a\n.outputs c\n"
                    ".names a a c\n11 1\n.end\n")
    error = "line 4: signal 'a' appears twice in the cover for 'c'"
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    report = tmp_path / "rows.json"
    assert main(["blif", str(path), "--report", str(report)]) == 0
    assert capsys.readouterr().err == f"{path}: skipped ({error})\n"
    assert json.loads(report.read_text()) == [{"file": str(path),
                                               "skipped": error}]


@pytest.mark.parametrize("src,error", [
    (".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n"
     ".names b y\n1 1\n.end\n", "line 6: second cover for signal 'y'"),
    (".model m\n.inputs a b\n.outputs b\n.names a b\n1 1\n.end\n",
     "line 4: cover for primary input 'b'"),
], ids=["two-covers", "cover-of-input"])
@pytest.mark.parametrize("command", ["sim", "verify"])
def test_blif_signal_driven_twice_is_user_error(tmp_path, capsys, src, error,
                                                command):
    # a second driver of a signal, cover or primary input, would silently
    # override the first
    path = tmp_path / "twice.blif"
    path.write_text(src)
    extra = ["--inputs", "01"] if command == "sim" else []
    assert main([command, str(path), *extra]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_bad_param_is_user_error(capsys):
    rc = main(["compile", corpus_path("adder_ripple.rev"), "--param", "n=ten"])
    assert rc == 1


INPLACE_MAIN = """
let main (y : bool[2]) (z : bool[1]) =
    z <- f y
    z

main
"""

# Each `f` breaks the in-place contract only when both bits of its argument
# are 1, which the all-zeros validation lane alone would miss.
INPLACE_REJECTED = [
    ("""let f (a : bool array) =
    let r = Array.zeroCreate 1
    a.[0] <- a.[0] <> a.[1]
    r.[0] <- r.[0] <> a.[0]
    r
""", "function 'f' used in an in-place update must restore its arguments"),
    ("""let f (a : bool array) =
    let r = Array.zeroCreate 1
    let t = a.[0] && a.[1]
    r.[0] <- r.[0] <> t
    r
""", "function 'f' used in an in-place update leaves non-zero local bits"),
    ("""let f (a : bool array) =
    let r = Array.zeroCreate 1
    let t = a.[0] && a.[1]
    clean t
    r.[0] <- r.[0] <> a.[0]
    r
""", "in-place call of 'f': clean of non-zero slot"),
    ("""let f (a : bool array) =
    let r = Array.zeroCreate 2
    r.[0] <- r.[0] <> a.[0]
    r
""", "in-place result 'r' has 2 bit(s) but its target has 1"),
]


@pytest.mark.parametrize("fdef,message", INPLACE_REJECTED,
                         ids=["argument", "local", "clean", "width"])
def test_inplace_contract_violation_is_user_error(tmp_path, capsys, fdef,
                                                  message):
    src = fdef + INPLACE_MAIN
    line = 1 + src.splitlines().index("    z <- f y")
    with pytest.raises(FlattenError) as exc:
        flatten(parse(src))
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: {message}")
    path = tmp_path / "inplace.rev"
    path.write_text(src)
    rc = main(["compile", str(path), "-o", str(tmp_path / "out.tfc")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("src,message", [
    ("let f (x : bool[4 / 0]) = x\n\nf\n", "line 1: division by zero"),
    ("let n = 5 % 0\nlet f (x : bool[4]) = x\n\nf\n", "line 1: modulo by zero"),
    ("let k = [| 1; 2; 3 |]\nlet f (x : bool[4]) =\n    x.[k.[7]]\n\nf\n",
     "line 3: index 7 out of range for 'k' (size 3)"),
    ("let k = [| 1; 2; 3 |]\nlet f (x : bool[4]) =\n    x.[k.[0 - 1]]\n\nf\n",
     "line 3: index -1 out of range for 'k' (size 3)"),
    ("let f (a : bool[2]) (x : bool) =\n    a.[x]\n\nf\n",
     "line 2: bound or index is not a compile-time integer"),
    ("let f (x : bool[0 - 2]) = x\n\nf\n", "line 1: negative array size"),
    ("let n = sqrt (0 - 4)\nlet f (x : bool[4]) = x\n\nf\n",
     "line 1: sqrt of a negative number"),
    (f"let n = sqrt 1{'0' * 400}\nlet f (x : bool[4]) = x\n\nf\n",
     "line 1: sqrt argument is too large"),
], ids=["div-zero", "mod-zero", "index-high", "index-negative", "bit-index",
        "negative-size", "sqrt-negative", "sqrt-huge"])
def test_bad_compile_time_integer_is_user_error(tmp_path, capsys, src, message):
    path = tmp_path / "bad.rev"
    path.write_text(src)
    rc = main(["compile", str(path), "-o", str(tmp_path / "out.tfc")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


CLEAN_OF_INPUT = """let f (x : bool[2]) =
    let z = Array.zeroCreate 1
    z.[0] <- x.[1]
    clean z
    x
"""


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_clean_of_an_input_bit_is_user_error(tmp_path, capsys, command):
    # z.[0] is a re-label of x.[1]: the emitter would release an input wire
    path = tmp_path / "clean_input.rev"
    path.write_text(CLEAN_OF_INPUT)
    args = [command, str(path)]
    if command == "compile":
        args += ["-o", str(tmp_path / "out.tfc")]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: line 4: clean of 'z' would release an input bit\n")


HUGE_LOOP = """let f (x : bool) =
    let mutable y = x
    for i in 0 .. 100000000 do
        y <- y
    y

f
"""


def test_unbounded_unrolling_is_user_error(tmp_path, capsys):
    path = tmp_path / "loop.rev"
    path.write_text(HUGE_LOOP)
    t0 = time.perf_counter()
    rc = main(["compile", str(path), "-o", str(tmp_path / "out.tfc")])
    assert time.perf_counter() - t0 < 0.5
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: line 3: loops unroll to more than {MAX_UNROLLED_ITERATIONS} "
        "iterations\n")
    with pytest.raises(InterpretError) as exc:
        interpret_source(parse(HUGE_LOOP), [1])
    assert exc.value.line == 3


HUGE_ARRAY = """let f (x : bool) =
    let z = Array.zeroCreate 1000000
    x

f
"""


@pytest.mark.parametrize("src,line", [
    (HUGE_ARRAY, 2), ("let f (x : bool[1000000]) = x\n\nf\n", 1),
], ids=["zeroCreate", "entry-parameter"])
def test_unbounded_allocation_is_user_error(tmp_path, capsys, src, line):
    path = tmp_path / "array.rev"
    path.write_text(src)
    t0 = time.perf_counter()
    rc = main(["compile", str(path), "-o", str(tmp_path / "out.tfc")])
    assert time.perf_counter() - t0 < 0.5
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: line {line}: arrays allocate more than {MAX_ALLOCATED_BITS} "
        "bits\n")
    with pytest.raises(InterpretError) as exc:
        interpret_source(parse(src), [1])
    assert exc.value.line == line


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_list_outside_concat_is_user_error(tmp_path, capsys, command):
    path = tmp_path / "list.rev"
    path.write_text("let f (t : bool[1]) =\n    Array.append [t] [t]\n\nf\n")
    rc = main([command, str(path), "-o", str(tmp_path / "out.tfc")]
              if command == "compile" else [command, str(path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: line 2: a list [a; ...] is only allowed as the argument of "
        "Array.concat\n")


def test_python_dash_m_runs_the_cli():
    src = str(Path(revc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "revc", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: revc")
    done = subprocess.run([sys.executable, "-m", "revc", "verify",
                           corpus_path("adder_ripple.rev"), "--param", "n=8",
                           "--strategy", "eager"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert re.search(r": ok \(\d+ samples, seed -?\d+\)\n\Z", done.stdout)


def repeated_in_place_call(calls: int, local: str) -> str:
    """`main` makes `calls` in-place calls of `step`, whose body holds
    `local` at line 3."""
    return ("let step (x : bool array) =\n"
            "    let out = Array.zeroCreate 1\n"
            f"{local}"
            "    out.[0] <- out.[0] <> x.[0]\n"
            "    out\n\n"
            "let main (a : bool[1]) (b : bool[1]) =\n"
            "    let mutable h = a\n"
            + "    h <- step b\n" * calls
            + "    h\n\nmain\n")


# The bound is first passed inside the last call: each earlier one is
# replayed from the first call's template, the last one is inlined.
@pytest.mark.parametrize("src,message", [
    (repeated_in_place_call(
        5, f"    for i in 1 .. {MAX_UNROLLED_ITERATIONS // 4} do\n        x\n"),
     f"loops unroll to more than {MAX_UNROLLED_ITERATIONS} iterations"),
    (repeated_in_place_call(
        4, f"    let spare = Array.zeroCreate {MAX_ALLOCATED_BITS // 4}\n"),
     f"arrays allocate more than {MAX_ALLOCATED_BITS} bits"),
], ids=["iterations", "allocation"])
def test_bound_passed_in_a_repeated_in_place_call_is_user_error(
        tmp_path, capsys, src, message):
    path = tmp_path / "repeated.rev"
    path.write_text(src)
    rc = main(["compile", str(path), "-o", str(tmp_path / "out.tfc")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: line 3: {message}\n"


def nested(levels: int) -> str:
    e = "y"
    for _ in range(levels):
        e = f"(not ({e} && y))"
    return e


def doubling(levels: int) -> str:
    """Each level ANDs an XOR, which synthesis computes and uncomputes."""
    e = "x.[0]"
    for _ in range(levels):
        e = f"({e} <> x.[1] && x.[0])"
    return e


@pytest.mark.parametrize("src,pattern", [
    ("let f (x : bool) = f x\n\nf\n", "line 1: recursive call to 'f'"),
    ("let f (x : bool) =\n    let g (y : bool) = f y\n    g x\n\nf\n",
     "line 2: recursive call to 'f'"),
    (f"let g (y : bool) =\n    {nested(150)}\n\ng\n",
     f"line 2: nesting deeper than {MAX_NESTING} levels"),
    ("let g (y : bool) =\n    " + "not " * 3000 + "y\n\ng\n",
     f"line 2: nesting deeper than {MAX_NESTING} levels"),
    # a chain of calls nested past Python's stack
    ("let f0 (x : bool) = x\n"
     + "".join(f"let f{i} (x : bool) = f{i - 1} x\n" for i in range(1, 400))
     + "\nf399\n", r"line \d+: program nests too deeply"),
    # a 20-way OR is one De Morgan Toffoli chain
    ("let g (x : bool[20]) =\n    "
     + " || ".join(f"x.[{i}]" for i in range(20)) + "\n\ng\n", None),
    (f"let g (x : bool[2]) =\n    {doubling(40)}\n\ng\n",
     f"line 2: expression synthesizes to more than {MAX_STATEMENT_GATES} "
     "gates"),
    (f"let g (x : bool[2]) =\n    {doubling(8)}\n\ng\n", None),
], ids=["recursion", "mutual-recursion", "nested-not-and", "not-chain",
        "call-chain", "or-20", "and-doubling", "and-doubling-ok"])
def test_unbounded_program_is_a_one_line_error(tmp_path, capsys, src, pattern):
    path = tmp_path / "deep.rev"
    path.write_text(src)
    t0 = time.perf_counter()
    rc = main(["compile", str(path), "-o", str(tmp_path / "out.tfc")])
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    if pattern is None:
        assert rc == 0 and err == ""
        return
    assert rc == 1
    assert re.fullmatch(f"error: {pattern}\n", err), err
    assert "Traceback" not in err


def test_recursion_is_an_error_in_both_evaluators():
    src = "let f (x : bool) =\n    let g (y : bool) = f y\n    g x\n\nf\n"
    with pytest.raises(FlattenError) as flat:
        flatten(parse(src))
    with pytest.raises(InterpretError) as interp:
        interpret_source(parse(src), [1])
    assert flat.value.line == interp.value.line == 2


def test_exponential_blif_cover_is_user_error(tmp_path, capsys):
    # 20 cubes are one De Morgan chain, or one XOR clique with --optimize-xor
    cubes = "".join(f"{i:06b} 1\n" for i in range(20))
    path = tmp_path / "or.blif"
    path.write_text(".model m\n.inputs a b c d e f\n.outputs z\n"
                    f".names a b c d e f z\n{cubes}.end\n")
    for flags in ([], ["--optimize-xor"]):
        rc = main(["compile", str(path), *flags,
                   "-o", str(tmp_path / "out.tfc")])
        assert rc == 0
    # a cover is still bounded: 8,000 cubes of 20 literals pass the bound
    names = " ".join(f"i{j}" for j in range(20))
    cubes = "".join(f"{i:020b} 1\n" for i in range(8000))
    path.write_text(f".model m\n.inputs {names}\n.outputs z\n"
                    f".names {names} z\n{cubes}.end\n")
    capsys.readouterr()
    t0 = time.perf_counter()
    rc = main(["compile", str(path), "-o", str(tmp_path / "out.tfc")])
    assert time.perf_counter() - t0 < 2
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: line 4: cover for 'z' synthesizes to more than "
        f"{MAX_STATEMENT_GATES} gates\n")


@pytest.mark.parametrize("op", ["&&", "||", "<>"])
def test_long_operator_chain_is_not_nested(tmp_path, capsys, op):
    # a chain of one operator is gathered with an explicit stack, so 5,000
    # operands cost no stack depth in flatten or in interpret_source
    n = 5000
    src = (f"let g (x : bool[{n}]) =\n    "
           + f" {op} ".join(f"x.[{i}]" for i in range(n)) + "\n\ng\n")
    path = tmp_path / "chain.rev"
    path.write_text(src)
    for cmd in (["compile", str(path), "-o", str(tmp_path / "out.tfc")],
                ["verify", str(path)]):
        t0 = time.perf_counter()
        assert main(cmd) == 0
        assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().err == ""
    value = {"&&": all, "||": any, "<>": lambda bits: sum(bits) % 2}[op]
    for bits in ([1] * n, [0] * n, [1] * (n - 1) + [0], [0] * (n - 1) + [1]):
        assert interpret_source(parse(src), bits) == [int(value(bits))]


def test_long_integer_chain_is_not_nested(tmp_path, capsys):
    # an integer chain folds its left spine in a loop, so 3,000 terms as a
    # read index, and as the index of an accumulating write in an in-place
    # body, cost no stack depth in flatten or in interpret_source
    i = "1" + " - 1 + 1" * 1499 + " + 0"  # 3,000 terms, value 1
    src = (f"let acc (x : bool array) =\n"
           f"    let r = Array.zeroCreate 2\n"
           f"    r.[{i}] <- r.[{i}] <> x.[{i}]\n"
           f"    r\n\n"
           f"let main (x : bool[2]) (y : bool[2]) =\n"
           f"    let mutable h = y\n"
           f"    h <- acc x\n"
           f"    let out = Array.zeroCreate 1\n"
           f"    out.[0] <- x.[{i}] && h.[{i}]\n"
           f"    Array.append h out\n")
    path = tmp_path / "chain.rev"
    path.write_text(src)
    assert any(isinstance(s, InPlaceBlock)
               for s in flatten(parse(src)).statements)
    for cmd in (["compile", str(path), "-o", str(tmp_path / "out.tfc")],
                ["verify", str(path)]):
        t0 = time.perf_counter()
        assert main(cmd) == 0
        assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().err == ""
    for x1, y0, y1 in ((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1)):
        h1 = y1 ^ x1
        assert interpret_source(parse(src), [0, x1, y0, y1]) == [
            y0, h1, x1 & h1]


# ---------------------------------------------------------------------------
# programs once checked only through the console script


def test_sha2_eager_stats_show_call_replays_and_shared_gates(capsys):
    rep = stats_of(capsys, "sha2.rev", "--param", "rounds=4",
                   "--strategy", "eager")
    assert rep["call_replays"] > 0
    assert rep["distinct_gates"] < rep["gate_count"]


def source_file(tmp_path, name: str, src: str) -> str:
    path = tmp_path / name
    path.write_text(src)
    return str(path)


READ_BEFORE_WRITE = """\
let f (x : bool[2]) =
    let t = Array.zeroCreate 2
    let out = Array.zeroCreate 1
    out.[0] <- x.[0] && t.[0]
    t.[0] <- t.[0] <> x.[1]
    Array.concat [out; t]
"""


def test_bit_read_before_its_write_is_zero_and_costs_no_toffoli(tmp_path,
                                                                 capsys):
    path = source_file(tmp_path, "read_before_write.rev", READ_BEFORE_WRITE)
    eager = ["--strategy", "eager"]
    assert main(["compile", path, *eager,
                 "-o", str(tmp_path / "read_before_write.tfc")]) == 0
    assert main(["verify", path, *eager]) == 0
    capsys.readouterr()
    assert main(["stats", path, *eager]) == 0
    assert json.loads(capsys.readouterr().out)["toffoli_count"] == 0


TWO_ZERO_READS = """\
let acc (a : bool array) =
    let z = Array.zeroCreate 4
    let out = Array.zeroCreate 2
    out.[0] <- out.[0] <> (z.[3] && a.[0]) <> (z.[1] && a.[1])
    out.[1] <- out.[1] <> a.[0]
    out

let main (a : bool[2]) (b : bool[2]) =
    let mutable h = b
    h <- acc a
    h <- acc a
    h <- acc a
    h

main
"""


def test_two_unwritten_locals_in_one_statement_replay_block_recipes(
        tmp_path, capsys):
    path = source_file(tmp_path, "two_zero_reads.rev", TWO_ZERO_READS)
    assert main(["verify", path]) == 0
    capsys.readouterr()
    assert main(["stats", path]) == 0
    assert json.loads(capsys.readouterr().out)["block_replays"] > 0


CLEAN_CHAIN = """\
let main (a : bool[8]) =
    let mutable acc = a.[0]
    for i in 1 .. 7 do
        let t = Array.zeroCreate 1
        t.[0] <- t.[0] <> (a.[i] && a.[(i + 1) % 8])
        let s = Array.zeroCreate 1
        s.[0] <- s.[0] <> (acc && t.[0])
        t.[0] <- t.[0] <> (a.[i] && a.[(i + 1) % 8])
        clean t
        acc <- s.[0] <> a.[i]
    acc

main
"""


def test_checkpoint_of_a_slot_a_later_clean_releases_verifies(tmp_path):
    path = source_file(tmp_path, "clean_chain.rev", CLEAN_CHAIN)
    assert main(["verify", path, "--strategy", "incremental",
                 "--qubits", "14"]) == 0


CLEANED_READS = """\
let chain (x : bool[2]) =
    let z = Array.zeroCreate 4
    for i in 0 .. 3 do
        z.[i] <- z.[i] <> x.[0]
        z.[i] <- z.[i] <> x.[0]
    clean z
    let t0 = (x.[0] && x.[1]) <> z.[0]
    let t1 = (t0 && x.[1]) <> z.[1]
    let t2 = (t1 && t0) <> z.[2]
    let t3 = (t2 && t1) <> z.[3]
    t3
"""


def test_reads_of_cleaned_bits_compile_and_verify_at_9_qubits(tmp_path):
    # a read of a cleaned bit once took a zero wire and crashed here
    path = source_file(tmp_path, "cleaned_reads.rev", CLEANED_READS)
    budget = ["--strategy", "incremental", "--qubits", "9"]
    assert main(["compile", path, *budget,
                 "-o", str(tmp_path / "cleaned_reads.tfc")]) == 0
    assert main(["verify", path, *budget]) == 0


SIMULATED_LIKE_SOURCE = {
    "read_order": """\
let main (x : bool[2]) =
    let z = Array.zeroCreate 1
    let f (y : bool) =
        z.[0] <- y && x.[1]
        y
    let out = Array.zeroCreate 1
    out.[0] <- z.[0] <> (f x.[0])
    Array.concat [out; z]
""",
    "alias": """\
let main (x : bool[2]) =
    let z = Array.zeroCreate 1
    z.[0] <- x.[0] && x.[1]
    let mutable a = z.[0]
    a <- (a <> x.[1]) && true
    let out = Array.zeroCreate 1
    out.[0] <- a
    Array.concat [z; out]
""",
    "if_alloc": """\
let main (c : bool) (x : bool[1]) =
    let r = if c then Array.zeroCreate 1 else x
    r
""",
    "if_relabel": """\
let main (x : bool[3]) =
    let z = Array.zeroCreate 2
    let mutable b = z.[1]
    z.[1] <- (if true then x.[1] else x.[2])
    let out = Array.zeroCreate 1
    out.[0] <- b
    Array.concat [z; out]
""",
    "if_dead_branch": """\
let main (c : bool) (x : bool[2]) =
    let z = Array.zeroCreate 1
    z.[0] <- x.[0] && x.[1]
    let mutable a = z.[0]
    let r =
        if c then
            x.[0]
        else
            a <- x.[1]
            x.[1]
    a <- a <> x.[0]
    let out = Array.zeroCreate 2
    out.[0] <- a
    out.[1] <- r
    Array.concat [z; out]
""",
}


@pytest.mark.parametrize("name", SIMULATED_LIKE_SOURCE)
def test_sim_agrees_with_the_source_on_every_input(tmp_path, capsys, name):
    # a call writing a bit an earlier operand read, a name aliasing an
    # element through `&& true`, an array allocated in an `if` branch, an
    # unwritten element re-labeled to a constant-condition `if` that a
    # name aliased, and a dead branch re-binding a name aliasing an element
    src = SIMULATED_LIKE_SOURCE[name]
    path = source_file(tmp_path, f"{name}.rev", src)
    n = len(flatten(parse(src)).input_slots)
    for v in range(1 << n):
        bits = [(v >> i) & 1 for i in range(n)]
        assert main(["sim", path, "--inputs", "".join(map(str, bits))]) == 0
        want = "".join(map(str, interpret_source(parse(src), bits)))
        assert capsys.readouterr().out == want + "\n", bits


@pytest.mark.parametrize("name", ["if_alloc", "if_relabel", "if_dead_branch"])
@pytest.mark.parametrize("strategy", ["bennett", "eager", "incremental"])
def test_programs_with_ifs_verify_under_every_strategy(tmp_path, name,
                                                       strategy):
    path = source_file(tmp_path, f"{name}.rev", SIMULATED_LIKE_SOURCE[name])
    assert main(["verify", path, "--strategy", strategy]) == 0


@pytest.mark.parametrize("src", [
    "let main (x : bool[2]) =\n    let mutable a = x.[0]\n    a <- 3\n"
    "    a\n",
    "let main (x : bool[2]) =\n    Array.append x 3\n",
    "let main (x : bool[2]) =\n    [|1; 2|]\n",
], ids=["int-to-bit", "append-int", "int-array-output"])
def test_integer_where_bits_belong_is_a_one_line_error(tmp_path, capsys, src):
    path = source_file(tmp_path, "malformed.rev", src)
    assert main(["compile", path, "-o", str(tmp_path / "malformed.tfc")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: line \d+: [^\n]*\n", err), err
