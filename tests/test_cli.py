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


def test_blif_batch_report(tmp_path, capsys):
    report = tmp_path / "rows.json"
    rc = main(["blif", corpus_path("example3.blif"), corpus_path("majority.blif"),
               "--optimize-xor", "--report", str(report)])
    assert rc == 0
    rows = json.loads(report.read_text())
    assert len(rows) == 2
    assert all(r["toffoli_optimized"] <= r["toffoli_unoptimized"] for r in rows)


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
