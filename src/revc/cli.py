"""Command-line interface.

    revc compile FILE [--strategy S] [--qubits N] [--param k=v] [-o circ.rev.tfc]
                      [--stats stats.json] [--emit-mdd graph.dot] [--optimize-xor]
    revc sim FILE --inputs 0101... [compile flags]
    revc verify FILE [--samples N] [--seed N] [compile flags]
    revc stats FILE [compile flags]
    revc pebble --time T [--pebbles K] --strategy bennett|incremental|lmt|knill
    revc pebble-table --time-max T --pebbles 2,3,4 [-o table.csv]
    revc blif FILE [FILE...] [--optimize-xor] [--strategy S] [--report out.json]

`--stats` and `revc stats` report the circuit's counts (`gate_count`
and `distinct_gates`, the number of distinct gates: the emitter interns
each as one wire tuple, valid by construction, see emitter; `depth`, the
ASAP layers where a gate occupies all its wires, and `toffoli_depth`,
the same over the Toffolis alone), the plan's
(`unclean_count`, `checkpoints`, `reversals_inserted`: eager's reversals
after last use; `peak_live`: the most wires live after any forward or
backward run of a statement of the plan, inputs included, the count
`--qubits` bounds in the forward segments of an incremental plan, where
the width also counts synthesis scratch wires), the dependency graph's
(`mdd_nodes`, `mdd_read_edges`; only eager plans from the graph, and
no plan keeps it, so the report builds it, outside the timed stages),
the flat program's (`flat_statements`, `inplace_blocks`,
`block_templates`: distinct block tokens, i.e. the shared block bodies
the blocks run; `block_body_statements`: the blocks' body lengths summed,
read off the shared bodies; `slots`; `expression_forms`: distinct form
objects among the Computes of the program and of its block bodies, where
every statement renamed from one template shares the template's forms,
see `frontend.Compute`), flatten's (`call_templates`: calls
inlined from the AST and recorded as templates; `call_replays`: calls,
in place or not, replayed from a template of their signature;
`assign_templates`: assignments of a bit expression walked from the AST
and recorded as templates; `assign_replays`: such assignments, loop
iterations' above all, replayed from the template of their key; all four
0 for BLIF), the emitter's (`block_recipes`: block
recipes compiled, i.e. block runs that walked the body; `block_replays`:
block runs served from an existing recipe; together, every forward and
backward run of an in-place block; `expression_recipes`: expression
recipes compiled, one per distinct form it synthesized),
`compile_seconds` (mdd + schedule + emit) and `stage_seconds`: `parse`,
`flatten` (for BLIF, lowering), `mdd` (under eager only: building the
dependency graph), `schedule` (the cleanup plan alone; under bennett and
incremental it is made from the flat program) and `emit`.

Exit codes: 0 success, 1 user/compile error, 2 verification failure.
`sim --inputs` takes only 0 and 1, and `verify --samples` at least 1.
Without `--seed`, `verify` takes its sample seed from the REVC_SEED
environment variable (default 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import blif as blif_mod
from . import circuit as circuit_mod
from . import pebble as pebble_mod
from .emitter import Emitter, compile_flat
from .frontend import (
    ASSIGN, CALL, Compute, FrontendError, InPlaceBlock, flatten, parse,
)
from .mdd import build_mdd, to_dot
from .scheduler import STRATEGIES, BudgetError, live_profile, schedule


class CliError(Exception):
    pass


def _parse_params(pairs) -> dict:
    out = {}
    for p in pairs or []:
        if "=" not in p:
            raise CliError(f"--param expects name=value, got {p!r}")
        name, value = p.split("=", 1)
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise CliError(f"--param value must be an integer: {p!r}")
    return out


def _load_flat(args, stages: dict, counts: dict):
    """Read, parse and flatten (or lower) the input file, timing the last
    two steps into `stages`; flatten's template counts go into `counts`."""
    params = _parse_params(args.param)
    path = args.file
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise CliError(str(e))
    t0 = time.perf_counter()
    if path.endswith(".blif"):
        net = blif_mod.parse_blif(text)
        t1 = time.perf_counter()
        prog = blif_mod.lower(net, optimize=args.optimize_xor)
    else:
        ast = parse(text, params=params or None)
        t1 = time.perf_counter()
        prog = flatten(ast, counts=counts)
    stages["parse"], stages["flatten"] = t1 - t0, time.perf_counter() - t1
    return prog


def _compile(args):
    """Load, schedule and emit; returns the program, plan, circuit, the
    emitter, the seconds of each stage and flatten's template counts."""
    stages: dict = {}
    counts = dict.fromkeys([*CALL, *ASSIGN], 0)
    prog = _load_flat(args, stages, counts)
    t0 = time.perf_counter()
    plan = schedule(prog, args.strategy, qubit_budget=args.qubits,
                    stages=stages)
    t1 = time.perf_counter()
    em = Emitter(prog)
    circ = em.run(plan)
    stages["schedule"] = t1 - t0 - stages.get("mdd", 0.0)
    stages["emit"] = time.perf_counter() - t1
    return prog, plan, circ, em, stages, counts


def _report(prog, plan, circ, em, stages, counts) -> dict:
    """Counts of the circuit, the plan, the dependency graph, the flat
    program and the emitter, and the seconds of each stage.  No plan
    keeps the graph, so it is built here, for the report only."""
    g = build_mdd(prog)
    blocks = [s for s in prog.statements if isinstance(s, InPlaceBlock)]
    tokens = {b.token for b in blocks}
    forms = {id(s.form) for s in [*prog.statements,
                                  *(x for t in tokens for x in t.stmts)]
             if isinstance(s, Compute)}
    rep = circuit_mod.stats(circ)
    rep["depth"], rep["toffoli_depth"] = circuit_mod.depth(circ)
    rep.update({"strategy": plan.strategy,
                "input_count": len(circ.inputs),
                "output_count": len(circ.outputs),
                "gate_count": len(circ.gates),
                "distinct_gates": len(set(circ.gates)),
                "unclean_count": len(plan.unclean_nodes),
                "checkpoints": plan.checkpoints,
                "reversals_inserted": plan.reversals_inserted,
                "mdd_nodes": len(g.nodes),
                "mdd_read_edges": sum(map(len, g.reads.values())),
                "peak_live": max(live_profile(plan),
                                 default=len(circ.inputs)),
                "flat_statements": len(prog.statements),
                "inplace_blocks": len(blocks),
                "block_templates": len(tokens),
                "block_body_statements": sum(len(b.token.stmts)
                                             for b in blocks),
                "slots": prog.slot_count,
                "expression_forms": len(forms),
                "expression_recipes": len(em.recipes),
                "block_recipes": em.block_recipes,
                "block_replays": em.block_replays, **counts})
    rep["compile_seconds"] = round(
        stages.get("mdd", 0.0) + stages["schedule"] + stages["emit"], 6)
    rep["stage_seconds"] = {k: round(v, 6) for k, v in stages.items()}
    return rep


def cmd_compile(args) -> int:
    compiled = _compile(args)
    prog, plan, circ = compiled[:3]
    if args.emit_mdd:
        with open(args.emit_mdd, "w") as f:
            f.write(to_dot(build_mdd(prog)))
    out = args.output or (args.file + ".tfc")
    circuit_mod.write_circuit(circ, out)
    if args.stats:  # the full report builds the graph
        with open(args.stats, "w") as f:
            json.dump(_report(*compiled), f, indent=2, sort_keys=True)
            f.write("\n")
    rep = circuit_mod.stats(circ)
    print(f"{args.file}: {rep['toffoli_count']} Toffoli, "
          f"{rep['qubit_count']} qubits, strategy {plan.strategy} -> {out}")
    return 0


def cmd_stats(args) -> int:
    print(json.dumps(_report(*_compile(args)), indent=2, sort_keys=True))
    return 0


def cmd_sim(args) -> int:
    bad = next((c for c in args.inputs if c not in "01"), None)
    if bad is not None:
        raise CliError(f"--inputs takes only 0 and 1, got {bad!r}")
    prog, plan, circ, *_ = _compile(args)
    bits = [int(c) for c in args.inputs]
    if len(bits) != len(prog.input_slots):
        raise CliError(f"program takes {len(prog.input_slots)} input bits, "
                       f"got {len(bits)}")
    state = [0] * circ.width
    for w, b in zip(circ.inputs, bits):
        state[w] = b
    state = circuit_mod.simulate(circ, state)
    print("".join(str(state[w]) for w in circ.outputs))
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    seed = args.seed
    if seed is None:
        text = os.environ.get("REVC_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise CliError(f"REVC_SEED must be an integer, got {text!r}")
    prog, plan, circ, *_ = _compile(args)
    rep = circuit_mod.verify(prog, circ, samples=args.samples, seed=seed)
    if rep.ok:
        print(f"{args.file}: ok ({rep.samples} samples, seed {rep.seed})")
        return 0
    print(f"{args.file}: FAILED on {len(rep.mismatches)} wires", file=sys.stderr)
    for m in rep.mismatches[:5]:
        print(f"  wire {m['wire']} ({m['role']}): {m['bad_count']} bad samples",
              file=sys.stderr)
    return 2


def cmd_pebble(args) -> int:
    T, k = args.time, args.pebbles
    strat = args.strategy
    try:
        if strat in ("bennett", "lmt"):
            # a fixed play: its peak is all the pebbles it needs
            if strat == "bennett":
                moves, need = pebble_mod.bennett_strategy(T), T
            else:
                moves = pebble_mod.lmt_strategy(T)
                need = pebble_mod.log_space_pebbles(T)
            if k is not None and k < need:
                raise CliError(f"{strat} needs {need} pebbles for T={T}, "
                               f"got {k}")
            k_used = k or need
        elif strat == "incremental":
            if k is None:
                raise CliError("incremental needs --pebbles")
            moves, k_used = pebble_mod.incremental_strategy(T, k), k
        else:  # knill, the last of argparse's choices
            if k is None:
                raise CliError("knill needs --pebbles")
            _, moves = pebble_mod.knill_optimal(T, k)
            k_used = k
    except pebble_mod.InfeasibleError as e:
        raise CliError(f"{e} (minimum pebbles: {e.minimum})")
    rep = pebble_mod.validate(moves, T, k_used)
    if not rep.ok:
        print(f"invalid strategy: {rep.violation}", file=sys.stderr)
        return 2
    print(f"{strat} T={T}: {rep.steps} steps, peak {rep.peak_pebbles} pebbles, "
          f"{rep.placements} placements, clean={rep.clean}")
    return 0


def cmd_pebble_table(args) -> int:
    ks = [int(x) for x in args.pebbles.split(",")]
    rows = pebble_mod.tradeoff_table(args.time_max, ks)
    text = pebble_mod.tradeoff_csv(rows)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_blif(args) -> int:
    rows = []
    for path in args.files:
        try:
            with open(path) as f:
                net = blif_mod.parse_blif(f.read())
        except (OSError, blif_mod.BlifError) as e:
            print(f"{path}: skipped ({e})", file=sys.stderr)
            rows.append({"file": path, "skipped": str(e)})
            continue
        t0 = time.perf_counter()
        base = compile_flat(blif_mod.lower(net), args.strategy)[1]
        opt = compile_flat(blif_mod.lower(net, optimize=True), args.strategy)[1]
        elapsed = time.perf_counter() - t0
        circ = opt if args.optimize_xor else base
        b = circuit_mod.stats(base)["toffoli_count"]
        o = circuit_mod.stats(opt)["toffoli_count"]
        reduction = 0.0 if b == 0 else round(100.0 * (b - o) / b, 1)
        row = {
            "file": path,
            "bits": circ.width,
            "gates": len(circ.gates),
            "toffoli": circuit_mod.stats(circ)["toffoli_count"],
            "toffoli_unoptimized": b,
            "toffoli_optimized": o,
            "reduction_percent": reduction,
            "seconds": round(elapsed, 6),
        }
        rows.append(row)
        print(f"{path}: bits={row['bits']} gates={row['gates']} "
              f"toffoli={row['toffoli']} reduction={reduction}% "
              f"time={row['seconds']}s")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(rows, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def _add_compile_flags(p):
    p.add_argument("file")
    p.add_argument("--param", action="append", metavar="NAME=INT",
                   help="override a program parameter (repeatable)")
    p.add_argument("--strategy", default="bennett", choices=STRATEGIES)
    p.add_argument("--qubits", type=int, default=None,
                   help="qubit budget for the incremental strategy")
    p.add_argument("--optimize-xor", action="store_true",
                   help="apply the exclusive-cube XOR grouping to BLIF input")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="revc",
                                 description="reversible circuit compiler")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compile", help="compile to a gate list file")
    _add_compile_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--stats", default=None, help="write a JSON stats report")
    p.add_argument("--emit-mdd", default=None, metavar="DOT",
                   help="write the dependency graph in DOT form")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("sim", help="simulate the compiled circuit on input bits")
    _add_compile_flags(p)
    p.add_argument("--inputs", required=True, help="input bit string, e.g. 0101")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("verify", help="check the circuit against the interpreter")
    _add_compile_flags(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None,
                   help="sample seed (default: $REVC_SEED, else 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="print the JSON stats report")
    _add_compile_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pebble", help="run a pebble-game strategy")
    p.add_argument("--time", type=int, required=True, metavar="T")
    p.add_argument("--pebbles", type=int, default=None, metavar="K")
    p.add_argument("--strategy", default="bennett",
                   choices=["bennett", "incremental", "lmt", "knill"])
    p.set_defaults(func=cmd_pebble)

    p = sub.add_parser("pebble-table", help="emit the step/pebble tradeoff CSV")
    p.add_argument("--time-max", type=int, required=True)
    p.add_argument("--pebbles", required=True, help="comma-separated budgets")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_pebble_table)

    p = sub.add_parser("blif", help="batch-compile netlists and report a table")
    p.add_argument("files", nargs="+")
    p.add_argument("--optimize-xor", action="store_true")
    p.add_argument("--strategy", default="eager", choices=STRATEGIES)
    p.add_argument("--report", default=None, help="write rows as JSON")
    p.set_defaults(func=cmd_blif)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FrontendError, BudgetError, blif_mod.BlifError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
