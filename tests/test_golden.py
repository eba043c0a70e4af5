"""Golden gate lists: the sha256 of every emitted circuit, pinned.

A refactor that claims "same behaviour" must leave every hash here
unchanged; a change that alters circuits on purpose updates this table
and says so.
"""

import hashlib
import random
from importlib import resources

import pytest

from revc import blif
from revc.circuit import format_circuit, verify
from revc.emitter import Emitter, compile_flat
from revc.boolexpr import variables
from revc.frontend import (
    Flattener, InPlaceBlock, flatten, interpret, interpret_packed,
    interpret_source, parse, run_statements,
)
from revc.scheduler import BudgetError, schedule

CORPUS = resources.files("revc") / "corpus"

REV_GOLDEN = {
    ("adder_ripple.rev", "n=40", "bennett", None):
        "9f5758593e0345ff9ce034fb5783b41f74fcfac730b52734504fbfd85e5be776",
    ("adder_ripple.rev", "n=40", "eager", None):
        "b2928444b5d77264fbba031c683a44943683e860702ea1daad67965ca8db5390",
    ("adder_ripple.rev", "n=40", "incremental", None):
        "9f5758593e0345ff9ce034fb5783b41f74fcfac730b52734504fbfd85e5be776",
    ("adder_select.rev", "", "bennett", None):
        "6d34b2b45c662f0cac372b3c6539fd1c4155b4811da96535ed26970b283e54b0",
    ("adder_select.rev", "", "eager", None):
        "0d5422d8d00c2d9777ac804a3d1d67d491b106c157cfa59d4b6bddb5d128bfbf",
    ("adder_select.rev", "", "incremental", None):
        "6d34b2b45c662f0cac372b3c6539fd1c4155b4811da96535ed26970b283e54b0",
    ("sha2.rev", "rounds=4", "bennett", None):
        "da6da95df0161e0743ef2519abd56a99eee338811871018b9eaa0ee9cd6dbdec",
    ("sha2.rev", "rounds=4", "eager", None):
        "185f2ec3c49c2fa852f71e33d5288301adab6eeec6c3241560e8b1d3953647cd",
    ("sha2.rev", "rounds=4", "incremental", None):
        "da6da95df0161e0743ef2519abd56a99eee338811871018b9eaa0ee9cd6dbdec",
    ("sha2.rev", "rounds=4", "incremental", 672):
        "c4085bfa687b5a709945b44cca9472ca12cf3483f8d8cf6ff1e19cdd7aafd2ca",
    ("sha2.rev", "rounds=8", "incremental", 900):
        "67e720c01bf54c855cccf2c76a07476ed0c2248e314a8aacfb35ffc6ac1cfd65",
    ("sha2.rev", "rounds=8", "incremental", 1200):
        "3684878aea14ae0721798f7f226d2d7266ef1de3d19db262dd1463887c45fb18",
    ("sha2.rev", "rounds=16", "eager", None):
        "f1f6c3f0feea0b5b6a13b657eb5120a553a29f3de766577f1ba4391ae8424c21",
    ("md5.rev", "rounds=2", "bennett", None):
        "2b23b050daa24fda501a987124f22aab27e101a4994cd29f5ff0a36c06685d71",
    ("md5.rev", "rounds=2", "eager", None):
        "60212612f619460f498bacdce619afabe11d23de753bdf2c1910d8b768deb146",
    ("md5.rev", "rounds=2", "incremental", None):
        "2b23b050daa24fda501a987124f22aab27e101a4994cd29f5ff0a36c06685d71",
    ("md5.rev", "rounds=2", "incremental", 800):
        "2b23b050daa24fda501a987124f22aab27e101a4994cd29f5ff0a36c06685d71",
    # 800 fits MD5 rounds=2 with no checkpoint; 768, its minimum, takes one
    ("md5.rev", "rounds=2", "incremental", 768):
        "bd5219bbc0a489e35c95ffbdd197208a30de696222d05020411fdcaab6df8e54",
    ("md5.rev", "rounds=4", "eager", None):
        "32abdec385ea9fdd62626dbf36a1311e9e7ecb21919b42f022bec09997a7d5fc",
}

# the smallest budget an infeasible incremental request reports: the
# outcome of the budget search, pinned like a gate list
MINIMUM_GOLDEN = {
    ("sha2.rev", "rounds=4", 600): 672,
    ("sha2.rev", "rounds=8", 600): 896,
    ("md5.rev", "rounds=2", 600): 768,
    ("md5.rev", "rounds=4", 700): 864,
}

# example3 and majority hold covers of three or more OR operands, which
# lower through De Morgan; mux_net's covers have at most two cubes and
# keep the ab ^ a ^ b fold
BLIF_GOLDEN = {
    ("example3.blif", False, "bennett"):
        "14da1cc7daa485f1e9a1b03f1ccb1abaa3c3b3f23b8616643fb2d51dc880292d",
    ("example3.blif", False, "eager"):
        "87724f13c748b71561cbf7c79d8387c72c7713fe1c706046a16f15fcd47108dd",
    ("example3.blif", False, "incremental"):
        "14da1cc7daa485f1e9a1b03f1ccb1abaa3c3b3f23b8616643fb2d51dc880292d",
    ("example3.blif", True, "bennett"):
        "cba1883ef1016fabcd1eb44e8909dbe92815020f89be69dfe7bba3e5260e95cd",
    ("example3.blif", True, "eager"):
        "9d9c3d1e3f91f8815db7d8e68f57384a0d583e1c448cbc197f0e71960cbb7719",
    ("example3.blif", True, "incremental"):
        "cba1883ef1016fabcd1eb44e8909dbe92815020f89be69dfe7bba3e5260e95cd",
    ("majority.blif", False, "bennett"):
        "58435be9cdad738823ad3681949655c8ae1833537b6735e706f4a7d05155d190",
    ("majority.blif", False, "eager"):
        "d4b1359711369f1ec3f1d421e16660475a10963f6336019b23c68bae79553a9f",
    ("majority.blif", False, "incremental"):
        "58435be9cdad738823ad3681949655c8ae1833537b6735e706f4a7d05155d190",
    ("majority.blif", True, "bennett"):
        "2e634dfef0641c2a0c94b86c2591abba1ea6ef5b4654d115fc071690aa07e1b5",
    ("majority.blif", True, "eager"):
        "1f58aa7954ca2bab2fdbafea47576101d0e6f54241b23ba4aa567e5894e91685",
    ("majority.blif", True, "incremental"):
        "2e634dfef0641c2a0c94b86c2591abba1ea6ef5b4654d115fc071690aa07e1b5",
    ("mux_net.blif", False, "bennett"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
    ("mux_net.blif", False, "eager"):
        "e4078b0ca01ac02caebbb7ecd9016c3f717e25b6ec10708e5b36b2fa03c2ae33",
    ("mux_net.blif", False, "incremental"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
    ("mux_net.blif", True, "bennett"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
    ("mux_net.blif", True, "eager"):
        "e4078b0ca01ac02caebbb7ecd9016c3f717e25b6ec10708e5b36b2fa03c2ae33",
    ("mux_net.blif", True, "incremental"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
}


# One expression reads four cleaned elements (written, zero again and
# released by `clean`).  A cleaned slot is fresh again, so flatten reads
# them as the constant 0 and no Toffoli is left; these hashes pin that,
# and a change that gave such reads wires again would move them.
ZERO_READS = """\
let f (a : bool[4]) =
    let z = Array.zeroCreate 12
    let out = Array.zeroCreate 2
    for i in 0 .. 11 do
        z.[i] <- z.[i] <> a.[i % 4]
        z.[i] <- z.[i] <> a.[i % 4]
    clean z
    out.[0] <- (z.[11] && a.[0]) <> (z.[3] && a.[1]) <> z.[7] <> (a.[2] && z.[0])
    out.[1] <- a.[3] <> out.[0]
    out

f
"""

ZERO_READS_GOLDEN = {
    "bennett": "8d57e6b6bb271403a3f06f846c070a50814c3cd50055bdb4e653588b7576f75e",
    "eager": "dd351cc325c231a2fdd485db38432983e2d957b3bc746c2d02bae43935c3313b",
    "incremental": "8d57e6b6bb271403a3f06f846c070a50814c3cd50055bdb4e653588b7576f75e",
}


# An in-place function called three times with one signature, so that
# the later calls replay the first one's template.  Its writes to `out`
# read cleaned locals, as in ZERO_READS, which fold to 0 in the template
# body.
ZERO_READS_IN_PLACE = """\
let acc (a : bool array) =
    let z = Array.zeroCreate 12
    let out = Array.zeroCreate 2
    for i in 0 .. 11 do
        z.[i] <- z.[i] <> a.[i % 4]
        z.[i] <- z.[i] <> a.[i % 4]
    clean z
    out.[0] <- out.[0] <> (z.[11] && a.[0]) <> (z.[3] && a.[1]) <> z.[7] <> (a.[2] && z.[0])
    out.[1] <- out.[1] <> a.[3] <> (z.[5] && z.[9])
    out

let main (a : bool[4]) (b : bool[2]) =
    let mutable h = b
    h <- acc a
    h <- acc a
    h <- acc a
    h

main
"""

# An in-place function that writes a name it does not bind is not
# templated: each call's block is flattened from the AST.  `t.[1]` is
# never written, so it reads as the constant 0 and the write to `out.[1]`
# is dropped.
# An in-place function called three times whose first write to `out`
# reads four written locals; the three calls' `variables(expr)` set orders
# differ, and still they run one block recipe per direction and entry
# pattern.
LIVE_READS_IN_PLACE = """\
let acc (a : bool array) =
    let z = Array.zeroCreate 12
    let out = Array.zeroCreate 2
    for i in 0 .. 11 do
        z.[i] <- z.[i] <> a.[i % 4]
    out.[0] <- out.[0] <> (z.[11] && a.[0]) <> (z.[3] && a.[1]) <> z.[7] <> (a.[2] && z.[0])
    out.[1] <- out.[1] <> a.[3] <> (z.[5] && z.[9])
    for i in 0 .. 11 do
        z.[i] <- z.[i] <> a.[i % 4]
    out

let main (a : bool[4]) (b : bool[2]) =
    let mutable h = b
    h <- acc a
    h <- acc a
    h <- acc a
    h

main
"""

UNTEMPLATED = """\
let main (a : bool[3]) (b : bool[2]) =
    let mutable h = b
    let mutable c = a.[2]
    let addw (x : bool array) =
        let t = Array.zeroCreate 2
        let out = Array.zeroCreate 2
        t.[0] <- x.[0] && x.[1]
        out.[0] <- out.[0] <> t.[0] <> c
        out.[1] <- out.[1] <> (x.[1] && t.[1])
        t.[0] <- t.[0] <> (x.[0] && x.[1])
        c <- x.[0]
        out
    h <- addw a
    h <- addw a
    h

main
"""

IN_PLACE_GOLDEN = {
    ("zero-reads", "bennett"):
        "7d983aaa123317bca94be8ebb29b342f734c3303f33622f6d889631dec1878b8",
    ("zero-reads", "eager"):
        "4b290b593bda46fb592a21c09fd208be068237d098ab450c65c8256df7e583e1",
    ("zero-reads", "incremental"):
        "7d983aaa123317bca94be8ebb29b342f734c3303f33622f6d889631dec1878b8",
    ("untemplated", "bennett"):
        "d25bbd785f880229ca33be98f643b7a56124be756deae53562548316a524b7e7",
    ("untemplated", "eager"):
        "63437f29905a8f63c4ab2d0e8e220da7ff12a7f3b9231dd478faf866aa6bee62",
    ("untemplated", "incremental"):
        "d25bbd785f880229ca33be98f643b7a56124be756deae53562548316a524b7e7",
}

IN_PLACE_SOURCES = {"zero-reads": ZERO_READS_IN_PLACE,
                    "untemplated": UNTEMPLATED}


def digest(circ) -> str:
    return hashlib.sha256(format_circuit(circ).encode()).hexdigest()


def parse_params(text: str) -> dict:
    return {k: int(v) for k, v in (p.split("=") for p in text.split(",") if p)}


@pytest.mark.parametrize("name,params,strategy,budget", sorted(
    REV_GOLDEN, key=str))
def test_rev_gate_list_is_pinned(name, params, strategy, budget):
    src = (CORPUS / name).read_text()
    flat = flatten(parse(src, params=parse_params(params) or None))
    _, circ = compile_flat(flat, strategy, qubit_budget=budget)
    assert digest(circ) == REV_GOLDEN[(name, params, strategy, budget)]


@pytest.mark.parametrize("name,params,budget", sorted(MINIMUM_GOLDEN, key=str))
def test_reported_minimum_budget_is_pinned(name, params, budget):
    src = (CORPUS / name).read_text()
    flat = flatten(parse(src, params=parse_params(params)))
    with pytest.raises(BudgetError) as exc:
        compile_flat(flat, "incremental", qubit_budget=budget)
    minimum = exc.value.minimum
    assert minimum == MINIMUM_GOLDEN[(name, params, budget)]
    # the minimum works and one qubit less does not
    plan, _ = compile_flat(flat, "incremental", qubit_budget=minimum)
    assert plan.checkpoints >= 1
    with pytest.raises(BudgetError):
        compile_flat(flat, "incremental", qubit_budget=minimum - 1)


@pytest.mark.parametrize("name,optimize,strategy", sorted(BLIF_GOLDEN, key=str))
def test_blif_gate_list_is_pinned(name, optimize, strategy):
    net = blif.parse_blif((CORPUS / name).read_text())
    _, circ = compile_flat(blif.lower(net, optimize=optimize), strategy)
    assert digest(circ) == BLIF_GOLDEN[(name, optimize, strategy)]


@pytest.mark.parametrize("strategy", sorted(ZERO_READS_GOLDEN))
def test_cleaned_reads_fold_to_zero_in_pinned_circuits(strategy):
    _, circ = compile_flat(flatten(parse(ZERO_READS)), strategy)
    assert digest(circ) == ZERO_READS_GOLDEN[strategy]


@pytest.mark.parametrize("case,strategy", sorted(IN_PLACE_GOLDEN))
def test_in_place_edge_cases_are_pinned(case, strategy):
    _, circ = compile_flat(flatten(parse(IN_PLACE_SOURCES[case])), strategy)
    assert digest(circ) == IN_PLACE_GOLDEN[(case, strategy)]


def test_in_place_edge_cases_take_the_edge_paths():
    # blocks of one body whose reads come in three orders share recipes
    prog = flatten(parse(LIVE_READS_IN_PLACE))
    blocks = [s for s in prog.statements if isinstance(s, InPlaceBlock)]
    assert len({b.token for b in blocks}) == 1
    # body[12] writes out.[0], after the twelve writes of z
    orders = [[b.local_slots.index(v) for v in variables(b.body[12].expr)
               if v in b.local_slots] for b in blocks]
    assert len({tuple(o) for o in orders}) == 3
    # and yet the blocks replay one recipe per direction and entry pattern
    em = Emitter(prog)
    assert verify(prog, em.run(schedule(prog, "bennett"))).ok
    assert (em.block_recipes, em.block_replays) == (2, 4)
    # the untemplated pins cover blocks with tokens of their own only
    # while this holds
    blocks = [s for s in flatten(parse(UNTEMPLATED)).statements
              if isinstance(s, InPlaceBlock)]
    assert len({b.token for b in blocks}) == len(blocks) == 2


# ---------------------------------------------------------------------------
# in-place blocks by reference: a shared body over body positions and
# each block's slots


BY_REFERENCE = {
    "sha2-r4": ((CORPUS / "sha2.rev").read_text(), {"rounds": 4}),
    "md5-r2": ((CORPUS / "md5.rev").read_text(), {"rounds": 2}),
    "zero-reads": (ZERO_READS_IN_PLACE, None),
    "untemplated": (UNTEMPLATED, None),
}


@pytest.mark.parametrize("name", sorted(BY_REFERENCE))
def test_blocks_run_what_their_own_statements_do(name):
    src, params = BY_REFERENCE[name]
    prog = flatten(parse(src, params=params))
    # the blocks' own statements, built on demand, run in line
    inline = []
    for s in prog.statements:
        inline += s.body if isinstance(s, InPlaceBlock) else [s]
    assert len(inline) > len(prog.statements)
    rng = random.Random(64)
    mask = (1 << 64) - 1
    columns = [rng.getrandbits(64) for _ in prog.input_slots]
    cols = [0] * prog.slot_count
    for s, c in zip(prog.input_slots, columns):
        cols[s] = c
    run_statements(inline, cols, mask)
    assert interpret_packed(prog, columns, mask) == [
        cols[s] for s in prog.output_slots]


def test_blocks_of_one_token_share_one_body():
    src, params = BY_REFERENCE["sha2-r4"]
    blocks = [s for s in flatten(parse(src, params=params)).statements
              if isinstance(s, InPlaceBlock)]
    tokens = {b.token for b in blocks}
    assert len({id(b.token.stmts) for b in blocks}) == len(tokens)
    assert len(tokens) < len(blocks)
    for b in blocks:
        # its own statements are the shared body on its slots
        assert [s.slot for s in b.body] == [b.slots[s.slot]
                                            for s in b.token.stmts]


def test_each_in_place_template_is_validated_once(monkeypatch):
    # a replay's check would be its template's, bit for bit
    validated = []
    validate = Flattener.validate_block

    def spy(block, line, fname):
        validated.append(block)
        validate(block, line, fname)

    monkeypatch.setattr(Flattener, "validate_block", staticmethod(spy))
    src, params = BY_REFERENCE["sha2-r4"]
    blocks = [s for s in flatten(parse(src, params=params)).statements
              if isinstance(s, InPlaceBlock)]
    assert len(blocks) == 28
    firsts: dict = {}  # token -> its first block
    for b in blocks:
        firsts.setdefault(b.token, b)
    assert len(firsts) < len(blocks)
    assert [id(b) for b in validated] == [id(b) for b in firsts.values()]


# `add` is templated by its first call and replayed; the target is also
# an argument in one call and shares bits with one in another, which
# makes those calls out of place; `and2` gets one argument twice
ALIASED_CALLS = """\
let add (x : bool array) =
    let out = Array.zeroCreate 2
    out.[0] <- out.[0] <> x.[0]
    out.[1] <- out.[1] <> (x.[0] && x.[1])
    out

let and2 (x : bool array) (y : bool array) =
    let out = Array.zeroCreate 2
    out.[0] <- out.[0] <> (x.[0] && y.[1])
    out.[1] <- out.[1] <> (x.[1] && y.[0])
    out

let main (a : bool[2]) (b : bool[2]) =
    let mutable h = a
    h <- add b
    h <- add b
    h <- add h
    h <- add b
    let mutable k = Array.append h.[1 .. 1] b.[0 .. 0]
    k <- add b
    h <- and2 b b
    h <- and2 b b
    h <- and2 a b
    Array.concat [h; k; a; b]

main
"""


def test_template_called_with_aliased_arguments():
    ast = parse(ALIASED_CALLS)
    prog = flatten(ast)
    blocks = [s for s in prog.statements if isinstance(s, InPlaceBlock)]
    assert len(blocks) == 6 and len({b.token for b in blocks}) == 3
    for v in range(16):
        bits = [v >> i & 1 for i in range(4)]
        assert interpret(prog, bits) == interpret_source(ast, bits), bits
    for strategy in ("bennett", "eager", "incremental"):
        _, circ = compile_flat(prog, strategy)
        assert verify(prog, circ).ok, strategy
