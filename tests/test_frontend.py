import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revc import frontend
from revc.frontend import (
    CleanSlot, Compute, FlattenError, Flattener, InPlaceBlock,
    InterpretError, MAX_NESTING, ParseError, _renamed_stmts, flatten,
    interpret, interpret_packed, interpret_source, parse,
)
from revc.boolexpr import band, bconst, bnot, bor, bvar, bxor, variables
from revc.circuit import simulate, verify
from revc.cli import main as cli_main
from revc.emitter import compile_flat
from revc.blif import lower, parse_blif

from helpers import (
    bits_of, block_delta, corpus, int_of, md5_steps, random_program,
    reopened_locals, ripple, sha256_rounds, zero_at_entry,
)
from test_emitter import UNWRITTEN_SLOT, template_calls, unwritten_slot_program
from test_scheduler import (
    block_program, clean_chain_source, cleaned_reads_chain_source,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("let x = @")
    with pytest.raises(ParseError):
        parse("let f a =\n        a\n    a")  # inconsistent dedent
    with pytest.raises(ParseError):
        parse("")  # empty program
    with pytest.raises(ParseError):
        parse("let f (a : bool) = if a then true")  # missing else
    for target in ("f x", "a.[0..1]", "(x)"):  # not a name or an element
        with pytest.raises(ParseError, match="line 2: can only assign"):
            parse(f"let f (x : bool) (y : bool) =\n    {target} <- y\n    y")
    for call, n in [("Array.append x", 2), ("rot 1", 2),
                    ("Array.concat [x] [x]", 1), ("Array.zeroCreate 1 2", 1)]:
        with pytest.raises(ParseError, match=f"^line 2: .* expects {n} "
                                             f"argument"):
            parse(f"let f (x : bool[2]) =\n    {call}\n")


def test_parse_shapes():
    p = parse(corpus("sha2.rev"))
    assert p.pragmas == {"rounds": 1}
    p = parse("let f (a : bool[4]) = a.[0] <> a.[1]\nf", params={"n": 3})
    assert p.pragmas == {"n": 3}


# ---------------------------------------------------------------------------
# ripple adder against integer addition


def test_adder_is_integer_addition():
    prog = ripple(4)
    assert len(prog.input_slots) == 8
    assert len(prog.output_slots) == 4
    for a in range(16):
        for b in range(16):
            out = interpret(prog, bits_of(a, 4) + bits_of(b, 4))
            assert int_of(out) == (a + b) % 16, (a, b)


def test_adder_three_plus_five():
    out = interpret(ripple(4), bits_of(3, 4) + bits_of(5, 4))
    assert int_of(out) == 8


def test_carry_select_is_integer_addition():
    prog = flatten(parse(corpus("adder_select.rev"), params={"n": 10}))
    n = 9  # adderSize = 3, operand width adderSize^2
    assert len(prog.input_slots) == 2 * n
    assert len(prog.output_slots) == n
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        out = interpret(prog, bits_of(a, n) + bits_of(b, n))
        assert int_of(out) == (a + b) % (1 << n), (a, b)


# ---------------------------------------------------------------------------
# language features


def test_scalar_functions_and_let():
    src = """
let f (a : bool) (b : bool) (c : bool) =
    let t = (a && b) <> c
    let u = t || a
    u

f
"""
    prog = flatten(parse(src))
    for x in range(8):
        a, b, c = bits_of(x, 3)
        t = (a & b) ^ c
        assert interpret(prog, [a, b, c]) == [t | a]


def test_in_place_accumulation():
    src = """
let add (x : bool array) =
    let out = Array.zeroCreate 2
    out.[0] <- out.[0] <> x.[0]
    out.[1] <- out.[1] <> x.[1]
    out

let main (a : bool[2]) (b : bool[2]) =
    let mutable h = a.[0 .. 1]
    h <- add b
    h

main
"""
    prog = flatten(parse(src))
    blocks = [s for s in prog.statements if isinstance(s, InPlaceBlock)]
    assert len(blocks) == 1
    # the block accumulates onto a's wires: outputs are the input slots of a
    assert prog.output_slots == prog.input_slots[:2]
    for x in range(16):
        a0, a1, b0, b1 = bits_of(x, 4)
        assert interpret(prog, [a0, a1, b0, b1]) == [a0 ^ b0, a1 ^ b1]


def test_alias_fallback_when_not_accumulator():
    # overwriting (not accumulating) the result buffer forces the
    # out-of-place fallback: no in-place block, target re-bound
    src = """
let overwrite (x : bool array) =
    let out = Array.zeroCreate 1
    out.[0] <- x.[0]
    out

let main (a : bool[1]) (b : bool[1]) =
    let mutable h = a.[0 .. 0]
    h <- overwrite b
    h

main
"""
    prog = flatten(parse(src))
    assert not any(isinstance(s, InPlaceBlock) for s in prog.statements)
    for x in range(4):
        a0, b0 = bits_of(x, 2)
        assert interpret(prog, [a0, b0]) == [b0]


def test_if_conversion_is_a_multiplexer():
    src = """
let main (c : bool) (a : bool[2]) (b : bool[2]) =
    let r =
        if c then
            a.[0 .. 1]
        else
            b.[0 .. 1]
    r

main
"""
    prog = flatten(parse(src))
    for x in range(32):
        c, a0, a1, b0, b1 = bits_of(x, 5)
        want = [a0, a1] if c else [b0, b1]
        assert interpret(prog, [c, a0, a1, b0, b1]) == want


def test_if_branch_with_gates_rejected(tmp_path, capsys):
    src = """
let main (c : bool) (a : bool) (b : bool) =
    let r =
        if c then
            a && b
        else
            b
    r

main
"""
    error = "line 5: conditional branches may only re-label existing values"
    assert_same_error(parse(src), 3, error)
    path = tmp_path / "branch.rev"
    path.write_text(src)
    assert cli_main(["compile", str(path), "-o", str(tmp_path / "b.tfc")]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


# an index or slice out of range: flatten's one-line error, with its line,
# from both evaluators
OUT_OF_RANGE = {
    "index-past-end": ("let f (x : bool[2]) =\n    x.[2]\n",
                       "line 2: index 2 out of range for 'x' (size 2)"),
    "negative-element-write": ("let f (x : bool[2]) =\n"
                               "    let z = Array.zeroCreate 2\n"
                               "    z.[0 - 1] <- x.[0]\n"
                               "    z\n",
                               "line 3: index -1 out of range for 'z' (size 2)"),
    "slice-past-end": ("let f (x : bool[2]) =\n    x.[1 .. 3]\n",
                       "line 2: slice [1..3] out of range for 'x' (size 2)"),
    "slice-before-start": ("let f (x : bool[2]) =\n    x.[0 - 1 .. 1]\n",
                           "line 2: slice [-1..1] out of range for 'x' "
                           "(size 2)"),
    # the assignment is templated by its first iterations, and the key of
    # its last raises the walk's error
    "element-read-on-a-later-iteration": (
        "let f (x : bool[2]) =\n"
        "    let t = Array.zeroCreate 1\n"
        "    for i in 0 .. 2 do\n"
        "        t.[0] <- t.[0] <> x.[i]\n"
        "    t\n",
        "line 4: index 2 out of range for 'x' (size 2)"),
    "element-write-on-a-later-iteration": (
        "let f (x : bool[2]) =\n"
        "    let t = Array.zeroCreate 2\n"
        "    for i in 0 .. 2 do\n"
        "        t.[i] <- x.[0] <> x.[1]\n"
        "    t\n",
        "line 4: index 2 out of range for 't' (size 2)"),
    # the key pass of a templated assignment reads every leaf before the
    # walk synthesizes the `&&` before x.[5] (past MAX_STATEMENT_GATES), so
    # flatten's error is the source's, which has no gate bound
    "element-read-after-a-gate-bound": (
        "let f (x : bool[2]) =\n"
        "    let t = Array.zeroCreate 1\n"
        "    t.[0] <- "
        + "(" * 40 + "x.[0]" + " <> x.[1] && x.[0])" * 40 + " <> x.[5]\n"
        "    t\n",
        "line 3: index 5 out of range for 'x' (size 2)"),
    # flatten checks the gate bound once the statement's operands are all
    # read, so the `&&` chains past it do not raise before x.[5] does
    "read-after-a-gate-bound-in-a-let": (
        "let f (x : bool[2]) =\n"
        "    let t = "
        + "(" * 40 + "x.[0]" + " <> x.[1] && x.[0])" * 40 + " <> x.[5]\n"
        "    t\n",
        "line 2: index 5 out of range for 'x' (size 2)"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_is_the_same_error_in_both_evaluators(case):
    src, error = OUT_OF_RANGE[case]
    assert_same_error(parse(src), 2, error)


@pytest.mark.parametrize("first", ["walked", "replayed"])
def test_gate_bound_names_the_item_that_makes_the_statement(first):
    # after a call, walked or replayed from its template, the line is
    # the calling item's again
    big = "(" * 40 + "x.[0]" + " <> x.[1] && x.[0])" * 40
    src = ("let f (x : bool[2]) =\n"
           "    let g (a : bool) =\n"
           "        a && x.[1]\n"
           + ("    let u = g x.[0]\n" if first == "replayed" else "")
           + f"    let t = g x.[0] && {big}\n"
           "    t\n")
    with pytest.raises(FlattenError) as exc:
        flatten(parse(src))
    line = 5 if first == "replayed" else 4
    assert str(exc.value) == (f"line {line}: expression synthesizes to more "
                              f"than {frontend.MAX_STATEMENT_GATES} gates")


# values of the wrong kind, calls of the wrong arity, bad entry points and
# outputs: the same one-line error, with its line, from both evaluators.
# Each program's entry takes x : bool[2], or it has none.
MALFORMED = {
    "int-to-bit-name": ("let main (x : bool[2]) =\n"
                        "    let mutable a = x.[0]\n"
                        "    a <- 3\n"
                        "    a\n",
                        "line 3: expected a bit-valued expression"),
    "int-condition": ("let main (x : bool[2]) =\n"
                      "    let r = if 3 then x.[0] else x.[1]\n"
                      "    r\n",
                      "line 2: expected a bit-valued expression"),
    "append-int": ("let main (x : bool[2]) =\n    Array.append x 3\n",
                   "line 2: Array.append expects bit arrays"),
    "concat-int": ("let main (x : bool[2]) =\n    Array.concat [x; 3]\n",
                   "line 2: Array.concat expects bit arrays"),
    "rot-of-bit": ("let main (x : bool[2]) =\n    rot 1 x.[0]\n",
                   "line 2: rot expects a bit array"),
    "length-of-bit": ("let main (x : bool[2]) =\n"
                      "    x.[Array.length x.[0]]\n",
                      "line 2: Array.length of a non-array"),
    "int-result": ("let main (x : bool[2]) =\n    3\n",
                   "line 2: program output must be a bit or bit array"),
    "int-final-expression": ("let k = 3\nk\n",
                             "line 2: program output must be a bit or bit "
                             "array"),
    "int-array-output": ("let main (x : bool[2]) =\n    [|1; 2|]\n",
                         "line 2: program output must be a bit or bit "
                         "array"),
    "int-call-assigned": ("let main (x : bool[2]) =\n"
                          "    let g (y : bool) = 3\n"
                          "    let mutable m = x.[0]\n"
                          "    m <- g x.[1]\n"
                          "    m\n",
                          "line 4: cannot assign non-bit value to 'm'"),
    "too-few-arguments": ("let main (x : bool[2]) =\n"
                          "    let f (a : bool) (b : bool) = a && b\n"
                          "    f x.[0]\n",
                          "line 3: f expects 2 argument(s), got 1"),
    "unsized-entry-array": ("let main (x : bool array) =\n    x\n",
                            "line 1: entry parameter 'x' needs a sized "
                            "annotation like (x : bool[8])"),
    "bool-index": ("let main (x : bool[2]) =\n    x.[true]\n",
                   "line 2: bound or index is not a compile-time integer"),
    "function-result": ("let main (x : bool[2]) =\n"
                        "    let f (y : bool) = y\n"
                        "    f\n",
                        "line 1: main returned no value"),
    "function-block": ("let main (x : bool[2]) =\n"
                       "    let r =\n"
                       "        let f (y : bool) = y\n"
                       "        f\n"
                       "    r\n",
                       "line 2: block returned no value"),
    "no-final-expression": ("let main (x : bool[2]) =\n"
                            "    let y = x\n",
                            "line 2: block does not end in an expression"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_program_is_the_same_error_in_both_evaluators(case):
    src, error = MALFORMED[case]
    assert error.startswith("line ") and "\n" not in error
    assert_same_error(parse(src), 2 if src.startswith("let main") else 0,
                      error)


# programs that must compile: each matches interpret_source on every input
# and passes `revc verify` under every strategy
MUST_COMPILE = {
    # an in-place call whose argument t holds a bit never written: t.[0]
    # reads as 0, so the body's first write onto it is a fresh write, and
    # the block restores it to 0
    "unwritten-argument-bit": """\
let f (x : bool[2]) (y : bool[2]) =
    let inc (a : bool array) =
        let r = Array.zeroCreate 2
        a.[0] <- a.[0] <> a.[1]
        r.[0] <- r.[0] <> a.[0]
        a.[0] <- a.[0] <> a.[1]
        r.[1] <- r.[1] <> a.[1]
        r
    let t = Array.zeroCreate 2
    t.[1] <- y.[0] && y.[1]
    x <- inc t
    x
f
""",
}

# each case's output, worked out by hand
MUST_COMPILE_OUTPUT = {
    "unwritten-argument-bit": lambda x0, x1, y0, y1: [x0 ^ (y0 & y1),
                                                      x1 ^ (y0 & y1)],
}


@pytest.mark.parametrize("case", MUST_COMPILE)
def test_program_compiles_like_source_and_verifies(case, tmp_path, capsys):
    ast = parse(MUST_COMPILE[case])
    assert_outputs(ast, flatten(ast), MUST_COMPILE_OUTPUT[case])
    path = tmp_path / f"{case}.rev"
    path.write_text(MUST_COMPILE[case])
    for strategy in ("bennett", "eager", "incremental"):
        assert cli_main(["verify", str(path), "--strategy", strategy]) == 0
        assert ": ok (16 samples" in capsys.readouterr().out


def test_unwritten_argument_bit_compiles_as_its_explicit_false_form():
    # with `t.[0] <- false` first, t.[0] takes its wire (4) before t.[1]
    # does (5): the circuits are the same up to swapping those two wires
    src = MUST_COMPILE["unwritten-argument-bit"]
    explicit = src.replace("    t.[1] <-", "    t.[0] <- false\n    t.[1] <-")
    swap = {4: 5, 5: 4}
    for strategy in ("bennett", "eager", "incremental"):
        _, got = compile_flat(flatten(parse(src)), strategy)
        _, want = compile_flat(flatten(parse(explicit)), strategy)
        assert got.width == want.width
        assert [tuple(swap.get(w, w) for w in g) for g in got.gates] == \
            want.gates, strategy
        assert [swap.get(w, w) for w in got.outputs] == want.outputs


def test_relabels_emit_no_statements():
    src = """
let main (a : bool[4]) =
    let b = rot 1 a
    let c = Array.append (b.[0 .. 1]) (b.[2 .. 3])
    let d = Array.concat [c]
    d

main
"""
    prog = flatten(parse(src))
    assert prog.statements == []
    bits = [1, 0, 1, 1]
    assert interpret(prog, bits) == [bits[(i + 1) % 4] for i in range(4)]


def test_closed_program_without_inputs():
    src = """
let x = true
let y = x && x
y
"""
    prog = flatten(parse(src))
    assert prog.input_slots == []
    assert interpret(prog, []) == [1]


def test_entry_defaults_to_last_definition():
    src = "let f (a : bool) = a <> true"
    prog = flatten(parse(src))
    assert prog.name == "f"
    assert interpret(prog, [0]) == [1]
    assert interpret(prog, [1]) == [0]


def test_loop_bounds_must_be_static():
    src = """
let main (a : bool) =
    for i in 0 .. a do
        a
    a

main
"""
    with pytest.raises(FlattenError):
        flatten(parse(src))


def test_clean_of_nonzero_slot_fails_at_interpret():
    # a && a folds to a, but t is a new bit, as in the source: the clean
    # releases t, not the input, and fails only where t is 1
    src = """
let main (a : bool) =
    let mutable t = a && a
    clean t
    a

main
"""
    ast = parse(src)
    prog = flatten(ast)
    assert interpret(prog, [0]) == interpret_source(ast, [0]) == [0]
    with pytest.raises(Exception):
        interpret(prog, [1])
    with pytest.raises(Exception):
        interpret_source(ast, [1])


# operators whose value folds to an operand; t is still a new bit, so its
# accumulation leaves the input `a` (the output) as it was
FOLDED_TO_AN_OPERAND = {
    "xor": "let mutable t = a <> c <> c",
    "and": "let mutable t = a && a",
    "not-not": "let mutable t = not (not a)",
}


@pytest.mark.parametrize("case", FOLDED_TO_AN_OPERAND)
def test_operator_folded_to_an_operand_is_a_new_bit(case):
    ast = parse("let main (a : bool) (c : bool) =\n"
                f"    {FOLDED_TO_AN_OPERAND[case]}\n"
                "    t <- t <> c\n"
                "    a\n\nmain\n")
    prog = flatten(ast)
    assert prog.statements == [Compute(2, bvar(0), True),
                               Compute(2, bvar(1), False)]
    assert_compiles_like_source(ast)


CLEANS_OF_INPUTS = {  # id -> (source, line of the clean)
    "direct": ("let f (x : bool[2]) =\n    clean x\n    x\n", 2),
    # z.[0] is a re-label of x.[1]
    "relabeled": ("let f (x : bool[2]) =\n"
                  "    let z = Array.zeroCreate 1\n"
                  "    z.[0] <- x.[1]\n"
                  "    clean z\n"
                  "    x\n", 4),
    # the clean runs inside an inlined call
    "in-call": ("let g (y : bool) =\n"
                "    clean y\n"
                "    y\n\n"
                "let main (a : bool[2]) =\n"
                "    let c = g a.[0]\n"
                "    a\n\nmain\n", 2),
}


@pytest.mark.parametrize("case", CLEANS_OF_INPUTS)
def test_clean_of_an_input_bit_is_a_flatten_error(case):
    # the input's wire is the circuit's: it cannot be released
    src, line = CLEANS_OF_INPUTS[case]
    with pytest.raises(FlattenError) as exc:
        flatten(parse(src))
    assert exc.value.line == line
    assert "would release an input bit" in str(exc.value)


@pytest.mark.parametrize("case", CLEANS_OF_INPUTS)
def test_source_interpreter_rejects_a_clean_of_an_input_bit(case):
    # with flatten's one-line error, also where the released bit is 0
    ast = parse(CLEANS_OF_INPUTS[case][0])
    with pytest.raises(FlattenError) as flat:
        flatten(ast)
    for bits in ([0, 0], [1, 1]):
        with pytest.raises(InterpretError) as exc:
            interpret_source(ast, bits)
        assert str(exc.value) == str(flat.value)


def test_xor_of_a_bit_with_itself_folds_to_zero():
    # z.[0] and z.[1] are both x.[1]: their XOR is the constant 0
    src = """let f (x : bool[2]) =
    let z = Array.zeroCreate 2
    z.[0] <- x.[1]
    z.[1] <- x.[1]
    z.[0] <- z.[0] <> z.[1]
    z
"""
    ast = parse(src)
    prog = flatten(ast)
    assert prog.statements == [Compute(4, bconst(False), True)]
    assert_compiles_like_source(ast)


def test_flatten_is_idempotent():
    prog = ripple(4)
    assert flatten(prog) is prog


# ---------------------------------------------------------------------------
# cross-check: the direct AST interpreter agrees with flatten + interpret


CROSS = [
    ("adder_ripple.rev", {"n": 6}),
    ("adder_ripple.rev", {"n": 10}),
    ("adder_select.rev", {"n": 10}),
    ("sha2.rev", {"rounds": 1}),
    ("sha2.rev", {"rounds": 2}),
    ("md5.rev", {"rounds": 1}),
]


@pytest.mark.parametrize("name,params", CROSS)
def test_interpreters_agree(name, params):
    src = corpus(name)
    ast = parse(src, params=params)
    prog = flatten(ast)
    rng = random.Random(1234)
    n = len(prog.input_slots)
    samples = 200 if n <= 64 else 25
    for _ in range(samples):
        bits = [rng.randrange(2) for _ in range(n)]
        assert interpret(prog, bits) == interpret_source(ast, bits, params=params)


def sha2_states(n: int = 10) -> list[list[int]]:
    """n random words k, w, a..h: the inputs of `sha2.rev`, in order."""
    rng = random.Random(99)
    return [[rng.randrange(1 << 32) for _ in range(10)] for _ in range(n)]


def sha2_bits(words: list[int]) -> list[int]:
    return [b for wv in words for b in bits_of(wv, 32)]


def sha2_words(bits: list[int]) -> list[int]:
    return [int_of(bits[32 * i:32 * i + 32]) for i in range(8)]


def test_sha2_round_matches_reference():
    # the reference is FIPS 180-4's round (`sha256_rounds`), with the
    # same k and w in every round
    src = corpus("sha2.rev")
    states = sha2_states()
    want = {r: [sha256_rounds(k, w, st, r) for k, w, *st in states]
            for r in (1, 2, 4, 16)}
    for r in (1, 2):
        ast = parse(src, params={"rounds": r})
        assert [sha2_words(interpret_source(ast, sha2_bits(words),
                                            params={"rounds": r}))
                for words in states] == want[r]
    for r in (1, 4, 16):
        prog = flatten(parse(src, params={"rounds": r}))
        assert len(prog.input_slots) == 320
        assert [sha2_words(interpret(prog, sha2_bits(words)))
                for words in states] == want[r]
    prog = flatten(parse(src, params={"rounds": 4}))
    for strategy in ("bennett", "eager"):
        _, circ = compile_flat(prog, strategy)
        got = []
        for words in states:
            bits = [0] * circ.width
            for wire, b in zip(circ.inputs, sha2_bits(words)):
                bits[wire] = b
            out = simulate(circ, bits)
            got.append(sha2_words([out[wire] for wire in circ.outputs]))
        assert got == want[4], strategy


def test_sha256_round_reference_matches_hashlib():
    # 64 rounds of the reference, with the schedule, constants and
    # feed-forward of FIPS 180-4, give hashlib's digest of one block
    def primes(n):
        out = []
        p = 2
        while len(out) < n:
            if all(p % q for q in out):
                out.append(p)
            p += 1
        return out

    def icbrt(n):
        x = int(round(n ** (1 / 3)))
        while x ** 3 > n:
            x -= 1
        while (x + 1) ** 3 <= n:
            x += 1
        return x

    mask = (1 << 32) - 1
    ks = [icbrt(p << 96) & mask for p in primes(64)]
    iv = [math.isqrt(p << 64) & mask for p in primes(8)]

    def rotr(x, n):
        return (x >> n | x << (32 - n)) & mask

    rng = random.Random(5)
    for size in (0, 3, 55):
        msg = rng.randbytes(size)
        block = (msg + b"\x80" + bytes(55 - size)
                 + (8 * size).to_bytes(8, "big"))
        w = [int.from_bytes(block[4 * i:4 * i + 4], "big") for i in range(16)]
        for t in range(16, 64):
            s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ w[t - 15] >> 3
            s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ w[t - 2] >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & mask)
        state = iv
        for t in range(64):
            state = sha256_rounds(ks[t], w[t], state, 1)
        digest = b"".join(((x + y) & mask).to_bytes(4, "big")
                          for x, y in zip(state, iv))
        assert digest == hashlib.sha256(msg).digest()


def md5_states(n: int = 5) -> list[list[int]]:
    """n random words M[0..15], K, A..D: the inputs of `md5.rev`, in
    order."""
    rng = random.Random(15)
    return [[rng.randrange(1 << 32) for _ in range(21)] for _ in range(n)]


def test_md5_round_matches_reference():
    # the reference is RFC 1321's round-1 steps (`md5_steps`), with the
    # same K in every step
    src = corpus("md5.rev")
    states = md5_states()
    inputs = [[b for x in w for b in bits_of(x, 32)] for w in states]
    want = {r: [md5_steps(w[:16], [w[16]] * r, w[17:], r) for w in states]
            for r in (1, 2, 4, 16)}

    def words(bits):
        return [int_of(bits[i:i + 32]) for i in range(0, len(bits), 32)]

    for r in (1, 2):
        ast = parse(src, params={"rounds": r})
        assert [words(interpret_source(ast, x, params={"rounds": r}))
                for x in inputs] == want[r]
    for r in (1, 2, 4, 16):
        prog = flatten(parse(src, params={"rounds": r}))
        assert len(prog.input_slots) == 672
        assert [words(interpret(prog, x)) for x in inputs] == want[r]
    prog = flatten(parse(src, params={"rounds": 4}))
    for strategy in ("bennett", "eager"):
        _, circ = compile_flat(prog, strategy)
        got = []
        for x in inputs:
            bits = [0] * circ.width
            for wire, b in zip(circ.inputs, x):
                bits[wire] = b
            out = simulate(circ, bits)
            got.append(words([out[wire] for wire in circ.outputs]))
        assert got == want[4], strategy


def test_md5_step_reference_matches_hashlib():
    # 64 steps of the reference, with RFC 1321's sine constants, padding,
    # little-endian words and feed-forward, give hashlib's digest of one
    # block; the steps of rounds 2-4 check G, H, I, the message order
    # and the shifts
    mask = (1 << 32) - 1
    ks = [int(abs(math.sin(i + 1)) * 2 ** 32) & mask for i in range(64)]
    iv = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476]
    rng = random.Random(5)
    for size in (0, 3, 55):
        msg = rng.randbytes(size)
        block = (msg + b"\x80" + bytes(55 - size)
                 + (8 * size).to_bytes(8, "little"))
        m = [int.from_bytes(block[4 * i:4 * i + 4], "little")
             for i in range(16)]
        state = md5_steps(m, ks, iv, 64)
        digest = b"".join(((x + y) & mask).to_bytes(4, "little")
                          for x, y in zip(state, iv))
        assert digest == hashlib.md5(msg).digest()


@pytest.mark.parametrize("op,word", [("/", "division"), ("%", "modulo")])
def test_source_interpreter_rejects_zero_divisor(op, word):
    ast = parse(f"let f (a : bool[4]) =\n    a.[4 {op} 0]\n\nf")
    with pytest.raises(InterpretError, match=f"line 2: {word} by zero"):
        interpret_source(ast, [0] * 4)


@pytest.mark.parametrize("src", [
    "let x = true", "let f (x : bool) = x\nlet f = 3",
], ids=["no-definition", "definition-shadowed"])
def test_program_without_output_is_an_error_in_both_evaluators(src):
    ast = parse(src)
    with pytest.raises(FlattenError, match="no output expression"):
        flatten(ast)
    with pytest.raises(InterpretError, match="no output expression"):
        interpret_source(ast, [])


@pytest.mark.parametrize("params", ["(x : bool) (y : bool)", "(x : bool[2])"],
                         ids=["bits", "array"])
def test_source_interpreter_rejects_short_input(params):
    ast = parse(f"let f {params} = x\nf")
    with pytest.raises(InterpretError, match="expected 2 input bits, got 1"):
        interpret_source(ast, [1])


def test_source_interpreter_rejects_sqrt_of_negative():
    ast = parse("let f (a : bool[4]) =\n    a.[sqrt (0 - 4)]\n\nf")
    with pytest.raises(InterpretError, match="line 2: sqrt of a negative number"):
        interpret_source(ast, [0] * 4)


# ---------------------------------------------------------------------------
# bit-sliced evaluation: every lane of interpret_packed is one interpret


def assert_lanes_agree(prog, data):
    n = len(prog.input_slots)
    samples = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1,
                                 max_size=16))
    cols = [sum((v >> i & 1) << s for s, v in enumerate(samples))
            for i in range(n)]
    out = interpret_packed(prog, cols, (1 << len(samples)) - 1)
    for s, v in enumerate(samples):
        assert [c >> s & 1 for c in out] == interpret(prog, bits_of(v, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_packed_lanes_match_scalar_on_random_programs(seed, data):
    assert_lanes_agree(random_program(seed), data)


@pytest.fixture(scope="module")
def sha2_round():
    return flatten(parse(corpus("sha2.rev"), params={"rounds": 1}))


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_packed_lanes_match_scalar_on_sha2(sha2_round, data):
    assert_lanes_agree(sha2_round, data)


# ---------------------------------------------------------------------------
# one in-place rule: flatten + interpret and interpret_source decide alike


def assert_evaluators_agree(ast, prog):
    n = len(prog.input_slots)
    for v in range(1 << n):
        bits = bits_of(v, n)
        assert interpret(prog, bits) == interpret_source(ast, bits), bits


def assert_same_error(ast, n: int, error: str) -> None:
    """flatten, and interpret_source on every input of n bits, raise the
    one-line error `error`."""
    with pytest.raises(FlattenError) as flat:
        flatten(ast)
    assert str(flat.value) == error
    for v in range(1 << n):
        with pytest.raises(InterpretError) as source:
            interpret_source(ast, bits_of(v, n))
        assert str(source.value) == error, v


def assert_outputs(ast, prog, expected) -> None:
    """Both evaluators give `expected(*bits)` on every input."""
    n = len(prog.input_slots)
    for v in range(1 << n):
        bits = bits_of(v, n)
        assert interpret(prog, bits) == expected(*bits), bits
        assert interpret_source(ast, bits) == expected(*bits), bits


def in_place_program(width, writes, calls=("h <- add b",), target_width=None,
                     before_call=()):
    """`add` with the given writes, called by `main` onto `h` (holding `a`)
    or onto the unwritten buffer `z`."""
    body = "\n".join(f"    {w}" for w in writes)
    lines = "".join(f"    {line}\n" for line in [*before_call, *calls])
    return f"""
let add (x : bool array) =
    let out = Array.zeroCreate {width}
{body}
    out

let main (a : bool[{target_width or width}]) (b : bool[{width}]) =
    let mutable h = a
    let mutable z = Array.zeroCreate {width}
{lines}    Array.concat [h; z; a; b]

main
"""


@pytest.mark.parametrize("writes,call,in_place", [
    (["for i in 0 .. 1 do", "    out.[i] <- out.[i] <> x.[i]",
      "out.[1] <- out.[1] <> (x.[0] && x.[1])"], "h <- add b", True),
    (["out.[0] <- x.[0] <> out.[0]", "out.[1] <- x.[1] <> out.[1]"],
     "h <- add b", True),
    (["out.[0] <- out.[0] <> x.[0]", "out.[1] <- out.[1] <> (x.[1] && out.[0])"],
     "h <- add b", False),
    (["out.[0] <- out.[0] <> x.[0]", "out.[1] <- out.[1] <> x.[1]"],
     "h <- add h", False),
    # the target's index is compared as written, not by its value
    (["out.[1 - 1 + 0] <- out.[1 - 1 + 0] <> x.[0]",
      "out.[1] <- out.[1] <> x.[1]"], "h <- add b", True),
    (["out.[1 - 1 + 0] <- out.[1 - 1 - 0] <> x.[0]",
      "out.[1] <- out.[1] <> x.[1]"], "h <- add b", False),
    (["out.[0] <- out.[1] <> x.[0]", "out.[1] <- out.[1] <> x.[1]"],
     "h <- add b", False),
], ids=["leftmost", "rightmost", "reads-own-buffer", "argument-is-target",
        "same-index", "index-written-differently", "reads-other-element"])
def test_in_place_decision_is_shared(writes, call, in_place):
    ast = parse(in_place_program(2, writes, [call]))
    prog = flatten(ast)
    assert any(isinstance(s, InPlaceBlock) for s in prog.statements) == in_place
    assert_evaluators_agree(ast, prog)


def test_sha2_additions_are_in_place():
    prog = flatten(parse(corpus("sha2.rev"), params={"rounds": 1}))
    assert sum(isinstance(s, InPlaceBlock) for s in prog.statements) == 7


def test_in_place_width_mismatch_is_an_error_in_both_evaluators():
    src = in_place_program(1, ["out.[0] <- out.[0] <> x.[0]"], target_width=2)
    line = 1 + src.splitlines().index("    h <- add b")
    message = f"line {line}: in-place result 'out' has 1 bit(s) but its target has 2"
    ast = parse(src)
    with pytest.raises(FlattenError) as exc:
        flatten(ast)
    assert str(exc.value) == message
    with pytest.raises(InterpretError) as exc:
        interpret_source(ast, [0, 0, 0])
    assert str(exc.value) == message


def test_non_accumulating_write_into_target_is_an_error():
    # the write goes through another name, so the rule does not see it
    src = in_place_program(1, ["let s = out", "s.[0] <- x.[0]"])
    line = 1 + src.splitlines().index("    s.[0] <- x.[0]")
    assert_same_error(parse(src), 2, f"line {line}: a write into an in-place "
                                     f"target must accumulate (t <- t <> e)")


IF_LET = """
let main (c : bool) (a : bool) (b : bool) =
    let r =
        if c then
            let t = a
            t
        else
            b
    r

main
"""


def test_if_branch_with_its_own_let(tmp_path, capsys):
    ast = parse(IF_LET)
    assert_evaluators_agree(ast, flatten(ast))
    path = tmp_path / "iflet.rev"
    path.write_text(IF_LET)
    assert cli_main(["verify", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


MUX_INTO_WRITTEN_ELEMENT = """
let f (x : bool) (y : bool) (c : bool) =
    let r = Array.zeroCreate 1
    r.[0] <- r.[0] <> x
    r.[0] <- if c then x else y
    r

f
"""


def test_if_into_written_element_builds_one_multiplexer():
    ast = parse(MUX_INTO_WRITTEN_ELEMENT)
    prog = flatten(ast)
    # the first write, the multiplexer, and its copy onto a new slot for r.[0]
    assert len(prog.statements) == 3
    assert_evaluators_agree(ast, prog)


# an array allocated in one branch of an `if` keeps its slots: the
# multiplexer is a new slot, and its write does not read itself
IF_ALLOCATIONS = {
    "one-bit": """\
let main (c : bool) (x : bool[1]) =
    let r = if c then Array.zeroCreate 1 else x
    r
""",
    "two-bit-written": """\
let main (c : bool) (x : bool[2]) (y : bool) =
    let r = if c then Array.zeroCreate 2 else x
    r.[1] <- r.[1] <> (y && x.[0])
    r
""",
}


# each case's output, worked out by hand, on inputs [c, x.[0], ..., y]
IF_ALLOCATIONS_OUTPUT = {
    "one-bit": lambda c, x0: [0 if c else x0],
    "two-bit-written": lambda c, x0, x1, y: [0 if c else x0,
                                             (0 if c else x1) ^ (y & x0)],
}


@pytest.mark.parametrize("case", IF_ALLOCATIONS)
def test_if_branch_allocation_keeps_its_slots(case):
    ast = parse(IF_ALLOCATIONS[case])
    prog = flatten(ast)
    assert not [s for s in prog.statements
                if isinstance(s, Compute) and s.slot in variables(s.expr)]
    assert_compiles_like_source(ast)
    assert_outputs(ast, prog, IF_ALLOCATIONS_OUTPUT[case])


WRITE_SHAPES = {
    "leftmost": "out.[{i}] <- out.[{i}] <> x.[{j}]",
    "rightmost": "out.[{i}] <- x.[{j}] <> out.[{i}]",
    "overwrite": "out.[{i}] <- x.[{j}]",
    "reads-buffer": "out.[{i}] <- out.[{i}] <> (x.[{j}] && out.[{k}])",
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluators_agree_on_in_place_candidates(data):
    width = data.draw(st.integers(1, 3), label="width")
    # later calls of one signature replay the first call's template
    calls = data.draw(st.lists(st.sampled_from(
        ["h <- add b", "z <- add b", "h <- add h"]), min_size=1, max_size=3),
        label="calls")
    wider = data.draw(st.sampled_from([False, False, True]),
                      label="wider target")
    writes = []
    for _ in range(data.draw(st.integers(1, 4), label="writes")):
        shape = data.draw(st.sampled_from(sorted(WRITE_SHAPES)))
        i, j, k = (data.draw(st.integers(0, width - 1)) for _ in range(3))
        if shape == "reads-buffer" and width > 1 and k == i:
            k = (i + 1) % width
        writes.append(WRITE_SHAPES[shape].format(i=i, j=j, k=k))
    # a bit name that shares a wire with `a` and `h`, written through
    shared = []
    if data.draw(st.booleans(), label="shared wire"):
        i, j = (data.draw(st.integers(0, width - 1)) for _ in range(2))
        shared = [f"let mutable c = a.[{i}]", data.draw(st.sampled_from(
            [f"c <- c <> b.[{j}]", f"c <- b.[{j}] <> c"]))]
    src = in_place_program(width, writes, calls, width + 1 if wider else None,
                           shared)
    ast = parse(src)
    try:
        prog = flatten(ast)
    except FlattenError:
        with pytest.raises(InterpretError):
            interpret_source(ast, [0] * (2 * width + wider))
        return
    assert_evaluators_agree(ast, prog)


# ---------------------------------------------------------------------------
# in-place templates: a replayed call emits what inlining it would


TEMPLATE_FUNCTIONS = """
let add (x : bool array) =
    let out = Array.zeroCreate 1
    out.[0] <- out.[0] <> x.[0]
    out

let mix (x : bool array) =
    let out = Array.zeroCreate 1
    out.[0] <- out.[0] <> (x.[0] && x.[1])
    out

let and2 (x : bool array) (y : bool array) =
    let out = Array.zeroCreate 1
    out.[0] <- out.[0] <> (x.[0] && y.[0])
    out

let pick k ks (x : bool array) =
    let out = Array.zeroCreate 1
    out.[0] <- out.[0] <> x.[k + ks.[0]]
    out

let gate c (x : bool array) =
    let out = Array.zeroCreate 1
    out.[0] <- out.[0] <> (c && x.[0])
    out

let flip x =
    let out = Array.zeroCreate 1
    out.[0] <- out.[0] <> x
    out

let bump (x : bool array) (y : bool array) =
    x.[0] <- x.[0] <> y.[0]
    y

let drop (x : bool array) =
    clean x
    x

let setw (x : bool array) (y : bool array) =
    x.[0] <- y.[0]
    y

let adds (x : bool array) =
    let out = Array.zeroCreate 1
    let w = Array.zeroCreate 1
    let u = setw w x
    let v = setw out x
    out

let twice (x : bool array) =
    let mutable t = Array.zeroCreate 1
    t <- add x
    t

let addt (x : bool array) =
    let out = Array.zeroCreate 1
    let m = twice x
    let n = twice x
    out.[0] <- out.[0] <> (m.[0] && n.[0] && x.[1])
    m.[0] <- m.[0] <> x.[0]
    n.[0] <- n.[0] <> x.[0]
    out

let addi (x : bool array) =
    let out = Array.zeroCreate 1
    let m = mix x
    let u =
        if x.[0] then
            mix x
        else
            x.[0 .. 0]
    out
"""


def template_program(*lines: str) -> str:
    body = "".join(f"    {line}\n" for line in lines)
    return f"""{TEMPLATE_FUNCTIONS}
let main (a : bool[2]) (b : bool[2]) =
    let mutable h = a.[0 .. 0]
{body}    Array.concat [h; a; b]

main
"""


# Each case repeats a call, so that it is replayed, around a call that
# differs from it in one part of the signature; replaying a template
# across that difference would emit something else.  The in-place cases
# call `h <- f ...`; each "out-of-place" case calls f in an argument or a
# `let`, and is the in-place case of its name otherwise.
TEMPLATE_CASES = {
    "function": template_program(
        "h <- add b", "h <- mix b", "h <- add b"),
    "aliased-arguments": template_program(
        "h <- and2 a.[1 .. 1] b", "h <- and2 b.[0 .. 0] b",
        "h <- and2 a.[1 .. 1] b"),
    "argument-widths": template_program(
        "h <- and2 b a.[1 .. 1]",
        "h <- and2 b.[0 .. 0] (Array.append b.[1 .. 1] a.[1 .. 1])",
        "h <- and2 b a.[1 .. 1]"),
    "argument-kind": template_program(
        "h <- flip b.[0]", "h <- flip b.[0]", "h <- flip b.[0 .. 0]"),
    "constant-bit": template_program(
        "h <- gate true b", "h <- gate false b", "h <- gate true b"),
    "integer-arguments": template_program(
        "h <- pick 0 [| 0 |] b", "h <- pick 1 [| 0 |] b",
        "h <- pick 0 [| 1 |] b", "h <- pick 0 [| 0 |] b"),
    "fresh-target": template_program(
        "let mutable z = Array.zeroCreate 1", "z <- add b", "z <- add b",
        "z <- add b", "h <- add z"),
    "captured": template_program(
        "let mutable c = a.[1]", "let k = 0",
        "let part (x : bool array) = x.[k]",
        "let addc (x : bool array) =",
        "    let out = Array.zeroCreate 1",
        "    out.[0] <- out.[0] <> (part x && c)",
        "    out",
        "h <- addc b", "h <- addc b",
        "c <- b.[0] && b.[1]", "h <- addc b",
        "let k = 1", "h <- addc b",
        "let part (x : bool array) = x.[0]", "h <- addc b",
        "h <- addc b"),
    "writes-captured": template_program(
        "let mutable c = a.[1]",
        "let addw (x : bool array) =",
        "    let out = Array.zeroCreate 1",
        "    out.[0] <- out.[0] <> x.[0]",
        "    c <- x.[1]",
        "    out",
        "h <- addw b", "c <- a.[1]", "h <- addw b",
        "let r = Array.zeroCreate 1", "r.[0] <- c", "h <- add r"),
    "out-of-place-function": template_program(
        "h <- add (add b)", "h <- add (mix b)", "h <- add (add b)"),
    "out-of-place-aliased-arguments": template_program(
        "h <- add (and2 a.[1 .. 1] b)", "h <- add (and2 b.[0 .. 0] b)",
        "h <- add (and2 a.[1 .. 1] b)"),
    "out-of-place-argument-widths": template_program(
        "h <- add (and2 b a.[1 .. 1])",
        "h <- add (and2 b.[0 .. 0] (Array.append b.[1 .. 1] a.[1 .. 1]))",
        "h <- add (and2 b a.[1 .. 1])"),
    "out-of-place-argument-kind": template_program(
        "h <- add (flip b.[0])", "h <- add (flip b.[0])",
        "h <- add (flip b.[0 .. 0])"),
    "out-of-place-constant-bit": template_program(
        "h <- add (gate true b)", "h <- add (gate false b)",
        "h <- add (gate true b)"),
    "out-of-place-integer-arguments": template_program(
        "h <- add (pick 0 [| 0 |] b)", "h <- add (pick 1 [| 0 |] b)",
        "h <- add (pick 0 [| 1 |] b)", "h <- add (pick 0 [| 0 |] b)"),
    # bump writes its first argument fresh, then accumulates onto it
    "out-of-place-fresh-arguments": template_program(
        "let z = Array.zeroCreate 1", "let w = Array.zeroCreate 1",
        "let u = bump z b", "let v = bump w b", "let u2 = bump z b",
        "h <- add z", "h <- add w"),
    "out-of-place-captured": template_program(
        "let mutable c = a.[1]", "let k = 0",
        "let part (x : bool array) = x.[k]",
        "let andc (x : bool array) =",
        "    let t = Array.zeroCreate 1",
        "    t.[0] <- part x && c",
        "    t",
        "h <- add (andc b)", "h <- add (andc b)",
        "c <- b.[0] && b.[1]", "h <- add (andc b)",
        "let k = 1", "h <- add (andc b)",
        "let part (x : bool array) = x.[0]", "h <- add (andc b)",
        "h <- add (andc b)"),
    # the third `drop` would release an input bit: an error, not a replay
    "clean-of-an-input": template_program(
        "let z = Array.zeroCreate 1", "z.[0] <- b.[0] && b.[1]",
        "z.[0] <- z.[0] <> (b.[0] && b.[1])",
        "let w = Array.zeroCreate 1", "w.[0] <- b.[0] && b.[1]",
        "w.[0] <- w.[0] <> (b.[0] && b.[1])",
        "let u = drop z", "let v = drop w", "let i = drop a.[0 .. 0]"),
    # `twice` runs `t <- add x` in place at top level and out of place in
    # addt's in-place body; its second call there replays the first
    "out-of-place-in-an-in-place-body": template_program(
        "h <- add (twice b)", "h <- addt b", "h <- addt b",
        "h <- add (twice b)"),
    # setw re-labels an unwritten local, but writes the unwritten target
    # of an in-place call
    "in-place-target-argument": template_program(
        "h <- add b", "h <- add b",
        "let mutable z = Array.zeroCreate 1", "z <- adds b", "h <- add z"),
    # a call in an `if` branch may not compute: an error, not a replay of
    # the call before it, also inside addi's in-place body
    "in-an-if-branch": template_program(
        "h <- add b", "h <- add b", "h <- addi b"),
}

IN_PLACE, OUT_OF_PLACE = "in place", "out of place"
# the kinds of call each case replays
TEMPLATE_REPLAYS = {
    **{name: {IN_PLACE} for name in TEMPLATE_CASES},
    **{name: {IN_PLACE, OUT_OF_PLACE} for name in TEMPLATE_CASES
       if name.startswith("out-of-place")},
    "writes-captured": set(),
    "clean-of-an-input": {OUT_OF_PLACE},
}

CORPUS_FLATTENS = [  # (name, params, kinds of call replayed)
    ("sha2.rev", {"rounds": 1}, {IN_PLACE}),
    *(("sha2.rev", {"rounds": r}, {IN_PLACE, OUT_OF_PLACE})
      for r in (2, 4, 8, 16, 64)),
    ("md5.rev", {"rounds": 1}, {IN_PLACE}),
    *(("md5.rev", {"rounds": r}, {IN_PLACE, OUT_OF_PLACE}) for r in (2, 4, 16)),
    ("adder_ripple.rev", {"n": 4}, set()),
    ("adder_ripple.rev", {"n": 40}, set()),
    ("adder_select.rev", {}, {OUT_OF_PLACE}),
]


def flat_outcome(ast) -> str:
    try:
        return repr(flatten(ast))
    except FlattenError as exc:
        return f"error: {exc}"


def assert_templates_match_the_walk(monkeypatch, ast, replays,
                                    offs) -> None:
    """The reference check of flatten's templates: the calls replayed are
    of the kinds `replays` (seen on the one template path,
    `Flattener.templated`), and the flat program (or error) is the same
    with each list of key methods in `offs` switched off."""
    kinds = set()
    templated = Flattener.templated

    def spy(self, kind, key, slots, walk, *args):
        walked = []
        value = templated(self, kind, key, slots,
                          lambda *a: walked.append(a) or walk(*a), *args)
        if kind is frontend.CALL and not walked:
            kinds.add(IN_PLACE if value is None else OUT_OF_PLACE)
        # a replay needs `replayable` by its kind alone: a call's template
        # enters its function, an assignment's has nothing to check
        tpl = self.templates.get(key)
        if kind is frontend.CALL:
            assert tpl is None or tpl.entered
        else:
            assert tpl is None or not (tpl.cleans or tpl.entered
                                       or tpl.iterations or tpl.allocated)
        return value

    with monkeypatch.context() as m:
        m.setattr(Flattener, "templated", spy)
        cached = flat_outcome(ast)
    assert kinds == replays
    for off in offs:
        with monkeypatch.context() as m:
            for name in off:
                m.setattr(Flattener, name, lambda *args: None)
            assert flat_outcome(ast) == cached, off


# The reference check switches off call keys, assignment keys and both on
# every input of the two tests below: the first test's inputs, which are
# also the second's, with call keys off there, the rest in the second.  A
# program without calls has no call keys to switch off.
@pytest.mark.parametrize("ast,replays", [
    *(pytest.param(parse(src), TEMPLATE_REPLAYS[name], id=name)
      for name, src in TEMPLATE_CASES.items()),
    *(pytest.param(parse(corpus(name), params=params), replays,
                   id=f"{name}-{params}")
      for name, params, replays in CORPUS_FLATTENS),
])
def test_templates_match_fresh_inlining(monkeypatch, ast, replays):
    assert_templates_match_the_walk(monkeypatch, ast, replays,
                                    [["signature"]])


def test_replayed_computes_share_their_templates_forms():
    # every top-level Compute of SHA-2 comes from a replayed call and
    # keeps its template's form: more rounds add statements, not forms
    def forms(rounds):
        prog = flatten(parse(corpus("sha2.rev"), params={"rounds": rounds}))
        computes = [s for s in prog.statements if type(s) is Compute]
        return len(computes), len({id(s.form) for s in computes})

    (n4, f4), (n16, f16) = forms(4), forms(16)
    assert n16 == 4 * n4
    assert f16 == f4 < n4


@pytest.mark.parametrize("expr", [
    bvar(7), bconst(True), band([bvar(5), bnot(bvar(3))]),
    bxor([band([bvar(4), bvar(2)]), bvar(4), bvar(2)]),
    bor([bvar(6), bnot(bvar(1)), band([bvar(1), bvar(8)])]),
    bnot(bxor([band([bvar(9), bvar(0)]), bnot(band([bvar(0), bvar(9)]))])),
])
def test_compute_holds_its_expression_as_a_form_and_args(expr):
    c = Compute(11, expr, True)
    assert c.expr == expr
    # args are the slots read, in order of first use, and the form reads
    # each one's position
    assert sorted(c.args) == sorted(variables(expr))
    assert len(set(c.args)) == len(c.args)
    assert variables(c.form) == set(range(len(c.args)))
    assert c == Compute(11, expr, True) != Compute(11, expr, False)
    assert repr(c) == f"Compute(slot=11, expr={expr!r}, fresh=True)"


def test_renaming_maps_the_args_and_shares_the_form():
    stmts = [Compute(2, band([bvar(0), bvar(1)]), True),
             Compute(0, bxor([bvar(2), bvar(1)]), False), CleanSlot(2)]
    renamed = _renamed_stmts(stmts, [5, 6, 7])
    assert renamed == [Compute(7, band([bvar(5), bvar(6)]), True),
                       Compute(5, bxor([bvar(7), bvar(6)]), False),
                       CleanSlot(7)]
    assert all(r.form is s.form for r, s in zip(renamed[:2], stmts))


def test_every_slot_renaming_is_one_to_one(monkeypatch):
    # `_renamed_stmts` does not check its map: each caller's is one-to-one
    # by construction (distinct key or block slots, then new slots)
    maps = {dict: 0, list: 0, tuple: 0}
    renamed = frontend._renamed_stmts

    def checked(stmts, m):
        values = list(m.values() if isinstance(m, dict) else m)
        assert len(set(values)) == len(values)
        maps[type(m)] += 1
        return renamed(stmts, m)

    monkeypatch.setattr(frontend, "_renamed_stmts", checked)
    sources = [*(parse(corpus(name), params=params)
                 for name, params, _ in CORPUS_FLATTENS),
               *(parse(looped_writes_program(seed)) for seed in range(40)),
               *(parse(aliased_writes_program(seed)) for seed in range(20))]
    for ast in sources:
        flat_outcome(ast)  # a block's repr renames its body too
    # recorded templates and new blocks (dicts), replays (lists) and
    # blocks' bodies (tuples)
    assert min(maps.values()) > 100, maps


def captured_flag_program(*reads: str) -> str:
    """Two in-place calls `h <- add b` around `flag <- false`, where `add`
    reads the captured `x` and, in `reads`, the captured `flag`: a replay
    of the first call's body would read `flag` as true."""
    body = "".join(f"        {line}\n" for line in reads)
    return f"""\
let main (x : bool[2]) (b : bool[2]) =
    let mutable flag = true
    let add (y : bool array) =
        let out = Array.zeroCreate 2
        out.[1] <- out.[1] <> (y.[0] && x.[1])
{body}        out
    let mutable h = Array.zeroCreate 2
    h.[0] <- x.[0] && b.[0]
    h.[1] <- x.[1] <> b.[1]
    h <- add b
    flag <- false
    h <- add b
    h

main
"""


@pytest.mark.parametrize("src", [
    pytest.param(captured_flag_program(
        "out.[0] <- out.[0] <> (if flag then x.[0] else x.[1])"), id="if"),
    pytest.param(captured_flag_program(
        "let pick i = if flag then x.[i] else x.[1 - i]",
        "out.[0] <- out.[0] <> (pick 0 && y.[1])"), id="nested-definition"),
    pytest.param(captured_flag_program(
        "let v =",
        "    let k = flag",
        "    if k then x.[0] else x.[1]",
        "out.[0] <- out.[0] <> (v && y.[1])"), id="binding-block"),
])
def test_template_key_holds_names_read_in_nested_scopes(src):
    ast = parse(src)
    prog = flatten(ast)
    blocks = [s for s in prog.statements if isinstance(s, InPlaceBlock)]
    assert len(blocks) == len({b.token for b in blocks}) == 2
    for v in range(16):
        bits = bits_of(v, 4)
        assert interpret(prog, bits) == interpret_source(ast, bits), bits
    for strategy in ("bennett", "eager", "incremental"):
        _, circ = compile_flat(prog, strategy)
        assert verify(prog, circ).ok, strategy


def test_nesting_bound_is_exact_and_the_evaluators_reach_it():
    # the let's block and the body expression take two levels, each
    # `not (...)` two more
    def deep(k):
        return ("let g (y : bool) = " + "not (y <> " * k + "y" + ")" * k
                + "\n\ng\n")

    k = (MAX_NESTING - 2) // 2
    prog = parse(deep(k))
    # with y = 0 each level negates the one inside it
    assert interpret_source(prog, [0]) == [k % 2]
    assert interpret(flatten(prog), [0]) == [k % 2]
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(deep(k + 1))


# ---------------------------------------------------------------------------
# reading an unwritten `Array.zeroCreate` bit before writing it


READ_BEFORE_WRITE = """\
let f (x : bool[2]) =
    let t = Array.zeroCreate 2
    let out = Array.zeroCreate 1
    out.[0] <- x.[0] && t.[0]
    t.[0] <- t.[0] <> x.[1]
    Array.concat [out; t]
"""


def read_before_write_program(seed: int) -> str:
    """A random program that reads unwritten `Array.zeroCreate` bits and
    then writes them, or reads them in their own write: top-level bits,
    the target of an in-place function called more than once, and that
    function's locals."""
    rng = random.Random(seed)

    def expr(names):
        a, b = rng.choice(names), rng.choice(names)
        return rng.choice([a, f"{a} <> {b}", f"({a} && {b})",
                           f"({a} || {b})"])

    args, locals_ = ["x.[0]", "x.[1]"], ["s.[0]", "s.[1]"]
    body, undo = [], []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            j = rng.randrange(2)
            body.append(f"r.[{j}] <- r.[{j}] <> ({expr(args + locals_)})")
        else:  # a local write, undone in reverse order below
            i = rng.randrange(2)
            others = args + [l for l in locals_ if l != f"s.[{i}]"]
            write = f"s.[{i}] <- s.[{i}] <> ({expr(others)})"
            body.append(write)
            undo.insert(0, write)
    top, bits = [], ["x.[0]", "x.[1]", "x.[2]", "t.[0]", "t.[1]", "z.[0]",
                     "z.[1]"]
    for _ in range(rng.randint(2, 6)):
        k, i = rng.randrange(2), rng.randrange(2)
        top.append(rng.choice([
            f"out.[{i}] <- {expr(bits)}",
            f"t.[{k}] <- t.[{k}] <> ({expr(bits[:3] + [f't.[{1 - k}]'])})",
            f"t.[{k}] <- {expr(bits[:5])}",
            "z <- acc x.[0 .. 1]",
            "z <- acc x.[1 .. 2]",
        ]))
    lines = "".join(f"    {line}\n" for line in body + undo)
    calls = "".join(f"    {line}\n" for line in top)
    return f"""
let acc (x : bool array) =
    let s = Array.zeroCreate 2
    let r = Array.zeroCreate 2
{lines}    r

let main (x : bool[3]) =
    let t = Array.zeroCreate 2
    let mutable z = Array.zeroCreate 2
    let out = Array.zeroCreate 2
{calls}    Array.concat [out; t; z]

main
"""


def assert_compiles_like_source(ast) -> None:
    """flatten agrees with interpret_source on every input, and each
    strategy's circuit with flatten."""
    prog = flatten(ast)
    assert_evaluators_agree(ast, prog)
    for strategy in ("bennett", "eager", "incremental"):
        _, circ = compile_flat(prog, strategy)
        assert verify(prog, circ).ok, strategy


# unwritten elements read by their own writes, which do not accumulate
READ_IN_OWN_WRITE = """\
let f (x : bool[2]) =
    let t = Array.zeroCreate 2
    t.[0] <- t.[0] <> (x.[0] && t.[0])
    t.[1] <- x.[1] <> (x.[0] && t.[1])
    t
"""


def test_read_before_write_is_a_fresh_write():
    ast = parse(READ_BEFORE_WRITE)
    prog = flatten(ast)
    # t.[0] reads as the constant 0, so out.[0] is 0 and the write is a
    # fresh t.[0] := x.[1]; the output t.[1], never written, is a new slot
    # holding 0
    assert prog.statements == [Compute(4, bconst(False), True),
                               Compute(2, bvar(1), True),
                               Compute(5, bconst(False), True)]
    assert prog.output_slots == [4, 2, 5]
    assert_compiles_like_source(ast)


def test_element_read_in_its_own_write_reads_zero():
    ast = parse(READ_IN_OWN_WRITE)
    prog = flatten(ast)
    assert prog.statements == [Compute(2, bconst(False), True),
                               Compute(3, bvar(1), True)]
    assert_compiles_like_source(ast)


def test_element_read_in_its_own_or_chain_reads_zero():
    # De Morgan puts a NOT over the chain, which reading t.[0] as zero keeps
    ast = parse("let f (x : bool[2]) =\n"
                "    let t = Array.zeroCreate 1\n"
                "    t.[0] <- x.[0] || t.[0] || x.[1]\n"
                "    t\n")
    prog = flatten(ast)
    assert len(prog.statements) == 1
    assert_compiles_like_source(ast)


def test_name_of_an_unwritten_bit_accumulates_onto_it():
    # the write's one read of `c` returned z.[0]'s bit, so it lands there,
    # as in the source: a fresh write, the read itself folded to 0
    ast = parse("let f (x : bool[2]) =\n"
                "    let z = Array.zeroCreate 2\n"
                "    let mutable c = z.[0]\n"
                "    c <- c <> x.[0]\n"
                "    z.[1] <- z.[0] <> c <> x.[1]\n"
                "    z\n")
    prog = flatten(ast)
    assert prog.statements[0] == Compute(2, bvar(0), True)
    assert_compiles_like_source(ast)


@pytest.mark.parametrize("seed", range(40))
def test_random_reads_before_writes_compile_like_source(seed):
    assert_compiles_like_source(parse(read_before_write_program(seed)))


def zero_reads(src: str, monkeypatch) -> tuple[int, int]:
    """Reads in which flatten reads a never-written bit as 0, at top level
    and in in-place bodies."""
    counts = [0, 0]
    read = Flattener.read

    def spy(self, slot):
        e = read(self, slot)
        if e == bconst(False):
            counts[bool(self.enforced)] += 1
        return e

    with monkeypatch.context() as m:
        m.setattr(Flattener, "read", spy)
        flatten(parse(src))
    return tuple(counts)


def test_read_before_write_family_covers_both_paths(monkeypatch):
    counts = [zero_reads(read_before_write_program(seed), monkeypatch)
              for seed in range(40)]
    assert sum(top > 0 for top, _ in counts) >= 5
    assert sum(inner > 0 for _, inner in counts) >= 3


def unwired(prog) -> list:
    """The statements of prog that break the emitter's rule, walking it in
    order with the slots that have a wire: a read, an accumulating target
    or a `CleanSlot` must have one and a fresh target must not, in block
    bodies over their positions alike; and the outputs that have none at
    the end."""
    bad = []

    def run(stmts, mapped):
        for s in stmts:
            if isinstance(s, CleanSlot):
                if s.slot not in mapped:
                    bad.append(s)
                mapped.discard(s.slot)
                continue
            if not variables(s.expr) <= mapped or (s.slot in mapped) == s.fresh:
                bad.append(s)
            mapped.add(s.slot)

    mapped = set(prog.input_slots)
    for stmt in prog.statements:
        if not isinstance(stmt, InPlaceBlock):
            run([stmt], mapped)
            continue
        token, slots = stmt.token, stmt.slots
        positions = {p for p, s in enumerate(slots) if s in mapped}
        run(token.stmts, positions)
        positions.difference_update(token.local_positions)  # released
        mapped.difference_update(slots)
        mapped.update(slots[p] for p in positions)
    return bad + [s for s in prog.output_slots if s not in mapped]


def test_no_statement_reads_a_never_written_bit():
    # flatten reads a never-written or cleaned bit as the constant 0 in
    # every statement it emits, so no statement touches a slot against
    # its wire
    sources = {f"read-before-write {seed}": read_before_write_program(seed)
               for seed in range(40)}
    sources.update((f"clean-chain {seed}", clean_chain_source(seed))
                   for seed in range(40))
    sources.update((f"cleaned-reads {k}", cleaned_reads_chain_source(k))
                   for k in (4, 24))
    progs = {name: flatten(parse(src)) for name, src in sources.items()}
    progs.update((name, flatten(parse(corpus(name), params=params)))
                 for name, params in [
                     ("adder_ripple.rev", None), ("adder_select.rev", None),
                     ("sha2.rev", {"rounds": 2}), ("md5.rev", {"rounds": 2})])
    progs.update(((name, optimize), lower(parse_blif(corpus(name)), optimize))
                 for name in ("example3.blif", "majority.blif", "mux_net.blif")
                 for optimize in (False, True))
    progs.update((f"randprog {seed}", random_program(seed))
                 for seed in range(40))
    assert {name: unwired(p) for name, p in progs.items() if unwired(p)} == {}
    # and it finds each way a hand-built program can break the rule
    assert [len(unwired(unwritten_slot_program(case)))
            for case in UNWRITTEN_SLOT] == [1] * len(UNWRITTEN_SLOT)


def random_block(seed: int) -> InPlaceBlock:
    """A seeded random in-place block onto slot 0, reading slots 1 and 2:
    its target and its locals 3-5 are accumulated onto, cleaned and
    written fresh again in random order, some locals left written at its
    end."""
    rng = random.Random(seed)
    body, live = [], {0}  # the slots with a wire, the target's at entry
    for _ in range(rng.randint(1, 12)):
        slot = rng.choice((0, 3, 4, 5))
        others = [1, 2, *sorted(live - {slot})]
        e = bxor([bvar(rng.choice(others)),
                  band([bvar(s) for s in rng.sample(others, 2)])])
        if slot not in live:
            body.append(Compute(slot, e, True))
            live.add(slot)
        elif rng.random() < 0.6:
            body.append(Compute(slot, e, False))
        else:
            body.append(CleanSlot(slot))
            live.discard(slot)
    return InPlaceBlock.from_statements([0], body, [3, 4, 5])


def test_block_tokens_state_the_effects_of_their_bodies():
    # each token's zero positions, open locals and live-count delta, found
    # when the token is built, are what walking its body finds
    sources = [(corpus("sha2.rev"), {"rounds": 4}),
               (corpus("sha2.rev"), {"rounds": 16}),
               (corpus("md5.rev"), {"rounds": 2}),
               (MUST_COMPILE["unwritten-argument-bit"], None),
               (template_calls("z.[1]"), None),
               (template_calls("z.[1] <> z.[2]"), None)]
    sources += [(read_before_write_program(seed), None) for seed in range(40)]
    progs = [flatten(parse(src, params=params)) for src, params in sources]
    progs.append(block_program())
    blocks = [s for p in progs for s in p.statements
              if isinstance(s, InPlaceBlock)]
    blocks += [random_block(seed) for seed in range(200)]
    tokens = list(dict.fromkeys(b.token for b in blocks))
    for token in tokens:
        body, locals_ = token.stmts, token.local_positions
        assert token.zero_positions == zero_at_entry(body, locals_)
        assert list(token.open_locals) == reopened_locals(body, locals_)
        assert token.delta == block_delta(body, locals_)
    # the families hold locals left open, cleaned and both, and zero
    # positions other than locals
    opened = [len(t.open_locals) for t in tokens]
    assert 0 in opened and max(opened) == 3
    assert any(0 < n < len(t.local_positions)
               for t, n in zip(tokens, opened))
    assert any(t.zero_positions - set(t.local_positions) for t in tokens)


CLEAN_THEN_RELABEL = """\
let f (a : bool[2]) =
    let z = Array.zeroCreate 1
    z.[0] <- z.[0] <> (a.[0] && a.[1])
    z.[0] <- z.[0] <> (a.[0] && a.[1])
    clean z
    z.[0] <- a.[1]
    z.[0] <- z.[0] <> a.[0]
    Array.concat [a; z]
"""


CLEAN_OF_ALIASED_ELEMENTS = """\
let f (x : bool[2]) =
    let z = Array.zeroCreate 2
    let t = Array.zeroCreate 1
    t.[0] <- t.[0] <> (x.[0] && x.[1])
    z.[0] <- t.[0]
    z.[1] <- t.[0]
    t.[0] <- t.[0] <> (x.[0] && x.[1])
    clean z
    let out = Array.zeroCreate 1
    out.[0] <- x.[0] <> z.[1]
    out
"""


def test_clean_of_aliased_elements_cleans_their_slot_once():
    # z.[0] and z.[1] are both t.[0]'s slot
    ast = parse(CLEAN_OF_ALIASED_ELEMENTS)
    prog = flatten(ast)
    assert sum(isinstance(s, CleanSlot) for s in prog.statements) == 1
    assert unwired(prog) == []
    assert_compiles_like_source(ast)


def test_cleaned_element_relabels_as_in_source():
    # after `clean z`, z.[0] is unwritten again in both evaluators: the
    # re-label shares a.[1]'s wire and the accumulation lands on a.[1]
    ast = parse(CLEAN_THEN_RELABEL)
    prog = flatten(ast)
    assert prog.statements[-2:] == [Compute(1, bvar(0), False),
                                    Compute(3, bvar(1), True)]
    assert_compiles_like_source(ast)


def test_long_chain_in_an_in_place_body():
    # the in-place check (`_reads`) and the template key
    # (`LetDef.free_names`) walk a 3,000-operand `<>` chain without
    # recursion
    n = 3000
    chain = " <> ".join(f"x.[{i}]" for i in range(n))
    src = (f"let acc (x : bool array) =\n"
           f"    let r = Array.zeroCreate 1\n"
           f"    r.[0] <- r.[0] <> {chain}\n"
           f"    r\n\n"
           f"let main (x : bool[{n}]) (y : bool[1]) =\n"
           f"    let mutable h = Array.zeroCreate 1\n"
           f"    h <- y\n"
           f"    h <- acc x\n"
           f"    h <- acc x\n"
           f"    h\n")
    prog = flatten(parse(src))
    assert sum(isinstance(s, InPlaceBlock) for s in prog.statements) == 2
    for bits in ([1] * n + [0], [0] * (n - 1) + [1, 1]):
        assert interpret(prog, bits) == interpret_source(parse(src), bits)


# A call inside an expression writes a bit that an operand before it has
# read: the source reads the operand first, so flatten reads it before the
# call's statements, as 0 if it was unwritten ("fresh") or from a copy
READ_ORDER = {
    # f writes the captured z, so it is never replayed
    "inlined": """\
let main (x : bool[2]) =
    let z = Array.zeroCreate 1
    let f (y : bool) =
        z.[0] <- y && x.[1]
        y
    let out = Array.zeroCreate 1
    out.[0] <- z.[0] <> (f x.[0])
    Array.concat [out; z]
""",
    # the second call replays the first
    "replayed": """\
let main (x : bool[2]) =
    let f (z : bool array) (y : bool) =
        z.[0] <- z.[0] <> (y && x.[1])
        y
    let z = Array.zeroCreate 1
    let w = Array.zeroCreate 1
    let out = Array.zeroCreate 2
    out.[0] <- z.[0] <> (f z x.[0])
    out.[1] <- w.[0] <> (f w x.[0])
    Array.concat [out; z; w]
""",
    # written bits: copied before the calls, one read in a nested operand
    "copied": """\
let main (x : bool[2]) =
    let f (z : bool array) (y : bool) =
        z.[0] <- z.[0] <> (y && x.[1])
        y
    let z = Array.zeroCreate 1
    z.[0] <- x.[0] <> x.[1]
    let w = Array.zeroCreate 1
    w.[0] <- x.[0] || x.[1]
    let out = Array.zeroCreate 2
    out.[0] <- z.[0] <> (f z x.[0])
    out.[1] <- (w.[0] && x.[1]) <> (f w x.[0])
    Array.concat [out; z; w]
""",
    # the calls clean the bits read before them
    "cleaned": """\
let main (x : bool[2]) =
    let g (z : bool array) (y : bool) =
        z.[0] <- z.[0] <> (x.[0] <> x.[1])
        clean z
        y
    let z = Array.zeroCreate 1
    z.[0] <- x.[0] <> x.[1]
    let w = Array.zeroCreate 1
    w.[0] <- x.[1] <> x.[0]
    let out = Array.zeroCreate 2
    out.[0] <- z.[0] <> (g z x.[0])
    out.[1] <- w.[0] <> (g w x.[0])
    out
""",
}


@pytest.mark.parametrize("case", READ_ORDER)
def test_operand_is_read_before_a_later_call_writes_it(case):
    ast = parse(READ_ORDER[case])
    counts = {}
    flatten(ast, counts=counts)
    assert (counts["call_replays"] > 0) == (case != "inlined")
    assert_compiles_like_source(ast)


def test_replay_never_skips_a_recursive_call():
    # `f 0 a` inlines d with no iteration; inside `d 1 a`, `f 0 r` has
    # the same signature, but inlining it re-enters d
    src = """\
let main (a : bool[2]) =
    let d k (y : bool array) =
        let mutable r = y
        for i in 1 .. k do
            r <- f 0 r
        r
    let f k (y : bool array) =
        d k y
    let u = f 0 a
    let v = d 1 a
    v
"""
    with pytest.raises(FlattenError, match="line 8: recursive call to 'd'"):
        flatten(parse(src))
    with pytest.raises(InterpretError, match="line 8: recursive call to 'd'"):
        interpret_source(parse(src), [0, 1])


# ---------------------------------------------------------------------------
# one in-place rule: `x <- rhs` writes x's bit in place when exactly one
# read of rhs returned that bit, as an operand of rhs's top-level `<>`


ALIASED_WRITES = {
    # `a` is z.[0]; its read is under `&&`, so the write re-binds `a` and
    # z.[0] keeps its value, though the expression folds to z.[0] ^ x.[1]
    "folded-wrapper": """\
let main (x : bool[2]) =
    let z = Array.zeroCreate 1
    z.[0] <- x.[0] && x.[1]
    let mutable a = z.[0]
    a <- (a <> x.[1]) && true
    let out = Array.zeroCreate 1
    out.[0] <- a
    Array.concat [z; out]
""",
    # the call writes z.[0] after the expression read it: the write lands
    # on z.[0] (which w shares) from the value read before the call
    "read-then-written": """\
let main (x : bool[2]) =
    let f (z : bool array) (y : bool) =
        z.[0] <- z.[0] <> (y && x.[1])
        y
    let z = Array.zeroCreate 1
    z.[0] <- x.[0] <> x.[1]
    let w = z
    z.[0] <- z.[0] <> (f z x.[0])
    Array.concat [z; w]
""",
    # a constant is a value, not a bit: d keeps it when c is re-bound
    "constant-alias": """\
let main (x : bool[1]) =
    let mutable c = false
    let d = c
    c <- c <> x.[0]
    let out = Array.zeroCreate 2
    out.[0] <- c
    out.[1] <- d
    out
""",
    # the call re-binds `a` after the expression read it: the write cannot
    # land on the bit `a` no longer holds, so `a` gets a new bit holding
    # the old `a` xor x.[0]
    "rebound-by-call": """\
let main (x : bool[2]) =
    let mutable a = x.[0] && x.[1]
    let f (y : bool) =
        a <- y && x.[1]
        y
    a <- a <> (f x.[0])
    let out = Array.zeroCreate 1
    out.[0] <- a
    out
""",
    # the same through an element the call re-binds to a new bit
    "element-rebound-by-call": """\
let main (x : bool[2]) =
    let z = Array.zeroCreate 1
    z.[0] <- x.[0] && x.[1]
    let f (y : bool) =
        z.[0] <- y
        y
    z.[0] <- z.[0] <> (f x.[0])
    z
""",
}

# each case's output, worked out by hand, on inputs [x.[0], x.[1]]
ALIASED_WRITES_OUTPUT = {
    "folded-wrapper": lambda x0, x1: [x0 & x1, (x0 & x1) ^ x1],
    "read-then-written": lambda x0, x1: [x1, x1],
    "constant-alias": lambda x0: [x0, 0],
    "rebound-by-call": lambda x0, x1: [(x0 & x1) ^ x0],
    "element-rebound-by-call": lambda x0, x1: [(x0 & x1) ^ x0],
}


@pytest.mark.parametrize("case", ALIASED_WRITES)
def test_aliased_write_compiles_like_source(case):
    ast = parse(ALIASED_WRITES[case])
    assert_compiles_like_source(ast)
    assert_outputs(ast, flatten(ast), ALIASED_WRITES_OUTPUT[case])


# ---------------------------------------------------------------------------
# one `if` rule: a constant condition runs its live branch; on a bit
# condition both branches run, re-labeling only, and the `if`'s value and
# each name either branch re-bound are new bits; an `if` right side re-labels


IF_RULE = {
    # a constant condition's `if` is its live branch, x.[1]: the unwritten
    # z.[1] is re-labeled to it, and b keeps the unwritten bit
    "element-relabel": """\
let main (x : bool[3]) =
    let z = Array.zeroCreate 2
    let mutable b = z.[1]
    z.[1] <- (if true then x.[1] else x.[2])
    let out = Array.zeroCreate 1
    out.[0] <- b
    Array.concat [z; out]
""",
    # the else branch re-binds a, which aliased z.[0]: after the `if`, a is
    # a new bit on either input, so the write onto a leaves z.[0] alone
    "dead-branch-rebinding": """\
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
    # both branches give z.[0]; the `if`'s value is still a new bit
    "same-bit-branches": """\
let main (c : bool) (x : bool[2]) =
    let z = Array.zeroCreate 1
    z.[0] <- x.[1]
    let mutable r = if c then z.[0] else z.[0]
    r <- r <> x.[0]
    let out = Array.zeroCreate 1
    out.[0] <- r
    Array.concat [z; out]
""",
    # a condition that flatten folds to 0 is still a bit: the else branch
    # may not compute
    "folded-condition": """\
let main (x : bool[2]) =
    let r = if x.[0] <> x.[0] then x.[1] else x.[0] && x.[1]
    r
""",
    # both branches of a bit condition run, so the interpreter, too,
    # rejects a `clean`, a write or a new bit in either
    "clean-in-branch": """\
let main (x : bool[2]) =
    let z = Array.zeroCreate 1
    let r =
        if x.[0] then
            clean z
            x.[1]
        else
            x.[0]
    r
""",
    "element-write-in-branch": """\
let main (x : bool[2]) =
    let z = Array.zeroCreate 1
    let r =
        if x.[0] then
            z.[0] <- x.[1]
            x.[1]
        else
            z.[0]
    r
""",
    "bit-if-in-branch": """\
let main (x : bool[2]) =
    let r =
        if x.[0] then
            if x.[1] then x.[0] else x.[1]
        else
            x.[1]
    r
""",
    # t is bound inside the branch: only names bound before the `if` are
    # merged after it, so t gets no multiplexer of its own
    "own-binding-in-branch": """\
let main (c : bool) (x : bool[2]) =
    let r =
        if c then
            let mutable t = x.[0]
            t <- x.[1]
            t
        else
            x.[0]
    r
""",
}

# each case's output, worked out by hand, on inputs [c, x.[0], ...], or
# the one-line error both evaluators give
IF_RULE_OUTPUT = {
    "element-relabel": lambda x0, x1, x2: [0, x1, 0],
    "dead-branch-rebinding": lambda c, x0, x1: [
        x0 & x1, (x0 & x1 if c else x1) ^ x0, x0 if c else x1],
    "same-bit-branches": lambda c, x0, x1: [x1, x1 ^ x0],
    "folded-condition":
        "line 2: conditional branches may only re-label existing values",
    "clean-in-branch": "line 5: clean not allowed in conditional branches",
    "element-write-in-branch":
        "line 5: conditional branches may only re-label existing values",
    "bit-if-in-branch":
        "line 4: conditional branches may only re-label existing values",
    "own-binding-in-branch": lambda c, x0, x1: [x1 if c else x0],
}


@pytest.mark.parametrize("case", IF_RULE)
def test_if_rule_in_both_evaluators(case):
    ast = parse(IF_RULE[case])
    expected = IF_RULE_OUTPUT[case]
    if isinstance(expected, str):
        assert_same_error(ast, 2, expected)
        return
    assert_compiles_like_source(ast)
    assert_outputs(ast, flatten(ast), expected)


def test_binding_made_in_a_branch_costs_no_gates(tmp_path, capsys):
    """The `if` whose branch binds and re-binds its own name compiles to
    the gates of the `if` that returns x.[1] directly."""
    direct = ("let main (c : bool) (x : bool[2]) =\n"
              "    let r = if c then x.[1] else x.[0]\n"
              "    r\n")
    counts = []
    for name, src in [("own", IF_RULE["own-binding-in-branch"]),
                      ("direct", direct)]:
        path = tmp_path / f"{name}.rev"
        path.write_text(src)
        assert cli_main(["stats", str(path), "--strategy", "eager"]) == 0
        report = json.loads(capsys.readouterr().out)
        counts.append((report["toffoli_count"], report["gate_count"]))
    assert counts[0] == counts[1] == (2, 3)


def aliased_writes_program(seed: int) -> str:
    """A random program of writes to names that alias `Array.zeroCreate`
    elements or hold constants, and to the elements themselves, whose
    right sides wrap the target's read (`&& true`, `|| false`, `<> false`,
    `not`) or read it more than once, or are an `if` on a bit, a constant
    value or a condition that folds, with branches that re-bind a, b or
    c, and now and then compute."""
    rng = random.Random(seed)
    targets = ["a", "b", "c", "z.[0]", "z.[1]"]

    def value():
        return rng.choice(targets + ["x.[0]", "x.[1]", "true", "false"] * 2
                          + ["x.[0] && x.[1]"])

    def branch():
        rebinds = [f"{rng.choice('abc')} <- {value()}"
                   for _ in range(rng.choice([0, 0, 1, 2]))]
        return "; ".join(rebinds + [value()])

    def if_expr():
        cond = rng.choice([
            "x.[0]", "x.[1]", "a", "z.[1]", "(if x.[0] then true else false)",
            "true", "false", "c", "(if true then false else x.[0])",
            "x.[0] <> x.[0]", "x.[1] && false", "(a || true)"])
        return f"if {cond} then {branch()} else {branch()}"

    def expr(target, depth=0):
        if depth > 1 or rng.random() < 0.3:
            return rng.choice([target] * 3 + targets
                              + ["x.[0]", "x.[1]", "true", "false"])
        e = expr(target, depth + 1)
        k = rng.randrange(8)
        if k < 4:
            return [f"({e}) && true", f"({e}) || false", f"({e}) <> false",
                    f"not ({e})"][k]
        op = rng.choice(["<>", "<>", "&&", "||"])
        return f"({e}) {op} ({expr(target, depth + 1)})"

    lines = []
    if rng.random() < 0.5:
        lines.append(f"z.[{rng.randrange(2)}] <- x.[{rng.randrange(2)}]")
    lines += [f"let mutable a = z.[{rng.randrange(2)}]",
              f"let mutable b = {rng.choice(['z.[0]', 'z.[1]', 'x.[0]', 'a', 'false'])}",
              f"let mutable c = {rng.choice(['false', 'true'])}",
              f"let d = {rng.choice(['a', 'b', 'c'])}"]
    for _ in range(rng.randint(1, 5)):
        t = rng.choice(targets)
        lines.append(f"{t} <- " + rng.choice([
            f"{t} <> {expr(t)}", f"{expr(t)} <> {t}",
            f"({t} <> {expr(t)}) && true", expr(t), if_expr(), if_expr(),
            f"{t} <> ({if_expr()})"]))
    lines.append("let out = Array.zeroCreate 4")
    lines += [f"out.[{k}] <- {n}" for k, n in enumerate("abcd")]
    body = "".join(f"    {line}\n" for line in lines)
    return ("let main (x : bool[2]) =\n"
            "    let z = Array.zeroCreate 2\n"
            f"{body}    Array.concat [z; out]\n")


def test_aliased_writes_agree_with_source():
    for seed in range(300):
        ast = parse(aliased_writes_program(seed))
        try:
            prog = flatten(ast)
        except FlattenError as exc:
            assert_same_error(ast, 2, str(exc))
            continue
        if seed < 20:
            assert_compiles_like_source(ast)
        else:
            assert_evaluators_agree(ast, prog)


# ---------------------------------------------------------------------------
# assignment templates: a replayed assignment emits what walking it would


def looped_writes_program(seed: int) -> str:
    """A random program of `for` loops whose bodies read and write
    elements of `Array.zeroCreate` arrays and of the input at i, i-1 and
    i+1, and mutable bits that accumulate across iterations or hold a
    constant again, with `clean`s between loops (now and then of an array
    that may not be zero) and in loop bodies, of a scratch array `u` that
    only such a body writes, twice over with one value, so that each
    iteration's writes meet it fresh again."""
    rng = random.Random(seed)

    def elem(names="xzwu"):
        return f"{rng.choice(names)}.[{rng.choice(['i', 'i-1', 'i+1'])}]"

    def expr(names="xzwu", depth=0):
        if depth > 1 or rng.random() < 0.35:
            return rng.choice([elem(names), elem(names), rng.choice("abc"),
                               "true", "false"])
        if rng.randrange(6) == 0:
            return f"not ({expr(names, depth + 1)})"
        op = rng.choice(["<>", "<>", "&&", "||"])
        return f"({expr(names, depth + 1)}) {op} ({expr(names, depth + 1)})"

    def write():
        t = rng.choice([elem("xzw"), elem("xzw"), rng.choice("abc")])
        if t in "abc" and rng.random() < 0.2:  # a constant again
            return f"{t} <- {rng.choice(['true', 'false'])}"
        return f"{t} <- " + rng.choice([
            f"{t} <> ({expr()})", f"({expr()}) <> {t}", expr(), f"not {t}"])

    lines = ["let z = Array.zeroCreate 5", "let w = Array.zeroCreate 5",
             "let u = Array.zeroCreate 5",
             f"let mutable a = x.[{rng.randrange(5)}]",
             "let mutable b = false",
             f"let mutable c = {rng.choice(['z.[1]', 'true', 'x.[2]'])}"]
    for _ in range(rng.randint(2, 4)):
        body = [write() for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            k, e = rng.choice(["1", "i"]), expr("xzw")
            at = rng.randint(0, len(body))  # writes on both sides read u
            body[at:at] = [f"u.[{k}] <- u.[{k}] <> ({e})"] * 2 + ["clean u"]
        lines.append(f"for i in 1 .. {rng.choice([1, 2, 3, 3])} do")
        lines += [f"    {line}" for line in body]
        if rng.random() < 0.1:
            lines.append(f"clean {rng.choice('zw')}")
    lines.append("let out = Array.zeroCreate 3")
    lines += [f"out.[{k}] <- {n}" for k, n in enumerate("abc")]
    body = "".join(f"    {line}\n" for line in lines)
    return ("let main (x : bool[5]) =\n"
            f"{body}    Array.concat [x; z; w; u; out]\n")


def assignment_program(*lines: str) -> str:
    body = "".join(f"    {line}\n" for line in lines)
    return ("let main (x : bool[3]) =\n"
            "    let z = Array.zeroCreate 3\n"
            f"{body}    Array.concat [x; z]\n")


# Each case runs one assignment in a loop whose iterations differ in one
# part of the assignment's key; replaying across that difference would
# emit something else
ASSIGNMENT_CASES = {
    # x.[i] shares its slot with x.[0], then with x.[1], each way twice
    "one-slot-pattern": assignment_program(
        "let mutable t = x.[2]",
        "for i in 0 .. 1 do",
        "    for j in 0 .. 1 do",
        "        t <- (x.[i] && x.[1]) <> x.[0]",
        "z.[0] <- t"),
    # b holds false, then true
    "constant-values": assignment_program(
        "let mutable b = false",
        "z.[1] <- x.[1] && x.[2]",
        "z.[2] <- x.[0] <> x.[2]",
        "for i in 0 .. 2 do",
        "    z.[1] <- z.[1] <> (b || x.[i])",
        "    z.[2] <- z.[2] <> (b && x.[i])",
        "    b <- true"),
    # the target holds a constant, then a bit
    "target-holds-no-bit": assignment_program(
        "let mutable c = false",
        "for i in 0 .. 2 do",
        "    c <- c <> x.[i]",
        "z.[0] <- c"),
    # each iteration writes z.[0] fresh again, and reads z.[1] fresh
    "clean-in-the-body": assignment_program(
        "for i in 0 .. 2 do",
        "    z.[0] <- z.[0] <> (x.[i] && z.[1])",
        "    z.[0] <- z.[0] <> x.[i]",
        "    z.[0] <- z.[0] <> (x.[i] <> (x.[i] && z.[1]))",
        "    clean z",
        "z.[2] <- x.[0] && x.[1]"),
}


@pytest.mark.parametrize("case", ASSIGNMENT_CASES)
def test_assignment_cases_compile_like_source(case):
    ast = parse(ASSIGNMENT_CASES[case])
    counts = {}
    flatten(ast, counts=counts)
    assert counts["assign_replays"] > 0
    assert_compiles_like_source(ast)


def run_outcome(run):
    """A run's outputs, or "error" if a `clean` meets a non-zero bit."""
    try:
        return run()
    except InterpretError:
        return "error"


def test_looped_writes_agree_with_source():
    replayed = 0
    for seed in range(120):
        ast = parse(looped_writes_program(seed))
        counts = {}
        try:
            prog = flatten(ast, counts=counts)
        except FlattenError as exc:
            assert_same_error(ast, 5, str(exc))
            continue
        replayed += counts["assign_replays"] > 0
        for v in range(1 << 5):
            bits = bits_of(v, 5)
            assert (run_outcome(lambda: interpret(prog, bits))
                    == run_outcome(lambda: interpret_source(ast, bits))), (
                        seed, bits)
    assert replayed >= 100


@pytest.mark.parametrize("ast,replays", [
    *(pytest.param(parse(src), TEMPLATE_REPLAYS[name], id=name)
      for name, src in TEMPLATE_CASES.items()),
    *(pytest.param(parse(corpus(name), params=params), replays,
                   id=f"{name}-{params}")
      for name, params, replays in CORPUS_FLATTENS),
    # programs without calls
    *(pytest.param(parse(src), set(), id=name)
      for name, src in ASSIGNMENT_CASES.items()),
    *(pytest.param(parse(looped_writes_program(seed)), set(),
                   id=f"looped-{seed}") for seed in range(40)),
    *(pytest.param(parse(aliased_writes_program(seed)), set(),
                   id=f"aliased-{seed}") for seed in range(20)),
])
def test_assignment_templates_match_the_walk(monkeypatch, ast, replays):
    assert_templates_match_the_walk(monkeypatch, ast, replays, [
        ["assign_key"], ["signature", "assign_key"]])
