import random
import re
from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revc.circuit import (
    Circuit, cnot, format_circuit, notg, parse_circuit, reverse, simulate,
    simulate_batch, stats, toffoli, verify,
)
from revc.emitter import compile_flat
from revc.frontend import flatten, parse

from helpers import bits_of, int_of


def test_gate_wire_invariants():
    with pytest.raises(ValueError):
        toffoli(0, 0, 2)
    with pytest.raises(ValueError):
        toffoli(0, 1, 1)
    with pytest.raises(ValueError):
        cnot(3, 3)
    with pytest.raises(ValueError):
        toffoli(-1, 0, 1)
    # a gate is its wire tuple, its kind its length: one to three wires
    for g in [(), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match=r"not 1 to 3"):
            Circuit(5, [g])


# each gate the circuit must reject, named in the error, among good gates
@pytest.mark.parametrize("bad,match", [
    ((-1, 0, 1), "negative or non-integer wire"),
    ((0, -2), "negative or non-integer wire"),
    ((-1,), "negative or non-integer wire"),
    ((0, 1, 3), "outside width 3"),
    ((3,), "outside width 3"),
    ((0, 0, 1), "repeats a wire"),
    ((2, 2), "repeats a wire"),
    ((0, 1.0), "negative or non-integer wire"),
    ((0, True), "negative or non-integer wire"),
    # equal to the good gate (1, 2): a check by equality would pass it
    ((True, 2), "negative or non-integer wire"),
], ids=["tof-negative", "cnot-negative", "not-negative", "tof-width",
        "not-width", "tof-repeat", "cnot-repeat", "float", "bool",
        "bool-equal-to-good"])
def test_circuit_rejects_a_bad_gate(bad, match):
    good = [(0, 1, 2), (1, 2), (0,)]
    with pytest.raises(ValueError, match=re.escape(str(bad)) + ".*" + match):
        Circuit(3, good + [bad] + good)


def test_circuit_names_the_first_bad_gate_in_list_order():
    with pytest.raises(ValueError, match=r"^gate \(5,\) outside width 3$"):
        Circuit(3, [(0, 1), (5,), (0, 0), (0, 4)])


@pytest.mark.parametrize("inputs,outputs,match", [
    ([0, 9], [], "input wire 9 outside width 3"),
    ([0, 0], [], "input wire 0 repeated"),
    ([-1], [], "input wire -1 outside width 3"),
    ([], [-1], "output wire -1 outside width 3"),
    ([], [3], "output wire 3 outside width 3"),
    ([], [1, 1], "output wire 1 repeated"),
], ids=["input-width", "input-repeat", "input-negative", "output-negative",
        "output-width", "output-repeat"])
def test_circuit_rejects_bad_header_wires(inputs, outputs, match):
    with pytest.raises(ValueError, match=match):
        Circuit(3, [], inputs, outputs)
    header = (f"# width: 3  inputs: {','.join(map(str, inputs))}  "
              f"outputs: {','.join(map(str, outputs))}\n")
    with pytest.raises(ValueError, match=match):
        parse_circuit(header)


@pytest.mark.parametrize("line,match", [
    ("cnot 0", r"wrong wire count for cnot: \(0,\)"),
    ("tof 0 1", r"wrong wire count for tof: \(0, 1\)"),
    ("not 0 1", r"wrong wire count for not: \(0, 1\)"),
    ("tof 0 x 1", "invalid literal for int"),
    ("tof -1 0 1", r"gate \(-1, 0, 1\) has a negative or non-integer wire"),
    ("tof 0 1 2 0", r"gate \(0, 1, 2, 0\) has 4 wires, not 1 to 3"),
    ("cnot 1 1", r"gate \(1, 1\) repeats a wire"),
    ("hadamard 0", "unknown gate 'hadamard'"),
], ids=["cnot-arity", "tof-arity", "not-arity", "not-integer", "negative",
        "four-wires", "repeat", "unknown"])
def test_parse_circuit_names_the_line_of_a_bad_gate(line, match):
    text = f"# width: 3  inputs: 0,1  outputs: 2\ncnot 0 2\n\n{line}\nnot 1\n"
    with pytest.raises(ValueError, match=f"^line 4: {match}"):
        parse_circuit(text)


def test_parse_circuit_checks_width_after_the_header():
    # the header may follow the gates; the circuit checks their width
    c = parse_circuit("cnot 0 2\n# width: 3  inputs: 0,1  outputs: 2\n")
    assert c == Circuit(3, [(0, 2)], [0, 1], [2])
    with pytest.raises(ValueError, match=r"^gate \(0, 1, 3\) outside width 3$"):
        parse_circuit("# width: 3  inputs: 0,1  outputs: 2\ntof 0 1 3\n")


def test_toffoli_truth_table():
    c = Circuit(3, [toffoli(0, 1, 2)])
    assert simulate(c, [1, 1, 0]) == [1, 1, 1]
    assert simulate(c, [1, 0, 0]) == [1, 0, 0]
    assert simulate(c, [0, 1, 1]) == [0, 1, 1]


def test_zero_is_fixed_point_without_not_gates():
    rng = random.Random(5)
    gates = []
    for _ in range(50):
        a, b, t = rng.sample(range(8), 3)
        gates.append(toffoli(a, b, t) if rng.random() < 0.5 else cnot(a, t))
    c = Circuit(8, gates)
    assert simulate(c, [0] * 8) == [0] * 8


def test_compiled_adder_adds():
    src = (resources.files("revc") / "corpus" / "adder_ripple.rev").read_text()
    prog = flatten(parse(src, params={"n": 4}))
    _, circ = compile_flat(prog, "eager")
    state = [0] * circ.width
    for w, b in zip(circ.inputs, bits_of(3, 4) + bits_of(5, 4)):
        state[w] = b
    out = simulate(circ, state)
    assert int_of([out[w] for w in circ.outputs]) == 8


def test_reverse_is_inverse():
    rng = random.Random(9)
    gates = []
    for _ in range(60):
        kind = rng.randrange(3)
        if kind == 0:
            a, b, t = rng.sample(range(10), 3)
            gates.append(toffoli(a, b, t))
        elif kind == 1:
            a, t = rng.sample(range(10), 2)
            gates.append(cnot(a, t))
        else:
            gates.append(notg(rng.randrange(10)))
    c = Circuit(10, gates)
    assert reverse(reverse(c)).gates == c.gates
    for _ in range(100):
        v = [rng.randrange(2) for _ in range(10)]
        assert simulate(reverse(c), simulate(c, v)) == v


def test_simulate_is_a_bijection():
    rng = random.Random(13)
    gates = [toffoli(*rng.sample(range(6), 3)) for _ in range(20)]
    gates += [notg(rng.randrange(6)) for _ in range(3)]
    c = Circuit(6, gates)
    images = {tuple(simulate(c, bits_of(v, 6))) for v in range(64)}
    assert len(images) == 64


def test_simulate_batch_matches_scalar():
    rng = random.Random(17)
    gates = [toffoli(0, 1, 2), cnot(2, 3), notg(4), toffoli(3, 4, 0)]
    c = Circuit(5, gates)
    samples = [[rng.randrange(2) for _ in range(5)] for _ in range(40)]
    cols = [0] * 5
    for s, v in enumerate(samples):
        for w in range(5):
            cols[w] |= v[w] << s
    out_cols = simulate_batch(c, cols)
    for s, v in enumerate(samples):
        want = simulate(c, v)
        assert [(out_cols[w] >> s) & 1 for w in range(5)] == want


def test_verify_exhaustive_on_tiny_program():
    prog = flatten(parse("let f (a : bool) (b : bool) = a && b\n\nf"))
    _, circ = compile_flat(prog, "bennett")
    rep = verify(prog, circ)
    assert rep.ok and rep.samples == 4


def test_verify_catches_dropped_gate():
    prog = flatten(parse("let f (a : bool) (b : bool) = a && b\n\nf"))
    _, circ = compile_flat(prog, "bennett")
    broken = Circuit(circ.width, circ.gates[:-1], list(circ.inputs),
                     list(circ.outputs))
    assert not verify(prog, broken).ok


def test_text_format_round_trip():
    c = Circuit(5, [toffoli(0, 1, 4), cnot(4, 3), notg(2)],
                inputs=[0, 1, 2], outputs=[3])
    c2 = parse_circuit(format_circuit(c))
    assert c2.width == c.width
    assert c2.gates == c.gates
    assert c2.inputs == c.inputs and c2.outputs == c.outputs


@st.composite
def circuits(draw):
    width = draw(st.integers(3, 8))
    wires = st.integers(0, width - 1)
    gates = draw(st.lists(st.one_of(
        st.lists(wires, min_size=3, max_size=3, unique=True).map(
            lambda w: toffoli(*w)),
        st.lists(wires, min_size=2, max_size=2, unique=True).map(
            lambda w: cnot(*w)),
        wires.map(notg)), max_size=6))
    inputs = draw(st.lists(wires, max_size=width, unique=True))
    outputs = draw(st.lists(wires, max_size=width, unique=True))
    return Circuit(width, gates, inputs, outputs)


@given(circuits())
@example(Circuit(2, [notg(0), cnot(0, 1), notg(0)], [], [1]))  # `true`
@example(Circuit(3, [], [0, 1], []))
def test_text_format_round_trip_property(c):
    assert parse_circuit(format_circuit(c)) == c


def test_stats_counts():
    c = Circuit(5, [toffoli(0, 1, 4), cnot(4, 3), notg(2), cnot(0, 2)])
    st = stats(c)
    assert st == {"toffoli_count": 1, "cnot_count": 2, "not_count": 1,
                  "qubit_count": 5}
