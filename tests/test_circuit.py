import random
from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revc.circuit import (
    Circuit, Gate, cnot, format_circuit, notg, parse_circuit, reverse,
    simulate, simulate_batch, stats, toffoli, verify,
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
        Gate("hadamard", (0,))


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
    inputs = draw(st.lists(wires, max_size=width))
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
