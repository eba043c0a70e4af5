"""Circuit data model, bit-exact simulation and the verification harness.

A gate is the tuple of its wires, controls first and target last; its
kind is its length (`kind`): one to three distinct integer wires in
[0, width).  `Circuit(...)` checks every gate in list order and names
the first bad one; `reverse` goes through it.  `parse_circuit` checks
each gate on its line and every gate's width once the header is read.
The emitter's gates are valid by construction (each recipe is checked
once and each statement's wires where it runs, see boolexpr and
emitter).  Both build through `built_circuit`, which checks no gate
again.  All three gates are self-inverse, so reversal is just reversing
the gate order.  Simulation packs one sample per bit of a Python int,
which lets `verify` run hundreds of random samples in a single pass over
the gate list.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

TOFFOLI = "tof"
CNOT = "cnot"
NOT = "not"
KINDS = (None, NOT, CNOT, TOFFOLI)  # by gate length


def kind(g: tuple[int, ...]) -> str:
    """TOFFOLI, CNOT or NOT: the kind of a valid gate is its length."""
    return KINDS[len(g)]


def check_gate(g: tuple, width: int | None = None) -> tuple[int, ...]:
    """g, if it is a gate: one to three distinct integer wires, none
    negative (nor at or above `width`, if given); else a ValueError that
    names it."""
    if not 0 < len(g) < 4:
        raise ValueError(f"gate {g} has {len(g)} wires, not 1 to 3")
    if any(type(w) is not int or w < 0 for w in g):
        raise ValueError(f"gate {g} has a negative or non-integer wire")
    if len(set(g)) != len(g):
        raise ValueError(f"gate {g} repeats a wire")
    if width is not None and max(g) >= width:
        raise ValueError(f"gate {g} outside width {width}")
    return g


def toffoli(c1: int, c2: int, t: int) -> tuple[int, int, int]:
    return check_gate((c1, c2, t))


def cnot(c: int, t: int) -> tuple[int, int]:
    return check_gate((c, t))


def notg(t: int) -> tuple[int]:
    return check_gate((t,))


@dataclass
class Circuit:
    width: int
    gates: list[tuple[int, ...]] = field(default_factory=list)
    inputs: list[int] = field(default_factory=list)  # wire indices holding inputs
    outputs: list[int] = field(default_factory=list)  # wire indices holding outputs

    def __post_init__(self):
        _check_header(self)
        for g in self.gates:
            check_gate(g, self.width)


def _check_header(c: Circuit) -> None:
    """Distinct input and output wires in [0, width)."""
    width = c.width
    for role, wires in (("input", c.inputs), ("output", c.outputs)):
        seen = set()
        for w in wires:
            if w in seen or type(w) is not int or not 0 <= w < width:
                why = "repeated" if w in seen else f"outside width {width}"
                raise ValueError(f"{role} wire {w!r} {why}")
            seen.add(w)


def built_circuit(width: int, gates: list, inputs: list,
                  outputs: list) -> Circuit:
    """`Circuit(width, gates, inputs, outputs)` for gates that are valid
    by construction, as the emitter's are: the header wires are checked,
    the gates are not checked again.  The circuit takes `gates` as it
    is."""
    c = object.__new__(Circuit)
    c.width, c.gates, c.inputs, c.outputs = width, gates, inputs, outputs
    _check_header(c)
    return c


def reverse(c: Circuit) -> Circuit:
    """Inverse circuit: every gate is self-inverse, so reverse the order."""
    return Circuit(c.width, list(reversed(c.gates)), list(c.inputs), list(c.outputs))


def stats(c: Circuit) -> dict:
    counts = Counter(map(kind, c.gates))
    return {
        "toffoli_count": counts[TOFFOLI],
        "cnot_count": counts[CNOT],
        "not_count": counts[NOT],
        "qubit_count": c.width,
    }


def depth(c: Circuit) -> tuple[int, int]:
    """(depth, Toffoli depth), in one pass: the depth is the number of
    ASAP layers, where a gate occupies all its wires and goes one layer
    after the latest gate on any of them; the Toffoli depth is the same
    over the Toffolis alone, the CNOTs and NOTs dropped."""
    layer = [0] * c.width  # per wire, the layer of its latest gate
    tof_layer = [0] * c.width  # the same over the Toffolis
    for g in c.gates:
        if len(g) == 3:
            a, b, t = g
            layer[a] = layer[b] = layer[t] = max(
                layer[a], layer[b], layer[t]) + 1
            tof_layer[a] = tof_layer[b] = tof_layer[t] = max(
                tof_layer[a], tof_layer[b], tof_layer[t]) + 1
        elif len(g) == 2:
            a, t = g
            layer[a] = layer[t] = max(layer[a], layer[t]) + 1
        else:
            layer[g[0]] += 1
    return max(layer, default=0), max(tof_layer, default=0)


def simulate(c: Circuit, input_bits) -> list[int]:
    """Apply the gate list to one full-width bit vector."""
    return [b & 1 for b in simulate_batch(c, [b & 1 for b in input_bits])]


def simulate_batch(c: Circuit, columns: list[int]) -> list[int]:
    """Simulate many samples at once.

    `columns[w]` holds one bit per sample, packed into a Python int, and
    every gate updates its target bitwise across all samples in parallel.
    A NOT flips every bit, so mask the result to the live samples.
    """
    if len(columns) != c.width:
        raise ValueError(f"expected {c.width} columns, got {len(columns)}")
    cols = list(columns)
    for g in c.gates:
        n = len(g)
        if n == 3:
            a, b, t = g
            cols[t] ^= cols[a] & cols[b]
        elif n == 1:
            cols[g[0]] ^= -1
        else:
            a, t = g
            cols[t] ^= cols[a]
    return cols


@dataclass
class VerifyReport:
    samples: int
    seed: int
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify(program, circ: Circuit, samples: int = 200, seed: int = 0) -> VerifyReport:
    """Check a compiled circuit against the classical interpreter.

    For each input u the circuit is run on (u, 0, ..., 0) and we require:
    output wires read interpret(program, u); input wires that are not
    output wires still read u; every other wire reads 0.  Input wires may
    double as output wires when the program updates its inputs in place,
    in which case the output value wins.  Programs with at most 8 inputs
    are checked on all 2^n inputs, whatever `samples` says; larger ones on
    `samples` random inputs drawn from `seed`.  Both sides run every
    sample at once, one sample per bit of a packed column.
    """
    from . import frontend  # local import: circuit stays importable standalone

    n = len(program.input_slots)
    if n <= 8:  # exhaustive: sample v is the input whose bits spell v
        k = 2**n
        in_cols = [sum(1 << v for v in range(k) if v >> i & 1) for i in range(n)]
    else:
        k = samples
        rng = random.Random(seed)
        in_cols = [rng.getrandbits(k) for _ in range(n)]
    mask = (1 << k) - 1

    cols = [0] * circ.width
    for w, col in zip(circ.inputs, in_cols):
        cols[w] = col
    got_cols = simulate_batch(circ, cols)
    want = dict(zip(circ.inputs, in_cols))
    want.update(zip(circ.outputs, frontend.interpret_packed(program, in_cols, mask)))

    outputs = set(circ.outputs)
    mismatches = []
    for w in range(circ.width):
        role = ("output" if w in outputs else
                "input" if w in want else "ancilla")
        diff = (got_cols[w] ^ want.get(w, 0)) & mask
        if diff:
            bad = [s for s in range(k) if diff >> s & 1]
            mismatches.append({
                "wire": w,
                "role": role,
                "bad_samples": bad[:10],
                "bad_count": len(bad),
            })
    return VerifyReport(samples=k, seed=seed, mismatches=mismatches)


def write_circuit(c: Circuit, path) -> None:
    with open(path, "w") as f:
        f.write(format_circuit(c))


def format_circuit(c: Circuit) -> str:
    ins = ",".join(str(w) for w in c.inputs)
    outs = ",".join(str(w) for w in c.outputs)
    lines = [f"# width: {c.width}  inputs: {ins}  outputs: {outs}"]
    for g in c.gates:
        lines.append(f"{kind(g)} " + " ".join(map(str, g)))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """The circuit of a `format_circuit` text; a bad line is `line N: ...`."""
    width = 0
    inputs: list[int] = []
    outputs: list[int] = []
    gates: list[tuple[int, ...]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        try:
            if line.startswith("#"):
                if "width:" in line:
                    parts = line.lstrip("#").split() + [""]
                    for key, val in zip(parts, parts[1:]):
                        if val.endswith(":"):  # a key with an empty list
                            val = ""
                        if key == "width:":
                            width = int(val)
                        elif key == "inputs:":
                            inputs = _parse_wirelist(val)
                        elif key == "outputs:":
                            outputs = _parse_wirelist(val)
            elif line:
                name, *wires = line.split()
                if name not in KINDS:
                    raise ValueError(f"unknown gate {name!r}")
                g = check_gate(tuple(map(int, wires)))  # width: see below
                if kind(g) != name:
                    raise ValueError(f"wrong wire count for {name}: {g}")
                gates.append(g)
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from None
    # the header may follow the gates, so their width is checked here
    bad = next((g for g in gates if max(g) >= width), None)
    if bad is not None:
        raise ValueError(f"gate {bad} outside width {width}")
    return built_circuit(width, gates, inputs, outputs)


def _parse_wirelist(text: str) -> list[int]:
    if not text:
        return []
    out: list[int] = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out
