"""Gate/circuit data model, bit-exact simulation and the verification harness.

Circuits are plain gate lists over {Toffoli, CNOT, NOT} on integer wire
indices.  All three gates are self-inverse, so reversal is just reversing
the gate order.  Simulation packs one sample per bit of a Python int, which
lets `verify` run hundreds of random samples in a single pass over the
gate list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter

TOFFOLI = "tof"
CNOT = "cnot"
NOT = "not"


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str  # TOFFOLI | CNOT | NOT
    wires: tuple[int, ...]  # controls first, target last

    def __post_init__(self):
        if self.kind == TOFFOLI:
            c1, c2, t = self.wires
            if c1 == c2 or t in (c1, c2):
                raise ValueError(f"toffoli wires must be distinct: {self.wires}")
        elif self.kind == CNOT:
            c, t = self.wires
            if c == t:
                raise ValueError(f"cnot control equals target: {self.wires}")
        elif self.kind == NOT:
            if len(self.wires) != 1:
                raise ValueError("not gate takes one wire")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @property
    def target(self) -> int:
        return self.wires[-1]


def toffoli(c1: int, c2: int, t: int) -> Gate:
    return Gate(TOFFOLI, (c1, c2, t))


def cnot(c: int, t: int) -> Gate:
    return Gate(CNOT, (c, t))


def notg(t: int) -> Gate:
    return Gate(NOT, (t,))


@dataclass
class Circuit:
    width: int
    gates: list[Gate] = field(default_factory=list)
    inputs: list[int] = field(default_factory=list)  # wire indices holding inputs
    outputs: list[int] = field(default_factory=list)  # wire indices holding outputs

    def __post_init__(self):
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("output wires must be distinct")
        wires = map(attrgetter("wires"), self.gates)
        if self.gates and max(map(max, wires)) >= self.width:
            g = next(g for g in self.gates if max(g.wires) >= self.width)
            raise ValueError(f"gate {g} outside width {self.width}")


def reverse(c: Circuit) -> Circuit:
    """Inverse circuit: every gate is self-inverse, so reverse the order."""
    return Circuit(c.width, list(reversed(c.gates)), list(c.inputs), list(c.outputs))


def stats(c: Circuit) -> dict:
    counts = {TOFFOLI: 0, CNOT: 0, NOT: 0}
    for g in c.gates:
        counts[g.kind] += 1
    return {
        "toffoli_count": counts[TOFFOLI],
        "cnot_count": counts[CNOT],
        "not_count": counts[NOT],
        "qubit_count": c.width,
    }


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
        if g.kind == TOFFOLI:
            a, b, t = g.wires
            cols[t] ^= cols[a] & cols[b]
        elif g.kind == CNOT:
            a, t = g.wires
            cols[t] ^= cols[a]
        else:
            cols[g.wires[0]] ^= -1
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
        lines.append(f"{g.kind} " + " ".join(str(w) for w in g.wires))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    width = 0
    inputs: list[int] = []
    outputs: list[int] = []
    gates: list[Gate] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
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
            continue
        toks = line.split()
        kind, wires = toks[0], tuple(int(t) for t in toks[1:])
        if kind not in (TOFFOLI, CNOT, NOT):
            raise ValueError(f"line {ln}: unknown gate {kind!r}")
        gates.append(Gate(kind, wires))
    return Circuit(width, gates, inputs, outputs)


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
