"""Combinational BLIF frontend.

Parses the single-output-cover subset of BLIF (`.model`, `.inputs`,
`.outputs`, `.names` + cube lines) and lowers it into the same flat program
form the language frontend produces, so netlists flow through the normal
schedule/emit pipeline.

A cover is a sum of cubes.  Two cubes are mutually exclusive when some
column requires 0 in one and 1 in the other; within a set of pairwise
exclusive cubes OR equals XOR, which synthesizes with CNOTs instead of the
Toffoli-bearing OR combine.  `reorder` greedily partitions each cover into
such cliques (in file order) and `lower(..., optimize=True)` combines each
clique with XOR, keeping OR only between cliques.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boolexpr import (
    AND, MAX_STATEMENT_GATES, BoolExp, bconst, bnot, bor, bvar, bxor,
    canonical, gate_count,
)
from .frontend import Compute, FlatProgram


class BlifError(Exception):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class Cover:
    output: str
    inputs: list[str]
    cubes: list[str]  # input patterns over {0,1,-}; on-set only
    cliques: list[list[int]] | None = None  # cube-index groups, file order
    line: int | None = None  # of the .names line


@dataclass
class BlifNetlist:
    model: str
    inputs: list[str]
    outputs: list[str]
    covers: list[Cover] = field(default_factory=list)


_UNSUPPORTED = {".latch": "sequential", ".clock": "sequential",
                ".subckt": "hierarchical", ".gate": "technology-mapped",
                ".mlatch": "sequential"}


def parse_blif(text: str) -> BlifNetlist:
    model = ""
    inputs: list[str] = []
    outputs: list[str] = []
    output_lines: dict[str, int] = {}  # each output's first .outputs line
    covers: list[Cover] = []
    cur: Cover | None = None

    # join '\' continuations, keep line numbers of the first piece
    lines: list[tuple[int, str]] = []
    pending = ""
    pending_ln = 0
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not pending:
            pending_ln = ln
        pending += line.rstrip("\\")
        if line.endswith("\\"):
            pending += " "
            continue
        lines.append((pending_ln, pending.strip()))
        pending = ""
    if pending:
        lines.append((pending_ln, pending.strip()))

    for ln, line in lines:
        tok = line.split()
        key = tok[0]
        if key in _UNSUPPORTED:
            raise BlifError(f"{key}: {_UNSUPPORTED[key]} netlists are "
                            "unsupported", ln)
        if key == ".model":
            model = tok[1] if len(tok) > 1 else ""
        elif key == ".inputs":
            inputs += tok[1:]
        elif key == ".outputs":
            outputs += tok[1:]
            for s in tok[1:]:
                output_lines.setdefault(s, ln)
        elif key == ".names":
            if len(tok) < 2:
                raise BlifError(".names needs at least an output", ln)
            ins = tok[1:-1]
            if len(set(ins)) != len(ins):  # a cube's columns read distinct inputs
                s = next(s for i, s in enumerate(ins) if s in ins[:i])
                raise BlifError(f"signal {s!r} appears twice in the cover "
                                f"for {tok[-1]!r}", ln)
            cur = Cover(output=tok[-1], inputs=ins, cubes=[], line=ln)
            covers.append(cur)
        elif key == ".end":
            cur = None
        elif key.startswith("."):
            raise BlifError(f"unsupported directive {key}", ln)
        else:
            if cur is None:
                raise BlifError(f"cube line outside a .names block: {line!r}", ln)
            if cur.inputs:
                if len(tok) != 2:
                    raise BlifError(f"malformed cube line {line!r}", ln)
                pattern, plane = tok
            else:
                if len(tok) != 1:
                    raise BlifError(f"malformed constant line {line!r}", ln)
                pattern, plane = "", tok[0]
            if len(pattern) != len(cur.inputs):
                raise BlifError(
                    f"cube arity {len(pattern)} does not match "
                    f"{len(cur.inputs)} inputs", ln)
            if any(ch not in "01-" for ch in pattern):
                raise BlifError(f"bad cube character in {pattern!r}", ln)
            if plane != "1":
                raise BlifError(
                    "only on-set covers (output plane 1) are supported", ln)
            cur.cubes.append(pattern)

    net = BlifNetlist(model=model, inputs=inputs, outputs=outputs, covers=covers)
    _check_signals(net, output_lines)
    return net


def _check_signals(net: BlifNetlist, output_lines: dict[str, int]) -> None:
    """Every signal is driven once, by a primary input or a cover, every
    signal read is defined and the covers have no cycle; an error names
    the line of the cover, or of the output's `.outputs`."""
    inputs = set(net.inputs)
    defined = set(inputs)
    for c in net.covers:
        if c.output in inputs:
            raise BlifError(f"cover for primary input {c.output!r}", c.line)
        if c.output in defined:
            raise BlifError(f"second cover for signal {c.output!r}", c.line)
        defined.add(c.output)
    for c in net.covers:
        for s in c.inputs:
            if s not in defined:
                raise BlifError(f"undefined signal {s!r} in cover for "
                                f"{c.output!r}", c.line)
    for s in net.outputs:
        if s not in defined:
            raise BlifError(f"undefined output signal {s!r}", output_lines[s])
    _cover_order(net)  # raises on cycles


def _cover_order(net: BlifNetlist) -> list[Cover]:
    """Covers in dependency order: a depth-first post-order from each cover
    in file order, on an explicit stack so that a long chain of covers
    cannot exhaust Python's."""
    by_output = {c.output: c for c in net.covers}
    order: list[Cover] = []
    state: dict[str, int] = {}  # 1 = visiting, 2 = done

    for root in net.covers:
        if state.get(root.output) == 2:
            continue
        state[root.output] = 1
        stack = [(root, iter(root.inputs))]
        while stack:
            c, pending = stack[-1]
            for s in pending:
                d = by_output.get(s)
                if d is None or state.get(d.output) == 2:
                    continue
                if state.get(d.output) == 1:
                    raise BlifError(
                        f"cyclic signal dependency through {d.output!r}",
                        d.line)
                state[d.output] = 1
                stack.append((d, iter(d.inputs)))
                break
            else:
                stack.pop()
                state[c.output] = 2
                order.append(c)
    return order


# ---------------------------------------------------------------------------
# clique cover over the mutual-exclusion graph


def mutually_exclusive(a: str, b: str) -> bool:
    """True iff no input satisfies both cubes (OR of the pair equals XOR)."""
    if len(a) != len(b):
        raise BlifError(f"cube arity mismatch: {a!r} vs {b!r}")
    return any((x, y) in (("0", "1"), ("1", "0")) for x, y in zip(a, b))


def clique_cover(cubes: list[str]) -> list[list[int]]:
    """Greedy partition in file order: each cube joins the first clique it
    conflicts with entirely, else opens a new one."""
    cliques: list[list[int]] = []
    for i, cube in enumerate(cubes):
        for cl in cliques:
            if all(mutually_exclusive(cube, cubes[j]) for j in cl):
                cl.append(i)
                break
        else:
            cliques.append([i])
    return cliques


def reorder(net: BlifNetlist) -> BlifNetlist:
    """Permute each cover so clique members are adjacent; the grouping is
    carried on the cover for lowering.  Cover semantics are unchanged
    (cube order is irrelevant to a sum of cubes)."""
    covers = []
    for c in net.covers:
        cliques = clique_cover(c.cubes)
        new_cubes: list[str] = []
        new_cliques: list[list[int]] = []
        for cl in cliques:
            group = list(range(len(new_cubes), len(new_cubes) + len(cl)))
            new_cubes += [c.cubes[i] for i in cl]
            new_cliques.append(group)
        covers.append(Cover(output=c.output, inputs=list(c.inputs),
                            cubes=new_cubes, cliques=new_cliques, line=c.line))
    return BlifNetlist(model=net.model, inputs=list(net.inputs),
                       outputs=list(net.outputs), covers=covers)


# ---------------------------------------------------------------------------
# lowering


class _Literals(dict):
    """The literal nodes of one cover's inputs, input -> (its variable,
    its negation), shared by every cube that reads it so that each hash
    is computed once.  An input's variable is its position, given in order
    of first use (`columns` lists the inputs by position)."""

    def __init__(self):
        self.columns: list[int] = []

    def __missing__(self, column: int) -> tuple:
        v = bvar(len(self.columns))
        self.columns.append(column)
        pair = self[column] = (v, bnot(v))
        return pair


def _cube_expr(cube: str, lits: _Literals):
    """The AND of a cube's literals, one per input: as `band` would fold
    them, since no two read one input (`parse_blif` rejects a cover that
    names an input twice)."""
    conj = [lits[i][ch == "0"] for i, ch in enumerate(cube) if ch != "-"]
    if len(conj) > 1:
        return BoolExp(AND, tuple(conj))
    return conj[0] if conj else bconst(True)


def cover_expr(cover: Cover, lits: _Literals):
    """Boolean expression of one cover over the positions `lits` gives
    its inputs."""
    if not cover.cubes:
        return bconst(False)
    cliques = cover.cliques or [[i] for i in range(len(cover.cubes))]
    groups = [bxor([_cube_expr(cover.cubes[i], lits) for i in cl])
              for cl in cliques]
    return bor(groups)


def lower(net: BlifNetlist, optimize: bool = False) -> FlatProgram:
    """Lower a netlist to a flat program (covers in dependency order).

    With `optimize` the covers are clique-reordered first, so exclusive
    cubes combine with XOR, and only one OR operand per clique is left
    for the De Morgan chain of `bor`.
    """
    if optimize:
        net = reorder(net)
    slot_of: dict[str, int] = {}
    input_slots: list[int] = []
    for i, s in enumerate(net.inputs):
        slot_of[s] = i
        input_slots.append(i)
    next_slot = len(net.inputs)
    statements = []
    for c in _cover_order(net):
        lits = _Literals()
        expr = cover_expr(c, lits)
        if gate_count(expr) > MAX_STATEMENT_GATES:
            raise BlifError(f"cover for {c.output!r} synthesizes to more than "
                            f"{MAX_STATEMENT_GATES} gates", c.line)
        slot_of[c.output] = next_slot
        # the positions are in order of first use unless the simplifier
        # dropped an input (x and not x in one De Morgan chain fold to 1),
        # so `canonical` keeps the nodes as a rule; its args are `lits`
        # positions, each mapped to its input's slot
        form, pos = canonical(expr)
        slots = [slot_of[c.inputs[i]] for i in lits.columns]
        statements.append(Compute.over(next_slot, form,
                                       tuple([slots[p] for p in pos]), True))
        next_slot += 1
    output_slots = []
    for s in net.outputs:
        w = slot_of[s]
        if w in output_slots:  # an output listed twice still needs its own wire
            statements.append(Compute(next_slot, bvar(w), fresh=True))
            w = next_slot
            next_slot += 1
        output_slots.append(w)
    return FlatProgram(name=net.model or "blif", input_slots=input_slots,
                       output_slots=output_slots, statements=statements,
                       slot_count=next_slot,
                       input_layout=[(s, 1) for s in net.inputs])


def cover_semantics(net: BlifNetlist, bits: list[int]) -> list[int]:
    """Reference evaluation straight off the cubes (OR of cube matches)."""
    val = {s: b & 1 for s, b in zip(net.inputs, bits)}

    def cube_matches(cube: str, ins: list[str]) -> bool:
        return all(ch == "-" or val[s] == int(ch) for ch, s in zip(cube, ins))

    for c in _cover_order(net):
        val[c.output] = int(any(cube_matches(q, c.inputs) for q in c.cubes))
    return [val[s] for s in net.outputs]
