"""Mutable data dependency (MDD) graph over a FlatProgram.

One node per input bit, per zero-initialization, per operation and per
output designation.  Dependency edges connect a value being *read* to the
operation reading it; mutation edges connect successive states of the same
wire and therefore form vertex-disjoint paths (each state has at most one
predecessor and one successor).

An in-place call block contributes one member node per mutated target
element; the members share a `group` tag identifying the block as a single
emission unit (its internal locals are invisible at this level, they are
allocated and returned inside the unit).  Every member reads every
argument of the block, and all members share one read list: `reads` of
each member is that one list object, and only the first member appears
in the `dependents` of an argument.  The eager scheduler is the one
reader of `dependents` and never reverses a block node alone (a path
through a block is Unclean before its readers are examined), so the
other members would only repeat the first one's statement index there.

The graph is built in one pass over the statements and kept small: a
node is a slotted record made positionally, and the pass does its node,
read, dependent and mutation bookkeeping inline, with one lookup of the
current state per slot read.  Only a never-written slot's implicit zero
init and the input, clean and output nodes go through a helper.

The eager cleanup scheduler reads the garbage terminals
(`garbage_terminals`, one pass over the nodes) and then, per terminal,
walks the indexes directly: `mutation_prev` back to the head of its
mutation path, `reads` of the path's operations, `dependents` of the
terminal and `mutation_next` of each value read; `nodes` is indexed by
id, and a node's `stmt_index` places it in the plan.  `modification_path`
(the path leading to a node, in linear time) and `input_nodes` (the
nodes read along a path) are the same walks as plain queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock

INPUT = "input"
INIT = "init"
OP = "op"
CLEAN = "clean"
OUTPUT = "output"


@dataclass(slots=True)
class MddNode:
    id: int
    kind: str
    slot: int | None = None
    stmt_index: int | None = None  # top-level statement producing this node
    stmt: object = None
    group: int | None = None  # in-place block unit id


@dataclass
class MDD:
    nodes: list = field(default_factory=list)
    # dependency edges: reads[v] = nodes whose values v reads
    reads: dict = field(default_factory=dict)
    # reverse of reads, with a block's first member only
    dependents: dict = field(default_factory=dict)
    mutation_next: dict = field(default_factory=dict)
    mutation_prev: dict = field(default_factory=dict)
    input_ids: list = field(default_factory=list)
    program: FlatProgram | None = None

    def node(self, nid: int) -> MddNode:
        return self.nodes[nid]

    def garbage_terminals(self) -> list:
        """OP nodes, in id order, that end a mutation path short of an
        output: the values left over once the program has run."""
        mutation_next = self.mutation_next
        return [n for n in self.nodes
                if n.kind == OP and n.id not in mutation_next]

    def modification_path(self, nid: int) -> list:
        """Node ids from the Init/Input head of nid's mutation path to nid."""
        prev = self.mutation_prev
        path = [nid]
        while (nid := prev.get(nid)) is not None:
            path.append(nid)
        path.reverse()
        return path

    def input_nodes(self, path) -> set:
        """All nodes read by operations on the path, excluding path members."""
        members = set(path)
        out: set = set()
        for nid in path:
            out |= set(self.reads.get(nid, ())) - members
        return out


def build_mdd(program: FlatProgram) -> MDD:
    """One linear pass over the flat statements (O(n))."""
    g = MDD(program=program)
    nodes, reads, dependents = g.nodes, g.reads, g.dependents
    mutation_next, mutation_prev = g.mutation_next, g.mutation_prev
    current: dict[int, int] = {}  # slot -> node id of its latest state

    def add(node: MddNode) -> int:
        nid = node.id
        nodes.append(node)
        reads[nid] = []
        dependents[nid] = []
        return nid

    def zero(slot: int) -> int:
        # read of a never-written slot: an implicit zero init
        nid = current[slot] = add(MddNode(len(nodes), INIT, slot))
        return nid

    for slot in program.input_slots:
        current[slot] = add(MddNode(len(nodes), INPUT, slot))
        g.input_ids.append(current[slot])

    for idx, stmt in enumerate(program.statements):
        if isinstance(stmt, Compute):
            srcs = []
            for w in sorted(stmt.args):
                src = current.get(w)
                srcs.append(zero(w) if src is None else src)
            slot = stmt.slot
            if stmt.fresh:
                prev = current[slot] = len(nodes)
                nodes.append(MddNode(prev, INIT, slot, idx))
                reads[prev] = []
                dependents[prev] = []
            else:
                prev = current.get(slot)
                if prev is None:
                    prev = zero(slot)
            op = len(nodes)
            nodes.append(MddNode(op, OP, slot, idx, stmt))
            reads[op] = srcs
            dependents[op] = []
            for src in srcs:
                dependents[src].append(op)
            mutation_next[prev] = op
            mutation_prev[op] = prev
            current[slot] = op
        elif isinstance(stmt, InPlaceBlock):
            srcs = []
            for w in stmt.arg_slots:
                src = current.get(w)
                srcs.append(zero(w) if src is None else src)
            first = None
            for t in stmt.target_slots:
                prev = current.get(t)
                if prev is None:
                    prev = zero(t)
                op = len(nodes)
                nodes.append(MddNode(op, OP, t, idx, stmt, idx))
                dependents[op] = []
                if first is None:
                    first = op
                    for src in srcs:
                        dependents[src].append(op)
                reads[op] = srcs
                mutation_next[prev] = op
                mutation_prev[op] = prev
                current[t] = op
        elif isinstance(stmt, CleanSlot):
            slot = stmt.slot
            prev = current.get(slot)
            if prev is None:
                prev = zero(slot)
            cl = current[slot] = add(MddNode(len(nodes), CLEAN, slot, idx, stmt))
            mutation_next[prev] = cl
            mutation_prev[cl] = prev
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    for slot in program.output_slots:
        holder = current.get(slot)
        if holder is None:
            holder = zero(slot)
        if holder in mutation_next:  # mutation paths are vertex-disjoint
            raise ValueError(f"output slot {slot} repeated")
        out = add(MddNode(len(nodes), OUTPUT, slot))
        mutation_next[holder] = out
        mutation_prev[out] = holder
    return g


def _label(n: MddNode, names: dict) -> str:
    if n.kind == INPUT:
        return f"var {names.get(n.slot, n.slot)}"
    if n.kind == OP:
        return (repr(n.stmt.expr) if isinstance(n.stmt, Compute)
                else f"inplace {n.slot}")
    return "Out" if n.kind == OUTPUT else f"{n.kind} {n.slot}"


def to_dot(g: MDD) -> str:
    """GraphViz rendering: mutation edges bold, dependency edges dashed."""
    program = g.program
    names: dict[int, str] = {}
    bits = iter(program.input_slots)
    for name, width in program.input_layout or []:
        for k in range(width):
            names[next(bits)] = name if width == 1 else f"{name}[{k}]"
    lines = ["digraph mdd {", "  rankdir=TB;"]
    for n in g.nodes:
        shape = {INPUT: "ellipse", INIT: "circle", OP: "box",
                 CLEAN: "diamond", OUTPUT: "doublecircle"}[n.kind]
        label = _label(n, names)
        lines.append(f'  n{n.id} [shape={shape} label="{n.id}: {label}"];')
    for src, dst in g.mutation_next.items():
        lines.append(f"  n{src} -> n{dst} [style=bold];")
    for reader, srcs in g.reads.items():
        for s in srcs:
            lines.append(f"  n{s} -> n{reader} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
