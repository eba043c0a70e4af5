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

The eager cleanup scheduler consumes five queries: the garbage terminals
(`garbage_terminals`, one pass over the nodes), the mutation path leading
to a node (`modification_path`), the inputs read along a path
(`input_nodes`), the readers of a node (`dependents`) and the next state of
a node (`mutation_next`).  The last three are lookups in indexes built with
the graph, and a node's `stmt_index` places it in the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock

INPUT = "input"
INIT = "init"
OP = "op"
CLEAN = "clean"
OUTPUT = "output"


@dataclass
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
        return [n for n in self.nodes
                if n.kind == OP and n.id not in self.mutation_next]

    def modification_path(self, nid: int) -> list:
        """Node ids from the Init/Input head of nid's mutation path to nid."""
        path = [nid]
        while self.mutation_prev.get(path[0]) is not None:
            path.insert(0, self.mutation_prev[path[0]])
        return path

    def input_nodes(self, path) -> set:
        """All nodes read by operations on the path, excluding path members."""
        members = set(path)
        out: set = set()
        for nid in path:
            out |= set(self.reads.get(nid, ())) - members
        return out


def _add_node(g: MDD, kind: str, **kw) -> MddNode:
    n = MddNode(id=len(g.nodes), kind=kind, **kw)
    g.nodes.append(n)
    g.reads[n.id] = []
    g.dependents[n.id] = []
    return n


def _read(g: MDD, reader: int, src: int) -> None:
    g.reads[reader].append(src)
    g.dependents[src].append(reader)


def _mutate(g: MDD, prev: int, new: int) -> None:
    assert prev not in g.mutation_next, "mutation paths must be vertex-disjoint"
    g.mutation_next[prev] = new
    g.mutation_prev[new] = prev


def build_mdd(program: FlatProgram) -> MDD:
    """One linear pass over the flat statements (O(n))."""
    g = MDD(program=program)
    current: dict[int, int] = {}  # slot -> node id of its latest state
    for slot in program.input_slots:
        n = _add_node(g, INPUT, slot=slot)
        g.input_ids.append(n.id)
        current[slot] = n.id

    def current_of(slot: int) -> int:
        if slot not in current:
            # read of a never-written slot: an implicit zero init
            current[slot] = _add_node(g, INIT, slot=slot).id
        return current[slot]

    for idx, stmt in enumerate(program.statements):
        if isinstance(stmt, Compute):
            srcs = [current_of(w) for w in sorted(stmt.args)]
            if stmt.fresh:
                init = _add_node(g, INIT, slot=stmt.slot, stmt_index=idx)
                current[stmt.slot] = init.id
            prev = current_of(stmt.slot)
            op = _add_node(g, OP, slot=stmt.slot, stmt_index=idx, stmt=stmt)
            _mutate(g, prev, op.id)
            for s in srcs:
                _read(g, op.id, s)
            current[stmt.slot] = op.id
        elif isinstance(stmt, InPlaceBlock):
            srcs = [current_of(w) for w in stmt.arg_slots]
            first = None
            for t in stmt.target_slots:
                prev = current_of(t)
                op = _add_node(g, OP, slot=t, stmt_index=idx, stmt=stmt,
                               group=idx)
                _mutate(g, prev, op.id)
                if first is None:
                    first = op.id
                    for s in srcs:
                        _read(g, op.id, s)
                else:
                    g.reads[op.id] = g.reads[first]
                current[t] = op.id
        elif isinstance(stmt, CleanSlot):
            prev = current_of(stmt.slot)
            cl = _add_node(g, CLEAN, slot=stmt.slot, stmt_index=idx, stmt=stmt)
            _mutate(g, prev, cl.id)
            current[stmt.slot] = cl.id
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    for slot in program.output_slots:
        holder = current_of(slot)
        out = _add_node(g, OUTPUT, slot=slot)
        _mutate(g, holder, out.id)
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
