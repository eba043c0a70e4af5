"""Boolean expression IR and its synthesis into Toffoli/CNOT/NOT sequences.

Expressions are trees over AND / XOR / NOT / variables / constants; `bor`
writes OR in these terms.  An expression is always synthesized onto a
target wire: the emitted gates map the target value y to y XOR e.
Synthesis respects the written structure (no factoring), so the Toffoli
count is a direct function of the shape of the expression as the
programmer wrote it.

Synthesis has two steps.  `shape` renames an expression's variables to
registers in order of first use and gives the renamed tree (its shape
key) and the variables in that order.  `compile_shape` turns a shape into
a `Recipe`: the ancilla allocations and releases, in the order synthesis
makes them, and the gates over registers (0 the target, 1..n the
variables, then one per scratch allocation).  `Recipe.replay` runs the
heap operations and resolves each gate's registers to wires.  A recipe
depends only on the shape, so one recipe serves every expression of that
shape and every wire mapping; `synthesize` is the two steps in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ancilla import AncillaHeap
from .circuit import CNOT, NOT, TOFFOLI, Gate

VAR = "var"
AND = "and"
XOR = "xor"
NOT_ = "not"
CONST = "const"


@dataclass(frozen=True)
class BoolExp:
    # no per-node dict; `_hash` is set on first use only
    __slots__ = ("op", "args", "_hash")
    op: str
    args: tuple

    def __hash__(self):
        # cached, so that hashing a DAG visits each node once
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.op, self.args))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if self.op == VAR:
            return f"v{self.args[0]}"
        if self.op == CONST:
            return "1" if self.args[0] else "0"
        if self.op == NOT_:
            return f"~{self.args[0]!r}"
        sep = " & " if self.op == AND else " ^ "
        return "(" + sep.join(repr(a) for a in self.args) + ")"


def bvar(wire: int) -> BoolExp:
    return BoolExp(VAR, (wire,))


def bconst(value) -> BoolExp:
    return BoolExp(CONST, (bool(value),))


def bnot(e: BoolExp) -> BoolExp:
    return BoolExp(NOT_, (e,))


def band(children) -> BoolExp:
    children = list(children)
    if not children:
        raise ValueError("empty AND")
    flat: list[BoolExp] = []
    for c in children:
        if c.op == AND:
            flat.extend(c.args)
        elif c.op == CONST:
            if not c.args[0]:
                return bconst(False)
            # Const True is the AND identity and is dropped.
        else:
            flat.append(c)
    # AND is idempotent; a conjunct together with its complement is 0.
    # A literal is looked up by its wire (~wire if negated), any other
    # conjunct by hash: a literal never equals anything else.
    seen: list[BoolExp] = []
    lits: set[int] = set()
    others: set[BoolExp] = set()
    negated: set[BoolExp] = set()  # x of each ~x in others
    for c in flat:
        if c.op == VAR or c.op == NOT_ and c.args[0].op == VAR:
            w = c.args[0] if c.op == VAR else ~c.args[0].args[0]
            if w in lits:
                continue
            if ~w in lits:
                return bconst(False)
            lits.add(w)
        else:
            if c in others:
                continue
            if c.args[0] in others if c.op == NOT_ else c in negated:
                return bconst(False)
            others.add(c)
            if c.op == NOT_:
                negated.add(c.args[0])
        seen.append(c)
    flat = seen
    if not flat:
        return bconst(True)
    if len(flat) == 1:
        return flat[0]
    return BoolExp(AND, tuple(flat))


def bxor(children) -> BoolExp:
    children = list(children)
    if not children:
        raise ValueError("empty XOR")
    flat: list[BoolExp] = []
    parity = False
    odd: dict[BoolExp, bool] = {}  # literal -> seen an odd number of times
    repeated = False
    work = children[::-1]
    while work:
        c = work.pop()
        if c.op == XOR:
            work += reversed(c.args)
        elif c.op == CONST:
            parity ^= c.args[0]
        else:
            if c.op == VAR or c.op == NOT_ and c.args[0].op == VAR:
                repeated = repeated or c in odd
                odd[c] = not odd.get(c, False)
            flat.append(c)
    if repeated:
        # x ^ x = 0: a literal stays, at its first place, if its count is odd
        kept = []
        for c in flat:
            if odd.get(c, True):
                kept.append(c)
                if c in odd:
                    odd[c] = False
        flat = kept
    # Fold constants to a single trailing Const (odd parity) or drop them.
    if parity:
        flat.append(bconst(True))
    if not flat:
        return bconst(False)
    if len(flat) == 1:
        return flat[0]
    return BoolExp(XOR, tuple(flat))


def negate(e: BoolExp) -> BoolExp:
    """not e.  The negation of a NOT, and of an XOR whose constant 1 ends
    it (the frontend writes `not x` as `x <> true`), is the operand."""
    if e.op == NOT_:
        return e.args[0]
    if e.op == CONST:
        return bconst(not e.args[0])
    if e.op == XOR and e.args[-1].op == CONST and e.args[-1].args[0]:
        return bxor(e.args[:-1])
    return bnot(e)


def bor(children) -> BoolExp:
    """a || b || ... by De Morgan, not (not a && not b && ...): over
    literals one Toffoli chain of 2(k-2)+1 Toffolis and k-2 scratch wires.

    Two operands may instead fold as ab ^ a ^ b, which synthesizes `a`
    and `b` a second time but needs no negations (3 gates against 6 over
    literals).  The fold is kept unless De Morgan is no worse in both
    gates and Toffolis and better in one."""
    children = list(children)
    if len(children) == 1:
        return children[0]
    de_morgan = negate(band([negate(c) for c in children]))
    if len(children) > 2:
        return de_morgan
    a, b = children
    fold = bxor([band([a, b]), a, b])
    gates, toffolis = synthesis_cost(de_morgan)
    fold_gates, fold_toffolis = synthesis_cost(fold)
    if gates <= fold_gates and (toffolis < fold_toffolis or (
            toffolis == fold_toffolis and gates < fold_gates)):
        return de_morgan
    return fold


def variables(e: BoolExp) -> set[int]:
    if e.op == VAR:
        return {e.args[0]}
    if e.op == CONST:
        return set()
    out: set[int] = set()
    for c in e.args:
        out |= variables(c)
    return out


def evaluate(e: BoolExp, env, mask: int = 1) -> int:
    """Bit-sliced classical evaluation: `env[v]` packs variable v's value
    in every sample, one sample per bit (lane), and `mask` has a 1 in each
    live lane; the result is packed the same way.  With `mask=1` this is
    scalar evaluation over 0/1 values."""
    return _evaluate(e, env, mask) & mask


def _evaluate(e: BoolExp, env, mask: int) -> int:
    """`evaluate` with the lanes outside `mask` left undefined: every lane
    is computed on its own, so one mask at the end suffices.  Variable
    operands are read in the loop, without a call."""
    op = e.op
    if op == XOR:
        r = 0
        for c in e.args:
            r ^= env[c.args[0]] if c.op == VAR else _evaluate(c, env, mask)
        return r
    if op == AND:
        r = mask
        for c in e.args:
            r &= env[c.args[0]] if c.op == VAR else _evaluate(c, env, mask)
        return r
    if op == VAR:
        return env[e.args[0]]
    if op == NOT_:
        return _evaluate(e.args[0], env, mask) ^ mask
    return mask if e.args[0] else 0


# The most gates one statement may synthesize to.  An AND computes and
# uncomputes each conjunct that is not a literal, so an expression that
# nests such conjuncts synthesizes to a gate list exponential in its depth,
# and one that shares a subtree synthesizes it once per use; the frontends
# reject a statement above this bound instead of emitting it.
MAX_STATEMENT_GATES = 1_000_000


def synthesis_cost(e: BoolExp) -> tuple[int, int]:
    """(gates, Toffolis) that synthesize(e) emits, exactly.  Memoized on
    node identity, so it is linear in the DAG even where a shared subtree
    makes the synthesized tree exponential (as the two-operand fold of
    `bor` does when nested)."""
    memo: dict[int, tuple[int, int]] = {}

    def cost(x: BoolExp) -> tuple[int, int]:
        c = memo.get(id(x))
        if c is not None:
            return c
        op = x.op
        if op == VAR:
            c = 1, 0
        elif op == CONST:
            c = int(x.args[0]), 0
        elif op == NOT_:
            g, t = cost(x.args[0])
            c = g + 1, t
        elif op == XOR:
            g = t = 0
            for a in x.args:
                ag, at = cost(a)
                g, t = g + ag, t + at
            c = g, t
        else:
            # literals cost nothing, a negated one two NOTs, anything else
            # is computed onto a scratch wire and uncomputed; k controls
            # take one CNOT (k = 1), one Toffoli (k = 2) or a chain of
            # 2(k-2)+1 Toffolis
            g = t = 0
            for a in x.args:
                if a.op == NOT_ and a.args[0].op == VAR:
                    g += 2
                elif a.op != VAR:
                    ag, at = cost(a)
                    g, t = g + 2 * ag, t + 2 * at
            k = len(x.args)
            chain = 1 if k <= 2 else 2 * (k - 2) + 1
            c = g + chain, t + (chain if k > 1 else 0)
        memo[id(x)] = c
        return c

    return cost(e)


def gate_count(e: BoolExp) -> int:
    """Number of gates synthesize(e) emits, exactly (`synthesis_cost`)."""
    return synthesis_cost(e)[0]


def and_cost(e: BoolExp) -> int:
    """Toffoli count synthesize(e) emits (`synthesis_cost`); CNOT and NOT
    are free."""
    return synthesis_cost(e)[1]


def shape(e: BoolExp) -> tuple[tuple, tuple[int, ...]]:
    """(shape key, variables in order of first use).

    The key is e as nested tuples `(op, *children)`, with variable i of
    that order written `(VAR, i + 1)`.  Expressions that differ only in
    their variables' names have the same key.  A subtree shared in the
    DAG is walked once and gives one key object.
    """
    regs: dict[int, tuple] = {}  # variable -> its key
    memo: dict[int, tuple] = {}  # id of an inner node -> its key

    def walk(x: BoolExp) -> tuple:
        op = x.op
        if op == VAR:
            k = regs.get(x.args[0])
            if k is None:
                k = regs[x.args[0]] = (VAR, len(regs) + 1)
            return k
        if op == CONST:
            return (CONST, x.args[0])
        k = memo.get(id(x))
        if k is None:
            k = memo[id(x)] = (op, *map(walk, x.args))
        return k

    key = walk(e)
    return key, tuple(regs)


@dataclass(frozen=True)
class Recipe:
    """Synthesis of one expression shape over registers.

    `heap_ops` is the ancilla traffic in order: -1 allocates the next
    scratch register, r >= 0 frees register r.  Each gate is (kind, a, b,
    c) over registers: a Toffoli is a, b -> c, a CNOT a -> b (c = -1), and
    a NOT acts on a (b = c = -1).
    """
    heap_ops: tuple[int, ...]
    gates: tuple[tuple[str, int, int, int], ...]

    def replay(self, wires: list[int], heap: AncillaHeap,
               tables: dict[str, "GateTable"]) -> list[Gate]:
        """Gates on `wires` (the target, then one wire per variable; the
        list is extended in place with the scratch wires), which are taken
        from and returned to `heap`.  `tables` (from `gate_tables`) interns
        the gates of each kind by wires."""
        if wires.count(wires[0]) != 1:
            raise ValueError(
                f"target wire {wires[0]} appears inside the expression")
        return self.run(wires, heap, tables)

    def run(self, w: list[int], heap: AncillaHeap,
            tables: dict[str, "GateTable"]) -> list[Gate]:
        """`replay` without the target check: run the heap operations on
        the registers `w` (extended in place) and resolve the gates."""
        for op in self.heap_ops:
            if op < 0:
                w.append(heap.alloc())
            else:
                heap.free(w[op])
        return [tables[k][(w[a], w[b], w[c]) if c >= 0 else
                          (w[a], w[b]) if b >= 0 else (w[a],)]
                for k, a, b, c in self.gates]


class GateTable(dict):
    """Gates of one kind by their wires.  A gate is built, and its wires
    validated, on the first request only; the key becomes its wires."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, wires: tuple[int, ...]) -> Gate:
        g = self[wires] = Gate(self.kind, wires)
        return g


def gate_tables() -> dict[str, GateTable]:
    """Empty per-kind intern tables for `Recipe.replay`."""
    return {kind: GateTable(kind) for kind in (TOFFOLI, CNOT, NOT)}


def compile_shape(key: tuple, n_vars: int) -> Recipe:
    """The recipe of a shape key from `shape` with n_vars variables.

    Synthesis of AND: each conjunct becomes a control wire.  A variable is
    one as it is; a negated variable is toggled around the block; anything
    else is computed onto a scratch wire first and uncomputed after.  More
    than two controls go through a left-to-right chain of k-2 scratch
    wires and 2(k-2)+1 Toffolis.
    """
    heap_ops: list[int] = []
    scratch = n_vars + 1

    def alloc() -> int:
        nonlocal scratch
        heap_ops.append(-1)
        scratch += 1
        return scratch - 1

    def emit(k: tuple, t: int, gates: list) -> None:
        op = k[0]
        if op == VAR:
            gates.append((CNOT, k[1], t, -1))
        elif op == CONST:
            if k[1]:
                gates.append((NOT, t, -1, -1))
        elif op == NOT_:
            emit(k[1], t, gates)
            gates.append((NOT, t, -1, -1))
        elif op == XOR:
            for c in k[1:]:
                emit(c, t, gates)
        else:
            emit_and(k[1:], t, gates)

    def emit_and(children: tuple, t: int, gates: list) -> None:
        controls: list[int] = []
        toggles: list[tuple] = []
        temps: list[tuple[int, tuple]] = []
        for c in children:
            if c[0] == VAR:
                controls.append(c[1])
            elif c[0] == NOT_ and c[1][0] == VAR:
                r = c[1][1]
                controls.append(r)
                toggles.append((NOT, r, -1, -1))
            else:
                r = alloc()
                emit(c, r, gates)
                temps.append((r, c))
                controls.append(r)
        gates += toggles
        k = len(controls)
        if k == 1:
            gates.append((CNOT, controls[0], t, -1))
        elif k == 2:
            gates.append((TOFFOLI, controls[0], controls[1], t))
        else:
            chain: list[int] = []
            compute: list = []
            for i in range(k - 2):
                a = alloc()
                first = controls[0] if i == 0 else chain[-1]
                compute.append((TOFFOLI, first, controls[i + 1], a))
                chain.append(a)
            gates += compute
            gates.append((TOFFOLI, chain[-1], controls[-1], t))
            gates += reversed(compute)
            heap_ops.extend(reversed(chain))
        gates += reversed(toggles)
        for r, c in reversed(temps):
            # uncompute by synthesizing again, scratch and all, and
            # running the gates backwards
            sub: list = []
            emit(c, r, sub)
            gates += reversed(sub)
            heap_ops.append(r)

    gates: list = []
    emit(key, 0, gates)
    return Recipe(tuple(heap_ops), tuple(gates))


def synthesize(e: BoolExp, target: int, heap: AncillaHeap,
               wires: dict[int, int]) -> list[Gate]:
    """Gates mapping target y to y ^ eval(e); inputs and ancillas restored.

    `wires` maps each variable of e (a value slot) to the wire holding it.
    Every ancilla taken from the heap is uncomputed and returned before
    the sequence ends, so the net heap state is unchanged.
    """
    key, slots = shape(e)
    return compile_shape(key, len(slots)).replay(
        [target, *[wires[s] for s in slots]], heap, gate_tables())
