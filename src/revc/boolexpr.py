"""Boolean expression IR and its synthesis into Toffoli/CNOT/NOT sequences.

Expressions are trees over AND / XOR / NOT / variables / constants; `bor`
writes OR in these terms.  An expression is always synthesized onto a
target wire: the emitted gates map the target value y to y XOR e.
Synthesis respects the written structure (no factoring), so the Toffoli
count is a direct function of the expression as the programmer wrote it.

A statement holds its expression as a form and args (`canonical`): the
expression with its variables renumbered 0..k-1 in order of first use,
and those k variables.  Renaming a statement maps its args only, so every
later stage can work once per form rather than once per statement.

The form is also what synthesis reads.  `compile_form` turns a form into
a `Recipe`: the ancilla allocations and releases, in the order synthesis
makes them (recorded by `Registers`), and the gates as register triples
padded with -1 (0 the target, p + 1 position p, then one per scratch
allocation).  Gates are valid by construction, checked where they are
made rather than gate by gate in the circuit: a recipe is checked once,
when it is built (see `Recipe`), and `Recipe.replay` checks that the
target and args of one statement are on distinct wires, then runs the
heap operations and resolves each triple to its wire tuple, which is the
gate (see circuit), interned by the caller's table.  Forms compare by
structure, so one recipe serves every form equal to its own and every
wire mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ancilla import AncillaHeap

VAR = "var"
AND = "and"
XOR = "xor"
NOT_ = "not"
CONST = "const"


class BoolExp:
    """One node: `op` and `args` (child nodes; the wire of a `var`, the
    bool of a `const`).  Nodes are never changed after they are built, and
    two are equal when their ops and args are.  A plain slotted class, not
    a frozen dataclass, so that building a node costs no guarded
    attribute writes: flatten builds one per node of every statement."""
    # no per-node dict; `_hash` is set on first use only
    __slots__ = ("op", "args", "_hash")

    def __init__(self, op: str, args: tuple):
        self.op = op
        self.args = args

    def __eq__(self, other):
        if other.__class__ is not BoolExp:
            return NotImplemented
        return self.op == other.op and self.args == other.args

    def __hash__(self):
        # cached, so that hashing a DAG visits each node once
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash((self.op, self.args))
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


def canonical(e: BoolExp) -> tuple[BoolExp, tuple]:
    """(form, args): e with its variables renumbered 0..k-1 in order of
    first use, and those k variables in that order.  A node whose
    variables keep their numbers is e's own, and a subtree shared in the
    DAG is walked once and stays shared."""
    leaves: dict[int, BoolExp] = {}  # variable -> the node of its position
    args: list = []
    memo: dict[int, BoolExp] = {}  # id of an inner node -> its form

    def leaf(x: BoolExp) -> BoolExp:  # a first-seen variable
        v = x.args[0]
        p = len(args)
        args.append(v)
        n = leaves[v] = x if v == p else BoolExp(VAR, (p,))
        return n

    def walk(x: BoolExp) -> BoolExp:  # an inner node, children in the loop
        kids = []
        changed = False
        for c in x.args:
            op = c.op
            if op == VAR:
                k = leaves.get(c.args[0]) or leaf(c)
            elif op == CONST:
                k = c
            else:
                k = memo.get(id(c))
                if k is None:
                    k = memo[id(c)] = walk(c)
            changed = changed or k is not c
            kids.append(k)
        return BoolExp(x.op, tuple(kids)) if changed else x

    if e.op == VAR:
        return leaf(e), tuple(args)
    if e.op == CONST:
        return e, ()
    return walk(e), tuple(args)


def instantiate(form: BoolExp, args) -> BoolExp:
    """The expression of a form: position i read as variable args[i]."""
    if form.op == VAR:
        return bvar(args[form.args[0]])
    if form.op == CONST:
        return form
    return BoolExp(form.op, tuple([instantiate(a, args) for a in form.args]))


def evaluate(e: BoolExp, env, mask: int = 1) -> int:
    """Bit-sliced classical evaluation: `env[v]` packs variable v's value
    in every sample, one sample per bit (lane), and `mask` has a 1 in each
    live lane; the result is packed the same way.  With `mask=1` this is
    scalar evaluation over 0/1 values."""
    return evaluate_form(*canonical(e), env, mask)


def evaluate_form(form: BoolExp, args, env, mask: int = 1) -> int:
    """`evaluate` of the expression of a form: position i reads
    env[args[i]]."""
    return _evaluate(form, args, env, mask) & mask


def _evaluate(e: BoolExp, args, env, mask: int) -> int:
    """`evaluate_form` with the lanes outside `mask` left undefined: every
    lane is computed on its own, so one mask at the end suffices.
    Variable operands are read in the loop, without a call."""
    op = e.op
    if op == XOR:
        r = 0
        for c in e.args:
            r ^= (env[args[c.args[0]]] if c.op == VAR
                  else _evaluate(c, args, env, mask))
        return r
    if op == AND:
        r = mask
        for c in e.args:
            r &= (env[args[c.args[0]]] if c.op == VAR
                  else _evaluate(c, args, env, mask))
        return r
    if op == VAR:
        return env[args[e.args[0]]]
    if op == NOT_:
        return _evaluate(e.args[0], args, env, mask) ^ mask
    return mask if e.args[0] else 0


# The most gates one statement may synthesize to.  An AND computes and
# uncomputes each conjunct that is not a literal, so an expression that
# nests such conjuncts synthesizes to a gate list exponential in its depth,
# and one that shares a subtree synthesizes it once per use; the frontends
# reject a statement above this bound instead of emitting it.
MAX_STATEMENT_GATES = 1_000_000


def synthesis_cost(e: BoolExp) -> tuple[int, int]:
    """(gates, Toffolis) in the recipe of e's form, exactly.  Memoized on
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
    """Number of gates in the recipe of e's form, exactly
    (`synthesis_cost`)."""
    return synthesis_cost(e)[0]


@dataclass(frozen=True)
class Recipe:
    """Synthesis of one form, or of one in-place block body, over
    registers: the `base` registers a run starts from (the target and one
    per position, or a block's entry registers), then one per allocation.

    `heap_ops` is the ancilla traffic in order: -1 allocates the next
    register, r >= 0 frees register r.  Each gate is a register triple
    (a, b, c) padded with -1: a Toffoli is a, b -> c, a CNOT a -> b
    (c = -1), and a NOT acts on a (b = c = -1).

    A recipe is checked once, where it is built: every heap op frees a
    live register, and every gate names one to three distinct registers
    below the register count that are live at once (taken before any of
    them is freed).  A run on distinct entry wires then gives valid gates
    only: live registers hold distinct wires, since the heap hands out no
    live wire, though a freed register's wire may come back for a later
    one.  Nor does a run free a wire that is not live, so the pool does
    not check the frees again (see ancilla).  `compile_form` checks its
    gates where it makes them, which costs less than a pass over them; a
    block recipe is passed through `check_recipe` (see emitter).
    """
    base: int
    heap_ops: tuple[int, ...]
    gates: tuple[tuple[int, int, int], ...]

    def replay(self, w: list[int], heap: AncillaHeap, gates: list,
               intern, forward: bool = True) -> None:
        """`run`, with the check that makes its gates valid: the entry
        wires `w`, the target and then one wire per variable, are
        distinct."""
        if len(set(w)) != len(w):
            if w.count(w[0]) != 1:
                raise ValueError(
                    f"target wire {w[0]} appears inside the expression")
            raise ValueError("expression reads two slots on one wire")
        self.run(w, heap, gates, intern, forward)

    def run(self, w: list[int], heap: AncillaHeap, gates: list,
            intern, forward: bool = True) -> None:
        """Run the heap operations on the registers `w`, which start as
        the entry wires and are extended in place with the scratch wires
        taken from `heap`, and append each gate's wire tuple to `gates`,
        in reverse order if not `forward`.  `intern(g, g)` is the gate
        object kept for g (a dict's `setdefault`), so a recurring gate is
        one tuple, which keeps memory down."""
        for op in self.heap_ops:
            if op < 0:
                w.append(heap.alloc())
            else:
                heap.free(w[op])
        order = self.gates if forward else reversed(self.gates)
        gates += [intern(g, g) for a, b, c in order
                  for g in [(w[a], w[b], w[c]) if c >= 0 else
                            (w[a], w[b]) if b >= 0 else (w[a],)]]


def check_recipe(recipe: Recipe) -> None:
    """A ValueError, naming the first bad heap op or gate, unless every
    heap op of `recipe` frees a live register and every gate is a triple
    of distinct registers, padded with -1, that are live at once."""
    count = recipe.base
    freed: dict[int, int] = {}  # register -> the register count at its free
    for i, op in enumerate(recipe.heap_ops):
        if op == -1:
            count += 1
        elif type(op) is int and 0 <= op < count and op not in freed:
            freed[op] = count
        else:
            raise ValueError(f"recipe heap op {i} frees {op!r}, not a live "
                             f"register")
    # registers are numbered in the order they are taken, so register y
    # is taken before register x is freed iff y <= limit[x]: a gate's
    # registers are live at once iff its highest is within each one's
    # limit.  The last entry, index -1, stands for the padding
    limit = [count - 1] * (count + 1)
    for r, n in freed.items():
        limit[r] = n - 1
    for g in recipe.gates:
        a, b, c = g if type(g) is tuple and len(g) == 3 else (None,) * 3
        if not (type(a) is type(b) is type(c) is int and 0 <= a < count
                and -1 <= b < count and -1 <= c < count and (b >= 0 or c < 0)):
            raise ValueError(f"recipe gate {g!r} is not a triple of "
                             f"registers below {count} padded with -1")
        if a == b or a == c or b == c >= 0:
            raise ValueError(f"recipe gate {g} repeats a register")
        if max(g) > min(limit[a], limit[b], limit[c]):
            raise ValueError(f"recipe gate {g} names registers that are "
                             f"not live at once")


class Registers:
    """The heap of a recipe being compiled: hands out the registers after
    `base` and records the traffic as heap ops (-1 allocates, r >= 0 frees
    r), the `heap_ops` of a `Recipe`."""

    def __init__(self, base: int):
        self.base = self.next = base
        self.ops: list[int] = []

    def alloc(self) -> int:
        self.ops.append(-1)
        self.next += 1
        return self.next - 1

    def free(self, r: int) -> None:
        self.ops.append(r)


def compile_form(form: BoolExp, n_vars: int) -> Recipe:
    """The recipe of a form from `canonical` over n_vars positions:
    register 0 is the target and register p + 1 reads position p.

    Synthesis of AND: each conjunct becomes a control wire.  A variable is
    one as it is; a negated variable is toggled around the block; anything
    else is computed onto a scratch wire first and uncomputed after.  More
    than two controls go through a left-to-right chain of k-2 scratch
    wires and 2(k-2)+1 Toffolis.

    The recipe passes `check_recipe` by construction, so it is not
    passed through it.  The target is never a control, every scratch register
    is new and freed after the last gate that names it, and only the
    first gate of an AND names two controls, which are checked to differ.
    A variable past the last position is an IndexError.
    """
    heap = Registers(n_vars + 1)
    reg = list(range(1, n_vars + 1))  # the register of each position

    def emit(x: BoolExp, t: int, gates: list) -> None:
        op = x.op
        if op == VAR:
            gates.append((reg[x.args[0]], t, -1))
        elif op == CONST:
            if x.args[0]:
                gates.append((t, -1, -1))
        elif op == NOT_:
            emit(x.args[0], t, gates)
            gates.append((t, -1, -1))
        elif op == XOR:
            for c in x.args:
                emit(c, t, gates)
        else:
            emit_and(x.args, t, gates)

    def emit_and(children: tuple, t: int, gates: list) -> None:
        controls: list[int] = []
        toggles: list[tuple] = []
        temps: list[tuple[int, BoolExp]] = []
        for c in children:
            if c.op == VAR:
                controls.append(reg[c.args[0]])
            elif c.op == NOT_ and c.args[0].op == VAR:
                r = reg[c.args[0].args[0]]
                controls.append(r)
                toggles.append((r, -1, -1))
            else:
                r = heap.alloc()
                emit(c, r, gates)
                temps.append((r, c))
                controls.append(r)
        k = len(controls)
        if k > 1 and controls[0] == controls[1]:
            raise ValueError(f"AND reads variable {controls[0] - 1} twice")
        gates += toggles
        if k == 1:
            gates.append((controls[0], t, -1))
        elif k == 2:
            gates.append((controls[0], controls[1], t))
        else:
            chain: list[int] = []
            compute: list = []
            for i in range(k - 2):
                a = heap.alloc()
                first = controls[0] if i == 0 else chain[-1]
                compute.append((first, controls[i + 1], a))
                chain.append(a)
            gates += compute
            gates.append((chain[-1], controls[-1], t))
            gates += reversed(compute)
            for a in reversed(chain):
                heap.free(a)
        gates += reversed(toggles)
        for r, c in reversed(temps):
            # uncompute by synthesizing again, scratch and all, and
            # running the gates backwards
            sub: list = []
            emit(c, r, sub)
            gates += reversed(sub)
            heap.free(r)

    gates: list = []
    emit(form, 0, gates)
    # the two closures refer to each other: break the cycle, so that they
    # are freed now rather than left to the cyclic collector
    emit = emit_and = None
    return Recipe(heap.base, tuple(heap.ops), tuple(gates))
