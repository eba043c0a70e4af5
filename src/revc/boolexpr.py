"""Boolean expression IR and its synthesis into Toffoli/CNOT/NOT sequences.

Expressions are trees over AND / XOR / NOT / variables / constants.  An
expression is always synthesized onto a target wire: the emitted gates map
the target value y to y XOR e.  Synthesis respects the written structure
(no factoring), so the Toffoli count is a direct function of the shape of
the expression as the programmer wrote it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ancilla import AncillaHeap
from .circuit import Gate, cnot, notg, toffoli

VAR = "var"
AND = "and"
XOR = "xor"
NOT_ = "not"
CONST = "const"


@dataclass(frozen=True)
class BoolExp:
    op: str
    args: tuple

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
    seen: list[BoolExp] = []
    for c in flat:
        if c in seen:
            continue
        comp = c.args[0] if c.op == NOT_ else BoolExp(NOT_, (c,))
        if comp in seen:
            return bconst(False)
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
    work = list(children)
    while work:
        c = work.pop(0)
        if c.op == XOR:
            work = list(c.args) + work
        elif c.op == CONST:
            parity ^= c.args[0]
        else:
            flat.append(c)
    # Fold constants to a single trailing Const (odd parity) or drop them.
    if parity:
        flat.append(bconst(True))
    if not flat:
        return bconst(False)
    if len(flat) == 1:
        return flat[0]
    return BoolExp(XOR, tuple(flat))


def bor(children) -> BoolExp:
    """a || b desugared as ab ^ a ^ b, folded left to right."""
    children = list(children)
    e = children[0]
    for c in children[1:]:
        e = bxor([band([e, c]), e, c])
    return e


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
    if e.op == VAR:
        return env[e.args[0]] & mask
    if e.op == CONST:
        return mask if e.args[0] else 0
    if e.op == NOT_:
        return evaluate(e.args[0], env, mask) ^ mask
    if e.op == AND:
        r = mask
        for c in e.args:
            r &= evaluate(c, env, mask)
        return r
    r = 0
    for c in e.args:
        r ^= evaluate(c, env, mask)
    return r


def and_cost(e: BoolExp) -> int:
    """Toffoli count synthesize will emit; CNOT and NOT are free."""
    if e.op in (VAR, CONST):
        return 0
    if e.op == NOT_:
        return and_cost(e.args[0])
    if e.op == XOR:
        return sum(and_cost(c) for c in e.args)
    # AND: non-trivial children are computed onto a temp and uncomputed.
    cost = 0
    for c in e.args:
        if c.op == VAR or (c.op == NOT_ and c.args[0].op == VAR):
            continue
        cost += 2 * and_cost(c)
    k = len(e.args)
    if k == 2:
        cost += 1
    elif k >= 3:
        cost += 2 * (k - 2) + 1
    return cost


def synthesize(e: BoolExp, target: int, heap: AncillaHeap,
               wires: dict[int, int]) -> list[Gate]:
    """Gates mapping target y to y ^ eval(e); inputs and ancillas restored.

    `wires` maps each variable of e (a value slot) to the wire holding it;
    wires are looked up as the expression is walked, so e is never
    rewritten.  Every ancilla taken from the heap is uncomputed and
    returned before the sequence ends, so the net heap state is unchanged.
    """
    if target in wires.values():
        raise ValueError(f"target wire {target} appears inside the expression")
    gates: list[Gate] = []
    _emit(e, target, heap, gates, wires)
    return gates


def _emit(e: BoolExp, target: int, heap: AncillaHeap, gates: list[Gate],
          wires: dict[int, int]) -> None:
    if e.op == VAR:
        gates.append(cnot(wires[e.args[0]], target))
    elif e.op == CONST:
        if e.args[0]:
            gates.append(notg(target))
    elif e.op == NOT_:
        _emit(e.args[0], target, heap, gates, wires)
        gates.append(notg(target))
    elif e.op == XOR:
        for c in e.args:
            _emit(c, target, heap, gates, wires)
    else:
        _emit_and(e.args, target, heap, gates, wires)


def _emit_and(children: tuple[BoolExp, ...], target: int, heap: AncillaHeap,
              gates: list[Gate], wires: dict[int, int]) -> None:
    # Resolve each conjunct to a control wire.  A negated variable is used
    # as a negative control by toggling the wire around the block; any
    # other non-variable conjunct is computed onto a scratch wire first.
    controls: list[int] = []
    toggles: list[int] = []
    temps: list[tuple[int, BoolExp]] = []
    for c in children:
        if c.op == VAR:
            controls.append(wires[c.args[0]])
        elif c.op == NOT_ and c.args[0].op == VAR:
            w = wires[c.args[0].args[0]]
            controls.append(w)
            toggles.append(w)
        else:
            t = heap.alloc()
            _emit(c, t, heap, gates, wires)
            temps.append((t, c))
            controls.append(t)

    for w in toggles:
        gates.append(notg(w))

    k = len(controls)
    if k == 1:
        gates.append(cnot(controls[0], target))
    elif k == 2:
        gates.append(toffoli(controls[0], controls[1], target))
    else:
        # Left-to-right chain: k-2 scratch wires, 2(k-2)+1 Toffolis.
        chain: list[int] = []
        compute: list[Gate] = []
        for i in range(k - 2):
            a = heap.alloc()
            first = controls[0] if i == 0 else chain[-1]
            compute.append(toffoli(first, controls[i + 1], a))
            chain.append(a)
        gates.extend(compute)
        gates.append(toffoli(chain[-1], controls[-1], target))
        gates.extend(reversed(compute))
        for a in reversed(chain):
            heap.free(a)

    for w in reversed(toggles):
        gates.append(notg(w))
    for t, c in reversed(temps):
        sub: list[Gate] = []
        _emit(c, t, heap, sub, wires)
        gates.extend(reversed(sub))
        heap.free(t)
