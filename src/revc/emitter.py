"""Execute a cleanup plan into a concrete reversible circuit.

The emitter owns the slot-to-wire mapping and the ancilla pool.  Program
inputs are pinned to wires 0..n-1; every other value lives on a wire taken
from the pool when its slot first materializes and returned when the slot
is reversed away or cleaned.  Only zero-valued wires are ever returned, so
a freshly allocated wire always reads 0.

Correctness is tracked per slot, not per wire: a backwards statement is
re-synthesized against the *current* mapping (gates are never cached), so
a mirror may run on different wires than the forward pass without changing
the computed values.

The emitter is also usable as an oracle while planning: `snapshot` /
`restore` roll the whole emission state back, which is how the incremental
scheduler measures whether the next statement fits in the qubit budget.
The scheduler plans with `WidthOracle`, which binds wires exactly as the
emitter does but synthesizes no gates.  Its live count is exact: synthesis
returns every scratch ancilla it takes, so the live wires after an action
are the same with or without gates.  Its `width` is not: the scratch wires
synthesis would have needed are never allocated.
"""

from __future__ import annotations

from .ancilla import AncillaHeap
from .boolexpr import synthesize, variables
from .circuit import Circuit, Gate, cnot, stats as circuit_stats
from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from .scheduler import Action, CleanupPlan


def _origin(action: Action, table: dict):
    """Walk the ref chain back to the action that has an entry in `table`
    and return that entry."""
    a = action
    while a not in table and a.ref is not None:
        a = a.ref
    if a not in table:
        raise RuntimeError(f"action {action.kind} has no recorded origin")
    return table[a]


class Emitter:
    def __init__(self, program: FlatProgram):
        self.program = program
        n = len(program.input_slots)
        self.heap = AncillaHeap(base=n)
        self.slot_map: dict[int, int] = {s: i for i, s in enumerate(program.input_slots)}
        self.gates: list[Gate] = []
        self.output_wires: list[int] | None = None
        # per-run records keyed by the action that made them, so that plans
        # stay read-only: copy -> its fanout wires, remap -> the slot map it
        # replaced.  `restore` leaves them alone: a record is read only by
        # actions that come after the one that made it, and running that
        # action again overwrites it
        self.copy_wires: dict[Action, list[int]] = {}
        self.saved_maps: dict[Action, dict] = {}

    @property
    def width(self) -> int:
        return self.heap.frontier

    @property
    def live(self) -> int:
        """Inputs plus currently live ancillas (the reusable-width measure)."""
        return self.heap.base + self.heap.live_count

    def snapshot(self):
        return (self.heap.state(), dict(self.slot_map), len(self.gates),
                self.output_wires)

    def restore(self, snap) -> None:
        heap_state, slot_map, ngates, out = snap
        self.heap.restore(heap_state)
        self.slot_map = dict(slot_map)
        del self.gates[ngates:]
        self.output_wires = out

    # -- wiring helpers -----------------------------------------------------

    def _wire_of(self, slot: int) -> int:
        """Current wire of a slot; an unwritten slot materializes as zero."""
        w = self.slot_map.get(slot)
        if w is None:
            w = self.heap.alloc()
            self.slot_map[slot] = w
        return w

    def _bind_wires(self, expr, target_slot: int, fresh: bool):
        """Wires of the expression's slots and of the target.  Unwritten
        slots materialize in `variables(expr)` order, then the target."""
        wires = {v: self._wire_of(v) for v in variables(expr)}
        if fresh:
            if target_slot in self.slot_map:
                raise RuntimeError(f"fresh write to live slot {target_slot}")
            w = self.heap.alloc()
            self.slot_map[target_slot] = w
        else:
            w = self._wire_of(target_slot)
        return wires, w

    def _synthesize(self, expr, target: int, wires: dict) -> list[Gate]:
        return synthesize(expr, target, self.heap, wires)

    def _synth(self, expr, target_slot: int, fresh: bool) -> list[Gate]:
        wires, w = self._bind_wires(expr, target_slot, fresh)
        return self._synthesize(expr, w, wires)

    # -- actions ------------------------------------------------------------

    def apply(self, action: Action) -> None:
        getattr(self, f"_do_{action.kind}")(action)

    def _do_fwd(self, action: Action) -> None:
        self._fwd_stmt(action.stmt)

    def _do_bwd(self, action: Action) -> None:
        self._bwd_stmt(action.stmt)

    def _fwd_stmt(self, stmt) -> None:
        if isinstance(stmt, Compute):
            self.gates += self._synth(stmt.expr, stmt.slot, stmt.fresh)
        elif isinstance(stmt, InPlaceBlock):
            for s in stmt.body:
                self._fwd_stmt(s)
            # locals not explicitly cleaned are zero again at block end
            for l in stmt.local_slots:
                if l in self.slot_map:
                    self.heap.free(self.slot_map.pop(l))
        elif isinstance(stmt, CleanSlot):
            if stmt.slot in self.slot_map:
                self.heap.free(self.slot_map.pop(stmt.slot))
        else:
            raise TypeError(stmt)

    def _bwd_stmt(self, stmt) -> None:
        if isinstance(stmt, Compute):
            gates = self._synth(stmt.expr, stmt.slot, fresh=False)
            self.gates += reversed(gates)
            if stmt.fresh:
                self.heap.free(self.slot_map.pop(stmt.slot))
        elif isinstance(stmt, InPlaceBlock):
            # re-materialize the locals the forward pass released at the end
            live: set[int] = set()
            for s in stmt.body:
                if isinstance(s, Compute) and s.fresh:
                    live.add(s.slot)
                elif isinstance(s, CleanSlot):
                    live.discard(s.slot)
            for l in stmt.local_slots:
                if l in live:
                    self.slot_map[l] = self.heap.alloc()
            for s in reversed(stmt.body):
                self._bwd_stmt(s)
        elif isinstance(stmt, CleanSlot):
            self.slot_map[stmt.slot] = self.heap.alloc()
        else:
            raise TypeError(stmt)

    def _do_copy(self, action: Action) -> None:
        src = [self._wire_of(s) for s in action.slots]
        dst = [self.heap.alloc() for _ in action.slots]
        self.gates += [cnot(a, b) for a, b in zip(src, dst)]
        self.copy_wires[action] = dst
        if action.tag == "output":
            self.output_wires = dst

    def _do_uncopy(self, action: Action) -> None:
        # the copied-to wires are pinned for the copy's whole lifetime, but
        # the source values may have migrated to other wires by now: resolve
        # them through the current slot map
        dst = _origin(action, self.copy_wires)
        src = [self._wire_of(s) for s in action.slots]
        self.gates += [cnot(a, b) for a, b in zip(reversed(src), reversed(dst))]
        for d in dst:
            self.heap.free(d)

    def _do_remap(self, action: Action) -> None:
        dst = _origin(action, self.copy_wires)
        self.saved_maps[action] = {s: self.slot_map.get(s) for s in action.slots}
        for s, d in zip(action.slots, dst):
            self.slot_map[s] = d

    def _do_unremap(self, action: Action) -> None:
        prev_map = _origin(action, self.saved_maps)
        for s in action.slots:
            prev = prev_map[s]
            if prev is None:
                del self.slot_map[s]
            else:
                self.slot_map[s] = prev

    def finish(self) -> Circuit:
        program = self.program
        if self.output_wires is not None:
            outputs = list(self.output_wires)
        else:
            outputs = [self._wire_of(s) for s in program.output_slots]
        return Circuit(width=self.width, gates=list(self.gates),
                       inputs=list(range(len(program.input_slots))),
                       outputs=outputs)


class WidthOracle(Emitter):
    """An emitter that tracks wires but synthesizes no gates.

    Everything but synthesis is inherited: the slot map, the ancilla heap,
    copy/remap records and snapshot/restore.  `live` is exactly what the
    full emitter would report after the same actions, because `synthesize`
    returns every scratch ancilla it takes before it ends.  Later
    allocations get the same wires as well: the heap hands out the least
    free index, and the wires synthesis was first to use end up free.
    """

    def _synthesize(self, expr, target: int, wires: dict) -> list[Gate]:
        return []


def emit(plan: CleanupPlan) -> Circuit:
    em = Emitter(plan.program)
    for a in plan.actions:
        em.apply(a)
    return em.finish()


def compile_flat(program: FlatProgram, strategy: str = "bennett",
                 qubit_budget: int | None = None):
    """Schedule and emit in one step; returns (plan, circuit)."""
    from .scheduler import schedule

    plan = schedule(program, strategy, qubit_budget)
    return plan, emit(plan)


def circuit_report(plan: CleanupPlan, circ: Circuit) -> dict:
    rep = circuit_stats(circ)
    rep.update({
        "strategy": plan.strategy,
        "input_count": len(circ.inputs),
        "output_count": len(circ.outputs),
        "gate_count": len(circ.gates),
        "unclean_count": len(plan.unclean_nodes),
        "checkpoints": plan.checkpoints,
    })
    return rep
