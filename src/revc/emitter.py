"""Execute a cleanup plan into a concrete reversible circuit.

The emitter owns the slot-to-wire mapping and the ancilla pool.  Program
inputs are pinned to wires 0..n-1; every other value lives on a wire taken
from the pool when its slot first materializes and returned when the slot
is reversed away or cleaned.  Only zero-valued wires are ever returned, so
a freshly allocated wire always reads 0.

Correctness is tracked per slot, not per wire: every statement, forwards
or backwards, is synthesized against the *current* mapping, so a mirror
may run on different wires than the forward pass without changing the
computed values.  What is cached is wire-free.  Each expression is
compiled once into a `Recipe` (see boolexpr), shared by every expression
of the same shape; a call resolves the recipe's registers against the slot
map of that moment and takes each gate from a per-kind intern table keyed
by wires, so a gate that recurs is one object.

The scheduler places checkpoints without running the emitter: it counts
live wires from per-statement effects that follow the rules below (see
`scheduler.stmt_effect` and `scheduler.live_profile`).  That count is
exact because synthesis returns every scratch ancilla it takes; the
width is not, since it also counts those scratch wires.
"""

from __future__ import annotations

from .ancilla import AncillaHeap
from .boolexpr import Recipe, compile_shape, gate_tables, shape, variables
from .circuit import Circuit, Gate, cnot, stats as circuit_stats
from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from .scheduler import (
    Action, CleanupPlan, live_profile, origin, reopened_locals,
)


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
        # replaced
        self.copy_wires: dict[Action, list[int]] = {}
        self.saved_maps: dict[Action, dict] = {}
        # synthesis caches: id(expr) -> (expr, its recipe, *its slots in
        # register order), see `_learn`; shape key -> recipe; gate kind ->
        # wires -> Gate.  An entry keeps its expr alive, so the id is not
        # reused.  Entries and intern keys are laid out to leave few small
        # objects to free when the emitter goes: freed in bulk, they would
        # scatter the packed columns a later verification allocates
        self.compiled: dict[int, tuple] = {}
        self.recipes: dict[tuple, Recipe] = {}
        self.gate_tables = gate_tables()

    @property
    def width(self) -> int:
        return self.heap.frontier

    @property
    def live(self) -> int:
        """Inputs plus currently live ancillas (the reusable-width measure)."""
        return self.heap.base + self.heap.live_count

    # -- wiring helpers -----------------------------------------------------

    def _wire_of(self, slot: int) -> int:
        """Current wire of a slot; an unwritten slot materializes as zero."""
        w = self.slot_map.get(slot)
        if w is None:
            w = self.heap.alloc()
            self.slot_map[slot] = w
        return w

    def _learn(self, expr) -> tuple:
        """Cache entry of a first-seen expression: (expr, its recipe, *its
        slots in register order)."""
        key, slots = shape(expr)
        recipe = self.recipes.get(key)
        if recipe is None:
            recipe = self.recipes[key] = compile_shape(key, len(slots))
        entry = self.compiled[id(expr)] = (expr, recipe, *slots)
        return entry

    def _materialize(self, slots) -> None:
        for s in slots:
            self._wire_of(s)

    def _target(self, slot: int, fresh: bool) -> int:
        if not fresh:
            return self._wire_of(slot)
        if slot in self.slot_map:
            raise RuntimeError(f"fresh write to live slot {slot}")
        w = self.slot_map[slot] = self.heap.alloc()
        return w

    def _synth(self, expr, target_slot: int, fresh: bool) -> list[Gate]:
        """Gates of target ^= expr on the current wires.  Unwritten slots
        of expr materialize first, in `variables(expr)` order, then the
        target."""
        entry = self.compiled.get(id(expr)) or self._learn(expr)
        slot_map = self.slot_map
        try:
            wires = [slot_map[s] for s in entry[2:]]
        except KeyError:
            self._materialize(variables(expr))
            wires = [slot_map[s] for s in entry[2:]]
        wires.insert(0, self._target(target_slot, fresh))
        return entry[1].replay(wires, self.heap, self.gate_tables)

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
            for l in reopened_locals(stmt):
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
        dst = origin(action, self.copy_wires)
        src = [self._wire_of(s) for s in action.slots]
        self.gates += [cnot(a, b) for a, b in zip(reversed(src), reversed(dst))]
        for d in dst:
            self.heap.free(d)

    def _do_remap(self, action: Action) -> None:
        dst = origin(action, self.copy_wires)
        self.saved_maps[action] = {s: self.slot_map.get(s) for s in action.slots}
        for s, d in zip(action.slots, dst):
            self.slot_map[s] = d

    def _do_unremap(self, action: Action) -> None:
        prev_map = origin(action, self.saved_maps)
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
        "reversals_inserted": plan.reversals_inserted,
        "mdd_nodes": len(plan.mdd.nodes),
        "mdd_read_edges": sum(map(len, plan.mdd.reads.values())),
        "peak_live": max(live_profile(plan), default=len(circ.inputs)),
    })
    return rep
