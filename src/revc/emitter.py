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
from .boolexpr import Recipe, compile_shape, gate_tables, shape, variables
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
    Its cache holds each expression's `variables` set and no recipe.
    """

    def _learn(self, expr) -> tuple:
        entry = self.compiled[id(expr)] = (expr, None, variables(expr))
        return entry

    def _synth(self, expr, target_slot: int, fresh: bool) -> list[Gate]:
        slots = (self.compiled.get(id(expr)) or self._learn(expr))[2]
        if not self.slot_map.keys() >= slots:
            self._materialize(slots)
        self._target(target_slot, fresh)
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
        "reversals_inserted": plan.reversals_inserted,
        "mdd_nodes": len(plan.mdd.nodes),
        "mdd_read_edges": sum(map(len, plan.mdd.reads.values())),
    })
    return rep
