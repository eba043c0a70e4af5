"""Execute a cleanup plan into a concrete reversible circuit.

The emitter owns the slot-to-wire mapping and the ancilla pool.  Program
inputs are pinned to wires 0..n-1; every other value lives on a wire taken
from the pool when its slot first materializes and returned when the slot
is reversed away or cleaned.  Only zero-valued wires are ever returned, so
a freshly allocated wire always reads 0.  Every slot a statement reads,
accumulates onto or cleans has a wire, and the slot of a fresh write has
none: flatten reads a slot with no wire, never-written or cleaned, as the
constant 0 (see frontend).  A hand-built FlatProgram that breaks this
gets a one-line RuntimeError naming the slot; no read takes a wire.

Correctness is tracked per slot, not per wire: every statement, forwards
or backwards, is synthesized against the *current* mapping, so a mirror
may run on different wires than the forward pass without changing the
computed values.  What is cached is wire-free.  Each expression is
compiled once into a `Recipe` (see boolexpr), shared by every expression
of the same shape; a call resolves the recipe's registers against the slot
map of that moment and takes each gate from a per-kind intern table keyed
by wires, so a gate that recurs is one object.

In-place blocks are run from block recipes, one per token (a block is a
token and its slots, see `InPlaceBlock` in frontend), direction and entry
pattern (which of the block's slots are mapped to wires as it starts).
The first run of a key walks the token's shared body, over body
positions, with `_Walker`: the statement rules below over registers
instead of wires, where the positions mapped at entry hold registers
0..n-1 in position order and every wire taken is the next register.  Its
block recipe is a `Recipe` over those registers (the heap operations and
the gates) and each position's register at the end.  Every later run of
the key replays it with `Recipe.run`.  Replay is gate for gate what
walking the body on wires would emit: blocks of one token are the same
statements with their slots renamed position by position, so from one
entry pattern they take and return wires in the same order, and the
heap, which hands out its least free wire, answers the same sequence
from the same state with the same wires.  The walk raises the errors of
the statement rules (a slot with no wire, a fresh write to a live slot,
a target inside its expression) on registers; replay checks that the
entry wires are distinct, so distinct registers are distinct wires.

The scheduler places checkpoints without running the emitter: under the
rules below each statement changes the live count by a constant (see
`scheduler.stmt_delta` and `scheduler.live_profile`).  That count is
exact because synthesis returns every scratch ancilla it takes; the
width is not, since it also counts those scratch wires.
"""

from __future__ import annotations

from .ancilla import AncillaHeap
from .boolexpr import Recipe, compile_shape, gate_tables, shape
from .circuit import (
    CNOT, NOT, TOFFOLI, Circuit, Gate, cnot, stats as circuit_stats,
)
from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from .mdd import build_mdd
from .scheduler import (
    Action, CleanupPlan, live_profile, origin, reopened_locals,
)


class _Registers:
    """The heap of a block walk: hands out registers after the entry ones
    and records the traffic as heap ops (-1 allocates, r >= 0 frees r)."""

    def __init__(self, base: int):
        self.next = base
        self.ops: list[int] = []

    def alloc(self) -> int:
        self.ops.append(-1)
        self.next += 1
        return self.next - 1

    def free(self, r: int) -> None:
        self.ops.append(r)


class _RegisterGates:
    """A gate table of a block walk: a gate over registers stays a tuple
    (kind, a, b, c), as in `Recipe.gates`."""

    def __init__(self, kind: str):
        self.kind = kind

    def __getitem__(self, regs: tuple) -> tuple:
        return (self.kind, *regs, -1, -1)[:4]


_REGISTER_GATES = {kind: _RegisterGates(kind) for kind in (TOFFOLI, CNOT, NOT)}


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
        # block recipes by (token, forward, entry pattern): (recipe, per
        # body position its register at the end or -1), see `_run_block`
        self.blocks: dict[tuple, tuple] = {}
        self.block_recipes = 0  # block runs that walked the body
        self.block_replays = 0  # block runs served from a recipe

    @property
    def width(self) -> int:
        return self.heap.frontier

    @property
    def live(self) -> int:
        """Inputs plus currently live ancillas (the reusable-width measure)."""
        return self.heap.base + self.heap.live_count

    # -- wiring helpers -----------------------------------------------------

    def _wire_of(self, slot: int) -> int:
        """Current wire of a slot, which must have one."""
        try:
            return self.slot_map[slot]
        except KeyError:
            raise RuntimeError(f"slot {slot} has no wire") from None

    def _learn(self, expr) -> tuple:
        """Cache entry of a first-seen expression: (expr, its recipe, *its
        slots in register order)."""
        key, slots = shape(expr)
        recipe = self.recipes.get(key)
        if recipe is None:
            recipe = self.recipes[key] = compile_shape(key, len(slots))
        entry = self.compiled[id(expr)] = (expr, recipe, *slots)
        return entry

    def _target(self, slot: int, fresh: bool) -> int:
        if not fresh:
            return self._wire_of(slot)
        if slot in self.slot_map:
            raise RuntimeError(f"fresh write to live slot {slot}")
        w = self.slot_map[slot] = self.heap.alloc()
        return w

    def _synth(self, expr, target_slot: int, fresh: bool) -> list[Gate]:
        """Gates of target ^= expr on the current wires."""
        entry = self.compiled.get(id(expr)) or self._learn(expr)
        wires = [self._target(target_slot, fresh)]
        wires += map(self._wire_of, entry[2:])
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
            self._run_block(stmt, True)
        elif isinstance(stmt, CleanSlot):
            self.heap.free(self._wire_of(stmt.slot))
            del self.slot_map[stmt.slot]
        else:
            raise TypeError(stmt)

    def _bwd_stmt(self, stmt) -> None:
        if isinstance(stmt, Compute):
            gates = self._synth(stmt.expr, stmt.slot, fresh=False)
            self.gates += reversed(gates)
            if stmt.fresh:
                self.heap.free(self.slot_map.pop(stmt.slot))
        elif isinstance(stmt, InPlaceBlock):
            self._run_block(stmt, False)
        elif isinstance(stmt, CleanSlot):
            self._target(stmt.slot, fresh=True)
        else:
            raise TypeError(stmt)

    def _run_block(self, block: InPlaceBlock, forward: bool) -> None:
        """Run an in-place block from the recipe of its token, direction
        and entry pattern, walking the body the first time."""
        token, slots = block.token, block.slots
        slot_map = self.slot_map
        entry = tuple([s in slot_map for s in slots])
        key = (token, forward, entry)
        run = self.blocks.get(key)
        if run is None:
            run = self.blocks[key] = self._walk(token, forward, entry)
            self.block_recipes += 1
        else:
            self.block_replays += 1
        recipe, exit = run
        wires = [slot_map[s] for s, m in zip(slots, entry) if m]
        if len(set(wires)) != len(wires):
            raise ValueError("in-place block entered with two slots "
                             "on one wire")
        self.gates += recipe.run(wires, self.heap, self.gate_tables)
        for s, r in zip(slots, exit):
            if r >= 0:
                slot_map[s] = wires[r]
            elif s in slot_map:
                del slot_map[s]

    def _walk(self, token, forward: bool, entry: tuple) -> tuple:
        """The block recipe of `token`'s body, over body positions, for
        one entry pattern."""
        body, locals_ = token.stmts, token.local_positions
        w = _Walker(self, [p for p, m in enumerate(entry) if m])
        if forward:
            for s in body:
                w._fwd_stmt(s)
            # locals not explicitly cleaned are zero again at block end
            for l in locals_:
                if l in w.slot_map:
                    w.heap.free(w.slot_map.pop(l))
        else:
            for l in reopened_locals(body, locals_):
                w.slot_map[l] = w.heap.alloc()
            for s in reversed(body):
                w._bwd_stmt(s)
        exit = tuple([w.slot_map.get(p, -1) for p in range(len(entry))])
        return Recipe(tuple(w.heap.ops), tuple(w.gates)), exit

    def _do_copy(self, action: Action) -> None:
        src = [self._wire_of(s) for s in action.slots]
        dst = [self.heap.alloc() for _ in action.slots]
        self.gates += [cnot(a, b) for a, b in zip(src, dst)]
        self.copy_wires[action] = dst
        if action.tag == "output":
            self.output_wires = dst

    def _do_uncopy(self, action: Action) -> None:
        # the copy's wires are those its slots held at unremap (see there),
        # but the source values may have migrated to other wires by now:
        # resolve them through the current slot map
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
        # the copy now lives on its slots' wires: a `clean` between remap
        # and here freed a copy wire, and its reversal took another
        origin(action, self.copy_wires)[:] = [self.slot_map[s]
                                              for s in action.slots]
        prev_map = origin(action, self.saved_maps)
        for s in action.slots:
            prev = prev_map[s]
            if prev is None:
                del self.slot_map[s]
            else:
                self.slot_map[s] = prev

    def run(self, plan: CleanupPlan) -> Circuit:
        """Apply every action of the plan; the finished circuit."""
        for a in plan.actions:
            self.apply(a)
        return self.finish()

    def finish(self) -> Circuit:
        program = self.program
        if self.output_wires is not None:
            outputs = list(self.output_wires)
        else:
            outputs = [self._wire_of(s) for s in program.output_slots]
        return Circuit(width=self.width, gates=list(self.gates),
                       inputs=list(range(len(program.input_slots))),
                       outputs=outputs)


class _Walker(Emitter):
    """The emitter's statement rules over block registers instead of
    wires: the positions mapped at entry hold registers 0..n-1, every
    other register is taken from `_Registers`, and gates stay register
    tuples.  It inherits the rules and shares the emitter's expression
    caches, but none of its plan state; a block body holds no blocks."""

    def __init__(self, em: Emitter, mapped: list[int]):
        self.slot_map = {p: r for r, p in enumerate(mapped)}
        self.heap = _Registers(len(mapped))
        self.gate_tables = _REGISTER_GATES
        self.gates = []
        self.compiled, self.recipes = em.compiled, em.recipes


def emit(plan: CleanupPlan) -> Circuit:
    return Emitter(plan.program).run(plan)


def compile_flat(program: FlatProgram, strategy: str = "bennett",
                 qubit_budget: int | None = None):
    """Schedule and emit in one step; returns (plan, circuit)."""
    from .scheduler import schedule

    plan = schedule(program, strategy, qubit_budget)
    return plan, emit(plan)


def circuit_report(plan: CleanupPlan, circ: Circuit) -> dict:
    """Counts of the circuit and the plan.  `mdd_*` describe the program's
    dependency graph under every strategy: a plan that was made without
    one (all but eager's) has its graph built here, for the report only."""
    g = plan.mdd if plan.mdd is not None else build_mdd(plan.program)
    rep = circuit_stats(circ)
    rep.update({
        "strategy": plan.strategy,
        "input_count": len(circ.inputs),
        "output_count": len(circ.outputs),
        "gate_count": len(circ.gates),
        "unclean_count": len(plan.unclean_nodes),
        "checkpoints": plan.checkpoints,
        "reversals_inserted": plan.reversals_inserted,
        "mdd_nodes": len(g.nodes),
        "mdd_read_edges": sum(map(len, g.reads.values())),
        "peak_live": max(live_profile(plan), default=len(circ.inputs)),
    })
    return rep
