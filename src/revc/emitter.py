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
computed values.  What is cached is wire-free.  A `Compute` is a form
and its args (see frontend), and the statements renamed from one template
share their forms.  Each form object is looked up once per emission by
the form itself, which compares by structure, and by identity after
that; its `Recipe` (see boolexpr) is compiled once per distinct form and
shared by every equal form, BLIF covers included.  A statement
resolves the recipe's registers, its target and then its args, against
the slot map of that moment.  A gate is its wire tuple (see circuit):
every gate, copies too, goes through the emission's one intern table, so
a gate that recurs is one tuple, which keeps peak memory down.

Gates are valid by construction, so `finish` builds the circuit without
checking each gate again.  Every recipe, of an expression or of a block,
is checked once when it is built: each gate names distinct registers,
below the register count, that are live at once.  Each run checks its
entry wires (a statement's target and args, a block's mapped slots) for
distinct wires before its heap operations; it cannot check after them,
since a scratch wire a recipe frees may come back for a later register.
Every other wire is one the heap hands out, never a live one, so the
registers live at once hold distinct wires, each below the width.  A
forward copy's gates pair a slot's wire with a fresh one, and a
backward copy checks each pair.  `Circuit(...)`, `parse_circuit` and
`reverse` still check every gate.

In-place blocks are run from block recipes, one per token (a block is a
token and its slots, see `InPlaceBlock` in frontend), direction and entry
pattern (which of the block's slots are mapped to wires as it starts).
The first run of a key walks the token's shared body, over body
positions, with `_Walker`: the statement rules below over registers
instead of wires, where the positions mapped at entry hold registers
0..n-1 in position order and every wire taken is the next register,
recorded by the `Registers` that records an expression recipe's heap
traffic too; a forward walk releases the token's `open_locals` at its
end, and a backward one takes their wires first (see `BlockBody` in
frontend).  Its block recipe is a `Recipe` over those registers (the
heap operations and the gates, padded to triples) and each position's
register at the end.
Every later run of the key replays it with `Recipe.run`.  Replay is what
walking the body on wires would emit, gate for gate: blocks of one token
are the same statements with their slots renamed position by position,
so from one entry pattern they take and return wires in the same order,
and the heap, which hands out its least free wire, answers the same
sequence from the same state with the same wires.  The walk raises the
errors of the statement rules (a slot with no wire, a fresh write to a
live slot, a target inside its expression) on registers; replay checks
that the entry wires are distinct, so registers live at once are
distinct wires.

A plan is forward and backward runs of statements (see scheduler), and
each runs by the rule of its class: a `Compute`, an `InPlaceBlock`, a
`CleanSlot` or a plan's `Copy`.  A copy's new slots are fresh writes,
so a checkpoint needs no rule of its own: the scheduler has renamed the
statements after it onto the copies.  The outputs are read off the
plan's `output_slots`.

The scheduler places checkpoints without running the emitter: under the
rules below each statement changes the live count by a constant, a block
by its token's `delta` (see `scheduler.stmt_delta`).  That count is
exact because synthesis returns every scratch ancilla it takes; the
width is not, since it also counts those scratch wires.
"""

from __future__ import annotations

from .ancilla import AncillaHeap
from .boolexpr import BoolExp, Recipe, Registers, check_recipe, compile_form
from .circuit import Circuit, built_circuit
from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from .scheduler import Action, CleanupPlan, Copy, schedule


class Emitter:
    def __init__(self, program: FlatProgram):
        self.program = program
        n = len(program.input_slots)
        self.heap = AncillaHeap(base=n)
        self.slot_map: dict[int, int] = {s: i for i, s in enumerate(program.input_slots)}
        self.gates: list[tuple[int, ...]] = []
        # synthesis caches: id(form) -> (form, its recipe), see `_learn`;
        # form -> recipe.  An entry keeps its form alive, so the id is not
        # reused
        self.compiled: dict[int, tuple] = {}
        self.recipes: dict[BoolExp, Recipe] = {}
        # the gate intern table's `setdefault`: a wire tuple is its own
        # value.  Intern keys are laid out to leave few small objects to
        # free when the emitter goes: freed in bulk, they would scatter the
        # packed columns a later verification allocates
        self.intern = {}.setdefault
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

    def _learn(self, stmt: Compute) -> Recipe:
        """The recipe of a first-seen form object, looked up by the form
        and cached by its identity."""
        form = stmt.form
        recipe = self.recipes.get(form)
        if recipe is None:
            recipe = self.recipes[form] = compile_form(form, len(stmt.args))
        self.compiled[id(form)] = (form, recipe)
        return recipe

    def _fresh_wire(self, slot: int) -> int:
        if slot in self.slot_map:
            raise RuntimeError(f"fresh write to live slot {slot}")
        w = self.slot_map[slot] = self.heap.alloc()
        return w

    # -- statement rules: (self, statement, forward) ------------------------

    def _compute(self, stmt: Compute, forward: bool) -> None:
        """slot ^= expr on the current wires: the recipe of the form, its
        registers 1..k being the wires of the args.  Forwards, a fresh
        write first takes the slot a wire; backwards, the gates run in
        reverse and a fresh write then frees it."""
        entry = self.compiled.get(id(stmt.form))
        recipe = entry[1] if entry is not None else self._learn(stmt)
        slot_map = self.slot_map
        fresh = stmt.fresh
        w = [self._fresh_wire(stmt.slot) if fresh and forward
             else self._wire_of(stmt.slot)]
        try:
            w += map(slot_map.__getitem__, stmt.args)
        except KeyError as exc:
            raise RuntimeError(f"slot {exc.args[0]} has no wire") from None
        recipe.replay(w, self.heap, self.gates, self.intern, forward)
        if fresh and not forward:
            self.heap.free(slot_map.pop(stmt.slot))

    def _clean(self, stmt: CleanSlot, forward: bool) -> None:
        if forward:
            self.heap.free(self._wire_of(stmt.slot))
            del self.slot_map[stmt.slot]
        else:
            self._fresh_wire(stmt.slot)

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
        recipe.run(wires, self.heap, self.gates, self.intern)
        for s, r in zip(slots, exit):
            if r >= 0:
                slot_map[s] = wires[r]
            elif s in slot_map:
                del slot_map[s]

    def _walk(self, token, forward: bool, entry: tuple) -> tuple:
        """The block recipe of `token`'s body, over body positions, for
        one entry pattern."""
        w = _Walker(self, [p for p, m in enumerate(entry) if m])
        if forward:
            w.apply_all([Action("fwd", stmt=s) for s in token.stmts])
            # the locals left open are zero again at block end
            for l in token.open_locals:
                w.heap.free(w.slot_map.pop(l))
        else:
            for l in token.open_locals:
                w.slot_map[l] = w.heap.alloc()
            w.apply_all([Action("bwd", stmt=s) for s in reversed(token.stmts)])
        exit = tuple([w.slot_map.get(p, -1) for p in range(len(entry))])
        gates = tuple([(*g, -1, -1)[:3] for g in w.gates])
        recipe = Recipe(w.heap.base, tuple(w.heap.ops), gates)
        check_recipe(recipe)
        return recipe, exit

    def _copy(self, copy: Copy, forward: bool) -> None:
        """dst ^= src, slot by slot: forwards each dst is a fresh write;
        backwards the gates run in reverse and free the dst wires."""
        src = [self._wire_of(s) for s in copy.src]
        intern = self.intern
        if forward:
            dst = [self._fresh_wire(d) for d in copy.dst]
            self.gates += [intern(g, g) for g in zip(src, dst)]
            return
        # a dst wire is not fresh here, so each pair is checked
        dst = [self._wire_of(d) for d in copy.dst]
        if any(map(int.__eq__, src, dst)):
            raise RuntimeError("copy of a slot onto its own wire")
        self.gates += [intern(g, g) for g in zip(reversed(src), reversed(dst))]
        for d in copy.dst:
            self.heap.free(self.slot_map.pop(d))

    # (direction, class of the statement) -> (the name of its rule,
    # forward).  Rules are looked up by name, so that a subclass may
    # override one
    RULES = {(kind, cls): (name, kind == "fwd")
             for cls, name in ((Compute, "_compute"),
                               (InPlaceBlock, "_run_block"),
                               (CleanSlot, "_clean"), (Copy, "_copy"))
             for kind in ("fwd", "bwd")}

    # -- running a plan -----------------------------------------------------

    def apply(self, action: Action) -> None:
        self.apply_all((action,))

    def apply_all(self, actions) -> None:
        """Run the rule of each action in order, through `RULES` bound to
        this emitter once per call."""
        rules = {key: (getattr(self, name), forward)
                 for key, (name, forward) in self.RULES.items()}
        for a in actions:
            rule, forward = rules[a.kind, a.stmt.__class__]
            rule(a.stmt, forward)

    def run(self, plan: CleanupPlan) -> Circuit:
        """Apply every action of the plan; the finished circuit."""
        self.apply_all(plan.actions)
        return self.finish(plan.output_slots)

    def finish(self, output_slots) -> Circuit:
        """The circuit of the gates so far, its outputs on the wires of
        `output_slots`.  The gates are valid by construction (see the
        module docstring), so it is built without checking each gate
        again."""
        return built_circuit(self.width, list(self.gates),
                             list(range(len(self.program.input_slots))),
                             [self._wire_of(s) for s in output_slots])


class _Walker(Emitter):
    """The emitter's statement rules over block registers instead of
    wires: the positions mapped at entry hold registers 0..n-1, every
    other register is taken from `Registers`, and its gates are register
    tuples in a table of its own.  It inherits the rules and shares the
    emitter's expression caches, but none of its plan state; a block body
    holds no blocks."""

    def __init__(self, em: Emitter, mapped: list[int]):
        self.slot_map = {p: r for r, p in enumerate(mapped)}
        self.heap = Registers(len(mapped))
        self.intern = {}.setdefault
        self.gates = []
        self.compiled, self.recipes = em.compiled, em.recipes


def emit(plan: CleanupPlan) -> Circuit:
    return Emitter(plan.program).run(plan)


def compile_flat(program: FlatProgram, strategy: str = "bennett",
                 qubit_budget: int | None = None):
    """Schedule and emit in one step; returns (plan, circuit)."""
    plan = schedule(program, strategy, qubit_budget)
    return plan, emit(plan)

