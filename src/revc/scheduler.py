"""Cleanup scheduling: turn an MDD into a linear plan of circuit actions.

Three strategies:

  bennett      compute everything, copy the outputs to fresh wires, run the
               exact mirror image;
  eager        walk the graph backwards and, for every garbage value whose
               inputs are still intact at its last use, insert the reversed
               mutation path (plus a release of the wire) right after that
               use; values that cannot be cleaned this way are marked
               Unclean and swept up by one final copy-out + full reversal;
  incremental  run forward under a total qubit budget; when the next step
               would exceed the budget, copy the values still needed to
               fresh wires (a checkpoint), reverse the current segment to
               release its wires, and continue from the checkpoint; the
               checkpoints themselves are cleaned by the final copy-out +
               full reversal.

A plan is a flat list of Actions executed in order by the emitter:
  fwd/bwd      run a flat statement forwards / in reverse,
  copy/uncopy  CNOT-fanout a slot list onto fresh wires / undo it,
  remap/unremap  switch slots over to their checkpoint copies and back.

Every action has an exact inverse, so reversing a plan segment is just
inverting its actions in reverse order.  Actions are frozen: a plan is
pure data that can be emitted any number of times.

Cost of the eager pass: linear in the statements plus the inserted
reversals.  Each reversal sits in a bucket behind the fwd of the
statement it follows, and the only step that is not constant time is
finding a reversal's place in its bucket.  Buckets are short: on the
bundled corpus they hold under one reversal per statement on average and
at most 39 (the carries of the n=40 ripple adder).

Incremental planning places checkpoints without emitting.  It needs
only the live count (inputs plus live ancillas) after each statement,
and that count depends only on which slots are mapped, because synthesis
returns every scratch wire it takes and the heap's least-free-index
policy does not change the count.  So each statement's forward and
backward run reduces, once per program, to an effect independent of the
state at entry (`stmt_effect`): the slots it leaves mapped, those it
leaves unmapped, and a wire delta.  Trying a statement is then
arithmetic on one set of mapped slots, with nothing to copy or roll
back; `live_profile` replays any plan the same way.  The search for the minimal budget still takes its upper bound from
a full emission, the width of the Bennett circuit: width, unlike the live
count, includes synthesis scratch wires, and greedy feasibility need not
be monotone in the budget, so another bound could probe other budgets and
report another minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .boolexpr import variables
from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from .mdd import INIT, MDD, OP, OUTPUT, build_mdd

# node dispositions
CLEANED_EAGERLY = "CleanedEagerly"
BENNETT_CLEANED = "BennettCleaned"
CHECKPOINTED = "CheckpointedThenCleaned"
UNCLEAN = "Unclean"


@dataclass(frozen=True, eq=False)
class Action:
    kind: str  # fwd | bwd | copy | uncopy | remap | unremap
    stmt: object = None
    slots: tuple = ()
    tag: str = ""  # copy purpose: "output" | "checkpoint"
    ref: "Action | None" = None  # remap/unremap -> their copy action


def invert(a: Action) -> Action:
    """Exact inverse action; `ref` links back so the emitter can recover the
    wires it recorded when the original ran (copy fanout targets, remap's
    saved slot map)."""
    flip = {"fwd": "bwd", "bwd": "fwd", "copy": "uncopy", "uncopy": "copy",
            "remap": "unremap", "unremap": "remap"}
    return Action(flip[a.kind], stmt=a.stmt, slots=a.slots, tag=a.tag, ref=a)


def mirror(actions) -> list[Action]:
    return [invert(a) for a in reversed(actions)]


@dataclass
class CleanupPlan:
    strategy: str
    program: FlatProgram
    mdd: MDD
    actions: list = field(default_factory=list)
    dispositions: dict = field(default_factory=dict)  # node id -> tag
    copied_outputs: bool = False
    checkpoints: int = 0
    reversals_inserted: int = 0  # eager: bwd actions that clean a value

    @property
    def unclean_nodes(self) -> list:
        return [n for n, d in self.dispositions.items() if d == UNCLEAN]


class BudgetError(Exception):
    def __init__(self, message: str, minimum: int | None = None):
        super().__init__(message)
        self.minimum = minimum  # smallest budget known to work


# ---------------------------------------------------------------------------
# Bennett


def bennett_cleanup(g: MDD) -> CleanupPlan:
    program = g.program
    forward = [Action("fwd", stmt=s) for s in program.statements]
    actions = forward + [Action("copy", slots=tuple(program.output_slots),
                                tag="output")] + mirror(forward)
    plan = CleanupPlan("bennett", program, g, actions, copied_outputs=True)
    for n in g.nodes:
        if n.kind == INIT:
            plan.dispositions[n.id] = BENNETT_CLEANED
    return plan


# ---------------------------------------------------------------------------
# Eager (Alg. 2 style)


def eager_cleanup(g: MDD) -> CleanupPlan:
    program = g.program
    plan = CleanupPlan("eager", program, g)

    # The plan is one fwd per statement, each followed by a bucket of the
    # reversals inserted after it.  A reversal is named by the OP node it
    # undoes (mutation paths are vertex-disjoint, so each node is undone at
    # most once).  An event's order key is (statement, place in bucket),
    # the fwd itself taking place 0; keys of existing events keep their
    # relative order under insertion.
    buckets: list[list[int]] = [[] for _ in program.statements]
    bucket_of: dict[int, int] = {}  # undone OP node -> its bucket

    def fwd_key(nid: int) -> tuple:
        return (g.node(nid).stmt_index, 0)

    def bwd_key(nid: int) -> tuple:
        b = bucket_of[nid]
        return (b, buckets[b].index(nid) + 1)

    for term in reversed(g.garbage_terminals()):
        path = g.modification_path(term.id)
        path_ops = [g.node(x) for x in path if g.node(x).kind == OP]
        if any(n.group is not None for n in path_ops):
            # the path runs through an in-place block: reversing it would
            # disturb the block's other targets, so it cannot be cleaned
            # in isolation
            plan.dispositions[term.id] = UNCLEAN
            continue

        # last event reading term: a reader's forward run, or its reversal
        # if that was inserted already
        d_key = fwd_key(term.id)
        for r in g.dependents[term.id]:
            d_key = max(d_key, fwd_key(r))
            if r in bucket_of:
                d_key = max(d_key, bwd_key(r))

        # the reversal re-reads the path inputs: they must be unmodified up
        # to and including the last reader.  That also keeps them un-cleaned:
        # terminals go in descending id order, so a path cleaned before this
        # one ends in a node newer than term and cannot end in an input u
        # that term's path reads; u then has a successor w on that path, and
        # the path's reversal comes after w's fwd
        if any(w is not None and g.node(w).kind != OUTPUT and fwd_key(w) <= d_key
               for w in map(g.mutation_next.get, g.input_nodes(path))):
            plan.dispositions[term.id] = UNCLEAN
            continue

        stmt_index, place = d_key
        undo = [n.id for n in reversed(path_ops)]
        buckets[stmt_index][place:place] = undo
        for nid in undo:
            bucket_of[nid] = stmt_index
        plan.dispositions[term.id] = CLEANED_EAGERLY

    plan.reversals_inserted = sum(map(len, buckets))
    actions = []
    for stmt, bucket in zip(program.statements, buckets):
        actions.append(Action("fwd", stmt=stmt))
        actions += [Action("bwd", stmt=g.node(nid).stmt) for nid in bucket]
    if plan.unclean_nodes:
        # copy & reverse: sweep everything that is left
        actions = actions + [Action("copy", slots=tuple(program.output_slots),
                                    tag="output")] + mirror(actions)
        plan.copied_outputs = True
    plan.actions = actions
    return plan


# ---------------------------------------------------------------------------
# Incremental (checkpointing under a qubit budget)


def _slots_used_by(stmt) -> set:
    """Slots whose *current value* a statement consumes or extends."""
    if isinstance(stmt, Compute):
        used = set(variables(stmt.expr))
        if not stmt.fresh:
            used.add(stmt.slot)
        return used
    if isinstance(stmt, InPlaceBlock):
        return set(stmt.arg_slots) | set(stmt.target_slots)
    if isinstance(stmt, CleanSlot):
        return {stmt.slot}
    raise TypeError(stmt)


def _written_slots(stmt) -> set:
    if isinstance(stmt, Compute):
        return {stmt.slot}
    if isinstance(stmt, InPlaceBlock):
        return set(stmt.target_slots)
    return set()


def reopened_locals(block: InPlaceBlock) -> list[int]:
    """The locals a block's backward run takes wires for before it starts:
    those its body writes fresh and does not clean afterwards, which the
    forward run released at the block's end."""
    live: set[int] = set()
    for s in block.body:
        if isinstance(s, Compute) and s.fresh:
            live.add(s.slot)
        elif isinstance(s, CleanSlot):
            live.discard(s.slot)
    return [l for l in block.local_slots if l in live]


MATERIALIZE, RELEASE, REALLOC = "materialize", "release", "realloc"


def _wire_ops(stmt, forward: bool, ops: list) -> None:
    """Append the emitter's wire bookkeeping for running stmt to ops, in
    order, as (op, slots): MATERIALIZE gives each unmapped slot a new wire,
    RELEASE frees each slot's wire if it has one, REALLOC maps each slot to
    a new wire and leaves any wire it had allocated."""
    if isinstance(stmt, Compute):
        ops.append((MATERIALIZE, variables(stmt.expr)))
        ops.append((MATERIALIZE, (stmt.slot,)))
        if stmt.fresh and not forward:
            ops.append((RELEASE, (stmt.slot,)))
    elif isinstance(stmt, InPlaceBlock):
        if forward:
            for s in stmt.body:
                _wire_ops(s, True, ops)
            # locals not explicitly cleaned are zero again at block end
            ops.append((RELEASE, stmt.local_slots))
            return
        ops.append((REALLOC, reopened_locals(stmt)))
        for s in reversed(stmt.body):
            _wire_ops(s, False, ops)
    elif isinstance(stmt, CleanSlot):
        ops.append((RELEASE if forward else REALLOC, (stmt.slot,)))
    else:
        raise TypeError(stmt)


class Effect(NamedTuple):
    """What running a statement does to the live count and the mapped
    slots, whatever the state at entry.  From mapped slots P the run
    changes the live count by `extra - |probe & P|` and leaves the slots
    `(P - off) | on` mapped.

    `extra` counts the wires the run allocates less those it frees when
    no slot is mapped at entry.  A slot in `probe` is first touched by a
    materialization or a release, either of which costs one wire less
    when the slot is mapped already.
    """
    extra: int
    probe: frozenset
    on: frozenset
    off: set

    def delta(self, mapped: set) -> int:
        return self.extra - len(mapped.intersection(self.probe))

    def update(self, mapped: set) -> None:
        mapped.difference_update(self.off)
        mapped.update(self.on)


def stmt_effect(stmt, forward: bool) -> Effect:
    """The effect of running stmt forwards or backwards."""
    ops: list = []
    _wire_ops(stmt, forward, ops)
    state: dict[int, bool] = {}  # touched slot -> mapped now
    probe: list[int] = []
    extra = 0
    for op, slots in ops:
        if op is REALLOC:
            extra += len(slots)
            state.update(dict.fromkeys(slots, True))
            continue
        for s in slots:
            m = state.get(s)
            if m is None:
                probe.append(s)
            if op is MATERIALIZE:
                if not m:
                    extra += 1
                    state[s] = True
            else:
                if m:
                    extra -= 1
                state[s] = False
    on = frozenset(s for s, m in state.items() if m)
    return Effect(extra, frozenset(probe), on, state.keys() - on)


def origin(action: Action, table: dict):
    """Walk the ref chain back to the action that has an entry in `table`
    and return that entry."""
    a = action
    while a not in table and a.ref is not None:
        a = a.ref
    if a not in table:
        raise RuntimeError(f"action {action.kind} has no recorded origin")
    return table[a]


def live_profile(plan: CleanupPlan) -> list[int]:
    """The emitter's live count (inputs plus live ancillas) after each
    action of the plan, from statement effects alone."""
    program = plan.program
    live = len(program.input_slots)
    mapped = set(program.input_slots)
    effects: dict[tuple, Effect] = {}  # (id of stmt, kind) -> its effect
    unmapped: dict[Action, list] = {}  # remap -> slots it found unmapped
    profile = []
    for a in plan.actions:
        kind = a.kind
        if kind == "fwd" or kind == "bwd":
            key = (id(a.stmt), kind)
            e = effects.get(key)
            if e is None:
                e = effects[key] = stmt_effect(a.stmt, kind == "fwd")
            live += e.delta(mapped)
            e.update(mapped)
        elif kind == "copy" or kind == "uncopy":
            # both materialize their sources; copy takes a wire per slot,
            # uncopy returns them
            live += sum(s not in mapped for s in a.slots)
            live += len(a.slots) if kind == "copy" else -len(a.slots)
            mapped.update(a.slots)
        elif kind == "remap":
            # slots move onto the copy's wires; the wires they leave stay
            # allocated until unremap moves them back
            unmapped[a] = [s for s in a.slots if s not in mapped]
            mapped.update(a.slots)
        elif kind == "unremap":
            mapped.difference_update(origin(a, unmapped))
        else:
            raise ValueError(f"unknown action {kind!r}")
        profile.append(live)
    return profile


class _IncrementalPlanner:
    """Greedy checkpoint placement for one program.  Statement effects and
    last uses are worked out once, so that each budget the search probes
    costs a pass of set arithmetic over them."""

    def __init__(self, program: FlatProgram):
        self.program = program
        stmts = program.statements
        self.fwd = [stmt_effect(s, True) for s in stmts]
        self.bwd: list = [None] * len(stmts)  # made when first reversed
        # writes[i]: (slots statement i writes, the slot it cleans or None)
        self.writes = [(_written_slots(s),
                        s.slot if isinstance(s, CleanSlot) else None)
                       for s in stmts]
        # last_use[s]: the last statement that consumes slot s's current
        # value, len(stmts) for an output
        last_use: dict[int, int] = {}
        for i, stmt in enumerate(stmts):
            last_use.update(dict.fromkeys(_slots_used_by(stmt), i))
        last_use.update(dict.fromkeys(program.output_slots, len(stmts)))
        self.last_use = last_use

    def cuts(self, budget: int) -> list[tuple[int, tuple]]:
        """Checkpoints as (statement index, slots saved), or BudgetError.

        Run forward while the next statement keeps the live count within
        the budget.  When it would not, copy the segment's values needed
        later to fresh wires, run the segment backwards to release its
        wires, and continue with the saved values remapped onto the copies.
        The copy itself may push the count past the budget by up to the
        number of saved slots: the budget bounds the computation segments,
        not the instantaneous fanout.
        """
        fwd, bwd, writes, last_use = self.fwd, self.bwd, self.writes, self.last_use
        live = len(self.program.input_slots)
        mapped = set(self.program.input_slots)
        cuts: list[tuple[int, tuple]] = []
        seg_start = 0
        seg_written: set = set()
        i, n = 0, len(fwd)
        while i < n:
            e = fwd[i]
            after = live + e.delta(mapped)
            if after <= budget:
                live = after
                e.update(mapped)
                written, cleaned = writes[i]
                seg_written |= written
                seg_written.discard(cleaned)
                i += 1
                continue
            if seg_start == i:  # empty segment, or just checkpointed
                raise BudgetError(
                    f"budget of {budget} qubits cannot fit statement {i}")
            needed = tuple(sorted(s for s in seg_written
                                  if last_use.get(s, -1) >= i))
            # the copy materializes its sources and fans them out
            live += len(needed) + sum(s not in mapped for s in needed)
            mapped.update(needed)
            for j in range(i - 1, seg_start - 1, -1):
                e = bwd[j]
                if e is None:
                    e = bwd[j] = stmt_effect(self.program.statements[j], False)
                live += e.delta(mapped)
                e.update(mapped)
            mapped.update(needed)  # remap onto the copies
            cuts.append((i, needed))
            seg_start = i
            seg_written = set()
        return cuts


def _checkpointed_plan(g: MDD, cuts: list) -> CleanupPlan:
    """The incremental plan with checkpoints at `cuts` (as
    `_IncrementalPlanner.cuts` gives them), swept by a final output copy
    and a full mirror."""
    program = g.program
    plan = CleanupPlan("incremental", program, g, copied_outputs=True)
    actions: list[Action] = []
    start = 0
    for i, needed in cuts + [(len(program.statements), None)]:
        segment = [Action("fwd", stmt=s) for s in program.statements[start:i]]
        actions += segment
        if needed is not None:
            copy = Action("copy", slots=needed, tag="checkpoint")
            actions += [copy] + mirror(segment) + [
                Action("remap", slots=needed, ref=copy)]
            plan.checkpoints += 1
        start = i
    out_copy = Action("copy", slots=tuple(program.output_slots), tag="output")
    plan.actions = actions + [out_copy] + mirror(actions)
    for n in g.nodes:
        if n.kind == INIT:
            plan.dispositions[n.id] = (CHECKPOINTED if plan.checkpoints
                                       else BENNETT_CLEANED)
    return plan


def incremental_cleanup(g: MDD, qubit_budget: int | None = None) -> CleanupPlan:
    """Checkpointing cleanup under a total-width budget.

    With no budget (or a budget at least the Bennett width) this reduces to
    the Bennett plan.  An infeasible budget raises BudgetError carrying the
    smallest budget that does work.
    """
    from .emitter import emit

    if qubit_budget is None:
        return _checkpointed_plan(g, [])
    planner = _IncrementalPlanner(g.program)
    try:
        return _checkpointed_plan(g, planner.cuts(qubit_budget))
    except BudgetError:
        pass
    # find and report the minimal feasible budget
    hi = emit(bennett_cleanup(g)).width
    lo = qubit_budget
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            planner.cuts(mid)
            hi = mid
        except BudgetError:
            lo = mid + 1
    raise BudgetError(
        f"budget of {qubit_budget} qubits is infeasible; "
        f"minimum is {hi}", minimum=hi)


STRATEGIES = {
    "bennett": bennett_cleanup,
    "eager": eager_cleanup,
    "incremental": incremental_cleanup,
}


def schedule(program: FlatProgram, strategy: str, qubit_budget: int | None = None) -> CleanupPlan:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if qubit_budget is not None and strategy != "incremental":
        raise ValueError(f"a qubit budget needs the incremental strategy, "
                         f"not {strategy!r}")
    g = build_mdd(program)
    if strategy == "incremental":
        return incremental_cleanup(g, qubit_budget)
    return STRATEGIES[strategy](g)
