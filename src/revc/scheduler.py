"""Cleanup scheduling: turn a flat program into a linear plan of circuit
actions.

Three strategies:

  bennett      compute everything, copy the outputs to fresh wires, run the
               exact mirror image;
  eager        build the MDD (see mdd), walk it backwards and, for every
               garbage value whose inputs are still intact at its last
               use, insert the reversed mutation path (plus a release of
               the wire) right after that use; values that cannot be
               cleaned this way are marked Unclean and swept up by one
               final copy-out + full reversal;
  incremental  run forward under a total qubit budget; when the next step
               would exceed the budget, copy the values still needed to
               fresh wires (a checkpoint), reverse the current segment to
               release its wires, and continue from the checkpoint; the
               checkpoints themselves are cleaned by the final copy-out +
               full reversal.

Only eager reads the dependency graph; Bennett and incremental plan from
the statement sequence alone, and `schedule` builds the graph for eager
only.

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

Incremental planning places checkpoints without emitting.  It needs only
the live count (inputs plus live ancillas) after each statement, and
that count depends only on which slots are mapped, because synthesis
returns every scratch wire it takes and the heap's least-free-index
policy does not change the count.  Flatten leaves no statement that
reads, accumulates onto or cleans a slot with no wire, or writes fresh a
slot that has one (see frontend), so each statement changes the count by
a constant whatever the state at entry, and running it backwards by the
negated constant (`stmt_delta`): +1 for a fresh write, -1 for a clean, 0
for an accumulation.  The live count of a plan is then a prefix sum
(`live_profile`), and so is each budget the planner tries.  Blocks of one
token run one shared body (see `InPlaceBlock` in frontend), so a block's
delta, its body's less its `reopened_locals`, is worked out once per
token: no block's own statements are built.  The search for the minimal
budget takes its upper bound from the same deltas: the peak live count
of the plain forward run (`_IncrementalPlanner.peak`), which every
budget at or above it fits with no checkpoint.  The search bisects below
that bound, so it assumes feasibility is monotone in the budget, and
greedy placement does not keep that: for `clean_chain_source(56)` of
`tests/test_scheduler.py` budget 8 is feasible and 9 is not, and 14 of
that family's seeds 0-199 have a feasible budget below an infeasible
one.  Placing checkpoints by dynamic programming (ROADMAP item 2, step
2) is meant to remove this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .boolexpr import variables
from .frontend import CleanSlot, Compute, FlatProgram, InPlaceBlock
from .mdd import MDD, OP, OUTPUT, build_mdd

# node dispositions (eager)
CLEANED_EAGERLY = "CleanedEagerly"
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
    mdd: MDD | None = None  # eager's graph; None for the other strategies
    actions: list = field(default_factory=list)
    dispositions: dict = field(default_factory=dict)  # eager: node id -> tag
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


def bennett_cleanup(source: FlatProgram) -> CleanupPlan:
    """Every statement forwards, the output copy, then the exact mirror:
    planned from the statement sequence alone."""
    program = getattr(source, "program", source)  # bench/ passes an MDD
    forward = [Action("fwd", stmt=s) for s in program.statements]
    actions = forward + [Action("copy", slots=tuple(program.output_slots),
                                tag="output")] + mirror(forward)
    return CleanupPlan("bennett", program, actions=actions,
                       copied_outputs=True)


# ---------------------------------------------------------------------------
# Eager (Alg. 2 style)


def eager_cleanup(g: MDD) -> CleanupPlan:
    """The eager plan (see the module docstring).

    Its reversals pay for themselves even when Unclean values force the
    final mirror, which replays every one of them.  On MD5 rounds=2 eager
    reverses the 64 bits of the two `F` outputs and leaves the 64 bits of
    `t` Unclean: `t` is built by in-place additions, and a path through an
    in-place block is not reversed.  Each reversal saves one qubit: without
    any one of them the circuit is 929 wires wide instead of 928, and
    without all of them it is Bennett's, 992 wires and 5808 gates against
    eager's 7600.
    """
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


def reopened_locals(body, locals_) -> list[int]:
    """The locals a block's backward run takes wires for before it starts:
    those of `locals_` that `body` writes fresh and does not clean
    afterwards, which the forward run released at the block's end.  The
    slots are a block's own or its body positions."""
    live: set[int] = set()
    for s in body:
        if isinstance(s, Compute) and s.fresh:
            live.add(s.slot)
        elif isinstance(s, CleanSlot):
            live.discard(s.slot)
    return [l for l in locals_ if l in live]


def stmt_delta(stmt, by_token: dict) -> int:
    """The change in the live count when stmt runs forwards; running it
    backwards negates it.  A fresh write takes a wire, a clean frees one
    and an accumulation neither, since flatten leaves no statement that
    reads or cleans a slot with no wire or writes fresh a slot with one
    (see frontend).  A block takes its body's wires less those of the
    locals it releases at its end; that sum is kept per token in
    `by_token`."""
    if isinstance(stmt, Compute):
        return int(stmt.fresh)
    if isinstance(stmt, CleanSlot):
        return -1
    if isinstance(stmt, InPlaceBlock):
        token = stmt.token
        d = by_token.get(token)
        if d is None:
            body = token.stmts
            d = by_token[token] = (
                sum([stmt_delta(s, by_token) for s in body])
                - len(reopened_locals(body, token.local_positions)))
        return d
    raise TypeError(stmt)


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
    action of the plan, from statement deltas alone."""
    live = len(plan.program.input_slots)
    by_token: dict = {}  # see stmt_delta
    profile = []
    for a in plan.actions:
        kind = a.kind
        if kind == "fwd":
            live += stmt_delta(a.stmt, by_token)
        elif kind == "bwd":
            live -= stmt_delta(a.stmt, by_token)
        elif kind == "copy":
            live += len(a.slots)
        elif kind == "uncopy":
            live -= len(a.slots)
        elif kind != "remap" and kind != "unremap":
            # remap moves slots onto the copy's wires, which stay counted
            # until uncopy, and unremap moves them back
            raise ValueError(f"unknown action {kind!r}")
        profile.append(live)
    return profile


class _IncrementalPlanner:
    """Greedy checkpoint placement for one program.  Statement deltas and
    last uses are worked out once, so that each budget the search probes
    costs one pass over them."""

    def __init__(self, program: FlatProgram):
        self.program = program
        stmts = program.statements
        by_token: dict = {}  # see stmt_delta
        self.delta = [stmt_delta(s, by_token) for s in stmts]
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

    def peak(self) -> int:
        """The largest live count of the forward run with no checkpoint:
        the smallest budget that needs none."""
        return max(accumulate(self.delta,
                              initial=len(self.program.input_slots)))

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
        delta, writes, last_use = self.delta, self.writes, self.last_use
        live = len(self.program.input_slots)
        cuts: list[tuple[int, tuple]] = []
        seg_start = 0
        seg_written: set = set()
        i, n = 0, len(delta)
        while i < n:
            d = delta[i]
            if live + d <= budget:
                live += d
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
            # the copy fans the saved slots out, the reversal takes back
            # what the segment added, and remap moves no wire
            live += len(needed) - sum(delta[seg_start:i])
            cuts.append((i, needed))
            seg_start = i
            seg_written = set()
        return cuts


def _checkpointed_plan(program: FlatProgram, cuts: list) -> CleanupPlan:
    """The incremental plan with checkpoints at `cuts` (as
    `_IncrementalPlanner.cuts` gives them), swept by a final output copy
    and a full mirror."""
    plan = CleanupPlan("incremental", program, copied_outputs=True)
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
    return plan


def incremental_cleanup(source: FlatProgram,
                        qubit_budget: int | None = None) -> CleanupPlan:
    """Checkpointing cleanup under a total-width budget, planned from the
    statements and their live-count deltas.

    With no budget (or a budget at least the forward run's peak live
    count) this reduces to the Bennett plan.  An infeasible budget raises
    BudgetError carrying the smallest budget that does work.
    """
    program = getattr(source, "program", source)  # bench/ passes an MDD
    if qubit_budget is None:
        return _checkpointed_plan(program, [])
    planner = _IncrementalPlanner(program)
    try:
        return _checkpointed_plan(program, planner.cuts(qubit_budget))
    except BudgetError:
        pass
    # find and report the minimal feasible budget
    hi = planner.peak()
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


STRATEGIES = ("bennett", "eager", "incremental")


def schedule(program: FlatProgram, strategy: str, qubit_budget: int | None = None) -> CleanupPlan:
    """The plan of `strategy`; only eager builds the dependency graph."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if qubit_budget is not None and strategy != "incremental":
        raise ValueError(f"a qubit budget needs the incremental strategy, "
                         f"not {strategy!r}")
    if strategy == "eager":
        return eager_cleanup(build_mdd(program))
    if strategy == "incremental":
        return incremental_cleanup(program, qubit_budget)
    return bennett_cleanup(program)
