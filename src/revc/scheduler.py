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

Incremental planning measures each step with the emitter's `WidthOracle`,
which keeps all of the emitter's wire bookkeeping but makes no gates.  Its
live count equals a full emission's after every action, because synthesis
frees every scratch wire it takes; so the plans are the ones a full
emission would give, for the cost of the bookkeeping alone.  The search for
the minimal budget still takes its upper bound from a full emission, the
width of the Bennett circuit: width, unlike the live count, includes
synthesis scratch wires, and greedy feasibility need not be monotone in the
budget, so another bound could probe other budgets and report another
minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _plan_incremental(g: MDD, budget: int) -> CleanupPlan:
    from .emitter import WidthOracle

    program = g.program
    stmts = program.statements
    plan = CleanupPlan("incremental", program, g, copied_outputs=True)

    # last_use[s]: the last statement that consumes slot s's current value,
    # len(stmts) for an output
    last_use: dict[int, int] = {}
    for i, stmt in enumerate(stmts):
        last_use.update(dict.fromkeys(_slots_used_by(stmt), i))
    last_use.update(dict.fromkeys(program.output_slots, len(stmts)))

    em = WidthOracle(program)
    actions: list[Action] = []
    seg_start = 0
    seg_written: set = set()
    i = 0
    just_checkpointed = False
    while i < len(stmts):
        snap = em.snapshot()
        act = Action("fwd", stmt=stmts[i])
        em.apply(act)
        if em.live <= budget:
            actions.append(act)
            seg_written |= _written_slots(stmts[i])
            if isinstance(stmts[i], CleanSlot):
                seg_written.discard(stmts[i].slot)
            i += 1
            just_checkpointed = False
            continue
        em.restore(snap)
        if just_checkpointed or seg_start == len(actions):
            raise BudgetError(
                f"budget of {budget} qubits cannot fit statement {i}")
        # checkpoint: save segment values needed later, then roll the
        # segment back to release its wires.  The copy itself may push the
        # width past the budget by up to |needed| wires; the budget bounds
        # the computation segments, not the instantaneous fanout.
        needed = sorted(s for s in seg_written if last_use.get(s, -1) >= i)
        copy = Action("copy", slots=tuple(needed), tag="checkpoint")
        em.apply(copy)
        rev = mirror(actions[seg_start:])
        for a in rev:
            em.apply(a)
        remap = Action("remap", slots=tuple(needed), ref=copy)
        em.apply(remap)
        actions += [copy] + rev + [remap]
        plan.checkpoints += 1
        seg_start = len(actions)
        seg_written = set()
        just_checkpointed = True

    out_copy = Action("copy", slots=tuple(program.output_slots), tag="output")
    actions = actions + [out_copy] + mirror(actions)
    plan.actions = actions
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
        return _plan_incremental(g, budget=1 << 62)
    try:
        return _plan_incremental(g, qubit_budget)
    except BudgetError:
        pass
    # find and report the minimal feasible budget
    hi = emit(bennett_cleanup(g)).width
    lo = qubit_budget
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _plan_incremental(g, mid)
            hi = mid
        except BudgetError:
            lo = mid + 1
    raise BudgetError(
        f"budget of {qubit_budget} qubits is infeasible; "
        f"minimum is {hi}", minimum=hi)


STRATEGIES = {
    "bennett": lambda g, budget=None: bennett_cleanup(g),
    "eager": lambda g, budget=None: eager_cleanup(g),
    "incremental": lambda g, budget=None: incremental_cleanup(g, budget),
}


def schedule(program: FlatProgram, strategy: str, qubit_budget: int | None = None) -> CleanupPlan:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    g = build_mdd(program)
    return STRATEGIES[strategy](g, qubit_budget)
