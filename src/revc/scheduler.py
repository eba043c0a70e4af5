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
               would exceed the budget, copy the values still needed onto
               new slots (a checkpoint), reverse the current segment to
               release its wires, and continue on the copies; the
               checkpoints themselves are cleaned by the final copy-out +
               full reversal.

Only eager reads the dependency graph; Bennett and incremental plan from
the statement sequence alone, and `schedule` builds the graph for eager
only.

A plan is a tuple of Actions executed in order by the emitter, each a
forward (`fwd`) or backward (`bwd`) run of a statement: a flat statement
(see frontend) or a `Copy`, which only plans hold.  A copy fans slots
out onto new slots, numbered from the program's `slot_count` up; its
backward run uncomputes them.  Every action's inverse flips its
direction, so reversing a plan segment is inverting its actions in
reverse order.  A checkpoint renames: every statement after it reads
and writes the copies instead of the slots they copy, and a segment and
its mirror share the renamed statements.  The outputs end on the slots
of the final output copy (`CleanupPlan.output_slots`), or on the
program's own for an eager plan with no Unclean value.  Actions and
plans are frozen: each strategy builds its plan in one constructor call,
and a plan is pure data that can be emitted any number of times.

Cost of the eager pass: linear in the statements plus the inserted
reversals.  Each terminal's mutation path is walked once, back from the
terminal, and the walk yields the reversal's order directly.  Each
reversal sits in a bucket behind the fwd of the statement it follows,
and the only step that is not constant time is finding a reversal's
place in its bucket.  Buckets are short: on the bundled corpus they hold
under one reversal per statement on average and at most 39 (the carries
of the n=40 ripple adder).  On SHA-2 rounds=16 (8,256 graph nodes,
120,832 read edges, 2,048 reversals) building the graph takes 9.5 ms and
the eager plan 6.1 ms, against 21 ms to emit the plan; the Bennett plan
takes 2.4 ms.  On MD5 rounds=2 the graph takes 1.4 ms and the eager plan
0.5 ms.  (Medians of 9 in-process runs on a 2-vCPU VM under Python 3.11,
scaled to the reference speed of the benchmark's probe, bench/speed.py.)

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
(`live_profile`), and so is each budget the planner tries.  A block's
delta is a field of its token (`BlockBody.delta` in frontend), found
when flatten builds the token, so the scheduler reads no block body and
builds no block's own statements.  The search for the minimal
budget takes its upper bound from the same deltas: the peak live count
of the plain forward run (`_IncrementalPlanner.peak`), which every
budget at or above it fits with no checkpoint.  The search bisects below
that bound, so it assumes feasibility is monotone in the budget, and
greedy placement does not keep that: for `clean_chain_source(56)` of
`tests/test_scheduler.py` budget 8 is feasible and 9 is not, and 14 of
that family's seeds 0-199 have a feasible budget below an infeasible
one.  Placing checkpoints by dynamic programming (ROADMAP item 3, step
2) is meant to remove this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple

from .frontend import (
    CleanSlot, Compute, FlatProgram, InPlaceBlock, _renamed_stmts,
)
from .mdd import MDD, OP, OUTPUT, build_mdd

# node dispositions (eager)
CLEANED_EAGERLY = "CleanedEagerly"
UNCLEAN = "Unclean"


class Copy(NamedTuple):
    """dst[k] := src[k] for each k, `dst` being new slots: the fanout of a
    checkpoint or of the outputs."""
    src: tuple
    dst: tuple


class Action(NamedTuple):
    kind: str  # fwd | bwd
    stmt: object  # a flat statement or a Copy


_FLIP = {"fwd": "bwd", "bwd": "fwd"}


def invert(a: Action) -> Action:
    """The action with the other direction."""
    return Action(_FLIP[a.kind], a.stmt)


def mirror(actions) -> list[Action]:
    return [invert(a) for a in reversed(actions)]


def _swept(actions: list, outputs, base: int) -> tuple:
    """`actions`, a copy of the slots `outputs` onto new slots from `base`
    up, then the mirror of `actions`: the final sweep that cleans whatever
    `actions` left.  Also the new slots, where the outputs end."""
    out = Copy(tuple(outputs), tuple(range(base, base + len(outputs))))
    return (*actions, Action("fwd", out), *mirror(actions)), out.dst


@dataclass(frozen=True)
class CleanupPlan:
    strategy: str
    program: FlatProgram
    actions: tuple
    output_slots: tuple  # where the outputs end
    cuts: tuple = ()  # checkpoints as (statement index, slots saved)
    mdd: MDD | None = None  # eager's graph; None for the other strategies
    dispositions: dict = field(default_factory=dict)  # eager: node id -> tag
    reversals_inserted: int = 0  # eager: bwd actions that clean a value

    @property
    def unclean_nodes(self) -> list:
        return [n for n, d in self.dispositions.items() if d == UNCLEAN]

    @property
    def checkpoints(self) -> int:
        return len(self.cuts)


class BudgetError(Exception):
    def __init__(self, message: str, minimum: int | None = None):
        super().__init__(message)
        self.minimum = minimum  # smallest budget known to work


# ---------------------------------------------------------------------------
# Bennett


def bennett_cleanup(source: FlatProgram) -> CleanupPlan:
    """Every statement forwards, the output copy, then the exact mirror:
    the checkpointed plan with no checkpoint."""
    program = getattr(source, "program", source)  # bench/ passes an MDD
    return _checkpointed_plan(program, [], "bennett")


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
    nodes, reads, dependents = g.nodes, g.reads, g.dependents
    mutation_prev, mutation_next = g.mutation_prev, g.mutation_next
    dispositions: dict[int, str] = {}

    # The plan is one fwd per statement, each followed by a bucket of the
    # reversals inserted after it.  A reversal is named by the OP node it
    # undoes (mutation paths are vertex-disjoint, so each node is undone at
    # most once).  An event's order key is (statement, place in bucket),
    # the fwd itself taking place 0; keys of existing events keep their
    # relative order under insertion.
    buckets: dict[int, list[int]] = {}  # statement -> its reversals
    bucket_of: dict[int, int] = {}  # undone OP node -> its bucket
    on_path = [-1] * len(nodes)  # node -> the last terminal walked to it

    for term in reversed(g.garbage_terminals()):
        tid = term.id
        # walk term's mutation path back to its head, collecting its OP
        # nodes last first: the order in which the reversal undoes them
        undo = []
        nid = tid
        while nid is not None:
            n = nodes[nid]
            if n.group is not None:
                break
            if n.kind == OP:
                undo.append(nid)
            on_path[nid] = tid
            nid = mutation_prev.get(nid)
        if nid is not None:
            # the path runs through an in-place block: reversing it would
            # disturb the block's other targets, so it cannot be cleaned
            # in isolation
            dispositions[tid] = UNCLEAN
            continue

        # last event reading term: a reader's forward run, or its reversal
        # if that was inserted already (which comes after the forward run)
        d_key = (term.stmt_index, 0)
        for r in dependents[tid]:
            b = bucket_of.get(r)
            key = ((nodes[r].stmt_index, 0) if b is None
                   else (b, buckets[b].index(r) + 1))
            if key > d_key:
                d_key = key
        stmt_index, place = d_key

        # the reversal re-reads the path inputs: they must be unmodified up
        # to and including the last reader, so the next state of each must
        # come from a statement after it.  That also keeps them un-cleaned:
        # terminals go in descending id order, so a path cleaned before this
        # one ends in a node newer than term and cannot end in an input u
        # that term's path reads; u then has a successor w on that path, and
        # the path's reversal comes after w's fwd
        for u in chain.from_iterable(map(reads.__getitem__, undo)):
            w = mutation_next.get(u)
            if w is not None:
                w = nodes[w]
                if (w.kind != OUTPUT and w.stmt_index <= stmt_index
                        and on_path[u] != tid):
                    dispositions[tid] = UNCLEAN
                    break
        else:
            bucket = buckets.get(stmt_index)
            if bucket is None:
                buckets[stmt_index] = undo
            else:
                bucket[place:place] = undo
            for nid in undo:
                bucket_of[nid] = stmt_index
            dispositions[tid] = CLEANED_EAGERLY

    actions = []
    append = actions.append
    for i, stmt in enumerate(program.statements):
        append(Action("fwd", stmt))
        bucket = buckets.get(i)
        if bucket is not None:
            for nid in bucket:
                append(Action("bwd", nodes[nid].stmt))
    outputs = tuple(program.output_slots)
    if UNCLEAN in dispositions.values():
        # copy & reverse: sweep everything that is left
        actions, outputs = _swept(actions, outputs, program.slot_count)
    return CleanupPlan("eager", program, tuple(actions), outputs, mdd=g,
                       dispositions=dispositions,
                       reversals_inserted=len(bucket_of))


# ---------------------------------------------------------------------------
# Incremental (checkpointing under a qubit budget)


def stmt_delta(stmt) -> int:
    """The change in the live count when stmt runs forwards; running it
    backwards negates it.  A fresh write takes a wire, a clean frees one
    and an accumulation neither, since flatten leaves no statement that
    reads or cleans a slot with no wire or writes fresh a slot with one
    (see frontend).  A block's is its token's `delta`, a copy's the
    number of slots it writes."""
    if isinstance(stmt, Compute):
        return int(stmt.fresh)
    if isinstance(stmt, CleanSlot):
        return -1
    if isinstance(stmt, InPlaceBlock):
        return stmt.token.delta
    if isinstance(stmt, Copy):
        return len(stmt.dst)
    raise TypeError(stmt)


def live_profile(plan: CleanupPlan) -> list[int]:
    """The emitter's live count (inputs plus live ancillas) after each
    action of the plan, from statement deltas alone."""
    sign = {"fwd": 1, "bwd": -1}
    return list(accumulate(
        [sign[a.kind] * stmt_delta(a.stmt) for a in plan.actions],
        initial=len(plan.program.input_slots)))[1:]


class _IncrementalPlanner:
    """Greedy checkpoint placement for one program.  Statement deltas and
    last uses are worked out once, so that each budget the search probes
    costs one pass over them."""

    def __init__(self, program: FlatProgram):
        self.program = program
        stmts = program.statements
        # delta[i]: statement i's `stmt_delta`; writes[i]: (slots it writes,
        # the slot it cleans or None); last_use[s]: the last statement that
        # consumes or extends slot s's current value, len(stmts) for an
        # output
        delta, writes, last_use = [], [], {}
        for i, s in enumerate(stmts):
            delta.append(stmt_delta(s))
            if isinstance(s, Compute):
                writes.append(({s.slot}, None))
                last_use.update(dict.fromkeys(s.args, i))
                if not s.fresh:
                    last_use[s.slot] = i
            elif isinstance(s, InPlaceBlock):
                targets = s.target_slots
                writes.append((set(targets), None))
                last_use.update(dict.fromkeys([*targets, *s.arg_slots], i))
            else:
                writes.append((set(), s.slot))
                last_use[s.slot] = i
        last_use.update(dict.fromkeys(program.output_slots, len(stmts)))
        self.delta, self.writes, self.last_use = delta, writes, last_use

    def peak(self) -> int:
        """The largest live count of the forward run with no checkpoint:
        the smallest budget that needs none."""
        return max(accumulate(self.delta,
                              initial=len(self.program.input_slots)))

    def cuts(self, budget: int) -> list[tuple[int, tuple]]:
        """Checkpoints as (statement index, slots saved), or BudgetError.

        Run forward while the next statement keeps the live count within
        the budget.  When it would not, copy the segment's values needed
        later to new slots, run the segment backwards to release its
        wires, and continue with the statements renamed onto the copies.
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
            # the copy fans the saved slots out, and the reversal takes
            # back what the segment added
            live += len(needed) - sum(delta[seg_start:i])
            cuts.append((i, needed))
            seg_start = i
            seg_written = set()
        return cuts


def _checkpointed_plan(program: FlatProgram, cuts: list,
                       strategy: str = "incremental") -> CleanupPlan:
    """The plan with checkpoints at `cuts` (as `_IncrementalPlanner.cuts`
    gives them), swept by a final output copy and a full mirror.  Each
    statement after a checkpoint is renamed once, onto the copies; those
    before the first checkpoint are the program's own."""
    stmts = program.statements
    names = list(range(program.slot_count))  # slot -> the slot of its value
    top = program.slot_count  # the least slot no copy has written

    def forward(start: int, end: int) -> list[Action]:
        run = stmts[start:end]
        return [Action("fwd", s)
                for s in (_renamed_stmts(run, names) if start else run)]

    actions: list[Action] = []
    start = 0
    for i, needed in cuts:
        segment = forward(start, i)
        copy = Copy(tuple([names[s] for s in needed]),
                    tuple(range(top, top + len(needed))))
        actions += [*segment, Action("fwd", copy), *mirror(segment)]
        for s, d in zip(needed, copy.dst):
            names[s] = d
        top += len(needed)
        start = i
    actions, outputs = _swept(
        [*actions, *forward(start, len(stmts))],
        [names[s] for s in program.output_slots], top)
    return CleanupPlan(strategy, program, actions, outputs, tuple(cuts))


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


def schedule(program: FlatProgram, strategy: str, qubit_budget: int | None = None,
             stages: dict | None = None) -> CleanupPlan:
    """The plan of `strategy`; only eager builds the dependency graph, and
    then puts the seconds that took into `stages`, if given, as `mdd`."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if qubit_budget is not None and strategy != "incremental":
        raise ValueError(f"a qubit budget needs the incremental strategy, "
                         f"not {strategy!r}")
    if strategy == "eager":
        t0 = time.perf_counter()
        g = build_mdd(program)
        if stages is not None:
            stages["mdd"] = time.perf_counter() - t0
        return eager_cleanup(g)
    if strategy == "incremental":
        return incremental_cleanup(program, qubit_budget)
    return bennett_cleanup(program)
