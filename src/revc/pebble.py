"""Reversible pebble game on a directed line.

Nodes are numbered 1..T; node 0 is the input and is always available.
Placing or removing a pebble on node i requires a pebble on node i-1
(the reversible rule).  Strategy generators: Bennett (place everything,
then unwind), incremental (checkpointing under a pebble budget), a
log-space recursive strategy, and an optimal search via the midpoint
recursion solved with dynamic programming.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from math import ceil, log2

PLACE = "place"
REMOVE = "remove"
INF = float("inf")

# The longest line a strategy lists move by move: about 2T moves, which at
# this bound take 0.5 s and under 50 MiB to build and validate (measured on
# a shared 2-vCPU VM).
MAX_LINE_NODES = 100_000
# The most work the midpoint DP may take, counted as T^2 * k for T nodes
# and k < T pebbles; with k >= T it takes none (Bennett's play, see
# `_min_steps`).  At this bound, on the same VM: 1.7 s for lmt at T=603,
# whose k is ceil(log2 T) + 1.
MAX_DP_WORK = 4_000_000


def check_line(T: int) -> None:
    """Reject a line longer than MAX_LINE_NODES."""
    if T > MAX_LINE_NODES:
        raise ValueError(f"pebble line of {T} nodes is longer than "
                         f"{MAX_LINE_NODES}")


def check_dp(T: int, k: int) -> None:
    """Reject a midpoint DP over T nodes and k pebbles above MAX_DP_WORK,
    or with k >= T, which plays the line without one, a line longer than
    MAX_LINE_NODES."""
    if k >= T:
        check_line(T)
    elif T * T * max(k, 1) > MAX_DP_WORK:
        raise ValueError(f"pebble DP over {T} nodes and {k} pebbles takes "
                         f"more than {MAX_DP_WORK} steps (T^2 * k)")


@dataclass(frozen=True)
class Move:
    action: str  # PLACE | REMOVE
    node: int


@dataclass
class ValidationReport:
    ok: bool
    peak_pebbles: int = 0
    steps: int = 0
    placements: int = 0
    clean: bool = False  # final state is exactly {T}
    final_state: frozenset = frozenset()
    violation: str | None = None


class InfeasibleError(Exception):
    def __init__(self, message: str, minimum: int):
        super().__init__(message)
        self.minimum = minimum  # smallest feasible budget


def validate(moves, T: int, k: int, require_clean: bool = False) -> ValidationReport:
    """Replay a move list, enforcing legality and the pebble budget.

    The final state must contain a pebble on node T.  Checkpoint pebbles
    left behind (as the incremental strategy does) are reported via
    `clean=False`; pass `require_clean=True` to reject them.
    """
    state: set[int] = set()
    peak = 0
    placements = 0
    for idx, m in enumerate(moves):
        if not (1 <= m.node <= T):
            return ValidationReport(False, peak, idx, placements,
                                    violation=f"move {idx}: node {m.node} outside 1..{T}")
        if m.node != 1 and (m.node - 1) not in state:
            return ValidationReport(False, peak, idx, placements,
                                    violation=f"move {idx}: node {m.node - 1} not pebbled")
        if m.action == PLACE:
            if m.node in state:
                return ValidationReport(False, peak, idx, placements,
                                        violation=f"move {idx}: node {m.node} already pebbled")
            state.add(m.node)
            placements += 1
            if len(state) > k:
                return ValidationReport(False, len(state), idx, placements,
                                        violation=f"move {idx}: budget {k} exceeded")
        elif m.action == REMOVE:
            if m.node not in state:
                return ValidationReport(False, peak, idx, placements,
                                        violation=f"move {idx}: node {m.node} not pebbled")
            state.remove(m.node)
        else:
            return ValidationReport(False, peak, idx, placements,
                                    violation=f"move {idx}: bad action {m.action!r}")
        peak = max(peak, len(state))
    if T not in state:
        return ValidationReport(False, peak, len(moves), placements,
                                violation=f"node {T} not pebbled at the end")
    clean = state == {T}
    if require_clean and not clean:
        extra = sorted(state - {T})
        return ValidationReport(False, peak, len(moves), placements, clean=False,
                                final_state=frozenset(state),
                                violation=f"leftover pebbles at {extra}")
    return ValidationReport(True, peak, len(moves), placements, clean=clean,
                            final_state=frozenset(state))


def bennett_strategy(T: int) -> list[Move]:
    """Place 1..T, then remove T-1..1: 2T-1 moves, peak T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    check_line(T)
    moves = [Move(PLACE, i) for i in range(1, T + 1)]
    moves += [Move(REMOVE, i) for i in range(T - 1, 0, -1)]
    return moves


def incremental_strategy(T: int, k: int) -> list[Move]:
    """Pebble forward in shrinking segments, leaving a checkpoint per segment.

    Reaches at most k(k+1)/2; peak k.  Checkpoint pebbles stay on the board
    (a fully clean finish is unreachable at the bound: removing a checkpoint
    would need one more free pebble than ever remains).
    """
    if k < 1:
        raise ValueError("need at least one pebble")
    check_line(T)
    reach = k * (k + 1) // 2
    if T > reach:
        raise InfeasibleError(f"{k} pebbles reach at most node {reach}, not {T}",
                              minimum=_min_pebbles_for(T))
    moves: list[Move] = []
    pos = 0  # last checkpoint (0 = input)
    free = k
    while pos < T:
        seg = min(free, T - pos)
        for i in range(pos + 1, pos + seg + 1):
            moves.append(Move(PLACE, i))
        for i in range(pos + seg - 1, pos, -1):
            moves.append(Move(REMOVE, i))
        pos += seg
        free -= 1
    return moves


def _min_pebbles_for(T: int) -> int:
    k = 1
    while k * (k + 1) // 2 < T:
        k += 1
    return k


def log_space_pebbles(T: int) -> int:
    """The fewest pebbles that reach node T cleanly: ceil(log2 T)+1."""
    return 1 if T == 1 else ceil(log2(T)) + 1


def lmt_strategy(T: int) -> list[Move]:
    """Log-space strategy: optimal play under the `log_space_pebbles`
    budget.

    Peak pebbles is logarithmic in T; the step count grows superpolynomially
    (it is the budget-constrained optimum, e.g. 193 steps for T=32).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    _, moves = knill_optimal(T, log_space_pebbles(T))
    return moves


@functools.lru_cache(maxsize=None)
def _min_steps(n: int, k: int) -> tuple:
    """Minimal moves to pebble distance n past a fixed base and clean up,
    using at most k pebbles beyond the base (the midpoint recursion), and
    the first midpoint j that achieves them (0 when there is none).  With
    k >= n that is Bennett's play, 2n - 1 moves: midpoint 1 reaches it,
    and no play of n placements and n - 1 removals has fewer."""
    if n == 0:
        return 0, 0
    if k <= 0:
        return INF, 0
    if n == 1:
        return 1, 0
    if k >= n:
        return 2 * n - 1, 1
    best, best_j = INF, 0
    for j in range(1, n):
        c = (_min_steps(j, k)[0] + _min_steps(n - j, k - 1)[0]
             + _min_steps(j, k - 1)[0])
        if c < best:
            best, best_j = c, j
    return best, best_j


def _dp_moves(base: int, n: int, k: int, out: list[Move], unpebble: bool = False) -> None:
    if n == 0:
        return
    if n == 1:
        out.append(Move(REMOVE if unpebble else PLACE, base + 1))
        return
    if k >= n and not unpebble:  # midpoint 1 at every level: Bennett's play
        out += [Move(PLACE, base + i) for i in range(1, n + 1)]
        out += [Move(REMOVE, base + i) for i in range(n - 1, 0, -1)]
        return
    j = _min_steps(n, k)[1]
    if unpebble:
        # exact mirror of the placement sequence
        sub: list[Move] = []
        _dp_moves(base, n, k, sub, unpebble=False)
        out.extend(Move(REMOVE if m.action == PLACE else PLACE, m.node)
                   for m in reversed(sub))
        return
    _dp_moves(base, j, k, out)                 # pebble the midpoint
    _dp_moves(base + j, n - j, k - 1, out)     # pebble the far half from it
    _dp_moves(base, j, k - 1, out, unpebble=True)  # clean the midpoint


def knill_optimal(T: int, k: int) -> tuple[int, list[Move]]:
    """Minimal-step strategy under a budget of k pebbles (DP over midpoints).

    Feasible exactly when T <= 2^(k-1).  The table is O(T*k) entries of
    O(T) work each for k < T, bounded by MAX_DP_WORK; with k >= T there is
    none to fill, and the play's T is bounded by MAX_LINE_NODES.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    check_dp(T, k)
    steps = _min_steps(T, k)[0]
    if steps == INF:
        kmin = log_space_pebbles(T)
        raise InfeasibleError(f"{k} pebbles cannot reach node {T} cleanly; "
                              f"need at least {kmin}", minimum=kmin)
    moves: list[Move] = []
    _dp_moves(0, T, k, moves)
    return steps, moves


@dataclass
class TradeoffRow:
    pebbles: int
    gates: int
    min_steps: int | None


def tradeoff_table(T_max: int, k_list) -> list[TradeoffRow]:
    for k in k_list:
        check_dp(T_max, k)
    rows = []
    for k in k_list:
        for T in range(1, T_max + 1):
            steps = _min_steps(T, k)[0]
            rows.append(TradeoffRow(k, T, None if steps == INF else steps))
    return rows


def tradeoff_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["pebbles", "gates", "min_steps"])
    for r in rows:
        w.writerow([r.pebbles, r.gates, "" if r.min_steps is None else r.min_steps])
    return buf.getvalue()
