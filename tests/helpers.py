"""What the tests share and the compiler does not run.

Programs from the bundled corpus and bit-vector conversions; references
the tests check the compiler against (a SHA-256 round, synthesis of one
expression in one call, the effects of an in-place block's body found by
walking it, the dependency graph's own evaluation, a brute-force search
of the pebble game and its midpoint DP filled for every budget); the
paper's OneWay/Interdependent classification of mutation paths; and
seeded random straight-line programs.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import replace
from importlib import resources

from revc.ancilla import AncillaHeap
from revc.boolexpr import (
    BoolExp, band, bnot, bor, bvar, bxor, canonical, compile_form,
    synthesis_cost,
)
from revc.frontend import (
    CleanSlot, Compute, FlatProgram, flatten, interpret, parse,
)
from revc.mdd import CLEAN, INIT, INPUT, MDD, OP
from revc.pebble import PLACE, REMOVE


def corpus(name: str) -> str:
    return (resources.files("revc") / "corpus" / name).read_text()


def prog_of(src: str, params=None) -> FlatProgram:
    return flatten(parse(src, params=params))


def ripple(n: int) -> FlatProgram:
    return prog_of(corpus("adder_ripple.rev"), {"n": n})


def chain_program(k: int) -> FlatProgram:
    """t_i = t_{i-1} && t_{i-2}"""
    lines = ["let chain (x : bool[2]) ="]
    prev = ("x.[0]", "x.[1]")
    for i in range(k):
        lines.append(f"    let t{i} = {prev[0]} && {prev[1]}")
        prev = (f"t{i}", prev[0])
    lines += [f"    {prev[0]}", "", "chain"]
    return prog_of("\n".join(lines))


def bits_of(value: int, n: int) -> list[int]:
    return [(value >> i) & 1 for i in range(n)]


def int_of(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


# ---------------------------------------------------------------------------
# hash specifications


def sha256_rounds(k: int, w: int, state: list[int], rounds: int) -> list[int]:
    """The state words a..h after `rounds` SHA-256 rounds (FIPS 180-4,
    section 6.2.2 step 3), each reading the same constant `k` and message
    word `w`, as `sha2.rev` does."""
    mask = (1 << 32) - 1

    def rotr(x, n):
        return (x >> n | x << (32 - n)) & mask

    a, b, c, d, e, f, g, h = state
    for _ in range(rounds):
        s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        t1 = (h + s1 + ch + k + w) & mask
        s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = (s0 + maj) & mask
        e, f, g, h = (d + t1) & mask, e, f, g
        a, b, c, d = (t1 + t2) & mask, a, b, c
    return [a, b, c, d, e, f, g, h]


# ---------------------------------------------------------------------------
# synthesis


def synthesize(e: BoolExp, target: int, heap: AncillaHeap,
               wires: dict[int, int]) -> list[tuple[int, ...]]:
    """Gates mapping target y to y ^ eval(e); inputs and ancillas restored:
    the recipe of e's form, replayed on the wires.

    `wires` maps each variable of e (a value slot) to the wire holding it.
    Every ancilla taken from the heap is uncomputed and returned before
    the sequence ends, so the net heap state is unchanged.
    """
    form, slots = canonical(e)
    gates: list = []
    compile_form(form, len(slots)).replay(
        [target, *[wires[s] for s in slots]], heap, gates, {}.setdefault)
    return gates


def and_cost(e: BoolExp) -> int:
    """Toffoli count of e's recipe; CNOT and NOT are free."""
    return synthesis_cost(e)[1]


# ---------------------------------------------------------------------------
# in-place block bodies


def zero_at_entry(body, locals_) -> set[int]:
    """The slots of a block body that are zero at entry: `locals_`, and
    those whose first touch is a fresh write."""
    zero, touched = set(locals_), set()
    for s in body:
        if isinstance(s, Compute):
            touched.update(s.args)
            if s.fresh and s.slot not in touched:
                zero.add(s.slot)
        touched.add(s.slot)
    return zero


def reopened_locals(body, locals_) -> list[int]:
    """The locals a block's backward run takes wires for before it starts:
    those of `locals_` that `body` writes fresh and does not clean
    afterwards, which the forward run released at the block's end."""
    live: set[int] = set()
    for s in body:
        if isinstance(s, Compute) and s.fresh:
            live.add(s.slot)
        elif isinstance(s, CleanSlot):
            live.discard(s.slot)
    return [l for l in locals_ if l in live]


def block_delta(body, locals_) -> int:
    """The live-count change of a block's forward run: a wire per fresh
    write of its body, less one per clean and one per reopened local."""
    return (sum(s.fresh if isinstance(s, Compute) else -1 for s in body)
            - len(reopened_locals(body, locals_)))


# ---------------------------------------------------------------------------
# dependency graph

ONE_WAY = "OneWay"
INTERDEPENDENT = "Interdependent"


def mutation_paths(g: MDD) -> list:
    """All maximal mutation paths (heads are Init or Input nodes)."""
    heads = [n.id for n in g.nodes
             if g.mutation_prev.get(n.id) is None
             and (n.id in g.mutation_next or n.kind in (INIT, INPUT))]
    paths = []
    for h in heads:
        p = [h]
        while p[-1] in g.mutation_next:
            p.append(g.mutation_next[p[-1]])
        paths.append(p)
    return paths


def classify_paths(g: MDD) -> dict:
    """Pairwise OneWay/Interdependent classification of mutation paths."""
    paths = mutation_paths(g)
    member_of = {}
    for i, p in enumerate(paths):
        for nid in p:
            member_of[nid] = i
    out = {}
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            fwd = bwd = False  # i->j and j->i cross dependencies
            for nid in paths[j]:
                for src in g.reads.get(nid, ()):
                    if member_of.get(src) == i:
                        fwd = True
            for nid in paths[i]:
                for src in g.reads.get(nid, ()):
                    if member_of.get(src) == j:
                        bwd = True
            out[(i, j)] = INTERDEPENDENT if (fwd and bwd) else ONE_WAY
    return out


def evaluate_mdd(g: MDD, bits) -> list[int]:
    """Run each emission unit once, in node (topological) order.

    Cross-checks graph construction against `interpret` on the statements.
    """
    units: dict[int, object] = {}
    for n in g.nodes:
        if n.kind in (OP, CLEAN):
            units.setdefault(n.stmt_index, n.stmt)
    return interpret(replace(g.program, statements=list(units.values())), bits)


# ---------------------------------------------------------------------------
# pebble game


def exhaustive_min_steps(T: int, k: int):
    """Brute-force BFS over game states, the referee for
    `pebble.knill_optimal`; None if unreachable.

    States are bitmasks of pebbled nodes, so keep T small (<= ~20).
    """
    if T == 0:
        return 0
    start, goal = 0, 1 << (T - 1)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        if s == goal:
            return dist[s]
        count = bin(s).count("1")
        for i in range(1, T + 1):
            if i > 1 and not (s >> (i - 2)) & 1:
                continue
            bit = 1 << (i - 1)
            if s & bit:
                t = s ^ bit
            else:
                if count >= k:
                    continue
                t = s | bit
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return None


@functools.lru_cache(maxsize=None)
def reference_min_steps(n: int, k: int) -> tuple:
    """`pebble._min_steps` filled by the midpoint DP for every k, k >= n
    included: the minimal moves and the first midpoint reaching them."""
    if n == 0:
        return 0, 0
    if k <= 0:
        return float("inf"), 0
    if n == 1:
        return 1, 0
    best, best_j = float("inf"), 0
    for j in range(1, n):
        c = (reference_min_steps(j, k)[0] + reference_min_steps(n - j, k - 1)[0]
             + reference_min_steps(j, k - 1)[0])
        if c < best:
            best, best_j = c, j
    return best, best_j


def reference_moves(n: int, k: int, base: int = 0) -> list[tuple[str, int]]:
    """The play of `reference_min_steps`' midpoints, as (action, node)."""
    if n == 0:
        return []
    if n == 1:
        return [(PLACE, base + 1)]
    j = reference_min_steps(n, k)[1]
    back = [(REMOVE if a == PLACE else PLACE, node)
            for a, node in reversed(reference_moves(j, k - 1, base))]
    return (reference_moves(j, k, base)
            + reference_moves(n - j, k - 1, base + j) + back)


# ---------------------------------------------------------------------------
# seeded random straight-line programs
#
# Every generated statement is a fresh write over previously defined values,
# so no value is ever mutated: each wire has a single-operation modification
# path and all cross-path dependencies point backwards.  On such programs
# the eager scheduler should always achieve a full early cleanup.


def _random_expr(rng: random.Random, live: list[int], depth: int):
    if depth <= 0 or rng.random() < 0.35:
        return bvar(rng.choice(live))
    op = rng.choice(("and", "xor", "or", "not"))
    if op == "not":
        return bnot(_random_expr(rng, live, depth - 1))
    k = rng.randint(2, 3)
    args = [_random_expr(rng, live, depth - 1) for _ in range(k)]
    return {"and": band, "xor": bxor, "or": bor}[op](args)


def random_program(seed: int, n_inputs: int | None = None,
                   n_stmts: int | None = None) -> FlatProgram:
    rng = random.Random(seed)
    n = n_inputs if n_inputs is not None else rng.randint(2, 6)
    m = n_stmts if n_stmts is not None else rng.randint(3, 12)
    input_slots = list(range(n))
    live = list(input_slots)
    statements = []
    next_slot = n
    for _ in range(m):
        expr = _random_expr(rng, live, depth=3)
        if expr.op == "const":  # constant folding collapsed it; use a var
            expr = bvar(rng.choice(live))
        statements.append(Compute(next_slot, expr, fresh=True))
        live.append(next_slot)
        next_slot += 1
    temps = live[n:]
    n_out = rng.randint(1, max(1, len(temps)))
    output_slots = sorted(rng.sample(temps, n_out)) if temps else [input_slots[0]]
    return FlatProgram(name=f"rand{seed}", input_slots=input_slots,
                       output_slots=output_slots, statements=statements,
                       slot_count=next_slot,
                       input_layout=[(f"x{i}", 1) for i in range(n)])
