import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revc.ancilla import AncillaHeap
from revc.boolexpr import (
    AND, CONST, NOT_, VAR, XOR, band, bconst, bnot, bor, bvar, bxor,
    canonical, check_recipe, compile_form, evaluate, gate_count, instantiate,
    variables,
)
from revc.circuit import TOFFOLI, Circuit, cnot, kind, notg, simulate, toffoli

from helpers import and_cost, synthesize


def reference_synthesize(e, target, heap, wires):
    """Direct recursive synthesis, the way it was done before recipes:
    the reference that compiled recipes must reproduce gate for gate and
    heap operation for heap operation."""
    if target in wires.values():
        raise ValueError(f"target wire {target} appears inside the expression")
    gates = []
    _emit(e, target, heap, gates, wires)
    return gates


def _emit(e, target, heap, gates, wires):
    if e.op == VAR:
        gates.append(cnot(wires[e.args[0]], target))
    elif e.op == CONST:
        if e.args[0]:
            gates.append(notg(target))
    elif e.op == NOT_:
        _emit(e.args[0], target, heap, gates, wires)
        gates.append(notg(target))
    elif e.op == XOR:
        for c in e.args:
            _emit(c, target, heap, gates, wires)
    else:
        assert e.op == AND
        _emit_and(e.args, target, heap, gates, wires)


def _emit_and(children, target, heap, gates, wires):
    controls, toggles, temps = [], [], []
    for c in children:
        if c.op == VAR:
            controls.append(wires[c.args[0]])
        elif c.op == NOT_ and c.args[0].op == VAR:
            w = wires[c.args[0].args[0]]
            controls.append(w)
            toggles.append(w)
        else:
            t = heap.alloc()
            _emit(c, t, heap, gates, wires)
            temps.append((t, c))
            controls.append(t)
    for w in toggles:
        gates.append(notg(w))
    k = len(controls)
    if k == 1:
        gates.append(cnot(controls[0], target))
    elif k == 2:
        gates.append(toffoli(controls[0], controls[1], target))
    else:
        chain, compute = [], []
        for i in range(k - 2):
            a = heap.alloc()
            first = controls[0] if i == 0 else chain[-1]
            compute.append(toffoli(first, controls[i + 1], a))
            chain.append(a)
        gates.extend(compute)
        gates.append(toffoli(chain[-1], controls[-1], target))
        gates.extend(reversed(compute))
        for a in reversed(chain):
            heap.free(a)
    for w in reversed(toggles):
        gates.append(notg(w))
    for t, c in reversed(temps):
        sub = []
        _emit(c, t, heap, sub, wires)
        gates.extend(reversed(sub))
        heap.free(t)


def identity(e):
    return {v: v for v in variables(e)}


def run_on(e, n_vars, assignment, target_value=0):
    """Simulate synthesize(e) with inputs on wires 0..n-1 and target on wire n."""
    heap = AncillaHeap(base=n_vars + 1)
    gates = synthesize(e, n_vars, heap, identity(e))
    width = max([n_vars + 1] + [max(g) + 1 for g in gates])
    circ = Circuit(width, gates, list(range(n_vars)), [n_vars])
    state = list(assignment) + [target_value] + [0] * (width - n_vars - 1)
    return circ, simulate(circ, state)


def check_exhaustive(e, n_vars):
    for bits in itertools.product([0, 1], repeat=n_vars):
        for y in (0, 1):
            circ, out = run_on(e, n_vars, bits, y)
            env = dict(enumerate(bits))
            assert out[n_vars] == y ^ evaluate(e, env)
            assert out[:n_vars] == list(bits), "inputs must be unchanged"
            assert all(b == 0 for b in out[n_vars + 1:]), "ancillas must end at 0"
            toff = sum(1 for g in circ.gates if kind(g) == TOFFOLI)
            assert toff == and_cost(e)


def test_and_pair_is_single_toffoli():
    e = band([bvar(0), bvar(1)])
    heap = AncillaHeap(base=3)
    gates = synthesize(e, 2, heap, identity(e))
    assert len(gates) == 1 and kind(gates[0]) == TOFFOLI
    check_exhaustive(e, 2)


def test_xor_three_is_three_cnots():
    e = bxor([bvar(0), bvar(1), bvar(2)])
    heap = AncillaHeap(base=4)
    gates = synthesize(e, 3, heap, identity(e))
    assert [kind(g) for g in gates] == ["cnot"] * 3
    assert and_cost(e) == 0
    check_exhaustive(e, 3)


def test_and4_five_toffolis_two_ancillas():
    e = band([bvar(i) for i in range(4)])
    heap = AncillaHeap(base=5)
    gates = synthesize(e, 4, heap, identity(e))
    assert sum(1 for g in gates if kind(g) == TOFFOLI) == 2 * (4 - 2) + 1
    assert heap.frontier - heap.base == 2
    assert heap.live_count == 0
    check_exhaustive(e, 4)


def test_eval_examples():
    assert evaluate(band([bvar(0), bvar(1)]), {0: 1, 1: 0}) == 0
    assert evaluate(bxor([bvar(0), bvar(0)]), {0: 1}) == 0


def test_factored_majority_agrees_but_costs_less():
    # ab ^ ac ^ bc versus a(b ^ c) ^ bc
    a, b, c = bvar(0), bvar(1), bvar(2)
    plain = bxor([band([a, b]), band([a, c]), band([b, c])])
    factored = bxor([band([a, bxor([b, c])]), band([b, c])])
    assert and_cost(plain) == 3
    assert and_cost(factored) == 2
    for bits in itertools.product([0, 1], repeat=3):
        env = dict(enumerate(bits))
        assert evaluate(plain, env) == evaluate(factored, env)
    check_exhaustive(plain, 3)
    check_exhaustive(factored, 3)


def test_or_desugar():
    e = bor([bvar(0), bvar(1)])
    assert and_cost(e) == 1
    check_exhaustive(e, 2)
    check_exhaustive(bor([bvar(0), bvar(1), bvar(2)]), 3)


def fold_or(children):
    """OR as `bor` lowered it before De Morgan: ab ^ a ^ b, left to right."""
    e = children[0]
    for c in children[1:]:
        e = bxor([band([e, c]), e, c])
    return e


@pytest.mark.parametrize("k", [3, 4, 14, 200])
def test_k_way_or_is_one_toffoli_chain(k):
    e = bor([bvar(i) for i in range(k)])
    heap = AncillaHeap(base=k + 1)
    gates = synthesize(e, k, heap, identity(e))
    # k NOTs on, the chain, k NOTs off, one NOT on the target
    assert sum(1 for g in gates if kind(g) == TOFFOLI) == 2 * (k - 2) + 1
    assert len(gates) == gate_count(e) == 2 * k + 2 * (k - 2) + 2
    assert heap.frontier - heap.base == k - 2
    if k <= 4:
        check_exhaustive(e, k)


def test_or_negations_cancel():
    x, y, z = bvar(0), bvar(1), bvar(2)
    # `not x` reaches bor as x ^ 1, and a nested OR as a NOT
    assert bor([bxor([x, bconst(True)]), y, z]) == bnot(
        band([x, bnot(y), bnot(z)]))
    assert bor([bor([x, y, z]), bvar(3), bvar(4)]) == bnot(band(
        [bnot(x), bnot(y), bnot(z), bnot(bvar(3)), bnot(bvar(4))]))
    assert bor([x, bconst(False), y, z]) == bor([x, y, z])
    assert bor([x, bconst(True), y]) == bconst(True)


@st.composite
def or_operands(draw, n_vars=5):
    """A literal, a negated literal (as ~x or as x ^ 1), a cube or an XOR
    group of cubes: what the frontends pass to `bor`."""
    var = st.integers(0, n_vars - 1).map(bvar)
    kind = draw(st.sampled_from(["var", "not", "xor-true", "cube", "group"]))
    if kind == "var":
        return draw(var)
    if kind == "not":
        return bnot(draw(var))
    if kind == "xor-true":
        return bxor([draw(var), bconst(True)])
    cube = st.lists(st.one_of(var, var.map(bnot)), min_size=2,
                    max_size=4).map(band)
    if kind == "cube":
        return draw(cube)
    return bxor(draw(st.lists(cube, min_size=2, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(st.lists(or_operands(), min_size=2, max_size=6))
def test_bor_is_or_counted_exactly_and_no_worse_than_the_fold(children):
    n = 5
    e = bor(children)
    for bits in itertools.product([0, 1], repeat=n):
        env = dict(enumerate(bits))
        assert evaluate(e, env) == max(evaluate(c, env) for c in children)
    gates = synthesize(e, n, AncillaHeap(base=n + 1), identity(e))
    assert gate_count(e) == len(gates)
    if len(children) == 2:
        old = fold_or(children)
        old_gates = synthesize(old, n, AncillaHeap(base=n + 1), identity(old))
        assert len(gates) <= len(old_gates)
        assert (sum(1 for g in gates if kind(g) == TOFFOLI)
                <= sum(1 for g in old_gates if kind(g) == TOFFOLI))


def test_not_and_const():
    check_exhaustive(bnot(bvar(0)), 1)
    check_exhaustive(bxor([bvar(0), bconst(True)]), 1)
    check_exhaustive(band([bnot(bvar(0)), bvar(1)]), 2)
    check_exhaustive(bnot(band([bnot(bvar(0)), bnot(bvar(1)), bnot(bvar(2))])), 3)


def test_xor_cancels_repeated_literals():
    v1, v2 = bvar(1), bvar(2)
    assert bxor([v1, v1]) == bconst(False)
    assert bxor([v1, v2, v1]) == v2
    # an odd count keeps one, at its first place; ~x pairs cancel too
    assert bxor([v1, v2, v1, v1]) == bxor([v1, v2])
    assert bxor([bnot(v1), v2, bnot(v1)]) == v2
    assert bxor([bxor([v1, v2]), v1, bconst(True)]) == bxor([v2, bconst(True)])
    # only literals: repeated cubes are left to the frontends
    cube = band([v1, v2])
    assert bxor([cube, cube]).args == (cube, cube)


def test_xor_cost_zero_and_pair_one():
    assert and_cost(bxor([bvar(0), bvar(1)])) == 0
    assert and_cost(band([bvar(0), bvar(1)])) == 1


def test_target_inside_expression_rejected():
    with pytest.raises(ValueError):
        synthesize(band([bvar(0), bvar(1)]), 1, AncillaHeap(base=2), {0: 0, 1: 1})


@st.composite
def exprs(draw, n_vars=6, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(0, 9)) == 0:
            return bconst(draw(st.booleans()))
        return bvar(draw(st.integers(0, n_vars - 1)))
    op = draw(st.sampled_from(["and", "xor", "not"]))
    if op == "not":
        return bnot(draw(exprs(n_vars=n_vars, depth=depth - 1)))
    kids = draw(st.lists(exprs(n_vars=n_vars, depth=depth - 1), min_size=1, max_size=4))
    return band(kids) if op == "and" else bxor(kids)


@settings(max_examples=60, deadline=None)
@given(exprs(), st.integers(0, 63), st.booleans())
def test_synthesis_matches_eval(e, bits_seed, y):
    n = 6
    bits = [(bits_seed >> i) & 1 for i in range(n)]
    circ, out = run_on(e, n, bits, int(y))
    env = dict(enumerate(bits))
    assert out[n] == int(y) ^ evaluate(e, env)
    assert out[:n] == bits
    assert all(b == 0 for b in out[n + 1:])
    assert sum(1 for g in circ.gates if kind(g) == TOFFOLI) == and_cost(e)


@settings(max_examples=100, deadline=None)
@given(exprs(), st.permutations(range(10)), st.integers(0, 2 ** 10 - 1),
       st.lists(st.booleans(), min_size=6, max_size=6), st.booleans())
def test_synthesis_returns_the_heap_as_it_found_it(e, perm, bits_seed, busy, y):
    # the incremental planner counts live wires without synthesizing; that
    # is exact only if synthesis hands back every scratch wire it takes.
    # Variables sit on permuted wires, and the heap has live wires and
    # free holes of its own when synthesis starts.  Wires synthesis was
    # first to use join the free set, so later allocations still get the
    # same wires as if it had not run.
    n = 6
    wires = {v: perm[v] for v in variables(e)}
    target = perm[n]
    heap = AncillaHeap(base=10)
    held = [heap.alloc() for _ in busy]
    for w, keep in zip(held, busy):
        if not keep:
            heap.free(w)
    live, free, frontier = heap.live_count, sorted(heap.state()[0]), heap.frontier
    gates = synthesize(e, target, heap, wires)
    assert heap.live_count == live
    assert sorted(heap.state()[0]) == free + list(range(frontier, heap.frontier))
    assert sum(1 for g in gates if kind(g) == TOFFOLI) == and_cost(e)

    width = max([heap.frontier] + [max(g) + 1 for g in gates])
    state = [(bits_seed >> w) & 1 for w in range(10)] + [0] * (width - 10)
    for w, keep in zip(held, busy):
        state[w] = int(keep)
    state[target] = int(y)
    out = simulate(Circuit(width, gates, [], []), state)
    value = evaluate(e, {v: state[w] for v, w in wires.items()})
    assert out[target] == int(y) ^ value
    assert out[:target] + out[target + 1:] == state[:target] + state[target + 1:]


class LoggingHeap(AncillaHeap):
    """An ancilla heap that records every alloc and free, in order."""

    def __init__(self, base):
        super().__init__(base)
        self.log = []

    def alloc(self):
        w = super().alloc()
        self.log.append(("alloc", w))
        return w

    def free(self, w):
        super().free(w)
        self.log.append(("free", w))


def busy_heap(base, busy):
    heap = LoggingHeap(base)
    held = [heap.alloc() for _ in busy]
    for w, keep in zip(held, busy):
        if not keep:
            heap.free(w)
    heap.log.clear()
    return heap


def check_replay(e, perm, busy):
    wires = {v: perm[v] for v in variables(e)}
    target = perm[8]
    old, new = busy_heap(12, busy), busy_heap(12, busy)
    expected = reference_synthesize(e, target, old, wires)
    assert synthesize(e, target, new, wires) == expected
    assert new.log == old.log
    assert new.state() == old.state()
    assert gate_count(e) == len(expected)


@st.composite
def branchy_exprs(draw, depth=4):
    """Like `exprs`, with a leaf only one time in four above the bottom,
    so that ANDs often have several computed conjuncts."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(exprs(n_vars=8, depth=0))
    op = draw(st.sampled_from(["and", "and", "xor", "not"]))
    if op == "not":
        return bnot(draw(branchy_exprs(depth=depth - 1)))
    kids = draw(st.lists(branchy_exprs(depth=depth - 1), min_size=1,
                         max_size=4))
    return band(kids) if op == "and" else bxor(kids)


@settings(max_examples=200, deadline=None)
@given(st.one_of(exprs(n_vars=8, depth=4), branchy_exprs()),
       st.permutations(range(12)), st.lists(st.booleans(), max_size=8))
def test_recipe_replay_matches_recursive_synthesis(e, perm, busy):
    check_replay(e, perm, busy)


@settings(max_examples=200, deadline=None)
@given(st.one_of(exprs(n_vars=8, depth=4), branchy_exprs()))
def test_synthesized_recipes_pass_the_recipe_check(e):
    # `compile_form` does not call `check_recipe`, which its recipes pass
    # by construction; the whole-recipe check is the reference
    form, args = canonical(e)
    check_recipe(compile_form(form, len(args)))


V = [bvar(i) for i in range(8)]


@pytest.mark.parametrize("e", [
    band([bxor(V[0:2]), bxor(V[2:4])]),  # two computed conjuncts
    band([bnot(V[0]), V[1], bnot(V[2]), V[3], bxor(V[4:6])]),  # chain
    band([band([V[0], bxor(V[1:3])]), bxor([band(V[3:6]), V[6]]),
          bnot(V[7])]),
    bxor([bor(V[0:4]), bconst(True)]),
])
def test_recipe_replay_matches_recursive_synthesis_on_nested_ands(e):
    check_replay(e, list(range(11, -1, -1)), [True, False, True])


def test_one_recipe_serves_every_renaming():
    a, b, c = bvar(3), bvar(9), bvar(5)
    e1 = bxor([band([a, bxor([b, c])]), band([b, c])])
    e2 = bxor([band([c, bxor([a, b])]), band([a, b])])
    (f1, s1), (f2, s2) = canonical(e1), canonical(e2)
    assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
    assert (s1, s2) == ((3, 9, 5), (5, 3, 9))
    recipe = compile_form(f1, 3)
    for e, slots in ((e1, s1), (e2, s2)):
        wires = {s: 10 + s for s in slots}
        heap = AncillaHeap(base=30)
        got = []
        recipe.replay([0, *(wires[s] for s in slots)], heap, got,
                      {}.setdefault)
        assert got == reference_synthesize(e, 0, AncillaHeap(base=30), wires)


def shared_doubling(levels):
    """Each level ANDs two XORs that both hold the level below."""
    e = bvar(0)
    for _ in range(levels):
        e = band([bxor([e, bvar(1)]), bxor([e, bvar(2)])])
    return e


def test_gate_count_is_linear_in_the_dag():
    # every level uses the one below twice, and the AND computes and
    # uncomputes both: the tree it synthesizes is exponential, the gate
    # and Toffoli counts are not
    e = shared_doubling(40)
    assert gate_count(e) > 10 ** 18
    assert and_cost(e) > 10 ** 18
    small = shared_doubling(3)
    gates = synthesize(small, 3, AncillaHeap(base=4), identity(small))
    assert gate_count(small) == len(gates)
    assert and_cost(small) == sum(1 for g in gates if kind(g) == TOFFOLI)


@settings(max_examples=100, deadline=None)
@given(st.one_of(exprs(n_vars=8, depth=4), branchy_exprs()),
       st.lists(st.integers(0, 2 ** 12 - 1), min_size=8, max_size=8))
def test_packed_evaluation_is_per_lane_evaluation(e, columns):
    # 8 live lanes; the columns also carry bits above them, which the
    # result must not show
    mask = 0xFF
    env = dict(enumerate(columns))
    lanes = [evaluate(e, {v: c >> i & 1 for v, c in env.items()})
             for i in range(8)]
    assert evaluate(e, env, mask) == sum(b << i for i, b in enumerate(lanes))


@settings(max_examples=100, deadline=None)
@given(st.one_of(exprs(n_vars=8, depth=4), branchy_exprs()),
       st.permutations(range(8)))
def test_canonical_form_is_the_expression_over_positions(e, names):
    # the form reads positions 0..k-1 in order of first use, position i
    # standing for args[i]
    form, args = canonical(e)
    assert instantiate(form, args) == e
    assert first_uses(form, []) == list(range(len(args)))
    assert first_uses(e, []) == list(args)
    # relabelled variables give the same form, with the args relabelled
    relabelled = instantiate(form, [names[v] for v in args])
    assert canonical(relabelled) == (form, tuple(names[v] for v in args))


def first_uses(e, out):
    """The variables of e in order of first use, appended to `out`."""
    if e.op == VAR:
        if e.args[0] not in out:
            out.append(e.args[0])
    elif e.op != CONST:
        for c in e.args:
            first_uses(c, out)
    return out


def test_canonical_keeps_nodes_that_keep_their_numbers():
    x, y = bvar(0), bvar(1)
    e = bxor([band([x, bnot(y)]), band([x, y]), bnot(y)])
    form, args = canonical(e)
    assert form is e and args == (0, 1)
    # renumbered nodes are new, and a shared subtree stays shared
    shared = band([bvar(4), bvar(2)])
    e = bxor([shared, bnot(shared), bvar(3)])
    form, args = canonical(e)
    assert args == (4, 2, 3)
    assert form.args[1].args[0] is form.args[0]
    assert form == bxor([band([x, y]), bnot(band([x, y])), bvar(2)])
    # a constant or a single variable is a form too
    assert canonical(bconst(True)) == (bconst(True), ())
    assert canonical(bvar(7)) == (bvar(0), (7,))
