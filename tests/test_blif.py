import itertools

import pytest

from revc.blif import (
    BlifError, Cover, _Literals, clique_cover, cover_expr, cover_semantics,
    lower, mutually_exclusive, parse_blif, reorder,
)
from revc.boolexpr import VAR, bconst, variables
from revc.circuit import stats, verify
from revc.emitter import compile_flat
from revc.frontend import interpret

from helpers import corpus


def make_blif(cubes, n=3, extra=""):
    names = " ".join(f"x{i}" for i in range(n))
    body = "\n".join(f"{c} 1" for c in cubes)
    return (f".model t\n.inputs {names}\n.outputs y\n"
            f".names {names} y\n{body}\n{extra}.end\n")


EXAMPLE3 = corpus("example3.blif")


def test_parse_example_cover():
    net = parse_blif(EXAMPLE3)
    assert net.model == "example3"
    assert net.inputs == ["x1", "x2", "x3"]
    (c,) = net.covers
    assert c.cubes == ["0-1", "-0-", "111"]
    # semantics: (~x1 & x3) | ~x2 | (x1 & x2 & x3)
    for bits in itertools.product((0, 1), repeat=3):
        x1, x2, x3 = bits
        want = ((not x1) and x3) or (not x2) or (x1 and x2 and x3)
        assert cover_semantics(net, list(bits)) == [int(want)]


def test_all_dontcare_cube_is_constant_true():
    net = parse_blif(make_blif(["----"], n=4))
    for bits in itertools.product((0, 1), repeat=4):
        assert cover_semantics(net, list(bits)) == [1]


def test_single_cube_truth_set():
    net = parse_blif(make_blif(["-01-"], n=4))
    on = {bits for bits in itertools.product((0, 1), repeat=4)
          if cover_semantics(net, list(bits)) == [1]}
    assert on == {(0, 0, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0), (1, 0, 1, 1)}


@pytest.mark.parametrize("directive", [".latch a b", ".clock c", ".subckt sub x=a"])
def test_sequential_and_hierarchical_rejected(directive):
    with pytest.raises(BlifError, match="unsupported"):
        parse_blif(f".model m\n.inputs a\n.outputs b\n{directive}\n.end\n")


def test_off_set_plane_rejected():
    with pytest.raises(BlifError, match="on-set"):
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 0\n.end\n")


def test_malformed_cube_rejected():
    with pytest.raises(BlifError):
        parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n")
    with pytest.raises(BlifError):
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n")


def test_cyclic_netlist_rejected():
    src = (".model m\n.inputs a\n.outputs y\n"
           ".names a y p\n11 1\n.names a p y\n11 1\n.end\n")
    with pytest.raises(BlifError, match="cyclic"):
        parse_blif(src)


# a signal error names the line of its cover, or of its `.outputs`
SIGNAL_ERRORS = {
    "repeated-input": (".model m\n.inputs a\n.outputs c\n"
                       ".names a a c\n11 1\n.end\n",
                       "line 4: signal 'a' appears twice in the cover "
                       "for 'c'"),
    "undefined-input": (".model m\n.inputs x\n.outputs a\n"
                        ".names x a\n1 1\n.names b x2\n1 1\n.end\n",
                        "line 6: undefined signal 'b' in cover for 'x2'"),
    "undefined-output": (".model m\n.inputs a\n.outputs a\n.outputs z\n"
                         ".names a y\n1 1\n.end\n",
                         "line 4: undefined output signal 'z'"),
    "two-covers": (".model m\n.inputs a b\n.outputs y\n"
                   ".names a y\n1 1\n.names b y\n1 1\n.end\n",
                   "line 6: second cover for signal 'y'"),
    "cover-of-input": (".model m\n.inputs a b\n.outputs b\n"
                       ".names a b\n1 1\n.end\n",
                       "line 4: cover for primary input 'b'"),
    "cycle": (".model m\n.inputs a\n.outputs y\n"
              ".names a p y\n11 1\n.names a c p\n11 1\n"
              ".names a p c\n11 1\n.end\n",
              "line 6: cyclic signal dependency through 'p'"),
}


@pytest.mark.parametrize("case", SIGNAL_ERRORS)
def test_signal_errors_name_their_line(case):
    src, error = SIGNAL_ERRORS[case]
    with pytest.raises(BlifError) as exc:
        parse_blif(src)
    assert str(exc.value) == error


def test_mutually_exclusive():
    assert mutually_exclusive("0-1", "1--")
    assert not mutually_exclusive("0-1", "-0-")
    assert mutually_exclusive("11-", "0-1")  # a&b vs ~a&c
    with pytest.raises(BlifError):
        mutually_exclusive("01", "011")


def test_clique_cover_example():
    assert clique_cover(["0-1", "-0-", "111"]) == [[0, 2], [1]]


def test_clique_cover_degenerate_cases():
    # pairwise non-exclusive: all singletons
    assert clique_cover(["1--", "-1-", "--1"]) == [[0], [1], [2]]
    # shared conflicting column: one clique of 5
    cubes = [f"{b:03b}"[0] + f"{b:03b}"[1:] for b in range(5)]
    cubes = ["000", "001", "010", "011", "100"]
    assert clique_cover(cubes) == [[0, 1, 2, 3, 4]]


def test_reorder_preserves_semantics_and_groups_cliques():
    net = parse_blif(EXAMPLE3)
    rnet = reorder(net)
    (c,) = rnet.covers
    assert sorted(c.cubes) == sorted(["0-1", "-0-", "111"])
    assert c.cliques == [[0, 1], [2]]
    for bits in itertools.product((0, 1), repeat=3):
        assert cover_semantics(rnet, list(bits)) == cover_semantics(net, list(bits))


@pytest.mark.parametrize("name", ["example3.blif", "majority.blif", "mux_net.blif"])
@pytest.mark.parametrize("optimize", [False, True])
def test_lowered_program_matches_cover_semantics(name, optimize):
    net = parse_blif(corpus(name))
    prog = lower(net, optimize=optimize)
    for bits in itertools.product((0, 1), repeat=len(net.inputs)):
        assert interpret(prog, list(bits)) == cover_semantics(net, list(bits))


@pytest.mark.parametrize("name", ["example3.blif", "majority.blif", "mux_net.blif"])
def test_compiled_circuits_verify(name):
    net = parse_blif(corpus(name))
    for optimize in (False, True):
        prog = lower(net, optimize=optimize)
        for strategy in ("bennett", "eager"):
            plan, circ = compile_flat(prog, strategy)
            assert verify(prog, circ).ok, (name, optimize, strategy)


def test_optimization_reduces_toffolis():
    net = parse_blif(EXAMPLE3)
    base = compile_flat(lower(net), "eager")[1]
    opt = compile_flat(lower(net, optimize=True), "eager")[1]
    assert stats(opt)["toffoli_count"] < stats(base)["toffoli_count"]


def test_optimization_never_increases_toffolis():
    for name in ("example3.blif", "majority.blif", "mux_net.blif"):
        net = parse_blif(corpus(name))
        base = compile_flat(lower(net), "eager")[1]
        opt = compile_flat(lower(net, optimize=True), "eager")[1]
        assert stats(opt)["toffoli_count"] <= stats(base)["toffoli_count"]


def test_xor_clique_combine_adds_no_toffolis():
    # three pairwise-exclusive minterms form one clique; the XOR combine is
    # pure CNOT structure, so the only Toffolis are the cube ANDs (3 each)
    net = parse_blif(make_blif(["100", "010", "001"]))
    assert clique_cover(net.covers[0].cubes) == [[0, 1, 2]]
    prog = lower(net, optimize=True)
    plan, circ = compile_flat(prog, "eager")
    assert stats(circ)["toffoli_count"] == 9
    base = compile_flat(lower(net), "eager")[1]
    assert stats(base)["toffoli_count"] > 9
    assert verify(prog, circ).ok


def test_single_and_cube_is_one_toffoli():
    net = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
    plan, circ = compile_flat(lower(net), "eager")
    assert stats(circ)["toffoli_count"] == 1


def test_or_of_singletons_bears_toffolis():
    net = parse_blif(make_blif(["1--", "-1-", "--1"]))
    prog = lower(net, optimize=True)
    plan, circ = compile_flat(prog, "eager")
    assert stats(circ)["toffoli_count"] > 0
    assert verify(prog, circ).ok


def test_long_cover_chain_listed_backwards_lowers():
    # covers are ordered by an explicit-stack search, not by recursion
    n = 3000
    covers = [".names a n0\n1 1\n"] + [
        f".names n{i - 1} n{i}\n1 1\n" for i in range(1, n)]
    text = (".model chain\n.inputs a\n.outputs z\n"
            + "".join(reversed(covers)) + f".names n{n - 1} z\n0 1\n.end\n")
    prog = lower(parse_blif(text))
    assert len(prog.statements) == n + 1
    assert [interpret(prog, [b]) for b in (0, 1)] == [[1], [0]]


def leaves(e, out):
    """The ids of e's literal nodes (variables and their negations), by
    literal."""
    if e.op == VAR or e.op == "not" and e.args[0].op == VAR:
        out.setdefault(repr(e), set()).add(id(e))
    if e.op != VAR and e.op != "const":
        for a in e.args:
            leaves(a, out)
    return out


def test_cover_literals_are_shared_and_numbered_by_first_use():
    cover = Cover("y", ["a", "b", "c"], ["-11", "10-", "0-1", "11-"])
    lits = _Literals()
    e = cover_expr(cover, lits)
    assert lits.columns == [1, 2, 0]
    # one node per input and polarity, wherever the cubes read it
    nodes = leaves(e, {})
    assert set(nodes) == {"v0", "v1", "v2", "~v0", "~v2"}
    assert all(len(ids) == 1 for ids in nodes.values())
    # so the lowered statement takes its form as built, its args in order
    # of first use
    prog = lower(parse_blif(make_blif(cover.cubes)))
    (stmt,) = prog.statements
    assert stmt.args == (1, 2, 0)
    assert variables(stmt.form) == {0, 1, 2}


def test_cover_whose_inputs_cancel_reads_none_of_them():
    # not x0, x0 and not x1 in one De Morgan chain: the cover is 1, and
    # the statement reads neither input
    net = parse_blif(make_blif(["0-", "1-", "-0"], n=2))
    prog = lower(net)
    (stmt,) = prog.statements
    assert (stmt.form, stmt.args) == (bconst(True), ())
    _, circ = compile_flat(prog, "eager")
    for bits in itertools.product((0, 1), repeat=2):
        assert interpret(prog, list(bits)) == cover_semantics(
            net, list(bits)) == [1]
    assert verify(prog, circ).ok
