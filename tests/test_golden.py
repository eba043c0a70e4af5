"""Golden gate lists: the sha256 of every emitted circuit, pinned.

A refactor that claims "same behaviour" must leave every hash here
unchanged; a change that alters circuits on purpose updates this table
and says so.
"""

import hashlib
from importlib import resources

import pytest

from revc import blif
from revc.circuit import format_circuit
from revc.emitter import compile_flat
from revc.frontend import flatten, parse
from revc.scheduler import BudgetError

CORPUS = resources.files("revc") / "corpus"

REV_GOLDEN = {
    ("adder_ripple.rev", "n=40", "bennett", None):
        "9f5758593e0345ff9ce034fb5783b41f74fcfac730b52734504fbfd85e5be776",
    ("adder_ripple.rev", "n=40", "eager", None):
        "b2928444b5d77264fbba031c683a44943683e860702ea1daad67965ca8db5390",
    ("adder_ripple.rev", "n=40", "incremental", None):
        "9f5758593e0345ff9ce034fb5783b41f74fcfac730b52734504fbfd85e5be776",
    ("adder_select.rev", "", "bennett", None):
        "6d34b2b45c662f0cac372b3c6539fd1c4155b4811da96535ed26970b283e54b0",
    ("adder_select.rev", "", "eager", None):
        "0d5422d8d00c2d9777ac804a3d1d67d491b106c157cfa59d4b6bddb5d128bfbf",
    ("adder_select.rev", "", "incremental", None):
        "6d34b2b45c662f0cac372b3c6539fd1c4155b4811da96535ed26970b283e54b0",
    ("sha2.rev", "rounds=4", "bennett", None):
        "c59357dd137042d5669bed7288b7b1ca9370e17a5c8fa4d114b420738c4da828",
    ("sha2.rev", "rounds=4", "eager", None):
        "448e18037a3fc4ee85951abbeec0923543b42cf13587f8ac7563072e07b2a066",
    ("sha2.rev", "rounds=4", "incremental", None):
        "c59357dd137042d5669bed7288b7b1ca9370e17a5c8fa4d114b420738c4da828",
    ("sha2.rev", "rounds=4", "incremental", 672):
        "448ea6e2fdbbbf414cd55c748810533dee7bf73aee08ba4fd988e6511f9924af",
    ("sha2.rev", "rounds=8", "incremental", 900):
        "99a07f643fda5b7811c4c7bf9ba2d34b8c3debeecc0321020fdbc9e8bd4b35f8",
    ("sha2.rev", "rounds=8", "incremental", 1200):
        "69de0d43fe28122dcbf05fadf8dde7f1b1545982f33b046b1ae32c1d245d8915",
    ("sha2.rev", "rounds=16", "eager", None):
        "4cebb5b47f1ee37cd330672a20bdaac2a0d0ec9eca3e1a4ba516c4df0e3bb750",
    ("md5.rev", "rounds=2", "bennett", None):
        "ad10d2cbdc9dc17f3d1ce3ddc3ec2a15ccb8da20f558f907d75699965f781ba6",
    ("md5.rev", "rounds=2", "eager", None):
        "2860c03ee5f0971465f7620dfadd4a4568ad60fa62fa589513d939ce33f683e8",
    ("md5.rev", "rounds=2", "incremental", None):
        "ad10d2cbdc9dc17f3d1ce3ddc3ec2a15ccb8da20f558f907d75699965f781ba6",
    ("md5.rev", "rounds=2", "incremental", 800):
        "f5ef84f80211dc0a13dcbbe34d22b93067aec556ae9ba60deae395166abe5d6d",
    ("md5.rev", "rounds=4", "eager", None):
        "84475ad7727a563120613437b5fc040b84eec895f382b722cb3d0ff0d475a5c3",
}

# the smallest budget an infeasible incremental request reports: the
# outcome of the budget search, pinned like a gate list
MINIMUM_GOLDEN = {
    ("sha2.rev", "rounds=4", 600): 672,
    ("sha2.rev", "rounds=8", 600): 896,
    ("md5.rev", "rounds=2", 600): 800,
    ("md5.rev", "rounds=4", 700): 864,
}

BLIF_GOLDEN = {
    ("example3.blif", False, "bennett"):
        "dad6b96af3b03ced5a0f390cfbfeb05e9741fa5e3232a5f694c976794af4c94f",
    ("example3.blif", False, "eager"):
        "7366c39022282a22fa574fc97cc1ce09701d1b623b7e088849a3a64c5ad1a473",
    ("example3.blif", False, "incremental"):
        "dad6b96af3b03ced5a0f390cfbfeb05e9741fa5e3232a5f694c976794af4c94f",
    ("example3.blif", True, "bennett"):
        "031d8fbead84495f99ed57a7241a6ad198b07f4b1b11a644f86158a596b71fb1",
    ("example3.blif", True, "eager"):
        "6c9f0b48a2b23ed61982c06c1ec7fb27abd6a2aa3a2ecd526969d202fcb53956",
    ("example3.blif", True, "incremental"):
        "031d8fbead84495f99ed57a7241a6ad198b07f4b1b11a644f86158a596b71fb1",
    ("majority.blif", False, "bennett"):
        "f2febecd5a8936b6a66b8b695e9087ab60c25f584595749a996954f888ad86c8",
    ("majority.blif", False, "eager"):
        "8c42196f8a5466a10773d23f33f5f5dab73c0b74daeba34f9fd08a9dfb2e8958",
    ("majority.blif", False, "incremental"):
        "f2febecd5a8936b6a66b8b695e9087ab60c25f584595749a996954f888ad86c8",
    ("majority.blif", True, "bennett"):
        "61f3c32f4f05e758115a41e9045cf4ba24f92fb0e24ffb85f5a507fcf441ab8a",
    ("majority.blif", True, "eager"):
        "2edcf010b714599fb78a4a79c9ea20703c5493ba47acebd786f6a02e75a53e19",
    ("majority.blif", True, "incremental"):
        "61f3c32f4f05e758115a41e9045cf4ba24f92fb0e24ffb85f5a507fcf441ab8a",
    ("mux_net.blif", False, "bennett"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
    ("mux_net.blif", False, "eager"):
        "e4078b0ca01ac02caebbb7ecd9016c3f717e25b6ec10708e5b36b2fa03c2ae33",
    ("mux_net.blif", False, "incremental"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
    ("mux_net.blif", True, "bennett"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
    ("mux_net.blif", True, "eager"):
        "e4078b0ca01ac02caebbb7ecd9016c3f717e25b6ec10708e5b36b2fa03c2ae33",
    ("mux_net.blif", True, "incremental"):
        "032c4c9e4c68e58014280811bd294c186f5838e0dcb23cdd03613b93e649ae4b",
}


# One expression reads four unwritten `Array.zeroCreate` elements (slots
# 4, 7, 11, 15) in the order z.[11], z.[3], z.[7], z.[0].  They take wires
# in `variables(expr)` order, not in reading order, and these hashes pin
# that.
ZERO_READS = """\
let f (a : bool[4]) =
    let z = Array.zeroCreate 12
    let out = Array.zeroCreate 2
    out.[0] <- (z.[11] && a.[0]) <> (z.[3] && a.[1]) <> z.[7] <> (a.[2] && z.[0])
    out.[1] <- a.[3] <> out.[0]
    out

f
"""

ZERO_READS_GOLDEN = {
    "bennett": "99911acad5bf7bfd085468d486232b59df74ca51a18b70f753ce653fc53deb57",
    "eager": "49aec5832fd86ed347856396999103f7352f5f4c635cdb575115226679565842",
    "incremental": "99911acad5bf7bfd085468d486232b59df74ca51a18b70f753ce653fc53deb57",
}


def digest(circ) -> str:
    return hashlib.sha256(format_circuit(circ).encode()).hexdigest()


def parse_params(text: str) -> dict:
    return {k: int(v) for k, v in (p.split("=") for p in text.split(",") if p)}


@pytest.mark.parametrize("name,params,strategy,budget", sorted(
    REV_GOLDEN, key=str))
def test_rev_gate_list_is_pinned(name, params, strategy, budget):
    src = (CORPUS / name).read_text()
    flat = flatten(parse(src, params=parse_params(params) or None))
    _, circ = compile_flat(flat, strategy, qubit_budget=budget)
    assert digest(circ) == REV_GOLDEN[(name, params, strategy, budget)]


@pytest.mark.parametrize("name,params,budget", sorted(MINIMUM_GOLDEN, key=str))
def test_reported_minimum_budget_is_pinned(name, params, budget):
    src = (CORPUS / name).read_text()
    flat = flatten(parse(src, params=parse_params(params)))
    with pytest.raises(BudgetError) as exc:
        compile_flat(flat, "incremental", qubit_budget=budget)
    assert exc.value.minimum == MINIMUM_GOLDEN[(name, params, budget)]


@pytest.mark.parametrize("name,optimize,strategy", sorted(BLIF_GOLDEN, key=str))
def test_blif_gate_list_is_pinned(name, optimize, strategy):
    net = blif.parse_blif((CORPUS / name).read_text())
    _, circ = compile_flat(blif.lower(net, optimize=optimize), strategy)
    assert digest(circ) == BLIF_GOLDEN[(name, optimize, strategy)]


@pytest.mark.parametrize("strategy", sorted(ZERO_READS_GOLDEN))
def test_unwritten_reads_materialize_in_pinned_order(strategy):
    _, circ = compile_flat(flatten(parse(ZERO_READS)), strategy)
    assert digest(circ) == ZERO_READS_GOLDEN[strategy]
