"""Machine-speed probe that the benchmark scales its timings by.

On a shared virtual machine the same pure-Python code runs up to 50%
faster or slower from one minute to the next, and for minutes at a time,
so unscaled medians of runs made a few minutes apart spread by 15-30%.
`probe` times a fixed kernel that never touches revc but does what revc's
hot loops do: recursive evaluation of boolean expression trees over a dict
environment.  The benchmark runs it before and after every job and scales
the job's times by REFERENCE_S / (mean of the two probes).  Timings are
therefore seconds on a machine where the probe takes REFERENCE_S; the
report file keeps the unscaled seconds and the probe times next to them.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 0.02  # median probe time, 2-vCPU Intel Xeon VM, Python 3.11

_rng = random.Random(20240601)


def _tree(depth: int):
    if depth == 0:
        return ("var", _rng.randrange(64))
    if _rng.random() < 0.2:
        return ("not", _tree(depth - 1))
    return (_rng.choice(("and", "xor")),
            tuple(_tree(depth - 1) for _ in range(_rng.randint(2, 3))))


_TREES = [_tree(6) for _ in range(8)]
_ENVS = [{i: _rng.randrange(2) for i in range(64)} for _ in range(64)]


def _eval(e, env: dict) -> int:
    op = e[0]
    if op == "var":
        return env[e[1]]
    if op == "not":
        return 1 ^ _eval(e[1], env)
    r = op == "and"
    for c in e[1]:
        r = r & _eval(c, env) if op == "and" else r ^ _eval(c, env)
    return int(r)


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    for env in _ENVS:
        for tree in _TREES:
            _eval(tree, env)
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two probes."""
    return 2 * REFERENCE_S / (before + after)
