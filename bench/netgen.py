"""Seeded multi-level BLIF netlists for the `netlist` workload.

Every cover takes its cube patterns from a fixed library drawn once from a
constant seed, so each workload seed yields the same multiset of covers and
hence the same Toffoli, CNOT and NOT totals.  The workload seed decides where
each library cover sits in the netlist and which signals feed it, which is
what varies the graph shape (depth, fan-out, value lifetimes) the scheduler
sees.  Without the fixed library, compile time and gate counts swing by about
15-20% between seeds, wider than any bound the benchmark could gate on.

The compiler only ever sees the generated BLIF text.
"""

from __future__ import annotations

import random

LIBRARY_SEED = 1510_00377
PRIMARY_INPUTS = 48
OUTPUTS = 24
FAN_IN = (2, 5)
CUBES = (2, 6)


def cover_library(count: int) -> list[list[str]]:
    """`count` cube lists: 2-5 columns, 2-6 distinct on-set cubes each."""
    rng = random.Random(LIBRARY_SEED)
    library = []
    for _ in range(count):
        k = rng.randint(*FAN_IN)
        m = rng.randint(*CUBES)
        cubes: list[str] = []
        while len(cubes) < m:
            cube = "".join(rng.choice("01-") for _ in range(k))
            if cube not in cubes and cube != "-" * k:
                cubes.append(cube)
        library.append(cubes)
    return library


def generate(seed: int, name: str, covers: list[list[str]], window: int) -> str:
    """A netlist over PRIMARY_INPUTS inputs using every cover in `covers` once.

    Each cover reads distinct signals drawn from the `window` most recent
    signals (a deep, chain-like netlist when small, a wide one when large).
    The last OUTPUTS covers of the library are the primary outputs.
    """
    rng = random.Random(f"{name}:{seed}")
    signals = [f"x{i}" for i in range(PRIMARY_INPUTS)]
    lines = [f".model {name}", ".inputs " + " ".join(signals)]
    body = []
    # outputs are not uncomputed under eager, so which covers end up as
    # outputs must not depend on the seed
    n_out = min(OUTPUTS, len(covers))
    inner, outer = covers[:-n_out], covers[-n_out:]
    placed = rng.sample(inner, len(inner)) + rng.sample(outer, len(outer))
    for pos, cubes in enumerate(placed):
        fan_in = rng.sample(signals[-window:], len(cubes[0]))
        out = f"n{pos}"
        body.append(".names " + " ".join(fan_in) + " " + out)
        body += [f"{cube} 1" for cube in cubes]
        signals.append(out)
    lines.append(".outputs " + " ".join(signals[-n_out:]))
    return "\n".join(lines + body + [".end"]) + "\n"


def netlists(seed: int, covers_each: int) -> dict[str, str]:
    """Two generated netlists over disjoint library halves: a deep one whose
    covers read the 16 most recent signals and a wider one reading from 64.
    Wider windows lengthen value lifetimes but also spread the eager width
    across seeds (about 2% of the workload's qubit sum when a cover may read
    any earlier signal, under 1% with these two)."""
    lib = cover_library(2 * covers_each)
    return {
        "gen_deep.blif": generate(seed, "gen_deep", lib[:covers_each], window=16),
        "gen_wide.blif": generate(seed, "gen_wide", lib[covers_each:], window=64),
    }
