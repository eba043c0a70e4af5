"""Min-index ancilla pool used during circuit emission."""

from __future__ import annotations

import heapq


class AncillaHeap:
    """Pool of free wire indices, always handing out the minimum free index.

    Indices below `base` are reserved (program inputs).  Since the least
    free index is handed out first, the frontier moves only when every
    index below it is live: `frontier - base` is the peak number of live
    ancillas.

    The pool keeps no set of live wires: a wire in [base, frontier) is
    live unless it is in the free heap.  Every free the emitter makes is
    valid by construction.  It frees a wire it pops from the slot map,
    which maps each wire once, or a wire of a recipe register, and a
    recipe frees only live registers: `compile_form` by construction, a
    block recipe by `check_recipe` (see boolexpr).  The one bad free a
    hand-built program can reach is a `CleanSlot` of an input slot, whose
    wire is reserved; `free` rejects that.
    """

    def __init__(self, base: int = 0):
        self.base = base
        self._free: list[int] = []  # freed indices below the frontier
        self._frontier = base  # next never-used index

    def alloc(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        self._frontier += 1
        return self._frontier - 1

    def free(self, w: int) -> None:
        if w < self.base:
            raise ValueError(f"wire {w} is not allocated")
        heapq.heappush(self._free, w)

    @property
    def live_count(self) -> int:
        return self._frontier - self.base - len(self._free)

    @property
    def frontier(self) -> int:
        """One past the highest index ever handed out (circuit width)."""
        return self._frontier

    def state(self) -> tuple:
        return (list(self._free), self._frontier)
