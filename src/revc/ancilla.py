"""Min-index ancilla pool used during circuit emission."""

from __future__ import annotations

import heapq


class AncillaHeap:
    """Pool of free wire indices, always handing out the minimum free index.

    Indices below `base` are reserved (program inputs).  The high-water
    mark counts how many indices at or above `base` were ever live at the
    same time, i.e. the peak ancilla requirement.
    """

    def __init__(self, base: int = 0):
        self.base = base
        self._free: list[int] = []  # freed indices below the frontier
        self._frontier = base  # next never-used index
        self._live: set[int] = set()
        self.high_water = 0

    def alloc(self) -> int:
        if self._free:
            w = heapq.heappop(self._free)
        else:
            w = self._frontier
            self._frontier += 1
        live = self._live
        live.add(w)
        # every index in [base, frontier) is live or free
        if len(live) > self.high_water:
            self.high_water = len(live)
        return w

    def free(self, w: int) -> None:
        try:
            self._live.remove(w)
        except KeyError:
            raise ValueError(f"wire {w} is not allocated") from None
        heapq.heappush(self._free, w)

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def frontier(self) -> int:
        """One past the highest index ever handed out (circuit width)."""
        return self._frontier

    def state(self) -> tuple:
        return (list(self._free), self._frontier, set(self._live), self.high_water)

    def restore(self, state: tuple) -> None:
        free, frontier, live, hw = state
        self._free = list(free)
        self._frontier = frontier
        self._live = set(live)
        self.high_water = hw
