"""Min-index ancilla pool used during circuit emission."""

from __future__ import annotations

import heapq


class AncillaHeap:
    """Pool of free wire indices, always handing out the minimum free index.

    Indices below `base` are reserved (program inputs).  Since the least
    free index is handed out first, the frontier moves only when every
    index below it is live: `frontier - base` is the peak number of live
    ancillas.
    """

    def __init__(self, base: int = 0):
        self.base = base
        self._free: list[int] = []  # freed indices below the frontier
        self._frontier = base  # next never-used index
        self._live: set[int] = set()

    def alloc(self) -> int:
        if self._free:
            w = heapq.heappop(self._free)
        else:
            w = self._frontier
            self._frontier += 1
        self._live.add(w)
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
        return (list(self._free), self._frontier, set(self._live))
