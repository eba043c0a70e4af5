"""In-memory spans recorded around the benchmark's calls into revc.

A span has a name, a start, an end, a parent span and the id of the job it
belongs to.  Spans are kept in a list and written out when the run ends, so
recording costs two clock reads and one small dict per span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job: int | None = None
        self.pass_index: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "job": self.job, "pass": self.pass_index,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it covered by child spans."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out
