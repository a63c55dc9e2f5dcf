"""Spans recorded by the benchmark around its own calls into psiclass.

A span is ``[name, start, end, parent, run_id]``: times are
``time.perf_counter()`` seconds, ``parent`` is the index of the enclosing
span in the same list (or None), and ``run_id`` names the repetition.
Spans stay in memory and are written out when the benchmark ends.  Nothing
inside psiclass is patched, so a span times a whole public call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def open(self, name: str) -> None:
        if not self.enabled:
            return
        parent: Optional[int] = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])

    def close(self) -> None:
        if not self.enabled:
            return
        self.spans[self._stack.pop()][2] = time.perf_counter()


def self_times(spans: List[list]) -> Dict[str, List[float]]:
    """Per span name: [total self time in seconds, number of spans].

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap (one thread, one process).
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _run in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        out[name][0] += end - start - child_time[i]
        out[name][1] += 1
    return dict(out)
