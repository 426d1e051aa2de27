"""Spans around calls into the program's layers, installed from outside.

:class:`Tracer` replaces public functions and methods of ``repro`` with
thin timing wrappers for the duration of a ``with tracer.installed():``
block and restores the originals afterwards; nothing under ``src/`` knows it
is being traced.  Each call records one span ``(name, start, end, parent)``
in memory, where ``parent`` is the index of the innermost enclosing span
(``-1`` at top level).  The serving loop is one thread, so a plain stack
gives the parent.

A span's *self time* is its duration minus the durations of its direct
children, i.e. the time spent in that layer's own code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Called as ``observe(args, kwargs, result)`` after a wrapped call returns.
Observer = Callable[[tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index]`` per call, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._targets: List[Tuple[Any, str, str, Optional[Observer]]] = []
        self._saved: List[Tuple[Any, str, bool, Any]] = []  # (owner, attr, had_own, own)

    def add(self, owner: Any, attr: str, name: str, observe: Optional[Observer] = None) -> None:
        """Trace ``owner.attr`` (a class, module or instance) as span ``name``."""
        self._targets.append((owner, attr, name, observe))

    def _wrap(self, fn: Callable, name: str, observe: Optional[Observer]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper, and restore the originals on exit."""
        try:
            for owner, attr, name, observe in self._targets:
                had = attr in vars(owner)
                own = vars(owner)[attr] if had else None
                if isinstance(own, (staticmethod, classmethod)):
                    raise TypeError(f"cannot trace {owner!r}.{attr}: not a plain function")
                self._saved.append((owner, attr, had, own))
                # getattr yields the plain function on a class or module and a
                # bound method on an instance; either way the wrapper sits in
                # front of exactly what callers would have found.
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, observe))
            yield self
        finally:
            while self._saved:
                owner, attr, had, original = self._saved.pop()
                if had:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # ----------------------------------------------------------------- summary
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``durations``."""
        n = len(self.spans)
        durations = np.fromiter((s[2] - s[1] for s in self.spans), dtype=np.float64, count=n)
        parents = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=n)
        child_time = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        out: Dict[str, Dict[str, Any]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += durations[index]
            entry["self_s"] += durations[index] - child_time[index]
            entry["durations"].append(durations[index])
        return out

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write ``meta`` plus every span as one JSON document.

        Span times are seconds relative to the first span's start.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        payload = dict(meta)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent"]
        payload["spans"] = [
            [name, round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
