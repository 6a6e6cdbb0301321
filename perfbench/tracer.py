"""In-memory spans around calls into the program's public functions.

The traced run installs wrappers from the benchmark's own files: each
wrapped call records a span ``(id, parent, name, thread, start, end,
rows)`` in a list, with the parent taken from a per-thread stack so a
span's self time is its duration minus its direct children.  Nothing is
written while the workload runs; :meth:`Tracer.write_chrome` exports the
spans at the end as Chrome trace-event JSON (Perfetto opens it).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Union

Name = Union[str, Callable[[tuple], str]]
Rows = Optional[Callable[[tuple, object], int]]


class Span(NamedTuple):
    span_id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    rows: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._index: Dict[int, Span] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installing wrappers ------------------------------------------- #
    def wrap(self, owner, attribute: str, name: Name, rows: Rows = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``rows(args, result)`` optionally counts the rows the call handled.
        Class methods, plain methods and module functions are supported.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(args) if callable(name) else name
                count = rows(args, result) if rows is not None and result is not None else 0
                tracer.spans.append(
                    Span(span_id, parent, label, threading.get_ident(), start, end, count)
                )

        setattr(owner, attribute, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attribute, raw))

    def patch(self, owner, attribute: str, replacement) -> None:
        """Install any replacement, restored with the wrappers."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading spans -------------------------------------------------- #
    def named(self, prefix: str) -> List[Span]:
        return [span for span in self.spans if span.name.startswith(prefix)]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def child_time(self) -> Dict[int, float]:
        """Span id -> summed duration of its direct children."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                covered[span.parent] += span.duration
        return covered

    def has_ancestor(self, span: Span, name: str) -> bool:
        by_id = self._by_id()
        parent = span.parent
        while parent:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def _by_id(self) -> Dict[int, Span]:
        if len(self._index) != len(self.spans):
            self._index = {span.span_id: span for span in self.spans}
        return self._index

    def write_chrome(self, path: Path) -> None:
        """Export the spans as Chrome trace-event JSON (complete events)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": span.thread,
                "ts": 1e6 * (span.start - origin),
                "dur": 1e6 * span.duration,
                "args": {"id": span.span_id, "parent": span.parent, "rows": span.rows},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
