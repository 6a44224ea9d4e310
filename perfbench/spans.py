"""Spans around calls into the package's layers, and their self-time rollup.

A traced run patches public functions of the measured layers with
wrappers that open one span per call (:class:`Instrumentation`); an
untraced run patches nothing.  Every span keeps its name, start, end and
parent, plus the id of the operation (training step, fleet run or
analyzer pass) and of the black-box query it ran under.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_MISSING = object()


@dataclass
class Span:
    """One call into a layer: name, interval, parent, operation and query."""

    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    op: Optional[int] = None
    query: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps every span in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock
        self._ops = 0
        self._queries = 0

    @contextmanager
    def span(self, name: str, new_op: bool = False,
             new_query: bool = False) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        op = parent.op if parent is not None else None
        query = parent.query if parent is not None else None
        if new_op:
            op, self._ops = self._ops, self._ops + 1
        if new_query:
            query, self._queries = self._queries, self._queries + 1
        span = Span(len(self.spans),
                    parent.span_id if parent is not None else None,
                    name, self._clock(), op=op, query=query)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()


class Instrumentation:
    """Wraps functions in spans; :meth:`undo` puts the originals back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, new_query: bool = False,
             observe: Optional[Callable[[object], None]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that opens span ``name``.

        ``observe``, if given, is called with each return value.
        """
        target = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with recorder.span(name, new_query=new_query):
                result = target(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def undo(self) -> None:
        """Put every wrapped function back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self seconds of every span, keyed by span id."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.span_id], key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.span_id] = span.seconds - covered
    return result


def rollup(spans: List[Span], rename: Dict[str, str]
           ) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` summed over ``spans``.

    ``rename`` maps a span name to the layer its self time is reported
    under (a root span's self time is the uncovered remainder).
    """
    own = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = totals[rename.get(span.name, span.name)]
        entry[0] += own[span.span_id]
        entry[1] += 1
    return {name: (seconds, int(calls))
            for name, (seconds, calls) in totals.items()}
