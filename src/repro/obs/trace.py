"""Deterministic span tracer for the attack/serve hot path.

A :class:`Span` is one timed operation — a name, a half-open
``[start, end)`` interval on the monotonic clock, a parent link and a
flat attribute dict.  A :class:`Tracer` hands them out with *sequential*
integer ids (no RNG, no PIDs, no UUIDs), so tracing is deterministic and
provably cannot perturb the reproduction's random streams: the only
nondeterministic input is ``time.perf_counter``, and timestamps flow
into the observability log only, never into checkpoints or rewards.

Two ways to record a span:

* :meth:`Tracer.span` — a context manager timing the enclosed block,
  with automatic parenting (the innermost open span on this tracer's
  stack becomes the parent).
* :meth:`Tracer.add` — register an *externally measured* interval,
  parented wherever the caller says; :meth:`Tracer.adopt` re-records a
  whole tree closed in another tracer (a query's collecting scope,
  possibly in a forked :class:`~repro.perf.pool.QueryPool` worker).

Closed spans are retained in :attr:`Tracer.spans` (for in-process
rollups) and streamed to an optional ``sink`` callable (the
:class:`~repro.obs.run.RunTelemetry` JSONL writer).

Code records with :func:`traced`, which opens a span on the tracer
that is *ambient* in the calling context and is a no-op when none is:
a run's tracer, made ambient by :func:`recording`, or a per-query
scope opened by :func:`collect_spans`.  No signature carries a tracer
and no wrapper has to forward one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, ContextManager, Dict,
                    Iterator, List, Optional, Sequence)

from ..effects import pure

if TYPE_CHECKING:
    from .run import RunTelemetry


@dataclass
class Span:
    """One timed operation in the trace tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    #: Logical process label ("main", "worker-3", ...) — never a PID.
    proc: str = "main"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    @pure
    def seconds(self) -> float:
        """Span duration in seconds (``0.0`` while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @pure
    def to_record(self) -> dict:
        """Plain-dict form for the JSONL run log."""
        record = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "proc": self.proc,
        }
        if not self.attrs:
            return record
        return dict(record, attrs=dict(self.attrs))

    @classmethod
    def from_record(cls, record: dict) -> "Span":
        """Inverse of :meth:`to_record` (tolerates missing optionals)."""
        end = record.get("end")
        return cls(
            name=str(record["name"]),
            span_id=int(record["id"]),
            parent_id=(None if record.get("parent") is None
                       else int(record["parent"])),
            start=float(record["start"]),
            end=None if end is None else float(end),
            proc=str(record.get("proc", "main")),
            attrs=dict(record.get("attrs") or {}),
        )


class Tracer:
    """Deterministic span factory: sequential ids, monotonic clock only.

    Parameters
    ----------
    clock:
        Timestamp source; defaults to ``time.perf_counter``.  Tests
        inject fake clocks for exact assertions.
    sink:
        Optional callable receiving each span as it *closes* (children
        therefore arrive before their parents; consumers must not
        assume ordering).
    retain:
        Keep closed spans in :attr:`spans` for in-process rollups.
        Long-running fleets with a sink may disable retention to bound
        memory.
    proc:
        Logical process label stamped on every span this tracer opens.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sink: Optional[Callable[[Span], None]] = None,
                 retain: bool = True, proc: str = "main") -> None:
        self.clock = clock
        self.sink = sink
        self.retain = retain
        self.proc = proc
        self.spans: List[Span] = []
        self._next_id = 0
        self._stack: List[Span] = []

    @property
    @pure
    def current(self) -> Optional[Span]:
        """The innermost open span, if any (the implicit parent)."""
        return self._stack[-1] if self._stack else None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _finish(self, span: Span) -> None:
        if self.retain:
            self.spans.append(span)
        if self.sink is not None:
            self.sink(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open one span around the enclosed block.

        The span parents under the innermost open span of this tracer;
        it is closed (and shipped to the sink) even when the block
        raises.
        """
        span = Span(name=name, span_id=self._new_id(),
                    parent_id=(self._stack[-1].span_id
                               if self._stack else None),
                    start=self.clock(), proc=self.proc,
                    attrs=dict(attrs))
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()
            self._finish(span)

    def add(self, name: str, start: float, end: float,
            parent_id: Optional[int] = None,
            proc: Optional[str] = None, **attrs: Any) -> Span:
        """Record one externally measured, already-closed span.

        Used for intervals timed elsewhere — e.g. a query's spans
        shipped back with a :class:`~repro.perf.pool.QueryOutcome`
        (see :meth:`adopt`).  ``parent_id=None`` parents under the
        innermost open span (if any).
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        span = Span(name=name, span_id=self._new_id(),
                    parent_id=parent_id, start=start, end=end,
                    proc=self.proc if proc is None else proc,
                    attrs=dict(attrs))
        self._finish(span)
        return span

    def adopt(self, spans: Sequence[Span], parent_id: Optional[int] = None,
              **attrs: Any) -> None:
        """Re-record a span tree closed in another tracer, with fresh ids.

        Every span keeps its measured interval and process label — a
        forked worker's ``perf_counter`` is the same monotonic clock, so
        no re-basing is needed.  Roots parent under ``parent_id`` (see
        :meth:`add`) and receive ``attrs``; inner links follow the tree.
        """
        ids: Dict[int, int] = {}
        for span in sorted(spans, key=lambda span: span.span_id):
            if span.parent_id in ids:
                parent, extra = ids[span.parent_id], {}
            else:
                parent, extra = parent_id, attrs
            added = self.add(span.name, span.start, span.end,
                             parent_id=parent, proc=span.proc,
                             **{**span.attrs, **extra})
            ids[span.span_id] = added.span_id

    def __repr__(self) -> str:
        return (f"Tracer(spans={len(self.spans)}, "
                f"open={len(self._stack)})")


#: The ambient tracer: the innermost :func:`recording` or
#: :func:`collect_spans` block's.
_SCOPE: ContextVar[Optional[Tracer]] = ContextVar("repro_obs_scope",
                                                  default=None)


@contextmanager
def _install(tracer: Tracer) -> Iterator[Tracer]:
    token = _SCOPE.set(tracer)
    try:
        yield tracer
    finally:
        _SCOPE.reset(token)


def recording(run: Optional["RunTelemetry"]) -> ContextManager:
    """Make ``run``'s tracer the ambient one for the enclosed block.

    Every :func:`traced` span opened inside the block lands on the
    run's tracer, parented under its innermost open span.  ``None``
    does nothing.  The enclosing ambient tracer, if any, is restored
    on exit.
    """
    return nullcontext() if run is None else _install(run.tracer)


def collect_spans(proc: str = "main") -> ContextManager[Tracer]:
    """Collect the :func:`traced` spans opened inside the block.

    Installs and yields a fresh sink-less :class:`Tracer`, as
    :func:`recording` installs a run's.  Query executors open one
    around each query and return its closed spans with the
    :class:`~repro.perf.pool.QueryOutcome`; in a forked worker the
    scope is the worker's own object, never the parent's
    :class:`~repro.obs.run.RunTelemetry` and its log file.
    """
    return _install(Tracer(proc=proc))


def traced(name: str, **attrs: Any) -> ContextManager[Optional[Span]]:
    """A span on the ambient tracer, else a no-op."""
    tracer = _SCOPE.get()
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)
