"""Per-run telemetry: one tracer + one metrics registry + one JSONL log.

:class:`RunTelemetry` is the object the CLI (``--obs-log``), the
scheduler, the agent and the pool all share for one run.  It owns

* a :class:`~repro.obs.trace.Tracer` whose closed spans stream into the
  log as ``{"obs": "span", ...}`` records; the holders handed the run
  make it ambient with :func:`~repro.obs.trace.recording`, so their
  :func:`~repro.obs.trace.traced` spans land on it,
* a :class:`~repro.obs.metrics.MetricsRegistry` whose snapshots are
  flushed as ``{"obs": "metrics", ...}`` records (last snapshot wins on
  replay), and
* free-form ``{"obs": "event", ...}`` narrator lines.

The log is crash-safe in the journal's torn-tail sense (see
:mod:`repro.obs.jsonl`): ``repro trace`` and ``repro metrics`` render
the log of a *live or dead* run — a ``kill -9`` loses at most the final
partially-written line.  :func:`load_run` replays a log back into
spans/events/metrics; :func:`phase_rollup` folds spans into
flamegraph-style per-path totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..effects import pure
from ..runtime.checkpoint import PathLike
from ..runtime.errors import CorruptCheckpointError
from .jsonl import JsonlSink, read_jsonl
from .metrics import MetricsRegistry
from .trace import Span, Tracer

OBS_FORMAT = "poisonrec-obs-log"
OBS_VERSION = 1


class RunTelemetry:
    """Tracing + metrics + crash-safe JSONL logging for one run.

    Parameters
    ----------
    path:
        Run-log destination; ``None`` keeps everything in memory only
        (spans/metrics still accumulate for in-process rollups).
    fsync:
        Sync every record; the default flushes per record and syncs at
        :meth:`flush_metrics`/:meth:`close` (see :mod:`repro.obs.jsonl`).
    """

    def __init__(self, path: Optional[PathLike] = None,
                 fsync: bool = False) -> None:
        self._sink = JsonlSink(path, fsync=fsync) if path is not None \
            else None
        self.tracer = Tracer(sink=self._ship_span
                             if self._sink is not None else None)
        self.metrics = MetricsRegistry()
        self.events: List[dict] = []
        if self._sink is not None:
            self._sink.append({"obs": "meta", "format": OBS_FORMAT,
                               "version": OBS_VERSION})

    @property
    def path(self):
        """The run-log path (``None`` for a memory-only instance)."""
        return self._sink.path if self._sink is not None else None

    def _ship_span(self, span: Span) -> None:
        record = span.to_record()
        record["obs"] = "span"
        self._sink.append(record)

    def event(self, message: str, **attrs) -> None:
        """Record one narrator event (restart, tier change, drain...)."""
        record = {"message": str(message)}
        if attrs:
            record["attrs"] = dict(attrs)
        self.events.append(record)
        if self._sink is not None:
            shipped = dict(record)
            shipped["obs"] = "event"
            self._sink.append(shipped)

    def flush_metrics(self) -> None:
        """Write one metrics snapshot record and sync the log."""
        if self._sink is None:
            return
        self._sink.append({"obs": "metrics",
                           "metrics": self.metrics.snapshot()})
        self._sink.sync()

    def sync(self) -> None:
        """Force the log onto disk (no-op for memory-only telemetry)."""
        if self._sink is not None:
            self._sink.sync()

    def close(self) -> None:
        """Flush a final metrics snapshot and close the log."""
        if self._sink is not None:
            self.flush_metrics()
            self._sink.close()

    def __enter__(self) -> "RunTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class RunReplay:
    """Everything :func:`load_run` recovers from a run log."""

    spans: List[Span] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    #: The *last* flushed metrics snapshot (records as emitted by
    #: :meth:`.MetricsRegistry.snapshot`).
    metrics: List[dict] = field(default_factory=list)
    version: int = OBS_VERSION

    @property
    @pure
    def counters(self) -> Dict[str, float]:
        """Counter totals summed across labels, keyed by metric name."""
        totals: Dict[str, float] = {}
        for record in self.metrics:
            if record.get("kind") == "counter":
                name = record["name"]
                totals[name] = totals.get(name, 0.0) + record["value"]
        return totals


def load_run(path: PathLike) -> RunReplay:
    """Replay one obs run log (live or dead) into a :class:`RunReplay`.

    Applies the torn-tail rule of :func:`~repro.obs.jsonl.read_jsonl`,
    so the log of a killed run parses; the half-written final record
    (if any) is dropped.
    """
    records = read_jsonl(path, what="obs run log", expect_key="obs")
    if not records or records[0].get("obs") != "meta":
        raise CorruptCheckpointError(
            f"{path} is not an obs run log (missing format header)")
    header = records[0]
    if (header.get("format") != OBS_FORMAT
            or header.get("version") != OBS_VERSION):
        raise CorruptCheckpointError(
            f"{path} has unsupported obs log format "
            f"{header.get('format')!r} v{header.get('version')!r}")
    replay = RunReplay(version=int(header["version"]))
    for record in records[1:]:
        kind = record["obs"]
        if kind == "span":
            replay.spans.append(Span.from_record(record))
        elif kind == "event":
            replay.events.append({"message": record.get("message", ""),
                                  "attrs": record.get("attrs", {})})
        elif kind == "metrics":
            replay.metrics = list(record.get("metrics", []))
        # Unknown record kinds are ignored for forward compatibility.
    return replay


def phase_rollup(spans: List[Span],
                 max_depth: int = 32) -> Dict[str, Dict[str, float]]:
    """Fold spans into per-path totals for flamegraph-style rendering.

    The key is the ``/``-joined name path from the root span down
    (``"train_step/query_batch/query/retrain"``); the value carries
    accumulated ``seconds`` and ``calls``.  Open spans are skipped.
    """
    by_id = {span.span_id: span for span in spans}
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span.end is None:
            continue
        parts = [span.name]
        cursor = span
        for _ in range(max_depth):
            if cursor.parent_id is None:
                break
            cursor = by_id.get(cursor.parent_id)
            if cursor is None:
                break
            parts.append(cursor.name)
        path = "/".join(reversed(parts))
        entry = totals.setdefault(path, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += span.seconds
        entry["calls"] += 1
    return totals
