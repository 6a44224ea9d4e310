"""repro.obs — end-to-end tracing, metrics and crash-safe run telemetry.

The observability substrate for the attack/serve stack:

* :class:`Tracer`/:class:`Span` — deterministic span tracing
  (sequential ids, monotonic clock only; provably no bit-exactness
  impact) over the attack hot path, PPO updates, scheduler slices and
  pool dispatch.  :func:`traced` is the one span call: it records on
  the ambient tracer — a run's, installed by :func:`recording`, or the
  per-query scope of :func:`collect_spans`, in-process or in a forked
  :class:`~repro.perf.pool.QueryPool` worker.
* :class:`MetricsRegistry` — labeled counters/gauges/histograms
  (queries, retries, quarantines, restarts, tier changes, per-phase
  latency).
* :class:`RunTelemetry` — ties both to a crash-safe JSONL run log with
  the journal's torn-tail discipline; :func:`load_run` replays the log
  of a live or dead run, :func:`write_chrome_trace` exports it for
  ``chrome://tracing``, and ``repro trace`` / ``repro metrics`` render
  it in the terminal.

See ``docs/observability.md`` for the full tour and overhead numbers.
"""

from .export import chrome_trace, write_chrome_trace
from .jsonl import JsonlSink, jsonable, read_jsonl
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .run import (OBS_FORMAT, OBS_VERSION, RunReplay, RunTelemetry,
                  load_run, phase_rollup)
from .trace import Span, Tracer, collect_spans, recording, traced

__all__ = [
    "Span",
    "Tracer",
    "collect_spans",
    "recording",
    "traced",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "JsonlSink",
    "jsonable",
    "read_jsonl",
    "RunTelemetry",
    "RunReplay",
    "load_run",
    "phase_rollup",
    "OBS_FORMAT",
    "OBS_VERSION",
    "chrome_trace",
    "write_chrome_trace",
]
