"""Performance subsystem: the parallel query engine.

``repro.perf`` makes the black-box query loop fast without changing a
single observed reward:

* :class:`QueryPool` — fan per-step queries out over forked
  recommender-system replicas, with a documented bit-exact equivalence
  guarantee versus serial execution, transient-failure healing for
  crashed workers, and one-way pooled → reduced → serial tiers.  Every
  :class:`QueryOutcome` can carry the query's spans (restore / merge /
  retrain / score under a ``query`` root), measured wherever the query
  ran — see :func:`repro.obs.collect_spans`.

See ``docs/performance.md`` for the measurement methodology and
``docs/observability.md`` for the tracing/metrics hooks; the repository
benchmark's ``fleet`` workload (``perfbench/``) measures the pool.
"""

from .pool import QueryOutcome, QueryPool, WorkerCrashError

__all__ = [
    "QueryPool",
    "QueryOutcome",
    "WorkerCrashError",
]
