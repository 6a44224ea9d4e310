"""Deterministic parallel query engine for black-box attack campaigns.

Algorithm 1's outer loop is bounded by environment queries: every one of
the ``M`` samples per training step pays a full reload → poison-retrain →
re-score round trip.  Those queries are *independent* — the recommender
system restores its complete clean state (parameters **and** RNG stream,
see :mod:`repro.recsys.snapshots`) before each injection — so a step's
queries can fan out across processes and return bit-identical rewards.

:class:`QueryPool` implements that fan-out:

* ``workers=1`` (the default) never spawns a process: queries run
  in-process, exactly as the plain serial loop.
* ``workers>1`` forks worker processes, each holding a copy-on-write
  replica of the :class:`~repro.recsys.system.RecommenderSystem`
  (inherited via ``fork``, so no pickling and no duplicate fit).
  :meth:`QueryPool.attack_many` dispatches the batch and returns
  outcomes **in submission order**.

Exact-equivalence guarantee
---------------------------
For a fault-free batch, ``attack_many(sets)`` returns the same rewards,
in the same order, as ``[system.attack(s) for s in sets]`` — bit
identical, not approximately.  This holds because ``attack`` is a pure
function of its trajectories (clean state + RNG are restored before
every injection) and replicas are bit-exact fork copies of the parent
system.  A campaign driven through the pool therefore produces the same
``StepStats`` history as the serial run on the same seed.

Failure model
-------------
A crashed worker is a *transient* event, not a lost step: the pool
reaps the dead process, forks a replacement, and re-issues the query
(counted in :attr:`QueryOutcome.retries`, like any other transient
retry).  A query that keeps killing workers falls back to in-process
execution so the underlying error surfaces exactly as it would
serially.  Typed :class:`~repro.runtime.errors.TransientEnvironmentError`
failures raised inside a worker honor the caller's
:class:`~repro.runtime.retry.RetryPolicy` — exhausted retries become a
quarantinable :class:`~repro.runtime.errors.RetriesExhaustedError`
outcome, mirroring ``repro.runtime``'s serial retry/quarantine path.
If worker processes cannot be (re)spawned at all, the rest of the batch
runs in-process rather than failing the campaign.

Tiers
-----
The pool owns its execution tier, one way down: ``pooled`` (all
workers), ``reduced`` (halved) and ``serial`` (in-process, no workers).
After every batch it checks itself: a pool that could not spawn
(:attr:`QueryPool.broken`) or that lost :data:`CRASH_STORM` or more
workers since the last check halves its workers, and below two it goes
serial for good.  Results are identical in every tier (the equivalence
guarantee); only throughput changes.

Three refinements keep pooled chaos campaigns bit-identical to serial:

* errors tagged ``replica_safe`` (injected by
  :class:`~repro.runtime.faults.FaultyEnvironment`) leave the worker
  alive — no recycle, no crash count — because the replica was never
  touched;
* retries of a failed query are *pinned* to the worker that failed it,
  so the replica's per-query occurrence counters advance exactly as
  the serial wrapper's would;
* when a retry policy is supplied, non-finite rewards are rejected as
  :class:`~repro.runtime.errors.CorruptRewardError` and retried — the
  same guard ``PoisonRec`` applies on its serial path.

``stall_timeout`` arms a heartbeat: a worker that holds one query
longer than the deadline is presumed hung, killed, and its query
re-issued.  ``chaos`` takes a
:class:`~repro.runtime.faults.WorkerFaultPlan` whose seeded kill/stall
directives ride along with dispatched queries — fleet-level fault
injection for soak tests, exercising exactly the healing paths above.

Observability
-------------
Every worker runs each query as a ``query`` span inside its own
:func:`~repro.obs.trace.collect_spans` scope, so the recommender's
restore / merge / retrain / score phases nest under it, and ships the
closed spans back with the reply; in-process queries do the same when
the pool has telemetry.  The spans ride on the :class:`QueryOutcome`
for the caller to add to its trace.  The pool's own counts (queries,
busy seconds, crashes, stalls, serial fallbacks) live in one
:class:`~repro.obs.metrics.MetricsRegistry` — the ``obs`` run's when
one is given, a private one otherwise — and ``obs`` also wraps each
batch in a ``pool.batch`` span.  Both stay in the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span, collect_spans
from ..runtime.errors import (CorruptRewardError, RetriesExhaustedError,
                              TransientEnvironmentError)
from ..runtime.faults import WorkerFaultPlan
from ..runtime.retry import RetryPolicy, call_with_retry

#: How long one scheduler wait blocks before re-checking worker liveness.
_WAIT_TIMEOUT = 5.0

#: Worker deaths between two tier checks that make a crash storm.
CRASH_STORM = 8


class WorkerCrashError(TransientEnvironmentError):
    """A pool worker died mid-query; the query is safe to re-issue."""


@dataclass
class QueryOutcome:
    """Result of one black-box query (pooled or serial).

    ``reward`` is the observed RecNum, or ``None`` when the query was
    quarantined (``error`` then holds the terminal
    :class:`~repro.runtime.errors.RetriesExhaustedError`).  ``retries``
    counts transient failures absorbed on the way — including worker
    crashes healed by the pool.

    ``spans`` are the closed spans of the query, its ``query`` root
    last (``None`` when it ran untimed), and ``pooled`` says whether a
    forked worker executed it.  For a pooled query they cover the final
    attempt, for an in-process one every attempt.
    """

    reward: Optional[float]
    retries: int = 0
    error: Optional[Exception] = None
    spans: Optional[List[Span]] = None
    pooled: bool = False

    @property
    def seconds(self) -> Optional[float]:
        """Wall-clock seconds of the ``query`` span (``None`` untimed)."""
        return self.spans[-1].seconds if self.spans else None


def serial_outcome(attack: Callable, trajectories,
                   retry: Optional[RetryPolicy] = None, rng=None,
                   sleep: Optional[Callable[[float], None]] = None,
                   base_retries: int = 0,
                   observe: bool = False) -> QueryOutcome:
    """Run one query in-process under the caller's retry policy.

    With ``observe`` the query runs as a ``query`` span in its own
    collecting scope, and the outcome carries the closed spans exactly
    as a worker reply does.
    """
    def attempt() -> float:
        reward = float(attack(trajectories))
        if retry is not None and not np.isfinite(reward):
            # A garbage RecNum reading is a retryable fault, not data.
            raise CorruptRewardError(
                f"environment returned non-finite RecNum {reward!r}")
        return reward

    def run() -> QueryOutcome:
        if retry is None:
            return QueryOutcome(reward=attempt(), retries=base_retries)
        try:
            outcome = call_with_retry(attempt, retry, rng=rng, sleep=sleep)
        except RetriesExhaustedError as error:
            return QueryOutcome(
                reward=None,
                retries=base_retries + max(error.attempts - 1, 0),
                error=error)
        return QueryOutcome(reward=outcome.value,
                            retries=base_retries + outcome.retries)

    if not observe:
        return run()
    with collect_spans() as scope, scope.span("query"):
        outcome = run()
    outcome.spans = scope.spans
    return outcome


def _worker_main(system, conn, slot: int) -> None:
    """Child-process loop: serve attack queries until the stop sentinel.

    Messages arrive as ``(index, trajectories, directive)`` and replies
    go back as ``(index, reward, error, spans)``: each query runs as a
    ``query`` span in a collecting scope the worker opens itself
    (labeled ``worker-<slot>``), and the closed spans travel home so
    the parent can trace and time pooled queries.  On a query
    failure the worker ships the error to the parent and exits — a
    worker never serves queries from a possibly corrupted replica; the
    parent forks a pristine replacement instead.  The exception is an
    error tagged ``replica_safe`` (injected chaos that never touched
    the replica): it is shipped as data and the worker keeps serving.

    ``directive`` carries seeded worker-chaos orders from a
    :class:`~repro.runtime.faults.WorkerFaultPlan`: ``("kill",)`` makes
    the worker die abruptly mid-query (exercising crash healing) and
    ``("stall", seconds)`` delays it past the parent's heartbeat
    deadline (exercising stall detection).
    """
    # Forked workers inherit the parent's signal handlers — including a
    # scheduler's SIGTERM/SIGINT drain handlers, which would make
    # workers immune to ``terminate()`` (stall recycling would hang and
    # leak processes).  Workers die on SIGTERM like any process and
    # leave Ctrl-C drains to the parent: in-flight queries finish.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, trajectories, directive = message
        if directive is not None:
            if directive[0] == "kill":
                os._exit(1)
            if directive[0] == "stall":
                time.sleep(directive[1])
        with collect_spans(f"worker-{slot}") as scope:
            try:
                with scope.span("query"):
                    reward = float(system.attack(trajectories))
            except Exception as error:
                conn.send((index, None, error, scope.spans))
                if getattr(error, "replica_safe", False):
                    continue
                raise SystemExit(1)
        conn.send((index, reward, None, scope.spans))
    conn.close()


class QueryPool:
    """Fan black-box queries out over forked recommender-system replicas.

    Parameters
    ----------
    system:
        The recommender system (or any object with a compatible
        ``attack(trajectories) -> number`` method) to replicate.  The
        parent's instance is also the serial-fallback executor.
    workers:
        Worker process count at the ``pooled`` tier.  ``1`` runs
        everything in-process (no multiprocessing at all); higher values
        fork that many replicas.
    crash_retries:
        How many times one query may be re-issued after killing a worker
        before the pool executes it in-process to surface the real error.
    stall_timeout:
        Heartbeat deadline in seconds: a worker holding one query longer
        than this is presumed hung, killed, and its query re-issued
        (counted as a crash).  ``None`` (the default) disables the
        heartbeat — queries may take arbitrarily long.
    chaos:
        Optional :class:`~repro.runtime.faults.WorkerFaultPlan` injecting
        seeded worker kills and stalls per dispatched query, for soak
        tests of the healing paths.  Ignored in serial mode (there are
        no workers to kill).
    obs:
        Optional :class:`~repro.obs.run.RunTelemetry` of the run: the
        pool counts into its metrics registry, traces ``pool.batch``
        spans, and times in-process queries.  Never shipped to workers.
    """

    def __init__(self, system, workers: int = 1,
                 crash_retries: int = 3,
                 stall_timeout: Optional[float] = None,
                 chaos: Optional[WorkerFaultPlan] = None,
                 obs=None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if crash_retries < 0:
            raise ValueError("crash_retries must be non-negative")
        if stall_timeout is not None and stall_timeout <= 0.0:
            raise ValueError("stall_timeout must be positive")
        self.system = system
        self.workers = workers
        self.crash_retries = crash_retries
        self.stall_timeout = stall_timeout
        self.chaos = chaos
        self.obs = obs
        #: The one store of the pool's counts and busy seconds.
        self.metrics = obs.metrics if obs is not None else MetricsRegistry()
        # Fork is required: replicas are inherited copy-on-write, never
        # pickled.
        fork = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork") if fork else None
        #: ``pooled``, ``reduced`` or ``serial`` (see the module doc).
        self.tier = "pooled" if workers > 1 and fork else "serial"
        self._procs: List[Optional[object]] = [None] * workers
        self._conns: List[Optional[object]] = [None] * workers
        self._started = False
        #: No worker could be spawned; the batch ran in-process.
        self.broken = False
        self._crashes_at_check = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> bool:
        """Fork one worker into ``slot``; False if the spawn failed."""
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(target=_worker_main,
                                     args=(self.system, child_conn, slot),
                                     daemon=True)
            proc.start()
            child_conn.close()
        except OSError:
            self._procs[slot] = None
            self._conns[slot] = None
            return False
        self._procs[slot] = proc
        self._conns[slot] = parent_conn
        return True

    @property
    def parallel(self) -> bool:
        """Whether batches fan out over worker processes."""
        return self.tier != "serial"

    @property
    def crashes(self) -> int:
        """Worker deaths observed (crashes, stalls and error-recycles)."""
        return int(self.metrics.counter("pool.crashes").value)

    @property
    def serial_fallbacks(self) -> int:
        """Queries the workers could not serve, run in-process instead."""
        return int(self.metrics.counter("pool.serial_fallbacks").value)

    def _ensure_started(self) -> None:
        if self._started or not self.parallel or self.broken:
            return
        spawned = sum(self._spawn(slot) for slot in range(self.workers))
        if spawned == 0:
            self.broken = True
        self._started = True

    def _check_tier(self) -> None:
        """Step one tier down after a spawn failure or a crash storm.

        Halves the workers; below two the pool goes serial.  Never
        moves back up: a fleet that proved unstable stays predictable.
        """
        storm = self.crashes - self._crashes_at_check >= CRASH_STORM
        self._crashes_at_check = self.crashes
        if not self.parallel or not (self.broken or storm):
            return
        self.close()
        self.broken = False
        self.workers //= 2
        if self.workers < 2:
            self.workers = 1
            self.tier = "serial"
        else:
            self.tier = "reduced"
        self._procs = [None] * self.workers
        self._conns = [None] * self.workers

    def _recycle(self, slot: int, kill: bool = False) -> bool:
        """Reap a dead/poisoned worker and fork a replacement.

        ``kill=True`` terminates the process up front instead of
        waiting for it to exit — the stall-detection path, where the
        worker is presumed hung and would block the join deadline.
        """
        conn = self._conns[slot]
        proc = self._procs[slot]
        if conn is not None:
            conn.close()
        if proc is not None:
            if kill and proc.is_alive():
                proc.terminate()
            proc.join(timeout=_WAIT_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_WAIT_TIMEOUT)
        return self._spawn(slot)

    def close(self) -> None:
        """Stop all workers; the pool can be restarted by the next batch."""
        for slot in range(self.workers):
            conn = self._conns[slot]
            proc = self._procs[slot]
            if conn is not None:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
                self._conns[slot] = None
            if proc is not None:
                proc.join(timeout=_WAIT_TIMEOUT)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=_WAIT_TIMEOUT)
                self._procs[slot] = None
        self._started = False

    def __enter__(self) -> "QueryPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def attack(self, trajectories: Sequence[Sequence[int]]) -> float:
        """One in-process query (convenience; bypasses the workers)."""
        return float(self.system.attack(trajectories))

    def _span(self, name: str, **attrs):
        """A span on the run's tracer, or a no-op without telemetry."""
        if self.obs is None:
            return nullcontext()
        return self.obs.span(name, **attrs)

    def _serial_outcome(self, trajectories, retry: Optional[RetryPolicy],
                        rng, sleep, base_retries: int = 0) -> QueryOutcome:
        """One in-process query, timed when the pool has telemetry."""
        return serial_outcome(self.system.attack, trajectories, retry, rng,
                              sleep, base_retries=base_retries,
                              observe=self.obs is not None)

    def attack_many(self, trajectory_sets: Sequence[Sequence[Sequence[int]]],
                    retry: Optional[RetryPolicy] = None,
                    rng: Optional[np.random.Generator] = None,
                    sleep: Optional[Callable[[float], None]] = None
                    ) -> List[QueryOutcome]:
        """Execute a batch of queries; outcomes come back in submission order.

        On the fault-free path the rewards are bit-identical to running
        the batch serially through ``system.attack`` (see the module
        docstring for why).  ``retry``/``rng``/``sleep`` plug the
        caller's :mod:`repro.runtime` retry policy into transient worker
        failures; without a policy, transient errors propagate exactly
        as they would serially.  The pool checks its tier after every
        batch (see the module docstring).
        """
        if not trajectory_sets:
            return []
        self._ensure_started()
        if not self.parallel or self.broken:
            with self._span("pool.batch", batch=len(trajectory_sets),
                            tier="serial"):
                outcomes = [self._serial_outcome(trajectories, retry, rng,
                                                 sleep)
                            for trajectories in trajectory_sets]
        else:
            with self._span("pool.batch", batch=len(trajectory_sets),
                            tier=self.tier, workers=self.workers):
                outcomes = self._attack_many_parallel(
                    trajectory_sets, retry, rng,
                    sleep if sleep is not None else time.sleep)
        self._check_tier()
        return outcomes

    # ------------------------------------------------------------------
    def _attack_many_parallel(self, trajectory_sets, retry, rng,
                              sleep) -> List[QueryOutcome]:
        tasks = list(trajectory_sets)
        results: List[Optional[QueryOutcome]] = [None] * len(tasks)
        pending: List[int] = list(range(len(tasks)))
        failures = [0] * len(tasks)       # transient in-worker failures
        crashes = [0] * len(tasks)        # worker deaths while running it
        dispatches = [0] * len(tasks)     # sends (the chaos attempt axis)
        pinned: dict = {}                 # task index -> required slot
        busy: dict = {}                   # slot -> task index
        deadlines: dict = {}              # slot -> stall deadline (monotonic)

        def drop(slot: int) -> int:
            """Take ``slot`` out of flight; returns its task index."""
            deadlines.pop(slot, None)
            return busy.pop(slot)

        def dispatch() -> None:
            for index in list(pending):
                slot = pinned.get(index)
                if slot is not None and self._conns[slot] is None:
                    # The pinned worker died; its replica (and the
                    # occurrence counters we pinned for) is gone anyway.
                    pinned.pop(index)
                    slot = None
                if slot is not None and slot in busy:
                    continue      # wait for the pinned worker to idle
                if slot is None:
                    idle = [s for s in range(self.workers)
                            if s not in busy and self._conns[s] is not None]
                    if not idle:
                        continue  # a later task may be pinned to an idler
                    slot = idle[0]
                dispatches[index] += 1
                directive = (self.chaos.directive(tasks[index],
                                                  dispatches[index])
                             if self.chaos is not None else None)
                try:
                    self._conns[slot].send((index, tasks[index], directive))
                except (BrokenPipeError, OSError):
                    pinned.pop(index, None)
                    self._handle_crash(slot)
                    continue      # stays pending; retried next round
                pending.remove(index)
                busy[slot] = index
                if self.stall_timeout is not None:
                    deadlines[slot] = time.monotonic() + self.stall_timeout

        def requeue_after_crash(index: int) -> None:
            pinned.pop(index, None)
            crashes[index] += 1
            if crashes[index] > self.crash_retries:
                # A query that keeps killing workers runs in-process so
                # the real failure surfaces as it would serially.
                self._note_fallback()
                results[index] = self._serial_outcome(
                    tasks[index], retry, rng, sleep,
                    base_retries=failures[index] + crashes[index])
            else:
                pending.insert(0, index)

        def handle_transient(index: int, slot: Optional[int],
                             error: Exception) -> None:
            """One transient failure of ``index``; requeue or quarantine.

            ``slot`` names the still-alive worker whose replica consumed
            the failed attempt — the retry is pinned there so per-query
            occurrence counters advance exactly as they would serially.
            """
            failures[index] += 1
            if retry is None:
                self._abort(busy)
                raise error
            if failures[index] >= retry.max_attempts:
                pinned.pop(index, None)
                results[index] = QueryOutcome(
                    reward=None,
                    retries=(failures[index] - 1 + crashes[index]),
                    error=RetriesExhaustedError(
                        f"gave up after {failures[index]} "
                        f"attempt(s): {error}",
                        attempts=failures[index]))
                return
            delay = retry.backoff(failures[index], rng)
            if delay > 0.0:
                sleep(delay)
            if slot is not None:
                pinned[index] = slot
            pending.insert(0, index)

        while pending or busy:
            dispatch()
            if not busy:
                if pending and not any(
                        conn is not None for conn in self._conns):
                    # Every worker slot is dead and respawning failed.
                    self.broken = True
                    while pending:
                        index = pending.pop(0)
                        self._note_fallback()
                        results[index] = self._serial_outcome(
                            tasks[index], retry, rng, sleep,
                            base_retries=failures[index] + crashes[index])
                continue
            conn_to_slot = {self._conns[slot]: slot for slot in busy}
            timeout = _WAIT_TIMEOUT
            if deadlines:
                timeout = min(timeout, max(
                    min(deadlines.values()) - time.monotonic(), 0.0))
            ready = _connection_wait(list(conn_to_slot), timeout)
            if not ready:
                # Heartbeat: a worker holding one query past the stall
                # deadline is presumed hung — kill it and re-issue.
                now = time.monotonic()
                for slot in list(busy):
                    if slot in deadlines and now >= deadlines[slot]:
                        index = drop(slot)
                        self.metrics.counter("pool.stalls").inc()
                        self._handle_crash(slot, kill=True)
                        requeue_after_crash(index)
                # Paranoia sweep: a worker that died without closing its
                # pipe would otherwise hang the batch forever.
                for slot in list(busy):
                    proc = self._procs[slot]
                    if proc is None or not proc.is_alive():
                        index = drop(slot)
                        self._handle_crash(slot)
                        requeue_after_crash(index)
                continue
            for conn in ready:
                slot = conn_to_slot[conn]
                try:
                    index, reward, error, spans = conn.recv()
                except (EOFError, OSError):
                    index = drop(slot)
                    self._handle_crash(slot)
                    requeue_after_crash(index)
                    continue
                drop(slot)
                self.metrics.counter("pool.queries", tier="pooled").inc()
                self.metrics.histogram("pool.query_seconds").observe(
                    spans[-1].seconds)
                if error is None:
                    # The replica executed a real query; mirror it into
                    # the parent's budget counter before validating.
                    self._count_query()
                    if retry is not None and not np.isfinite(reward):
                        handle_transient(index, slot, CorruptRewardError(
                            f"environment returned non-finite RecNum "
                            f"{reward!r}"))
                        continue
                    pinned.pop(index, None)
                    results[index] = QueryOutcome(
                        reward=reward,
                        retries=failures[index] + crashes[index],
                        spans=spans, pooled=True)
                    continue
                if getattr(error, "replica_safe", False) and isinstance(
                        error, TransientEnvironmentError):
                    # Injected chaos that never touched the replica: the
                    # worker is still serving; retry pinned to it.
                    handle_transient(index, slot, error)
                    continue
                # The worker ships the error then exits; recycle it.
                self._handle_crash(slot)
                pinned.pop(index, None)
                if isinstance(error, TransientEnvironmentError):
                    handle_transient(index, None, error)
                else:
                    self._abort(busy)
                    raise error
        return results

    def _handle_crash(self, slot: int, kill: bool = False) -> None:
        """Reap + respawn one worker, recording the death."""
        self.metrics.counter("pool.crashes").inc()
        self._recycle(slot, kill=kill)

    def _note_fallback(self) -> None:
        """Count one query the pool had to execute in-process."""
        self.metrics.counter("pool.serial_fallbacks").inc()

    def _count_query(self) -> None:
        """Mirror a worker-side query into the parent's budget counter.

        Walks the wrapper chain (``FaultyEnvironment._env``,
        ``BlackBoxEnvironment._system``) until a writable
        ``query_count`` is found; read-only facades delegate inward.
        """
        target = self.system
        for _ in range(8):
            if target is None:
                return
            if hasattr(target, "query_count"):
                try:
                    target.query_count += 1
                    return
                except AttributeError:
                    pass
            inner = getattr(target, "_system", None)
            if inner is None:
                inner = getattr(target, "_env", None)
            target = inner

    def _abort(self, busy: dict) -> None:
        """Tear the pool down before propagating a fatal error.

        In-flight results would otherwise desynchronize the next batch;
        a fresh set of workers is forked lazily if the pool is reused.
        """
        busy.clear()
        self.close()

    def __repr__(self) -> str:
        return (f"QueryPool(workers={self.workers}, tier={self.tier}, "
                f"crashes={self.crashes})")
