"""The campaign scheduler: N attack campaigns over one worker fleet.

:class:`CampaignScheduler` multiplexes any number of submitted
campaigns (arbitrary dataset/ranker/action-space/seed combinations)
over a single shared :class:`~repro.perf.pool.QueryPool`.  Scheduling
is fair-share with priorities: each round, the non-terminal campaign
with the least *weighted* progress (``steps_done / priority``) runs one
slice of training steps, so every campaign advances and a priority-2
campaign advances twice as fast as a priority-1 sibling.

Robustness is layered on end to end:

* every slice ends with a crash-safe campaign checkpoint
  (:mod:`repro.runtime.checkpoint`) and a fsynced journal line
  (:mod:`repro.serve.journal`), so ``kill -9`` of the orchestrator
  loses at most one in-flight slice — :meth:`resume` replays the
  journal and continues the whole fleet bit-identically;
* slice failures are supervised (:mod:`repro.serve.supervision`):
  transient trouble restarts the campaign from its last checkpoint
  with exponential backoff, fatal trouble quarantines it to ``FAILED``
  without touching siblings;
* the fleet degrades gracefully: the shared pool owns its tier (see
  :mod:`repro.perf.pool`) and steps a broken or crash-storming fleet
  down to half the workers, and ultimately to in-process serial
  execution — identical results, reduced throughput; the scheduler
  journals and narrates each change;
* SIGTERM/SIGINT drain cooperatively: in-flight queries finish, every
  campaign checkpoints, the journal records the drain, exit code 0.

Because pooled execution is bit-exact with serial execution (the
pool's equivalence guarantee) and fault schedules are pure functions of
query content (:mod:`repro.runtime.faults`), every campaign's final
``TrainResult`` is independent of the tier, the worker count, sibling
campaigns, crashes healed along the way, and where drains or resumes
sliced the run.
"""

from __future__ import annotations

import math
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core import PoisonRec
from ..obs.trace import recording, traced
from ..perf.pool import QueryPool
from ..runtime.checkpoint import load_campaign, save_campaign
from ..runtime.errors import FailureBudgetExhausted
from ..runtime.faults import FaultPlan, FaultyEnvironment, WorkerFaultPlan
from ..runtime.resilience import ResilienceConfig
from ..runtime.retry import RetryPolicy
from .campaign import CampaignRecord, CampaignSpec, CampaignStatus
from .journal import SchedulerJournal, replay
from .router import CampaignQueryClient, CampaignRouter
from .supervision import (HOST_ERRORS, CampaignSupervisor, DrainController,
                          DrainRequested, RestartPolicy)
from .telemetry import FleetTelemetry


def default_builder(spec: CampaignSpec):
    """Standard testbed builder: ``(env, config, default_steps)``.

    Resolves the spec's scale through the experiment registry and fits
    the recommender system.  Tests inject lighter builders.
    """
    from ..experiments import SCALES, build_environment
    scale = SCALES[spec.scale]
    _, _, env = build_environment(spec.dataset, spec.ranker, scale,
                                  seed=spec.seed)
    return env, scale.config(seed=spec.seed), scale.rl_steps


@dataclass
class FleetResult:
    """Outcome of one :meth:`CampaignScheduler.run` call."""

    records: Dict[str, CampaignRecord] = field(default_factory=dict)
    drained: bool = False
    tier: str = "pooled"
    pool_crashes: int = 0
    serial_fallbacks: int = 0

    @property
    def completed(self) -> List[str]:
        return [name for name, record in self.records.items()
                if record.status is CampaignStatus.COMPLETED]

    @property
    def failed(self) -> List[str]:
        return [name for name, record in self.records.items()
                if record.status is CampaignStatus.FAILED]

    @property
    def all_completed(self) -> bool:
        return all(record.status is CampaignStatus.COMPLETED
                   for record in self.records.values())


class CampaignScheduler:
    """Fair-share, fault-tolerant orchestrator for a campaign fleet.

    Parameters
    ----------
    directory:
        Fleet home: the journal (``journal.jsonl``) and every
        campaign's checkpoint (``<name>.npz``) live here.
    workers:
        Worker fleet size at the healthy (``pooled``) tier; ``1`` runs
        the whole fleet in-process.  The fleet's one
        :class:`~repro.perf.pool.QueryPool` decides any step down.
    slice_steps:
        Training steps one campaign runs per scheduling turn.  Smaller
        slices interleave campaigns more finely and checkpoint more
        often; results are identical for any slicing.
    stall_timeout:
        Per-query worker heartbeat deadline (seconds); ``None``
        disables stall detection.
    worker_chaos:
        Optional seeded :class:`~repro.runtime.faults.WorkerFaultPlan`
        injecting worker kills/stalls — fleet-level chaos for soak
        tests.
    builder:
        ``spec -> (env, config, default_steps)`` testbed factory.
    sleep:
        Injectable clock for retry backoff and restart delays.
    obs:
        Optional :class:`~repro.obs.run.RunTelemetry`: its tracer is
        ambient for the whole of :meth:`run`, which traces scheduler
        slices and pool dispatch; it counts fleet metrics, and logs it
        all to the crash-safe obs run log.  Wired through to every
        campaign's agent and the shared pool; purely observational.
    """

    def __init__(self, directory, workers: int = 1, slice_steps: int = 2,
                 stall_timeout: Optional[float] = None,
                 worker_chaos: Optional[WorkerFaultPlan] = None,
                 restart: Optional[RestartPolicy] = None,
                 telemetry: Optional[FleetTelemetry] = None,
                 builder: Callable = default_builder,
                 sleep: Callable[[float], None] = time.sleep,
                 obs=None) -> None:
        if slice_steps < 1:
            raise ValueError("slice_steps must be at least 1")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal = SchedulerJournal(self.directory / "journal.jsonl")
        self.slice_steps = slice_steps
        self.builder = builder
        self.sleep = sleep
        self.obs = obs
        self.telemetry = telemetry if telemetry is not None \
            else FleetTelemetry(obs=obs)
        self.supervisor = CampaignSupervisor(restart)
        self.drain = DrainController()
        self.router = CampaignRouter()
        self.records: Dict[str, CampaignRecord] = {}
        # Workers fork lazily at the first batch, after every campaign's
        # environment is registered with the router.
        self._pool = QueryPool(self.router, workers=workers,
                               stall_timeout=stall_timeout,
                               chaos=worker_chaos, obs=obs)
        self._tier = (self._pool.tier, self._pool.workers)

    # ------------------------------------------------------------------
    # Submission and resume
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec,
               journal: bool = True) -> CampaignRecord:
        """Register one campaign; journaled unless replaying a resume."""
        if spec.name in self.records:
            raise ValueError(f"campaign {spec.name!r} already submitted")
        record = CampaignRecord(spec, self.directory,
                                submit_order=len(self.records))
        self.records[spec.name] = record
        if journal:
            self.journal.append({"event": "submit", "name": spec.name,
                                 "spec": spec.to_json()})
        return record

    def resume(self) -> None:
        """Reload the fleet from the journal after a crash or drain.

        Terminal campaigns keep their recorded state; every other
        campaign re-enters the queue and will continue from its last
        checkpoint.  New campaigns may still be submitted afterwards.
        """
        ledger = replay(self.journal.path)
        for name, entry in sorted(ledger.campaigns.items(),
                                  key=lambda item: item[1].order):
            record = self.submit(CampaignSpec.from_json(entry.spec),
                                 journal=False)
            record.restarts = entry.restarts
            if entry.status == "completed":
                record.status = CampaignStatus.COMPLETED
            elif entry.status == "failed":
                record.status = CampaignStatus.FAILED
                record.last_error = entry.error
            # Hydrate telemetry with the prior process's journaled
            # counters so the summary table shows real history instead
            # of ``best=-`` and zeroes for resumed campaigns.
            self.telemetry.hydrate(
                name, steps=entry.steps_done, best=entry.best_reward,
                retries=entry.retries, quarantined=entry.quarantined,
                restarts=entry.restarts)

    # ------------------------------------------------------------------
    # Fleet construction
    # ------------------------------------------------------------------
    def _build(self, record: CampaignRecord) -> None:
        spec = record.spec
        env, config, default_steps = self.builder(spec)
        if spec.chaos_rate > 0.0:
            env = FaultyEnvironment(
                env, FaultPlan.retryable(spec.chaos_rate, seed=spec.seed))
        record.env = env
        record.config = config
        if record.total_steps is None:
            record.total_steps = default_steps
        self.router.register(spec.name, env)
        self._rebuild_agent(record)

    def _rebuild_agent(self, record: CampaignRecord) -> None:
        """Fresh agent, restored from the last checkpoint if one exists."""
        record.agent = PoisonRec(
            record.env, record.config,
            action_space=record.spec.action_space,
            query_pool=CampaignQueryClient(self._pool, record.spec.name),
            obs=self.obs)
        record.agent.obs_attrs = {"campaign": record.spec.name}
        if record.checkpoint_path.exists():
            load_campaign(record.agent, record.checkpoint_path)

    def _build_all(self) -> None:
        for record in self.records.values():
            if record.status.terminal:
                continue
            if record.agent is None:
                self._build(record)
            if record.remaining == 0:
                self._complete(record)

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    def run(self, handle_signals: bool = False) -> FleetResult:
        """Drive every campaign to a terminal state (or drain).

        ``handle_signals=True`` routes SIGTERM/SIGINT into a graceful
        drain (main thread only).  Returns the fleet outcome either
        way; a drained fleet resumes with :meth:`resume` + :meth:`run`.
        """
        if handle_signals:
            self.drain.install()
        try:
            with recording(self.obs):
                self._build_all()
                while not self.drain.requested:
                    record = self._next_runnable()
                    if record is None:
                        if self._await_backoff():
                            continue
                        break
                    self._run_slice(record)
                    self._note_tier()
                if self.drain.requested:
                    self._drain_all()
        finally:
            self._pool.close()
            if handle_signals:
                self.drain.uninstall()
            self.journal.close()
        return FleetResult(records=dict(self.records),
                           drained=self.drain.requested,
                           tier=self._pool.tier,
                           pool_crashes=self._pool.crashes,
                           serial_fallbacks=self._pool.serial_fallbacks)

    def _next_runnable(self) -> Optional[CampaignRecord]:
        now = time.monotonic()
        runnable = [record for record in self.records.values()
                    if not record.status.terminal
                    and record.backoff_until <= now]
        if not runnable:
            return None
        return min(runnable, key=lambda record: record.fair_share_key)

    def _await_backoff(self) -> bool:
        """Sleep until the earliest backing-off campaign is runnable.

        Returns False when no campaign owes work (the fleet is done).
        """
        waiting = [record for record in self.records.values()
                   if not record.status.terminal]
        if not waiting:
            return False
        earliest = min(waiting, key=lambda record: record.backoff_until)
        self.sleep(max(earliest.backoff_until - time.monotonic(), 0.0))
        # The sleep contract is fulfilled even under injected test
        # clocks, so the earliest campaign is now runnable by fiat.
        earliest.backoff_until = 0.0
        return True

    def _resilience(self, record: CampaignRecord,
                    steps: int) -> ResilienceConfig:
        spec = record.spec
        return ResilienceConfig(
            retry=RetryPolicy(max_attempts=spec.max_retries + 1),
            failure_budget=spec.failure_budget,
            checkpoint_path=record.checkpoint_path,
            checkpoint_every=steps,
            jitter_seed=spec.seed,
            sleep=self.sleep)

    def _journal_slice(self, record: CampaignRecord) -> None:
        """Append one slice event with the campaign's telemetry counters.

        Beyond the step watermark the event carries the cumulative
        best/retries/quarantined counters (summed over the agent's full
        restored history, so they span prior processes), from which
        :meth:`resume` hydrates :class:`~repro.serve.telemetry
        .FleetTelemetry` after a crash or drain.  ``best`` is
        ``None``-encoded while still ``-inf`` (strict JSON).
        """
        agent = record.agent
        best = agent.result.best_reward
        history = agent.result.history
        self.journal.append({
            "event": "slice", "name": record.spec.name,
            "step": agent.step,
            "best": best if math.isfinite(best) else None,
            "retries": sum(s.retries for s in history),
            "quarantined": sum(s.quarantined for s in history)})

    def _run_slice(self, record: CampaignRecord) -> None:
        spec = record.spec
        record.status = CampaignStatus.RUNNING
        if not record.journaled_running:
            record.journaled_running = True
            self.journal.append({"event": "status", "name": spec.name,
                                 "status": "running"})
        agent = record.agent
        steps = min(self.slice_steps, record.remaining)

        def callback(stats) -> None:
            self.telemetry.observe(spec.name, stats)
            if self.drain.requested:
                raise DrainRequested()

        try:
            with traced("slice", campaign=spec.name, steps=steps,
                        tier=self._pool.tier):
                agent.train(steps, callback=callback,
                            resilience=self._resilience(record, steps))
        except DrainRequested:
            # The step that just finished is complete and consistent;
            # persist it so the drain loses nothing.
            save_campaign(agent, record.checkpoint_path)
            self._journal_slice(record)
            record.status = CampaignStatus.WAITING
            return
        except Exception as error:  # supervised: isolate, never spread
            if isinstance(error, HOST_ERRORS):
                raise  # a sick host is not a campaign-local fault
            self._handle_failure(record, error)
            return
        self._journal_slice(record)
        try:
            self.supervisor.charge_quarantines(record)
        except FailureBudgetExhausted as error:
            self._fail(record, error)
            return
        if record.remaining == 0:
            self._complete(record)
        else:
            record.status = CampaignStatus.WAITING

    def _handle_failure(self, record: CampaignRecord,
                        error: Exception) -> None:
        spec = record.spec
        if self.supervisor.classify(record, error) == "restart":
            record.restarts += 1
            record.last_error = str(error)
            delay = self.supervisor.restart.delay(record.restarts)
            record.backoff_until = time.monotonic() + delay
            record.status = CampaignStatus.RESTARTING
            self.journal.append({"event": "status", "name": spec.name,
                                 "status": "restarting",
                                 "restarts": record.restarts,
                                 "error": str(error)})
            self.telemetry.note_restart(spec.name)
            self.telemetry.event(
                f"campaign {spec.name} restarting from checkpoint "
                f"(attempt {record.restarts}/{spec.max_restarts}, "
                f"backoff {delay:.2f}s): {error}")
            self._rebuild_agent(record)
        else:
            self._fail(record, error)

    def _fail(self, record: CampaignRecord, error: Exception) -> None:
        record.status = CampaignStatus.FAILED
        record.last_error = str(error)
        self.journal.append({"event": "status", "name": record.spec.name,
                             "status": "failed", "error": str(error),
                             "restarts": record.restarts})
        self.telemetry.event(
            f"campaign {record.spec.name} FAILED (isolated): {error}")

    def _complete(self, record: CampaignRecord) -> None:
        record.status = CampaignStatus.COMPLETED
        self.journal.append({"event": "status", "name": record.spec.name,
                             "status": "completed",
                             "step": record.steps_done})
        self.telemetry.event(
            f"campaign {record.spec.name} completed "
            f"({record.steps_done} steps, best "
            f"{record.agent.result.best_reward:.0f})")

    # ------------------------------------------------------------------
    # Degradation and drain
    # ------------------------------------------------------------------
    def _note_tier(self) -> None:
        """Journal, count and narrate a step down the pool has taken."""
        tier, workers = self._pool.tier, self._pool.workers
        if (tier, workers) == self._tier:
            return
        self._tier = (tier, workers)
        self.journal.append({"event": "tier", "tier": tier,
                             "workers": workers})
        self.telemetry.metrics.counter("fleet.tier_changes",
                                       tier=tier).inc()
        self.telemetry.metrics.gauge("fleet.workers").set(workers)
        self.telemetry.event(
            f"fleet degraded to {tier} tier ({workers} worker(s))")

    def _drain_all(self) -> None:
        """Record the drain; every campaign is already checkpointed.

        Slices end with a checkpoint, and a drain interrupting a slice
        checkpoints before unwinding — so by the time the loop reaches
        here there is nothing left to flush except the journal line.
        """
        self.journal.append({"event": "drain",
                             "reason": self.drain.reason or "requested"})
        self.telemetry.event(
            f"fleet drained ({self.drain.reason}): in-flight work "
            "checkpointed, resume with --resume")
