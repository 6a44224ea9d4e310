"""The PoisonRec attack agent — Algorithm 1 of the paper.

Ties together the black-box environment, the policy network, an action
space and the PPO trainer.  Each training step samples ``M`` examples
(each example = N complete trajectories injected into the system for one
RecNum observation), then runs ``K`` PPO epochs over mini-batches of
``B`` examples with normalized rewards.

Long campaigns are resilient: :meth:`PoisonRec.train` accepts a
:class:`~repro.runtime.resilience.ResilienceConfig` that wraps every
environment query in retry/backoff, quarantines samples whose retries
are exhausted (the PPO batch proceeds with the survivors), persists
crash-safe checkpoints every K steps, and rolls back to the last good
checkpoint with a lowered learning rate when the divergence watchdog
fires.  ``train(resume_from=...)`` continues an interrupted campaign
bit-identically — same seed, same trajectory as an uninterrupted run.

Each step samples all ``M`` rollouts up front and then observes their
rewards as one batch, so the queries can be fanned out over a
:class:`~repro.perf.pool.QueryPool` of forked system replicas without
changing a single observed number (see :mod:`repro.perf`).

Attaching a :class:`~repro.obs.run.RunTelemetry` to :attr:`PoisonRec.obs`
traces the hot path (``train_step`` → ``sample`` / ``query_batch`` /
``ppo_update``, with each query's ``query`` → restore / merge / retrain
/ score spans added at the times they were measured, in-process or in a
pool worker) and counts queries/retries/quarantines and phase seconds
in the metrics registry.  Tracing reads the monotonic clock only, so an
instrumented campaign's ``TrainResult.history`` is bit-identical to the
untraced run.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..effects import sanctioned_channel
from ..nn.anomaly import AnomalyError, detect_anomaly
from ..perf.pool import QueryOutcome, QueryPool, serial_outcome
from ..recsys.system import BlackBoxEnvironment
from ..runtime.checkpoint import PathLike, load_campaign, save_campaign
from ..runtime.errors import CampaignDivergenceError
from ..runtime.resilience import CampaignState, ResilienceConfig
from ..runtime.watchdog import RunningMoments
from .action_space import ActionSpace, make_action_space
from .config import PoisonRecConfig
from .policy import PolicyNetwork, Rollout
from .ppo import Experience, PPOTrainer


@dataclass
class StepStats:
    """Per-training-step telemetry."""

    step: int
    mean_reward: float
    max_reward: float
    losses: List[float]
    #: Transient environment failures retried away during this step.
    retries: int = 0
    #: Samples dropped after exhausting their retry attempts.
    quarantined: int = 0
    #: Cumulative divergence rollbacks in the campaign so far.
    rollbacks: int = 0


@dataclass
class TrainResult:
    """Outcome of a training run."""

    history: List[StepStats] = field(default_factory=list)
    best_reward: float = float("-inf")
    best_trajectories: Optional[List[List[int]]] = None

    @property
    def mean_rewards(self) -> List[float]:
        return [s.mean_reward for s in self.history]

    @property
    def max_rewards(self) -> List[float]:
        return [s.max_reward for s in self.history]


class PoisonRec:
    """Adaptive data-poisoning attack agent (the paper's framework).

    Parameters
    ----------
    env:
        The black-box recommender environment to attack (or any wrapper
        with the same surface, e.g.
        :class:`~repro.runtime.faults.FaultyEnvironment`).
    config:
        Algorithm and network hyper-parameters.
    action_space:
        ``"plain"``, ``"bplain"``, ``"bcbt-popular"`` (default, the
        paper's full method) or ``"bcbt-random"``; alternatively an
        already-built :class:`ActionSpace`.
    query_pool:
        Optional :class:`~repro.perf.pool.QueryPool` to fan each step's
        ``M`` reward queries out over worker processes.  Thanks to the
        pool's exact-equivalence guarantee the campaign's history is
        bit-identical to the serial run on the same seed; the pool is
        a pure wall-clock optimization.
    obs:
        Optional :class:`~repro.obs.run.RunTelemetry` tracing the
        training hot path and counting queries/retries/quarantines.
        Purely observational: enabling it leaves the campaign history
        bit-identical.
    """

    def __init__(self, env: BlackBoxEnvironment,
                 config: Optional[PoisonRecConfig] = None,
                 action_space: str | ActionSpace = "bcbt-popular",
                 query_pool: Optional[QueryPool] = None,
                 obs=None) -> None:
        self.env = env
        self.query_pool = query_pool
        self.config = config or PoisonRecConfig()
        #: Labels stamped on this agent's spans and metrics (the
        #: scheduler sets ``{"campaign": name}`` so fleet traces are
        #: attributable per campaign).
        self.obs_attrs: Dict[str, str] = {}
        self._obs = obs
        if isinstance(action_space, str):
            action_space = make_action_space(
                action_space, env.num_original_items, env.target_items,
                env.item_popularity, seed=self.config.seed)
        self.action_space = action_space
        self.policy = PolicyNetwork(action_space,
                                    self.config.num_attackers,
                                    dim=self.config.embedding_dim,
                                    seed=self.config.seed)
        self.trainer = PPOTrainer(self.policy,
                                  learning_rate=self.config.learning_rate,
                                  clip_epsilon=self.config.clip_epsilon,
                                  grad_clip=self.config.grad_clip,
                                  seed=self.config.seed + 1)
        self.rng = np.random.default_rng(self.config.seed + 2)
        self.result = TrainResult()
        self.reward_moments = RunningMoments()
        self._step = 0
        self.trainer.tracer = obs.tracer if obs is not None else None

    # ------------------------------------------------------------------
    @property
    def step(self) -> int:
        """Completed training steps (continues across checkpoint resumes)."""
        return self._step

    @property
    def obs(self):
        """The attached :class:`~repro.obs.run.RunTelemetry` (or None)."""
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value
        self.trainer.tracer = value.tracer if value is not None else None

    def _span(self, name: str, **attrs):
        """A traced span carrying :attr:`obs_attrs`, or a no-op context."""
        if self._obs is None:
            return nullcontext()
        return self._obs.span(name, **self.obs_attrs, **attrs)

    def sample_attack(self) -> Rollout:
        """Sample one set of N trajectories from the current policy."""
        return self.policy.sample_rollout(self.config.trajectory_length,
                                          self.rng)

    def greedy_attack(self) -> Rollout:
        """The policy's deterministic mode (argmax at every decision).

        Useful for deploying a trained strategy: unlike
        :meth:`sample_attack` it returns the same trajectories every call.
        """
        return self.policy.sample_rollout(self.config.trajectory_length,
                                          rng=None)

    # ------------------------------------------------------------------
    # Campaign state (checkpoint/resume)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to resume this campaign bit-identically.

        Policy parameters, Adam state, both RNG streams (trajectory
        sampling and PPO mini-batching), the step counter, the full
        ``StepStats`` history with best-attack bookkeeping, and the
        running reward moments.  Serialized/deserialized by
        :func:`repro.runtime.checkpoint.save_campaign` /
        :func:`~repro.runtime.checkpoint.load_campaign`.
        """
        return {
            "params": [p.data.copy() for p in self.policy.parameters()],
            "optimizer": self.trainer.optimizer.state_dict(),
            "agent_rng": self.rng.bit_generator.state,
            "trainer_rng": self.trainer.rng.bit_generator.state,
            "step": self._step,
            "best_reward": self.result.best_reward,
            "best_trajectories": self.result.best_trajectories,
            "history": [dataclasses.asdict(s) for s in self.result.history],
            "reward_moments": self.reward_moments.state_dict(),
        }

    @sanctioned_channel
    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` in place."""
        params = list(self.policy.parameters())
        saved = state["params"]
        if len(saved) != len(params):
            raise ValueError(
                f"snapshot holds {len(saved)} parameter arrays, the policy "
                f"has {len(params)}")
        for param, array in zip(params, saved):
            param.assign_(array)
        self.trainer.optimizer.load_state_dict(state["optimizer"])
        self.rng.bit_generator.state = state["agent_rng"]
        self.trainer.rng.bit_generator.state = state["trainer_rng"]
        self._step = int(state["step"])
        self.result.best_reward = float(state["best_reward"])
        best = state["best_trajectories"]
        self.result.best_trajectories = (
            None if best is None
            else [[int(item) for item in trajectory] for trajectory in best])
        self.result.history = [StepStats(**entry)
                               for entry in state["history"]]
        self.reward_moments.load_state_dict(state["reward_moments"])

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _query_batch(self, rollouts: List[Rollout],
                     state: Optional[CampaignState]) -> List[QueryOutcome]:
        """Observe one reward per rollout, serially or through the pool.

        Queries are pure functions of their trajectories (the system
        restores its full clean state — parameters and RNG — before each
        one), so batching them after sampling is bit-identical to the
        historical sample-query interleaving: sampling consumes only the
        agent RNG and querying consumes none.  With resilience enabled
        every query runs under the retry policy, non-finite RecNum
        readings count as retryable faults, and exhausted retries come
        back as quarantined outcomes.
        """
        sets = [rollout.trajectories() for rollout in rollouts]
        retry, rng, sleep = ((state.config.retry, state.rng,
                              state.config.sleep) if state is not None
                             else (None, None, None))
        if self.query_pool is not None:
            return self.query_pool.attack_many(sets, retry=retry, rng=rng,
                                               sleep=sleep)
        return [serial_outcome(self.env.attack, trajectories, retry, rng,
                               sleep, observe=self._obs is not None)
                for trajectories in sets]

    def _record_queries(self, outcomes: List[QueryOutcome],
                        parent) -> None:
        """Count every outcome and add its spans under the batch span.

        Each outcome's spans were measured where the query ran — in
        this process or in a forked pool worker, on the same monotonic
        clock — so they are added at their true times.  Every phase
        (a direct child of the ``query`` span) also feeds the
        ``agent.phase_seconds`` histogram.
        """
        if self._obs is None:
            return
        metrics = self._obs.metrics
        for index, outcome in enumerate(outcomes):
            metrics.counter("agent.queries", **self.obs_attrs).inc()
            if outcome.retries:
                metrics.counter("agent.retries",
                                **self.obs_attrs).inc(outcome.retries)
            if outcome.reward is None:
                metrics.counter("agent.quarantined",
                                **self.obs_attrs).inc()
            if not outcome.spans:
                continue
            root = outcome.spans[-1]
            for span in outcome.spans:
                if span.parent_id == root.span_id:
                    metrics.histogram("agent.phase_seconds", phase=span.name,
                                      **self.obs_attrs).observe(span.seconds)
            self._obs.tracer.adopt(outcome.spans, parent_id=parent.span_id,
                                   index=index, pooled=outcome.pooled,
                                   **self.obs_attrs)

    def train_step(self) -> StepStats:
        """One iteration of Algorithm 1's outer loop."""
        return self._train_step(None)

    def _train_step(self, state: Optional[CampaignState]) -> StepStats:
        cfg = self.config
        experiences: List[Experience] = []
        retries = 0
        quarantined = 0
        with self._span("train_step", step=self._step):
            with self._span("sample", samples=cfg.samples_per_step):
                rollouts = [self.sample_attack()
                            for _ in range(cfg.samples_per_step)]
            with self._span("query_batch",
                            samples=len(rollouts)) as batch_span:
                outcomes = self._query_batch(rollouts, state)
            self._record_queries(outcomes, batch_span)
            for rollout, outcome in zip(rollouts, outcomes):
                retries += outcome.retries
                if outcome.reward is None:
                    # Degrade gracefully: drop this sample, keep the
                    # batch.
                    quarantined += 1
                    if state is not None:
                        state.budget.spend(reason=str(outcome.error))
                    continue
                reward = outcome.reward
                experiences.append(Experience(rollout=rollout,
                                              reward=reward))
                self.reward_moments.update(reward)
                if reward > self.result.best_reward:
                    self.result.best_reward = reward
                    self.result.best_trajectories = rollout.trajectories()
            with self._span("ppo_update", examples=len(experiences)):
                losses = (self.trainer.update(experiences,
                                              epochs=cfg.ppo_epochs,
                                              batch_size=cfg.batch_size)
                          if experiences else [])
        rewards = [e.reward for e in experiences]
        stats = StepStats(
            step=self._step,
            mean_reward=float(np.mean(rewards)) if rewards else float("nan"),
            max_reward=float(np.max(rewards)) if rewards else float("nan"),
            losses=losses, retries=retries, quarantined=quarantined,
            rollbacks=state.rollbacks if state is not None else 0)
        if state is not None:
            state.total_retries += retries
            state.total_quarantined += quarantined
        self.result.history.append(stats)
        self._step += 1
        return stats

    def train(self, steps: int,
              callback: Optional[Callable[[StepStats], None]] = None,
              *, resilience: Optional[ResilienceConfig] = None,
              resume_from: Optional[PathLike] = None) -> TrainResult:
        """Run ``steps`` training iterations; returns the accumulated result.

        Parameters
        ----------
        steps:
            Iterations to run *in this call* (on top of any restored
            progress when resuming).
        callback:
            Invoked with each completed step's :class:`StepStats`.
        resilience:
            Enables the fault-tolerant campaign loop: retry/backoff with
            sample quarantine, periodic crash-safe checkpoints, and
            divergence rollback.  Without it the loop behaves exactly as
            the plain reproduction (and produces identical numbers).
        resume_from:
            Path of a :func:`~repro.runtime.checkpoint.save_campaign`
            archive to restore before training.  A resumed campaign
            continues the interrupted one bit-identically.
        """
        if resume_from is not None:
            load_campaign(self, resume_from)
        state = CampaignState(resilience) if resilience is not None else None
        target = self._step + steps
        while self._step < target:
            try:
                if state is not None and state.config.anomaly_mode:
                    with detect_anomaly():
                        stats = self._train_step(state)
                else:
                    stats = self._train_step(state)
            except AnomalyError as error:
                if state is None:
                    raise
                self._handle_divergence(state, f"autograd anomaly: {error}")
                continue
            reason = (state.watchdog.observe(stats)
                      if state is not None and state.watchdog is not None
                      else None)
            if reason is not None:
                self._handle_divergence(state, reason)
                continue
            if state is not None and state.checkpoint_due(self._step):
                save_campaign(self, state.checkpoint_path)
                state.mark_checkpointed()
            if callback is not None:
                callback(stats)
        if state is not None and state.checkpoint_path is not None:
            save_campaign(self, state.checkpoint_path)
            state.mark_checkpointed()
        return self.result

    def _handle_divergence(self, state: CampaignState, reason: str) -> None:
        """Roll back to the last good checkpoint with a lowered lr.

        Without a checkpoint on disk the rollback degrades to a pure
        learning-rate backoff; either way the watchdog is reset and the
        rollback allowance is spent.  Exceeding ``max_rollbacks`` raises
        :class:`CampaignDivergenceError`.
        """
        state.rollbacks += 1
        state.decays_since_checkpoint += 1
        if state.rollbacks > state.config.max_rollbacks:
            raise CampaignDivergenceError(
                f"{reason} — campaign rolled back "
                f"{state.rollbacks - 1} time(s) and the allowance of "
                f"{state.config.max_rollbacks} is spent")
        optimizer = self.trainer.optimizer
        if state.can_rollback():
            load_campaign(self, state.checkpoint_path)
            # The checkpoint restored its own (pre-divergence) lr; apply
            # every decay accumulated since that checkpoint was written.
            decay = state.config.lr_backoff ** state.decays_since_checkpoint
            optimizer.lr = max(state.config.min_lr, optimizer.lr * decay)
        else:
            optimizer.lr = max(state.config.min_lr,
                               optimizer.lr * state.config.lr_backoff)
        if state.watchdog is not None:
            state.watchdog.reset()

    # ------------------------------------------------------------------
    def evaluate(self, num_samples: int = 4) -> float:
        """Mean RecNum of attacks sampled from the current policy."""
        rewards = [serial_outcome(self.env.attack,
                                  self.sample_attack().trajectories()).reward
                   for _ in range(num_samples)]
        return float(np.mean(rewards))

    def target_click_ratio(self, num_samples: int = 8) -> float:
        """Fraction of sampled clicks that land on target items (Figure 5)."""
        total = 0
        on_target = 0
        threshold = self.env.num_original_items
        for _ in range(num_samples):
            items = self.sample_attack().items
            total += items.size
            on_target += int((items >= threshold).sum())
        return on_target / max(total, 1)
