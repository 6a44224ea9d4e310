"""QueryPool: equivalence, ordering, crash healing, retry semantics."""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest

from repro.core import PoisonRec, PoisonRecConfig
from repro.data import DatasetSpec, generate_log, leave_one_out_split
from repro.perf import QueryOutcome, QueryPool, WorkerCrashError
from repro.recsys import BlackBoxEnvironment, RecommenderSystem
from repro.runtime import (FaultPlan, FaultyEnvironment, ResilienceConfig,
                           RetryPolicy, WorkerFaultPlan)
from repro.runtime.errors import (RetriesExhaustedError,
                                  TransientEnvironmentError)

HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK,
                                reason="fork start method unavailable")


def make_env(ranker="covisitation", seed=0):
    spec = DatasetSpec(name="tiny", num_users=30, num_items=50,
                       num_samples=300, num_clusters=4)
    dataset = leave_one_out_split("tiny", generate_log(spec, seed=7))
    system = RecommenderSystem(dataset, ranker, seed=seed, num_attackers=8)
    return BlackBoxEnvironment(system)


class SumSystem:
    """Deterministic stand-in: reward = sum of all injected item ids."""

    def __init__(self):
        self.query_count = 0

    def attack(self, trajectories):
        self.query_count += 1
        return float(sum(sum(t) for t in trajectories))


class CrashingSystem(SumSystem):
    """Kills the worker process while ``flag_path`` does not exist."""

    def __init__(self, flag_path, crashes=1):
        super().__init__()
        self.flag_path = str(flag_path)
        self.crashes = crashes

    def attack(self, trajectories):
        count = 0
        while os.path.exists(f"{self.flag_path}.{count}"):
            count += 1
        if count < self.crashes:
            open(f"{self.flag_path}.{count}", "w").close()
            os._exit(1)
        return super().attack(trajectories)


class ChildOnlyCrashSystem(SumSystem):
    """Crashes in every forked worker but works in the parent process."""

    def __init__(self):
        super().__init__()
        self.parent_pid = os.getpid()

    def attack(self, trajectories):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return super().attack(trajectories)


class FlakySystem(SumSystem):
    """Raises a transient error until ``failures`` flag files exist."""

    def __init__(self, flag_path, failures=1):
        super().__init__()
        self.flag_path = str(flag_path)
        self.failures = failures

    def attack(self, trajectories):
        count = 0
        while os.path.exists(f"{self.flag_path}.{count}"):
            count += 1
        if count < self.failures:
            open(f"{self.flag_path}.{count}", "w").close()
            raise TransientEnvironmentError("flaky")
        return super().attack(trajectories)


class AlwaysTransientSystem(SumSystem):
    def attack(self, trajectories):
        raise TransientEnvironmentError("always down")


class BoomError(RuntimeError):
    pass


class FatalSystem(SumSystem):
    def attack(self, trajectories):
        raise BoomError("not transient")


def batch(count, seed=0):
    rng = np.random.default_rng(seed)
    return [[list(map(int, rng.integers(0, 100, size=5))) for _ in range(3)]
            for _ in range(count)]


# ----------------------------------------------------------------------
# Serial fallback (workers=1)
# ----------------------------------------------------------------------
def test_workers_one_never_spawns_processes():
    system = SumSystem()
    pool = QueryPool(system, workers=1)
    outcomes = pool.attack_many(batch(4))
    assert not pool.parallel
    assert all(proc is None for proc in pool._procs)
    assert [o.reward for o in outcomes] == [
        float(sum(sum(t) for t in sets)) for sets in batch(4)]
    assert system.query_count == 4
    pool.close()


def test_invalid_workers_rejected():
    with pytest.raises(ValueError):
        QueryPool(SumSystem(), workers=0)
    with pytest.raises(ValueError):
        QueryPool(SumSystem(), crash_retries=-1)


# ----------------------------------------------------------------------
# Parallel equivalence
# ----------------------------------------------------------------------
@needs_fork
def test_parallel_matches_serial_order_and_values():
    sets = batch(9, seed=3)
    serial = [float(sum(sum(t) for t in s)) for s in sets]
    system = SumSystem()
    with QueryPool(system, workers=3) as pool:
        outcomes = pool.attack_many(sets)
    assert [o.reward for o in outcomes] == serial
    assert all(o.retries == 0 and o.error is None for o in outcomes)
    # The parent's budget counter reflects worker-side queries.
    assert system.query_count == len(sets)


@needs_fork
def test_parallel_campaign_bit_identical_to_serial():
    """workers=4 produces the exact serial StepStats history (ISSUE
    acceptance criterion)."""
    def run(pool_workers):
        env = make_env()
        pool = (QueryPool(env, workers=pool_workers)
                if pool_workers else None)
        agent = PoisonRec(env, PoisonRecConfig.ci(), action_space="plain",
                          query_pool=pool)
        result = agent.train(steps=2)
        if pool is not None:
            pool.close()
        history = [(s.step, s.mean_reward, s.max_reward, tuple(s.losses),
                    s.retries, s.quarantined) for s in result.history]
        return history, result.best_reward, env.query_count

    serial_history, serial_best, serial_queries = run(0)
    pooled_history, pooled_best, pooled_queries = run(4)
    assert pooled_history == serial_history
    assert pooled_best == serial_best
    assert pooled_queries == serial_queries


@needs_fork
def test_pool_reusable_across_batches():
    system = SumSystem()
    with QueryPool(system, workers=2) as pool:
        first = pool.attack_many(batch(4, seed=1))
        second = pool.attack_many(batch(4, seed=2))
    assert [o.reward for o in first] == [
        float(sum(sum(t) for t in s)) for s in batch(4, seed=1)]
    assert [o.reward for o in second] == [
        float(sum(sum(t) for t in s)) for s in batch(4, seed=2)]


def test_empty_batch():
    assert QueryPool(SumSystem(), workers=1).attack_many([]) == []


# ----------------------------------------------------------------------
# Crash healing
# ----------------------------------------------------------------------
@needs_fork
def test_worker_crash_is_healed(tmp_path):
    system = CrashingSystem(tmp_path / "crash", crashes=1)
    sets = batch(5, seed=4)
    with QueryPool(system, workers=2) as pool:
        outcomes = pool.attack_many(sets)
    assert pool.crashes >= 1
    assert [o.reward for o in outcomes] == [
        float(sum(sum(t) for t in s)) for s in sets]
    assert sum(o.retries for o in outcomes) >= 1


@needs_fork
def test_crash_looping_query_falls_back_to_serial():
    system = ChildOnlyCrashSystem()
    sets = batch(3, seed=5)
    with QueryPool(system, workers=2, crash_retries=1) as pool:
        outcomes = pool.attack_many(sets)
    # Every query kills every worker, so each one must have completed
    # in-process in the parent.
    assert pool.serial_fallbacks == len(sets)
    assert [o.reward for o in outcomes] == [
        float(sum(sum(t) for t in s)) for s in sets]


# ----------------------------------------------------------------------
# Transient errors and the retry policy
# ----------------------------------------------------------------------
@needs_fork
def test_transient_error_retried_to_success(tmp_path):
    system = FlakySystem(tmp_path / "flaky", failures=2)
    policy = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)
    sets = batch(1, seed=6)
    with QueryPool(system, workers=2) as pool:
        outcomes = pool.attack_many(sets, retry=policy,
                                    rng=np.random.default_rng(0),
                                    sleep=lambda _: None)
    assert outcomes[0].reward == float(sum(sum(t) for t in sets[0]))
    assert outcomes[0].retries >= 2


@needs_fork
def test_retries_exhausted_becomes_quarantine_outcome():
    policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
    with QueryPool(AlwaysTransientSystem(), workers=2) as pool:
        outcomes = pool.attack_many(batch(2), retry=policy,
                                    rng=np.random.default_rng(0),
                                    sleep=lambda _: None)
    for outcome in outcomes:
        assert outcome.reward is None
        assert isinstance(outcome.error, RetriesExhaustedError)
        assert outcome.error.attempts == 2


@needs_fork
def test_transient_error_without_policy_raises():
    with QueryPool(AlwaysTransientSystem(), workers=2) as pool:
        with pytest.raises(TransientEnvironmentError):
            pool.attack_many(batch(2))


@needs_fork
def test_fatal_error_propagates():
    with QueryPool(FatalSystem(), workers=2) as pool:
        with pytest.raises(BoomError):
            pool.attack_many(batch(2))


class StallOnceSystem(SumSystem):
    """Hangs (once) past any reasonable heartbeat, then serves normally."""

    def __init__(self, flag_path, seconds=2.0):
        super().__init__()
        self.flag_path = str(flag_path)
        self.seconds = seconds

    def attack(self, trajectories):
        if not os.path.exists(self.flag_path):
            open(self.flag_path, "w").close()
            time.sleep(self.seconds)
        return super().attack(trajectories)


class PinProbeSystem(SumSystem):
    """Fails with a replica-safe error ``failures`` times *per worker*.

    Each failure drops a ``fail.<pid>.<n>`` flag file, so a test can
    verify that all retry attempts landed on the same worker (retry
    pinning) — an unpinned retry would bounce to a fresh worker whose
    failure count starts at zero.
    """

    def __init__(self, flag_dir, failures=2):
        super().__init__()
        self.flag_dir = str(flag_dir)
        self.failures = failures

    def attack(self, trajectories):
        pid = os.getpid()
        count = 0
        while os.path.exists(f"{self.flag_dir}/fail.{pid}.{count}"):
            count += 1
        if count < self.failures:
            open(f"{self.flag_dir}/fail.{pid}.{count}", "w").close()
            error = TransientEnvironmentError("injected, replica untouched")
            error.replica_safe = True
            raise error
        return super().attack(trajectories)


class NaNOnceSystem(SumSystem):
    """Returns a corrupt (non-finite) reward on the first query."""

    def __init__(self, flag_path):
        super().__init__()
        self.flag_path = str(flag_path)

    def attack(self, trajectories):
        reward = super().attack(trajectories)
        if not os.path.exists(self.flag_path):
            open(self.flag_path, "w").close()
            return float("nan")
        return reward


# ----------------------------------------------------------------------
# Stall heartbeat, worker chaos, and retry pinning
# ----------------------------------------------------------------------
@needs_fork
def test_stalled_worker_detected_and_query_reissued(tmp_path):
    system = StallOnceSystem(tmp_path / "stall", seconds=30.0)
    sets = batch(3, seed=8)
    with QueryPool(system, workers=2, stall_timeout=0.2) as pool:
        outcomes = pool.attack_many(
            sets, retry=RetryPolicy(max_attempts=4, base_delay=0.0,
                                    jitter=0.0),
            rng=np.random.default_rng(0), sleep=lambda _: None)
    assert pool.crashes >= 1
    assert [o.reward for o in outcomes] == [
        float(sum(sum(t) for t in s)) for s in sets]


@needs_fork
def test_chaos_worker_kills_are_healed():
    chaos = WorkerFaultPlan(kill_rate=0.4, seed=11)
    system = SumSystem()
    sets = batch(8, seed=9)
    with QueryPool(system, workers=2, chaos=chaos) as pool:
        outcomes = pool.attack_many(
            sets, retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                                    jitter=0.0),
            rng=np.random.default_rng(0), sleep=lambda _: None)
    assert pool.crashes >= 1
    assert [o.reward for o in outcomes] == [
        float(sum(sum(t) for t in s)) for s in sets]


@needs_fork
def test_chaos_worker_stalls_are_healed():
    chaos = WorkerFaultPlan(stall_rate=0.5, stall_seconds=5.0, seed=3)
    system = SumSystem()
    sets = batch(4, seed=10)
    with QueryPool(system, workers=2, stall_timeout=0.2, chaos=chaos) as pool:
        outcomes = pool.attack_many(
            sets, retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                                    jitter=0.0),
            rng=np.random.default_rng(0), sleep=lambda _: None)
    # Directives are drawn per dispatch attempt, so a stalled query is
    # eventually served (possibly in-process after a crash loop).
    assert pool.crashes >= 1
    assert [o.reward for o in outcomes] == [
        float(sum(sum(t) for t in s)) for s in sets]


@needs_fork
def test_replica_safe_errors_keep_the_worker_alive(tmp_path):
    system = PinProbeSystem(tmp_path, failures=1)
    sets = batch(4, seed=12)
    with QueryPool(system, workers=2) as pool:
        outcomes = pool.attack_many(
            sets, retry=RetryPolicy(max_attempts=4, base_delay=0.0,
                                    jitter=0.0),
            rng=np.random.default_rng(0), sleep=lambda _: None)
    # Tagged errors ship as data: no worker death, no respawn.
    assert pool.crashes == 0
    assert [o.reward for o in outcomes] == [
        float(sum(sum(t) for t in s)) for s in sets]


@needs_fork
def test_retries_are_pinned_to_the_failing_worker(tmp_path):
    system = PinProbeSystem(tmp_path, failures=2)
    with QueryPool(system, workers=2) as pool:
        outcomes = pool.attack_many(
            batch(1, seed=13),
            retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0),
            rng=np.random.default_rng(0), sleep=lambda _: None)
    assert outcomes[0].reward is not None
    assert outcomes[0].retries == 2
    # Both failures (and the success) happened in one worker: pinning
    # kept the replica's per-query occurrence counters advancing.
    pids = {path.split(".")[-2]
            for path in glob.glob(f"{tmp_path}/fail.*")}
    assert len(pids) == 1


@needs_fork
def test_corrupt_reward_is_retried_in_pool(tmp_path):
    system = NaNOnceSystem(tmp_path / "nan")
    sets = batch(2, seed=14)
    with QueryPool(system, workers=2) as pool:
        outcomes = pool.attack_many(
            sets, retry=RetryPolicy(max_attempts=4, base_delay=0.0,
                                    jitter=0.0),
            rng=np.random.default_rng(0), sleep=lambda _: None)
    assert pool.crashes == 0
    assert all(np.isfinite(o.reward) for o in outcomes)
    assert sum(o.retries for o in outcomes) >= 1


@needs_fork
def test_chaos_campaign_bit_identical_to_serial_chaos():
    """Pooled + env chaos produces the exact serial chaos history
    (the lifted --workers/--chaos CLI restriction, satellite 1)."""
    def run(pool_workers):
        env = FaultyEnvironment(make_env(),
                                FaultPlan.mixed(0.3, seed=5))
        pool = (QueryPool(env, workers=pool_workers)
                if pool_workers else None)
        agent = PoisonRec(env, PoisonRecConfig.ci(), action_space="plain",
                          query_pool=pool)
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=4), watchdog=None,
            jitter_seed=0, sleep=lambda _: None)
        result = agent.train(steps=2, resilience=resilience)
        if pool is not None:
            pool.close()
        return [(s.step, s.mean_reward, s.max_reward, tuple(s.losses),
                 s.retries, s.quarantined) for s in result.history]

    assert run(0) == run(3)


class NoSpawnContext:
    """A start-method context whose every spawn fails (e.g. EAGAIN)."""

    def Pipe(self, duplex=True):
        raise OSError("resource temporarily unavailable")


class TestDegradation:
    """The pool's one-way tiers: pooled -> reduced -> serial."""

    @staticmethod
    def run_batch(pool, count):
        sets = batch(count, seed=15)
        outcomes = pool.attack_many(sets)
        # Identical results in every tier, whatever the workers suffered.
        assert [o.reward for o in outcomes] == [
            float(sum(sum(t) for t in s)) for s in sets]

    @staticmethod
    def kill_storm():
        # Every dispatch kills its worker, so each query dies
        # crash_retries + 1 = 4 times and then runs in-process.
        return WorkerFaultPlan(kill_rate=1.0, seed=0)

    def test_starts_serial_for_one_worker(self):
        assert QueryPool(SumSystem(), workers=1).tier == "serial"
        assert QueryPool(SumSystem(), workers=4).tier == (
            "pooled" if HAS_FORK else "serial")

    @needs_fork
    def test_crash_storm_halves_workers(self):
        with QueryPool(SumSystem(), workers=8,
                       chaos=self.kill_storm()) as pool:
            self.run_batch(pool, 1)       # 4 deaths: below the storm
            assert (pool.tier, pool.workers) == ("pooled", 8)
            self.run_batch(pool, 2)       # 8 deaths since the last check
            assert (pool.tier, pool.workers) == ("reduced", 4)
            assert pool.crashes == 12

    @needs_fork
    def test_broken_pool_downgrades(self, monkeypatch):
        pool = QueryPool(SumSystem(), workers=4)
        monkeypatch.setattr(pool, "_ctx", NoSpawnContext())
        self.run_batch(pool, 3)
        assert (pool.tier, pool.workers) == ("reduced", 2)

    @needs_fork
    def test_reduction_bottoms_out_at_serial(self):
        with QueryPool(SumSystem(), workers=2,
                       chaos=self.kill_storm()) as pool:
            self.run_batch(pool, 2)
            assert (pool.tier, pool.workers) == ("serial", 1)
            assert not pool.parallel
            # Serial is terminal: no workers left to kill (the crash
            # count stands despite the kill-everything plan), and no way
            # back up.
            self.run_batch(pool, 2)
            assert (pool.tier, pool.workers) == ("serial", 1)
            assert pool.crashes == 8


def test_worker_crash_error_is_transient():
    assert issubclass(WorkerCrashError, TransientEnvironmentError)


def test_outcome_defaults():
    outcome = QueryOutcome(reward=1.0)
    assert outcome.retries == 0 and outcome.error is None
