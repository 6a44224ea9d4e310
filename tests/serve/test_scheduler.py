"""CampaignScheduler: multiplexing, isolation, restarts, drains."""

from __future__ import annotations

import pytest

from repro.core import PoisonRec
from repro.obs import RunTelemetry
from repro.runtime.errors import (CorruptCheckpointError,
                                  TransientEnvironmentError)
from repro.serve import (CampaignScheduler, CampaignSpec, CampaignStatus,
                         FleetTelemetry, RestartPolicy, replay)
from repro.serve.router import CampaignQueryClient, CampaignRouter

from .conftest import history_fingerprint

NO_SLEEP = staticmethod(lambda seconds: None)


def make_scheduler(directory, builder, **kwargs):
    kwargs.setdefault("sleep", lambda seconds: None)
    return CampaignScheduler(directory, builder=builder, **kwargs)


class TestRouter:
    def test_router_dispatches_by_name(self):
        class Env:
            def __init__(self, scale):
                self.scale = scale

            def attack(self, trajectories):
                return self.scale * len(trajectories)

        router = CampaignRouter()
        router.register("a", Env(10))
        router.register("b", Env(100))
        assert router.attack(("a", [[1], [2]])) == 20.0
        assert router.attack(("b", [[1], [2]])) == 200.0
        assert router.campaigns == ["a", "b"]
        with pytest.raises(ValueError):
            router.register("a", Env(1))

    def test_client_tags_batches(self):
        class FakePool:
            def __init__(self):
                self.batches = []

            def attack_many(self, sets, retry=None, rng=None, sleep=None):
                self.batches.append(sets)
                return [None] * len(sets)

        pool = FakePool()
        client = CampaignQueryClient(pool, "probe")
        client.attack_many([[[1, 2]], [[3, 4]]])
        assert pool.batches == [[("probe", [[1, 2]]), ("probe", [[3, 4]])]]


class TestScheduling:
    def test_fleet_runs_every_campaign_to_completion(self, tmp_path,
                                                     tiny_builder):
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=2)
        scheduler.submit(CampaignSpec(name="a", steps=3, seed=0))
        scheduler.submit(CampaignSpec(name="b", steps=5, seed=1))
        result = scheduler.run()
        assert result.all_completed
        assert result.records["a"].steps_done == 3
        assert result.records["b"].steps_done == 5

    def test_duplicate_submission_rejected(self, tmp_path, tiny_builder):
        scheduler = make_scheduler(tmp_path, tiny_builder)
        scheduler.submit(CampaignSpec(name="a", steps=2))
        with pytest.raises(ValueError):
            scheduler.submit(CampaignSpec(name="a", steps=2))

    def test_campaigns_interleave_fairly(self, tmp_path, tiny_builder):
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=1)
        scheduler.submit(CampaignSpec(name="a", steps=3, seed=0))
        scheduler.submit(CampaignSpec(name="b", steps=3, seed=0))
        order = []
        original = scheduler._run_slice

        def spy(record):
            order.append(record.spec.name)
            return original(record)

        scheduler._run_slice = spy
        scheduler.run()
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_priority_weights_the_schedule(self, tmp_path, tiny_builder):
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=1)
        scheduler.submit(CampaignSpec(name="fast", steps=4, priority=2.0))
        scheduler.submit(CampaignSpec(name="slow", steps=4))
        order = []
        original = scheduler._run_slice

        def spy(record):
            order.append(record.spec.name)
            return original(record)

        scheduler._run_slice = spy
        scheduler.run()
        # The priority-2 campaign gets two slices per "slow" slice.
        assert order[:3] == ["fast", "slow", "fast"]

    def test_fleet_matches_standalone_agents(self, tmp_path, tiny_builder):
        """Multiplexed campaigns are bit-identical to solo runs."""
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=2)
        scheduler.submit(CampaignSpec(name="a", steps=4, seed=0))
        scheduler.submit(CampaignSpec(name="b", steps=4, seed=1))
        result = scheduler.run()
        assert result.all_completed

        for name, seed in (("a", 0), ("b", 1)):
            env, config, _ = tiny_builder(
                CampaignSpec(name=name, steps=4, seed=seed))
            solo = PoisonRec(env, config)
            solo.train(4)
            assert history_fingerprint(result.records[name]) == [
                (s.step, s.mean_reward, s.max_reward, tuple(s.losses))
                for s in solo.result.history]

    def test_spec_steps_default_to_builder_budget(self, tmp_path,
                                                  tiny_builder):
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=4)
        scheduler.submit(CampaignSpec(name="a"))
        result = scheduler.run()
        assert result.records["a"].steps_done == 4  # TINY_DEFAULT_STEPS

    def test_empty_fleet_returns_immediately(self, tmp_path, tiny_builder):
        result = make_scheduler(tmp_path, tiny_builder).run()
        assert result.records == {}
        assert result.all_completed


class TestIsolationAndRestarts:
    def poisoned_builder(self, tiny_builder, poison_name, error,
                         failures=1):
        """Wrap ``tiny_builder``; one campaign's env fails ``failures``
        times (across all its instances), then recovers."""
        state = {"left": failures}

        def build(spec):
            env, config, steps = tiny_builder(spec)
            if spec.name != poison_name:
                return env, config, steps

            class Poisoned:
                def __init__(self, inner):
                    self._env = inner

                def __getattr__(self, attr):
                    return getattr(self._env, attr)

                def attack(self, trajectories):
                    if state["left"] > 0:
                        state["left"] -= 1
                        raise error
                    return self._env.attack(trajectories)

            return Poisoned(env), config, steps

        return build

    def test_failed_campaign_is_isolated(self, tmp_path, tiny_builder):
        builder = self.poisoned_builder(
            tiny_builder, "bad", CorruptCheckpointError("poisoned"),
            failures=10 ** 6)
        scheduler = make_scheduler(tmp_path, builder, slice_steps=2)
        scheduler.submit(CampaignSpec(name="bad", steps=4, seed=0))
        scheduler.submit(CampaignSpec(name="good", steps=4, seed=1))
        result = scheduler.run()
        assert result.failed == ["bad"]
        assert result.records["bad"].status is CampaignStatus.FAILED
        assert "poisoned" in result.records["bad"].last_error
        # The sibling finished untouched.
        assert result.records["good"].status is CampaignStatus.COMPLETED
        assert result.records["good"].steps_done == 4

    def test_host_errors_are_not_swallowed(self, tmp_path, tiny_builder):
        """A sick host (MemoryError) stops the fleet loudly instead of
        masquerading as a campaign failure."""
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=2)
        scheduler.submit(CampaignSpec(name="a", steps=4))
        self.install_slice_failures(scheduler, "a",
                                    MemoryError("host is sick"), failures=1)
        with pytest.raises(MemoryError):
            scheduler.run()

    @staticmethod
    def install_slice_failures(scheduler, name, error, failures,
                               partial_steps=0):
        """Make ``name``'s next ``failures`` slices fail with ``error``.

        The error escapes ``agent.train`` exactly as a real mid-slice
        failure would (transient env errors inside the slice are
        absorbed by the inner retry/quarantine loop; supervision deals
        with the ones that escape).  ``partial_steps`` first runs that
        many real steps so the failure interrupts a slice mid-way.
        """
        counter = {"left": failures}
        original = scheduler._rebuild_agent

        def rebuild(record):
            original(record)
            if record.spec.name != name:
                return
            inner = record.agent.train

            def train(steps, **kwargs):
                if counter["left"] > 0:
                    counter["left"] -= 1
                    if partial_steps:
                        inner(min(partial_steps, steps), **kwargs)
                    raise error
                return inner(steps, **kwargs)

            record.agent.train = train

        scheduler._rebuild_agent = rebuild

    def test_transient_failure_restarts_from_checkpoint(self, tmp_path,
                                                        tiny_builder):
        scheduler = make_scheduler(
            tmp_path, tiny_builder, slice_steps=2,
            restart=RestartPolicy(base_delay=0.0))
        self.install_slice_failures(
            scheduler, "flaky", TransientEnvironmentError("hiccup"),
            failures=1)
        scheduler.submit(CampaignSpec(name="flaky", steps=4))
        result = scheduler.run()
        record = result.records["flaky"]
        assert record.status is CampaignStatus.COMPLETED
        assert record.restarts == 1
        assert record.steps_done == 4
        # The restart is visible in the journal.
        entry = replay(tmp_path / "journal.jsonl").campaigns["flaky"]
        assert entry.restarts == 1
        assert entry.status == "completed"

    def test_restart_allowance_exhaustion_fails_campaign(self, tmp_path,
                                                         tiny_builder):
        scheduler = make_scheduler(
            tmp_path, tiny_builder, slice_steps=2,
            restart=RestartPolicy(base_delay=0.0))
        self.install_slice_failures(
            scheduler, "flaky", TransientEnvironmentError("hiccup"),
            failures=10 ** 6)
        scheduler.submit(CampaignSpec(name="flaky", steps=4,
                                      max_restarts=2))
        result = scheduler.run()
        record = result.records["flaky"]
        assert record.status is CampaignStatus.FAILED
        assert record.restarts == 2

    def test_restart_backoff_delays_are_exponential(self, tmp_path,
                                                    tiny_builder):
        delays = []
        scheduler = make_scheduler(
            tmp_path, tiny_builder, slice_steps=2,
            restart=RestartPolicy(base_delay=0.5, multiplier=2.0),
            sleep=delays.append)
        self.install_slice_failures(
            scheduler, "flaky", TransientEnvironmentError("hiccup"),
            failures=2)
        scheduler.submit(CampaignSpec(name="flaky", steps=2,
                                      max_restarts=3))
        result = scheduler.run()
        assert result.records["flaky"].status is CampaignStatus.COMPLETED
        backoffs = [d for d in delays if d > 0.1]
        # The awaited remainder is the scheduled delay minus the loop's
        # own (tiny) elapsed time.
        assert len(backoffs) >= 2
        assert 0.4 < backoffs[0] <= 0.5
        assert 0.9 < backoffs[1] <= 1.0

    def test_restarted_campaign_matches_unfailed_run(self, tmp_path,
                                                     tiny_builder):
        """A mid-slice failure + checkpointed restart reproduces the
        failure-free history bit-for-bit."""
        baseline = make_scheduler(tmp_path / "clean", tiny_builder,
                                  slice_steps=2)
        baseline.submit(CampaignSpec(name="c", steps=4, seed=0))
        clean = baseline.run().records["c"]

        scheduler = make_scheduler(
            tmp_path / "flaky", tiny_builder, slice_steps=2,
            restart=RestartPolicy(base_delay=0.0))
        self.install_slice_failures(
            scheduler, "c", TransientEnvironmentError("hiccup"),
            failures=1, partial_steps=1)
        scheduler.submit(CampaignSpec(name="c", steps=4, seed=0))
        record = scheduler.run().records["c"]
        assert record.status is CampaignStatus.COMPLETED
        assert record.restarts == 1
        assert history_fingerprint(record) == history_fingerprint(clean)


class TestDrainAndResume:
    def drain_after(self, scheduler, steps):
        seen = {"count": 0}
        original = scheduler.telemetry.observe

        def observe(name, stats):
            original(name, stats)
            seen["count"] += 1
            if seen["count"] == steps:
                scheduler.drain.request("test")

        scheduler.telemetry.observe = observe

    def test_drain_checkpoints_and_resume_is_bit_identical(self, tmp_path,
                                                           tiny_builder):
        baseline = make_scheduler(tmp_path / "clean", tiny_builder,
                                  slice_steps=2)
        baseline.submit(CampaignSpec(name="a", steps=4, seed=0))
        baseline.submit(CampaignSpec(name="b", steps=4, seed=1))
        clean = baseline.run().records

        fleet_dir = tmp_path / "fleet"
        first = make_scheduler(fleet_dir, tiny_builder, slice_steps=2)
        first.submit(CampaignSpec(name="a", steps=4, seed=0))
        first.submit(CampaignSpec(name="b", steps=4, seed=1))
        self.drain_after(first, 3)  # mid-slice for campaign b
        interrupted = first.run()
        assert interrupted.drained
        assert not interrupted.records["a"].status.terminal
        assert replay(fleet_dir / "journal.jsonl").drained

        second = make_scheduler(fleet_dir, tiny_builder, slice_steps=2)
        second.resume()
        resumed = second.run()
        assert resumed.all_completed
        for name in ("a", "b"):
            assert (history_fingerprint(resumed.records[name])
                    == history_fingerprint(clean[name]))

    def test_resume_skips_terminal_campaigns(self, tmp_path, tiny_builder):
        fleet_dir = tmp_path / "fleet"
        first = make_scheduler(fleet_dir, tiny_builder, slice_steps=4)
        first.submit(CampaignSpec(name="done", steps=2, seed=0))
        first.run()

        second = make_scheduler(fleet_dir, tiny_builder, slice_steps=4)
        second.resume()
        record = second.records["done"]
        assert record.status is CampaignStatus.COMPLETED
        builds = []
        original = second.builder

        def counting_builder(spec):
            builds.append(spec.name)
            return original(spec)

        second.builder = counting_builder
        result = second.run()
        assert result.all_completed
        assert builds == []  # nothing rebuilt, nothing re-run

    def test_resume_accepts_new_submissions(self, tmp_path, tiny_builder):
        fleet_dir = tmp_path / "fleet"
        first = make_scheduler(fleet_dir, tiny_builder, slice_steps=2)
        first.submit(CampaignSpec(name="a", steps=2, seed=0))
        first.run()

        second = make_scheduler(fleet_dir, tiny_builder, slice_steps=2)
        second.resume()
        second.submit(CampaignSpec(name="late", steps=2, seed=1))
        result = second.run()
        assert result.all_completed
        assert result.records["late"].steps_done == 2


class TestTelemetry:
    def test_fleet_telemetry_accumulates(self, tmp_path, tiny_builder):
        telemetry = FleetTelemetry()
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=2,
                                   telemetry=telemetry)
        scheduler.submit(CampaignSpec(name="a", steps=3, seed=0))
        result = scheduler.run()
        counts = telemetry.counts("a")
        assert counts["steps"] == 3
        assert counts["best"] == result.records["a"].agent.result \
            .best_reward
        table = telemetry.render_table(result.records)
        assert "completed" in table and "a" in table

    def test_profiler_rollup_covers_serial_queries(self, tmp_path,
                                                   tiny_builder):
        obs = RunTelemetry()
        telemetry = FleetTelemetry(obs=obs)
        scheduler = make_scheduler(tmp_path, tiny_builder, slice_steps=2,
                                   telemetry=telemetry, obs=obs)
        scheduler.submit(CampaignSpec(name="a", steps=2, seed=0))
        scheduler.run()
        totals = telemetry.phase_totals()
        # Serial tier: restore/retrain/score all happen in-process.
        assert totals, "expected phase histograms at the serial tier"
        assert all(seconds >= 0.0 for seconds in totals.values())
