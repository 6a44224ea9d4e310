"""Worker-side phase shipping and the pooled-campaign trace account.

Every query runs as a ``query`` span in a collecting scope opened where
it executes; the recommender records its attack phases (restore /
merge / retrain / score) into that scope, and a pooled worker ships the
closed spans back with the :class:`~repro.perf.QueryOutcome`.  With
tracing attached, the phase spans must account for (nearly) all of the
pool's busy time — within 5% on the covisitation testbed — and tracing
must leave the training history bit-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import PoisonRec, PoisonRecConfig
from repro.obs import (RunTelemetry, collect_spans, load_run, recording,
                       traced, write_chrome_trace)
from repro.perf import QueryPool
from repro.runtime import FaultPlan, FaultyEnvironment

from .test_pool import HAS_FORK, SumSystem, batch, make_env

needs_fork = pytest.mark.skipif(not HAS_FORK,
                                reason="fork start method unavailable")

PHASES = ("restore", "merge", "retrain", "score")


def env_batch(env, count, seed=0):
    """Query batches whose item ids fit the tiny environment."""
    rng = np.random.default_rng(seed)
    return [[list(map(int, rng.integers(0, env.num_original_items, size=5)))
             for _ in range(3)] for _ in range(count)]


def phase_spans(outcome):
    """``{phase: span}`` of the direct children of the query span."""
    root = outcome.spans[-1]
    assert root.name == "query"
    return {span.name: span for span in outcome.spans
            if span.parent_id == root.span_id}


class TestCollectingScope:
    def test_scope_isolates_new_queries(self):
        with collect_spans() as earlier:
            with traced("score"):
                pass
        with collect_spans() as scope:
            with traced("score"):
                pass
            with traced("merge"):
                pass
        # Only the spans opened inside this scope, not the earlier one.
        assert [span.name for span in scope.spans] == ["score", "merge"]
        assert [span.name for span in earlier.spans] == ["score"]

    def test_no_scope_is_a_no_op(self):
        with traced("score") as span:
            assert span is None
        with collect_spans() as outer:
            with collect_spans() as inner:
                with traced("merge"):
                    pass
            with traced("score"):
                pass
        # The inner scope collected its own span and restored the outer.
        assert [span.name for span in inner.spans] == ["merge"]
        assert [span.name for span in outer.spans] == ["score"]

    def test_phases_recorded_behind_wrappers(self):
        env = FaultyEnvironment(make_env(), FaultPlan())
        with collect_spans() as scope:
            env.attack(env_batch(env, 1)[0])
        assert [span.name for span in scope.spans] == list(PHASES)
        with collect_spans() as scope:
            SumSystem().attack(batch(1)[0])
        assert scope.spans == []


@needs_fork
class TestWorkerShipping:
    def test_phases_shipped_and_merged_into_parent(self):
        env = make_env()
        with QueryPool(env, workers=2) as pool:
            outcomes = pool.attack_many(env_batch(env, 6))
            assert pool.parallel
            busy = pool.metrics.histogram("pool.query_seconds")
            assert busy.count == 6
            assert busy.total > 0.0
        for outcome in outcomes:
            assert outcome.pooled
            assert outcome.seconds > 0.0
            phases = phase_spans(outcome)
            assert set(phases) == set(PHASES)
            assert {span.proc for span in outcome.spans} <= {
                "worker-0", "worker-1"}
            # Phase time is a subset of the worker's total query time.
            assert sum(span.seconds
                       for span in phases.values()) <= outcome.seconds
        # Every query scored exactly once, despite running out-of-process.
        assert sum(span.name == "score" for outcome in outcomes
                   for span in outcome.spans) == 6

    def test_untimed_without_observability_consumers(self):
        """No phases recorded -> outcomes still ship wall seconds."""
        with QueryPool(SumSystem(), workers=2) as pool:
            outcomes = pool.attack_many(batch(3))
        for outcome in outcomes:
            assert outcome.pooled
            assert outcome.seconds > 0.0
            assert [span.name for span in outcome.spans] == ["query"]


class TestSerialTier:
    def test_serial_outcomes_timed_when_observed(self):
        env = make_env()
        run = RunTelemetry()
        pool = QueryPool(env, workers=1, obs=run)
        with recording(run):
            outcomes = pool.attack_many(env_batch(env, 4))
        for outcome in outcomes:
            assert not outcome.pooled
            assert outcome.seconds > 0.0
            assert "score" in phase_spans(outcome)
        batches = [s for s in run.tracer.spans if s.name == "pool.batch"]
        assert len(batches) == 1
        assert batches[0].attrs["tier"] == "serial"
        # Without telemetry the in-process path stays untimed.
        untimed = QueryPool(env, workers=1).attack_many(env_batch(env, 1))
        assert untimed[0].spans is None and untimed[0].seconds is None


@needs_fork
class TestPooledCampaignTrace:
    def run_campaign(self, obs=None, workers=4, log=None):
        env = make_env()
        run = RunTelemetry(log) if obs else None
        pool = QueryPool(env, workers=workers, obs=run) if workers else None
        agent = PoisonRec(env, PoisonRecConfig.ci(), action_space="plain",
                          query_pool=pool, obs=run)
        result = agent.train(steps=2)
        busy_seconds = (pool.metrics.histogram("pool.query_seconds").total
                          if pool else 0.0)
        fallbacks = pool.serial_fallbacks if pool else 0
        if pool is not None:
            pool.close()
        if run is not None:
            run.close()
        history = [(s.step, s.mean_reward, s.max_reward, tuple(s.losses))
                   for s in result.history]
        return history, busy_seconds, fallbacks

    def test_trace_accounts_for_pooled_query_time(self, tmp_path):
        """Phase spans sum to within 5% of the pool's busy seconds, the
        Chrome export is loadable, and tracing leaves the history
        bit-identical."""
        log = tmp_path / "obs.jsonl"
        traced, busy_seconds, fallbacks = self.run_campaign(
            obs=True, workers=4, log=log)
        assert fallbacks == 0  # every query went through the workers

        replay = load_run(log)
        phase_total = sum(span.seconds for span in replay.spans
                          if span.name in PHASES)
        assert busy_seconds > 0.0
        assert phase_total == pytest.approx(busy_seconds, rel=0.05)

        # Per-query metrics agree with the span account: the busy
        # seconds are the very query spans the workers measured.
        snapshot = {(m["name"], tuple(sorted(m.get("labels", {}).items()))):
                    m for m in replay.metrics}
        queries = snapshot[("pool.queries", (("tier", "pooled"),))]
        latency = snapshot[("pool.query_seconds", ())]
        assert queries["value"] == latency["count"] > 0
        query_total = sum(span.seconds for span in replay.spans
                          if span.name == "query")
        assert latency["total"] == pytest.approx(query_total, rel=1e-6)
        assert latency["total"] == pytest.approx(busy_seconds, rel=1e-6)

        # The Chrome trace export is well-formed and covers the spans.
        export = tmp_path / "chrome.json"
        write_chrome_trace(export, replay.spans, replay.events)
        with open(export, encoding="utf-8") as handle:
            trace = json.load(handle)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {"train_step", "query_batch", "pool.batch"} <= \
            {e["name"] for e in complete}

        # Tracing is purely observational: the untraced serial history
        # is bit-identical (pool equivalence + tracer non-interference).
        untraced, _, _ = self.run_campaign(obs=None, workers=0)
        assert traced == untraced
