"""RunTelemetry: log round trips, replay, Chrome export, rendering."""

from __future__ import annotations

import json

import pytest

from repro.obs import (RunTelemetry, chrome_trace, load_run, phase_rollup,
                       write_chrome_trace)
from repro.obs.cli import render_events, render_metrics, render_trace
from repro.runtime.errors import CorruptCheckpointError


def record_run(path=None):
    run = RunTelemetry(path)
    with run.tracer.span("train_step", step=0):
        with run.tracer.span("query_batch"):
            run.tracer.add("restore", start=1.0, end=1.25,
                           proc="worker-0")
    run.event("fleet degraded to reduced tier")
    run.metrics.counter("agent.queries", campaign="a").inc(8)
    run.metrics.gauge("fleet.workers").set(2)
    run.metrics.histogram("pool.query_seconds").observe(0.02)
    return run


class TestRunTelemetry:
    def test_memory_only_accumulates(self):
        run = record_run()
        assert run.path is None
        assert [s.name for s in run.tracer.spans] == \
            ["restore", "query_batch", "train_step"]
        assert run.events[0]["message"].startswith("fleet degraded")
        run.close()  # no sink: close is a no-op

    def test_log_round_trip(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        run = record_run(path)
        run.close()
        replay = load_run(path)
        assert [s.name for s in replay.spans] == \
            ["restore", "query_batch", "train_step"]
        rollup = phase_rollup(replay.spans)
        assert rollup["train_step/query_batch/restore"]["seconds"] == \
            pytest.approx(0.25)
        assert replay.events == [{"message": "fleet degraded to reduced "
                                             "tier", "attrs": {}}]
        assert replay.counters == {"agent.queries": 8.0}

    def test_last_metrics_snapshot_wins(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        with RunTelemetry(path) as run:
            run.metrics.counter("n").inc()
            run.flush_metrics()
            run.metrics.counter("n").inc()
        assert load_run(path).counters == {"n": 2.0}

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_obs.jsonl"
        path.write_text('{"event": "submit"}\n')
        with pytest.raises(CorruptCheckpointError):
            load_run(path)


class TestChromeExport:
    def test_structure(self, tmp_path):
        run = record_run()
        path = tmp_path / "chrome.json"
        write_chrome_trace(path, run.tracer.spans, run.events)
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == \
            {"restore", "query_batch", "train_step"}
        restore = next(e for e in complete if e["name"] == "restore")
        assert restore["dur"] == pytest.approx(0.25e6)  # microseconds
        # One thread-name row per logical proc (main + worker-0).
        assert {e["args"]["name"] for e in metadata} == \
            {"main", "worker-0"}
        assert len(instants) == 1

    def test_empty_trace_is_valid(self):
        trace = chrome_trace([])
        assert trace["traceEvents"] == []


@pytest.fixture()
def replay(tmp_path):
    path = tmp_path / "obs.jsonl"
    record_run(path).close()
    return load_run(path)


class TestRendering:
    def test_render_trace_shows_rollup(self, replay):
        text = render_trace(replay)
        assert "train_step" in text
        assert "restore" in text
        assert "3 span(s)" in text

    def test_render_metrics_shows_all_kinds(self, replay):
        text = render_metrics(replay)
        assert "agent.queries" in text
        assert "campaign=a" in text
        assert "fleet.workers" in text
        assert "pool.query_seconds" in text

    def test_render_events_tails(self, replay):
        assert "fleet degraded" in render_events(replay)

    def test_empty_replay_renders_placeholders(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        RunTelemetry(path).close()
        empty = load_run(path)
        assert "no spans" in render_trace(empty)
        assert "no events" in render_events(empty)
