"""Crash-safe JSONL: sanitization, torn tails, kill -9 replay."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.obs import JsonlSink, jsonable, load_run, read_jsonl
from repro.runtime.errors import CorruptCheckpointError


class TestJsonable:
    def test_passthrough_and_nonfinite(self):
        assert jsonable({"a": 1, "b": True, "c": "x"}) == \
            {"a": 1, "b": True, "c": "x"}
        assert jsonable(float("nan")) is None
        assert jsonable(float("inf")) is None
        assert jsonable(float("-inf")) is None
        assert jsonable(1.5) == 1.5

    def test_numpy_scalars_and_nesting(self):
        value = {"f": np.float64(2.5), "i": np.int64(3),
                 "seq": (np.float32(1.0), [np.int32(2)])}
        assert jsonable(value) == {"f": 2.5, "i": 3, "seq": [1.0, [2]]}

    def test_fallback_is_str(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert jsonable(Opaque()) == "<opaque>"

    def test_output_is_strict_json(self):
        record = jsonable({"nan": float("nan"), "x": np.float64(7)})
        json.dumps(record, allow_nan=False)  # must not raise


class TestSinkAndReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlSink(path) as sink:
            sink.append({"obs": "a", "n": 1})
            sink.append({"obs": "b", "n": float("nan")})
        records = read_jsonl(path, expect_key="obs")
        assert records == [{"obs": "a", "n": 1}, {"obs": "b", "n": None}]

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlSink(path) as sink:
            sink.append({"obs": "a"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"obs": "tor')  # writer died mid-append
        assert read_jsonl(path) == [{"obs": "a"}]

    def test_earlier_garbling_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"obs": "a"}\ngarbage\n{"obs": "b"}\n')
        with pytest.raises(CorruptCheckpointError, match="garbled"):
            read_jsonl(path)

    def test_missing_discriminator_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"other": 1}\n')
        with pytest.raises(CorruptCheckpointError, match="valid record"):
            read_jsonl(path, expect_key="obs")


KILLED_WRITER = """
import sys
from repro.obs import RunTelemetry

run = RunTelemetry(sys.argv[1])
run.metrics.counter("spans").inc(0)
step = 0
while True:
    with run.tracer.span("step", index=step):
        run.metrics.counter("spans").inc()
    if step % 10 == 0:
        run.flush_metrics()
    step += 1
    print(step, flush=True)
"""


def test_run_log_replays_after_kill_dash_nine(tmp_path):
    """SIGKILL mid-write loses at most the torn tail, never the log."""
    path = tmp_path / "obs.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-c", KILLED_WRITER, str(path)],
        stdout=subprocess.PIPE, text=True)
    try:
        # Wait until the writer has demonstrably flushed real records.
        for _ in range(200):
            line = proc.stdout.readline()
            if line and int(line) >= 30:
                break
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL

    replay = load_run(path)  # must parse despite the unclean death
    assert len(replay.spans) >= 25
    # Spans are flushed in order; ids are sequential with no holes.
    ids = [span.span_id for span in replay.spans]
    assert ids == list(range(1, len(ids) + 1))
    # The last flushed metrics snapshot is internally consistent: its
    # counter can only trail the spans that made it to disk.
    if replay.metrics:
        assert replay.counters["spans"] <= len(replay.spans) + 1
