"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/tests``.  The tiny runs use
``--tiny`` inputs, so every workload finishes in seconds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) \
        == run.WORKLOAD_NAMES == workloads.WORKLOADS
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


def test_every_name_is_well_formed():
    names = ([name for name, _ in run.END_TO_END + run.PER_LAYER]
             + list(run.WORKLOAD_NAMES))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for _, unit in run.END_TO_END + run.PER_LAYER:
        assert UNIT.fullmatch(unit), unit


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = run.PER_LAYER if trace else run.END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == dict(catalogue)
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
    assert re.search(r"^digest: [0-9a-f]{16}$", done.stdout, re.M)


def traced_spans(workload, ops: int):
    with run.tracing(workload) as recorder:
        workload.setup()
        for _ in range(ops):
            with recorder.span(workload.root, new_op=True):
                workload.op()
    return recorder.spans


def test_no_child_self_time_exceeds_its_parent(tmp_path):
    workload = workloads.make_workload("paper-step", 3, tmp_path, tiny=True)
    spans = traced_spans(workload, ops=3)
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    names = {span.name for span in spans}
    assert {"step", "core.sample", "recsys.query", "recsys.retrain",
            "recsys.score_batch", "data.generate", "recsys.fit"} <= names
    for span in spans:
        assert own[span.span_id] >= 0.0
        if span.parent is None:
            continue
        parent = by_id[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
        assert own[span.span_id] <= parent.seconds
        assert span.op == parent.op
    # Self times of one operation add up to the operation's duration.
    for root in (s for s in spans if s.name == "step"):
        inside = [s for s in spans if s.op == root.op]
        assert sum(own[s.span_id] for s in inside) \
            == pytest.approx(root.seconds, rel=1e-9)
    queries = {s.query for s in spans if s.name == "recsys.query"}
    assert len(queries) == sum(s.name == "recsys.query" for s in spans)


def run_in_process(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return last_json(capsys.readouterr().out)


def test_planted_probe_mismatch_raises_failed_frac(capsys, monkeypatch):
    probe = workloads.CampaignWorkload.probe

    def drifting(self):
        probe(self)
        self.probes[-1] += len(self.probes) - 1

    monkeypatch.setattr(workloads.CampaignWorkload, "probe", drifting)
    result = run_in_process(capsys, "--workload", "paper-step", "--seed",
                            "3", "--seconds", "0.2", "--trace", "1",
                            "--tiny")
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_planted_analyzer_exit_raises_failed_frac(capsys, monkeypatch):
    def clean(counts):
        def main(argv):
            print(json.dumps(dict(counts, diagnostics=[])))
            return 0
        return main

    for name, module, _ in workloads.CheckWorkload.analyzers:
        monkeypatch.setattr(module, "main",
                            clean(workloads.CORPUS_COUNTS[name]))
    monkeypatch.setattr(workloads.faultcheck, "main", lambda argv: 1)
    result = run_in_process(capsys, "--workload", "check", "--seed", "3",
                            "--seconds", "0.2", "--trace", "1")
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
