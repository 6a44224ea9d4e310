"""Run one benchmark workload in this process and print its metrics.

Usage::

    python3 perfbench/run.py --workload paper-step --seed 1 --seconds 10 --trace 0

The run builds the workload's inputs from ``--seed`` several times (the
median is ``setup_s``; before each build the last one is dropped and
garbage is collected), runs one untimed warm-up operation, collects
garbage, and then runs operations back to back for ``--seconds``.  With
``--trace 1`` the same time is split in two halves: an untraced window,
then a window with spans around the calls into each layer, and the run
prints the per-layer metrics instead of the end-to-end ones.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads: forked pool
# workers inherit it, so the fleet's two workers own the two cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Instrumentation, SpanRecorder, rollup  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-step", "retrain-10k", "fleet", "check")

#: Set-up is repeated at least this often, and until this long has passed.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Layers timed during set-up; reported per set-up.
SETUP_LAYERS = ("data.generate", "recsys.fit", "recsys.init_other",
                "core.init", "devtools.index")
#: Layers timed during operations; reported per traced operation.
OP_LAYERS = ("core.sample", "core.ppo_update", "nn.forward", "nn.backward",
             "nn.optim", "recsys.restore", "data.merge", "recsys.retrain",
             "recsys.score", "recsys.score_batch", "recsys.query_other",
             "core.train_other", "perf.dispatch", "serve.build",
             "runtime.checkpoint", "serve.journal", "serve.other",
             "devtools.graphlint", "devtools.effectcheck",
             "devtools.faultcheck", "other")
#: Spans whose self time is reported under another layer name: a root
#: span's self time is the part of an operation no layer span covers.
RENAME = {"step": "other", "pass": "other", "serve.run": "serve.other",
          "recsys.init": "recsys.init_other",
          "recsys.query": "recsys.query_other",
          "core.train": "core.train_other"}
PER_LAYER = tuple(
    [(f"{layer}{suffix}", unit) for layer in SETUP_LAYERS + OP_LAYERS
     for suffix, unit in (("_s", "s"), (".calls", "count"))]
    + [("recsys.query_s.p50", "s"), ("recsys.query_s.tail", "s"),
       ("recsys.query_s.tail_pct", "%"), ("recsys.queries", "count"),
       ("perf.worker_busy_s", "s"), ("perf.worker_idle_frac", "ratio"),
       ("perf.worker_peak_rss_mb", "MB"), ("obs.records", "count"),
       ("obs.log_bytes", "bytes"), ("devtools.modules", "count"),
       ("devtools.functions", "count"), ("devtools.findings", "count"),
       ("core.informative_steps_frac", "ratio"), ("failed_frac", "ratio"),
       ("trace.ops", "count"), ("trace.overhead.op_s", "s"),
       ("trace.overhead.ops_per_s", "1/s")])


class Window:
    """Operations run back to back for a fixed time."""

    def __init__(self, workload, seconds: float, recorder=None) -> None:
        self.per_unit = []
        self.units = 0
        began = time.perf_counter()
        while True:
            span = (recorder.span(workload.root, new_op=True)
                    if recorder is not None else contextlib.nullcontext())
            with span:
                start = time.perf_counter()
                try:
                    units = workload.op()
                except workload.failures as error:
                    workload.tally.record(False, f"{workload.unit} raised "
                                                 f"{error!r}")
                    units = 0
                end = time.perf_counter()
            self.per_unit.append((end - start) / max(units, 1))
            self.units += units
            if units == 0 or end - began >= seconds:
                break
        self.wall = time.perf_counter() - began

    @property
    def p50(self) -> float:
        return statistics.median(self.per_unit)

    @property
    def rate(self) -> float:
        return self.units / self.wall


def peak_rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    if len(values) <= 10:
        return 0.0, 0.0
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(values) - 10) / len(values)


def layer_metrics(setup_spans, setups, window, spans, workload):
    """Every per-layer metric: set-up layers per set-up, the rest per op."""
    metrics = {}
    for layers, group, count in ((SETUP_LAYERS, setup_spans, setups),
                                 (OP_LAYERS, spans, len(window.per_unit))):
        totals = rollup(group, RENAME)
        for layer in layers:
            seconds, calls = totals.get(layer, (0.0, 0))
            metrics[f"{layer}_s"] = seconds / count
            metrics[f"{layer}.calls"] = calls / count
    queries = [s.seconds for s in spans if s.name == "recsys.query"]
    metrics["recsys.query_s.p50"] = (statistics.median(queries)
                                     if queries else 0.0)
    metrics["recsys.query_s.tail"], metrics["recsys.query_s.tail_pct"] = \
        tail(queries)
    metrics["recsys.queries"] = len(queries)
    metrics["trace.ops"] = len(window.per_unit)
    defaults = {name: 0.0 for name, _ in PER_LAYER}
    defaults.update(metrics)
    defaults.update(workload.layer_metrics(spans))
    return defaults


def shares(metrics, window_ops, wall):
    """Each op layer's share of the traced window, largest first."""
    rows = [(metrics[f"{layer}_s"] * window_ops / wall, layer)
            for layer in OP_LAYERS]
    return sorted(rows, reverse=True)


@contextlib.contextmanager
def tracing(workload):
    """Spans around the workload's layers while the block runs."""
    recorder = SpanRecorder()
    with Instrumentation(recorder) as instrumentation:
        workload.instrument(instrumentation)
        workload.recorder = recorder
        try:
            yield recorder
        finally:
            workload.recorder = None


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set-up, probe, warm-up, the untraced window and, if asked, a traced one.

    A traced run gives each of its two windows half of ``seconds``.
    """
    found = {"setup_spans": [], "traced": None, "spans": []}
    with (tracing(workload) if trace
          else contextlib.nullcontext()) as recorder:
        setup = found["setup"] = []
        while (len(setup) < SETUP_REPEATS
               or (sum(setup) < SETUP_MIN_S
                   and len(setup) < SETUP_MAX_REPEATS)):
            workload.release()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - start)
        if recorder is not None:
            found["setup_spans"] = recorder.spans
    found["setup_rss_mb"] = peak_rss_mb()
    workload.probe()
    workload.warm_up()
    gc.collect()
    window = seconds / 2 if trace else seconds
    found["plain"] = Window(workload, window)
    if trace:
        gc.collect()
        with tracing(workload) as recorder:
            found["traced"] = Window(workload, window, recorder)
        found["spans"] = recorder.spans
    workload.probe()
    found["digest"] = workload.check()
    return found


def main(argv=None) -> int:
    """Run one workload and print its result; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package to measure under {source}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import stamp
    from workloads import make_workload

    steal = stamp.cpu_steal_ticks()
    calibration = stamp.calibrate()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = make_workload(args.workload, args.seed, workdir,
                                 tiny=args.tiny)
        found = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # left to any run still using it
    steal_end = stamp.cpu_steal_ticks()
    tally = workload.tally
    setup, plain, traced = found["setup"], found["plain"], found["traced"]
    if args.trace:
        metrics = layer_metrics(found["setup_spans"], len(setup), traced,
                                found["spans"], workload)
        metrics["trace.overhead.op_s"] = traced.p50 - plain.p50
        metrics["trace.overhead.ops_per_s"] = traced.rate - plain.rate
        metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)
        catalogue = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_s.p50": plain.p50,
            "ops_per_s": plain.rate,
            "peak_rss_mb": peak_rss_mb(),
        }
        catalogue = END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {stamp.machine(ROOT)}")
    print(f"calibration_s: start={calibration:.4f} "
          f"end={stamp.calibrate():.4f} cpu_steal_ticks="
          f"{steal_end - steal if steal is not None else '?'}")
    print(f"setup_s: median of {len(setup)}: "
          + " ".join(f"{value:.3f}" for value in setup))
    print(f"peak_rss_mb: {found['setup_rss_mb']:.1f} after set-up, "
          f"{peak_rss_mb():.1f} at the end")
    print(f"untraced: {len(plain.per_unit)} ops, {plain.units} "
          f"{workload.unit}s in {plain.wall:.3f} s, p50 "
          f"{plain.p50:.4f} s per {workload.unit}; each: "
          + " ".join(f"{value:.4f}" for value in plain.per_unit))
    if traced is not None:
        print(f"traced: {len(traced.per_unit)} ops, {traced.units} "
              f"{workload.unit}s in {traced.wall:.3f} s, p50 "
              f"{traced.p50:.4f} s per {workload.unit} "
              f"(overhead {traced.p50 - plain.p50:+.4f} s)")
        for share, layer in shares(metrics, len(traced.per_unit),
                                   traced.wall)[:6]:
            print(f"  {layer:<22} {100 * share:5.1f}% of the traced window")
    print(f"digest: {found['digest']}")
    print(f"checks: attempted={tally.attempted} failed={tally.failed}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in catalogue},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
