"""Steadiness check: every workload on several seeds, in two interleaved sets.

Usage::

    python3 perfbench/steady.py --runs 10

Each run is ``perfbench/run.py`` in a fresh interpreter, with the seconds
``BENCHMARK.json`` gives.  The two sets alternate run by run, so a host
that drifts slows both alike.  For every end-to-end metric the report
gives each set's spread (distance between the first and third quartile,
as a share of the median) and how much worse the second set's median is
than the first's, next to the metric's bound.  A metric is ``steady``
when both spreads are below a third of its bound, ``loose`` when they
are within the bound, and ``WIDE`` or ``SHIFT`` when a spread or the
median shift exceeds the bound; either of the last two makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in a fresh interpreter; its end-to-end metrics."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n"
                           f"{done.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first, second, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(spreads, shift: float, bound: float) -> str:
    """``steady``, ``loose``, ``WIDE`` or ``SHIFT``; see the module docstring."""
    if max(spreads) > bound:
        return "WIDE"
    if shift > bound:
        return "SHIFT"
    return "steady" if max(spreads) < bound / 3 else "loose"


def main(argv=None) -> int:
    """Run both sets, print the report; exit 1 if a metric breaks its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    values = {(w, s): [] for w in names for s in (0, 1)}
    for run in range(args.runs):
        for s in (0, 1):
            for workload in names:
                seed = 1000 * s + run
                start = time.perf_counter()
                values[workload, s].append(
                    run_once(workload, seed, spec["run_seconds"]))
                print(f"run {run} set {s} {workload} seed {seed} "
                      f"({time.perf_counter() - start:.1f} s): "
                      + json.dumps(values[workload, s][-1]), flush=True)
    broken = 0
    for workload in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[run[name] for run in values[workload, s]]
                    for s in (0, 1)]
            spreads = [spread(v) for v in sets]
            shift = worse_by(sets[0], sets[1], metric["better"])
            state = verdict(spreads, shift, bound)
            broken += state in ("WIDE", "SHIFT")
            print(f"{workload:<12} {name:<12} median "
                  f"{statistics.median(sets[0]):10.4f}  spread "
                  + " ".join(f"{x:6.3f}" for x in spreads)
                  + f"  worse_by {shift:+6.3f}  bound {bound:.2f}  {state}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
