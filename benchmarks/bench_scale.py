"""Users-vs-seconds scaling curve: the million-user environment.

The tentpole claim of the sparse substrate + batched scoring work: every
ranker fits directly on the flat-array :class:`SparseInteractions`
substrate (no per-user Python lists anywhere in the pipeline) and scores
all eval users through one vectorized ``score_batch`` pass, so both fit
and score seconds grow near-linearly in the user count.

For each scale the bench

1. generates a synthetic log straight into the CSR substrate with
   :func:`repro.data.generate_sparse_log` (timed),
2. fits all 8 rankers on the sparse view (timed), then times one
   ``snapshot()`` of the fit ranker and a ``restore()`` of it (best of
   three after a warm-up call: the reload Algorithm 1 pays per query),
3. times batched scoring (``score_batch``) against the serial
   per-user ``score`` loop on the same candidate matrix, and asserts
   the batched path is never slower; at 10⁵ users the batched kernels
   must be at least 5x faster.

The serial loop is measured on a capped user subsample at large scales
(a full 10⁵-user Python loop through 8 rankers would dominate the bench)
and extrapolated linearly; the cap is recorded in the payload, never
silent.  Results land in ``BENCH_scale.json`` at the repo root (plus a
copy under ``benchmarks/results/``).  ``REPRO_SMOKE=1`` shrinks the
scales for CI; the checked-in JSON comes from a full local run.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import RANKERS, emit, emit_json
from repro.data import generate_sparse_log
from repro.data.synthetic import DatasetSpec
from repro.recsys.registry import make_ranker
from repro.experiments import format_table

CANDIDATES_PER_USER = 100
MAX_EVAL_USERS = 4096       # score_batch rows timed per scale
MAX_LOOP_USERS = 256        # serial-loop sample size (extrapolated)
MIN_SPEEDUP_AT_SCALE = 5.0  # acceptance floor at the largest full scale

#: Cheap-but-representative training settings so the 1-core bench stays
#: tractable at 10⁵ users; the curve compares scales, not accuracy.
FAST_KWARGS = {
    "pmf": {"epochs": 1},
    "bpr": {"epochs": 1},
    "neumf": {"epochs": 1, "batch_size": 4096},
    "autorec": {"epochs": 1, "batch_size": 256},
    "gru4rec": {"epochs": 1, "batch_size": 1024},
    "ngcf": {"epochs": 1, "batches_per_epoch": 2},
}


def lean_spec(num_users: int) -> DatasetSpec:
    """A sparse, catalog-proportional spec for scaling runs."""
    num_items = max(60, num_users // 10)
    return DatasetSpec(name=f"scale{num_users}", num_users=num_users,
                       num_items=num_items, num_samples=8 * num_users,
                       num_clusters=max(4, num_items // 500))


def time_call(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def time_best(fn, repeats: int = 3):
    """Best-of-N wall time (after one warmup call) for short kernels."""
    fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        result, seconds = time_call(fn)
        best = min(best, seconds)
    return result, best


def bench_one_scale(num_users: int, seed: int = 0) -> dict:
    spec = lean_spec(num_users)
    view, generate_seconds = time_call(
        lambda: generate_sparse_log(spec, seed=seed))
    rng = np.random.default_rng(seed + 1)
    eval_users = rng.choice(view.num_users, size=min(view.num_users,
                                                     MAX_EVAL_USERS),
                            replace=False).astype(np.int64)
    eval_users.sort()
    candidates = rng.integers(0, spec.num_items,
                              size=(len(eval_users), CANDIDATES_PER_USER))
    loop_users = min(len(eval_users), MAX_LOOP_USERS)

    entry = {
        "users": num_users,
        "items": spec.num_items,
        "interactions": view.num_interactions,
        "generate_seconds": generate_seconds,
        "eval_users": len(eval_users),
        "loop_users_measured": loop_users,
        "rankers": {},
    }
    for name in RANKERS:
        ranker = make_ranker(name, num_users, spec.num_items, seed=seed,
                             **FAST_KWARGS.get(name, {}))
        _, fit_seconds = time_call(lambda: ranker.fit(view))
        snapshot, snapshot_seconds = time_best(ranker.snapshot)
        _, restore_seconds = time_best(lambda: ranker.restore(snapshot))
        batched, batched_seconds = time_best(
            lambda: ranker.score_batch(eval_users, candidates))
        _, loop_sample_seconds = time_best(lambda: np.stack(
            [ranker.score(int(u), candidates[i])
             for i, u in enumerate(eval_users[:loop_users])]))
        loop_seconds = loop_sample_seconds * len(eval_users) / loop_users
        assert batched.shape == candidates.shape
        entry["rankers"][name] = {
            "fit_seconds": fit_seconds,
            "snapshot_seconds": snapshot_seconds,
            "restore_seconds": restore_seconds,
            "batched_score_seconds": batched_seconds,
            "loop_score_seconds": loop_seconds,
            "speedup": loop_seconds / max(batched_seconds, 1e-12),
        }
    return entry


def test_scale_curve(benchmark):
    smoke = os.environ.get("REPRO_SMOKE", "") == "1"
    # Smoke scales stay above ~10³ users: below that the batched
    # kernels' fixed costs (dedup sorts, window stacking) tie the loop
    # and the >=1x gate would test timer noise, not the kernels.
    scales = [1000, 4000] if smoke else [1000, 10_000, 100_000]
    points = [bench_one_scale(n) for n in scales]

    # Million-user datapoint: substrate generation only (no per-user
    # Python lists anywhere — the arrays come out of the generator).
    generate_only = []
    for num_users in ([10_000] if smoke else [1_000_000]):
        view, seconds = time_call(
            lambda: generate_sparse_log(lean_spec(num_users), seed=0))
        generate_only.append({"users": num_users,
                              "interactions": view.num_interactions,
                              "generate_seconds": seconds})

    benchmark.pedantic(
        lambda: bench_one_scale(scales[0], seed=1), rounds=1, iterations=1)

    payload = {
        "smoke": smoke,
        "scales": scales,
        "candidates_per_user": CANDIDATES_PER_USER,
        "points": points,
        "generate_only": generate_only,
        "min_speedup_at_largest_scale": min(
            stats["speedup"] for stats in points[-1]["rankers"].values()),
    }
    emit_json("scale", payload)

    rows = []
    for point in points:
        for name, stats in point["rankers"].items():
            rows.append([point["users"], name,
                         f"{stats['fit_seconds']:.3f}",
                         f"{stats['snapshot_seconds']*1e3:.2f}",
                         f"{stats['restore_seconds']*1e3:.2f}",
                         f"{stats['batched_score_seconds']*1e3:.1f}",
                         f"{stats['loop_score_seconds']*1e3:.1f}",
                         f"{stats['speedup']:.1f}x"])
    emit("scale_curve",
         format_table(["users", "ranker", "fit_s", "snapshot_ms",
                       "restore_ms", "batched_ms",
                       "loop_ms", "speedup"], rows))

    # Gates run AFTER the emit so a failing run still leaves the full
    # per-ranker table behind for diagnosis.
    # CI gate: the batched kernels must never lose to the loop fallback.
    for point in points:
        for name, stats in point["rankers"].items():
            assert stats["speedup"] >= 1.0, (
                f"{name}: score_batch slower than the serial loop at "
                f"{point['users']} users ({stats['speedup']:.2f}x)")
    if not smoke:
        largest = points[-1]
        worst = min(stats["speedup"]
                    for stats in largest["rankers"].values())
        assert worst >= MIN_SPEEDUP_AT_SCALE, (
            f"batched scoring only {worst:.1f}x faster than the loop at "
            f"{largest['users']} users; need {MIN_SPEEDUP_AT_SCALE}x")
