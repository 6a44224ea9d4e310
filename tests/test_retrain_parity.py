"""Retraining without Python walks over the merged log changes no number.

The oracles are the forms the retrain path had before: a negative
sampler that tests membership against a Python ``set``, and a
``sparse_view`` that builds every view from the log's sequences with
``SparseInteractions.from_log``.  The sampler must return the same
bytes and leave the same generator state; every ranker that samples
negatives must fit and answer attacks with the same parameters and the
same RecNum either way.
"""

import numpy as np
import pytest

from repro.data import DatasetSpec, SparseInteractions, generate_log
from repro.data import interactions as interactions_module
from repro.data import sparse as sparse_module
from repro.recsys import RecommenderSystem, sample_negatives
from repro.recsys import bpr as bpr_module
from repro.recsys import neumf as neumf_module
from repro.recsys import ngcf as ngcf_module
from repro.recsys import pmf as pmf_module

from .test_row_sparse_parity import array_bytes

SPEC = DatasetSpec(name="tiny", num_users=40, num_items=60,
                   num_samples=400, num_clusters=5)


def set_sample_negatives(rng, positives, num_items, count):
    """The set-based sampler, kept as the oracle."""
    negatives = rng.integers(0, num_items, size=count)
    positive_set = set(int(p) for p in np.asarray(positives).ravel())
    if positive_set:
        mask = np.fromiter((int(n) in positive_set for n in negatives),
                           dtype=bool, count=count)
        if mask.any():
            negatives[mask] = rng.integers(0, num_items,
                                           size=int(mask.sum()))
    return negatives


def from_log_view(log):
    """A ``sparse_view`` without a cache: every read walks the log."""
    return SparseInteractions.from_log(log)


def _whole_log():
    items = generate_log(SPEC, seed=3).pairs()[:, 1]
    return items, 2 * len(items)


def _batch():
    items = generate_log(SPEC, seed=3).pairs()[:, 1]
    return items[17:81], 64


SAMPLER_CASES = {
    "whole-log": _whole_log,
    "bpr-batch": _batch,
    "empty-positives": lambda: (np.empty(0, dtype=np.int64), 40),
    "count-0": lambda: (_whole_log()[0], 0),
    "2-d-positives": lambda: (_whole_log()[0][:60].reshape(12, 5), 90),
}


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_sampler_matches_set_oracle(case):
    positives, count = SAMPLER_CASES[case]()
    shipped_rng = np.random.default_rng(11)
    oracle_rng = np.random.default_rng(11)
    shipped = sample_negatives(shipped_rng, positives,
                               SPEC.num_items, count)
    oracle = set_sample_negatives(oracle_rng, positives,
                                  SPEC.num_items, count)
    assert shipped.dtype == oracle.dtype
    assert shipped.tobytes() == oracle.tobytes()
    assert shipped_rng.bit_generator.state == oracle_rng.bit_generator.state


FAST = {
    "pmf": dict(dim=8, epochs=2, update_epochs=2),
    "bpr": dict(dim=8, epochs=2, update_epochs=2),
    "neumf": dict(dim=8, epochs=2, update_epochs=2),
    "ngcf": dict(dim=8, epochs=2, update_epochs=2, batches_per_epoch=2),
}


@pytest.mark.parametrize("ranker", list(FAST))
def test_fit_and_attack(monkeypatch, tiny_dataset, ranker):
    rng = np.random.default_rng(2)
    attacks = [[rng.integers(0, 68, size=6).tolist() for _ in range(4)]
               for _ in range(3)]

    def run():
        system = RecommenderSystem(tiny_dataset, ranker, seed=0,
                                   num_attackers=6,
                                   ranker_kwargs=FAST[ranker])
        fitted = array_bytes(system.ranker._state())
        recnums = [system.attack(trajectories) for trajectories in attacks]
        poisoned = array_bytes(system.ranker._state())
        assert poisoned != fitted
        return fitted, poisoned, recnums

    shipped = run()
    with monkeypatch.context() as patch:
        for module in (pmf_module, bpr_module, neumf_module, ngcf_module):
            patch.setattr(module, "sample_negatives", set_sample_negatives)
        patch.setattr(interactions_module, "sparse_view", from_log_view)
        patch.setattr(sparse_module, "sparse_view", from_log_view)
        oracle = run()
    assert shipped == oracle
