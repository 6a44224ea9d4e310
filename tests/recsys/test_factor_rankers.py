"""PMF and BPR matrix-factorization ranker tests."""

import numpy as np
import pytest

from repro.data import InteractionLog
from repro.recsys import BPR, PMF
from repro.recsys.base import sample_negatives
from repro.recsys.pmf import _apply_accumulated


def clustered_log(num_users=30, num_items=20, seed=0):
    """Two disjoint user/item blocks: strong CF signal."""
    rng = np.random.default_rng(seed)
    log = InteractionLog(num_items)
    half_items = num_items // 2
    for user in range(num_users):
        block = 0 if user < num_users // 2 else 1
        lo = 0 if block == 0 else half_items
        for _ in range(6):
            log.add(user, int(rng.integers(lo, lo + half_items)))
    return log


def dense_apply_accumulated(table, ids, gradients, lr, max_row_norm=2.0):
    """The dense MF minibatch step: the oracle for ``_apply_accumulated``.

    It sums, takes norms over and subtracts a whole ``table``-sized
    gradient, untouched rows included.
    """
    grad_sum = np.zeros_like(table)
    np.add.at(grad_sum, ids, gradients)
    norms = np.linalg.norm(grad_sum, axis=1)
    oversized = norms > max_row_norm
    if oversized.any():
        grad_sum[oversized] *= (max_row_norm / norms[oversized])[:, None]
    table -= lr * grad_sum


class TestApplyAccumulated:
    def test_matches_dense_rule_bit_for_bit(self):
        rng = np.random.default_rng(4)
        table = rng.normal(size=(12, 5)) * 1e-3
        ids = np.array([3, 7, 3, 3, 0, 11, 7, 3, 9, 7])
        gradients = rng.normal(size=(len(ids), 5)) * 0.1
        # Row 7's first column sums to exactly 1.0 only when added in
        # order (1e-16 + 1e-16 + 1.0 rounds up), so the order of additions
        # shows; row 3 exceeds the norm cap, so the clip path runs too.
        gradients[ids == 7, 0] = [1.0, 1e-16, 1e-16]
        gradients[ids == 3] *= 40.0
        assert np.linalg.norm(gradients[ids == 3].sum(axis=0)) > 2.0
        sparse, dense = table.copy(), table.copy()
        _apply_accumulated(sparse, ids, gradients, lr=0.05)
        dense_apply_accumulated(dense, ids, gradients, lr=0.05)
        assert sparse.tobytes() == dense.tobytes()
        untouched = np.setdiff1d(np.arange(12), ids)
        assert sparse[untouched].tobytes() == table[untouched].tobytes()


@pytest.mark.parametrize("cls", [PMF, BPR])
class TestFactorRankers:
    def test_learns_block_structure(self, cls):
        log = clustered_log()
        ranker = cls(30, 20, seed=0)
        ranker.fit(log)
        # A block-0 user should prefer block-0 items on average.
        scores = ranker.score(2, np.arange(20))
        assert scores[:10].mean() > scores[10:].mean()

    def test_score_batch_matches_score(self, cls):
        log = clustered_log()
        ranker = cls(30, 20, seed=0)
        ranker.fit(log)
        candidates = np.array([[1, 5, 15], [0, 11, 19]])
        batch = ranker.score_batch(np.array([0, 20]), candidates)
        np.testing.assert_allclose(batch[0], ranker.score(0, candidates[0]))
        np.testing.assert_allclose(batch[1], ranker.score(20, candidates[1]))

    def test_fit_deterministic(self, cls):
        log = clustered_log()
        a = cls(30, 20, seed=3)
        a.fit(log)
        b = cls(30, 20, seed=3)
        b.fit(log)
        np.testing.assert_allclose(a.item_factors, b.item_factors)

    def test_snapshot_restore(self, cls):
        log = clustered_log()
        ranker = cls(30, 20, seed=0)
        ranker.fit(log)
        state = ranker.snapshot()
        before = ranker.score(0, np.arange(20)).copy()
        poison = InteractionLog(20)
        poison.add_sequence(29, [19] * 10)
        ranker.poison_update(log.merged_with(poison), poison)
        ranker.restore(state)
        np.testing.assert_allclose(ranker.score(0, np.arange(20)), before)

    def test_poison_update_moves_new_target(self, cls):
        # The paper's protocol: targets are brand-new items.  Flooding a
        # new item alongside block-0 items must raise its score for
        # block-0 users.
        log = clustered_log(num_users=24, num_items=20)
        new_target = 20
        extended = InteractionLog(21)
        for user, seq in log.iter_sequences():
            extended.add_sequence(user, seq)
        ranker = cls(30, 21, seed=0, update_epochs=5)
        ranker.fit(extended)
        before = np.mean([ranker.score(u, np.array([new_target]))[0]
                          for u in range(10)])
        poison = InteractionLog(21)
        for attacker in range(24, 30):
            seq = []
            for _ in range(2):
                for item in (0, 1, 2, 3):
                    seq.extend([new_target, item])
            poison.add_sequence(attacker, seq)
        ranker.poison_update(extended.merged_with(poison), poison)
        after = np.mean([ranker.score(u, np.array([new_target]))[0]
                         for u in range(10)])
        assert after > before
        assert np.isfinite(ranker.item_factors).all()

    def test_item_embeddings_shape(self, cls):
        ranker = cls(10, 15, seed=0, dim=8)
        emb = ranker.item_embeddings()
        assert emb.shape == (15, 8)


class TestSampleNegatives:
    def test_count_and_range(self, rng):
        negatives = sample_negatives(rng, np.array([1, 2]), 50, 200)
        assert len(negatives) == 200
        assert negatives.min() >= 0
        assert negatives.max() < 50

    def test_rerolls_reduce_collisions(self, rng):
        positives = np.arange(10)
        negatives = sample_negatives(rng, positives, 1000, 500)
        collision_rate = np.isin(negatives, positives).mean()
        assert collision_rate < 0.01
