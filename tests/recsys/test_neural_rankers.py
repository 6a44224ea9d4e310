"""NeuMF, AutoRec, GRU4Rec and NGCF tests (fast configurations)."""

import numpy as np
import pytest

from repro.data import InteractionLog, sparse_view
from repro.recsys import AutoRec, GRU4Rec, NGCF, NeuMF


def clustered_log(num_users=24, num_items=16, seed=0, clicks=6):
    rng = np.random.default_rng(seed)
    log = InteractionLog(num_items)
    half = num_items // 2
    for user in range(num_users):
        lo = 0 if user < num_users // 2 else half
        for _ in range(clicks):
            log.add(user, int(rng.integers(lo, lo + half)))
    return log


FAST = {
    NeuMF: dict(dim=8, epochs=3, update_epochs=3),
    AutoRec: dict(hidden=8, epochs=4, update_epochs=2),
    GRU4Rec: dict(dim=8, epochs=3, update_epochs=3),
    NGCF: dict(dim=8, epochs=3, update_epochs=2, batches_per_epoch=2),
}


@pytest.mark.parametrize("cls", list(FAST))
class TestNeuralRankersCommon:
    def make(self, cls, seed=0):
        return cls(30, 16, seed=seed, **FAST[cls])

    def test_fit_and_score_shapes(self, cls):
        ranker = self.make(cls)
        ranker.fit(clustered_log())
        scores = ranker.score(0, np.arange(16))
        assert scores.shape == (16,)
        assert np.isfinite(scores).all()

    def test_score_batch_matches_score(self, cls):
        ranker = self.make(cls)
        ranker.fit(clustered_log())
        candidates = np.array([[0, 5, 9], [1, 2, 15]])
        batch = ranker.score_batch(np.array([0, 13]), candidates)
        np.testing.assert_allclose(batch[0], ranker.score(0, candidates[0]),
                                   atol=1e-8)

    def test_learns_block_preference(self, cls):
        log = clustered_log()
        ranker = self.make(cls)
        ranker.fit(log)
        # Average over block-0 users: block-0 items should outscore block-1.
        users = np.arange(6)
        cands = np.tile(np.arange(16), (6, 1))
        scores = ranker.score_batch(users, cands)
        assert scores[:, :8].mean() > scores[:, 8:].mean()

    def test_snapshot_restore_roundtrip(self, cls):
        log = clustered_log()
        ranker = self.make(cls)
        ranker.fit(log)
        state = ranker.snapshot()
        before = ranker.score(0, np.arange(16)).copy()
        poison = InteractionLog(16)
        poison.add_sequence(29, [15, 0, 15, 1, 15, 2])
        ranker.poison_update(log.merged_with(poison), poison)
        ranker.restore(state)
        np.testing.assert_allclose(ranker.score(0, np.arange(16)), before,
                                   atol=1e-10)

    def test_deterministic_fit(self, cls):
        log = clustered_log()
        a = self.make(cls, seed=5)
        a.fit(log)
        b = self.make(cls, seed=5)
        b.fit(log)
        np.testing.assert_allclose(a.score(0, np.arange(16)),
                                   b.score(0, np.arange(16)), atol=1e-12)


class TestGRU4RecSpecifics:
    def test_window_left_padding(self):
        ranker = GRU4Rec(5, 10, seed=0, window=4, epochs=1)
        window = ranker._windows(np.array([7]), np.array([0]),
                                 np.array([1]))[0]
        assert window.tolist() == [10, 10, 10, 7]  # pad id = num_items

    def test_window_truncates_to_tail(self):
        ranker = GRU4Rec(5, 10, seed=0, window=3, epochs=1)
        window = ranker._windows(np.array([1, 2, 3, 4, 5]), np.array([0]),
                                 np.array([5]))[0]
        assert window.tolist() == [3, 4, 5]

    def test_history_updated_by_poison(self, monkeypatch):
        log = clustered_log()
        ranker = GRU4Rec(30, 16, seed=0, **FAST[GRU4Rec])
        ranker.fit(log)
        poison = InteractionLog(16)
        poison.add_sequence(29, [3, 4])
        trained = {}
        monkeypatch.setattr(
            ranker, "_train",
            lambda windows, targets, epochs: trained.update(
                windows=windows, targets=targets))
        ranker.poison_update(log.merged_with(poison), poison)
        # The poison's own example comes first: its click 3 predicts 4.
        pad = ranker.net.pad_id
        assert trained["windows"][0].tolist() == [pad] * 4 + [3]
        assert trained["targets"][0] == 4
        # Every other example replays a prefix of a clean user's history.
        width = ranker.window
        prefixes = {(tuple(seq[max(0, t - width):t]), seq[t])
                    for _, seq in log.iter_sequences()
                    for t in range(1, len(seq))}
        assert len(trained["targets"]) > 1
        for window, target in zip(trained["windows"][1:],
                                  trained["targets"][1:]):
            clicks = tuple(int(item) for item in window if item != pad)
            assert (clicks, int(target)) in prefixes

    def test_item_embeddings_excludes_pad(self):
        ranker = GRU4Rec(5, 10, seed=0, dim=8, epochs=1)
        assert ranker.item_embeddings().shape == (10, 8)


class TestAutoRecSpecifics:
    def test_scores_come_from_reconstruction(self):
        log = clustered_log()
        ranker = AutoRec(30, 16, seed=0, **FAST[AutoRec])
        ranker.fit(log)
        recon = ranker._reconstruct(np.array([0]))[0]
        np.testing.assert_allclose(ranker.score(0, np.arange(16)), recon)

    def test_profiles_rebuilt_on_poison(self, monkeypatch):
        log = clustered_log()
        ranker = AutoRec(30, 16, seed=0, **FAST[AutoRec])
        ranker.fit(log)
        poison = InteractionLog(16)
        poison.add_sequence(29, [15])
        batches = []
        densify = ranker._rows

        def recording(view, users):
            rows = densify(view, users)
            batches.append((np.asarray(users), rows))
            return rows

        monkeypatch.setattr(ranker, "_rows", recording)
        ranker.poison_update(log.merged_with(poison), poison)
        # The poison user trains on its merged-log row: exactly item 15.
        poisoned = [rows[users == 29] for users, rows in batches
                    if 29 in users]
        assert len(poisoned) == FAST[AutoRec]["update_epochs"]
        for row in poisoned:
            assert row[0, 15] == 1.0 and row[0].sum() == 1.0

    def test_rows_densify_profiles(self):
        ranker = AutoRec(30, 16, seed=0, **FAST[AutoRec])
        log = InteractionLog(16)
        log.add_sequence(3, [1, 5, 1])
        rows = ranker._rows(sparse_view(log), np.array([3, 4]))
        assert rows[0, 1] == 1.0 and rows[0, 5] == 1.0
        assert rows[0].sum() == 2.0
        assert rows[1].sum() == 0.0  # unknown user: empty profile


class TestNGCFSpecifics:
    def test_adjacency_is_symmetric_normalized(self):
        log = clustered_log()
        ranker = NGCF(30, 16, seed=0, **FAST[NGCF])
        adjacency = ranker._build_adjacency(log)
        dense = adjacency.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        # Spectral radius of the symmetric-normalized adjacency is <= 1.
        eigenvalues = np.linalg.eigvalsh(dense)
        assert np.abs(eigenvalues).max() <= 1.0 + 1e-9

    def test_empty_log_adjacency(self):
        ranker = NGCF(4, 4, seed=0, dim=4, epochs=1, num_layers=1)
        adjacency = ranker._build_adjacency(InteractionLog(4))
        assert adjacency.nnz == 0

    def test_item_embeddings_concatenate_layers(self):
        ranker = NGCF(10, 8, seed=0, dim=4, num_layers=2, epochs=1,
                      batches_per_epoch=1)
        ranker.fit(clustered_log(num_users=10, num_items=8, clicks=3))
        assert ranker.item_embeddings().shape == (8, 4 * 3)
