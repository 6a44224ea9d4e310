"""Synthetic dataset generator tests: determinism, statistics, scaling."""

import numpy as np
import pytest

from repro.data import (DATASET_NAMES, PAPER_SPECS, DatasetSpec, generate_log,
                        generate_sparse_log,
                        load_dataset, scaled_spec)
from repro.data.interactions import InteractionLog
from repro.data.popularity import zipf_weights
from repro.data.splits import leave_one_out_split


class TestScaledSpec:
    def test_paper_scale_preserves_counts(self):
        spec = PAPER_SPECS["steam"]
        scaled = scaled_spec(spec, 1.0)
        assert scaled.num_users == spec.num_users
        assert scaled.num_items == spec.num_items

    def test_shrinks_proportionally(self):
        spec = PAPER_SPECS["phone"]
        scaled = scaled_spec(spec, 0.1)
        assert scaled.num_users == pytest.approx(spec.num_users * 0.1, rel=0.05)
        assert scaled.num_items == pytest.approx(spec.num_items * 0.1, rel=0.05)

    def test_floors_apply(self):
        spec = PAPER_SPECS["steam"]
        scaled = scaled_spec(spec, 1e-6)
        assert scaled.num_users >= 30
        assert scaled.num_items >= 40
        assert scaled.num_samples >= scaled.num_users * 3

    def test_density_cap(self):
        # MovieLens at tiny scale would otherwise exceed items/2 per user.
        spec = PAPER_SPECS["movielens"]
        scaled = scaled_spec(spec, 0.02)
        assert scaled.num_samples / scaled.num_users <= scaled.num_items / 2 + 1

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scaled_spec(PAPER_SPECS["steam"], 0.0)


class TestGenerateLog:
    SPEC = DatasetSpec(name="g", num_users=50, num_items=80, num_samples=600,
                       num_clusters=6)

    def test_deterministic(self):
        a = generate_log(self.SPEC, seed=3)
        b = generate_log(self.SPEC, seed=3)
        assert a.num_interactions == b.num_interactions
        for user in a.users:
            assert a.sequence(user) == b.sequence(user)

    def test_different_seeds_differ(self):
        a = generate_log(self.SPEC, seed=1)
        b = generate_log(self.SPEC, seed=2)
        assert any(a.sequence(u) != b.sequence(u) for u in a.users)

    def test_every_user_has_min_length(self):
        log = generate_log(self.SPEC, seed=0)
        assert all(len(log.sequence(u)) >= self.SPEC.min_sequence_length
                   for u in log.users)

    def test_sample_count_near_target(self):
        log = generate_log(self.SPEC, seed=0)
        assert log.num_interactions == pytest.approx(self.SPEC.num_samples,
                                                     rel=0.5)

    def test_popularity_is_skewed(self):
        log = generate_log(self.SPEC, seed=0)
        counts = np.sort(log.item_counts())[::-1]
        top_share = counts[:8].sum() / counts.sum()
        assert top_share > 2 * (8 / self.SPEC.num_items)


def choice_generate_log(spec: DatasetSpec, seed: int = 0):
    """The per-click ``rng.choice`` generator: the oracle for generate_log.

    Returns the log and the generator, so its final state can be
    compared too.
    """
    rng = np.random.default_rng(seed)
    num_items = spec.num_items
    ranks = rng.permutation(num_items)
    global_weights = np.empty(num_items)
    global_weights[ranks] = zipf_weights(num_items, spec.zipf_exponent)
    item_cluster = rng.integers(0, spec.num_clusters, size=num_items)
    cluster_weights = []
    for cluster in range(spec.num_clusters):
        members = np.flatnonzero(item_cluster == cluster)
        if members.size == 0:
            members = np.array([int(rng.integers(num_items))])
        weights = global_weights[members]
        cluster_weights.append((members, weights / weights.sum()))
    mean_len = spec.mean_sequence_length()
    sigma = 0.6
    mu = np.log(max(mean_len, spec.min_sequence_length)) - sigma ** 2 / 2
    log = InteractionLog(num_items)
    for user in range(spec.num_users):
        length = max(spec.min_sequence_length,
                     int(round(rng.lognormal(mu, sigma))))
        length = min(length, max(spec.min_sequence_length, num_items - 1))
        user_cluster = int(rng.integers(spec.num_clusters))
        sequence = []
        previous = -1
        for _ in range(length):
            roll = rng.random()
            if previous >= 0 and roll < spec.sequence_locality:
                members, weights = cluster_weights[item_cluster[previous]]
            elif roll < spec.sequence_locality + spec.cluster_affinity * (
                    1.0 - spec.sequence_locality):
                members, weights = cluster_weights[user_cluster]
            else:
                members, weights = np.arange(num_items), global_weights
            item = int(rng.choice(members, p=weights))
            if item == previous and num_items > 1:
                item = int(rng.choice(members, p=weights))
            sequence.append(item)
            previous = item
        log.add_sequence(user, sequence)
    return log, rng


class TestGenerateLogMatchesChoice:
    """CDFs built once per cluster draw what per-click ``choice`` draws."""

    @staticmethod
    def assert_same(spec: DatasetSpec, seed: int, monkeypatch) -> None:
        made = []
        real = np.random.default_rng

        def default_rng(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        shipped = generate_log(spec, seed=seed)
        oracle, _ = choice_generate_log(spec, seed=seed)
        assert len(made) == 2
        assert (made[0].bit_generator.state
                == made[1].bit_generator.state)
        assert dict(shipped.iter_sequences()) == dict(oracle.iter_sequences())
        split, oracle_split = (leave_one_out_split(spec.name, log)
                               for log in (shipped, oracle))
        assert (dict(split.train.iter_sequences())
                == dict(oracle_split.train.iter_sequences()))
        assert split.validation == oracle_split.validation
        assert split.test == oracle_split.test

    @pytest.mark.parametrize("seed", [0, 1, 13])
    @pytest.mark.parametrize("scale", ["ci", "small"])
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_presets(self, name, scale, seed, monkeypatch):
        factor = {"ci": 0.02, "small": 0.08}[scale]
        self.assert_same(scaled_spec(PAPER_SPECS[name], factor), seed,
                         monkeypatch)

    def test_paper_step_dataset(self, monkeypatch):
        # Steam at scale 0.6: the 3,080-item catalog of the paper-step
        # benchmark workload.
        self.assert_same(scaled_spec(PAPER_SPECS["steam"], 0.6), 0,
                         monkeypatch)


class TestLoadDataset:
    def test_all_names_load(self):
        for name in DATASET_NAMES:
            ds = load_dataset(name, scale="ci", seed=0)
            assert ds.num_users > 0
            assert ds.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            load_dataset("netflix")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            load_dataset("steam", scale="giant")

    def test_float_scale_accepted(self):
        ds = load_dataset("steam", scale=0.01, seed=0)
        assert ds.num_users >= 30

    def test_deterministic_by_seed(self):
        a = load_dataset("steam", scale="ci", seed=5)
        b = load_dataset("steam", scale="ci", seed=5)
        assert a.test == b.test

    def test_movielens_denser_than_steam(self):
        steam = load_dataset("steam", scale="ci", seed=0)
        ml = load_dataset("movielens", scale="ci", seed=0)
        steam_freq = (steam.train.num_interactions / steam.num_items)
        ml_freq = ml.train.num_interactions / ml.num_items
        assert ml_freq > 2 * steam_freq


class TestGenerateSparseLog:
    """The vectorized array-substrate generator (the `scale` knob)."""

    SPEC = DatasetSpec(name="tiny", num_users=200, num_items=120,
                       num_samples=2400, num_clusters=6)

    def test_returns_valid_substrate(self):
        view = generate_sparse_log(self.SPEC, seed=0)
        assert view.num_users == self.SPEC.num_users
        assert view.user_ptr[0] == 0
        assert view.user_ptr[-1] == view.num_interactions
        assert view.item_ids.min() >= 0
        assert view.item_ids.max() < self.SPEC.num_items

    def test_deterministic(self):
        a = generate_sparse_log(self.SPEC, seed=3)
        b = generate_sparse_log(self.SPEC, seed=3)
        assert np.array_equal(a.item_ids, b.item_ids)
        assert np.array_equal(a.user_ptr, b.user_ptr)

    def test_different_seeds_differ(self):
        a = generate_sparse_log(self.SPEC, seed=1)
        b = generate_sparse_log(self.SPEC, seed=2)
        assert not (a.num_interactions == b.num_interactions
                    and np.array_equal(a.item_ids, b.item_ids))

    def test_min_lengths_hold(self):
        view = generate_sparse_log(self.SPEC, seed=0)
        assert view.lengths.min() >= self.SPEC.min_sequence_length

    def test_num_users_knob_rescales(self):
        view = generate_sparse_log("steam", seed=0, num_users=500)
        assert view.num_users == pytest.approx(500, rel=0.05)
        # Mean length follows the rescaled spec (scaled_spec shrinks
        # samples superlinearly below paper scale).
        spec = PAPER_SPECS["steam"]
        scaled = scaled_spec(spec, 500 / spec.num_users)
        assert (view.num_interactions / view.num_users
                == pytest.approx(scaled.mean_sequence_length(), rel=0.3))

    def test_popularity_is_skewed(self):
        view = generate_sparse_log(self.SPEC, seed=0)
        counts = np.sort(view.item_counts())[::-1]
        top_share = counts[:8].sum() / counts.sum()
        assert top_share > 2 * (8 / self.SPEC.num_items)

    def test_no_immediate_repeats_dominate(self):
        # The serial generator redraws immediate repeats; the vectorized
        # one does a single redraw pass, so repeats must be rare.
        view = generate_sparse_log(self.SPEC, seed=0)
        prev, nxt = view.consecutive_pairs()
        assert (prev == nxt).mean() < 0.05

    def test_statistics_match_serial_generator(self):
        """Distribution-matched to generate_log: same spec, comparable
        popularity skew and length profile (not bit-identical)."""
        serial = generate_log(self.SPEC, seed=0)
        fast = generate_sparse_log(self.SPEC, seed=0)
        assert fast.num_interactions == pytest.approx(
            serial.num_interactions, rel=0.3)
        s_counts = np.sort(serial.item_counts())[::-1].astype(float)
        f_counts = np.sort(fast.item_counts())[::-1].astype(float)
        s_top = s_counts[:10].sum() / s_counts.sum()
        f_top = f_counts[:10].sum() / f_counts.sum()
        assert f_top == pytest.approx(s_top, rel=0.5)
