"""InteractionLog and Dataset container tests."""

import numpy as np
import pytest

from repro.data import Dataset, InteractionLog


class TestInteractionLog:
    def test_requires_positive_universe(self):
        with pytest.raises(ValueError):
            InteractionLog(0)

    def test_add_and_sequence(self):
        log = InteractionLog(5)
        log.add(0, 1)
        log.add(0, 2)
        log.add(3, 4)
        assert log.sequence(0) == [1, 2]
        assert log.sequence(3) == [4]
        assert log.sequence(99) == []
        assert log.num_users == 2
        assert log.num_interactions == 3

    def test_rejects_out_of_universe_items(self):
        log = InteractionLog(3)
        with pytest.raises(ValueError):
            log.add(0, 3)
        with pytest.raises(ValueError):
            log.add(0, -1)

    def test_add_sequence_of_nothing_adds_no_user(self):
        log = InteractionLog(5)
        version = log._version
        log.add_sequence(3, [])
        assert 3 not in log
        assert log.num_users == 0
        assert log._version == version

    def test_add_sequence_checks_every_item_before_any_lands(self):
        log = InteractionLog(5)
        log.add_sequence(0, [1])
        version = log._version
        with pytest.raises(ValueError, match="item 5 outside"):
            log.add_sequence(0, [2, 3, 5, 4])
        with pytest.raises(ValueError, match="item -1 outside"):
            log.add_sequence(7, [2, -1])
        assert log.sequence(0) == [1]
        assert 7 not in log
        assert log._version == version

    def test_sequence_returns_copy(self):
        log = InteractionLog(5)
        log.add_sequence(0, [1, 2])
        seq = log.sequence(0)
        seq.append(4)
        assert log.sequence(0) == [1, 2]

    def test_copy_is_independent(self):
        log = InteractionLog(5)
        log.add_sequence(0, [1])
        clone = log.copy()
        clone.add(0, 2)
        assert log.sequence(0) == [1]
        assert clone.sequence(0) == [1, 2]

    def test_merged_with_appends_shared_users(self):
        a = InteractionLog(5)
        a.add_sequence(0, [1, 2])
        b = InteractionLog(5)
        b.add_sequence(0, [3])
        b.add_sequence(7, [4])
        merged = a.merged_with(b)
        assert merged.sequence(0) == [1, 2, 3]
        assert merged.sequence(7) == [4]
        # Originals untouched.
        assert a.sequence(0) == [1, 2]
        assert 7 not in a

    def test_merge_rejects_mismatched_universe(self):
        with pytest.raises(ValueError):
            InteractionLog(5).merged_with(InteractionLog(6))

    def test_item_counts(self):
        log = InteractionLog(4)
        log.add_sequence(0, [1, 1, 3])
        log.add_sequence(1, [3])
        np.testing.assert_array_equal(log.item_counts(), [0, 2, 0, 2])

    def test_pairs(self):
        log = InteractionLog(4)
        log.add_sequence(2, [1, 3])
        pairs = log.pairs()
        assert pairs.shape == (2, 2)
        assert set(map(tuple, pairs)) == {(2, 1), (2, 3)}

    def test_pairs_empty(self):
        assert InteractionLog(3).pairs().shape == (0, 2)

    def test_iter_sequences_sorted(self):
        log = InteractionLog(3)
        log.add(5, 0)
        log.add(1, 1)
        assert [u for u, _ in log.iter_sequences()] == [1, 5]

    def test_contains_and_repr(self):
        log = InteractionLog(3)
        log.add(1, 0)
        assert 1 in log
        assert 2 not in log
        assert "users=1" in repr(log)


class TestDataset:
    def test_statistics_counts_all_splits(self):
        train = InteractionLog(10)
        train.add_sequence(0, [1, 2])
        train.add_sequence(1, [3])
        ds = Dataset(name="x", train=train, validation={0: 4, 1: 5},
                     test={0: 6, 1: 7})
        stats = ds.statistics()
        assert stats == {"users": 2, "items": 10, "samples": 7}
