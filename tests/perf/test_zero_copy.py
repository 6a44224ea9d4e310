"""Zero-copy poison path: incremental reverts, splice, skip-restore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (DatasetSpec, InteractionLog, SparseInteractions,
                        generate_log, leave_one_out_split, sparse_view)
from repro.recsys import (RecommenderSystem, SnapshotMismatchError,
                          states_equal)


@pytest.fixture(scope="module")
def dataset():
    spec = DatasetSpec(name="tiny", num_users=30, num_items=50,
                       num_samples=300, num_clusters=4)
    return leave_one_out_split("tiny", generate_log(spec, seed=7))


def attack_batch(system, seed=0, count=6):
    rng = np.random.default_rng(seed)
    return [
        [list(map(int, rng.integers(0, system.num_items, size=5)))
         for _ in range(4)]
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Incremental revert == full restore
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ranker", ["itempop", "covisitation"])
def test_incremental_matches_full_restore(dataset, ranker):
    fast = RecommenderSystem(dataset, ranker, seed=0, num_attackers=8,
                             incremental=True)
    slow = RecommenderSystem(dataset, ranker, seed=0, num_attackers=8,
                             incremental=False)
    assert fast.ranker.supports_incremental_revert
    for trajectories in attack_batch(fast):
        assert fast.attack(trajectories) == slow.attack(trajectories)
    # After the last revert the live state must equal the clean snapshot
    # bit for bit.
    fast.reset()
    slow.reset()
    assert states_equal(fast.ranker._state(), fast._clean_state.state)
    assert states_equal(fast.ranker._state(), slow.ranker._state())


@pytest.mark.parametrize("ranker", ["itempop", "covisitation"])
def test_verify_incremental_mode_passes(dataset, ranker):
    system = RecommenderSystem(dataset, ranker, seed=0, num_attackers=8,
                               incremental=True, verify_incremental=True)
    for trajectories in attack_batch(system, seed=1):
        system.attack(trajectories)  # would raise on any revert drift
    system.reset()
    assert states_equal(system.ranker._state(), system._clean_state.state)


def test_verify_incremental_catches_drift(dataset):
    system = RecommenderSystem(dataset, "itempop", seed=0, num_attackers=8,
                               incremental=True, verify_incremental=True)
    system.attack(attack_batch(system)[0])
    # Sabotage the live state: the revert can no longer reproduce the
    # clean snapshot, and verify mode must notice.
    system.ranker.counts[0] += 1.0
    with pytest.raises(SnapshotMismatchError):
        system.reset()


def test_stacked_injections_fall_back_to_full_restore(dataset):
    system = RecommenderSystem(dataset, "itempop", seed=0, num_attackers=8,
                               incremental=True, verify_incremental=True)
    batches = attack_batch(system, seed=3)
    system.inject(batches[0])
    system.inject(batches[1])  # stacked: no single revertible poison
    system.reset()             # must take the snapshot path, not revert
    assert states_equal(system.ranker._state(), system._clean_state.state)


def test_non_counting_rankers_use_full_restore(dataset):
    system = RecommenderSystem(dataset, "bpr", seed=0, num_attackers=8,
                               incremental=True)
    assert not system.ranker.supports_incremental_revert
    before = system.attack(attack_batch(system)[0])
    after = system.attack(attack_batch(system)[0])
    assert before == after  # full-restore path still pure


# ----------------------------------------------------------------------
# Skip-restore when already clean
# ----------------------------------------------------------------------
def test_reset_skips_work_when_clean(dataset, monkeypatch):
    system = RecommenderSystem(dataset, "itempop", seed=0, num_attackers=8)
    calls = {"restore": 0, "revert": 0}
    real_restore = system.ranker.restore
    real_revert = system.ranker.poison_revert
    monkeypatch.setattr(
        system.ranker, "restore",
        lambda state: (calls.__setitem__("restore", calls["restore"] + 1),
                       real_restore(state))[1])
    monkeypatch.setattr(
        system.ranker, "poison_revert",
        lambda poison: (calls.__setitem__("revert", calls["revert"] + 1),
                        real_revert(poison))[1])
    system.reset()
    system.reset()
    assert calls == {"restore": 0, "revert": 0}  # clean: both no-ops
    system.attack(attack_batch(system)[0])       # clean entry: no revert
    assert calls == {"restore": 0, "revert": 0}
    system.attack(attack_batch(system)[1])       # poisoned entry: revert
    system.reset()                               # reverts the injection
    system.reset()                               # clean again: no-op
    assert calls["revert"] == 2
    assert calls["restore"] == 0
    system.reset(force=True)                     # force always restores
    assert calls["restore"] == 1


# ----------------------------------------------------------------------
# Merged-log splice
# ----------------------------------------------------------------------
def test_splice_and_unsplice_roundtrip():
    log = InteractionLog(10)
    log.add_sequence(0, [1, 2, 3])
    poison = InteractionLog(10)
    poison.add_sequence(5, [7, 8])
    log.splice(poison)
    assert log.sequence(5) == [7, 8]
    assert log.num_users == 2
    log.unsplice(poison)
    assert 5 not in log
    assert log.sequence(0) == [1, 2, 3]


def test_splice_rejects_overlapping_users():
    log = InteractionLog(10)
    log.add_sequence(0, [1])
    other = InteractionLog(10)
    other.add_sequence(0, [2])
    with pytest.raises(ValueError):
        log.splice(other)


def test_splice_rejects_mismatched_universe():
    with pytest.raises(ValueError):
        InteractionLog(10).splice(InteractionLog(11))


def test_attack_leaves_merged_skeleton_clean(dataset):
    system = RecommenderSystem(dataset, "itempop", seed=0, num_attackers=8)
    users_before = set(system._merged_skeleton.users)
    system.attack(attack_batch(system)[0])
    assert set(system._merged_skeleton.users) == users_before


# ----------------------------------------------------------------------
# The skeleton's view: built once, only for rankers that read it
# ----------------------------------------------------------------------
def count_skeleton_builds(monkeypatch, system) -> list:
    """Record every ``from_log`` call on the system's merged skeleton."""
    builds = []
    from_log = SparseInteractions.from_log.__func__

    def counting(cls, log, *args, **kwargs):
        if log is system._merged_skeleton:
            builds.append(kwargs)
        return from_log(cls, log, *args, **kwargs)

    monkeypatch.setattr(SparseInteractions, "from_log",
                        classmethod(counting))
    return builds


def test_learned_ranker_builds_the_skeleton_view_once(dataset, monkeypatch):
    system = RecommenderSystem(dataset, "pmf", seed=0, num_attackers=8,
                               ranker_kwargs=dict(dim=8, epochs=1))
    skeleton = system._merged_skeleton
    builds = count_skeleton_builds(monkeypatch, system)
    for trajectories in attack_batch(system, seed=4, count=10):
        system.attack(trajectories)
    assert len(builds) == 1  # the clean view, on the first query
    clean = sparse_view(skeleton)  # the pre-splice view, not a rebuild
    assert len(builds) == 1
    expected = SparseInteractions.from_log(system.clean_log)
    for name in ("users", "user_ptr", "item_ids"):
        assert np.array_equal(getattr(clean, name), getattr(expected, name))


@pytest.mark.parametrize("ranker", ["itempop", "covisitation", "gru4rec"])
def test_poison_only_rankers_build_no_skeleton_view(dataset, monkeypatch,
                                                    ranker):
    kwargs = dict(dim=8, epochs=1, update_epochs=1) \
        if ranker == "gru4rec" else None
    system = RecommenderSystem(dataset, ranker, seed=0, num_attackers=8,
                               ranker_kwargs=kwargs)
    builds = count_skeleton_builds(monkeypatch, system)
    for trajectories in attack_batch(system, seed=5, count=3):
        system.attack(trajectories)
    assert builds == []
