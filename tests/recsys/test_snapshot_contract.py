"""The snapshot contract: ranker state is arrays and immutable scalars.

``RankerSnapshot`` copies array leaves once and shares immutable
scalars; any other leaf is refused, so a restore is an in-place array
copy and never a walk over a copied interaction log.
"""

from __future__ import annotations

import numbers

import numpy as np
import pytest

from repro.data import InteractionLog
from repro.recsys import Ranker, RecommenderSystem

FAST = {
    "pmf": dict(dim=8, epochs=2),
    "bpr": dict(dim=8, epochs=2),
    "neumf": dict(dim=8, epochs=1, update_epochs=1),
    "autorec": dict(hidden=8, epochs=2, update_epochs=1),
    "gru4rec": dict(dim=8, epochs=1, update_epochs=1),
    "ngcf": dict(dim=8, epochs=1, update_epochs=1, batches_per_epoch=2),
}
RANKERS = ["itempop", "covisitation", "pmf", "bpr", "neumf", "autorec",
           "gru4rec", "ngcf"]


def leaves(state):
    if isinstance(state, dict):
        for value in state.values():
            yield from leaves(value)
    elif isinstance(state, (list, tuple)):
        for value in state:
            yield from leaves(value)
    else:
        yield state


@pytest.fixture(scope="module", params=RANKERS)
def system(request, tiny_dataset):
    return RecommenderSystem(tiny_dataset, request.param, seed=0,
                             num_attackers=6,
                             ranker_kwargs=FAST.get(request.param))


def test_snapshot_leaves_are_arrays_or_scalars(system):
    state = system.ranker.snapshot().state
    for leaf in leaves(state):
        assert isinstance(leaf, (np.ndarray, numbers.Number, np.generic,
                                 str, type(None))), type(leaf)
    assert any(isinstance(leaf, np.ndarray) for leaf in leaves(state))


def test_forced_restore_after_query_gives_clean_scores(system):
    clean = system.ranker.score_batch(system.eval_users, system.candidates)
    target = int(system.target_items[0])
    other = int(system.target_items[1])
    system.attack([[target, 3, other, target, 5] for _ in range(4)])
    system.reset(force=True)
    restored = system.ranker.score_batch(system.eval_users,
                                         system.candidates)
    assert restored.tobytes() == clean.tobytes()


class CountingRanker(Ranker):
    """Item counts plus how many poisons it took: an int in its state."""

    name = "counting"

    def __init__(self, num_users: int, num_items: int, seed: int = 0) -> None:
        super().__init__(num_users, num_items, seed)
        self.counts = np.zeros(num_items)
        self.poisons = 0

    def fit(self, log: InteractionLog) -> None:
        self.counts = log.item_counts().astype(np.float64)
        self.poisons = 0

    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        self.counts = self.counts + poison.item_counts()
        self.poisons += 1

    def score(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        return self.counts[np.asarray(item_ids)]

    def _state(self):
        return {"counts": self.counts, "poisons": self.poisons}

    def _set_state(self, state) -> None:
        self.counts = state["counts"]
        self.poisons = state["poisons"]


class SetRanker(CountingRanker):
    """Keeps a set of seen users in its state, which a snapshot refuses."""

    def _state(self):
        return {"counts": self.counts, "seen": {1, 2}}


def small_log() -> InteractionLog:
    log = InteractionLog(5)
    log.add_sequence(0, [1, 2, 2])
    log.add_sequence(1, [3])
    return log


def test_custom_ranker_with_an_int_snapshots_and_restores():
    log = small_log()
    ranker = CountingRanker(4, 5)
    ranker.fit(log)
    snapshot = ranker.snapshot()
    poison = InteractionLog(5)
    poison.add_sequence(3, [4, 4])
    ranker.poison_update(log.merged_with(poison), poison)
    assert ranker.poisons == 1
    assert ranker.score(0, np.arange(5))[4] == 2.0
    ranker.restore(snapshot)
    assert ranker.poisons == 0
    assert ranker.score(0, np.arange(5)).tolist() == [0, 1, 2, 1, 0]


def test_custom_ranker_with_a_set_is_refused():
    ranker = SetRanker(4, 5)
    ranker.fit(small_log())
    with pytest.raises(TypeError, match="set"):
        ranker.snapshot()
