"""CoVisitation against a dict-of-dicts reference graph, byte for byte.

The ranker keeps its clean graph as a sparse count matrix and a poison's
click pairs as a delta array.  The oracle below is the direct reading of
the model: a dict of co-visit counts per item, grown click by click, and
a score that walks each history item's neighbors.  Like the ranker, it
takes histories from the fit log, and each poison's edge walk starts
from the user's fit-log history.  Every weight and degree is an
integer-valued float, and each (history position, candidate) pair adds
at most once in history order, so the two must agree exactly.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.data import DatasetSpec, InteractionLog, generate_log
from repro.recsys import CoVisitation

NUM_ITEMS = 12
TARGET = 11


class DictCoVisitation:
    """Reference co-visitation: the dict-of-dicts graph and its walk."""

    def __init__(self, num_items: int, history_window: int = 20) -> None:
        self.history_window = history_window
        self.covisits: dict = defaultdict(dict)
        self.degree = np.zeros(num_items)
        self.histories: dict = {}

    def _walk(self, prev, sequence) -> None:
        for item in sequence:
            if prev is not None and prev != item:
                for a, b in ((prev, item), (item, prev)):
                    row = self.covisits[a]
                    row[b] = row.get(b, 0.0) + 1.0
                    self.degree[a] += 1.0
            prev = item

    def fit(self, log: InteractionLog) -> None:
        for user, sequence in log.iter_sequences():
            self.histories[user] = list(sequence)
            self._walk(None, sequence)

    def poison_update(self, poison: InteractionLog) -> None:
        for user, sequence in poison.iter_sequences():
            history = self.histories.get(user)
            self._walk(history[-1] if history else None, sequence)

    def score(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        history = self.histories.get(user, [])[-self.history_window:]
        scores = np.zeros(len(item_ids))
        index = {int(item): pos for pos, item in enumerate(item_ids)}
        for h in history:
            degree = max(self.degree[h], 1.0)
            for neighbor, weight in self.covisits.get(h, {}).items():
                pos = index.get(neighbor)
                if pos is not None:
                    scores[pos] += weight / degree
        return scores


def make_log(sequences: dict) -> InteractionLog:
    log = InteractionLog(NUM_ITEMS)
    for user, sequence in sequences.items():
        log.add_sequence(user, sequence)
    return log


def fit_log() -> InteractionLog:
    """Self-transitions, repeated clicks, a single click, a long tail."""
    rng = np.random.default_rng(3)
    sequences = {
        0: [1, 1, 2, 3, 2, 2, 1, 4],
        1: [2, 3, 3, 5, 2],
        2: [6],
        3: [5, 4, 5, 4, 7, 7, 7, 8],
        5: rng.integers(0, TARGET, size=30).tolist(),  # > history window
    }
    for user in range(6, 20):
        sequences[user] = rng.integers(
            0, TARGET, size=int(rng.integers(1, 9))).tolist()
    return make_log(sequences)


def eval_block(rng: np.random.Generator):
    """Users with and without history; candidates with duplicates."""
    users = np.array([0, 1, 2, 3, 4, 5, 9, 25, 30, 0, 12, 19])
    candidates = rng.integers(0, NUM_ITEMS, size=(len(users), 9))
    candidates[:, -1] = candidates[:, 0]        # a duplicate in every row
    candidates[::2, 4] = TARGET
    return users, candidates


def assert_matches(ranker: CoVisitation, oracle: DictCoVisitation,
                   users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    expected = np.stack([oracle.score(int(u), candidates[i])
                         for i, u in enumerate(users)])
    batched = ranker.score_batch(users, candidates)
    serial = np.stack([ranker.score(int(u), candidates[i])
                       for i, u in enumerate(users)])
    assert batched.dtype == expected.dtype == serial.dtype
    assert batched.tobytes() == expected.tobytes()
    assert serial.tobytes() == expected.tobytes()
    return batched


def fitted(log: InteractionLog, **kwargs):
    ranker = CoVisitation(40, NUM_ITEMS, **kwargs)
    ranker.fit(log)
    oracle = DictCoVisitation(NUM_ITEMS, **kwargs)
    oracle.fit(log)
    return ranker, oracle


POISONS = {
    "random": lambda rng: {30: rng.integers(0, NUM_ITEMS, 15).tolist(),
                           31: rng.integers(0, NUM_ITEMS, 15).tolist()},
    "target_flood": lambda rng: {30: [TARGET] * 10, 31: [TARGET, 2] * 5},
    "fit_log_user": lambda rng: {0: [TARGET, TARGET, 2, TARGET],
                                 3: [8, TARGET], 32: [4, TARGET]},
}


@pytest.mark.parametrize("history_window", [20, 3])
def test_fit_matches_oracle(history_window):
    ranker, oracle = fitted(fit_log(), history_window=history_window)
    users, candidates = eval_block(np.random.default_rng(0))
    assert_matches(ranker, oracle, users, candidates)


@pytest.mark.parametrize("name", sorted(POISONS))
def test_poison_update_matches_oracle_and_reverts(name):
    log = fit_log()
    ranker, oracle = fitted(log)
    users, candidates = eval_block(np.random.default_rng(1))
    clean = ranker.score_batch(users, candidates)
    poison = make_log(POISONS[name](np.random.default_rng(2)))
    ranker.poison_update(log.merged_with(poison), poison)
    oracle.poison_update(poison)
    poisoned = assert_matches(ranker, oracle, users, candidates)
    assert poisoned.tobytes() != clean.tobytes()
    ranker.poison_revert(poison)
    assert ranker.score_batch(users, candidates).tobytes() == clean.tobytes()


def test_stacked_poisons_match_oracle():
    log = fit_log()
    ranker, oracle = fitted(log)
    users, candidates = eval_block(np.random.default_rng(4))
    rng = np.random.default_rng(5)
    first = make_log(POISONS["fit_log_user"](rng))
    second = make_log({0: [3, TARGET], 30: [TARGET, 1, TARGET]})
    ranker.poison_update(log.merged_with(first), first)
    oracle.poison_update(first)
    after_first = assert_matches(ranker, oracle, users, candidates)
    # The second poison of user 0 links to its fit-log history, not to
    # the first poison.
    ranker.poison_update(log.merged_with(second), second)
    oracle.poison_update(second)
    assert_matches(ranker, oracle, users, candidates)
    ranker.poison_revert(second)
    assert ranker.score_batch(users, candidates).tobytes() \
        == after_first.tobytes()


def test_generated_log_matches_oracle():
    spec = DatasetSpec(name="oracle", num_users=60, num_items=40,
                       num_samples=900, num_clusters=4)
    log = generate_log(spec, seed=11)
    ranker = CoVisitation(80, spec.num_items)
    ranker.fit(log)
    oracle = DictCoVisitation(spec.num_items)
    oracle.fit(log)
    rng = np.random.default_rng(12)
    users = np.arange(64)
    candidates = rng.integers(0, spec.num_items, size=(len(users), 30))
    assert_matches(ranker, oracle, users, candidates)
    poison = InteractionLog(spec.num_items)
    for user in range(60, 70):
        poison.add_sequence(user, rng.integers(0, spec.num_items,
                                               12).tolist())
    ranker.poison_update(log.merged_with(poison), poison)
    oracle.poison_update(poison)
    assert_matches(ranker, oracle, users, candidates)
