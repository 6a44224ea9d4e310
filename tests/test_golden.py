"""Pinned behaviour goldens: RecNum and training trajectories at ci scale.

A change that alters a random stream or a model's arithmetic moves at
least one of these numbers, so it cannot land silently.  The pinned
values live in ``tests/golden.json``; regenerate them on purpose with::

    PYTHONPATH=src python -m tests.test_golden --write

and name every value that moved, and why, in ``CHANGES.md``.

Two groups of values, all on the ci-scale Steam stand-in:

* every ranker at two seeds: the clean RecNum and the RecNum after one
  fixed attack (the paper's reward, read through one black-box query);
* PoisonRec with each action space at two seeds against CoVisitation,
  a testbed whose rewards vary from the first step, so every PPO update
  takes a gradient step: per training step, the mean and max RecNum and
  a digest of every sampled trajectory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import ACTION_SPACE_KINDS, PoisonRec, PoisonRecConfig
from repro.data import load_dataset
from repro.recsys import RANKER_NAMES, BlackBoxEnvironment, RecommenderSystem

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 1)
#: Training steps pinned per (action space, seed).
STEPS = 5
#: Clicks per trajectory of the fixed attack, and its attacker count.
ATTACK_LENGTH = 20
ATTACKERS = 20


@functools.lru_cache(maxsize=None)
def dataset(seed: int):
    """The ci-scale Steam stand-in; systems copy its log, never mutate it."""
    return load_dataset("steam", scale="ci", seed=seed)


def fixed_attack(system: RecommenderSystem) -> list:
    """Every attacker cycles through the targets; each fourth click is a
    popular original item.  No random draws."""
    counts = system.clean_log.item_counts()[:system.num_original_items]
    popular = sorted(range(len(counts)), key=lambda i: (-counts[i], i))[:20]
    targets = [int(t) for t in system.target_items]
    return [[popular[(a + t) % len(popular)] if t % 4 == 3
             else targets[(a + t) % len(targets)]
             for t in range(ATTACK_LENGTH)]
            for a in range(ATTACKERS)]


def ranker_values(ranker: str, seed: int) -> dict:
    system = RecommenderSystem(dataset(seed), ranker, seed=seed,
                               num_attackers=ATTACKERS)
    return {"clean": system.recnum(),
            "attacked": system.attack(fixed_attack(system))}


class RecordingEnvironment(BlackBoxEnvironment):
    """The black-box facade, keeping every queried trajectory set."""

    def __init__(self, system: RecommenderSystem) -> None:
        super().__init__(system)
        self.queried: list = []

    def attack(self, trajectories) -> int:
        self.queried.append([list(map(int, t)) for t in trajectories])
        return super().attack(trajectories)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def training_values(space: str, seed: int) -> list:
    config = PoisonRecConfig.ci(seed=seed)
    system = RecommenderSystem(dataset(seed), "covisitation", seed=seed,
                               num_attackers=config.num_attackers)
    env = RecordingEnvironment(system)
    agent = PoisonRec(env, config, action_space=space)
    steps = []
    for _ in range(STEPS):
        before = len(env.queried)
        stats = agent.train_step()
        steps.append({"mean": stats.mean_reward, "max": stats.max_reward,
                      "items": _digest(env.queried[before:])})
    return steps


def measure() -> dict:
    return {
        "rankers": {f"{ranker}/{seed}": ranker_values(ranker, seed)
                    for ranker in RANKER_NAMES for seed in SEEDS},
        "training": {f"{space}/{seed}": training_values(space, seed)
                     for space in ACTION_SPACE_KINDS for seed in SEEDS},
    }


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ranker", RANKER_NAMES)
def test_ranker_recnum(ranker, seed):
    pinned = _pinned()["rankers"][f"{ranker}/{seed}"]
    assert ranker_values(ranker, seed) == pinned


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("space", ACTION_SPACE_KINDS)
def test_training_trajectory(space, seed):
    pinned = _pinned()["training"][f"{space}/{seed}"]
    assert training_values(space, seed) == pinned


def test_golden_covers_every_ranker_and_space():
    pinned = _pinned()
    assert set(pinned["rankers"]) == {f"{r}/{s}" for r in RANKER_NAMES
                                      for s in SEEDS}
    assert set(pinned["training"]) == {f"{a}/{s}" for a in ACTION_SPACE_KINDS
                                       for s in SEEDS}
    # Every pinned campaign's rewards vary within a step, so its PPO
    # updates are not no-ops.
    for steps in pinned["training"].values():
        assert all(step["max"] > step["mean"] for step in steps)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
