"""Row-sparse and region gradients leave every parameter byte-identical.

Each case trains twice from the same seeds: once as shipped, and once
with the dense oracles patched in (the dense gather backward and the
dense MF minibatch step, which sum whole-table gradients).  Every
parameter must come out with the same bytes.  The shipped gather takes
the row rule for integer arrays and the region rule for basic indices:
the plain spaces' item-table slices, the LSTM's gate blocks and the
GRU's ``zr`` blocks (GRU4Rec).  Under the dense oracle a slice reads
the same rows, in the same layout, as the ``np.arange`` gather it
replaced.
"""

import numpy as np
import pytest

from repro.core import PolicyNetwork, PPOTrainer, make_action_space
from repro.core.ppo import Experience
from repro.data import InteractionLog
from repro.nn import Tensor
from repro.recsys import BPR, PMF, GRU4Rec, NeuMF
from repro.recsys import bpr as bpr_module
from repro.recsys import pmf as pmf_module

from .nn.test_tensor import dense_getitem
from .recsys.test_factor_rankers import dense_apply_accumulated
from .recsys.test_neural_rankers import clustered_log


def shipped_and_dense(monkeypatch, train):
    """``train()`` as shipped, then again under the dense oracles."""
    shipped = train()
    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "__getitem__", dense_getitem)
        patch.setattr(pmf_module, "_apply_accumulated",
                      dense_apply_accumulated)
        patch.setattr(bpr_module, "_apply_accumulated",
                      dense_apply_accumulated)
        dense = train()
    return shipped, dense


def array_bytes(value) -> list:
    """The bytes of every array leaf of a ranker state, in order."""
    if isinstance(value, dict):
        return [b for key in sorted(value) for b in array_bytes(value[key])]
    if isinstance(value, (list, tuple)):
        return [b for item in value for b in array_bytes(item)]
    return [value.tobytes()] if isinstance(value, np.ndarray) else []


@pytest.mark.parametrize("kind", ["bcbt-popular", "bplain", "plain"])
def test_ppo_update(monkeypatch, kind):
    popularity = np.concatenate([np.arange(20, 0, -1.0), np.zeros(8)])

    def train():
        space = make_action_space(kind, 20, np.arange(20, 28), popularity,
                                  seed=0)
        policy = PolicyNetwork(space, 4, dim=8, seed=0)
        initial = [p.data.tobytes() for p in policy.parameters()]
        trainer = PPOTrainer(policy, learning_rate=1e-2, seed=0)
        rng = np.random.default_rng(1)
        # Distinct rewards give nonzero advantages, so every epoch takes
        # a gradient step.
        experiences = [Experience(rollout=policy.sample_rollout(5, rng),
                                  reward=reward)
                       for reward in (0.0, 2.0, 5.0, 9.0)]
        trainer.update(experiences, epochs=3)
        trained = [p.data.tobytes() for p in policy.parameters()]
        assert trained != initial
        return trained

    shipped, dense = shipped_and_dense(monkeypatch, train)
    assert shipped == dense


FAST = {
    NeuMF: dict(dim=8, epochs=2, update_epochs=2),
    GRU4Rec: dict(dim=8, epochs=2, update_epochs=2),
    PMF: dict(dim=8, epochs=2, update_epochs=2),
    BPR: dict(dim=8, epochs=2, update_epochs=2),
}


@pytest.mark.parametrize("cls", list(FAST), ids=lambda cls: cls.name)
def test_fit_and_poison_update(monkeypatch, cls):
    log = clustered_log()
    poison = InteractionLog(log.num_items)
    for attacker in range(24, 30):
        poison.add_sequence(attacker, [15, 3, 15, 15, 7])
    merged = log.merged_with(poison)

    def train():
        ranker = cls(30, 16, seed=0, **FAST[cls])
        ranker.fit(log)
        fitted = array_bytes(ranker._state())
        ranker.poison_update(merged, poison)
        updated = array_bytes(ranker._state())
        assert updated != fitted
        return fitted + updated

    shipped, dense = shipped_and_dense(monkeypatch, train)
    assert shipped == dense
