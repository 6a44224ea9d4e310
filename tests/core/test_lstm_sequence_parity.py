"""The policy's fused LSTM recompute against the cell-by-cell graph.

``PolicyNetwork.rollout_log_probs`` runs its LSTM as one
``F.lstm_sequence`` node.  The cell-by-cell recompute below, one
``LSTMCell`` graph per time step, is what it replaced and is kept as the
oracle.  No value may move: PPO updates through either recompute leave
byte-equal parameters and sample identical trajectories.  Both sides run
in this process, so the comparison does not depend on the BLAS build.
"""

import numpy as np
import pytest

from repro.core import PolicyNetwork, PPOTrainer, make_action_space
from repro.core.action_space import ACTION_SPACE_KINDS
from repro.core.ppo import Experience
from repro.nn import Tensor, stack

NUM_ORIGINAL = 50
TARGETS = np.arange(50, 58)


def cell_by_cell_log_probs(self: PolicyNetwork, items: np.ndarray,
                           decisions: dict) -> Tensor:
    """The recompute with one ``LSTMCell`` graph per time step."""
    batch, T = items.shape
    user_ids = np.arange(batch) % self.num_attackers
    x = self.user_embedding(user_ids)
    h = Tensor(np.zeros((batch, self.dim)))
    c = Tensor(np.zeros((batch, self.dim)))
    per_step = []
    for t in range(T):
        h, c = self.lstm(x, (h, c))
        d_out = self.dnn(h)
        step_decisions = {key: value[t] if isinstance(value, tuple)
                          else value[:, t]
                          for key, value in decisions.items()}
        per_step.append(self.action_space.step_log_probs(
            d_out, self.features.weight, step_decisions))
        x = self.features(items[:, t])
    return stack(per_step, axis=1)


def make_policy(kind: str, seed: int) -> PolicyNetwork:
    popularity = np.concatenate([np.arange(NUM_ORIGINAL, 0, -1.0),
                                 np.zeros(len(TARGETS))])
    space = make_action_space(kind, NUM_ORIGINAL, TARGETS, popularity,
                              seed=seed)
    return PolicyNetwork(space, 5, dim=8, seed=seed)


def train(kind: str, seed: int, updates: int = 6):
    policy = make_policy(kind, seed)
    trainer = PPOTrainer(policy, learning_rate=2e-2, seed=seed)
    rng = np.random.default_rng(seed + 100)
    trajectories = []
    for _ in range(updates):
        rollouts = [policy.sample_rollout(6, rng) for _ in range(4)]
        trajectories.append([r.items.tobytes() for r in rollouts])
        # A reward that depends on the sampled items, so every update
        # has nonzero advantages.
        experiences = [Experience(rollout=r,
                                  reward=float((r.items >= 50).sum()
                                               + r.items[0, 0] % 7))
                       for r in rollouts]
        assert len({e.reward for e in experiences}) > 1
        trainer.update(experiences, epochs=3)
    return trajectories, [p.data.tobytes() for p in policy.parameters()]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("kind", ACTION_SPACE_KINDS)
def test_six_updates_byte_equal_to_cell_by_cell(monkeypatch, kind, seed):
    fused = train(kind, seed)
    with monkeypatch.context() as patch:
        patch.setattr(PolicyNetwork, "rollout_log_probs",
                      cell_by_cell_log_probs)
        oracle = train(kind, seed)
    assert fused[0] == oracle[0]
    assert fused[1] == oracle[1]


@pytest.mark.parametrize("kind", ACTION_SPACE_KINDS)
def test_recompute_gradients_byte_equal(kind):
    policy = make_policy(kind, 3)
    rollout = policy.sample_rollout(7, np.random.default_rng(4))
    upstream = np.random.default_rng(9).normal(size=rollout.mask.shape)
    grads = []
    for recompute in (PolicyNetwork.rollout_log_probs,
                      cell_by_cell_log_probs):
        policy.zero_grad()
        out = recompute(policy, rollout.items, rollout.decisions)
        out.backward(upstream * rollout.mask)
        grads.append((out.data.tobytes(),
                      [p.grad.tobytes() for p in policy.parameters()]))
    assert grads[0] == grads[1]
