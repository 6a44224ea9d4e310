"""Policy network tests: rollout shapes and sampling/recompute agreement."""

import numpy as np
import pytest

from repro.core import PolicyNetwork, make_action_space
from repro.core.action_space import ACTION_SPACE_KINDS

NUM_ORIGINAL = 25
TARGETS = np.arange(25, 33)


def make_policy(kind, num_attackers=5, dim=8, seed=0):
    popularity = np.concatenate([np.arange(NUM_ORIGINAL, 0, -1.0),
                                 np.zeros(8)])
    space = make_action_space(kind, NUM_ORIGINAL, TARGETS, popularity,
                              seed=seed)
    return PolicyNetwork(space, num_attackers, dim=dim, seed=seed)


@pytest.mark.parametrize("kind", ACTION_SPACE_KINDS)
class TestRollout:
    def test_shapes(self, kind, rng):
        policy = make_policy(kind)
        rollout = policy.sample_rollout(7, rng)
        assert rollout.items.shape == (5, 7)
        assert rollout.log_probs.shape == (
            5, 7, policy.action_space.max_decisions)
        assert rollout.mask.shape == rollout.log_probs.shape
        assert rollout.num_attackers == 5
        assert rollout.trajectory_length == 7

    def test_trajectories_are_lists_of_ints(self, kind, rng):
        policy = make_policy(kind)
        trajectories = policy.sample_rollout(4, rng).trajectories()
        assert len(trajectories) == 5
        assert all(isinstance(item, int) for t in trajectories for item in t)

    def test_items_in_universe(self, kind, rng):
        policy = make_policy(kind)
        items = policy.sample_rollout(6, rng).items
        assert ((items >= 0) & (items < 33)).all()

    def test_recompute_matches_rollout_log_probs(self, kind, rng):
        """rollout_log_probs under unchanged parameters must reproduce the
        log-probs recorded during numpy sampling — the end-to-end PPO
        correctness invariant across LSTM, DNN and action space."""
        policy = make_policy(kind)
        rollout = policy.sample_rollout(6, rng)
        recomputed = policy.rollout_log_probs(rollout.items,
                                              rollout.decisions).numpy()
        taken = rollout.mask > 0
        assert recomputed[taken].tobytes() == rollout.log_probs[taken].tobytes()

    def test_recompute_gradient_reaches_parameters(self, kind, rng):
        policy = make_policy(kind)
        rollout = policy.sample_rollout(4, rng)
        lp = policy.rollout_log_probs(rollout.items, rollout.decisions)
        lp.sum().backward()
        grads = [p.grad for p in policy.parameters()]
        assert sum(g is not None for g in grads) >= len(grads) - 1


class TestDeterminism:
    def test_same_seed_same_rollout(self):
        a = make_policy("bcbt-popular", seed=3)
        b = make_policy("bcbt-popular", seed=3)
        ra = a.sample_rollout(5, np.random.default_rng(11))
        rb = b.sample_rollout(5, np.random.default_rng(11))
        np.testing.assert_array_equal(ra.items, rb.items)

    def test_numpy_fast_path_matches_weights(self, rng):
        """The numpy LSTM/DNN forward must agree with the autograd one."""
        policy = make_policy("plain")
        x = rng.normal(size=(3, 8))
        h = rng.normal(size=(3, 8))
        c = rng.normal(size=(3, 8))
        h_np, c_np = policy.lstm.step(x, h, c)
        from repro.nn import Tensor
        h_t, c_t = policy.lstm(Tensor(x), (Tensor(h), Tensor(c)))
        assert h_np.tobytes() == h_t.numpy().tobytes()
        assert c_np.tobytes() == c_t.numpy().tobytes()
        d_np = policy._np_dnn(h_np)
        d_t = policy.dnn(h_t)
        np.testing.assert_allclose(d_np, d_t.numpy(), atol=1e-12)

    def test_feature_table_sized_for_extra_rows(self):
        policy = make_policy("bcbt-popular")
        expected = 33 + policy.action_space.num_extra_rows
        assert policy.features.weight.shape[0] == expected
