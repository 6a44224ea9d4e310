"""The fused BCBT tree-walk op against the per-level graph it replaced.

``TreeActionSpace.step_log_probs`` computes every decision of one time
step's tree walk (Equation 9) in one ``F.binary_choice_log_probs`` node.
The per-level graph below (two gathers, two products, two sums, a
stack, a log-softmax and a pick per level) is kept as the oracle.

The relaxation: the forward is bit-equal to the oracle and to the
rollout's numpy log-probs.  The backward sums in a different order (one
contraction for the query, one sum per distinct parent for the table,
the right logit's gradient taken as minus the left one's), so gradients
agree to a relative 1e-12, and after six PPO updates the sampled
trajectories are identical and the parameters agree to 1e-12.
"""

import functools

import numpy as np
import pytest
import scipy.sparse

from repro.core import PolicyNetwork, PPOTrainer, make_action_space
from repro.core.action_space import TreeActionSpace
from repro.core.ppo import Experience
from repro.nn import AnomalyError, Tensor, detect_anomaly, stack
from repro.nn import functional as F

NUM_ORIGINAL = 50
TARGETS = np.arange(50, 58)
TREE_KINDS = ("bcbt-popular", "bcbt-random")


def per_level_log_probs(space: TreeActionSpace, dnn_out: Tensor,
                        features: Tensor, decisions: dict) -> Tensor:
    """One graph node per product, sum and pick, level by level."""
    parents = decisions["parents"]
    sides = decisions["sides"]
    batch, depth = parents.shape
    rows = np.arange(batch)
    level_lps = []
    for level in range(depth):
        node = parents[:, level]
        safe = np.where(node >= space.num_items, node, space.tree.root)
        left, right = space.tree.children(safe)
        score_left = (dnn_out * features[left]).sum(axis=1)
        score_right = (dnn_out * features[right]).sum(axis=1)
        logits = stack([score_left, score_right], axis=1)
        level_lps.append(F.log_softmax(logits, axis=1)[rows, sides[:, level]])
    return stack(level_lps, axis=1)


def make_space(kind: str) -> TreeActionSpace:
    popularity = np.concatenate([np.arange(NUM_ORIGINAL, 0, -1.0),
                                 np.zeros(len(TARGETS))])
    return make_action_space(kind, NUM_ORIGINAL, TARGETS, popularity, seed=3)


def sampled_step(kind: str, batch: int = 40, dim: int = 16, seed: int = 0):
    space = make_space(kind)
    rng = np.random.default_rng(seed)
    features = rng.normal(0, 0.4, (space.num_items + space.num_extra_rows,
                                   dim))
    dnn_out = rng.normal(size=(batch, dim))
    step = space.sample_step(dnn_out, features, rng)
    return space, dnn_out, features, step


@pytest.mark.parametrize("kind", TREE_KINDS)
class TestForward:
    def test_bit_equal_to_rollout_and_oracle(self, kind):
        space, dnn_out, features, step = sampled_step(kind)
        # Walks of unequal depth: some levels are padding.
        assert 0 < step.mask.sum() < step.mask.size
        fused = space.step_log_probs(Tensor(dnn_out), Tensor(features),
                                     step.decisions).data
        oracle = per_level_log_probs(space, Tensor(dnn_out),
                                     Tensor(features), step.decisions).data
        assert fused.tobytes() == oracle.tobytes()
        taken = step.mask > 0
        assert fused[taken].tobytes() == step.log_probs[taken].tobytes()

    def test_one_graph_node_per_walk(self, kind):
        space, dnn_out, features, step = sampled_step(kind)
        out = space.step_log_probs(Tensor(dnn_out, requires_grad=True),
                                   Tensor(features, requires_grad=True),
                                   step.decisions)
        assert all(not parent._parents for parent in out._parents)


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_gradients_match_oracle(kind):
    space, dnn_out, features, step = sampled_step(kind)
    upstream = np.random.default_rng(9).normal(size=step.mask.shape)
    # The PPO loss masks padded levels, so their upstream gradient is 0.
    upstream = upstream * step.mask
    grads = []
    for recompute in (space.step_log_probs,
                      functools.partial(per_level_log_probs, space)):
        query = Tensor(dnn_out, requires_grad=True)
        table = Tensor(features, requires_grad=True)
        recompute(query, table, step.decisions).backward(upstream)
        grads.append((query.grad, table.grad))
    (query_fused, table_fused), (query_oracle, table_oracle) = grads
    np.testing.assert_allclose(query_fused, query_oracle, rtol=1e-12,
                               atol=1e-15)
    np.testing.assert_allclose(table_fused, table_oracle, rtol=1e-12,
                               atol=1e-15)
    # Rows no decision reads get no gradient at all.
    touched = np.unique(np.concatenate(space.tree.children(
        np.where(step.decisions["parents"] >= space.num_items,
                 step.decisions["parents"], space.tree.root).ravel())))
    untouched = np.setdiff1d(np.arange(len(features)), touched)
    assert not table_fused[untouched].any()


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_six_updates_match_oracle(monkeypatch, kind):
    def train():
        space = make_space(kind)
        policy = PolicyNetwork(space, 5, dim=8, seed=1)
        trainer = PPOTrainer(policy, learning_rate=2e-2, seed=1)
        rng = np.random.default_rng(2)
        trajectories = []
        for _ in range(6):
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
        return trajectories, [p.data.copy() for p in policy.parameters()]

    fused_items, fused_params = train()
    with monkeypatch.context() as patch:
        patch.setattr(TreeActionSpace, "step_log_probs", per_level_log_probs)
        oracle_items, oracle_params = train()
    assert fused_items == oracle_items
    for fused, oracle in zip(fused_params, oracle_params):
        assert relative_gap(fused, oracle) <= 1e-12


def test_inconsistent_children_are_rejected():
    with pytest.raises(ValueError, match="same left and right children"):
        F.ChoiceGroups(np.array([[9], [9]]), np.array([[0], [1]]),
                       np.array([[2], [3]]))


def test_anomaly_mode_names_the_op(monkeypatch):
    space, dnn_out, features, step = sampled_step("bcbt-popular")
    real = scipy.sparse.csr_matrix

    def poisoned(arg, **kwargs):
        data, indices, indptr = arg
        return real((np.full_like(data, np.nan), indices, indptr), **kwargs)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", poisoned)
    with detect_anomaly():
        out = space.step_log_probs(Tensor(dnn_out),
                                   Tensor(features, requires_grad=True),
                                   step.decisions)
        with pytest.raises(AnomalyError) as excinfo:
            out.backward(step.mask)
    message = str(excinfo.value)
    assert "NaN" in message
    assert "binary_choice_log_probs" in message
