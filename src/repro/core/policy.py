"""The PoisonRec policy network: LSTM trajectory encoder + DNN head.

Implements Equations 5-6: the state ``s_t = {u, a_0, ..., a_{t-1}}`` is
embedded by an LSTM into ``h_t``; a two-layer ReLU DNN maps ``h_t`` to
``D(h_t)``, whose dot products with item (or tree-node) features define
the sampling distribution of the attached action space.

Rollouts use a pure-numpy forward pass (no gradients are needed while
sampling); the PPO update recomputes decision log-probabilities through
the autograd engine via :meth:`PolicyNetwork.rollout_log_probs`.  Both
run the LSTM through one per-step kernel: ``LSTMCell.step`` for the
rollout, the fused ``F.lstm_sequence`` op for the recompute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn import Embedding, LSTMCell, MLP, Module, Tensor, shape_spec, stack
from ..nn import functional as F
from .action_space import ActionSpace


@dataclass
class Rollout:
    """Sampled trajectories for one training example (all N attackers).

    Arrays are shaped ``(N, T)`` for items and ``(N, T, D)`` for the
    per-decision records (D = the action space's ``max_decisions``).
    """

    items: np.ndarray
    decisions: Dict[str, np.ndarray]
    log_probs: np.ndarray
    mask: np.ndarray
    _trajectories: Optional[List[List[int]]] = field(
        default=None, repr=False, compare=False)

    @property
    def num_attackers(self) -> int:
        return self.items.shape[0]

    @property
    def trajectory_length(self) -> int:
        return self.items.shape[1]

    def trajectories(self) -> List[List[int]]:
        """Item sequences ready for :meth:`BlackBoxEnvironment.attack`.

        The conversion is cached: rollouts are immutable once sampled,
        and the query path (retries, resampled batches) may ask for the
        same sequences several times.
        """
        if self._trajectories is None:
            self._trajectories = [list(map(int, row)) for row in self.items]
        return self._trajectories


class PolicyNetwork(Module):
    """Shared policy for the N homogeneous attackers."""

    def __init__(self, action_space: ActionSpace, num_attackers: int,
                 dim: int = 64, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.action_space = action_space
        self.num_attackers = num_attackers
        self.dim = dim
        # One table holds item embeddings (rows [0, num_items)) followed by
        # the action space's extra rows (internal tree / set nodes).
        self.features = Embedding(
            action_space.num_items + action_space.num_extra_rows, dim, rng)
        self.user_embedding = Embedding(num_attackers, dim, rng)
        self.lstm = LSTMCell(dim, dim, rng)
        # "a 2-layer DNN with Relu as the activation function" whose output
        # dimension equals |e| (Section III-C).
        self.dnn = MLP([dim, dim, dim], rng)

    # ------------------------------------------------------------------
    # numpy fast path (rollout)
    # ------------------------------------------------------------------
    def _np_dnn(self, h: np.ndarray) -> np.ndarray:
        out = h
        for layer in self.dnn.layers:
            out = out @ layer.weight.data + layer.bias.data
            if layer.activation == "relu":
                out = np.maximum(out, 0.0)
        return out

    def sample_rollout(self, trajectory_length: int,
                       rng: Optional[np.random.Generator]) -> Rollout:
        """Sample N trajectories of T items each (one training example).

        ``rng=None`` decodes greedily (each step takes the argmax action),
        yielding the policy's deterministic mode.
        """
        N = self.num_attackers
        space = self.action_space
        features = self.features.weight.data

        items = np.zeros((N, trajectory_length), dtype=np.int64)
        decisions: Dict[str, list] = {}
        log_probs = np.zeros((N, trajectory_length, space.max_decisions))
        mask = np.zeros((N, trajectory_length, space.max_decisions))

        x = self.user_embedding.weight.data[np.arange(N)]
        h = np.zeros((N, self.dim))
        c = np.zeros((N, self.dim))
        for t in range(trajectory_length):
            h, c = self.lstm.step(x, h, c)
            d_out = self._np_dnn(h)
            step = space.sample_step(d_out, features, rng)
            items[:, t] = step.items
            log_probs[:, t] = step.log_probs
            mask[:, t] = step.mask
            for key, value in step.decisions.items():
                decisions.setdefault(key, []).append(value)
            x = features[step.items]
        # Stack per-step records along a new time axis: arrays become
        # (N, T) for flat decisions and (N, T, D) for tree paths, matching
        # what each space's step_log_probs expects per step slice.
        stacked = {key: np.stack(values, axis=1)
                   for key, values in decisions.items()}
        return Rollout(items=items, decisions=stacked, log_probs=log_probs,
                       mask=mask)

    # ------------------------------------------------------------------
    # autograd recompute (PPO update)
    # ------------------------------------------------------------------
    @shape_spec("(B, T), _ -> (B, T, action_space.max_decisions)")
    def rollout_log_probs(self, items: np.ndarray,
                          decisions: Dict[str, object]) -> Tensor:
        """Log-probs of recorded decisions under the *current* parameters.

        ``items`` is ``(batch, T)`` where batch stacks attackers across
        training examples; attacker identity cycles with ``batch %
        num_attackers`` (examples are stored attacker-major).
        ``decisions`` holds ``(batch, T, ...)`` arrays, sliced per step,
        and the per-step tuples :meth:`ActionSpace.prepare` may add.
        Returns a ``(batch, T, D)`` tensor.
        """
        batch, T = items.shape
        user_ids = np.arange(batch) % self.num_attackers
        # The LSTM reads the attacker's embedding, then each sampled item.
        inputs = [self.user_embedding(user_ids)]
        inputs.extend(self.features(items[:, t]) for t in range(T - 1))
        hidden = F.lstm_sequence(inputs, self.lstm.weight, self.lstm.bias)
        per_step = []
        for t in range(T):
            d_out = self.dnn(hidden[:, t])
            step_decisions = {key: value[t] if isinstance(value, tuple)
                              else value[:, t]
                              for key, value in decisions.items()}
            lp = self.action_space.step_log_probs(d_out, self.features.weight,
                                                  step_decisions)
            per_step.append(lp)
        return stack(per_step, axis=1)
