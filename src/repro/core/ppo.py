"""Proximal Policy Optimization for PoisonRec (Section III-D).

Implements the clipped-surrogate update of Equations 7/9 with the
per-batch Gaussian reward normalization of Equation 8.  Because the whole
reward arrives only after the complete trajectory set is injected
(gamma = 1, terminal reward = RecNum), every decision in an example shares
the same (normalized) advantage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..nn import Adam, Tensor
from ..nn import functional as F
from ..obs.trace import traced
from .policy import PolicyNetwork, Rollout


@dataclass
class Experience:
    """One training example: a rollout of N trajectories and its RecNum."""

    rollout: Rollout
    reward: float


def normalize_rewards(rewards: Sequence[float]) -> np.ndarray:
    """Equation 8: Gaussian-normalize a batch of RecNum rewards.

    A degenerate batch (zero variance — e.g. every attack scored 0) yields
    all-zero advantages, which correctly produces no policy gradient.
    """
    rewards = np.asarray(rewards, dtype=float)
    std = rewards.std()
    if std < 1e-8:
        return np.zeros_like(rewards)
    return (rewards - rewards.mean()) / std


class PPOTrainer:
    """Clipped-surrogate PPO over stored rollouts."""

    def __init__(self, policy: PolicyNetwork, learning_rate: float = 2e-3,
                 clip_epsilon: float = 0.1, grad_clip: float = 5.0,
                 seed: int = 0, normalize: bool = True) -> None:
        self.policy = policy
        self.optimizer = Adam(list(policy.parameters()), lr=learning_rate)
        self.clip_epsilon = clip_epsilon
        self.grad_clip = grad_clip
        #: Apply Equation 8 (Gaussian reward normalization).  Disable only
        #: for ablation studies — raw RecNum advantages destabilize PPO.
        self.normalize = normalize
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _flatten(self, experiences: Sequence[Experience]) -> tuple:
        """Stack examples attacker-major into one batch.

        Returns items ``(B*N, T)``, decision dict, old log-probs and mask
        ``(B*N, T, D)``, and per-row advantages ``(B*N,)``.
        """
        rewards = [e.reward for e in experiences]
        if self.normalize:
            advantages = normalize_rewards(rewards)
        else:
            # Ablation mode: mean-centered raw rewards (RecNum magnitude
            # flows straight into the advantage).
            advantages = np.asarray(rewards, dtype=float)
            advantages = advantages - advantages.mean()
        items = np.concatenate([e.rollout.items for e in experiences], axis=0)
        old_lp = np.concatenate([e.rollout.log_probs for e in experiences],
                                axis=0)
        mask = np.concatenate([e.rollout.mask for e in experiences], axis=0)
        decisions: Dict[str, np.ndarray] = {}
        for key in experiences[0].rollout.decisions:
            decisions[key] = np.concatenate(
                [e.rollout.decisions[key] for e in experiences], axis=0)
        row_adv = np.repeat(advantages,
                            [e.rollout.num_attackers for e in experiences])
        return items, decisions, old_lp, mask, row_adv

    def update(self, experiences: Sequence[Experience], epochs: int = 3,
               batch_size: int | None = None) -> List[float]:
        """Run K PPO epochs over the stored examples; returns epoch losses."""
        if not experiences:
            return []
        losses = []
        subsample = (batch_size is not None
                     and batch_size < len(experiences))
        # Full-batch epochs all see the same examples, so the stacked
        # arrays are loop-invariant: flatten once, reuse every epoch.
        flat = None if subsample else self._flatten(list(experiences))
        for epoch in range(epochs):
            with traced("ppo_epoch", epoch=epoch):
                if subsample:
                    chosen = self.rng.choice(len(experiences),
                                             size=batch_size,
                                             replace=False)
                    batch = [experiences[i] for i in chosen]
                    losses.append(self._update_once(batch))
                else:
                    losses.append(self._step(flat))
        return losses

    def _update_once(self, batch: Sequence[Experience]) -> float:
        return self._step(self._flatten(batch))

    def _step(self, flat: tuple) -> float:
        """One clipped-surrogate gradient step over pre-flattened arrays.

        The step's three layers run as one ``forward``, ``backward`` and
        ``optim`` span each.
        """
        items, decisions, old_lp, mask, row_adv = flat
        if not np.any(row_adv):
            return 0.0  # zero-variance batch: no gradient signal
        with traced("forward"):
            new_lp = self.policy.rollout_log_probs(items, decisions)
            ratio = F.exp(new_lp - Tensor(old_lp))
            advantage = Tensor(row_adv[:, None, None])
            clipped = F.clip(ratio, 1.0 - self.clip_epsilon,
                             1.0 + self.clip_epsilon)
            objective = F.minimum(ratio * advantage, clipped * advantage)
            mask_t = Tensor(mask)
            denom = max(float(mask.sum()), 1.0)
            loss = -(objective * mask_t).sum() * (1.0 / denom)
        with traced("backward"):
            self.optimizer.zero_grad()
            loss.backward()
        with traced("optim"):
            self.optimizer.clip_grad_norm(self.grad_clip)
            self.optimizer.step()
        return float(loss.item())
