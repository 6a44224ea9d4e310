"""Action spaces for PoisonRec: Plain, BPlain, and BCBT variants.

The paper compares four designs of the per-step item-sampling distribution
(Section IV-B):

* **Plain** — one softmax over all items (Equation 6).
* **BPlain** — first choose the item *set* (targets ``I_t`` vs. originals
  ``I``), then softmax within the chosen set (priori knowledge only).
* **BCBT-Popular** — full Biased Complete Binary Tree with
  popularity-sorted leaves (priori knowledge + hierarchical structure).
* **BCBT-Random** — BCBT with randomly assigned leaves (tests
  Assumption 1).

Every space exposes two operations:

* :meth:`ActionSpace.sample_step` — a *numpy fast path* used during
  trajectory rollout (no gradients needed), returning the sampled item and
  a decision record;
* :meth:`ActionSpace.step_log_probs` — an autograd recompute of the
  decision log-probabilities under the current parameters, used by the
  PPO update (Equations 7/9).

Decision records are padded to a fixed per-step decision count
(:attr:`ActionSpace.max_decisions`) with a mask, so tree paths of unequal
depth batch cleanly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..nn import Tensor, shape_spec, stack
from ..nn import functional as F
from .bcbt import TreeArrays, build_bcbt

_LOG_EPS = 1e-12


@dataclass
class StepSample:
    """One sampling step for a batch of attackers.

    ``items`` is the sampled leaf item per attacker; ``decisions`` holds
    whatever the space needs to recompute log-probs (padded arrays of
    shape ``(batch, max_decisions)``); ``log_probs``/``mask`` align with
    ``decisions``.
    """

    items: np.ndarray
    decisions: Dict[str, np.ndarray]
    log_probs: np.ndarray
    mask: np.ndarray


def _gumbel_argmax(rng, logits: np.ndarray) -> np.ndarray:
    """Sample from per-row softmax distributions via the Gumbel-max trick.

    ``rng=None`` switches to greedy (plain argmax) decoding — used to
    extract the deterministic mode of a trained policy.
    """
    if rng is None:
        return np.argmax(logits, axis=-1)
    noise = rng.gumbel(size=logits.shape)
    return np.argmax(logits + noise, axis=-1)


def _log_softmax_np(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class ActionSpace(abc.ABC):
    """Shared interface over the item-sampling designs."""

    def __init__(self, num_original_items: int,
                 target_items: np.ndarray) -> None:
        self.num_original_items = num_original_items
        # Stored sorted: position arithmetic (item id - num_original_items)
        # throughout the spaces relies on ascending target order.
        self.target_items = np.sort(np.asarray(target_items, dtype=np.int64))
        self.num_items = num_original_items + len(self.target_items)
        expected = np.arange(num_original_items, self.num_items)
        if not np.array_equal(self.target_items, expected):
            raise ValueError(
                "target items must be the contiguous block appended after "
                "the original items")

    #: Extra trainable feature rows the space needs beyond item embeddings
    #: (internal tree nodes / set nodes).
    num_extra_rows: int = 0

    #: Maximum decisions per sampled item (1 for Plain, tree depth for BCBT).
    max_decisions: int = 1

    @abc.abstractmethod
    def sample_step(self, dnn_out: np.ndarray, features: np.ndarray,
                    rng: np.random.Generator) -> StepSample:
        """Sample one item per attacker (numpy fast path).

        ``dnn_out`` is the DNN head output ``D(h_t)`` of shape
        ``(batch, dim)``; ``features`` is the full feature table data of
        shape ``(num_items + num_extra_rows, dim)``.
        """

    @abc.abstractmethod
    def step_log_probs(self, dnn_out: Tensor, features: Tensor,
                       decisions: Dict[str, np.ndarray]) -> Tensor:
        """Recompute decision log-probs under current params (autograd).

        Returns a ``(batch, max_decisions)`` tensor aligned with the
        decision mask.
        """

    def prepare(self, decisions: Dict[str, np.ndarray]) -> Dict[str, object]:
        """Decisions of a ``(batch, T)`` recompute, ready to recompute again.

        A recompute slices every ``(batch, T, ...)`` array per time step
        and indexes every tuple by it.  A space whose recompute derives
        something from the decisions alone adds it here, one entry per
        step, so the K epochs of a PPO update derive it once.  The
        default adds nothing.
        """
        return decisions

    @abc.abstractmethod
    def item_distribution(self, dnn_out: np.ndarray,
                          features: np.ndarray) -> np.ndarray:
        """Full per-item sampling distribution (numpy, for analysis).

        Returns ``(batch, num_items)`` probabilities.  For tree spaces
        this multiplies branch probabilities down every root-to-leaf path;
        rows always sum to 1 — the invariant the property tests check.
        """


class PlainActionSpace(ActionSpace):
    """Equation 6: one multinomial over the full item universe."""

    name = "plain"
    num_extra_rows = 0
    max_decisions = 1

    def sample_step(self, dnn_out: np.ndarray, features: np.ndarray,
                    rng: np.random.Generator) -> StepSample:
        logits = dnn_out @ features[:self.num_items].T
        items = _gumbel_argmax(rng, logits)
        log_probs = _log_softmax_np(logits)[np.arange(len(items)), items]
        return StepSample(
            items=items,
            decisions={"items": items},
            log_probs=log_probs[:, None],
            mask=np.ones((len(items), 1)),
        )

    @shape_spec("(B, E), (R, E), _ -> (B, max_decisions)")
    def step_log_probs(self, dnn_out: Tensor, features: Tensor,
                       decisions: Dict[str, np.ndarray]) -> Tensor:
        items = decisions["items"]
        logits = dnn_out @ features[:self.num_items].T
        log_probs = F.log_softmax(logits, axis=1)
        picked = log_probs[np.arange(len(items)), items]
        return picked.reshape(len(items), 1)

    def item_distribution(self, dnn_out: np.ndarray,
                          features: np.ndarray) -> np.ndarray:
        logits = dnn_out @ features[:self.num_items].T
        return np.exp(_log_softmax_np(logits))


class BPlainActionSpace(ActionSpace):
    """Priori knowledge only: choose the set, then the item within it."""

    name = "bplain"
    num_extra_rows = 2  # one feature row per set node (I_t, I)
    max_decisions = 2

    def __init__(self, num_original_items: int,
                 target_items: np.ndarray) -> None:
        super().__init__(num_original_items, target_items)
        self.target_row = self.num_items       # set-node feature rows
        self.original_row = self.num_items + 1

    # ------------------------------------------------------------------
    def sample_step(self, dnn_out: np.ndarray, features: np.ndarray,
                    rng: np.random.Generator) -> StepSample:
        batch = len(dnn_out)
        # One product with both set rows, as step_log_probs computes it:
        # two matrix-vector products can round differently.
        set_logits = dnn_out @ features[self.target_row:self.original_row + 1].T
        sides = _gumbel_argmax(rng, set_logits)  # 0 = targets, 1 = originals
        side_lp = _log_softmax_np(set_logits)[np.arange(batch), sides]

        target_logits = dnn_out @ features[self.target_items].T
        original_logits = dnn_out @ features[:self.num_original_items].T
        target_pick = _gumbel_argmax(rng, target_logits)
        original_pick = _gumbel_argmax(rng, original_logits)
        target_lp = _log_softmax_np(target_logits)[np.arange(batch),
                                                   target_pick]
        original_lp = _log_softmax_np(original_logits)[np.arange(batch),
                                                       original_pick]
        items = np.where(sides == 0, self.target_items[target_pick],
                         original_pick)
        item_lp = np.where(sides == 0, target_lp, original_lp)
        return StepSample(
            items=items,
            decisions={"sides": sides, "items": items},
            log_probs=np.stack([side_lp, item_lp], axis=1),
            mask=np.ones((batch, 2)),
        )

    @shape_spec("(B, E), (R, E), _ -> (B, max_decisions)")
    def step_log_probs(self, dnn_out: Tensor, features: Tensor,
                       decisions: Dict[str, np.ndarray]) -> Tensor:
        sides = decisions["sides"]
        items = decisions["items"]
        batch = len(sides)
        rows = np.arange(batch)

        # The set rows, the target rows and the original rows are each
        # one contiguous block of the table: slices, not gathers.
        set_feats = features[self.target_row:self.original_row + 1]
        set_logits = dnn_out @ set_feats.T
        side_lp = F.log_softmax(set_logits, axis=1)[rows, sides]

        target_logits = dnn_out @ features[
            self.num_original_items:self.num_items].T
        original_logits = dnn_out @ features[:self.num_original_items].T
        # Positions within each set (clipped so gathers stay in-bounds for
        # rows belonging to the other set; the mask zeroes those out).
        target_pos = np.clip(items - self.num_original_items, 0,
                             len(self.target_items) - 1)
        original_pos = np.clip(items, 0, self.num_original_items - 1)
        target_lp = F.log_softmax(target_logits, axis=1)[rows, target_pos]
        original_lp = F.log_softmax(original_logits, axis=1)[rows,
                                                             original_pos]
        is_target = Tensor((sides == 0).astype(float))
        item_lp = target_lp * is_target + original_lp * (1.0 - is_target)
        return stack([side_lp, item_lp], axis=1)

    def item_distribution(self, dnn_out: np.ndarray,
                          features: np.ndarray) -> np.ndarray:
        set_logits = np.stack([dnn_out @ features[self.target_row],
                               dnn_out @ features[self.original_row]],
                              axis=1)
        set_probs = np.exp(_log_softmax_np(set_logits))
        target_probs = np.exp(_log_softmax_np(
            dnn_out @ features[self.target_items].T))
        original_probs = np.exp(_log_softmax_np(
            dnn_out @ features[:self.num_original_items].T))
        distribution = np.empty((len(dnn_out), self.num_items))
        distribution[:, :self.num_original_items] = (
            set_probs[:, 1:2] * original_probs)
        distribution[:, self.num_original_items:] = (
            set_probs[:, 0:1] * target_probs)
        return distribution


class TreeActionSpace(ActionSpace):
    """BCBT sampling (Algorithm 2) with per-level PPO updates (Equation 9)."""

    def __init__(self, num_original_items: int, target_items: np.ndarray,
                 tree: TreeArrays, name: str = "bcbt-popular") -> None:
        super().__init__(num_original_items, target_items)
        if tree.num_items != self.num_items:
            raise ValueError("tree was built over a different item universe")
        self.tree = tree
        self.name = name
        self.num_extra_rows = tree.num_internal
        self.max_decisions = tree.max_depth()

    # ------------------------------------------------------------------
    def sample_step(self, dnn_out: np.ndarray, features: np.ndarray,
                    rng: np.random.Generator) -> StepSample:
        batch = len(dnn_out)
        depth = self.max_decisions
        parents = np.zeros((batch, depth), dtype=np.int64)
        sides = np.zeros((batch, depth), dtype=np.int64)
        mask = np.zeros((batch, depth))
        log_probs = np.zeros((batch, depth))

        position = np.full(batch, self.tree.root, dtype=np.int64)
        for level in range(depth):
            active = position >= self.num_items
            if not active.any():
                break
            idx = np.flatnonzero(active)
            node = position[idx]
            left, right = self.tree.children(node)
            score_left = (dnn_out[idx] * features[left]).sum(axis=1)
            score_right = (dnn_out[idx] * features[right]).sum(axis=1)
            logits = np.stack([score_left, score_right], axis=1)
            choice = _gumbel_argmax(rng, logits)
            lp = _log_softmax_np(logits)[np.arange(len(idx)), choice]
            parents[idx, level] = node
            sides[idx, level] = choice
            mask[idx, level] = 1.0
            log_probs[idx, level] = lp
            position[idx] = np.where(choice == 0, left, right)
        if (position >= self.num_items).any():
            raise ValueError("tree walk exceeded max depth")
        return StepSample(items=position,
                          decisions={"parents": parents, "sides": sides},
                          log_probs=log_probs, mask=mask)

    def choice_groups(self, parents: np.ndarray) -> F.ChoiceGroups:
        """The recorded ``(batch, depth)`` walks' decisions, grouped by parent.

        Padded levels point at the root so gathers stay in-bounds; the op
        fills them from level 0, and the PPO mask zeroes their upstream
        gradient.
        """
        safe = np.where(parents >= self.num_items, parents, self.tree.root)
        return F.ChoiceGroups(safe, *self.tree.children(safe))

    def prepare(self, decisions: Dict[str, np.ndarray]) -> Dict[str, object]:
        parents = decisions["parents"]
        groups = tuple(self.choice_groups(parents[:, t])
                       for t in range(parents.shape[1]))
        return {**decisions, "groups": groups}

    @shape_spec("(B, E), (R, E), _ -> (B, max_decisions)")
    def step_log_probs(self, dnn_out: Tensor, features: Tensor,
                       decisions: Dict[str, np.ndarray]) -> Tensor:
        groups = decisions.get("groups")
        if groups is None:
            groups = self.choice_groups(decisions["parents"])
        return F.binary_choice_log_probs(dnn_out, features, groups,
                                         decisions["sides"])

    def item_distribution(self, dnn_out: np.ndarray,
                          features: np.ndarray) -> np.ndarray:
        """Exact leaf distribution by pushing probability down the tree.

        Internal-node ids are constructed children-before-parents, so a
        single high-to-low sweep over internal indices propagates every
        node's mass to its children in one pass.
        """
        batch = len(dnn_out)
        num_nodes = self.num_items + self.tree.num_internal
        node_prob = np.zeros((batch, num_nodes))
        node_prob[:, self.tree.root] = 1.0
        for internal in range(self.tree.num_internal - 1, -1, -1):
            node = self.num_items + internal
            mass = node_prob[:, node]
            if not mass.any():
                continue
            left = int(self.tree.left_child[internal])
            right = int(self.tree.right_child[internal])
            score_left = dnn_out @ features[left]
            score_right = dnn_out @ features[right]
            logits = np.stack([score_left, score_right], axis=1)
            branch = np.exp(_log_softmax_np(logits))
            node_prob[:, left] += mass * branch[:, 0]
            node_prob[:, right] += mass * branch[:, 1]
        return node_prob[:, :self.num_items]


ACTION_SPACE_KINDS = ("plain", "bplain", "bcbt-popular", "bcbt-random")


def make_action_space(kind: str, num_original_items: int,
                      target_items: np.ndarray, popularity: np.ndarray,
                      seed: int = 0) -> ActionSpace:
    """Factory over the four designs compared in Section IV-B."""
    if kind == "plain":
        return PlainActionSpace(num_original_items, target_items)
    if kind == "bplain":
        return BPlainActionSpace(num_original_items, target_items)
    if kind in ("bcbt-popular", "bcbt-random"):
        assignment = "popular" if kind == "bcbt-popular" else "random"
        tree = build_bcbt(num_original_items, target_items, popularity,
                          assignment=assignment,
                          rng=np.random.default_rng(seed))
        return TreeActionSpace(num_original_items, target_items, tree,
                               name=kind)
    raise ValueError(
        f"unknown action space {kind!r}; expected one of {ACTION_SPACE_KINDS}")
