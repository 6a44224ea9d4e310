"""CoVisitation: item-based CF over consecutive clicks (Yang et al., NDSS'17).

Consecutive behaviors ``(a, b)`` in any user's sequence add a co-visitation
edge in both directions.  A candidate item's score for a user aggregates
the co-visitation counts between the candidate and the user's history,
normalized by each history item's total co-visits (the "co-visitation
rate").  This is the system ConsLOP is purpose-built to attack.

The clean graph is a sparse item-by-item count matrix built once by
``fit``; a poison's consecutive click pairs live beside it as a delta
array, so a poison update appends to the delta and a revert drops it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..data.interactions import InteractionLog
from ..data.sparse import as_sparse
from ..effects import mutates, pure, sanctioned_channel
from ..nn.spec import shape_spec
from .base import Ranker, batch_slices

#: Users per block in the batched scorer; bounds the (history x
#: candidate) query matrix to a few tens of MB per block.
_SCORE_BLOCK_USERS = 2048


def _edges(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Click pairs as ``(2, E)`` edge endpoints: both ways, no self-loops."""
    keep = prev != nxt
    prev, nxt = prev[keep], nxt[keep]
    return np.stack([np.concatenate([prev, nxt]),
                     np.concatenate([nxt, prev])])


class CoVisitation(Ranker):
    """Co-visitation graph recommender."""

    name = "covisitation"
    supports_incremental_revert = True

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 history_window: int = 20) -> None:
        super().__init__(num_users, num_items, seed)
        self.history_window = history_window
        self.fit(InteractionLog(num_items))

    # ------------------------------------------------------------------
    @mutates("_fit_view", "_graph", "out_degree", "_delta")
    def fit(self, log: InteractionLog) -> None:
        # Scoring reads histories from the fit log's CSR view.
        self._fit_view = as_sparse(log)
        src, dst = _edges(*self._fit_view.consecutive_pairs())
        # Duplicate (src, dst) entries sum into float64 counts.
        self._graph = sp.csr_matrix(
            (np.ones(src.size), (src, dst)),
            shape=(self.num_items, self.num_items))
        self.out_degree = np.bincount(
            src, minlength=self.num_items).astype(np.float64)
        # The poisons' ``(prev, next)`` click pairs, self-transitions
        # included; scoring turns them into edges as ``fit`` does.
        self._delta = np.empty((2, 0), dtype=np.int64)

    @mutates("_delta")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        # Edges are additive; only the poison sequences add new ones.
        self._delta = np.concatenate(
            [self._delta, self._poison_pairs(poison)], axis=1)

    @mutates("_delta")
    @sanctioned_channel
    def poison_revert(self, poison: InteractionLog) -> None:
        """Exactly undo :meth:`poison_update` for the same ``poison`` log.

        The update appended ``poison``'s click pairs to the delta and
        wrote nothing else, so dropping them restores the state before.
        """
        kept = self._delta.shape[1] - self._poison_pairs(poison).shape[1]
        self._delta = self._delta[:, :kept]

    def _poison_pairs(self, poison: InteractionLog) -> np.ndarray:
        """``poison``'s consecutive click pairs, as a ``(2, P)`` array.

        A user of the fit log continues its clean history: its first
        poison click pairs with its last clean one.
        """
        view = as_sparse(poison)
        prev, nxt = view.consecutive_pairs()
        starts, stops = self._fit_view.row_bounds(view.users)
        linked = (stops > starts) & (view.lengths > 0)
        return np.stack([
            np.concatenate([self._fit_view.item_ids[stops[linked] - 1], prev]),
            np.concatenate([view.item_ids[view.user_ptr[:-1][linked]], nxt])])

    # ------------------------------------------------------------------
    @pure
    @shape_spec("_, (C,) -> (C,)")
    def score(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        item_ids = np.asarray(item_ids, dtype=np.int64)
        return self.score_batch(np.asarray([user]), item_ids[None, :])[0]

    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        """All users x candidates in one gather-reduce pass per block.

        A candidate's score sums, over the user's last
        ``history_window`` clicks in order, the co-visit weight between
        click and candidate over the click's degree (at least 1).  Each
        block realizes its history items' adjacency rows as a dense
        weight table (a chunk of items at a time) and resolves every
        (history item, candidate) pair with one fancy gather.  Weights
        and degrees are integer-valued float64 counts, so the clean
        graph plus the delta sums exactly in any order; the quotients
        accumulate in history order with the unbuffered ``np.add.at``,
        and when a row repeats a candidate only its last occurrence
        scores.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        scores = np.zeros(candidates.shape, dtype=np.float64)
        for block in batch_slices(len(candidates), _SCORE_BLOCK_USERS):
            self._score_block(users[block], candidates[block], scores[block])
        return scores

    def _score_block(self, users: np.ndarray, candidates: np.ndarray,
                     out: np.ndarray) -> None:
        """Accumulate one user block's scores into ``out`` (a view)."""
        lengths, history = self._fit_view.rows_of(users,
                                                   last=self.history_window)
        total = history.size
        if total == 0:
            return
        rows = np.repeat(np.arange(len(users)), lengths)
        num_candidates = candidates.shape[1]
        src, dst = _edges(*self._delta)

        # Per-occurrence contributions in flat (occurrence, candidate)
        # order: realize a chunk of distinct history items as dense
        # weight rows (clean rows plus the delta's edges), then gather
        # each occurrence's candidate weights.
        uniq, uniq_index = np.unique(history, return_inverse=True)
        occ_order = np.argsort(uniq_index, kind="stable")
        sorted_uniq_index = uniq_index[occ_order]
        chunk = max(1, (1 << 21) // max(self.num_items, 1))
        contrib = np.zeros((total, num_candidates), dtype=np.float64)
        for base in range(0, len(uniq), chunk):
            items = uniq[base:base + chunk]
            table = self._graph[items].toarray()
            slot = np.minimum(np.searchsorted(items, src), len(items) - 1)
            hit = items[slot] == src
            np.add.at(table, (slot[hit], dst[hit]), 1.0)
            lo, hi = np.searchsorted(sorted_uniq_index,
                                     (base, base + len(items)))
            occ = occ_order[lo:hi]
            contrib[occ] = table[(uniq_index[occ] - base)[:, None],
                                 candidates[rows[occ]]]

        flat = contrib.ravel()
        idx = np.flatnonzero(flat)
        if idx.size == 0:
            return
        # Everything below runs on the (sparse) hits only — co-visit
        # weights are positive counts, so nonzero gathers are exactly
        # the (history item, candidate) adjacency hits.
        hit_rows = rows[idx // num_candidates]
        hit_cols = idx % num_candidates
        # Only a row's last occurrence of a candidate value scores.
        # Mark it (stable sort keeps columns ascending within each
        # (row, value) group).
        position_keys = (np.arange(len(users))[:, None]
                         * np.int64(self.num_items) + candidates).ravel()
        order = np.argsort(position_keys, kind="stable")
        group_end = np.ones(order.size, dtype=bool)
        sorted_keys = position_keys[order]
        group_end[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        last_mask = np.zeros(order.size, dtype=bool)
        last_mask[order[group_end]] = True
        last_mask = last_mask.reshape(len(users), num_candidates)
        keep = last_mask[hit_rows, hit_cols]
        idx = idx[keep]
        if idx.size == 0:
            return
        degree = self.out_degree + np.bincount(src, minlength=self.num_items)
        degrees = np.maximum(degree[history[idx // num_candidates]], 1.0)
        contributions = flat[idx] / degrees
        np.add.at(out, (hit_rows[keep], hit_cols[keep]), contributions)

    def _state(self) -> np.ndarray:
        return self._delta

    @sanctioned_channel
    def _set_state(self, state: np.ndarray) -> None:
        self._delta = state
