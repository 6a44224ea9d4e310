"""GRU4Rec: session-based recommendation with RNNs (Hidasi et al., 2015).

A GRU runs over the user's recent click sequence; the final hidden state
scores items by dot product with (tied) item embeddings, trained with a
softmax next-item loss.  This ranker is *order-sensitive* — the paper
highlights it as a system where the click order of the attack trajectory
matters.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..data.interactions import InteractionLog
from ..data.sparse import SparseInteractions, as_sparse
from ..effects import mutates, pure, sanctioned_channel
from ..nn import Adam, Embedding, GRUCell, Module, Tensor, shape_spec
from ..nn import functional as F
from .base import Ranker, batch_slices, gemm_pad

#: Users per chunk in the batched scorer: bounds the (B, C, dim)
#: candidate-embedding gather to ~50 MB at the paper's candidate sizes.
_SCORE_CHUNK_USERS = 4096


class _GRU4RecNet(Module):
    def __init__(self, num_items: int, dim: int,
                 rng: np.random.Generator) -> None:
        # One extra embedding row serves as the left-padding token.
        self.embedding = Embedding(num_items + 1, dim, rng)
        self.cell = GRUCell(dim, dim, rng)
        self.pad_id = num_items

    @shape_spec("(B, W) -> (B, cell.hidden_dim)")
    def encode(self, windows: np.ndarray) -> Tensor:
        """Hidden state after running the GRU over ``(batch, W)`` windows."""
        batch, width = windows.shape
        h = self.cell.initial_state(batch)
        for t in range(width):
            x = self.embedding(windows[:, t])
            h = self.cell(x, h)
        return h

    @shape_spec("(B, cell.hidden_dim) -> (B, N)")
    def all_item_logits(self, hidden: Tensor) -> Tensor:
        # Exclude the padding row from the softmax.
        item_table = self.embedding.weight[
            np.arange(self.embedding.num_embeddings - 1)]
        return hidden @ item_table.T


class GRU4Rec(Ranker):
    """Sequence-aware GRU ranker."""

    name = "gru4rec"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 dim: int = 16, window: int = 5, lr: float = 0.01,
                 epochs: int = 5, update_epochs: int = 8,
                 update_lr: float = 0.02, batch_size: int = 256) -> None:
        super().__init__(num_users, num_items, seed)
        self.dim = dim
        self.window = window
        self.lr = lr
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.update_lr = update_lr
        self.batch_size = batch_size
        self._build()
        #: The fit log's CSR view: the histories scoring and replay read.
        self._fit_view = SparseInteractions.from_log(
            InteractionLog(num_items))

    def _build(self) -> None:
        self.net = _GRU4RecNet(self.num_items, self.dim, self.rng)
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)

    # ------------------------------------------------------------------
    def _windows(self, item_ids: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> np.ndarray:
        """Left-padded fixed-width windows over ``item_ids[starts:ends]``.

        Row ``i`` holds the last ``window`` clicks before position
        ``ends[i]`` that lie at or after ``starts[i]`` (its user's row
        start), right-aligned behind pad ids.
        """
        gather = ends[:, None] + np.arange(-self.window, 0)
        if item_ids.size == 0:
            return np.full(gather.shape, self.net.pad_id, dtype=np.int64)
        safe = np.clip(gather, 0, item_ids.size - 1)
        return np.where(gather >= starts[:, None], item_ids[safe],
                        self.net.pad_id)

    def _training_examples(self, log: InteractionLog) -> tuple:
        """(windows, targets): every prefix of each sequence predicts the
        next click, using a fixed-width left-padded window.

        Built in one vectorized pass over the log's CSR view.  Example
        order is ascending user, then click position, the order of a
        per-sequence loop.
        """
        view = as_sparse(log)
        starts = np.repeat(view.user_ptr[:-1], view.lengths)
        position = np.arange(view.item_ids.size)
        predictable = position > starts
        target_pos = position[predictable]
        return (self._windows(view.item_ids, starts[predictable], target_pos),
                view.item_ids[target_pos])

    def _train(self, windows: np.ndarray, targets: np.ndarray,
               epochs: int) -> None:
        n = len(windows)
        if n == 0:
            return
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                self.optimizer.zero_grad()
                hidden = self.net.encode(windows[idx])
                logits = self.net.all_item_logits(hidden)
                log_probs = F.log_softmax(logits, axis=1)
                picked = log_probs[np.arange(len(idx)), targets[idx]]
                loss = -picked.mean()
                loss.backward()
                self.optimizer.step()

    # ------------------------------------------------------------------
    @mutates("rng", "net", "optimizer", "_fit_view")
    def fit(self, log: InteractionLog) -> None:
        self.rng = np.random.default_rng(self.seed)
        self._build()
        self._fit_view = as_sparse(log)
        self._train(*self._training_examples(self._fit_view),
                    epochs=self.epochs)

    @mutates("rng", "net", "optimizer")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        p_windows, p_targets = self._training_examples(poison)
        # Replay a sample of clean windows (ascending fit-log rows with
        # a next click to predict) so poisoning competes with the
        # organic signal, as in an online incremental retrain.
        view = self._fit_view
        lengths = view.lengths
        rows = np.flatnonzero((lengths >= 2)
                              & ~np.isin(view.users, poison.users))
        if len(rows):
            rows = self.rng.choice(
                rows, size=min(len(rows), 4 * max(poison.num_users, 8)),
                replace=False)
        starts = view.user_ptr[rows]
        ends = starts + np.array(
            [self.rng.integers(1, lengths[row]) for row in rows],
            dtype=np.int64)
        windows = np.concatenate(
            [p_windows, self._windows(view.item_ids, starts, ends)])
        targets = np.concatenate([p_targets, view.item_ids[ends]])
        self.optimizer = Adam(list(self.net.parameters()), lr=self.update_lr)
        self._train(windows, targets, epochs=self.update_epochs)

    # ------------------------------------------------------------------
    @pure
    @shape_spec("_, (C,) -> (C,)")
    def score(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        return self.score_batch(np.array([user]),
                                np.asarray(item_ids)[None, :])[0]

    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        """Encode all user windows and einsum against candidate rows.

        Chunked over users so the ``(B, C, dim)`` candidate-embedding
        gather stays memory-bounded at 10⁵+ eval users; chunking is
        row-wise and therefore bit-invariant.
        """
        candidates = np.asarray(candidates)
        table = self.net.embedding.weight.numpy()
        scores = np.empty(candidates.shape)
        view = self._fit_view
        for block in batch_slices(len(candidates), _SCORE_CHUNK_USERS):
            starts, stops = view.row_bounds(users[block])
            padded, n = gemm_pad(self._windows(view.item_ids, starts, stops))
            hidden = self.net.encode(padded).numpy()[:n]
            scores[block] = np.einsum("nd,ncd->nc", hidden,
                                      table[candidates[block]])
        return scores

    def item_embeddings(self) -> np.ndarray:
        return self.net.embedding.weight.numpy()[:self.num_items].copy()

    def _state(self) -> Any:
        return [p.data for p in self.net.parameters()]

    @sanctioned_channel
    def _set_state(self, state: Any) -> None:
        for param, data in zip(self.net.parameters(), state):
            param.assign_(data, copy=False)
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)
