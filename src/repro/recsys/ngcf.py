"""NGCF: neural graph collaborative filtering (Wang et al., SIGIR 2019).

Embeddings for users and items are propagated over the normalized
user-item bipartite graph.  Each layer computes

    E(l+1) = LeakyReLU( (A_hat + I) E(l) W1 + (A_hat E(l)) * E(l) W2 )

with A_hat = D^-1/2 A D^-1/2, and the final representation concatenates
all layers.  Trained with the BPR pairwise loss.  The adjacency stays
sparse (scipy CSR) via the autograd ``spmm`` op.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from ..data.interactions import InteractionLog
from ..effects import mutates, pure, sanctioned_channel
from ..nn import Adam, Module, Tensor, concatenate, shape_spec
from ..nn import functional as F
from ..nn.init import xavier_uniform
from .base import Ranker, sample_negatives


class _NGCFNet(Module):
    def __init__(self, num_nodes: int, dim: int, num_layers: int,
                 rng: np.random.Generator) -> None:
        self.embedding = Tensor(rng.normal(0, 0.05, (num_nodes, dim)),
                                requires_grad=True, name="ngcf.embedding")
        self.w1 = [Tensor(xavier_uniform(rng, dim, dim), requires_grad=True,
                          name=f"ngcf.w1.{layer}")
                   for layer in range(num_layers)]
        self.w2 = [Tensor(xavier_uniform(rng, dim, dim), requires_grad=True,
                          name=f"ngcf.w2.{layer}")
                   for layer in range(num_layers)]
        self.num_layers = num_layers

    @shape_spec("_ -> (N, F)")
    def propagate(self, adjacency: sp.csr_matrix) -> Tensor:
        """All-layer concatenated node representations."""
        layers = [self.embedding]
        current = self.embedding
        for w1, w2 in zip(self.w1, self.w2):
            neighbor = F.spmm(adjacency, current)
            message = (neighbor + current) @ w1 + (neighbor * current) @ w2
            current = F.leaky_relu(message)
            layers.append(current)
        return concatenate(layers, axis=1)


class NGCF(Ranker):
    """Graph collaborative filtering ranker."""

    name = "ngcf"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 dim: int = 16, num_layers: int = 2, lr: float = 0.01,
                 reg: float = 1e-4, epochs: int = 6, update_epochs: int = 3,
                 batches_per_epoch: int = 4, batch_size: int = 1024) -> None:
        super().__init__(num_users, num_items, seed)
        self.dim = dim
        self.num_layers = num_layers
        self.lr = lr
        self.reg = reg
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.batches_per_epoch = batches_per_epoch
        self.batch_size = batch_size
        self._build()
        self._adjacency = sp.csr_matrix(
            (num_users + num_items, num_users + num_items))
        # ``_final`` is maintained eagerly (here, after every ``_train``
        # and by snapshot restore) so the score path never writes state —
        # a lazily cached representation would make ``score`` impure and
        # break the @pure contract effectcheck verifies.
        self._refresh_final()

    def _build(self) -> None:
        self.net = _NGCFNet(self.num_users + self.num_items, self.dim,
                            self.num_layers, self.rng)
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)

    # ------------------------------------------------------------------
    def _build_adjacency(self, log: InteractionLog) -> sp.csr_matrix:
        pairs = log.pairs()
        n = self.num_users + self.num_items
        if len(pairs) == 0:
            return sp.csr_matrix((n, n))
        rows = pairs[:, 0]
        cols = pairs[:, 1] + self.num_users
        data = np.ones(len(pairs))
        adjacency = sp.coo_matrix(
            (np.concatenate([data, data]),
             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(n, n)).tocsr()
        adjacency.sum_duplicates()
        degree = np.asarray(adjacency.sum(axis=1)).ravel()
        inv_sqrt = np.divide(1.0, np.sqrt(degree),
                             out=np.zeros_like(degree), where=degree > 0)
        norm = sp.diags(inv_sqrt)
        return (norm @ adjacency @ norm).tocsr()

    def _train(self, pairs: np.ndarray, epochs: int) -> None:
        if len(pairs) == 0:
            self._refresh_final()
            return
        for _ in range(epochs):
            for _ in range(self.batches_per_epoch):
                idx = self.rng.integers(0, len(pairs),
                                        size=min(self.batch_size, len(pairs)))
                users = pairs[idx, 0]
                positives = pairs[idx, 1]
                negatives = sample_negatives(self.rng, positives,
                                             self.num_items, len(idx))
                self.optimizer.zero_grad()
                final = self.net.propagate(self._adjacency)
                user_repr = final[users]
                pos_repr = final[positives + self.num_users]
                neg_repr = final[negatives + self.num_users]
                x = ((user_repr * (pos_repr - neg_repr)).sum(axis=1))
                loss = -F.logsigmoid(x).mean()
                reg = (user_repr * user_repr).mean() + (
                    pos_repr * pos_repr).mean()
                total = loss + reg * self.reg
                total.backward()
                self.optimizer.step()
        self._refresh_final()

    def _refresh_final(self) -> None:
        self._final = self.net.propagate(self._adjacency).numpy()

    # ------------------------------------------------------------------
    @mutates("rng", "net", "optimizer", "_adjacency", "_final")
    def fit(self, log: InteractionLog) -> None:
        self.rng = np.random.default_rng(self.seed)
        self._build()
        self._adjacency = self._build_adjacency(log)
        self._train(log.pairs(), self.epochs)

    @mutates("rng", "net", "optimizer", "_adjacency", "_final")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        self._adjacency = self._build_adjacency(log)
        p_pairs = poison.pairs()
        c_pairs = log.pairs()
        if len(c_pairs):
            replay = self.rng.choice(
                len(c_pairs),
                size=min(len(c_pairs), 4 * max(len(p_pairs), 64)),
                replace=False)
            pairs = (np.concatenate([p_pairs, c_pairs[replay]])
                     if len(p_pairs) else c_pairs[replay])
        else:
            pairs = p_pairs
        self._train(pairs, self.update_epochs)

    # ------------------------------------------------------------------
    @pure
    @shape_spec("_, (C,) -> (C,)")
    def score(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        # Routed through the batched einsum (not a GEMV) so serial and
        # batched scoring share one reduction order — bit-identical.
        item_ids = np.asarray(item_ids, dtype=np.int64)
        return self.score_batch(np.asarray([user]), item_ids[None, :])[0]

    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        user_repr = self._final[users]
        item_rows = np.asarray(candidates) + self.num_users
        scores = np.empty(candidates.shape)
        # Column-at-a-time gather + reduce: NGCF's concatenated
        # representation is wide (dim x (layers+1)), so the naive
        # (B, C, D) candidate gather blows past cache and loses to the
        # serial loop; one (B, D) slice per candidate column stays
        # cache-resident.  Each output element reduces over D in the
        # same order, so results are block- and batch-size invariant.
        for column in range(item_rows.shape[1]):
            scores[:, column] = np.einsum(
                "nd,nd->n", user_repr, self._final[item_rows[:, column]])
        return scores

    def item_embeddings(self) -> np.ndarray:
        return self._final[self.num_users:].copy()

    def _state(self) -> Any:
        adjacency = self._adjacency
        return {"params": [p.data for p in self.net.parameters()],
                "adjacency": [adjacency.data, adjacency.indices,
                              adjacency.indptr],
                "final": self._final}

    @sanctioned_channel
    def _set_state(self, state: Any) -> None:
        for param, data in zip(self.net.parameters(), state["params"]):
            param.assign_(data, copy=False)
        self._adjacency = sp.csr_matrix(tuple(state["adjacency"]),
                                        shape=self._adjacency.shape)
        self._final = state["final"]
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)
