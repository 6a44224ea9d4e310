"""Ranker interface shared by all eight recommendation algorithms.

A :class:`Ranker` scores candidate items for a user.  The recommender
*system* (``repro.recsys.system``) owns candidate generation, top-k
selection and the poison/retrain loop; rankers only implement ``fit`` /
``score`` plus snapshot/restore so the system can implement the paper's
"Reload the Ranker R, update R with D^p" poisoning step cheaply.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Iterator, Optional

import numpy as np

from ..data.interactions import InteractionLog
from ..effects import mutates, pure, sanctioned_channel
from ..nn.spec import shape_spec
from .snapshots import RankerSnapshot, thaw_into


class Ranker(abc.ABC):
    """Abstract ranker over a fixed user/item universe.

    Parameters
    ----------
    num_users:
        Size of the user universe, including the attacker accounts that
        will be appended by the recommender system.
    num_items:
        Size of the item universe, including the target items.
    seed:
        Seed for any internal randomness (initialization, negative
        sampling); identical seeds yield identical models.
    """

    #: Registry key, e.g. ``"bpr"``.
    name: ClassVar[str] = "base"

    #: Rankers whose ``poison_update`` is a pure additive delta can set
    #: this and implement :meth:`poison_revert`, letting the recommender
    #: system undo a poison injection in O(|poison|) instead of restoring
    #: the full clean snapshot (see ``docs/performance.md``).
    supports_incremental_revert: ClassVar[bool] = False

    def __init__(self, num_users: int, num_items: int, seed: int = 0) -> None:
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = num_users
        self.num_items = num_items
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def fit(self, log: InteractionLog) -> None:
        """Train from scratch on ``log``."""

    @mutates("*")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        """Update an already-fit model after poison injection.

        ``log`` is the merged (clean + poison) log; ``poison`` contains only
        the injected fake behaviors.  The default simply refits on the
        merged log — parametric rankers override this with a cheap
        fine-tuning pass, mirroring an online system's incremental retrain.
        """
        self.fit(log)

    @mutates("*")
    @sanctioned_channel
    def poison_revert(self, poison: InteractionLog) -> None:
        """Exactly undo the most recent ``poison_update``.

        Only meaningful when :attr:`supports_incremental_revert` is True
        and ``poison`` is the same log the update was applied with; the
        result must be *bit-identical* to restoring the pre-poison
        snapshot (asserted by ``verify_incremental`` mode and the perf
        test-suite).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental revert")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @pure
    @shape_spec("_, (C,) -> (C,)")
    @abc.abstractmethod
    def score(self, user: int, item_ids: np.ndarray) -> np.ndarray:
        """Preference scores for ``user`` over ``item_ids`` (higher=better)."""

    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        """Scores for many users at once.

        ``candidates`` is ``(num_users, candidate_size)``; the default
        implementation loops, subclasses vectorize where it pays off.
        """
        return np.stack([self.score(int(u), candidates[i])
                         for i, u in enumerate(users)])

    # ------------------------------------------------------------------
    # State management (for the reload-and-poison loop)
    # ------------------------------------------------------------------
    @pure
    def snapshot(self) -> RankerSnapshot:
        """Capture the trained state; restorable via :meth:`restore`.

        The returned :class:`~repro.recsys.snapshots.RankerSnapshot`
        holds read-only array copies plus the ranker's RNG stream, so a
        restored ranker replays ``poison_update`` identically no matter
        how many queries ran in between — the property the parallel
        query engine's equivalence guarantee is built on.
        """
        return RankerSnapshot.capture(self)

    @mutates("*")
    @sanctioned_channel
    def restore(self, snapshot: RankerSnapshot) -> None:
        """Restore a snapshot captured by :meth:`snapshot`.

        Copy-on-write: frozen arrays are copied in place into the live
        buffers (no allocation), and the RNG stream is rewound.
        """
        self._set_state(thaw_into(snapshot.state, self._state()))
        self.rng.bit_generator.state = snapshot.rng_state

    def _state(self) -> Any:
        raise NotImplementedError(
            f"{type(self).__name__} must implement _state/_set_state")

    def _set_state(self, state: Any) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must implement _state/_set_state")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def item_embeddings(self) -> Optional[np.ndarray]:
        """Learned item representations, if the model has any.

        Used for the Figure 6 t-SNE visualization.  Non-embedding models
        (ItemPop, CoVisitation) return ``None``; the paper substitutes
        PMF's embeddings for them.
        """
        return None

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(users={self.num_users}, "
                f"items={self.num_items})")


def batch_slices(total: int, chunk: int) -> Iterator[slice]:
    """Row slices covering ``range(total)`` in ``chunk``-sized blocks.

    The memory governor for batched scoring: every vectorized
    ``score_batch`` processes its users through these slices so peak
    intermediate size is bounded by the chunk, not the eval-user count.
    Row-wise operations are chunk-invariant, so chunked and unchunked
    passes produce bit-identical results.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    for start in range(0, total, chunk):
        yield slice(start, min(start + chunk, total))


def gemm_pad(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Duplicate a lone batch row so BLAS dispatches its GEMM kernel.

    OpenBLAS routes single-row matmuls to GEMV, whose reduction order
    differs from GEMM's by ~1 ulp; for two or more rows, GEMM's per-row
    outputs are independent of the batch size.  The neural scorers pad
    1-row blocks to 2 (and drop the duplicate) so ``score_batch`` is
    bit-identical to stacked ``score`` calls at every block size.
    """
    if rows.shape[0] == 1:
        return np.concatenate([rows, rows], axis=0), 1
    return rows, rows.shape[0]


def sample_negatives(rng: np.random.Generator, positives: np.ndarray,
                     num_items: int, count: int) -> np.ndarray:
    """Draw ``count`` uniform item ids, re-rolling once those in ``positives``.

    Every draw that equals any item in ``positives`` (of any shape) is
    replaced by one fresh uniform draw, and the re-roll is not checked,
    so the result can still hold positives.  Membership is one
    vectorized ``np.isin``; the two ``rng.integers`` calls are the
    function's whole use of ``rng``.

    ``positives`` is a pool of items, not the owning user's clicks.
    BPR and NGCF pass the minibatch's positive items.  PMF and NeuMF
    pass every item of the log they train on, so on a large log nearly
    every draw is re-rolled: 99% of uniform draws hit one on
    perfbench's 10^4-user ``retrain-10k`` log.  The result is then
    close to two uniform draws, not "an item this user has not
    clicked".  The evaluator's per-user ``sample_eval_negatives`` is
    the sampler meant to replace it.
    """
    negatives = rng.integers(0, num_items, size=count)
    mask = np.isin(negatives, positives)
    if mask.any():
        negatives[mask] = rng.integers(0, num_items, size=int(mask.sum()))
    return negatives
