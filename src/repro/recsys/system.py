"""The recommender system under attack, and its black-box facade.

:class:`RecommenderSystem` wires together a dataset, a ranker, random
candidate generation and top-k selection, and implements the paper's
poisoning protocol: target items are *new* items appended to the catalog,
attackers are *new* user accounts, and every attack reloads the clean
ranker state before applying the poison update (Algorithm 1's
``DataPoisoning``).

:class:`BlackBoxEnvironment` is the attacker-facing surface.  It exposes
exactly the knowledge the paper grants (Section III-A2): the item universe,
the target item ids, crawlable item popularity, and the scalar ``RecNum``
reward after an injection — nothing else.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.interactions import Dataset, InteractionLog
from ..effects import pure
from ..obs.trace import traced
from .base import Ranker, batch_slices
from .candidate import (CandidateGenerator, PopularityCandidateGenerator,
                        RandomCandidateGenerator)

#: Eval users per chunk when scoring recommendations; bounds the per-chunk
#: score matrix while keeping each ranker's batched kernel saturated.
_RECOMMEND_CHUNK_USERS = 8192
from .registry import make_ranker
from .snapshots import SnapshotMismatchError, states_equal


class RecommenderSystem:
    """A candidate-generation + ranker pipeline with a poisoning hook.

    Parameters
    ----------
    dataset:
        Clean training data (items ``[0, dataset.num_items)``).
    ranker:
        A ranker name (see :mod:`repro.recsys.registry`) or an already
        constructed :class:`Ranker` sized for the extended universe.
    num_targets:
        Number of new target items appended to the catalog (paper: 8).
    num_attackers:
        Number of fake accounts available for injection (paper: N=20).
    num_original_candidates / top_k:
        Candidate-set protocol (paper: 92 random originals + targets,
        k=10).
    eval_user_sample:
        Optionally evaluate RecNum over a fixed random subset of users
        instead of all of them (speeds up large runs; None = all users).
    incremental:
        Use a ranker's O(|poison|) ``poison_revert`` delta instead of a
        full snapshot restore where supported (ItemPop, CoVisitation).
        The revert is bit-exact, so results are identical either way;
        disable only to benchmark the full-restore path.
    verify_incremental:
        After every incremental revert, assert the ranker state matches
        the clean snapshot exactly (raises
        :class:`~repro.recsys.snapshots.SnapshotMismatchError` on
        drift).  Debug/test mode: it re-validates the whole state each
        query, erasing the revert's speedup.
    """

    def __init__(self, dataset: Dataset, ranker: str | Ranker,
                 num_targets: int = 8, num_attackers: int = 20,
                 num_original_candidates: int = 92, top_k: int = 10,
                 seed: int = 0, ranker_kwargs: Optional[dict] = None,
                 eval_user_sample: Optional[int] = None,
                 candidate_generator: str | CandidateGenerator = "random",
                 incremental: bool = True,
                 verify_incremental: bool = False) -> None:
        if num_targets <= 0:
            raise ValueError("num_targets must be positive")
        self.dataset = dataset
        self.num_original_items = dataset.num_items
        self.num_targets = num_targets
        self.num_items = self.num_original_items + num_targets
        self.target_items = np.arange(self.num_original_items, self.num_items)
        self.top_k = top_k
        self.seed = seed

        real_users = dataset.train.users
        if not real_users:
            raise ValueError("dataset has no users")
        self._user_slots = max(real_users) + 1
        self.num_attackers = num_attackers
        self.attacker_users = np.arange(self._user_slots,
                                        self._user_slots + num_attackers)
        self.num_users = self._user_slots + num_attackers

        # Clean training log re-homed into the extended item universe.
        self.clean_log = InteractionLog(self.num_items)
        for user, sequence in dataset.train.iter_sequences():
            self.clean_log.add_sequence(user, sequence)

        if isinstance(ranker, str):
            self.ranker = make_ranker(ranker, self.num_users, self.num_items,
                                      seed=seed, **(ranker_kwargs or {}))
        else:
            self.ranker = ranker
        self.ranker.fit(self.clean_log)
        self._clean_state = self.ranker.snapshot()
        # Normalize the post-fit state through one restore so "never
        # poisoned" and "restored after poisoning" are the same state
        # (fresh optimizer moments, snapshot RNG stream).  This is what
        # makes it sound for attack() to skip the restore entirely when
        # the system is already clean.
        self.ranker.restore(self._clean_state)
        # Pre-built merged-log skeleton: poison rows are spliced in and
        # out of this copy each query instead of re-copying the clean log.
        # Its clean CSR view is built on the first query that reads it;
        # each later query's view merges the poison rows into that one.
        self._merged_skeleton = self.clean_log.copy()
        self.incremental = incremental
        self.verify_incremental = verify_incremental
        self._active_poison: Optional[InteractionLog] = None

        # Frozen evaluation protocol: fixed eval users and candidate sets so
        # RecNum differences across attacks reflect the poisoning, not
        # candidate-sampling noise.
        rng = np.random.default_rng(seed + 7919)
        eval_users = np.asarray(real_users, dtype=np.int64)
        if eval_user_sample is not None and eval_user_sample < len(eval_users):
            eval_users = rng.choice(eval_users, size=eval_user_sample,
                                    replace=False)
        self.eval_users = np.sort(eval_users)
        if isinstance(candidate_generator, CandidateGenerator):
            generator = candidate_generator
        elif candidate_generator == "random":
            generator = RandomCandidateGenerator(
                self.num_original_items, self.target_items,
                num_original_candidates=num_original_candidates,
                seed=seed + 104729)
        elif candidate_generator == "popularity":
            generator = PopularityCandidateGenerator(
                self.num_original_items, self.target_items,
                popularity=self.clean_log.item_counts().astype(float),
                num_original_candidates=num_original_candidates,
                seed=seed + 104729)
        else:
            raise ValueError(
                f"unknown candidate generator {candidate_generator!r}; "
                "use 'random', 'popularity', or a CandidateGenerator")
        self.candidate_generator = generator
        self.candidates = generator.generate(len(self.eval_users))
        self._poisoned = False
        self.query_count = 0

    # ------------------------------------------------------------------
    # Recommendation + measurement
    # ------------------------------------------------------------------
    @pure
    def recommend(self) -> np.ndarray:
        """Top-k candidate item ids per evaluation user.

        Scored through the ranker's vectorized ``score_batch`` in
        user chunks: chunking is row-wise, so results are bit-identical
        to one monolithic call while the intermediate score matrix stays
        memory-bounded at 10⁵+ eval users.
        """
        top = np.empty((len(self.eval_users), self.top_k), dtype=np.int64)
        for block in batch_slices(len(self.eval_users),
                                  _RECOMMEND_CHUNK_USERS):
            scores = self.ranker.score_batch(self.eval_users[block],
                                             self.candidates[block])
            picked = np.argpartition(-scores, self.top_k - 1,
                                     axis=1)[:, :self.top_k]
            top[block] = np.take_along_axis(self.candidates[block], picked,
                                            axis=1)
        return top

    @pure
    def recnum(self) -> int:
        """The paper's RecNum: total target-item slots across all top-k lists."""
        recommended = self.recommend()
        return int((recommended >= self.num_original_items).sum())

    @pure
    def target_exposures(self) -> np.ndarray:
        """Per-target exposure counts (RecNum broken down by target item).

        Used to verify the paper's Section IV-D observation that PoisonRec
        can promote several targets simultaneously.
        """
        recommended = self.recommend()
        exposures = np.zeros(self.num_targets, dtype=np.int64)
        hits = recommended[recommended >= self.num_original_items]
        np.add.at(exposures, hits - self.num_original_items, 1)
        return exposures

    # ------------------------------------------------------------------
    # Poisoning
    # ------------------------------------------------------------------
    def build_poison_log(self,
                         trajectories: Sequence[Sequence[int]]
                         ) -> InteractionLog:
        """Map attack trajectories onto attacker accounts.

        Trajectory ``i`` becomes the click sequence of attacker account
        ``i``; item ids must be in the extended universe (targets are
        ``system.target_items``).
        """
        if len(trajectories) > self.num_attackers:
            raise ValueError(
                f"{len(trajectories)} trajectories exceed the "
                f"{self.num_attackers} attacker accounts")
        poison = InteractionLog(self.num_items)
        for i, trajectory in enumerate(trajectories):
            poison.add_sequence(int(self.attacker_users[i]), trajectory)
        return poison

    def reset(self, force: bool = False) -> None:
        """Reload the clean ranker state (pre-poison).

        Already-clean systems return immediately — the restore would be
        a no-op by construction (the post-fit state is normalized through
        one restore in ``__init__``).  When the active poison is known
        and the ranker supports it, the reload is an O(|poison|)
        incremental revert instead of a full snapshot restore; ``force``
        bypasses both shortcuts and always restores the snapshot.
        """
        if not self._poisoned and not force:
            return
        poison = self._active_poison
        if (not force and self.incremental and poison is not None
                and self.ranker.supports_incremental_revert):
            self.ranker.poison_revert(poison)
            if self.verify_incremental:
                self._assert_clean_state()
        else:
            self.ranker.restore(self._clean_state)
        self._poisoned = False
        self._active_poison = None

    def _assert_clean_state(self) -> None:
        """Verify an incremental revert reproduced the clean state exactly."""
        if not states_equal(self.ranker._state(), self._clean_state.state):
            raise SnapshotMismatchError(
                f"incremental poison revert on {self.ranker.name!r} did "
                "not reproduce the clean snapshot — poison_revert is not "
                "the exact inverse of poison_update")

    def inject(self, trajectories: Sequence[Sequence[int]]) -> None:
        """Inject fake behaviors and update the ranker (no reset).

        The merged (clean + poison) log handed to the ranker is the
        pre-built skeleton with the poison rows spliced in for the
        duration of the update — no per-query copy of the clean log.

        If the ranker's retraining raises, the clean snapshot is
        restored before the exception propagates: a failed poison update
        must never leave a half-updated ranker behind, or the next
        measurement would read a state no attack actually produced.
        This is the consistency invariant ``repro.runtime``'s
        retry/backoff loop relies on when it re-issues a failed query.
        """
        with traced("merge"):
            poison = self.build_poison_log(trajectories)
            self._merged_skeleton.splice(poison)
        try:
            with traced("retrain"):
                self.ranker.poison_update(self._merged_skeleton, poison)
        except Exception:
            self.ranker.restore(self._clean_state)
            self._poisoned = False
            self._active_poison = None
            raise
        finally:
            self._merged_skeleton.unsplice(poison)
        # Stacked injections (no reset in between) have no single active
        # poison to revert; the next reset then falls back to the full
        # snapshot restore instead of an (incorrect) incremental revert.
        self._active_poison = None if self._poisoned else poison
        self._poisoned = True

    def attack(self, trajectories: Sequence[Sequence[int]]) -> int:
        """The full poisoning round: reload clean state, inject, measure.

        This is Algorithm 1's ``DataPoisoning`` plus the RecNum readout,
        and the primitive every attack method in this package is built on.
        Each call counts as one black-box query (``query_count``), the
        budget unit for comparing learning-based attacks fairly.

        Because the reload restores the ranker's full state *including
        its RNG stream*, the returned RecNum is a pure function of
        ``trajectories`` — independent of query order — which is the
        exact-equivalence contract :class:`repro.perf.QueryPool` relies
        on to fan queries out across worker processes.

        The restore / merge / retrain / score phases are recorded as
        spans into the caller's :func:`~repro.obs.trace.collect_spans`
        scope, if one is open.
        """
        with traced("restore"):
            self.reset()
        self.inject(trajectories)
        self.query_count += 1
        with traced("score"):
            return self.recnum()

    def __repr__(self) -> str:
        return (f"RecommenderSystem(ranker={self.ranker.name!r}, "
                f"dataset={self.dataset.name!r}, "
                f"items={self.num_original_items}+{self.num_targets}, "
                f"eval_users={len(self.eval_users)})")


class BlackBoxEnvironment:
    """Attacker's view of a :class:`RecommenderSystem`.

    Exposes only the knowledge the paper's threat model allows:

    * the browsable item universe and which items are the attacker's own
      targets,
    * crawlable item popularity (sales volume) of the *clean* system,
    * the scalar RecNum signal after injecting an attack.

    The ranker type, its parameters, other users' logs and per-user
    recommendation lists are all hidden.

    This surface (the attributes above plus ``attack`` /
    ``clean_recnum`` / ``query_count``) is the contract wrappers build
    on — e.g. :class:`repro.runtime.faults.FaultyEnvironment`, which
    decorates it with an injected fault schedule for chaos testing.
    """

    def __init__(self, system: RecommenderSystem) -> None:
        self._system = system
        self.num_original_items = system.num_original_items
        self.num_items = system.num_items
        self.target_items = system.target_items.copy()
        self.num_attackers = system.num_attackers
        self.item_popularity = (
            system.clean_log.item_counts().astype(np.float64))

    def attack(self, trajectories: Sequence[Sequence[int]]) -> int:
        """Inject trajectories into the black box; returns observed RecNum."""
        return self._system.attack(trajectories)

    def clean_recnum(self) -> int:
        """RecNum with no poisoning (the pre-attack baseline exposure)."""
        self._system.reset()
        return self._system.recnum()

    @property
    def query_count(self) -> int:
        """How many poisoning rounds this environment has served."""
        return self._system.query_count
