"""Core data structures for implicit-feedback interaction logs.

The recommender systems in this reproduction consume an
:class:`InteractionLog`: an ordered sequence of item clicks per user.
Ordering matters — CoVisitation and GRU4Rec exploit consecutive behaviors,
exactly as in the paper's sequential datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..effects import mutates, pure, sanctioned_channel
from .sparse import sparse_view


class InteractionLog:
    """Ordered per-user click sequences over a fixed item universe.

    Parameters
    ----------
    num_items:
        Size of the item universe.  Items are integer ids in
        ``[0, num_items)``; this includes any appended target items.

    Bulk reads (``pairs``, ``item_counts``) are served from a cached
    CSR view (see :mod:`repro.data.sparse`), keyed by the content token
    ``_version``.  Every mutator gives the log a token it never had, so
    no two contents of a log share a token and the cache can never go
    stale.
    """

    def __init__(self, num_items: int) -> None:
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        self.num_items = num_items
        self._sequences: Dict[int, List[int]] = {}
        #: Content token, the sparse-view cache key.
        self._version = 0
        #: The last token handed out; it only grows, so none is reused.
        self._clock = 0
        #: ``(donor, token before, token after)`` of the latest splice
        #: while it is attached, from which the spliced view is built.
        self._splice: Optional[Tuple["InteractionLog", int, int]] = None
        #: Every attached donor: their users' lists are shared, so adds
        #: to those users are refused until the donor is unspliced.
        self._donors: List["InteractionLog"] = []
        #: How many hosts this log is spliced into: while any, it refuses
        #: adds, since the hosts share its lists.
        self._hosts = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @mutates("_version", "_clock")
    def _touch(self) -> None:
        """Give the log a token it never had: its contents are new."""
        self._clock += 1
        self._version = self._clock

    @mutates("_sequences", "_version", "_clock")
    def add(self, user: int, item: int) -> None:
        """Append a single click to ``user``'s sequence."""
        self.add_sequence(user, (item,))

    @mutates("_sequences", "_version", "_clock")
    def add_sequence(self, user: int, items: Sequence[int]) -> None:
        """Append an entire click sequence for ``user``.

        All or nothing: every item is checked before the first click
        lands, and an empty sequence adds nothing, not even an empty
        entry for ``user``.  A user grafted in by an attached
        :meth:`splice` is refused: its list belongs to the donor log,
        whose contents and cached view would change under its token.
        So is any add to a log while it is spliced into another: the
        host shares its lists.
        """
        items = list(items)
        if not items:
            return
        if self._hosts:
            raise ValueError(
                "this log is spliced into another log; unsplice it "
                "before adding to it")
        if any(user in donor._sequences for donor in self._donors):
            raise ValueError(
                f"user {user} was grafted in by an attached splice; "
                "unsplice the donor log before adding to it")
        if not (0 <= min(items) and max(items) < self.num_items):
            bad = next(item for item in items
                       if not 0 <= item < self.num_items)
            raise ValueError(
                f"item {bad} outside universe [0, {self.num_items})")
        self._sequences.setdefault(user, []).extend(items)
        self._touch()

    def copy(self) -> "InteractionLog":
        """Deep copy of the log (independent sequences)."""
        clone = InteractionLog(self.num_items)
        clone._sequences = {u: list(seq) for u, seq in self._sequences.items()}
        return clone

    @mutates("_sequences", "_version", "_clock", "_splice", "_donors",
             "other._hosts")
    @sanctioned_channel
    def splice(self, other: "InteractionLog") -> None:
        """Graft ``other``'s sequences into this log without copying.

        The zero-copy complement of :meth:`merged_with` for the poison
        hot path: sequence *references* are shared, so splicing costs one
        dict insert per user instead of re-copying the whole log.  The
        users must be disjoint from this log's (poison rows belong to
        fresh attacker accounts), and neither log may be mutated while
        the splice is active (adds to the grafted users, and any add to
        ``other``, raise); call :meth:`unsplice` to detach.

        The splice is recorded, so the CSR view of the spliced log is
        built from the pre-splice view and ``other``'s view with array
        operations instead of a walk over every sequence.
        """
        if other.num_items != self.num_items:
            raise ValueError("cannot splice logs over different "
                             "item universes")
        overlap = self._sequences.keys() & other._sequences.keys()
        if overlap:
            raise ValueError(
                f"splice requires disjoint users; {len(overlap)} user(s) "
                "appear in both logs")
        for user, sequence in other._sequences.items():
            self._sequences[user] = sequence
        before = self._version
        self._touch()
        self._splice = (other, before, self._version)
        self._donors.append(other)
        other._hosts += 1

    @mutates("_sequences", "_version", "_clock", "_splice", "_donors",
             "other._hosts")
    @sanctioned_channel
    def unsplice(self, other: "InteractionLog") -> None:
        """Detach sequences previously grafted by :meth:`splice`.

        When that splice was the last mutation, the contents are the
        pre-splice ones again, and so is the token: the pre-splice view
        is served again without a rebuild.  Otherwise the token is new.
        """
        for user in other._sequences:
            self._sequences.pop(user, None)
        kept = [donor for donor in self._donors if donor is not other]
        other._hosts -= len(self._donors) - len(kept)
        self._donors = kept
        splice, self._splice = self._splice, None
        if (splice is not None and splice[0] is other
                and splice[2] == self._version):
            self._version = splice[1]
        else:
            self._touch()

    def merged_with(self, other: "InteractionLog") -> "InteractionLog":
        """Return a new log combining both logs' sequences.

        Shared user ids have the other log's clicks appended after this
        log's clicks (injection order), matching how poison data lands in a
        live system's history log.
        """
        if other.num_items != self.num_items:
            raise ValueError("cannot merge logs over different item universes")
        merged = self.copy()
        for user, seq in other._sequences.items():
            merged.add_sequence(user, seq)
        return merged

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def users(self) -> List[int]:
        return sorted(self._sequences)

    @property
    def num_users(self) -> int:
        return len(self._sequences)

    @property
    def num_interactions(self) -> int:
        return sum(len(seq) for seq in self._sequences.values())

    def sequence(self, user: int) -> List[int]:
        """The click sequence of ``user`` (empty list if unknown)."""
        return list(self._sequences.get(user, ()))

    def __contains__(self, user: int) -> bool:
        return user in self._sequences

    def iter_sequences(self) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(user, sequence)`` pairs in ascending user order."""
        for user in self.users:
            yield user, self._sequences[user]

    @pure
    def pairs(self) -> np.ndarray:
        """All (user, item) pairs as an ``(n, 2)`` int array (user-sorted).

        Served from the cached CSR view: one ``np.repeat`` + column
        stack instead of a Python list-of-tuples build.
        """
        return sparse_view(self).pairs()

    @pure
    def item_counts(self) -> np.ndarray:
        """Per-item click counts (the popularity signal attackers can crawl)."""
        return sparse_view(self).item_counts()

    def __repr__(self) -> str:
        return (f"InteractionLog(users={self.num_users}, "
                f"items={self.num_items}, "
                f"interactions={self.num_interactions})")


@dataclass
class Dataset:
    """A named dataset with leave-one-out splits.

    ``train`` holds each user's sequence minus the final two clicks,
    ``validation`` / ``test`` hold the held-out second-to-last / last click
    per user (the paper's protocol, Section IV-A).
    """

    name: str
    train: InteractionLog
    validation: Dict[int, int] = field(default_factory=dict)
    test: Dict[int, int] = field(default_factory=dict)

    @property
    def num_items(self) -> int:
        return self.train.num_items

    @property
    def num_users(self) -> int:
        return self.train.num_users

    def statistics(self) -> Dict[str, int]:
        """Table II-style statistics over the full (pre-split) data."""
        total = (self.train.num_interactions + len(self.validation)
                 + len(self.test))
        return {
            "users": self.num_users,
            "items": self.num_items,
            "samples": total,
        }
