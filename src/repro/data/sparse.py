"""Flat-array (CSR) view of interaction logs: the million-user substrate.

:class:`~repro.data.interactions.InteractionLog` stores a dict of
per-user Python lists — ideal for the splice/unsplice poison hot path,
hopeless for vectorized training at 10⁵–10⁷ users.  This module adds the
complementary representation: :class:`SparseInteractions`, an immutable
CSR snapshot holding three contiguous arrays

* ``users``    — sorted distinct user ids, shape ``(U,)``
* ``user_ptr`` — CSR row pointer, shape ``(U + 1,)``
* ``item_ids`` — clicks in click order, shape ``(nnz,)``

so ``item_ids[user_ptr[i]:user_ptr[i + 1]]`` is user ``users[i]``'s
sequence.  Every bulk read the rankers need — ``pairs()``,
``item_counts()``, last-n windows, consecutive click pairs, the rows of
a batch of users — becomes a single vectorized pass over these arrays.

Cache-invalidation contract
---------------------------
Views are obtained through :func:`sparse_view`, which memoizes views
per log in a module-level :class:`weakref.WeakKeyDictionary` keyed by
the log's identity.  ``InteractionLog._version`` is a content token:
every mutator (``add``, ``add_sequence``, ``splice``, ``unsplice``)
gives the log a token it never had (from the log's own ever-growing
``_clock``), so a token names exactly one contents of a log, and a
cached view is reused only while its captured token matches.  Three
corollaries:

* repeated reads between mutations are O(1) — the arrays are built once;
* a spliced log's view is built from the pre-splice view and the donor's
  view by merging rows by user id (:meth:`SparseInteractions.spliced`),
  not by walking every sequence, and ``unsplice`` right after the splice
  restores the pre-splice token, so the pre-splice view is served again;
* the zero-copy splice discipline ("neither log may be mutated while a
  splice is active") extends to views: mutating a *donor* log while its
  rows are spliced into another log changes only the donor's token, so
  callers must detach (``unsplice``) first, exactly as the splice API
  already requires.

Views are snapshots: they stay valid (and frozen in time) after the
source log mutates; only the cache entry is replaced.  Their arrays are
shared by every reader and must not be written to; nothing enforces it.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterator, List, Tuple

import numpy as np

from ..effects import pure
from ..nn.spec import shape_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .interactions import InteractionLog


class SparseInteractions:
    """Immutable CSR snapshot of an interaction log.

    Construct via :func:`sparse_view` (cached), :meth:`from_log` (fresh)
    or :meth:`from_arrays` (validated, for generators that produce the
    array substrate directly).  The arrays must not be mutated; every
    accessor returns freshly allocated outputs.
    """

    def __init__(self, num_items: int, users: np.ndarray,
                 user_ptr: np.ndarray, item_ids: np.ndarray,
                 version: int = 0) -> None:
        self.num_items = int(num_items)
        self.users = users
        self.user_ptr = user_ptr
        self.item_ids = item_ids
        self.version = version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_log(cls, log: "InteractionLog", version: int | None = None,
                 without: "InteractionLog | None" = None
                 ) -> "SparseInteractions":
        """Build a CSR snapshot of ``log`` (users in ascending order).

        ``without`` leaves out the users of a log spliced into ``log``,
        which gives the snapshot of ``log`` before that splice.
        """
        sequences = log._sequences
        if without is not None:
            sequences = {user: sequence
                         for user, sequence in sequences.items()
                         if user not in without._sequences}
        count = len(sequences)
        users = np.fromiter(sorted(sequences), dtype=np.int64, count=count)
        lengths = np.fromiter((len(sequences[int(u)]) for u in users),
                              dtype=np.int64, count=count)
        user_ptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=user_ptr[1:])
        total = int(user_ptr[-1])
        item_ids = np.fromiter(
            (item for u in users for item in sequences[int(u)]),
            dtype=np.int64, count=total)
        if version is None:
            version = log._version
        return cls(log.num_items, users, user_ptr, item_ids, version)

    @classmethod
    def from_arrays(cls, num_items: int, users: np.ndarray,
                    user_ptr: np.ndarray,
                    item_ids: np.ndarray) -> "SparseInteractions":
        """Validated constructor for directly generated array substrates."""
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        users = np.ascontiguousarray(users, dtype=np.int64)
        user_ptr = np.ascontiguousarray(user_ptr, dtype=np.int64)
        item_ids = np.ascontiguousarray(item_ids, dtype=np.int64)
        if users.ndim != 1 or user_ptr.ndim != 1 or item_ids.ndim != 1:
            raise ValueError("users, user_ptr and item_ids must be 1-D")
        if len(user_ptr) != len(users) + 1:
            raise ValueError(
                f"user_ptr has {len(user_ptr)} entries; expected "
                f"len(users) + 1 = {len(users) + 1}")
        if len(user_ptr) and (user_ptr[0] != 0
                              or user_ptr[-1] != len(item_ids)):
            raise ValueError("user_ptr must start at 0 and end at "
                             "len(item_ids)")
        if np.any(np.diff(user_ptr) < 0):
            raise ValueError("user_ptr must be non-decreasing")
        if len(users) and (users[0] < 0 or np.any(np.diff(users) <= 0)):
            raise ValueError("users must be non-negative and strictly "
                             "increasing")
        if item_ids.size and (int(item_ids.min()) < 0
                              or int(item_ids.max()) >= num_items):
            raise ValueError(
                f"item ids outside universe [0, {num_items})")
        return cls(num_items, users, user_ptr, item_ids)

    @pure
    def spliced(self, other: "SparseInteractions",
                version: int) -> "SparseInteractions":
        """This snapshot with ``other``'s rows merged in by user id.

        The users must be disjoint, as ``InteractionLog.splice``
        requires; the result then equals :meth:`from_log` of the spliced
        log array for array.  Each of ``other``'s rows goes in before
        the first of this snapshot's rows with a larger user id (at the
        end, for the attacker accounts ``RecommenderSystem`` appends).
        """
        at = np.searchsorted(self.users, other.users)
        users = np.insert(self.users, at, other.users)
        lengths = np.insert(self.lengths, at, other.lengths)
        user_ptr = np.zeros(len(users) + 1, dtype=np.int64)
        np.cumsum(lengths, out=user_ptr[1:])
        item_ids = np.insert(self.item_ids,
                             np.repeat(self.user_ptr[at], other.lengths),
                             other.item_ids)
        return SparseInteractions(self.num_items, users, user_ptr,
                                  item_ids, version)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of distinct users in the snapshot."""
        return len(self.users)

    @property
    def num_interactions(self) -> int:
        """Total click count across all users."""
        return int(self.item_ids.size)

    @property
    def lengths(self) -> np.ndarray:
        """Per-user sequence lengths, aligned with :attr:`users`."""
        return np.diff(self.user_ptr)

    # ------------------------------------------------------------------
    # Vectorized bulk reads
    # ------------------------------------------------------------------
    @pure
    def click_users(self) -> np.ndarray:
        """The owning user id of every click, aligned with ``item_ids``."""
        return np.repeat(self.users, self.lengths)

    @pure
    def pairs(self) -> np.ndarray:
        """All (user, item) pairs as an ``(nnz, 2)`` int64 array."""
        return np.column_stack((self.click_users(), self.item_ids))

    @pure
    def item_counts(self) -> np.ndarray:
        """Per-item click counts over the whole snapshot (int64)."""
        return np.bincount(self.item_ids, minlength=self.num_items)

    @pure
    def consecutive_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Within-user consecutive click pairs as ``(prev, next)`` arrays."""
        if self.item_ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        first = np.zeros(self.item_ids.size, dtype=bool)
        starts = self.user_ptr[:-1]
        first[starts[starts < self.item_ids.size]] = True
        nxt = np.flatnonzero(~first)
        return self.item_ids[nxt - 1], self.item_ids[nxt]

    @pure
    @shape_spec("_, _ -> ((U, W), (U, W))")
    def last_n(self, n: int,
               pad: int = -1) -> Tuple[np.ndarray, np.ndarray]:
        """Per-user trailing windows: ``(windows, mask)``, both ``(U, n)``.

        ``windows[i]`` holds the last ``n`` clicks of ``users[i]``
        right-aligned (shorter sequences are left-padded with ``pad``);
        ``mask`` marks real entries.
        """
        if n <= 0:
            raise ValueError("window size must be positive")
        starts = self.user_ptr[:-1, None]
        idx = self.user_ptr[1:, None] + np.arange(-n, 0)
        mask = idx >= starts
        if self.item_ids.size:
            safe = np.clip(idx, 0, self.item_ids.size - 1)
            windows = np.where(mask, self.item_ids[safe], pad)
        else:
            windows = np.full((self.num_users, n), pad, dtype=np.int64)
        return windows, mask

    @pure
    def sorted_pair_keys(self) -> np.ndarray:
        """Sorted ``user * num_items + item`` keys for membership tests.

        One ``np.searchsorted`` against this array answers "has user u
        clicked item i?" for whole query batches at once.
        """
        return np.sort(self.click_users() * np.int64(self.num_items)
                       + self.item_ids)

    @pure
    def row_bounds(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """CSR ``(starts, stops)`` of each of ``users``' rows.

        An unknown user's row is empty (``starts == stops``).
        """
        users = np.asarray(users, dtype=np.int64)
        at = np.searchsorted(self.users, users)
        known = np.zeros(users.shape, dtype=bool)
        inside = at < len(self.users)
        known[inside] = self.users[at[inside]] == users[inside]
        starts = np.where(known, self.user_ptr[at], 0)
        stops = np.where(known,
                         self.user_ptr[np.minimum(at + 1, len(self.users))],
                         0)
        return starts, stops

    @pure
    def rows_of(self, users: np.ndarray, last: int | None = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``users``' rows back to back, as ``(lengths, item_ids)``.

        ``last`` keeps each row's trailing ``last`` clicks only; an
        unknown user contributes an empty row.
        """
        starts, stops = self.row_bounds(users)
        if last is not None:
            starts = np.maximum(starts, stops - last)
        lengths = stops - starts
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return lengths, self.item_ids[np.arange(shift.size) + shift]

    # ------------------------------------------------------------------
    # Row-object interop (duck-typed like InteractionLog)
    # ------------------------------------------------------------------
    @pure
    def sequence(self, user: int) -> List[int]:
        """The click sequence of ``user`` (empty list if unknown)."""
        return self.rows_of([user])[1].tolist()

    def __contains__(self, user: int) -> bool:
        i = int(np.searchsorted(self.users, user))
        return i < len(self.users) and int(self.users[i]) == int(user)

    def iter_sequences(self) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(user, sequence)`` pairs in ascending user order."""
        for i, user in enumerate(self.users):
            yield int(user), self.item_ids[
                self.user_ptr[i]:self.user_ptr[i + 1]].tolist()

    def __repr__(self) -> str:
        return (f"SparseInteractions(users={self.num_users}, "
                f"items={self.num_items}, "
                f"interactions={self.num_interactions}, "
                f"version={self.version})")


#: Per live log: its latest view, and after a splice also the
#: pre-splice view it was built from.  Entries die with the log.
_VIEW_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@pure
def sparse_view(log: "InteractionLog") -> SparseInteractions:
    """The cached CSR view of ``log``, rebuilt iff its contents changed.

    Observationally pure: the memo lives outside the log, is keyed by
    identity, and is validated against the content token
    ``log._version``, so the returned arrays always reflect the log's
    current contents.  While the latest splice into ``log`` is its last
    mutation, the view is the pre-splice view (cached, or built once
    without the donor's users) with the donor's rows merged in.
    """
    version = log._version
    cached = _VIEW_CACHE.get(log, ())
    for view in cached:
        if view.version == version:
            return view
    splice = log._splice
    if splice is None or splice[2] != version:
        view = SparseInteractions.from_log(log, version=version)
        _VIEW_CACHE[log] = (view,)
        return view
    donor, before, _ = splice
    base = next((view for view in cached if view.version == before), None)
    if base is None:
        base = SparseInteractions.from_log(log, version=before,
                                           without=donor)
    view = base.spliced(sparse_view(donor), version)
    _VIEW_CACHE[log] = (view, base)
    return view


@pure
def as_sparse(log) -> SparseInteractions:
    """Coerce an :class:`InteractionLog` (via the cache) or pass a
    :class:`SparseInteractions` through unchanged."""
    if isinstance(log, SparseInteractions):
        return log
    return sparse_view(log)
