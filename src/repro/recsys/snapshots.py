"""Copy-on-write ranker snapshots for the reload-and-poison hot loop.

Algorithm 1 reloads the clean ranker before every poison injection, so
snapshot/restore sits on the per-query critical path.  The seed
implementation deep-copied the whole state twice per query (once at
``snapshot``, once more inside ``restore``); this module replaces that
with a :class:`RankerSnapshot` that

* copies each array exactly once, at capture time, and marks the copy
  read-only so nothing can corrupt the clean baseline afterwards, and
* restores by ``np.copyto`` into the ranker's *existing* buffers where
  shapes/dtypes match — no allocation, no garbage-collector churn on the
  hot path — falling back to a fresh copy only when a buffer was
  replaced or resized.

The state a ranker's ``_state()`` returns is therefore arrays in
dict/list/tuple containers, plus immutable scalars (numbers, numpy
scalars, strings, ``None``), which are shared rather than copied.  Any
other leaf raises ``TypeError``: a ranker's interaction log lives in
its CSR view (:mod:`repro.data.sparse`), never in its snapshot.

A snapshot also captures the ranker's RNG stream.  ``poison_update``
implementations consume ``ranker.rng`` (negative sampling, replay
selection), so without the RNG in the snapshot each query's reward would
depend on how many queries ran before it.  Restoring the stream makes
``RecommenderSystem.attack`` a pure function of its trajectories, which
is exactly the property the parallel query engine
(:class:`repro.perf.QueryPool`) needs for its bit-exact serial/parallel
equivalence guarantee — and what makes checkpoint resume bit-identical
for the parametric rankers.
"""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

from ..effects import pure
from ..runtime.errors import FatalEnvironmentError


class SnapshotMismatchError(FatalEnvironmentError):
    """An incremental poison revert failed to reproduce the clean state.

    Raised only in ``verify_incremental`` mode (see
    :class:`repro.recsys.system.RecommenderSystem`); it means a ranker's
    ``poison_revert`` is not the exact inverse of its ``poison_update``.
    Fatal in the campaign taxonomy: retrying the same query replays the
    same broken revert, so the supervisor must not burn retry budget.
    """


class RankerSnapshot:
    """Immutable captured ranker state plus its RNG stream.

    Produced by :meth:`repro.recsys.base.Ranker.snapshot`; consumed by
    :meth:`~repro.recsys.base.Ranker.restore`.  Array leaves are stored
    read-only, so the snapshot can be shared freely (e.g. inherited by
    forked pool workers) without defensive copies.
    """

    __slots__ = ("state", "rng_state")

    def __init__(self, state: Any, rng_state: dict) -> None:
        self.state = state
        self.rng_state = rng_state

    @classmethod
    @pure
    def capture(cls, ranker: Any) -> "RankerSnapshot":
        """Freeze ``ranker``'s current trained state and RNG stream."""
        return cls(state=freeze(ranker._state()),
                   rng_state=ranker.rng.bit_generator.state)

    def __repr__(self) -> str:
        return f"RankerSnapshot({type(self.state).__name__})"


#: Leaves a snapshot shares instead of copying: nothing can change them.
_IMMUTABLE = (numbers.Number, np.generic, str, type(None))


def _immutable(value: Any) -> Any:
    """``value`` itself if it is an immutable scalar; else ``TypeError``."""
    if isinstance(value, _IMMUTABLE):
        return value
    raise TypeError(
        f"ranker state leaf of type {type(value).__name__} is neither an "
        "ndarray nor an immutable scalar; keep state as arrays in "
        "dict/list/tuple containers")


def freeze(value: Any) -> Any:
    """Copy ``value``, marking every array leaf read-only.

    The single copy made here is the *only* copy the snapshot lifecycle
    performs per array: ``thaw_into`` later writes the frozen data back
    into live buffers without allocating.  Scalar leaves are shared.
    """
    if isinstance(value, np.ndarray):
        frozen = value.copy()
        frozen.setflags(write=False)
        return frozen
    if isinstance(value, dict):
        return {key: freeze(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(freeze(item) for item in value)
    return _immutable(value)


def thaw_into(saved: Any, live: Any) -> Any:
    """Rebuild mutable state from ``saved``, reusing ``live`` buffers.

    Array leaves are copied in place into the matching ``live`` array
    when shape/dtype/writeability line up (zero allocation); any
    structural drift falls back to a fresh writable copy.  Scalar
    leaves are immutable and returned as they are.
    """
    if isinstance(saved, np.ndarray):
        if (isinstance(live, np.ndarray) and live.shape == saved.shape
                and live.dtype == saved.dtype and live.flags.writeable):
            np.copyto(live, saved)
            return live
        return saved.copy()
    if isinstance(saved, dict):
        live_map = live if isinstance(live, dict) else {}
        return {key: thaw_into(item, live_map.get(key))
                for key, item in saved.items()}
    if isinstance(saved, (list, tuple)):
        live_items = (live if isinstance(live, (list, tuple))
                      and len(live) == len(saved)
                      else (None,) * len(saved))
        return type(saved)(thaw_into(item, slot)
                           for item, slot in zip(saved, live_items))
    return _immutable(saved)


def states_equal(left: Any, right: Any) -> bool:
    """Exact structural equality between two ranker states.

    Arrays compare bit-exact (``array_equal``), containers recurse, and
    everything else uses ``==``.  Used by the incremental-revert
    equivalence assertion: a revert must reproduce the clean state
    *exactly*, not approximately, or serial/parallel campaigns drift.
    """
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (isinstance(left, np.ndarray)
                and isinstance(right, np.ndarray)
                and left.shape == right.shape
                and np.array_equal(left, right))
    if isinstance(left, dict) and isinstance(right, dict):
        if left.keys() != right.keys():
            return False
        return all(states_equal(left[key], right[key]) for key in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(states_equal(a, b) for a, b in zip(left, right))
    return bool(left == right)
