"""Synthetic stand-ins for the paper's four public datasets.

The paper evaluates on Steam, MovieLens-1m, Amazon Phone and Amazon
Clothing (Table II).  This environment has no network access, so we
generate statistically matched synthetic datasets instead.  The generator
reproduces the properties the attack dynamics actually depend on:

* **power-law item popularity** (Zipf exponent per dataset) — drives
  ItemPop, the Popular Attack and the BCBT-Popular tree,
* **latent user/item clusters** — gives matrix-factorization and neural
  rankers real collaborative signal to learn (and to poison),
* **sequential locality** — consecutive clicks tend to stay within an item
  neighborhood, giving CoVisitation and GRU4Rec their co-occurrence signal,
* **scale ratios** — #users/#items/#samples proportions follow Table II;
  an explicit density cap keeps MovieLens "dense" (high average item
  frequency, which is why all attacks get RecNum=0 on ItemPop there).

Each dataset is produced at a configurable ``scale`` so tests and CI-level
benchmarks finish in seconds while ``paper`` scale matches Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from .interactions import Dataset, InteractionLog
from .popularity import zipf_weights
from .sparse import SparseInteractions
from .splits import leave_one_out_split


@dataclass(frozen=True)
class DatasetSpec:
    """Generator parameters for one synthetic dataset."""

    name: str
    num_users: int
    num_items: int
    num_samples: int
    zipf_exponent: float = 1.0
    num_clusters: int = 12
    cluster_affinity: float = 0.7
    sequence_locality: float = 0.5
    min_sequence_length: int = 3

    def mean_sequence_length(self) -> float:
        """Average clicks per user implied by the spec."""
        return self.num_samples / max(self.num_users, 1)


#: Table II statistics of the original datasets.  The synthetic generators
#: target these user/item/sample counts (scaled by ``scale``).
PAPER_SPECS: Dict[str, DatasetSpec] = {
    "steam": DatasetSpec(
        name="steam", num_users=6506, num_items=5134, num_samples=180721,
        zipf_exponent=1.05, num_clusters=16, cluster_affinity=0.65,
        sequence_locality=0.55),
    "movielens": DatasetSpec(
        name="movielens", num_users=5999, num_items=3706, num_samples=943317,
        zipf_exponent=0.85, num_clusters=18, cluster_affinity=0.6,
        sequence_locality=0.4),
    "phone": DatasetSpec(
        name="phone", num_users=27879, num_items=10429, num_samples=166560,
        zipf_exponent=1.1, num_clusters=20, cluster_affinity=0.7,
        sequence_locality=0.5),
    "clothing": DatasetSpec(
        name="clothing", num_users=39387, num_items=23033, num_samples=239290,
        zipf_exponent=1.15, num_clusters=24, cluster_affinity=0.7,
        sequence_locality=0.5),
}

#: Scale presets.  "ci" keeps every dataset small enough that the full RL
#: loop (which retrains a ranker per sampled trajectory batch) runs in
#: seconds; "paper" reproduces Table II sizes.
SCALE_FACTORS: Dict[str, float] = {
    "ci": 0.02,
    "small": 0.08,
    "paper": 1.0,
}

DATASET_NAMES = tuple(PAPER_SPECS)


def scaled_spec(spec: DatasetSpec, scale: float) -> DatasetSpec:
    """Shrink a spec by ``scale`` while keeping it generate-able.

    Interaction counts shrink slightly *super*-linearly (``scale**1.25``):
    with a 50x smaller catalog, keeping per-item click counts unchanged
    would make the top-10 promotion cutoff (the click count a target must
    beat among 92 random candidates) far harder than at paper scale, where
    most sampled candidates come from the Zipf tail.  The extra damping
    keeps the *relative* difficulty of item promotion comparable.  The mean
    sequence length is additionally capped at half the item count so the
    dense MovieLens stand-in stays dense but not degenerate.

    Scales above 1.0 (the :func:`generate_sparse_log` scale-up path)
    grow samples linearly instead: the super-linear damping exists to
    keep *shrunken* catalogs attackable, and ``scale ** 1.25`` would
    blow the click budget up at 10⁵–10⁷ users.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    users = max(30, int(round(spec.num_users * scale)))
    items = max(40, int(round(spec.num_items * scale)))
    exponent = 1.25 if scale < 1.0 else 1.0
    samples = max(users * spec.min_sequence_length,
                  int(round(spec.num_samples * scale ** exponent)))
    max_mean_len = max(spec.min_sequence_length + 1, items // 2)
    if samples / users > max_mean_len:
        samples = users * max_mean_len
    clusters = max(4, min(spec.num_clusters, items // 8))
    return replace(spec, num_users=users, num_items=items,
                   num_samples=samples, num_clusters=clusters)


def _resolve_scale(scale: str | float) -> float:
    if isinstance(scale, str):
        try:
            return SCALE_FACTORS[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale preset {scale!r}; "
                f"expected one of {sorted(SCALE_FACTORS)}") from None
    return float(scale)


def generate_log(spec: DatasetSpec, seed: int = 0) -> InteractionLog:
    """Generate a full interaction log for ``spec``.

    Users draw a sequence length (lognormal around the spec's mean, floored
    at ``min_sequence_length``), then click items from a mixture of a
    global Zipf distribution, their own cluster's distribution, and — with
    probability ``sequence_locality`` — the previous item's cluster.
    """
    rng = np.random.default_rng(seed)
    num_items = spec.num_items

    # Popularity: Zipf weights assigned to items in a random order so item
    # id carries no popularity information.
    ranks = rng.permutation(num_items)
    global_weights = np.empty(num_items)
    global_weights[ranks] = zipf_weights(num_items, spec.zipf_exponent)

    # Clusters: items partitioned (roughly popularity-mixed) into clusters.
    # Each click draws an item as ``rng.choice(members, p=weights)``
    # would, from a CDF built once per cluster instead of once per click:
    # the same items and the same generator state.
    item_cluster = rng.integers(0, spec.num_clusters, size=num_items)
    cluster_tables = []
    for cluster in range(spec.num_clusters):
        members = np.flatnonzero(item_cluster == cluster)
        if members.size == 0:
            # Guarantee every cluster is samplable.
            members = np.array([int(rng.integers(num_items))])
        weights = global_weights[members]
        cluster_tables.append((members, _choice_cdf(weights / weights.sum())))
    global_table = (np.arange(num_items), _choice_cdf(global_weights))

    mean_len = spec.mean_sequence_length()
    sigma = 0.6
    mu = np.log(max(mean_len, spec.min_sequence_length)) - sigma ** 2 / 2

    log = InteractionLog(num_items)
    for user in range(spec.num_users):
        length = max(spec.min_sequence_length,
                     int(round(rng.lognormal(mu, sigma))))
        length = min(length, max(spec.min_sequence_length, num_items - 1))
        user_cluster = int(rng.integers(spec.num_clusters))
        sequence: list[int] = []
        previous = -1
        for _ in range(length):
            roll = rng.random()
            if previous >= 0 and roll < spec.sequence_locality:
                members, cdf = cluster_tables[item_cluster[previous]]
            elif roll < spec.sequence_locality + spec.cluster_affinity * (
                    1.0 - spec.sequence_locality):
                members, cdf = cluster_tables[user_cluster]
            else:
                members, cdf = global_table
            item = int(members[cdf.searchsorted(rng.random(), side="right")])
            if item == previous and num_items > 1:
                item = int(members[cdf.searchsorted(rng.random(),
                                                    side="right")])
            sequence.append(item)
            previous = item
        log.add_sequence(user, sequence)
    return log


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(a, p=p)`` searches with one uniform draw."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _cluster_tables(rng: np.random.Generator, global_weights: np.ndarray,
                    item_cluster: np.ndarray, num_clusters: int) -> tuple:
    """Flat per-cluster sampling tables for one-searchsorted draws.

    Returns ``(seg_items, flat_cdf)`` where cluster ``c`` occupies one
    contiguous segment of ``seg_items`` and ``flat_cdf[j] = c +
    cdf_within_segment(j)`` is globally monotone, so drawing an item
    from cluster ``c`` with uniform ``u`` is
    ``seg_items[searchsorted(flat_cdf, c + u, side="right")]``.
    """
    num_items = len(global_weights)
    parts = []
    for cluster in range(num_clusters):
        members = np.flatnonzero(item_cluster == cluster)
        if members.size == 0:
            # Guarantee every cluster is samplable (as in generate_log).
            members = rng.integers(num_items, size=1)
        parts.append(members)
    seg_len = np.fromiter((len(p) for p in parts), dtype=np.int64,
                          count=num_clusters)
    seg_ptr = np.zeros(num_clusters + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_ptr[1:])
    seg_items = np.concatenate(parts)
    weights = global_weights[seg_items]
    seg_sums = np.add.reduceat(weights, seg_ptr[:-1])
    norm = weights / np.repeat(seg_sums, seg_len)
    cumulative = np.cumsum(norm)
    base = np.zeros(num_clusters)
    base[1:] = cumulative[seg_ptr[1:-1] - 1]
    flat_cdf = cumulative - np.repeat(base, seg_len)
    flat_cdf[seg_ptr[1:] - 1] = 1.0  # exact segment tops
    flat_cdf += np.repeat(np.arange(num_clusters, dtype=np.float64), seg_len)
    return seg_items, flat_cdf


def generate_sparse_log(spec: DatasetSpec | str, seed: int = 0,
                        num_users: int | None = None) -> SparseInteractions:
    """Generate a statistically matched log directly into the array substrate.

    The vectorized counterpart of :func:`generate_log` for the 10⁵–10⁷
    user regime: no per-user Python lists are ever materialized — lengths,
    branch choices and item draws are whole-log array operations, and the
    result is a :class:`~repro.data.sparse.SparseInteractions` CSR
    snapshot (users ``0..U-1``).  It reproduces the same statistical
    structure as the serial generator — Zipf popularity over permuted
    ids, latent item/user clusters, sequential locality via
    previous-item cluster chains, the lognormal length distribution and
    the single immediate-repeat redraw — but draws from the RNG in
    batched order, so the two generators are *distribution*-matched, not
    bit-matched, at a given seed.  (Locality chains carry the chain
    anchor's cluster, which equals the previous item's cluster except
    for the rare fallback member of an otherwise empty cluster and for
    post-redraw anchors.)

    Parameters
    ----------
    spec:
        A :class:`DatasetSpec` or a named paper spec (``"steam"``, ...).
    seed:
        Generator seed; same ``(spec, seed, num_users)`` → same arrays.
    num_users:
        Optional scale knob: rescales the spec (via :func:`scaled_spec`)
        so the log has approximately this many users, with samples and
        catalog growing proportionally.
    """
    if isinstance(spec, str):
        if spec not in PAPER_SPECS:
            raise ValueError(
                f"unknown dataset {spec!r}; expected one of {DATASET_NAMES}")
        spec = PAPER_SPECS[spec]
    if num_users is not None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        spec = scaled_spec(spec, num_users / max(spec.num_users, 1))
    rng = np.random.default_rng(seed)
    num_items, num_clusters = spec.num_items, spec.num_clusters
    users = spec.num_users

    ranks = rng.permutation(num_items)
    global_weights = np.empty(num_items)
    global_weights[ranks] = zipf_weights(num_items, spec.zipf_exponent)
    global_cdf = np.cumsum(global_weights)
    global_cdf[-1] = 1.0

    item_cluster = rng.integers(0, num_clusters, size=num_items)
    seg_items, flat_cdf = _cluster_tables(rng, global_weights, item_cluster,
                                          num_clusters)

    mean_len = spec.mean_sequence_length()
    sigma = 0.6
    mu = np.log(max(mean_len, spec.min_sequence_length)) - sigma ** 2 / 2
    lengths = np.round(rng.lognormal(mu, sigma, size=users)).astype(np.int64)
    np.maximum(lengths, spec.min_sequence_length, out=lengths)
    np.minimum(lengths, max(spec.min_sequence_length, num_items - 1),
               out=lengths)
    user_ptr = np.zeros(users + 1, dtype=np.int64)
    np.cumsum(lengths, out=user_ptr[1:])
    total = int(user_ptr[-1])

    # Per-click branch choice, mirroring the serial mixture exactly:
    # locality needs a previous click, first clicks fall through to the
    # user-cluster branch when their roll lands below the locality cut.
    position = np.arange(total)
    is_first = position == np.repeat(user_ptr[:-1], lengths)
    roll = rng.random(total)
    locality_cut = spec.sequence_locality
    affinity_cut = locality_cut + spec.cluster_affinity * (1.0 - locality_cut)
    locality = (roll < locality_cut) & ~is_first
    from_cluster = ~locality & (roll < affinity_cut)
    from_global = ~locality & ~from_cluster

    items = np.empty(total, dtype=np.int64)
    g = np.flatnonzero(from_global)
    items[g] = np.searchsorted(global_cdf, rng.random(g.size), side="right")

    # Anchor cluster per click: user cluster for affinity draws, the
    # drawn item's cluster for global draws; locality clicks forward-fill
    # the nearest earlier anchor (every user segment starts on one).
    click_cluster = np.where(
        from_cluster, np.repeat(rng.integers(0, num_clusters, size=users),
                                lengths), 0)
    click_cluster[g] = item_cluster[items[g]]
    anchor_at = np.where(locality, -1, position)
    click_cluster = click_cluster[np.maximum.accumulate(anchor_at)]

    clustered = np.flatnonzero(~from_global)
    draw = click_cluster[clustered] + rng.random(clustered.size)
    items[clustered] = seg_items[np.searchsorted(flat_cdf, draw,
                                                 side="right")]

    if num_items > 1:
        # Single immediate-repeat redraw, as in the serial generator.
        previous = np.empty(total, dtype=np.int64)
        previous[0] = -1
        previous[1:] = items[:-1]
        previous[is_first] = -1
        repeat = np.flatnonzero(items == previous)
        if repeat.size:
            rep_global = repeat[from_global[repeat]]
            items[rep_global] = np.searchsorted(
                global_cdf, rng.random(rep_global.size), side="right")
            rep_cluster = repeat[~from_global[repeat]]
            draw = click_cluster[rep_cluster] + rng.random(rep_cluster.size)
            items[rep_cluster] = seg_items[np.searchsorted(flat_cdf, draw,
                                                           side="right")]

    return SparseInteractions.from_arrays(
        num_items, np.arange(users, dtype=np.int64), user_ptr, items)


def load_dataset(name: str, scale: str | float = "ci",
                 seed: int = 0) -> Dataset:
    """Generate a named synthetic dataset with leave-one-out splits.

    Parameters
    ----------
    name:
        One of ``steam``, ``movielens``, ``phone``, ``clothing``.
    scale:
        A preset (``"ci"``, ``"small"``, ``"paper"``) or an explicit float
        factor applied to the Table II sizes.
    seed:
        Generator seed; the same (name, scale, seed) triple always yields
        the same dataset.
    """
    if name not in PAPER_SPECS:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    factor = _resolve_scale(scale)
    spec = scaled_spec(PAPER_SPECS[name], factor)
    log = generate_log(spec, seed=seed)
    return leave_one_out_split(spec.name, log)
