"""Sparse CSR substrate tests: row-API equivalence, caching, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (DatasetSpec, InteractionLog, SparseInteractions,
                        as_sparse, generate_log, sparse_view)

SPEC = DatasetSpec(name="tiny", num_users=30, num_items=50, num_samples=300,
                   num_clusters=4)


def make_log(seed: int = 0) -> InteractionLog:
    return generate_log(SPEC, seed=seed)


def assert_view_matches_log(view: SparseInteractions,
                            log: InteractionLog) -> None:
    """The CSR snapshot agrees with the row-object API on every read."""
    assert view.num_users == log.num_users
    assert view.num_interactions == log.num_interactions
    assert view.users.tolist() == log.users
    for user in log.users:
        assert view.sequence(user) == log.sequence(user)
        assert user in view
    assert dict(view.iter_sequences()) == dict(log.iter_sequences())
    expected_pairs = sorted(
        (u, i) for u, seq in log.iter_sequences() for i in seq)
    assert sorted(map(tuple, view.pairs().tolist())) == expected_pairs
    counts = np.zeros(log.num_items, dtype=np.int64)
    for _, seq in log.iter_sequences():
        for item in seq:
            counts[item] += 1
    assert np.array_equal(view.item_counts(), counts)


class TestFromLog:
    def test_matches_row_api(self):
        log = make_log()
        assert_view_matches_log(SparseInteractions.from_log(log), log)

    def test_csr_slices_are_sequences(self):
        log = make_log()
        view = SparseInteractions.from_log(log)
        for i, user in enumerate(view.users):
            row = view.item_ids[view.user_ptr[i]:view.user_ptr[i + 1]]
            assert row.tolist() == log.sequence(int(user))

    def test_empty_log(self):
        view = SparseInteractions.from_log(InteractionLog(10))
        assert view.num_users == 0
        assert view.num_interactions == 0
        assert view.pairs().shape == (0, 2)
        assert view.item_counts().tolist() == [0] * 10

    def test_lengths_align_with_users(self):
        log = make_log()
        view = SparseInteractions.from_log(log)
        assert view.lengths.tolist() == [len(log.sequence(int(u)))
                                         for u in view.users]


class TestBulkReads:
    def test_consecutive_pairs_match_serial(self):
        log = make_log()
        view = sparse_view(log)
        expected = [(seq[i], seq[i + 1]) for _, seq in log.iter_sequences()
                    for i in range(len(seq) - 1)]
        prev, nxt = view.consecutive_pairs()
        assert sorted(zip(prev.tolist(), nxt.tolist())) == sorted(expected)

    def test_last_n_windows(self):
        log = make_log()
        view = sparse_view(log)
        windows, mask = view.last_n(4, pad=-1)
        assert windows.shape == (view.num_users, 4)
        for i, user in enumerate(view.users):
            tail = log.sequence(int(user))[-4:]
            padded = [-1] * (4 - len(tail)) + tail
            assert windows[i].tolist() == padded
            assert mask[i].tolist() == [False] * (4 - len(tail)) + \
                [True] * len(tail)

    def test_last_n_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sparse_view(make_log()).last_n(0)

    def test_sorted_pair_keys_membership(self):
        log = make_log()
        view = sparse_view(log)
        keys = view.sorted_pair_keys()
        assert np.all(np.diff(keys) >= 0)
        clicked = {(u, i) for u, seq in log.iter_sequences() for i in seq}
        for user in log.users:
            for item in (0, 7, 23, 49):
                key = user * log.num_items + item
                pos = np.searchsorted(keys, key)
                found = pos < keys.size and keys[pos] == key
                assert found == ((user, item) in clicked)

    def test_rows_of_matches_sequences(self):
        log = make_log()
        view = sparse_view(log)
        users = np.array([3, 0, 10_000, 3, 29, -1])
        expected = [log.sequence(int(user)) for user in users]
        for last in (None, 2):
            rows = [seq if last is None else seq[-last:] for seq in expected]
            lengths, items = view.rows_of(users, last=last)
            assert lengths.tolist() == [len(row) for row in rows]
            assert items.tolist() == [item for row in rows for item in row]

    def test_row_bounds_of_unknown_users_are_empty(self):
        view = sparse_view(make_log())
        starts, stops = view.row_bounds(np.array([10_000, -5]))
        assert np.array_equal(starts, stops)
        empty = SparseInteractions.from_log(InteractionLog(10))
        lengths, items = empty.rows_of(np.array([0, 4]))
        assert lengths.tolist() == [0, 0] and items.size == 0


class TestCache:
    def test_view_is_reused_until_mutation(self):
        log = make_log()
        assert sparse_view(log) is sparse_view(log)

    def test_mutators_invalidate(self):
        log = make_log()
        before = sparse_view(log)
        log.add(0, 3)
        after = sparse_view(log)
        assert after is not before
        assert after.num_interactions == before.num_interactions + 1

    def test_splice_and_unsplice_invalidate(self):
        log = make_log()
        poison = InteractionLog(log.num_items)
        poison.add_sequence(10_000, [1, 2, 3])
        v0 = sparse_view(log)
        log.splice(poison)
        v1 = sparse_view(log)
        assert v1 is not v0 and 10_000 in v1
        log.unsplice(poison)
        v2 = sparse_view(log)
        assert v2 is not v1 and 10_000 not in v2
        assert_view_matches_log(v2, log)

    def test_views_are_frozen_snapshots(self):
        log = make_log()
        before = sparse_view(log)
        nnz = before.num_interactions
        log.add(0, 1)
        assert before.num_interactions == nnz  # old snapshot untouched

    def test_version_counter_bumps(self):
        log = InteractionLog(10)
        v = log._version
        log.add(0, 1)
        assert log._version == v + 1
        log.add_sequence(1, [2, 3])
        assert log._version == v + 2  # one new token per call, not per click

    def test_log_delegations_use_view(self):
        log = make_log()
        view = sparse_view(log)
        assert np.array_equal(log.pairs(), view.pairs())
        assert np.array_equal(log.item_counts(), view.item_counts())

    def test_as_sparse_passthrough(self):
        log = make_log()
        view = sparse_view(log)
        assert as_sparse(view) is view
        assert as_sparse(log) is view


def assert_same_arrays(view: SparseInteractions,
                       expected: SparseInteractions) -> None:
    """Equal item universe and equal CSR arrays, dtypes included."""
    assert view.num_items == expected.num_items
    for name in ("users", "user_ptr", "item_ids"):
        got, want = getattr(view, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def spaced_log() -> InteractionLog:
    """``make_log`` with users moved to 100, 103, 106, ... (gaps between)."""
    log = InteractionLog(SPEC.num_items)
    for user, sequence in make_log().iter_sequences():
        log.add_sequence(100 + 3 * user, sequence)
    return log


def poison_log(users, seed: int = 0) -> InteractionLog:
    rng = np.random.default_rng(seed)
    poison = InteractionLog(SPEC.num_items)
    for user in users:
        poison.add_sequence(user, rng.integers(
            0, SPEC.num_items, size=int(rng.integers(1, 6))).tolist())
    return poison


#: Poison users relative to the base users 100, 103, ..., 187.
POISON_USERS = {
    "above": [500, 501, 502],
    "below": [0, 7, 99],
    "between": [101, 102, 104, 186],
    "mixed": [3, 101, 188, 900],
}


class TestSplicedView:
    """A spliced log's view is merged from the pre-splice one, bit-equal."""

    @pytest.mark.parametrize("where", sorted(POISON_USERS))
    def test_matches_from_log(self, where):
        log = spaced_log()
        before = sparse_view(log)
        poison = poison_log(POISON_USERS[where])
        log.splice(poison)
        view = sparse_view(log)
        assert_same_arrays(view, SparseInteractions.from_log(log))
        assert_view_matches_log(view, log)
        log.unsplice(poison)
        assert sparse_view(log) is before

    @pytest.mark.parametrize("where", sorted(POISON_USERS))
    def test_uncached_base_is_built_without_the_poison(self, where):
        log = spaced_log()
        clean = SparseInteractions.from_log(log)
        poison = poison_log(POISON_USERS[where])
        log.splice(poison)
        assert_same_arrays(sparse_view(log),
                           SparseInteractions.from_log(log))
        log.unsplice(poison)
        base = sparse_view(log)
        assert_same_arrays(base, clean)
        assert sparse_view(log) is base

    def test_empty_poison_and_empty_base(self):
        log = spaced_log()
        before = sparse_view(log)
        empty = InteractionLog(SPEC.num_items)
        log.splice(empty)
        assert_same_arrays(sparse_view(log), before)
        log.unsplice(empty)
        assert sparse_view(log) is before
        host = InteractionLog(SPEC.num_items)
        sparse_view(host)
        poison = poison_log(POISON_USERS["mixed"])
        host.splice(poison)
        assert_same_arrays(sparse_view(host),
                           SparseInteractions.from_log(poison))

    def test_new_poison_never_reuses_an_old_view(self):
        log = spaced_log()
        sparse_view(log)
        first = poison_log(POISON_USERS["above"], seed=1)
        second = poison_log(POISON_USERS["above"], seed=2)
        log.splice(first)
        sparse_view(log)
        log.unsplice(first)
        log.splice(second)
        assert_same_arrays(sparse_view(log),
                           SparseInteractions.from_log(log))

    @pytest.mark.parametrize("read_after_add", [False, True])
    def test_add_during_splice_invalidates(self, read_after_add):
        log = spaced_log()
        before = sparse_view(log)
        poison = poison_log(POISON_USERS["between"])
        log.splice(poison)
        sparse_view(log)
        log.add(100, 3)
        if read_after_add:
            assert_same_arrays(sparse_view(log),
                               SparseInteractions.from_log(log))
        log.unsplice(poison)
        after = sparse_view(log)
        assert after is not before
        assert_same_arrays(after, SparseInteractions.from_log(log))

    def test_stacked_splices(self):
        log = spaced_log()
        sparse_view(log)
        outer = poison_log(POISON_USERS["above"], seed=1)
        inner = poison_log(POISON_USERS["below"], seed=2)
        log.splice(outer)
        outer_view = sparse_view(log)
        log.splice(inner)
        assert_same_arrays(sparse_view(log),
                           SparseInteractions.from_log(log))
        log.unsplice(inner)
        assert sparse_view(log) is outer_view
        log.unsplice(outer)
        assert_same_arrays(sparse_view(log),
                           SparseInteractions.from_log(log))

    def test_add_to_a_grafted_user_is_refused(self):
        host = spaced_log()
        poison = InteractionLog(SPEC.num_items)
        poison.add(5, 7)
        sparse_view(poison)
        host.splice(poison)
        host_view = sparse_view(host)
        with pytest.raises(ValueError, match="grafted"):
            host.add(5, 9)
        with pytest.raises(ValueError, match="grafted"):
            host.add_sequence(5, [1, 2])
        assert poison.sequence(5) == [7]
        assert_same_arrays(sparse_view(poison),
                           SparseInteractions.from_log(poison))
        assert sparse_view(host) is host_view
        # The host's own users still take adds, and so does user 5 once
        # the donor is detached.
        host.add(100, 3)
        assert_same_arrays(sparse_view(host),
                           SparseInteractions.from_log(host))
        host.unsplice(poison)
        host.add(5, 9)
        assert host.sequence(5) == [9]
        assert poison.sequence(5) == [7]

    def test_donor_refuses_adds_while_spliced(self):
        host = InteractionLog(10)
        host.add_sequence(0, [2, 3])
        poison = InteractionLog(10)
        poison.add(5, 7)
        host.splice(poison)
        host_view = sparse_view(host)
        with pytest.raises(ValueError, match="spliced into another"):
            poison.add(5, 9)
        with pytest.raises(ValueError, match="spliced into another"):
            poison.add_sequence(6, [1, 2])
        assert host.sequence(5) == [7]
        assert poison.users == [5]
        assert sparse_view(host) is host_view
        assert host_view.item_ids.tolist() == [2, 3, 7]
        # Detached, the donor takes adds again and the host is unmoved.
        host.unsplice(poison)
        poison.add(5, 9)
        assert poison.sequence(5) == [7, 9]
        assert 5 not in host
        assert_same_arrays(sparse_view(host),
                           SparseInteractions.from_log(host))

    def test_donor_spliced_into_two_hosts(self):
        first, second = InteractionLog(10), InteractionLog(10)
        first.add(0, 1)
        second.add(1, 2)
        poison = InteractionLog(10)
        poison.add(5, 7)
        first.splice(poison)
        second.splice(poison)
        first.unsplice(poison)
        with pytest.raises(ValueError, match="spliced into another"):
            poison.add(5, 9)  # still attached to the second host
        first.unsplice(poison)  # not attached there: changes nothing
        with pytest.raises(ValueError, match="spliced into another"):
            poison.add(5, 9)
        second.unsplice(poison)
        poison.add(5, 9)
        assert poison.sequence(5) == [7, 9]
        assert 5 not in first and 5 not in second

    def test_stacked_donors_stay_guarded(self):
        log = spaced_log()
        outer = poison_log(POISON_USERS["above"], seed=1)
        inner = poison_log(POISON_USERS["below"], seed=2)
        log.splice(outer)
        log.splice(inner)
        for user in (500, 7):
            with pytest.raises(ValueError, match="grafted"):
                log.add(user, 1)
        log.unsplice(outer)
        log.add(500, 1)
        with pytest.raises(ValueError, match="grafted"):
            log.add(7, 1)
        # The add after the unsplice went to the host's own new entry.
        assert outer.sequence(500) == poison_log(
            POISON_USERS["above"], seed=1).sequence(500)

    def test_unsplice_out_of_order(self):
        log = spaced_log()
        sparse_view(log)
        outer = poison_log(POISON_USERS["above"], seed=1)
        inner = poison_log(POISON_USERS["below"], seed=2)
        log.splice(outer)
        outer_view = sparse_view(log)
        log.splice(inner)
        sparse_view(log)
        log.unsplice(outer)
        view = sparse_view(log)
        assert view is not outer_view
        assert_same_arrays(view, SparseInteractions.from_log(log))


class TestFromArrays:
    def test_roundtrip(self):
        log = make_log()
        ref = SparseInteractions.from_log(log)
        view = SparseInteractions.from_arrays(log.num_items, ref.users,
                                              ref.user_ptr, ref.item_ids)
        assert_view_matches_log(view, log)

    @pytest.mark.parametrize("mutation", [
        "bad_ptr_len", "ptr_not_zero", "ptr_wrong_end", "ptr_decreasing",
        "users_unsorted", "users_negative", "item_out_of_range", "not_1d",
    ])
    def test_validation_rejects(self, mutation):
        users = np.array([0, 1, 2])
        ptr = np.array([0, 2, 3, 5])
        items = np.array([1, 2, 0, 3, 1])
        kwargs = dict(num_items=5, users=users, user_ptr=ptr, item_ids=items)
        if mutation == "bad_ptr_len":
            kwargs["user_ptr"] = ptr[:-1]
        elif mutation == "ptr_not_zero":
            kwargs["user_ptr"] = np.array([1, 2, 3, 5])
        elif mutation == "ptr_wrong_end":
            kwargs["user_ptr"] = np.array([0, 2, 3, 6])
        elif mutation == "ptr_decreasing":
            kwargs["user_ptr"] = np.array([0, 3, 2, 5])
        elif mutation == "users_unsorted":
            kwargs["users"] = np.array([0, 2, 1])
        elif mutation == "users_negative":
            kwargs["users"] = np.array([-1, 1, 2])
        elif mutation == "item_out_of_range":
            kwargs["item_ids"] = np.array([1, 2, 0, 5, 1])
        elif mutation == "not_1d":
            kwargs["item_ids"] = items.reshape(1, -1)
        with pytest.raises(ValueError):
            SparseInteractions.from_arrays(**kwargs)


class TestPropertyInterleavings:
    """Views agree with the row API after arbitrary mutation interleavings."""

    def test_random_add_splice_unsplice(self):
        rng = np.random.default_rng(42)
        log = make_log(seed=1)
        active: list[InteractionLog] = []
        next_user = 50_000
        for step in range(120):
            op = rng.integers(0, 3)
            if op == 0:
                # Mutate base users only: spliced sequences are shared by
                # reference and must stay frozen while attached.
                base_users = [u for u in log.users if u < 50_000]
                log.add(int(rng.choice(base_users)),
                        int(rng.integers(0, log.num_items)))
            elif op == 1:
                poison = InteractionLog(log.num_items)
                for _ in range(int(rng.integers(1, 4))):
                    poison.add_sequence(
                        next_user,
                        rng.integers(0, log.num_items,
                                     size=int(rng.integers(1, 6))).tolist())
                    next_user += 1
                log.splice(poison)
                active.append(poison)
            elif op == 2 and active:
                log.unsplice(active.pop(int(rng.integers(0, len(active)))))
            if step % 10 == 0:
                assert_view_matches_log(sparse_view(log), log)
        for poison in active:
            log.unsplice(poison)
        assert_view_matches_log(sparse_view(log), log)
