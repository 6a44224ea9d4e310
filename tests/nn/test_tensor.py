"""Autograd engine tests: gradients, broadcasting, graph traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concatenate, stack, unbroadcast


def numeric_gradient(fn, x0, eps=1e-6):
    grad = np.zeros_like(x0)
    for idx in np.ndindex(*x0.shape):
        xp = x0.copy()
        xp[idx] += eps
        xm = x0.copy()
        xm[idx] -= eps
        grad[idx] = (fn(xp) - fn(xm)) / (2 * eps)
    return grad


def analytic_gradient(fn, x0):
    x = Tensor(x0.copy(), requires_grad=True)
    fn(x).backward()
    return x.grad


def assert_matches_numeric(fn_tensor, fn_np, x0, tol=1e-6):
    ana = analytic_gradient(fn_tensor, x0)
    num = numeric_gradient(fn_np, x0)
    np.testing.assert_allclose(ana, num, atol=tol, rtol=1e-4)


def dense_getitem(self: Tensor, idx) -> Tensor:
    """The dense gather rule, for every index: the oracle for the row rule.

    The backward allocates a zero table the size of the whole parent,
    ``np.add.at``s the upstream gradient into it and adds all of it into
    ``.grad``.
    """
    a = self

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(a.data, dtype=np.float64)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return Tensor._make(a.data[idx], (a,), backward)


class TestArithmetic:
    def test_add_grad(self):
        x0 = np.random.default_rng(0).normal(size=(3, 4))
        assert_matches_numeric(lambda x: (x + x + 1.0).sum(),
                               lambda x: (x + x + 1.0).sum(), x0)

    def test_mul_grad(self):
        x0 = np.random.default_rng(1).normal(size=(3, 4))
        assert_matches_numeric(lambda x: (x * x * 2.0).sum(),
                               lambda x: (x * x * 2.0).sum(), x0)

    def test_div_grad(self):
        x0 = np.random.default_rng(2).normal(size=(3,)) + 3.0
        assert_matches_numeric(lambda x: (1.0 / x).sum(),
                               lambda x: (1.0 / x).sum(), x0)

    def test_sub_and_neg(self):
        a = Tensor([3.0, 4.0], requires_grad=True)
        out = (a - 1.0) - (-a)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_pow_grad(self):
        x0 = np.abs(np.random.default_rng(3).normal(size=(4,))) + 0.5
        assert_matches_numeric(lambda x: (x ** 3.0).sum(),
                               lambda x: (x ** 3.0).sum(), x0)

    def test_matmul_grad_both_sides(self):
        rng = np.random.default_rng(4)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b0.T)
        np.testing.assert_allclose(b.grad, a0.T @ np.ones((3, 2)))

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])
        a.zero_grad()
        (10.0 / a).backward()
        np.testing.assert_allclose(a.grad, [-10.0 / 4.0])


class TestBroadcasting:
    def test_unbroadcast_sums_new_axes(self):
        grad = np.ones((5, 3, 4))
        assert unbroadcast(grad, (3, 4)).shape == (3, 4)
        np.testing.assert_allclose(unbroadcast(grad, (3, 4)),
                                   np.full((3, 4), 5.0))

    def test_unbroadcast_sums_size_one_axes(self):
        grad = np.ones((3, 4))
        out = unbroadcast(grad, (3, 1))
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))

    def test_broadcast_add_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full((4,), 3.0))

    def test_broadcast_mul_grad(self):
        a = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        b = Tensor(np.full((1, 3), 5.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 5.0))
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))


class TestShapeOps:
    def test_reshape_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_grad(self):
        x0 = np.random.default_rng(5).normal(size=(2, 3))
        a = Tensor(x0, requires_grad=True)
        w = np.random.default_rng(6).normal(size=(2, 3))
        (a.T * Tensor(w.T)).sum().backward()
        np.testing.assert_allclose(a.grad, w)

    def test_getitem_accumulates_repeats(self):
        a = Tensor(np.zeros(4), requires_grad=True)
        idx = np.array([1, 1, 2])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 2.0, 1.0, 0.0])

    def test_concatenate_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out[0] * 5.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))
        np.testing.assert_allclose(b.grad, np.zeros(3))


def gather_grad(gather, table, idx, upstream, prefill=None):
    """``table``'s gradient after ``gather(table, idx).backward(upstream)``."""
    t = Tensor(table.copy(), requires_grad=True)
    if prefill is not None:
        t._accumulate(prefill)
    gather(t, idx).backward(upstream)
    return t.grad


def spread(rng, shape):
    """Values over 16 orders of magnitude, so any change in the order of
    additions shows in the low bits."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


class TestRowSparseGather:
    """An integer-array gather's gradient is the dense rule's, bit for bit."""

    @pytest.mark.parametrize("idx", [
        np.array([2, 0, 2, 5, 2, 0, 2]),
        np.array([[3, 1, 3], [1, 1, 4], [3, 0, 3]]),
        np.array([-1, 5, 2, -1, 5, 0]),
    ], ids=["repeated-1d", "repeated-2d", "minus-one-and-last"])
    @pytest.mark.parametrize("prefilled", [False, True],
                             ids=["empty-grad", "prefilled-grad"])
    def test_matches_dense_rule(self, idx, prefilled):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(6, 4))
        upstream = spread(rng, idx.shape + (4,))
        prefill = spread(rng, table.shape) if prefilled else None
        sparse = gather_grad(Tensor.__getitem__, table, idx, upstream,
                             prefill)
        dense = gather_grad(dense_getitem, table, idx, upstream, prefill)
        assert sparse.tobytes() == dense.tobytes()

    def test_parent_without_grad_is_left_alone(self):
        data = np.random.default_rng(4).normal(size=(5, 3))
        idx = np.array([1, 3, 1])
        results = []
        for gather in (Tensor.__getitem__, dense_getitem):
            table = Tensor(data)
            weight = Tensor(np.linspace(-1.0, 1.0, 9).reshape(3, 3),
                            requires_grad=True)
            (gather(table, idx) * weight).sum().backward()
            assert table.grad is None
            results.append(weight.grad.tobytes())
        assert results[0] == results[1]


class TestBasicIndexRegion:
    """A slice or integer gather's gradient is the dense rule's, bit for bit.

    The region rule adds the upstream gradient into ``.grad[idx]``; the
    dense rule adds a zero table with the gradient scattered in.
    """

    @pytest.mark.parametrize("idx", [
        (slice(None), slice(2, 5)),
        slice(1, 4),
        2,
        -1,
        (slice(None, None, 2), 3),
        (Ellipsis, slice(0, 2)),
        np.int64(4),
    ], ids=["gate-block", "row-prefix", "int", "minus-one", "strided-int",
            "ellipsis", "numpy-int"])
    @pytest.mark.parametrize("prefilled", [False, True],
                             ids=["empty-grad", "prefilled-grad"])
    def test_matches_dense_rule(self, idx, prefilled):
        rng = np.random.default_rng(5)
        table = rng.normal(size=(6, 7))
        upstream = spread(rng, table[idx].shape)
        prefill = spread(rng, table.shape) if prefilled else None
        region = gather_grad(Tensor.__getitem__, table, idx, upstream,
                             prefill)
        dense = gather_grad(dense_getitem, table, idx, upstream, prefill)
        assert region.tobytes() == dense.tobytes()

    def test_takes_the_region_channel(self, monkeypatch):
        calls = []
        real = Tensor._accumulate_region

        def spy(self, idx, grad):
            calls.append(idx)
            real(self, idx, grad)

        monkeypatch.setattr(Tensor, "_accumulate_region", spy)
        t = Tensor(np.ones((4, 6)), requires_grad=True)
        (t[:, 0:3].sum() + t[1].sum()).backward()
        assert len(calls) == 2
        assert 1 in calls and (slice(None), slice(0, 3)) in calls
        np.testing.assert_array_equal(
            t.grad, [[1, 1, 1, 0, 0, 0], [2, 2, 2, 1, 1, 1],
                     [1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0]])

    def test_fancy_tuples_keep_the_dense_rule(self):
        # A tuple of arrays may name an entry twice: both additions land.
        t = Tensor(np.zeros((3, 3)), requires_grad=True)
        t[np.array([0, 0, 2]), np.array([1, 1, 2])].sum().backward()
        np.testing.assert_array_equal(
            t.grad, [[0, 2, 0], [0, 0, 0], [0, 0, 1]])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 1.0 / 6.0))

    def test_mean_axis(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 0.25))

    def test_max_grad_splits_ties(self):
        a = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 0.5, 0.5]])


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_diamond_graph_accumulates(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0
        out = b + b  # b used twice
        out.backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_no_grad_leaf_untouched(self):
        a = Tensor(np.ones(3), requires_grad=False)
        b = Tensor(np.ones(3), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad is None
        assert b.grad is not None

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 4.0])

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_repr_and_introspection(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        assert "requires_grad" in repr(a)
        assert a.ndim == 2
        assert a.size == 6
        assert len(a) == 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_composite_expression_gradcheck(values):
    """Random composite expressions match numeric gradients (hypothesis)."""
    x0 = np.asarray(values)

    def fn_np(x):
        return float((x * x + 2.0 * x).sum() / (1.0 + x.size))

    def fn_t(x):
        return (x * x + 2.0 * x).sum() * (1.0 / (1.0 + x.size))

    ana = analytic_gradient(fn_t, x0)
    num = numeric_gradient(fn_np, x0)
    np.testing.assert_allclose(ana, num, atol=1e-5, rtol=1e-4)
