"""Autograd sanitizer tests: anomaly mode and the graph validator."""

import numpy as np
import pytest

from repro.nn import (MLP, AnomalyError, GraphError, Tensor, detect_anomaly,
                      validate_graph)
from repro.nn import functional as F
from repro.nn.anomaly import op_name


def bad_scale(x: Tensor) -> Tensor:
    """An op whose backward closure injects NaN (the bug class REP005 and
    anomaly mode exist to catch)."""
    def backward(g: np.ndarray) -> None:
        x._accumulate(g * np.nan)

    return Tensor._make(x.data * 2.0, (x,), backward)


def wrong_shape_scale(x: Tensor) -> Tensor:
    """An op whose backward accumulates a mis-shaped (broadcasting)
    gradient."""
    def backward(g: np.ndarray) -> None:
        x._accumulate(g.sum(axis=0))

    return Tensor._make(x.data * 3.0, (x,), backward)


def wrong_width_rows(x: Tensor) -> Tensor:
    """An op whose backward hands the row channel a block one column
    short."""
    def backward(g: np.ndarray) -> None:
        x._accumulate_rows(np.array([0, 1]), g[:2, :-1])

    return Tensor._make(x.data * 3.0, (x,), backward)


def forgetful_add(a: Tensor, b: Tensor) -> Tensor:
    """An op whose backward drops one of its parents (orphan bug)."""
    def backward(g: np.ndarray) -> None:
        a._accumulate(g)

    return Tensor._make(a.data + b.data, (a, b), backward)


class TestDetectAnomalyBackward:
    def test_nan_injection_names_offending_op_and_parents(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with detect_anomaly():
            y = bad_scale(x)
            with pytest.raises(AnomalyError) as excinfo:
                y.sum().backward()
        message = str(excinfo.value)
        assert "bad_scale" in message
        assert "(2, 3)" in message
        assert "NaN" in message

    def test_shape_broadcast_bug_is_caught(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        with detect_anomaly():
            y = wrong_shape_scale(x)
            with pytest.raises(AnomalyError) as excinfo:
                y.sum().backward()
        message = str(excinfo.value)
        assert "wrong_shape_scale" in message
        assert "shape mismatch" in message

    def test_gather_overflow_names_getitem(self):
        # Two finite 1e308 rows gathered at one index sum to inf in the
        # gather's backward.
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with detect_anomaly():
            y = x[np.array([1, 1])]
            with pytest.raises(AnomalyError) as excinfo:
                with np.errstate(over="ignore"):
                    y.backward(np.full((2, 2), 1e308))
        message = str(excinfo.value)
        assert "__getitem__" in message
        assert "Inf" in message

    def test_row_block_shape_bug_is_caught(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with detect_anomaly():
            y = wrong_width_rows(x)
            with pytest.raises(AnomalyError) as excinfo:
                y.sum().backward()
        message = str(excinfo.value)
        assert "wrong_width_rows" in message
        assert "shape mismatch" in message

    def test_non_finite_seed_gradient_is_caught(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with detect_anomaly():
            y = x * 2.0
            with pytest.raises(AnomalyError, match="seed gradient"):
                y.backward(np.array([1.0, np.nan, 1.0]))

    def test_corruption_reported_at_first_bad_node_not_downstream(self):
        # The NaN enters in bad_scale's closure; ops stacked on top of it
        # must not be blamed.
        x = Tensor(np.ones(3), requires_grad=True)
        with detect_anomaly():
            y = (bad_scale(x) * 5.0).sum()
            with pytest.raises(AnomalyError) as excinfo:
                y.backward()
        assert "bad_scale" in str(excinfo.value)
        assert "__mul__" not in str(excinfo.value)


class TestDetectAnomalyForward:
    def test_non_finite_forward_output_raises_at_creation(self):
        x = Tensor(np.array([1000.0]), requires_grad=True)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as excinfo:
                with np.errstate(over="ignore"):
                    F.exp(x)  # overflows to inf
        message = str(excinfo.value)
        assert "exp" in message
        assert "forward" in message

    def test_clean_graph_passes_and_instrumentation_is_removed(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with detect_anomaly():
            (F.tanh(x) * x).sum().backward()
        np.testing.assert_allclose(
            x.grad, (np.tanh(1.0) + (1 - np.tanh(1.0) ** 2)) * np.ones((3, 2)))
        # Outside the context the raw engine is back: the same NaN
        # injection now propagates silently instead of raising.
        y = Tensor(np.ones(2), requires_grad=True)
        bad_scale(y).sum().backward()
        assert np.isnan(y.grad).all()

    def test_nesting_is_reentrant(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with detect_anomaly():
            with detect_anomaly():
                (x * x).sum().backward()
            with pytest.raises(AnomalyError):
                bad_scale(x).sum().backward()


class TestValidateGraph:
    def test_clean_mlp_graph_summary(self, rng):
        mlp = MLP([3, 4, 2], rng)
        loss = (mlp(Tensor(rng.normal(size=(5, 3)))) ** 2.0).sum()
        loss.backward()
        stats = validate_graph(loss)
        assert stats["nodes"] > 4
        assert stats["edges"] >= stats["nodes"] - 1
        assert stats["trainable_leaves"] == 4  # 2 weights + 2 biases

    def test_orphaned_parent_detected(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = forgetful_add(a, b).sum()
        out.backward()
        with pytest.raises(GraphError, match="orphaned parent"):
            validate_graph(out)

    def test_cycle_detected(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = a * 2.0
        b._parents = (b,)  # deliberately corrupt the recorded graph
        with pytest.raises(GraphError, match="cycle"):
            validate_graph(b, check_grads=False)

    def test_structure_only_mode_skips_grad_checks(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a * a).sum()  # no backward() call
        stats = validate_graph(out, check_grads=False)
        assert stats["trainable_leaves"] == 1


def test_op_name_recovers_engine_ops():
    x = Tensor(np.ones(2), requires_grad=True)
    assert op_name(F.exp(x)._backward) == "exp"
    assert op_name((x + x)._backward) == "Tensor.__add__"
