"""Shared gradcheck utility tests, including recommender-loss coverage."""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from repro.devtools.gradcheck import (GradcheckError, gradcheck,
                                      gradcheck_param, numeric_gradient)
from repro.nn import Embedding, Tensor, concatenate, stack
from repro.nn import functional as F
from repro.nn import tensor as tensor_module


def buggy_double(x: Tensor) -> Tensor:
    """Forward doubles, backward pretends the factor was 3."""
    def backward(g):
        x._accumulate(g * 3.0)

    return Tensor._make(x.data * 2.0, (x,), backward)


class TestGradcheck:
    def test_accepts_correct_gradient(self):
        x0 = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        gradcheck(lambda x: F.tanh(x).sum(), x0)

    def test_sums_non_scalar_outputs(self):
        gradcheck(lambda x: F.sigmoid(x), np.array([0.3, -0.2]))

    def test_rejects_wrong_gradient_with_index(self):
        with pytest.raises(GradcheckError) as excinfo:
            gradcheck(lambda x: buggy_double(x).sum(), np.array([1.0, 2.0]))
        message = str(excinfo.value)
        assert "analytic=" in message and "numeric=" in message

    def test_rejects_disconnected_input(self):
        with pytest.raises(GradcheckError, match="no gradient"):
            gradcheck(lambda x: Tensor(np.array([1.0])).sum(),
                      np.array([1.0]))

    def test_numeric_gradient_matches_analytic_quadratic(self):
        x0 = np.array([1.0, -2.0, 0.5])
        num = numeric_gradient(lambda arr: float((arr ** 2).sum()), x0)
        np.testing.assert_allclose(num, 2 * x0, atol=1e-6)


class TestGradcheckParam:
    def test_passes_and_restores_parameter(self, rng):
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="w")
        x = rng.normal(size=(4, 3))
        before = w.data.copy()
        gradcheck_param(lambda: (Tensor(x) @ w).sum(), w)
        np.testing.assert_allclose(w.data, before)
        assert w.grad is None

    def test_probes_subset(self, rng):
        w = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        gradcheck_param(lambda: F.tanh(Tensor(np.eye(5)) @ w).sum(), w,
                        probes=[(0, 0), (4, 4), (2, 3)])

    def test_rejects_unused_parameter(self, rng):
        w = Tensor(rng.normal(size=(2,)), requires_grad=True)
        with pytest.raises(GradcheckError, match="no gradient"):
            gradcheck_param(lambda: Tensor(np.ones(2)).sum(), w)

    def test_restores_parameter_even_on_failure(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True, name="p")
        before = x.data.copy()

        def loss():
            return buggy_double(x).sum()

        with pytest.raises(GradcheckError, match="'p'"):
            gradcheck_param(loss, x)
        np.testing.assert_allclose(x.data, before)


#: Kink-free probe point shared by the parity checks: unique values, none
#: within finite-difference reach of the relu/clip/minimum/max breakpoints.
_PARITY_X0 = np.linspace(-1.2, 1.3, 15).reshape(3, 5)
_PARITY_W = np.linspace(-0.4, 0.7, 10).reshape(5, 2)
_PARITY_SPARSE = sp.csr_matrix(np.arange(12, dtype=float).reshape(4, 3) * 0.1)
_PARITY_TARGETS = np.linspace(0.1, 0.9, 15).reshape(3, 5)

#: A two-level tree walk over a five-row table, for the fused tree op:
#: node 4 is the root with children (3, 2) and node 3 has children
#: (0, 1), so the root repeats as a parent.  The last row stops after one
#: decision; its second level is padding, which points at the root and
#: has its gradient taken away by a zero mask, as in the PPO loss.
_TREE_PARENTS = np.array([[4, 3], [4, 3], [4, 4]])
_TREE_LEFT = np.array([[3, 0], [3, 0], [3, 3]])
_TREE_RIGHT = np.array([[2, 1], [2, 1], [2, 2]])
_TREE_CHOICE = np.array([[0, 1], [0, 0], [1, 0]])
_TREE_MASK = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
_TREE_INTERNAL_ROWS = np.linspace(-0.8, 0.9, 10).reshape(2, 5)
_TREE_QUERY = np.linspace(0.6, -0.5, 15).reshape(3, 5)


_TREE_GROUPS = F.ChoiceGroups(_TREE_PARENTS, _TREE_LEFT, _TREE_RIGHT)


def _tree_walk(query: Tensor, table: Tensor) -> Tensor:
    return F.binary_choice_log_probs(
        query, table, _TREE_GROUPS, _TREE_CHOICE) * Tensor(_TREE_MASK)


#: An LSTM of input width 5 and hidden width 2 over three steps, for the
#: fused sequence op: its weight is (7, 8) and its bias (8,).  Each of the
#: three entries below checks the gradient of one of them.
_LSTM_WEIGHT = np.linspace(-0.9, 0.8, 56).reshape(7, 8)
_LSTM_BIAS = np.linspace(-0.3, 0.4, 8)
_LSTM_UPSTREAM = np.linspace(-1.0, 1.5, 18).reshape(3, 3, 2)


def _lstm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    inputs = [x, x * -0.7, x + 0.3]
    return F.lstm_sequence(inputs, weight, bias) * Tensor(_LSTM_UPSTREAM)


def _lstm_weight(x: Tensor) -> Tensor:
    """The fixed weight plus ``x`` in two input rows and both hidden rows."""
    spread = concatenate([x.reshape(1, 15), Tensor(np.zeros((1, 26))),
                          x.reshape(1, 15) * 0.5], axis=1).reshape(7, 8)
    return Tensor(_LSTM_WEIGHT) + spread


#: One numeric gradient check per differentiable op of the engine — the
#: parity test below fails when a new op lands without gradient coverage.
OP_GRADCHECKS = {
    "exp": lambda x: F.exp(x),
    "log": lambda x: F.log(F.exp(x)),
    "sqrt": lambda x: F.sqrt(F.exp(x)),
    "relu": lambda x: F.relu(x) * x,
    "sigmoid": lambda x: F.sigmoid(x),
    "tanh": lambda x: F.tanh(x),
    "softmax": lambda x: F.softmax(x) * x,
    "log_softmax": lambda x: F.log_softmax(x),
    "logsigmoid": lambda x: F.logsigmoid(x),
    "leaky_relu": lambda x: F.leaky_relu(x) * x,
    "clip": lambda x: F.clip(x, -0.5, 0.5) * x,
    "minimum": lambda x: F.minimum(x, Tensor(np.full((3, 5), 0.1))),
    # A fresh seeded rng per call keeps the mask identical across the
    # analytic pass and every finite-difference probe.
    "dropout": lambda x: F.dropout(x, 0.3, np.random.default_rng(0)),
    "spmm": lambda x: F.spmm(_PARITY_SPARSE, x),
    "binary_cross_entropy_with_logits":
        lambda x: F.binary_cross_entropy_with_logits(x, _PARITY_TARGETS),
    "mse_loss": lambda x: F.mse_loss(x, _PARITY_TARGETS),
    # The query gradient, and the table gradient of the three leaf rows
    # (the two internal-node rows are constants stacked under them).
    "binary_choice_log_probs": lambda x: _tree_walk(
        x, Tensor(np.concatenate([_PARITY_X0, _TREE_INTERNAL_ROWS]))),
    "binary_choice_log_probs_table": lambda x: _tree_walk(
        Tensor(_TREE_QUERY), concatenate([x, Tensor(_TREE_INTERNAL_ROWS)])),
    # Row 1 is the right child of node 5 and the left child of node 6:
    # both of its gradient contributions must land.
    "binary_choice_log_probs_shared_child": lambda x: (
        F.binary_choice_log_probs(
            Tensor(_TREE_QUERY[:2]), x, F.ChoiceGroups(
                np.array([[5, 6], [6, 5]]), np.array([[0, 1], [1, 0]]),
                np.array([[1, 2], [2, 1]])),
            np.array([[1, 0], [1, 1]]))),
    "lstm_sequence": lambda x: _lstm(x, Tensor(_LSTM_WEIGHT),
                                     Tensor(_LSTM_BIAS)),
    "lstm_sequence_weight": lambda x: _lstm(
        Tensor(_TREE_QUERY), _lstm_weight(x), Tensor(_LSTM_BIAS)),
    "lstm_sequence_bias": lambda x: _lstm(
        Tensor(_TREE_QUERY), Tensor(_LSTM_WEIGHT),
        Tensor(_LSTM_BIAS) + x.reshape(15)[3:11]),
    "concatenate": lambda x: concatenate([x, x * 2.0], axis=1),
    "stack": lambda x: stack([x, x * 0.5], axis=0),
    "add": lambda x: x + 1.5,
    "sub": lambda x: x - 2.0,
    "mul": lambda x: x * x,
    "div": lambda x: x / 2.5,
    "pow": lambda x: x ** 3.0,
    "neg": lambda x: -x,
    "matmul": lambda x: x @ Tensor(_PARITY_W),
    "getitem": lambda x: x[1:, ::2],
    # Integer-array gathers take the row-sparse rule; a repeated id must
    # collect the gradient of every position that names it.
    "getitem_rows": lambda x: x[np.array([2, 0, 2])] * Tensor(_PARITY_TARGETS),
    "getitem_rows_2d": lambda x: x[np.array([[1, 2], [2, 0]])] * Tensor(
        np.linspace(0.5, 2.0, 20).reshape(2, 2, 5)),
    "reshape": lambda x: x.reshape(5, 3) * 2.0,
    "transpose": lambda x: x.transpose(1, 0) * 3.0,
    "sum": lambda x: x.sum(axis=0),
    "mean": lambda x: x.mean(),
    "max": lambda x: x.max(),
}


def _builds_node(fn) -> bool:
    return inspect.isfunction(fn) and "_make" in fn.__code__.co_names


def engine_ops() -> set:
    """Every differentiable op of ``repro.nn``, read off the engine.

    The public functions of ``repro.nn.functional``, and the functions
    of ``repro.nn.tensor`` (``concatenate``, ``stack``) and methods of
    ``Tensor`` that make a graph node through ``Tensor._make``, one name
    per function object (``__radd__`` is ``__add__``), spelled as their
    :data:`OP_GRADCHECKS` keys.
    """
    ops = {name for name, fn in vars(F).items()
           if inspect.isfunction(fn) and fn.__module__ == F.__name__
           and not name.startswith("_")}
    ops |= {name for name, fn in vars(tensor_module).items()
            if _builds_node(fn) and fn.__module__ == tensor_module.__name__}
    methods = {}
    for name, fn in vars(Tensor).items():
        if _builds_node(fn):
            methods.setdefault(fn, name.strip("_"))
    ops |= {"div" if name == "truediv" else name
            for name in methods.values()}
    return ops


class TestSymbolicOpParity:
    """Every differentiable op of the engine has gradient coverage."""

    def test_covers_every_symbolic_op(self):
        assert engine_ops() - set(OP_GRADCHECKS) == set()

    @pytest.mark.parametrize("name", sorted(OP_GRADCHECKS))
    def test_gradcheck(self, name):
        gradcheck(OP_GRADCHECKS[name], _PARITY_X0.copy())


class TestBPRLossEndToEnd:
    """Gradcheck the BPR pairwise loss through embeddings + logsigmoid.

    This is the differentiable form of the loss BPR's hand-vectorized SGD
    implements (``repro/recsys/bpr.py``): ``-log sigmoid(x_ui - x_uj)``
    with L2 regularization, checked end-to-end from embedding tables to
    the scalar loss.
    """

    @pytest.fixture()
    def triples(self, rng):
        users = np.array([0, 1, 2, 1])
        positives = np.array([0, 2, 1, 3])
        negatives = np.array([3, 0, 3, 2])
        user_emb = Embedding(3, 4, rng, std=0.3)
        item_emb = Embedding(5, 4, rng, std=0.3)
        reg = 0.05

        def loss():
            pu = user_emb(users)
            qi = item_emb(positives)
            qj = item_emb(negatives)
            scores = (pu * (qi - qj)).sum(axis=1)
            penalty = ((pu * pu).sum() + (qi * qi).sum()
                       + (qj * qj).sum()) * reg
            return -F.logsigmoid(scores).sum() + penalty

        return user_emb, item_emb, loss

    def test_user_factors_gradient(self, triples):
        user_emb, _, loss = triples
        gradcheck_param(loss, user_emb.weight, atol=1e-4)

    def test_item_factors_gradient(self, triples):
        _, item_emb, loss = triples
        gradcheck_param(loss, item_emb.weight, atol=1e-4)

    def test_matches_bpr_hand_rolled_gradient(self, triples):
        # The ranker's closed-form gradient (bpr.py's _sgd_epochs) must
        # agree with autograd on the unregularized pairwise term.
        user_emb, item_emb, _ = triples
        users = np.array([0, 1])
        pos = np.array([1, 2])
        neg = np.array([4, 0])

        pu = user_emb(users)
        qi = item_emb(pos)
        qj = item_emb(neg)
        loss = -F.logsigmoid((pu * (qi - qj)).sum(axis=1)).sum()
        user_emb.weight.zero_grad()
        item_emb.weight.zero_grad()
        loss.backward()

        pu_d = user_emb.weight.data[users]
        qi_d = item_emb.weight.data[pos]
        qj_d = item_emb.weight.data[neg]
        x = (pu_d * (qi_d - qj_d)).sum(axis=1)
        sig = 1.0 / (1.0 + np.exp(np.clip(x, -60, 60)))
        expected_user = -sig[:, None] * (qi_d - qj_d)
        np.testing.assert_allclose(user_emb.weight.grad[users],
                                   expected_user, atol=1e-10)
        np.testing.assert_allclose(item_emb.weight.grad[pos],
                                   -sig[:, None] * pu_d, atol=1e-10)
        np.testing.assert_allclose(item_emb.weight.grad[neg],
                                   sig[:, None] * pu_d, atol=1e-10)
