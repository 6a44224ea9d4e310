"""Differentiable elementwise and reduction operations on :class:`Tensor`.

These free functions complement the operator overloads on
:class:`~repro.nn.tensor.Tensor` with the non-linearities and losses the
recommenders and the PoisonRec policy network need.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, row_sums, unbroadcast

_EPS = 1e-12


def exp(x: Tensor) -> Tensor:
    """Elementwise ``e**x``."""
    out_data = np.exp(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * out_data)

    return Tensor._make(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural log (inputs clamped away from zero)."""
    def backward(g: np.ndarray) -> None:
        x._accumulate(g / np.maximum(x.data, _EPS))

    return Tensor._make(np.log(np.maximum(x.data, _EPS)), (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    out_data = np.sqrt(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * 0.5 / np.maximum(out_data, _EPS))

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit: ``max(x, 0)``."""
    mask = (x.data > 0).astype(x.data.dtype)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    out_data = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    out_data = np.tanh(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (1.0 - out_data ** 2))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-stabilized softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        # d softmax: s * (g - sum(g * s))
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-stabilized log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    soft = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Differentiable clamp: the gradient is zero outside ``[low, high]``."""
    mask = ((x.data >= low) & (x.data <= high)).astype(x.data.dtype)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(np.clip(x.data, low, high), (x,), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum; the gradient routes to the smaller input."""
    mask_a = (a.data <= b.data).astype(a.data.dtype)

    def backward(g: np.ndarray) -> None:
        a._accumulate(unbroadcast(g * mask_a, a.shape))
        b._accumulate(unbroadcast(g * (1.0 - mask_a), b.shape))

    return Tensor._make(np.minimum(a.data, b.data), (a, b), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """Leaky ReLU (NGCF's activation): ``x`` if positive else ``slope * x``."""
    mask = (x.data > 0).astype(x.data.dtype)
    factor = mask + slope * (1.0 - mask)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * factor)

    return Tensor._make(x.data * factor, (x,), backward)


def spmm(sparse_matrix, x: Tensor) -> Tensor:
    """Sparse-dense product ``A @ x`` where ``A`` is a scipy sparse matrix.

    ``A`` is treated as a constant (no gradient); the gradient w.r.t. ``x``
    is ``A.T @ g``.  NGCF's embedding propagation uses this so the
    normalized bipartite adjacency never needs to be densified.
    """
    out_data = sparse_matrix @ x.data
    transposed = sparse_matrix.T

    def backward(g: np.ndarray) -> None:
        x._accumulate(transposed @ g)

    return Tensor._make(np.asarray(out_data), (x,), backward)


def binary_choice_log_probs(query: Tensor, table: Tensor,
                            parents: np.ndarray, left: np.ndarray,
                            right: np.ndarray, choice: np.ndarray) -> Tensor:
    """Log-probabilities of recorded two-way choices between table rows.

    Decision ``(b, d)`` chose ``choice[b, d]`` (0 = left, 1 = right)
    between rows ``left[b, d]`` and ``right[b, d]`` of ``table``, the
    children of node ``parents[b, d]``, with logits ``query[b] @
    table[child]``.  Returns the ``(B, D)`` log-probabilities of the
    chosen children under a two-way log-softmax.  This is one BCBT tree
    walk (Equation 9): all of its levels are one graph node.

    Every occurrence of a parent must name the same two children.  The
    forward runs the same numpy operations as a per-decision product,
    sum and log-softmax, so its values are bit-equal to them.  The
    backward uses that the right logit's gradient is minus the left
    one's: it sums ``gradient * query`` once per distinct parent (one
    sparse matmul), then adds the sum to the left child's row and
    subtracts it from the right child's row.
    """
    left_rows = table.data[left]
    right_rows = table.data[right]
    q = query.data[:, None, :]
    logits = np.stack([(q * left_rows).sum(axis=-1),
                       (q * right_rows).sum(axis=-1)], axis=-1)
    row_gap = left_rows - right_rows
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = np.take_along_axis(log_probs, choice[..., None], axis=-1)[..., 0]
    # d out / d left logit; the right logit's derivative is its negative.
    left_slope = (choice == 0) - np.exp(log_probs[..., 0])

    # Group the decisions by parent, in CSR order (row = distinct parent,
    # column = batch row), and check that each parent's children agree.
    flat = parents.ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    indptr = np.r_[starts, flat.size]
    children = [child.ravel()[order] for child in (left, right)]
    if any(not np.array_equal(np.repeat(c[starts], np.diff(indptr)), c)
           for c in children):
        raise ValueError("every occurrence of a parent must name the same "
                         "left and right children")
    rows = np.concatenate([c[starts] for c in children])
    distinct = len(np.unique(rows)) == len(rows)
    batch_rows = order // parents.shape[1]

    def backward(g: np.ndarray) -> None:
        slope = g * left_slope
        if query.requires_grad:
            query._accumulate(np.matmul(slope[:, None, :], row_gap)[:, 0])
        if table.requires_grad:
            by_parent = sp.csr_matrix(
                (slope.ravel()[order], batch_rows, indptr),
                shape=(len(starts), len(query.data)))
            per_parent = by_parent @ query.data
            block = np.concatenate([per_parent, -per_parent])
            if distinct:
                table._accumulate_rows(rows, block)
            else:
                table._accumulate_rows(*row_sums(rows, block, table.shape))

    return Tensor._make(out_data, (query, table), backward)


def binary_cross_entropy_with_logits(logits: Tensor,
                                     targets: np.ndarray) -> Tensor:
    """Numerically stable BCE over raw logits.

    ``loss = max(z, 0) - z * y + log(1 + exp(-|z|))``, averaged over
    elements.  Used by NeuMF and AutoRec.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype)
    z = logits.data
    loss_data = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    prob = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
    scale = 1.0 / max(z.size, 1)

    def backward(g: np.ndarray) -> None:
        logits._accumulate(g * (prob - targets) * scale)

    return Tensor._make(np.array(loss_data.mean()), (logits,), backward)


def logsigmoid(x: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))``; used by the BPR loss."""
    z = x.data
    out_data = np.where(z >= 0, -np.log1p(np.exp(-z)), z - np.log1p(np.exp(z)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (1.0 - sig))

    return Tensor._make(out_data, (x,), backward)


def mse_loss(pred: Tensor, target: np.ndarray,
             weight: np.ndarray | None = None) -> Tensor:
    """Mean squared error with an optional per-element weight mask."""
    target = np.asarray(target, dtype=pred.data.dtype)
    diff = pred - Tensor(target)
    sq = diff * diff
    if weight is not None:
        sq = sq * Tensor(np.asarray(weight, dtype=pred.data.dtype))
        denom = max(float(np.sum(weight)), 1.0)
        return sq.sum() * (1.0 / denom)
    return sq.mean()


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(x.data * mask, (x,), backward)
