"""Differentiable elementwise and reduction operations on :class:`Tensor`.

These free functions complement the operator overloads on
:class:`~repro.nn.tensor.Tensor` with the non-linearities and losses the
recommenders and the PoisonRec policy network need.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .spec import shape_spec
from .tensor import Tensor, row_sums, unbroadcast

_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-clip(z, -60, 60)))`` on arrays, in one buffer."""
    out = np.maximum(z, -60.0)
    np.minimum(out, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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
    out_data = _sigmoid(x.data)

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


def _lstm_step(x: np.ndarray, h: np.ndarray, c: np.ndarray,
               weight: np.ndarray, bias: np.ndarray) -> tuple:
    """One LSTM step on arrays: ``LSTMCell.__call__``'s math, no graph.

    Returns ``(h, c, combined, gates, tanh_c)``: the new state, the
    ``[x, h]`` rows the gate matmul reads, the activated ``[i, f, g, o]``
    gates as one ``(B, 4H)`` array, and ``tanh(c)``.  Every value comes
    from the same numpy operations as the cell's graph, so it is
    bit-equal to it.
    """
    combined = np.concatenate([x, h], axis=1)
    gates = combined @ weight
    gates += bias
    hidden = h.shape[1]
    g = np.tanh(gates[:, 2 * hidden:3 * hidden])
    # One sigmoid pass over all four blocks, then g's block is the tanh.
    gates = _sigmoid(gates)
    gates[:, 2 * hidden:3 * hidden] = g
    i, f = gates[:, :hidden], gates[:, hidden:2 * hidden]
    o = gates[:, 3 * hidden:]
    c = f * c + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, combined, gates, tanh_c


@shape_spec("[(B, I)], (_, G), (G) -> (B, T, H)")
def lstm_sequence(inputs: Sequence[Tensor], weight: Tensor,
                  bias: Tensor) -> Tensor:
    """An LSTM over ``inputs`` from a zero state, as one graph node.

    ``inputs`` are the ``T`` per-step ``(B, I)`` inputs in time order;
    ``weight`` ``(I + H, 4H)`` and ``bias`` ``(4H,)`` are an
    :class:`~repro.nn.LSTMCell`'s gate parameters.  Returns the ``(B, T,
    H)`` hidden states.  The forward runs the per-step kernel the
    policy's rollout samples with, so its values are bit-equal to a
    chain of ``LSTMCell`` calls.  The backward is hand-written BPTT,
    from the last step down, and adds each step's weight and bias
    gradient in that order, as the cell graph does.

    The op lists its inputs newest first, so ``Tensor.backward`` runs
    their own backward from the last step down, again as the cell graph
    does.  When the inputs gather from one table, the table sums their
    gradients in that order, and its gradient stays bit-equal too.
    """
    if not inputs:
        raise ValueError("lstm_sequence requires at least one input step")
    batch, width = inputs[0].shape
    hidden = weight.shape[1] // 4
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    out_data = np.empty((batch, len(inputs), hidden))
    cells = [c]
    caches = []
    for t, x in enumerate(inputs):
        h, c, *cache = _lstm_step(x.data, h, c, weight.data, bias.data)
        out_data[:, t] = h
        cells.append(c)
        caches.append(cache)
    g_block = slice(2 * hidden, 3 * hidden)

    def backward(g: np.ndarray) -> None:
        dh_next = dc_next = None
        for t in range(len(inputs) - 1, -1, -1):
            combined, gates, tanh_c = caches[t]
            i, f, gate, o = np.split(gates, 4, axis=1)
            dh = g[:, t] if dh_next is None else g[:, t] + dh_next
            dc = dh * o * (1.0 - tanh_c ** 2)
            if dc_next is not None:
                dc = dc + dc_next
            # Each gate's gradient, times ``s * (1 - s)`` for a sigmoid
            # gate and ``1 - g ** 2`` for the tanh one, multiplied in the
            # order the cell graph's ops multiply.
            dgates = np.concatenate([dc * gate, dc * cells[t], dc * i,
                                     dh * tanh_c], axis=1)
            dg = dgates[:, g_block] * (1.0 - gate ** 2)
            dgates *= gates
            dgates *= 1.0 - gates
            dgates[:, g_block] = dg
            if weight.requires_grad:
                weight._accumulate(combined.T @ dgates)
            if bias.requires_grad:
                bias._accumulate(dgates.sum(axis=0))
            dcombined = dgates @ weight.data.T
            inputs[t]._accumulate(dcombined[:, :width])
            dh_next = dcombined[:, width:]
            dc_next = dc * f

    return Tensor._make(out_data, (*reversed(inputs), weight, bias),
                        backward)


class ChoiceGroups:
    """Recorded two-way choices between table rows, grouped by parent.

    Decision ``(b, d)`` chose between rows ``left[b, d]`` and ``right[b,
    d]`` of a table, the children of node ``parents[b, d]``; all three
    arrays are ``(B, D)``.  Every occurrence of a parent must name the
    same two children (``ValueError`` otherwise).  The grouping depends
    on the decisions only, so a caller that recomputes their
    log-probabilities several times (the K epochs of a PPO update)
    builds it once and passes it to every
    :func:`binary_choice_log_probs` call.

    A decision whose parent is its row's level-0 parent repeats that
    decision's logits: a BCBT walk pads its levels with the root.  Only
    the other, real decisions compute logits, and decision ``k`` (flat
    index) reads those of the ``source[k]``-th real decision.
    """

    def __init__(self, parents: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> None:
        self.shape = parents.shape
        depth = parents.shape[1]
        is_real = (parents != parents[:, :1]).ravel()
        is_real[::depth] = True
        real = np.flatnonzero(is_real)
        position = np.cumsum(is_real) - 1
        self.source = np.where(is_real, position,
                               np.repeat(position[::depth], depth))
        self.real_rows = real // depth
        self.real_left = left.ravel()[real]
        self.real_right = right.ravel()[real]

        # Group the decisions by parent, in CSR order (row = distinct
        # parent, column = batch row), and check that each parent's
        # children agree.
        flat = parents.ravel()
        self.order = np.argsort(flat, kind="stable")
        ordered = flat[self.order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        self.indptr = np.r_[starts, flat.size]
        children = [child.ravel()[self.order] for child in (left, right)]
        if any(not np.array_equal(np.repeat(c[starts], np.diff(self.indptr)),
                                  c) for c in children):
            raise ValueError("every occurrence of a parent must name the "
                             "same left and right children")
        self.rows = np.concatenate([c[starts] for c in children])
        self.distinct = len(np.unique(self.rows)) == len(self.rows)
        self.batch_rows = self.order // depth


def binary_choice_log_probs(query: Tensor, table: Tensor,
                            groups: ChoiceGroups,
                            choice: np.ndarray) -> Tensor:
    """Log-probabilities of recorded two-way choices between table rows.

    ``groups`` holds the ``(B, D)`` decisions; decision ``(b, d)`` chose
    ``choice[b, d]`` (0 = left, 1 = right) between its two child rows of
    ``table``, with logits ``query[b] @ table[child]``.  Returns the
    ``(B, D)`` log-probabilities of the chosen children under a two-way
    log-softmax.  This is one BCBT tree walk (Equation 9): all of its
    levels are one graph node.

    The forward runs the same numpy operations as a per-decision
    product, sum and log-softmax, for the real decisions only, and fills
    each repeated decision from its source, so every value is bit-equal
    to those operations.  The backward uses that the right logit's
    gradient is minus the left one's: it sums ``gradient * query`` once
    per distinct parent (one sparse matmul), then adds the sum to the
    left child's row and subtracts it from the right child's row.
    """
    left_rows = table.data[groups.real_left]
    right_rows = table.data[groups.real_right]
    row_gap = left_rows - right_rows
    # The products overwrite the gathered rows: at this size every fresh
    # array costs page faults.
    queries = query.data[groups.real_rows]
    left_rows *= queries
    right_rows *= queries
    left_logit = left_rows.sum(axis=-1)
    right_logit = right_rows.sum(axis=-1)
    # The two-way log-softmax column by column: the same values as a
    # row-wise one, without numpy's per-row cost of reducing two entries.
    top = np.maximum(left_logit, right_logit)
    left_shift = left_logit - top
    right_shift = right_logit - top
    log_norm = np.log(np.exp(left_shift) + np.exp(right_shift))
    left_lp = (left_shift - log_norm)[groups.source].reshape(groups.shape)
    right_lp = (right_shift - log_norm)[groups.source].reshape(groups.shape)
    out_data = np.where(choice == 0, left_lp, right_lp)
    # d out / d left logit; the right logit's derivative is its negative.
    left_slope = (choice == 0) - np.exp(left_lp)

    def backward(g: np.ndarray) -> None:
        slope = g * left_slope
        if query.requires_grad:
            gaps = row_gap[groups.source].reshape(groups.shape + (-1,))
            query._accumulate(np.matmul(slope[:, None, :], gaps)[:, 0])
        if table.requires_grad:
            by_parent = sp.csr_matrix(
                (slope.ravel()[groups.order], groups.batch_rows,
                 groups.indptr),
                shape=(len(groups.indptr) - 1, len(query.data)))
            per_parent = by_parent @ query.data
            block = np.concatenate([per_parent, -per_parent])
            if groups.distinct:
                table._accumulate_rows(groups.rows, block)
            else:
                table._accumulate_rows(*row_sums(groups.rows, block,
                                                 table.shape))

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
    prob = _sigmoid(z)
    scale = 1.0 / max(z.size, 1)

    def backward(g: np.ndarray) -> None:
        logits._accumulate(g * (prob - targets) * scale)

    return Tensor._make(np.array(loss_data.mean()), (logits,), backward)


def logsigmoid(x: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))``; used by the BPR loss."""
    z = x.data
    out_data = np.where(z >= 0, -np.log1p(np.exp(-z)), z - np.log1p(np.exp(z)))
    sig = _sigmoid(z)

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
