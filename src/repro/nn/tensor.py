"""A minimal reverse-mode automatic differentiation engine on numpy arrays.

This module is the neural substrate of the reproduction: every neural
recommender (PMF, BPR, NeuMF, AutoRec, GRU4Rec, NGCF) and the PoisonRec
policy network (LSTM + DNN) is built on :class:`Tensor`.

The design mirrors the core of larger frameworks at a small scale:

* a :class:`Tensor` wraps an ``np.ndarray`` plus an optional gradient and a
  backward closure,
* operators record their inputs and a function that propagates the output
  gradient to each input,
* :meth:`Tensor.backward` runs a topological sort over the recorded graph
  and accumulates gradients.

Broadcasting is fully supported: gradients flowing into a broadcast input
are summed back to the input's original shape by :func:`unbroadcast`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ..effects import sanctioned_channel

ArrayLike = Union[np.ndarray, float, int, Sequence]

_FLOAT = np.float64


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    When an input of shape ``shape`` was broadcast to produce an output, the
    gradient w.r.t. that input is the output gradient summed over every axis
    that was expanded.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def row_sums(ids: np.ndarray, values: np.ndarray,
             shape: tuple) -> tuple:
    """Sum the rows of ``values`` by id into a compact block.

    ``ids`` indexes the first axis of a table of shape ``shape`` (negative
    ids wrap, as in numpy) and ``values`` has shape
    ``ids.shape + shape[1:]``.  Returns ``(rows, block)``: the distinct
    row ids, ascending, and ``block[k]``, the sum of every ``values`` row
    whose id is ``rows[k]``.  Each row receives the same additions in the
    same order as ``np.add.at`` on a dense zero table, so
    ``table[rows] += block`` is bit-equal to adding that dense table to
    ``table`` (rows no id touches are left alone instead of getting
    ``+ 0.0``).
    """
    rows, inverse = np.unique(ids.ravel() % shape[0], return_inverse=True)
    width = math.prod(shape[1:])
    block = np.zeros((len(rows),) + tuple(shape[1:]), dtype=_FLOAT)
    # The flattened 1-D form: bit-equal to the 2-D ``np.add.at``, and
    # several times faster.
    flat = (inverse[:, None] * width + np.arange(width)).ravel()
    np.add.at(block.reshape(-1), flat, np.reshape(values, -1))
    return rows, block


def _is_basic_index(idx) -> bool:
    """Whether ``idx`` is a numpy basic index of integers and slices."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(part, slice) or part is Ellipsis
               or (isinstance(part, (int, np.integer))
                   and not isinstance(part, bool))
               for part in parts)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array data; copied to ``float64`` unless already a float array.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: str = "") -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_FLOAT)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The single scalar value of a 1-element tensor."""
        return float(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        parents = tuple(parents)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=_FLOAT)
        self.grad += grad

    def _accumulate_rows(self, rows: np.ndarray, block: np.ndarray) -> None:
        """Add ``block[k]`` into gradient row ``rows[k]`` (distinct rows)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=_FLOAT)
        self.grad[rows] += block

    def _accumulate_region(self, idx, grad: np.ndarray) -> None:
        """Add ``grad`` into the gradient region ``self.grad[idx]``.

        ``idx`` is a basic index (integers and slices), so the region's
        entries are distinct and ``+=`` adds each exactly once.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=_FLOAT)
        self.grad[idx] += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    @sanctioned_channel
    def assign_(self, data: ArrayLike, copy: bool = True) -> "Tensor":
        """Replace the underlying array in place (sanctioned mutation).

        graphlint's REP003 forbids ad-hoc ``t.data = ...`` writes; state
        loading (snapshot restore, policy deserialization, gradcheck
        perturbations) funnels through here so shape drift is caught at
        the boundary instead of corrupting a later matmul.
        """
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_FLOAT)
        elif copy:
            arr = arr.copy()
        if arr.shape != self.data.shape:
            raise ValueError(
                f"assign_ shape mismatch: tensor has shape "
                f"{self.data.shape}, got {arr.shape}")
        self.data = arr
        return self

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}")
            grad = np.ones_like(self.data, dtype=_FLOAT)
        grad = np.asarray(grad, dtype=_FLOAT)

        # Topological order over the graph reachable from self.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        # Each op's backward closure accumulates into its parents' ``.grad``
        # directly.  Processing nodes in reverse topological order guarantees
        # a node's ``.grad`` is complete before its own closure runs.
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            a._accumulate(unbroadcast(g, a.shape))
            b._accumulate(unbroadcast(g, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            a._accumulate(-g)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            a._accumulate(unbroadcast(g * b.data, a.shape))
            b._accumulate(unbroadcast(g * a.data, b.shape))

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            a._accumulate(unbroadcast(g / b.data, a.shape))
            b._accumulate(unbroadcast(-g * a.data / (b.data ** 2), b.shape))

        return Tensor._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        a = self
        p = float(exponent)

        def backward(g: np.ndarray) -> None:
            a._accumulate(g * p * np.power(a.data, p - 1.0))

        return Tensor._make(np.power(a.data, p), (a,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                if b.data.ndim == 1:
                    a._accumulate(np.outer(g, b.data)
                                  if g.ndim == 1 and a.data.ndim == 2
                                  else unbroadcast(
                                      np.expand_dims(g, -1) * b.data, a.shape))
                else:
                    ga = g @ np.swapaxes(b.data, -1, -2)
                    a._accumulate(unbroadcast(ga, a.shape))
            if b.requires_grad:
                if a.data.ndim == 1:
                    gb = np.outer(a.data, g) if g.ndim == 1 else None
                    if gb is None:
                        gb = np.expand_dims(a.data, -1) * np.expand_dims(g, 0)
                    b._accumulate(unbroadcast(gb, b.shape))
                else:
                    gb = np.swapaxes(a.data, -1, -2) @ g
                    b._accumulate(unbroadcast(gb, b.shape))

        return Tensor._make(a.data @ b.data, (a, b), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Differentiable reshape to ``shape``."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.shape

        def backward(g: np.ndarray) -> None:
            a._accumulate(g.reshape(original))

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Differentiable axis permutation (reverses all axes by default)."""
        a = self
        axes_t = tuple(axes) if axes else tuple(range(a.ndim))[::-1]
        inverse = tuple(np.argsort(axes_t))

        def backward(g: np.ndarray) -> None:
            a._accumulate(g.transpose(inverse))

        return Tensor._make(a.data.transpose(axes_t), (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        a = self
        # A row gather (embedding lookup, feature-table rows) gives only
        # the gathered rows a gradient; a basic index (a slice, a gate
        # block) only its region.  Other fancy indices may repeat an
        # entry, so they add through a dense ``np.add.at``.
        gathers_rows = isinstance(idx, np.ndarray) and idx.dtype.kind in "iu"
        basic = _is_basic_index(idx)

        def backward(g: np.ndarray) -> None:
            if gathers_rows:
                a._accumulate_rows(*row_sums(idx, g, a.shape))
            elif basic:
                a._accumulate_region(idx, g)
            else:
                full = np.zeros_like(a.data, dtype=_FLOAT)
                np.add.at(full, idx, g)
                a._accumulate(full)

        return Tensor._make(a.data[idx], (a,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable sum over ``axis`` (all elements by default)."""
        a = self

        def backward(g: np.ndarray) -> None:
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.shape).astype(_FLOAT))
                return
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g_expanded, a.shape).astype(_FLOAT))

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                            backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable mean over ``axis``."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[ax] for ax in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable max; ties split the gradient evenly."""
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            expanded = out_data if keepdims or axis is None else (
                np.expand_dims(out_data, axis))
            mask = (a.data == expanded).astype(_FLOAT)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            g_expanded = g if keepdims or axis is None else (
                np.expand_dims(g, axis))
            a._accumulate(mask * g_expanded)

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Comparison (non-differentiable; returns numpy arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data > other_data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data < other_data


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    parts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            part._accumulate(g[tuple(slicer)])

    data = np.concatenate([p.data for p in parts], axis=axis)
    return Tensor._make(data, parts, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    parts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]

    def backward(g: np.ndarray) -> None:
        for i, part in enumerate(parts):
            part._accumulate(np.take(g, i, axis=axis))

    data = np.stack([p.data for p in parts], axis=axis)
    return Tensor._make(data, parts, backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce a value to a :class:`Tensor` (no copy if already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
