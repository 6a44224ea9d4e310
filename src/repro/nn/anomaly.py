"""Autograd sanitizer: anomaly detection for the closure-graph engine.

Two complementary tools, both built for :class:`~repro.nn.tensor.Tensor`'s
closure-based graph (the analogue of ``torch.autograd.set_detect_anomaly``):

* :class:`detect_anomaly` — a context manager that instruments every op
  created inside it.  Forward outputs are checked for NaN/Inf as each
  graph node is built; every gradient accumulated during ``backward()``,
  dense, as a gather's row block or into a slice's region, is checked
  for NaN/Inf and for silent shape broadcasts.  The *first* corrupted
  node raises :class:`AnomalyError` naming the offending op and the
  shapes of its parents, instead of letting the corruption propagate
  into PPO's reward normalization or a recommender's update step.
* :func:`validate_graph` — a post-``backward()`` structural validator:
  confirms the recorded graph admits a topological order (no cycles) and
  that no backward closure orphaned one of its differentiable parents
  (a closure that forgets to ``_accumulate`` leaves ``grad is None``).

Anomaly mode costs one ``np.isfinite`` sweep per op and is meant for
tests and debugging runs, not the benchmark hot path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


class AnomalyError(RuntimeError):
    """A NaN/Inf value or shape corruption detected by anomaly mode."""


class GraphError(AnomalyError):
    """A structural defect (cycle, orphaned parent) in a recorded graph."""


def op_name(backward) -> str:
    """Human-readable op name recovered from a backward closure.

    Every op in the engine defines its gradient rule as a local function
    named ``backward``, so the closure's qualname encodes the op that
    created it (``exp.<locals>.backward`` -> ``exp``).
    """
    qual = getattr(backward, "__qualname__", "") or ""
    if ".<locals>." in qual:
        return qual.rsplit(".<locals>.", 1)[0]
    return qual or getattr(backward, "__name__", "<unknown op>")


def _shapes(parents: Tuple[Tensor, ...]) -> str:
    return ", ".join(str(p.shape) for p in parents) or "(none)"


class _AnomalyState:
    """Shared bookkeeping for (possibly nested) anomaly contexts."""

    def __init__(self) -> None:
        self.depth = 0
        self.current_op: Optional[str] = None
        self.current_parents: Tuple[Tensor, ...] = ()
        self.original_make = None
        self.original_accumulate = None
        self.original_accumulate_rows = None
        self.original_accumulate_region = None


_STATE = _AnomalyState()


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        bad = arr[~np.isfinite(np.asarray(arr))]
        kind = "NaN" if np.any(np.isnan(bad)) else "Inf"
        raise AnomalyError(f"{kind} detected in {what}")


def _checked_make(data, parents, backward) -> Tensor:
    parents = tuple(parents)
    op = op_name(backward)
    _require_finite(np.asarray(data),
                    f"forward output of '{op}' "
                    f"(parent shapes: {_shapes(parents)})")

    def checked_backward(g: np.ndarray) -> None:
        _require_finite(
            np.asarray(g),
            f"upstream gradient entering backward of '{op}' "
            f"(parent shapes: {_shapes(parents)})")
        prev = (_STATE.current_op, _STATE.current_parents)
        _STATE.current_op, _STATE.current_parents = op, parents
        try:
            backward(g)
        finally:
            _STATE.current_op, _STATE.current_parents = prev

    checked_backward.__qualname__ = getattr(backward, "__qualname__",
                                            checked_backward.__qualname__)
    return _STATE.original_make(data, parents, checked_backward)


def _where() -> str:
    return (f"backward of '{_STATE.current_op}' (parent shapes: "
            f"{_shapes(_STATE.current_parents)})"
            if _STATE.current_op is not None
            else "the seed gradient passed to backward()")


def _checked_accumulate(self: Tensor, grad: np.ndarray) -> None:
    if self.requires_grad:
        where = _where()
        arr = np.asarray(grad)
        if arr.shape != self.data.shape:
            raise AnomalyError(
                f"shape mismatch in {where}: accumulating gradient of "
                f"shape {arr.shape} into a tensor of shape "
                f"{self.data.shape} — a silent broadcast would corrupt "
                "the update")
        _require_finite(arr, f"gradient produced by {where} for a parent "
                             f"of shape {self.data.shape}")
    _STATE.original_accumulate(self, grad)


def _checked_accumulate_rows(self: Tensor, rows: np.ndarray,
                             block: np.ndarray) -> None:
    if self.requires_grad:
        where = _where()
        if block.shape != (len(rows),) + self.data.shape[1:]:
            raise AnomalyError(
                f"shape mismatch in {where}: accumulating a row block of "
                f"shape {block.shape} for {len(rows)} rows into a tensor "
                f"of shape {self.data.shape}")
        _require_finite(block, f"gradient produced by {where} for a "
                               f"parent of shape {self.data.shape}")
    _STATE.original_accumulate_rows(self, rows, block)


def _checked_accumulate_region(self: Tensor, idx, grad: np.ndarray) -> None:
    if self.requires_grad:
        where = _where()
        region = self.data[idx].shape
        if np.shape(grad) != region:
            raise AnomalyError(
                f"shape mismatch in {where}: accumulating gradient of "
                f"shape {np.shape(grad)} into a region of shape {region} "
                f"of a tensor of shape {self.data.shape}")
        _require_finite(np.asarray(grad),
                        f"gradient produced by {where} for a parent of "
                        f"shape {self.data.shape}")
    _STATE.original_accumulate_region(self, idx, grad)


class detect_anomaly:
    """Context manager enabling the autograd sanitizer.

    >>> from repro.nn import Tensor, detect_anomaly
    >>> with detect_anomaly():
    ...     loss = model(batch)
    ...     loss.backward()          # raises AnomalyError at the first
    ...                              # corrupted op instead of training on it

    Only ops *created inside* the context are instrumented; entering is
    reentrant (nesting is a no-op) but not thread-safe.
    """

    def __enter__(self) -> "detect_anomaly":
        if _STATE.depth == 0:
            _STATE.original_make = Tensor._make
            _STATE.original_accumulate = Tensor._accumulate
            _STATE.original_accumulate_rows = Tensor._accumulate_rows
            _STATE.original_accumulate_region = Tensor._accumulate_region
            Tensor._make = staticmethod(_checked_make)
            Tensor._accumulate = _checked_accumulate
            Tensor._accumulate_rows = _checked_accumulate_rows
            Tensor._accumulate_region = _checked_accumulate_region
        _STATE.depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.depth -= 1
        if _STATE.depth == 0:
            Tensor._make = staticmethod(_STATE.original_make)
            Tensor._accumulate = _STATE.original_accumulate
            Tensor._accumulate_rows = _STATE.original_accumulate_rows
            Tensor._accumulate_region = _STATE.original_accumulate_region
            _STATE.original_make = None
            _STATE.original_accumulate = None
            _STATE.original_accumulate_rows = None
            _STATE.original_accumulate_region = None
            _STATE.current_op = None
            _STATE.current_parents = ()


def _iter_graph(root: Tensor) -> Iterator[Tensor]:
    """Yield every node reachable from ``root`` through ``_parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)


def validate_graph(root: Tensor, check_grads: bool = True) -> Dict[str, int]:
    """Structurally validate the autograd graph reachable from ``root``.

    Checks, raising :class:`GraphError` on the first defect:

    * the graph admits a topological order (a cycle would make
      ``backward()``'s gradient accumulation order undefined);
    * with ``check_grads`` (call after ``root.backward()``): every
      differentiable parent of every recorded op actually received a
      gradient — an orphaned parent means a backward closure dropped one
      of its inputs — and no accumulated gradient disagrees with its
      tensor's shape.

    Returns summary statistics: node, edge, and trainable-leaf counts.
    """
    # Iterative DFS with gray/black coloring to detect back edges.
    GRAY, BLACK = 1, 2
    color: Dict[int, int] = {}
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    nodes: List[Tensor] = []
    edges = 0
    while stack:
        node, leaving = stack.pop()
        if leaving:
            color[id(node)] = BLACK
            continue
        state = color.get(id(node))
        if state == BLACK:
            continue
        if state == GRAY:
            continue
        color[id(node)] = GRAY
        nodes.append(node)
        stack.append((node, True))
        for parent in node._parents:
            edges += 1
            parent_state = color.get(id(parent))
            if parent_state == GRAY:
                raise GraphError(
                    f"cycle detected through op "
                    f"'{op_name(node._backward)}' (shape {node.shape}) — "
                    "the recorded graph has no topological order")
            if parent_state is None:
                stack.append((parent, False))

    leaves = sum(1 for n in nodes if n.requires_grad and not n._parents)
    if check_grads:
        for node in nodes:
            if node.grad is not None and node.grad.shape != node.data.shape:
                raise GraphError(
                    f"gradient shape {node.grad.shape} disagrees with "
                    f"tensor shape {node.data.shape} on node "
                    f"'{op_name(node._backward)}'")
            if node._backward is None:
                continue
            for i, parent in enumerate(node._parents):
                if parent.requires_grad and parent.grad is None:
                    raise GraphError(
                        f"orphaned parent: input {i} (shape "
                        f"{parent.shape}) of op "
                        f"'{op_name(node._backward)}' never received a "
                        "gradient — was backward() run, or did the "
                        "closure drop it?")
    return {"nodes": len(nodes), "edges": edges, "trainable_leaves": leaves}
