"""Recurrent cells: LSTM (policy network encoder) and GRU (GRU4Rec core).

The paper's policy network embeds the variable-length attack trajectory
with an LSTM (Equation 5); GRU4Rec uses a GRU over each user's session.
Both cells operate on batches: inputs are ``(batch, dim)`` tensors and the
sequence loop lives in the caller (or :class:`LSTM`/:class:`GRU` helpers).
:func:`repro.nn.functional.lstm_sequence` runs a whole LSTM sequence as
one graph node; the cell's graph is its test oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init
from .layers import Module
from .spec import shape_spec
from .tensor import Tensor, concatenate


class LSTMCell(Module):
    """Standard LSTM cell with a single fused gate matrix.

    Gates are computed as ``[i, f, g, o] = [x, h] @ W + b`` with sigmoid on
    i/f/o and tanh on g.  The forget-gate bias is initialized to 1.0, the
    common trick for stable early training.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight = Tensor(
            init.xavier_uniform(rng, input_dim + hidden_dim, 4 * hidden_dim),
            requires_grad=True, name="lstm.weight")
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0  # forget gate
        self.bias = Tensor(bias, requires_grad=True, name="lstm.bias")

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        """Zero ``(h, c)`` state for a batch."""
        h = Tensor(np.zeros((batch, self.hidden_dim)))
        c = Tensor(np.zeros((batch, self.hidden_dim)))
        return h, c

    @shape_spec("(B, input_dim), ((B, hidden_dim), (B, hidden_dim)) -> "
                "((B, hidden_dim), (B, hidden_dim))")
    def __call__(self, x: Tensor, state: Tuple[Tensor, Tensor]
                 ) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        combined = concatenate([x, h_prev], axis=1)
        gates = combined @ self.weight + self.bias
        H = self.hidden_dim
        i = F.sigmoid(gates[:, 0:H])
        f = F.sigmoid(gates[:, H:2 * H])
        g = F.tanh(gates[:, 2 * H:3 * H])
        o = F.sigmoid(gates[:, 3 * H:4 * H])
        c = f * c_prev + i * g
        h = o * F.tanh(c)
        return h, c

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
        """One step on plain arrays, building no graph: the new ``(h, c)``.

        This is the per-step kernel :func:`~repro.nn.functional.lstm_sequence`
        runs, so a rollout sampled with it is bit-equal to that op's
        recompute and to :meth:`__call__`.
        """
        h, c, *_ = F._lstm_step(x, h, c, self.weight.data, self.bias.data)
        return h, c


class LSTM(Module):
    """Sequence wrapper running an :class:`LSTMCell` over time steps."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        self.cell = LSTMCell(input_dim, hidden_dim, rng)

    @shape_spec("[(B, cell.input_dim)], _ -> ([(B, cell.hidden_dim)], "
                "((B, cell.hidden_dim), (B, cell.hidden_dim)))")
    def __call__(self, inputs: Sequence[Tensor],
                 state: Optional[Tuple[Tensor, Tensor]] = None
                 ) -> Tuple[list, Tuple[Tensor, Tensor]]:
        """Run over ``inputs`` (a list of ``(batch, dim)`` tensors).

        Returns the list of hidden states per step and the final
        ``(h, c)`` state.
        """
        if not inputs:
            raise ValueError("LSTM requires at least one input step")
        if state is None:
            state = self.cell.initial_state(inputs[0].shape[0])
        outputs = []
        h, c = state
        for x in inputs:
            h, c = self.cell(x, (h, c))
            outputs.append(h)
        return outputs, (h, c)


class GRUCell(Module):
    """Standard GRU cell used by the GRU4Rec ranker."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_zr = Tensor(
            init.xavier_uniform(rng, input_dim + hidden_dim, 2 * hidden_dim),
            requires_grad=True, name="gru.weight_zr")
        self.bias_zr = Tensor(np.zeros(2 * hidden_dim), requires_grad=True,
                              name="gru.bias_zr")
        self.weight_h = Tensor(
            init.xavier_uniform(rng, input_dim + hidden_dim, hidden_dim),
            requires_grad=True, name="gru.weight_h")
        self.bias_h = Tensor(np.zeros(hidden_dim), requires_grad=True,
                             name="gru.bias_h")

    def initial_state(self, batch: int) -> Tensor:
        """Zero hidden state for a batch."""
        return Tensor(np.zeros((batch, self.hidden_dim)))

    @shape_spec("(B, input_dim), (B, hidden_dim) -> (B, hidden_dim)")
    def __call__(self, x: Tensor, h_prev: Tensor) -> Tensor:
        H = self.hidden_dim
        combined = concatenate([x, h_prev], axis=1)
        zr = F.sigmoid(combined @ self.weight_zr + self.bias_zr)
        z = zr[:, 0:H]
        r = zr[:, H:2 * H]
        combined_r = concatenate([x, r * h_prev], axis=1)
        h_tilde = F.tanh(combined_r @ self.weight_h + self.bias_h)
        return (Tensor(np.ones_like(z.data)) - z) * h_prev + z * h_tilde


class GRU(Module):
    """Sequence wrapper running a :class:`GRUCell` over time steps."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        self.cell = GRUCell(input_dim, hidden_dim, rng)

    @shape_spec("[(B, cell.input_dim)], _ -> ([(B, cell.hidden_dim)], "
                "(B, cell.hidden_dim))")
    def __call__(self, inputs: Sequence[Tensor],
                 state: Optional[Tensor] = None) -> Tuple[list, Tensor]:
        """Run over ``inputs``; returns per-step hidden states and the last."""
        if not inputs:
            raise ValueError("GRU requires at least one input step")
        h = state if state is not None else (
            self.cell.initial_state(inputs[0].shape[0]))
        outputs = []
        for x in inputs:
            h = self.cell(x, h)
            outputs.append(h)
        return outputs, h
