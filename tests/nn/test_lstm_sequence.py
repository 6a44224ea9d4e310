"""The fused LSTM sequence op against a chain of ``LSTMCell`` graphs.

``F.lstm_sequence`` runs a whole sequence as one graph node, and
``LSTMCell.step`` runs its per-step kernel on plain arrays for the
policy's rollout.  ``LSTMCell.__call__``, one graph per step, is their
oracle.  The widths are unequal (input 5, hidden 9), so a transposed or
misplaced weight block cannot line up by accident, as it could in the
policy, where every width is the embedding size.
"""

import numpy as np
import pytest

from repro.nn import AnomalyError, LSTMCell, Tensor, detect_anomaly, stack
from repro.nn import functional as F

BATCH, STEPS, INPUT, HIDDEN = 13, 6, 5, 9


@pytest.fixture()
def cell():
    cell = LSTMCell(INPUT, HIDDEN, np.random.default_rng(3))
    # Move the biases off their initial values, so every block differs.
    cell.bias.assign_(np.random.default_rng(4).normal(size=4 * HIDDEN))
    return cell


def sequence_inputs():
    rng = np.random.default_rng(5)
    return [Tensor(rng.normal(size=(BATCH, INPUT)), requires_grad=True)
            for _ in range(STEPS)]


def run(cell, recompute):
    """Hidden states and input/weight/bias gradients, as bytes."""
    inputs = sequence_inputs()
    cell.weight.zero_grad()
    cell.bias.zero_grad()
    out = recompute(cell, inputs)
    out.backward(np.random.default_rng(6).normal(size=out.shape))
    return (out.data.tobytes(), [x.grad.tobytes() for x in inputs],
            cell.weight.grad.tobytes(), cell.bias.grad.tobytes())


def cell_chain(cell, inputs):
    h, c = cell.initial_state(BATCH)
    hidden = []
    for x in inputs:
        h, c = cell(x, (h, c))
        hidden.append(h)
    return stack(hidden, axis=1)


def fused(cell, inputs):
    return F.lstm_sequence(inputs, cell.weight, cell.bias)


def test_byte_equal_to_cell_chain(cell):
    out, input_grads, weight_grad, bias_grad = run(cell, fused)
    oracle = run(cell, cell_chain)
    assert out == oracle[0]
    assert input_grads == oracle[1]
    assert weight_grad == oracle[2]
    assert bias_grad == oracle[3]


def test_output_shape_and_one_node(cell):
    inputs = sequence_inputs()
    out = F.lstm_sequence(inputs, cell.weight, cell.bias)
    assert out.shape == (BATCH, STEPS, HIDDEN)
    # Newest input first: the backward reaches the inputs' producers from
    # the last step down.
    assert out._parents == (*reversed(inputs), cell.weight, cell.bias)


def test_array_step_matches_cell(cell):
    rng = np.random.default_rng(7)
    x, h, c = (rng.normal(size=(BATCH, width))
               for width in (INPUT, HIDDEN, HIDDEN))
    h_np, c_np = cell.step(x, h, c)
    h_t, c_t = cell(Tensor(x), (Tensor(h), Tensor(c)))
    assert h_np.tobytes() == h_t.data.tobytes()
    assert c_np.tobytes() == c_t.data.tobytes()


def test_empty_sequence_rejected(cell):
    with pytest.raises(ValueError, match="at least one input step"):
        F.lstm_sequence([], cell.weight, cell.bias)


def test_anomaly_mode_names_the_op(cell):
    inputs = sequence_inputs()
    with detect_anomaly():
        out = F.lstm_sequence(inputs, cell.weight, cell.bias)
        # The backward reads the weight for the inputs' gradient, as the
        # cell's matmul does: a NaN planted there after the forward first
        # shows inside the op's backward.
        cell.weight.assign_(np.full(cell.weight.shape, np.nan))
        with pytest.raises(AnomalyError) as excinfo:
            out.backward(np.ones(out.shape))
    message = str(excinfo.value)
    assert "NaN" in message
    assert "backward of 'lstm_sequence'" in message
