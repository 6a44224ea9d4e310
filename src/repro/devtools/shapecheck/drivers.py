"""Whole-repo shape verification drivers.

Three lanes, mirroring how the stack is actually wired:

1. **Layers** — every nn layer and every neural recommender's inner
   network runs its real forward pass on real arrays, once for each
   batch size in :data:`BATCH_SIZES`.
2. **Policy** — :class:`~repro.core.policy.PolicyNetwork` for all four
   action-space kinds (Plain, BPlain, both BCBTs) runs
   ``rollout_log_probs`` at the same two batch sizes.
3. **Probe** — every registered ranker is fit on a tiny synthetic log
   and its ``score``/``score_batch`` contracts are verified on real
   values.

Every call goes through :func:`~.contracts.checked_call`, so numpy's own
shape rules catch a mis-wired op and the ``@shape_spec`` contract
catches a forward pass that runs but returns the wrong shape.  Each
check is independent; a failure reports the exception and every
``repro`` frame of its traceback, innermost first.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from ...core.action_space import ACTION_SPACE_KINDS, make_action_space
from ...core.policy import PolicyNetwork
from ...data.interactions import InteractionLog
from ...nn import GRU, GRUCell, LSTM, LSTMCell, MLP, Dense, Embedding, Tensor
from ...nn import functional as F
from ...recsys.autorec import _AutoRecNet
from ...recsys.gru4rec import _GRU4RecNet
from ...recsys.neumf import _NeuMFNet
from ...recsys.ngcf import _NGCFNet
from ...recsys.registry import RANKER_NAMES, make_ranker
from ..common import display_path
from .contracts import ContractError, checked_call

#: The two bindings of the batch dimension in lanes 1 and 2.  Both are
#: primes, so no reshape can split them into fixed widths, and they
#: differ from each other and from every other dimension in any check,
#: derived widths included, so a batch axis swapped with another axis
#: cannot line up by coincidence.
BATCH_SIZES = (13, 17)

#: Exceptions a check may legitimately raise; anything else is a crash.
CHECK_ERRORS = (ContractError, TypeError, ValueError, AttributeError,
                RuntimeError, IndexError, KeyError, NotImplementedError)

_PACKAGE_DIR = Path(__file__).resolve().parents[2]


@dataclass
class CheckResult:
    """Outcome of one named check (``detail`` holds the failure text)."""

    name: str
    ok: bool
    detail: str = ""


def _floats(*shape: int) -> Tensor:
    return Tensor(np.random.default_rng(0).normal(size=shape))


def _ids(shape, high: int) -> np.ndarray:
    return np.random.default_rng(0).integers(0, high, size=shape)


# ----------------------------------------------------------------------
# Lane 1: nn layers and inner recommender nets
# ----------------------------------------------------------------------
def _check_dense(batch: int) -> None:
    dense = Dense(4, 7, np.random.default_rng(0), activation="relu")
    checked_call(dense, "__call__", _floats(batch, 4))


def _check_mlp(batch: int) -> None:
    mlp = MLP([6, 5, 3], np.random.default_rng(0))
    checked_call(mlp, "__call__", _floats(batch, 6))


def _check_embedding(batch: int) -> None:
    embedding = Embedding(10, 6, np.random.default_rng(0))
    checked_call(embedding, "__call__", _ids(batch, 10))


def _check_lstm_cell(batch: int) -> None:
    cell = LSTMCell(5, 9, np.random.default_rng(0))
    checked_call(cell, "__call__", _floats(batch, 5),
                 cell.initial_state(batch))


def _check_lstm(batch: int) -> None:
    lstm = LSTM(5, 9, np.random.default_rng(0))
    checked_call(lstm, "__call__", [_floats(batch, 5) for _ in range(3)])


def _check_lstm_sequence(batch: int) -> None:
    # Unequal input and hidden widths: a transposed weight cannot pass.
    cell = LSTMCell(5, 9, np.random.default_rng(0))
    checked_call(F, "lstm_sequence", [_floats(batch, 5) for _ in range(3)],
                 cell.weight, cell.bias)


def _check_gru_cell(batch: int) -> None:
    cell = GRUCell(5, 9, np.random.default_rng(0))
    checked_call(cell, "__call__", _floats(batch, 5),
                 cell.initial_state(batch))


def _check_gru(batch: int) -> None:
    gru = GRU(5, 9, np.random.default_rng(0))
    checked_call(gru, "__call__", [_floats(batch, 5) for _ in range(3)])


def _check_neumf_net(batch: int) -> None:
    net = _NeuMFNet(6, 10, 8, np.random.default_rng(0))
    checked_call(net, "logits", _ids(batch, 6), _ids(batch, 10))


def _check_autorec_net(batch: int) -> None:
    net = _AutoRecNet(10, 4, np.random.default_rng(0))
    checked_call(net, "__call__", _floats(batch, 10))


def _check_gru4rec_net(batch: int) -> None:
    net = _GRU4RecNet(10, 6, np.random.default_rng(0))
    hidden = checked_call(net, "encode", _ids((batch, 5), 10))
    checked_call(net, "all_item_logits", hidden)


def _check_ngcf_net(batch: int) -> None:
    # The graph's node count is NGCF's only free dimension.
    net = _NGCFNet(batch, 6, 2, np.random.default_rng(0))
    checked_call(net, "propagate", sp.csr_matrix((batch, batch)))


# ----------------------------------------------------------------------
# Lane 2: the policy network over every action-space design
# ----------------------------------------------------------------------
#: Attackers, trajectory steps and embedding width of the policy checks:
#: distinct from each other, from the batch sizes, and from the 12 items
#: and the 1/2/4 decisions per step of the four action spaces.
_POLICY_ATTACKERS, _POLICY_STEPS, _POLICY_DIM = 3, 5, 10


def _policy_decisions(kind: str, batch: int, steps: int,
                      depth: int) -> Dict[str, np.ndarray]:
    flat = np.zeros((batch, steps), dtype=np.int64)
    if kind == "plain":
        return {"items": flat}
    if kind == "bplain":
        return {"sides": flat, "items": flat.copy()}
    tree = np.zeros((batch, steps, depth), dtype=np.int64)
    return {"parents": tree, "sides": tree.copy()}


def _make_policy_check(kind: str) -> Callable[[int], None]:
    def check(batch: int) -> None:
        popularity = np.arange(12, dtype=np.float64)[::-1]
        space = make_action_space(kind, 8, np.arange(8, 12), popularity)
        policy = PolicyNetwork(space, num_attackers=_POLICY_ATTACKERS,
                               dim=_POLICY_DIM, seed=0)
        items = np.zeros((batch, _POLICY_STEPS), dtype=np.int64)
        decisions = _policy_decisions(kind, batch, _POLICY_STEPS,
                                      space.max_decisions)
        checked_call(policy, "rollout_log_probs", items, decisions)
    return check


def _at_each_batch_size(check: Callable[[int], None]) -> Callable[[], None]:
    def run() -> None:
        for batch in BATCH_SIZES:
            check(batch)
    return run


# ----------------------------------------------------------------------
# Lane 3: concrete micro-probe of every registered ranker
# ----------------------------------------------------------------------
_PROBE_USERS, _PROBE_ITEMS = 6, 12


def _probe_log() -> InteractionLog:
    log = InteractionLog(_PROBE_ITEMS)
    rng = np.random.default_rng(7)
    for user in range(_PROBE_USERS):
        log.add_sequence(user, rng.integers(0, _PROBE_ITEMS,
                                            size=5).tolist())
    return log


def _make_probe_check(name: str) -> Callable[[], None]:
    def check() -> None:
        ranker = make_ranker(name, _PROBE_USERS, _PROBE_ITEMS, seed=0)
        ranker.fit(_probe_log())
        checked_call(ranker, "score", 0, np.arange(5, dtype=np.int64))
        candidates = np.tile(np.arange(5, dtype=np.int64), (2, 1))
        checked_call(ranker, "score_batch",
                     np.array([0, 1], dtype=np.int64), candidates)
    return check


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_checks() -> List[Tuple[str, Callable[[], None]]]:
    """All named checks, in deterministic execution order."""
    batched: List[Tuple[str, Callable[[int], None]]] = [
        ("nn.Dense", _check_dense),
        ("nn.MLP", _check_mlp),
        ("nn.Embedding", _check_embedding),
        ("nn.LSTMCell", _check_lstm_cell),
        ("nn.LSTM", _check_lstm),
        ("nn.functional.lstm_sequence", _check_lstm_sequence),
        ("nn.GRUCell", _check_gru_cell),
        ("nn.GRU", _check_gru),
        ("recsys.neumf.net", _check_neumf_net),
        ("recsys.autorec.net", _check_autorec_net),
        ("recsys.gru4rec.net", _check_gru4rec_net),
        ("recsys.ngcf.net", _check_ngcf_net),
    ]
    batched.extend((f"core.policy[{kind}]", _make_policy_check(kind))
                   for kind in ACTION_SPACE_KINDS)
    checks = [(name, _at_each_batch_size(check)) for name, check in batched]
    checks.extend((f"recsys.probe[{name}]", _make_probe_check(name))
                  for name in RANKER_NAMES)
    return checks


def _failure_report(error: BaseException) -> str:
    """The exception, then its ``repro`` frames innermost first."""
    # The outermost traceback entry is run_checks' own call of the check.
    frames = traceback.extract_tb(error.__traceback__.tb_next)
    lines = [f"{type(error).__name__}: {error}"]
    lines.extend(f"  {display_path(frame.filename)}:{frame.lineno} "
                 f"({frame.name})" for frame in reversed(frames)
                 if Path(frame.filename).resolve().is_relative_to(
                     _PACKAGE_DIR))
    return "\n".join(lines)


def run_checks(checks) -> List[CheckResult]:
    """Run ``(name, fn)`` pairs, catching contract/shape violations."""
    results = []
    for name, check in checks:
        try:
            check()
        except CHECK_ERRORS as error:
            results.append(CheckResult(name, False, _failure_report(error)))
        else:
            results.append(CheckResult(name, True))
    return results


def run_all() -> List[CheckResult]:
    """Run every check over the whole repo."""
    return run_checks(build_checks())
