"""Planted shape bugs: each must fail the same named shapecheck checks.

A plant is one deliberate wiring fault.  Where it can be planted from
here it is a monkeypatch and the checks run in this process; a fault on
one source line is planted in a copy of ``src/repro`` instead, checked
by the CLI in a subprocess.  Every plant names the checks it must fail
and, per check, the ``file:line`` frames its report must name.  A change
that weakened the checks (a lost binding, a dropped lane, a report
without its frames) would still pass every clean-tree test, but not
this one.
"""

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, Tuple

import repro
from repro.core.policy import PolicyNetwork
from repro.devtools.shapecheck import run_all
from repro.nn import Dense, LSTMCell, Tensor
from repro.nn import functional as F
from repro.nn.spec import get_shape_spec, shape_spec
from repro.recsys.autorec import _AutoRecNet
from repro.recsys.itempop import ItemPop
from repro.recsys.neumf import _NeuMFNet

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Check name -> the ``file:line (`` frames its failure report must name.
Expected = Dict[str, Tuple[str, ...]]


def _line(fn: Callable, text: str) -> Tuple[Path, int]:
    """Source file and line number of the one line of ``fn`` holding ``text``."""
    lines, start = inspect.getsourcelines(fn)
    offsets = [i for i, line in enumerate(lines) if text in line]
    assert len(offsets) == 1, f"{text!r} is not unique in {fn.__qualname__}"
    return Path(inspect.getsourcefile(fn)).resolve(), start + offsets[0]


def _frame(fn: Callable, text: str) -> str:
    """The ``repro/...:line (`` text a report shows for that line."""
    path, line = _line(fn, text)
    return f"{path.relative_to(SRC_ROOT.parent).as_posix()}:{line} ("


DENSE_MATMUL = _frame(Dense.__call__, "x @ self.weight")
LSTM_CONCAT = (LSTMCell.__call__, "combined = concatenate([x, h_prev]")
KERNEL_CONCAT = (F._lstm_step, "combined = np.concatenate([x, h]")
KERNEL_GATES = _frame(F._lstm_step, "gates = combined @ weight")
NEUMF_RESHAPE = (_NeuMFNet.logits, ".reshape(-1)")
POLICY_USERS = (PolicyNetwork.rollout_log_probs, "% self.num_attackers")
POLICY_LSTM = _frame(PolicyNetwork.rollout_log_probs, "F.lstm_sequence(")
POLICY_KINDS = ("plain", "bplain", "bcbt-popular", "bcbt-random")


def _failures_in_process() -> Dict[str, str]:
    return {r.name: r.detail for r in run_all() if not r.ok}


def _failures_in_doctored_copy(tmp_path: Path, where: Tuple[Callable, str],
                               old: str, new: str) -> Dict[str, str]:
    """Run the CLI over a copy of the package with one line rewritten."""
    path, line = _line(*where)
    shutil.copytree(SRC_ROOT, tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "repro" / path.relative_to(SRC_ROOT)
    lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new)
    target.write_text("".join(lines), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "repro.devtools.shapecheck", "--format=json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, timeout=300)
    assert out.returncode in (0, 1), out.stderr
    rows = json.loads(out.stdout)["diagnostics"]
    return {row["name"]: row["detail"] for row in rows}


def _assert_reported(failures: Dict[str, str], expected: Expected) -> None:
    assert sorted(failures) == sorted(expected)
    for name, frames in expected.items():
        for frame in frames:
            assert frame in failures[name], (name, frame, failures[name])


def test_transposed_dense_weight(monkeypatch):
    original = Dense.__init__

    def planted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.weight = Tensor(self.weight.data.T.copy(), requires_grad=True,
                             name="dense.weight")

    monkeypatch.setattr(Dense, "__init__", planted)
    # Every policy width is the one ``dim``, so the policy's square DNN
    # layers hide a transpose: the core.policy checks stay clean.
    _assert_reported(_failures_in_process(), {
        "nn.Dense": (DENSE_MATMUL,),
        "nn.MLP": (DENSE_MATMUL,),
        "recsys.neumf.net": (DENSE_MATMUL,
                             _frame(_NeuMFNet.logits, "self.mlp(mlp_in)")),
        "recsys.autorec.net": (DENSE_MATMUL,
                               _frame(_AutoRecNet.__call__, "self.decoder(")),
        "recsys.probe[neumf]": (DENSE_MATMUL,),
        "recsys.probe[autorec]": (DENSE_MATMUL,),
    })


def test_score_batch_wrong_shape(monkeypatch):
    original = ItemPop.score_batch

    @shape_spec(get_shape_spec(original))
    def planted(self, users, candidates):
        return original(self, users, candidates).T

    monkeypatch.setattr(ItemPop, "score_batch", planted)
    _assert_reported(_failures_in_process(), {"recsys.probe[itempop]": ()})


def test_unspecced_override_keeps_base_contract(monkeypatch):
    # ``Ranker`` declares the score_batch contract; an override that
    # declares none must still be held to it.
    original = ItemPop.score_batch

    def planted(self, users, candidates):
        return original(self, users, candidates).T

    monkeypatch.setattr(ItemPop, "score_batch", planted)
    _assert_reported(_failures_in_process(), {"recsys.probe[itempop]": ()})


def test_lstm_concat_on_wrong_axis(tmp_path):
    # The policy runs the fused op's kernel, not the cell's graph.
    failures = _failures_in_doctored_copy(tmp_path, LSTM_CONCAT,
                                          "axis=1", "axis=0")
    concat = _frame(*LSTM_CONCAT)
    _assert_reported(failures, {"nn.LSTMCell": (concat,),
                                "nn.LSTM": (concat,)})


def test_lstm_kernel_concat_on_wrong_axis(tmp_path):
    failures = _failures_in_doctored_copy(tmp_path, KERNEL_CONCAT,
                                          "axis=1", "axis=0")
    # The op's check has unequal widths, so numpy rejects the concat; the
    # policy's equal widths stack the rows, and the gate matmul fails.
    expected: Expected = {
        "nn.functional.lstm_sequence": (_frame(*KERNEL_CONCAT),)}
    expected.update({f"core.policy[{kind}]": (KERNEL_GATES, POLICY_LSTM)
                     for kind in POLICY_KINDS})
    _assert_reported(failures, expected)


def test_neumf_reshape_to_two_rows(tmp_path):
    failures = _failures_in_doctored_copy(tmp_path, NEUMF_RESHAPE,
                                          ".reshape(-1)", ".reshape(2, -1)")
    # numpy rejects the reshape at every odd batch size, on its line.
    _assert_reported(failures, {"recsys.neumf.net": (_frame(*NEUMF_RESHAPE),),
                                "recsys.probe[neumf]": ()})


def test_policy_user_ids_without_modulo(tmp_path):
    failures = _failures_in_doctored_copy(tmp_path, POLICY_USERS,
                                          " % self.num_attackers", "")
    users = _frame(PolicyNetwork.rollout_log_probs,
                   "self.user_embedding(user_ids)")
    _assert_reported(failures, {f"core.policy[{kind}]": (users,)
                                for kind in POLICY_KINDS})
