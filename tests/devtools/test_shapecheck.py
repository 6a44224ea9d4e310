"""Shapecheck: contracts, the whole-repo checks, CLI and mutation tests."""

import inspect
import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.devtools.shapecheck import (ContractError, build_checks,
                                       checked_call, drivers, parse_spec,
                                       run_all, run_checks)
from repro.devtools.shapecheck import cli as shapecheck_cli
from repro.devtools.shapecheck.drivers import BATCH_SIZES
from repro.nn import Dense, Tensor
from repro.nn import functional as F
from repro.nn.spec import SPEC_ATTRIBUTE, shape_spec


class TestContracts:
    def test_parse_spec_shapes_and_tuples(self):
        arg_terms, result_terms = parse_spec(
            "(B, T), ((B, H), (B, H)) -> (B, H)")
        assert len(arg_terms) == 2 and len(result_terms) == 1

    def test_parse_spec_requires_arrow(self):
        with pytest.raises(ContractError):
            parse_spec("(B, T)")

    def test_checked_call_verifies_and_returns(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        out = checked_call(dense, "__call__", Tensor(np.zeros((2, 4))))
        assert out.shape == (2, 7)

    def test_instance_constant_mismatch_detected(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        with pytest.raises(ContractError, match="in_dim"):
            checked_call(dense, "__call__", Tensor(np.zeros((13, 5))))

    def test_symbol_unification_failure(self):
        class Pair:
            @shape_spec("(B, D), (B, D) -> (B,)")
            def combine(self, a, b):
                return np.zeros(a.shape[0])

        with pytest.raises(ContractError, match="'D'"):
            checked_call(Pair(), "combine", np.zeros((13, 3)),
                         np.zeros((13, 4)))

    def test_wildcard_and_trailing_defaults(self):
        class Thing:
            @shape_spec("(N,), _ -> (N,)")
            def go(self, a, extra=None):
                return np.zeros(a.shape[0])

        out = checked_call(Thing(), "go", np.zeros(13))
        assert out.shape == (13,)

    def test_module_function_contract(self):
        weight = Tensor(np.zeros((14, 36)))
        out = checked_call(F, "lstm_sequence",
                           [Tensor(np.zeros((13, 5)))] * 2, weight,
                           Tensor(np.zeros(36)))
        assert out.shape == (13, 2, 9)
        # A transposed weight: its width no longer matches the bias.
        with pytest.raises(ContractError, match="'G' expected 14, got 36"):
            checked_call(F, "lstm_sequence", [Tensor(np.zeros((13, 5)))],
                         Tensor(np.zeros((36, 14))), Tensor(np.zeros(36)))

    def test_result_without_shape_rejected(self):
        class Thing:
            @shape_spec("(N,) -> (N,)")
            def go(self, a):
                return list(a)

        with pytest.raises(ContractError, match="expected a tensor"):
            checked_call(Thing(), "go", np.zeros(13))


def _iter_repo_specs():
    """Every ``@shape_spec`` attached anywhere under the repro package."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _, member in inspect.getmembers(module):
            if getattr(member, "__module__", None) != info.name:
                continue
            if inspect.isfunction(member):
                functions = [member]
            elif inspect.isclass(member):
                functions = [fn for _, fn in inspect.getmembers(
                    member, inspect.isfunction)]
            else:
                continue
            for fn in functions:
                spec = getattr(fn, SPEC_ATTRIBUTE, None)
                if spec is not None:
                    yield f"{info.name}.{fn.__qualname__}", spec


def test_every_attached_spec_parses():
    specs = list(_iter_repo_specs())
    assert len(specs) >= 20  # nn layers + policy + all 8 rankers
    for owner, spec in specs:
        parse_spec(spec)  # raises ContractError on a malformed contract


class TestCLIAndMutation:
    def test_run_all_is_clean(self):
        results = run_all()
        assert len(results) >= 23
        failures = [r for r in results if not r.ok]
        assert failures == []

    def test_layer_and_policy_checks_run_at_both_batch_sizes(self,
                                                             monkeypatch):
        def leading_dims(value):
            if isinstance(value, (list, tuple)):
                return set().union(*map(leading_dims, value))
            return {value.shape[0]} if getattr(value, "shape", ()) else set()

        seen = {}
        checked = drivers.checked_call

        def recording(obj, method, *args):
            seen[name].update(leading_dims(args))
            return checked(obj, method, *args)

        monkeypatch.setattr(drivers, "checked_call", recording)
        for name, check in build_checks():
            if not name.startswith("recsys.probe["):
                seen[name] = set()
                check()
        assert len(seen) == 16
        assert all(set(BATCH_SIZES) <= dims for dims in seen.values()), seen

    def test_cli_exit_zero_when_clean(self, capsys):
        assert shapecheck_cli.main([]) == 0
        assert "clean" in capsys.readouterr().err

    def _mutated_dense_check(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        dense.weight = Tensor(dense.weight.data.T.copy(),
                              requires_grad=True, name="dense.weight")

        def check():
            for batch in BATCH_SIZES:
                checked_call(dense, "__call__", Tensor(np.zeros((batch, 4))))
        return check

    def _expected_anchor(self):
        lines, start = inspect.getsourcelines(Dense.__call__)
        offset = next(i for i, line in enumerate(lines)
                      if "x @ self.weight" in line)
        return f"layers.py:{start + offset}"

    def test_mutated_weight_reported_with_file_and_line(self):
        results = run_checks([("nn.Dense[mutated]",
                               self._mutated_dense_check())])
        assert len(results) == 1 and not results[0].ok
        detail = results[0].detail
        assert "matmul" in detail
        assert "size 7 is different from 4" in detail
        assert self._expected_anchor() in detail

    def test_mutated_weight_fails_cli_with_nonzero_exit(self, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(
            shapecheck_cli, "run_all",
            lambda: run_checks([("nn.Dense[mutated]",
                                 self._mutated_dense_check())]))
        assert shapecheck_cli.main([]) == 1
        captured = capsys.readouterr()
        assert "FAIL nn.Dense[mutated]" in captured.out
        assert self._expected_anchor() in captured.out
