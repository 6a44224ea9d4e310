"""Uniform exit-code contract across the four analyzer CLIs.

Every analyzer (graphlint, shapecheck, effectcheck, faultcheck) follows
the shared convention from :mod:`repro.devtools.common`: 0 clean,
1 findings, 2 internal error (bad inputs, usage errors, crashes).  CI
gates on these codes without per-tool cases, so the contract gets one
test per leg here, plus the ``repro check`` aggregation that fans the
analyses out to worker processes.
"""

import dataclasses

import pytest

from repro.cli import _run_analyzer, build_parser, cmd_check
from repro.devtools import lint as graphlint
from repro.devtools.effectcheck import cli as effectcheck_cli
from repro.devtools.faultcheck import cli as faultcheck_cli
from repro.devtools.shapecheck import cli as shapecheck_cli

ALL_CLIS = [
    pytest.param(graphlint.main, id="graphlint"),
    pytest.param(shapecheck_cli.main, id="shapecheck"),
    pytest.param(effectcheck_cli.main, id="effectcheck"),
    pytest.param(faultcheck_cli.main, id="faultcheck"),
]


class TestUsageErrorsExitTwo:
    @pytest.mark.parametrize("cli_main", ALL_CLIS)
    def test_unknown_flag(self, cli_main, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--definitely-not-a-flag"])
        assert excinfo.value.code == 2


class TestBadInputsExitTwo:
    def test_graphlint_missing_path(self, capsys):
        assert graphlint.main(["definitely/not/a/path"]) == 2

    def test_effectcheck_missing_root(self, capsys):
        assert effectcheck_cli.main(
            ["--root", "definitely/not/a/path"]) == 2

    def test_faultcheck_missing_root(self, capsys):
        assert faultcheck_cli.main(
            ["--root", "definitely/not/a/path"]) == 2


class TestSelfTestMissExitsTwo:
    def test_plant_missing_its_chain_is_an_internal_error(self, capsys):
        # The plant is reported, but not with the chain it requires: a
        # miss is an analyzer defect, not a finding.
        plant = dataclasses.replace(effectcheck_cli.TOOL.plants[0],
                                    chains=("no such frame",))
        tool = dataclasses.replace(effectcheck_cli.TOOL, plants=(plant,))
        assert effectcheck_cli.run_self_test((tool,)) == 2


class TestFindingsExitOne:
    def test_graphlint_flags_planted_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('"""Doc."""\nimport numpy as np\n'
                       "x = np.random.rand(3)\n", encoding="utf-8")
        assert graphlint.main([str(bad)]) == 1

    def test_graphlint_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text('"""Doc."""\nVALUE = 1\n', encoding="utf-8")
        assert graphlint.main([str(good)]) == 0


class TestCheckJobsAggregation:
    def test_run_analyzer_captures_output_and_code(self):
        name, code, out, err = _run_analyzer(
            ("graphlint", "repro.devtools.lint",
             ["definitely/not/a/path"]))
        assert name == "graphlint"
        assert code == 2
        assert "no such file" in err

    def test_run_analyzer_crash_maps_to_internal(self):
        name, code, out, err = _run_analyzer(
            ("broken", "definitely.not.a.module", []))
        assert code == 2
        assert "Traceback" in err or "ModuleNotFoundError" in err

    def test_check_jobs_aggregates_worst_code(self, tmp_path, capsys,
                                              monkeypatch):
        # A graphlint finding must surface through the parallel path as
        # the aggregate exit code, with the report still printed.
        bad = tmp_path / "bad.py"
        bad.write_text('"""Doc."""\nimport numpy as np\n'
                       "x = np.random.rand(3)\n", encoding="utf-8")
        args = build_parser().parse_args(["check", str(bad)])
        assert cmd_check(args) == 1
        captured = capsys.readouterr()
        assert "REP001" in captured.out
