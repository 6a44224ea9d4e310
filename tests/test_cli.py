"""CLI smoke tests (argument parsing and fast subcommands)."""

import re

import pytest

from repro.cli import build_parser, main
from repro.obs import load_run


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.scale == "ci"

    def test_attack_arguments(self):
        args = build_parser().parse_args(
            ["attack", "--dataset", "phone", "--ranker", "bpr",
             "--method", "popular", "--seed", "3"])
        assert args.dataset == "phone"
        assert args.ranker == "bpr"
        assert args.method == "popular"
        assert args.seed == 3

    def test_invalid_ranker_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--ranker", "svd"])

    def test_resilience_flags(self):
        args = build_parser().parse_args(
            ["attack", "--chaos", "0.1", "--checkpoint", "camp.npz",
             "--checkpoint-every", "5", "--resume", "--max-retries", "2"])
        assert args.chaos == pytest.approx(0.1)
        assert args.checkpoint == "camp.npz"
        assert args.checkpoint_every == 5
        assert args.resume is True
        assert args.max_retries == 2

    def test_resilience_flag_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.chaos == 0.0
        assert args.checkpoint is None
        assert args.resume is False
        assert args.max_retries == 3

    def test_chaos_composes_with_workers(self):
        """The pooled/chaos restriction is lifted: content-keyed fault
        schedules make chaos runs worker-count independent."""
        args = build_parser().parse_args(
            ["attack", "--chaos", "0.2", "--workers", "3"])
        assert args.chaos == pytest.approx(0.2)
        assert args.workers == 3

    def test_submit_arguments(self):
        args = build_parser().parse_args(
            ["submit", "--dir", "fleet", "--name", "exp1",
             "--ranker", "bpr", "--priority", "2.5", "--chaos", "0.1"])
        assert args.dir == "fleet"
        assert args.name == "exp1"
        assert args.ranker == "bpr"
        assert args.priority == pytest.approx(2.5)

    def test_submit_requires_dir_and_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--name", "exp1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--dir", "fleet"])

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--dir", "fleet", "--grid", "--workers", "2",
             "--slice-steps", "3", "--stall-timeout", "5.0",
             "--worker-kills", "0.1", "--worker-stalls", "0.05"])
        assert args.grid is True
        assert args.workers == 2
        assert args.slice_steps == 3
        assert args.stall_timeout == pytest.approx(5.0)
        assert args.worker_kills == pytest.approx(0.1)
        assert args.worker_stalls == pytest.approx(0.05)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--dir", "fleet"])
        assert args.resume is False
        assert args.grid is False
        assert args.workers == 1
        assert args.stall_timeout is None


class TestCommands:
    def test_datasets_prints_table(self, capsys):
        assert main(["datasets", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        for name in ("steam", "movielens", "phone", "clothing"):
            assert name in out

    def test_evaluate_runs(self, capsys):
        assert main(["evaluate", "--dataset", "steam",
                     "--ranker", "itempop"]) == 0
        out = capsys.readouterr().out
        assert "HR@10" in out

    def test_attack_baseline_runs(self, capsys):
        assert main(["attack", "--dataset", "steam", "--ranker", "itempop",
                     "--method", "popular"]) == 0
        out = capsys.readouterr().out
        assert "popular RecNum:" in out

    @pytest.mark.slow
    def test_attack_poisonrec_runs(self, capsys):
        assert main(["attack", "--dataset", "steam", "--ranker", "itempop",
                     "--method", "poisonrec", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "poisonrec best RecNum:" in out

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        assert main(["attack", "--method", "poisonrec", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.slow
    def test_chaos_campaign_writes_checkpoint_and_resumes(self, capsys,
                                                          tmp_path):
        ck = tmp_path / "campaign.npz"
        argv = ["attack", "--dataset", "steam", "--ranker", "itempop",
                "--method", "poisonrec", "--steps", "2", "--chaos", "0.1",
                "--checkpoint", str(ck), "--checkpoint-every", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chaos mode" in out
        assert "resilience:" in out
        assert ck.exists()

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert f"resuming campaign from {ck}" in out

    @pytest.mark.slow
    def test_submit_then_serve_resume_completes_fleet(self, capsys,
                                                      tmp_path):
        fleet = str(tmp_path / "fleet")
        for name, ranker in (("a", "itempop"), ("b", "covisitation")):
            assert main(["submit", "--dir", fleet, "--name", name,
                         "--ranker", ranker, "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "submitted campaign 'a'" in out
        assert "submitted campaign 'b'" in out

        assert main(["serve", "--dir", fleet, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 campaign(s)" in out
        assert "completed" in out

    def test_submit_duplicate_name_is_an_error(self, capsys, tmp_path):
        fleet = str(tmp_path / "fleet")
        assert main(["submit", "--dir", fleet, "--name", "dup"]) == 0
        capsys.readouterr()
        assert main(["submit", "--dir", fleet, "--name", "dup"]) == 2
        assert "already exists" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_trace_and_metrics_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--dir", "fleet", "--obs-log", "obs.jsonl"])
        assert args.obs_log == "obs.jsonl"
        args = build_parser().parse_args(
            ["trace", "obs.jsonl", "--export", "chrome.json"])
        assert args.log == "obs.jsonl" and args.export == "chrome.json"
        args = build_parser().parse_args(
            ["metrics", "obs.jsonl", "--events", "5"])
        assert args.log == "obs.jsonl" and args.events == 5

    def test_missing_log_is_an_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace", missing]) == 2
        assert main(["metrics", missing]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.slow
    def test_attack_trace_metrics_round_trip(self, capsys, tmp_path):
        log = str(tmp_path / "obs.jsonl")
        export = str(tmp_path / "chrome.json")
        assert main(["attack", "--dataset", "steam", "--ranker", "itempop",
                     "--method", "poisonrec", "--steps", "2",
                     "--obs-log", log]) == 0
        assert f"obs run log: {log}" in capsys.readouterr().out

        assert main(["trace", log, "--export", export]) == 0
        out = capsys.readouterr().out
        assert "train_step" in out and "ppo_update" in out
        assert "chrome trace written" in out

        import json
        with open(export, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert any(event["ph"] == "X" for event in trace["traceEvents"])

        assert main(["metrics", log]) == 0
        assert "agent.queries" in capsys.readouterr().out

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_attack_trace_nests_query_phases(self, capsys, tmp_path,
                                             workers):
        """Regression: attack traces had no restore/merge/retrain/score
        spans, and pooled ``query`` spans were laid end to end from the
        batch start, overrunning their ``query_batch``."""
        log = tmp_path / "obs.jsonl"
        assert main(["attack", "--dataset", "steam",
                     "--ranker", "covisitation", "--method", "poisonrec",
                     "--steps", "2", "--workers", workers,
                     "--obs-log", str(log)]) == 0
        # A step took PPO gradient steps exactly when its rewards varied
        # (M=8 integer rewards: the mean then prints below the max).
        varied = {int(step): float(mean) < float(top) for step, mean, top
                  in re.findall(r"step\s+(\d+): mean=\s*(\S+) max=\s*(\S+)",
                                capsys.readouterr().out)}
        assert sorted(varied) == [0, 1]
        spans = load_run(log).spans
        by_id = {span.span_id: span for span in spans}
        queries = [span for span in spans if span.name == "query"]
        assert queries
        for query in queries:
            assert by_id[query.parent_id].name == "query_batch"
            children = sorted((span for span in spans
                               if span.parent_id == query.span_id),
                              key=lambda span: span.span_id)
            assert [span.name for span in children] == [
                "restore", "merge", "retrain", "score"]
            for span in [query] + children:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start <= span.end <= parent.end
        # Every PPO epoch that took a gradient step holds exactly one
        # forward, backward and optim span, in order and inside it; an
        # epoch that took none holds nothing.
        epochs = [span for span in spans if span.name == "ppo_epoch"]
        assert epochs
        for epoch in epochs:
            update = by_id[epoch.parent_id]
            assert update.name == "ppo_update"
            step = by_id[update.parent_id].attrs["step"]
            children = sorted((span for span in spans
                               if span.parent_id == epoch.span_id),
                              key=lambda span: span.span_id)
            assert [span.name for span in children] == (
                ["forward", "backward", "optim"] if varied[step] else [])
            for span in children:
                assert epoch.start <= span.start <= span.end <= epoch.end
        assert any(varied.values())
