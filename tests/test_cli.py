"""CLI runner tests."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "table3", "thm_a1"):
            assert name in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_every_experiment_registered(self):
        assert len(EXPERIMENTS) == 18
        assert "serving" in EXPERIMENTS
        assert "async" not in EXPERIMENTS

    def test_run_fast_experiment(self, capsys, tmp_path):
        assert main(["run", "thm_c1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "thm_c1_value_of_complaints" in out
        assert (tmp_path / "thm_c1_value_of_complaints.txt").exists()

    def test_serve_reports_plan_dedup(self, capsys):
        argv = ["serve", "--n-train", "120", "--n-query", "300",
                "--max-removals", "10"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "served 12 complaint cases over 2 distinct plans" in out
        assert "iteration 1: 2 executions for 12 cases (10 saved)" in out
        assert "removal order (10)" in out

    def test_serve_drops_worker_async_and_check_flags(self):
        for flag in ("--workers", "--async-pipeline", "--check"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", flag, "2"])
