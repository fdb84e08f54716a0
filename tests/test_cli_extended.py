"""Tests for the simulate/scalability CLI subcommands."""

import json

import pytest

from repro.cli import build_parser, main


class TestSimulateCommand:
    ARGS = [
        "simulate",
        "--jobs", "2",
        "--servers", "4",
        "--window", "600",
        "--estimator", "oracle",
        "--seed", "5",
    ]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "average JCT" in out
        assert "running tasks over time" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheduler"] == "optimus"
        assert len(data["jobs"]) == 2

    def test_other_scheduler(self, capsys):
        assert main(self.ARGS + ["--scheduler", "drf", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheduler"] == "drf"

    def test_arrival_processes(self, capsys):
        assert main(self.ARGS + ["--arrivals", "google", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["jobs"]

    def test_background_load(self, capsys):
        args = self.ARGS + [
            "--background", "constant", "--background-fraction", "0.4", "--json",
        ]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["finished"] >= 1

    @pytest.mark.parametrize("command", ["simulate", "arena"])
    def test_estimator_choice_lists_the_modes(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--estimator", "noisy"])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.split("invalid choice")[1]
        assert "online" in message and "oracle" in message

    def test_partition_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--partition", "roundrobin"])


class TestScalabilityCommand:
    def test_runs_and_reports(self, capsys):
        assert main(["scalability", "--nodes", "200", "--job-counts", "50"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "seconds" in out
        assert "200" in out

    def test_multiple_scales(self, capsys):
        code = main(
            ["scalability", "--nodes", "100", "200", "--job-counts", "20", "40"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4  # header + rule + 2 data rows
