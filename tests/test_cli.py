"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_models_command(self):
        args = build_parser().parse_args(["models"])
        assert args.command == "models"

    def test_speed_validates_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["speed", "not-a-model"])

    def test_arena_defaults(self):
        args = build_parser().parse_args(["arena"])
        assert args.policies == "optimus,goodput,oasis,drf"
        assert args.seed == 42
        assert args.baseline is None


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet-50" in out
        assert "deepspeech2" in out

    def test_speed(self, capsys):
        assert main(["speed", "cnn-rand", "--max-tasks", "5"]) == 0
        out = capsys.readouterr().out
        assert "cnn-rand" in out
        assert "p=1" in out

    def test_partition(self, capsys):
        assert main(["partition", "resnet-50", "--num-ps", "8"]) == 0
        out = capsys.readouterr().out
        assert "paa" in out and "mxnet" in out

    def test_arena_tiny_json(self, capsys, tmp_path):
        gate_path = tmp_path / "gate.json"
        code = main(
            [
                "arena",
                "--policies", "optimus,oasis",
                "--jobs", "2",
                "--servers", "4",
                "--window", "600",
                "--estimator", "oracle",
                "--json",
                "--gate-output", str(gate_path),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["baseline"] == "optimus"
        assert {p["policy"] for p in report["policies"]} == {"optimus", "oasis"}
        gate = json.loads(gate_path.read_text())
        assert "oasis_jct_ratio" in gate

    def test_arena_unknown_policy_fails(self, capsys):
        code = main(["arena", "--policies", "optimus,not-a-policy"])
        assert code != 0
