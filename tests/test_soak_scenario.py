"""Tests for the soak scenario engine, chaos orchestration and CLI."""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.faults import FaultConfig
from repro.sim.soak import (
    ScenarioSpec,
    build_fault_plan,
    build_workload,
    checker_config_from_spec,
    load_scenario,
    perturbation_from_spec,
    run_soak,
)
from repro.workloads import save_trace, uniform_arrivals

SHIPPED_SCENARIOS = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "..", "examples", "scenarios", "*.json")
    )
)

SMALL = {
    "name": "unit-soak",
    "seed": 3,
    "servers": 6,
    "horizon": 43_200.0,
    "interval": 600.0,
    "checkpoint_interval": 600.0,
    "workload": [{"arrivals": "uniform", "jobs": 3, "window": 1_200.0}],
    "plan": {
        "node_crashes": [{"time": 900.0, "server": "node-1", "duration": 900.0}]
    },
}


class TestScenarioSpec:
    def test_defaults(self):
        spec = ScenarioSpec.from_dict(
            {"workload": [{"arrivals": "uniform", "jobs": 2}]}
        )
        assert spec.policy == "optimus"
        assert spec.servers == 13

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown key.*chaos_level"):
            ScenarioSpec.from_dict(
                {"workload": [{"arrivals": "uniform"}], "chaos_level": 11}
            )

    @pytest.mark.parametrize(
        "section, key, first_known",
        [
            pytest.param("faults", "node_mtbf_typo", "node_mtbf", id="node_mtbf_typo"),
            pytest.param("faults", "kv_error_rate", "node_mtbf", id="kv_error_rate"),
            pytest.param("checker", "stall_bnd", "recovery_slack", id="checker-stall_bnd"),
            pytest.param("plan", "node_crash", "node_crashes", id="plan-node_crash"),
            pytest.param(
                "plan", "controller_crashes", "node_crashes", id="plan-controller_crashes"
            ),
        ],
    )
    def test_unknown_fault_key(self, section, key, first_known):
        # Caught at load: a faults typo would otherwise be a TypeError from
        # FaultConfig(**faults) at run, and a checker or plan typo would be
        # silently ignored (no stall bound, no scripted crash).
        with pytest.raises(
            ConfigurationError,
            match=f"'{section}' has unknown key.*{key}.*known: {first_known}, ",
        ):
            ScenarioSpec.from_dict(
                {"workload": [{"arrivals": "uniform"}], section: {key: 100}}
            )

    @pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=os.path.basename)
    def test_shipped_scenario_loads(self, path):
        spec = load_scenario(path)
        assert spec.workload
        FaultConfig(**spec.faults)

    def test_workload_required(self):
        with pytest.raises(ConfigurationError, match="workload"):
            ScenarioSpec.from_dict({})

    def test_bad_arrival_kind(self):
        with pytest.raises(ConfigurationError, match="arrivals"):
            ScenarioSpec.from_dict({"workload": [{"arrivals": "psychic"}]})

    def test_trace_needs_path(self):
        with pytest.raises(ConfigurationError, match="needs a 'path'"):
            ScenarioSpec.from_dict({"workload": [{"arrivals": "trace"}]})

    def test_bad_engine(self):
        # The simulator has one loop; the old engine key is just unknown.
        with pytest.raises(ConfigurationError, match="unknown key.*engine"):
            ScenarioSpec.from_dict(
                {"workload": [{"arrivals": "uniform"}], "engine": "warp"}
            )

    def test_bad_perturbation_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ScenarioSpec.from_dict(
                {
                    "workload": [{"arrivals": "uniform"}],
                    "perturbation": {"kind": "chaotic"},
                }
            )

    def test_bad_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ScenarioSpec.from_dict(
                {"workload": [{"arrivals": "uniform"}], "seed": "zero"}
            )

    def _with_drill(self, drill):
        return ScenarioSpec.from_dict(
            {"workload": [{"arrivals": "uniform"}], "drill": drill}
        )

    def test_drill_unknown_key(self):
        # A typo must not silently run a drill with no crash.
        with pytest.raises(ConfigurationError, match="unknown key 'crash_piont'"):
            self._with_drill({"crash_piont": "after_teardown"})

    def test_drill_unknown_kind(self):
        # A typo must not silently run a crash drill instead of a failover.
        with pytest.raises(ConfigurationError, match="'kind'.*'failvoer'"):
            self._with_drill({"kind": "failvoer", "kills": 2})

    def test_drill_key_of_the_other_kind(self):
        with pytest.raises(ConfigurationError, match=r"'kills' \(a failover drill key\)"):
            self._with_drill({"crash_point": "after_teardown", "kills": 2})
        with pytest.raises(ConfigurationError, match=r"'steps' \(a crash drill key\)"):
            self._with_drill({"kind": "failover", "steps": 6})

    def test_drill_unknown_crash_point(self):
        with pytest.raises(ConfigurationError, match="crash_point"):
            self._with_drill({"crash_point": "after_lunch"})
        # Election crash points exist only for the failover drill.
        with pytest.raises(ConfigurationError, match="crash_point"):
            self._with_drill({"crash_point": "after_elected"})
        spec = self._with_drill({"kind": "failover", "crash_point": "after_elected"})
        assert spec.drill["crash_point"] == "after_elected"

    def test_drill_out_of_range(self):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            self._with_drill({"kind": "failover", "jobs": 0})

    def test_to_dict_round_trips(self):
        spec = ScenarioSpec.from_dict(dict(SMALL))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_scenario(str(path))


class TestBuildWorkload:
    def test_groups_prefixed_and_offset(self):
        spec = ScenarioSpec.from_dict(
            {
                "seed": 1,
                "workload": [
                    {"arrivals": "uniform", "jobs": 3, "window": 100.0},
                    {"arrivals": "uniform", "jobs": 3, "window": 100.0,
                     "offset": 5_000.0, "prefix": "spike"},
                ],
            }
        )
        jobs = build_workload(spec)
        assert len(jobs) == 6
        assert len({j.job_id for j in jobs}) == 6
        first = [j for j in jobs if j.job_id.startswith("g0-")]
        spike = [j for j in jobs if j.job_id.startswith("spike-")]
        assert len(first) == 3 and len(spike) == 3
        assert all(j.arrival_time >= 5_000.0 for j in spike)
        assert [j.arrival_time for j in jobs] == sorted(
            j.arrival_time for j in jobs
        )

    def test_trace_group_replays_file(self, tmp_path):
        source = uniform_arrivals(num_jobs=2, seed=5)
        path = tmp_path / "jobs.json"
        save_trace(source, str(path))
        spec = ScenarioSpec.from_dict(
            {"workload": [{"arrivals": "trace", "path": str(path)}]}
        )
        jobs = build_workload(spec)
        assert [j.job_id for j in jobs] == [
            f"g0-{j.job_id}" for j in source
        ]

    def test_unknown_generator_kwarg_is_config_error(self):
        spec = ScenarioSpec.from_dict(
            {"workload": [{"arrivals": "uniform", "jobs": 2, "flavour": "sour"}]}
        )
        with pytest.raises(ConfigurationError, match="workload group 0"):
            build_workload(spec)

    def test_group_seeds_differ(self):
        spec = ScenarioSpec.from_dict(
            {
                "seed": 0,
                "workload": [
                    {"arrivals": "uniform", "jobs": 4, "window": 1000.0},
                    {"arrivals": "uniform", "jobs": 4, "window": 1000.0},
                ],
            }
        )
        jobs = build_workload(spec)
        g0 = sorted(j.arrival_time for j in jobs if j.job_id.startswith("g0-"))
        g1 = sorted(j.arrival_time for j in jobs if j.job_id.startswith("g1-"))
        assert g0 != g1


class TestBuildFaultPlan:
    def test_empty_is_none(self):
        spec = ScenarioSpec.from_dict({"workload": [{"arrivals": "uniform"}]})
        assert build_fault_plan(spec) is None

    def test_explicit_plan(self):
        plan = build_fault_plan(ScenarioSpec.from_dict(dict(SMALL)))
        assert plan is not None
        assert plan.node_crashes[0].server == "node-1"

    def test_waves_seeded_and_distinct(self):
        spec = ScenarioSpec.from_dict(
            {
                "seed": 7,
                "servers": 8,
                "workload": [{"arrivals": "uniform"}],
                "fault_waves": [
                    {"start": 1000.0, "end": 2000.0, "crashes": 3,
                     "downtime": [600.0, 1200.0]}
                ],
            }
        )
        plan_a = build_fault_plan(spec)
        plan_b = build_fault_plan(spec)
        assert plan_a == plan_b  # seeded => reproducible
        crashes = plan_a.node_crashes
        assert len(crashes) == 3
        assert len({c.server for c in crashes}) == 3  # distinct servers
        assert all(1000.0 <= c.time < 2000.0 for c in crashes)
        assert all(600.0 <= c.duration <= 1200.0 for c in crashes)

    def test_wave_overflow_rejected(self):
        spec = ScenarioSpec.from_dict(
            {
                "servers": 2,
                "workload": [{"arrivals": "uniform"}],
                "fault_waves": [{"start": 0.0, "end": 100.0, "crashes": 5}],
            }
        )
        with pytest.raises(ConfigurationError, match="only 2 servers"):
            build_fault_plan(spec)

    def test_wave_needs_end(self):
        spec = ScenarioSpec.from_dict(
            {
                "workload": [{"arrivals": "uniform"}],
                "fault_waves": [{"start": 100.0, "end": 100.0}],
            }
        )
        with pytest.raises(ConfigurationError, match="'end' > 'start'"):
            build_fault_plan(spec)


class TestPerturbation:
    def test_none(self):
        assert perturbation_from_spec(None) is None

    def test_step(self):
        fn = perturbation_from_spec({"kind": "step", "at": 100.0, "factor": 0.5})
        assert fn(99.0) == 1.0
        assert fn(100.0) == 0.5

    def test_ramp(self):
        fn = perturbation_from_spec(
            {"kind": "ramp", "start": 0.0, "end": 100.0, "factor": 0.5}
        )
        assert fn(0.0) == 1.0
        assert fn(50.0) == pytest.approx(0.75)
        assert fn(200.0) == 0.5

    def test_ramp_needs_window(self):
        with pytest.raises(ConfigurationError, match="'end' > 'start'"):
            perturbation_from_spec({"kind": "ramp", "start": 5.0, "end": 5.0})

    def test_sine_bounded(self):
        fn = perturbation_from_spec(
            {"kind": "sine", "period": 100.0, "amplitude": 0.3}
        )
        values = [fn(t) for t in range(0, 200, 7)]
        assert all(0.7 <= v <= 1.3 for v in values)

    def test_sine_amplitude_bound(self):
        with pytest.raises(ConfigurationError, match="amplitude"):
            perturbation_from_spec({"kind": "sine", "amplitude": 1.0})


class TestCheckerConfigFromSpec:
    def test_soak_defaults(self):
        cfg = checker_config_from_spec({}, interval=600.0)
        assert cfg.require_accounting is True
        assert cfg.strict_end is True
        assert cfg.recovery_slack == 1800.0

    def test_slack_scales_with_interval(self):
        assert checker_config_from_spec({}, interval=1200.0).recovery_slack == 3600.0

    def test_overrides(self):
        cfg = checker_config_from_spec(
            {"recovery_slack": 60.0, "strict_end": False}, interval=600.0
        )
        assert cfg.recovery_slack == 60.0
        assert cfg.strict_end is False


class TestRunSoak:
    def test_small_scenario_clean(self, tmp_path):
        trace = tmp_path / "soak.jsonl"
        report = tmp_path / "report.json"
        scenario = ScenarioSpec.from_dict(dict(SMALL))
        outcome = run_soak(
            scenario, trace_out=str(trace), report_out=str(report)
        )
        assert outcome.ok, [v.message for v in outcome.violations]
        assert outcome.report["ok"] is True
        assert outcome.report["scenario"] == "unit-soak"
        # all three artifacts exist and agree
        assert trace.exists() and report.exists()
        assert outcome.manifest_path is not None
        manifest = json.loads(open(outcome.manifest_path).read())
        assert manifest["seed"] == 3
        on_disk = json.loads(report.read_text())
        assert on_disk["ok"] is True
        # the planned node-1 crash made it into the stream
        kinds = outcome.checker.counts
        assert kinds["node_failed"] >= 1
        assert kinds["run_completed"] == 1

    def test_drill_jobs_accounted(self):
        spec = dict(SMALL)
        spec["drill"] = {"crash_point": "after_teardown", "jobs": 2, "steps": 3}
        outcome = run_soak(ScenarioSpec.from_dict(spec))
        assert outcome.ok, [v.message for v in outcome.violations]
        accounting = [
            e for e in outcome.events if e["event"] == "run_completed"
        ][0]
        assert "drill-0" in accounting["unfinished"]
        assert accounting["leaked_pods"] == []
        assert accounting["leaked_leases"] == []
        assert accounting["leaked_intents"] == []


class TestSoakCli:
    def _write_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SMALL))
        return str(path)

    def test_scenario_run_ok(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [
                "soak",
                "--scenario", self._write_scenario(tmp_path),
                "--trace-out", str(tmp_path / "soak.jsonl"),
                "--report-out", str(report),
            ]
        )
        assert code == 0
        assert json.loads(report.read_text())["ok"] is True
        out = capsys.readouterr().out
        assert "invariants" in out and "FAIL" not in out

    def test_engine_and_seed_overrides(self, tmp_path, capsys):
        code = main(
            [
                "soak",
                "--scenario", self._write_scenario(tmp_path),
                "--seed", "11",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 11

    def test_mode_conflict_exits_2(self, tmp_path, capsys):
        assert main(["soak"]) == 2
        assert (
            main(
                [
                    "soak",
                    "--scenario", self._write_scenario(tmp_path),
                    "--self-test",
                ]
            )
            == 2
        )

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workload": [{"arrivals": "psychic"}]}))
        assert main(["soak", "--scenario", str(path)]) == 2

    def test_check_mode_on_simulate_trace(self, tmp_path, capsys):
        trace = tmp_path / "sim.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--scheduler", "optimus",
                    "--jobs", "3",
                    "--seed", "4",
                    "--trace-out", str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["soak", "--check", str(trace)]) == 0
        assert "invariants: ok" in capsys.readouterr().out

    def test_check_mode_flags_violation(self, tmp_path, capsys):
        trace = tmp_path / "torn.jsonl"
        events = [
            {"seq": 0, "time": 0.0, "event": "job_arrived", "job_id": "a"},
            {"seq": 1, "time": 9.0, "event": "job_completed", "job_id": "ghost"},
        ]
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["soak", "--check", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "INVARIANT VIOLATED" in out
        assert "ghost" in out

    def test_self_test_mode(self, capsys):
        assert main(["soak", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "baseline-clean" in out
        assert "dropped-completion" in out
