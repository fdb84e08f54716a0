"""Tests for repro.obs.tracer: event schema, ordering, null behaviour."""

import io
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import (
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_TYPES,
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    read_trace,
)


class TestEventSchema:
    def test_all_event_types_declared(self):
        assert EVENT_TYPES == {
            "job_arrived",
            "allocation_decided",
            "placement_decided",
            "job_rescaled",
            "straggler_detected",
            "job_completed",
            "interval_tick",
            # fault injection & recovery
            "node_failed",
            "node_recovered",
            "task_crashed",
            "job_restarted",
            "kv_retry",
            "kv_retry_exhausted",
            "rescale_rolled_back",
            "checkpoint_missing",
            # crash-consistent control plane (§5.5)
            "node_cordoned",
            "node_lease_renewed",
            "intent_replayed",
            # second-generation observability: spans + estimator telemetry
            "span",
            "estimator_sample",
            "estimator_drift",
            # soak harness: checkpoint audit + terminal run accounting
            "checkpoint_recorded",
            "run_completed",
            # hot/standby HA: leader election + write fencing
            "leader_elected",
            "leader_deposed",
            "write_fenced",
            "node_lease_regrant",
            # scheduler decision ledger (grants / denials / placements)
            "decision",
        }

    def test_emit_builds_typed_payload(self):
        tracer = RecordingTracer()
        event = tracer.emit(EVENT_JOB_ARRIVED, 600.0, job_id="j1", model="vgg-16")
        assert event == {
            "seq": 0,
            "time": 600.0,
            "event": "job_arrived",
            "job_id": "j1",
            "model": "vgg-16",
        }

    def test_unknown_event_type_rejected(self):
        tracer = RecordingTracer()
        with pytest.raises(ConfigurationError):
            tracer.emit("job_exploded", 0.0)

    def test_seq_is_monotonic_and_gapless(self):
        tracer = RecordingTracer()
        for i in range(5):
            tracer.emit(EVENT_INTERVAL_TICK, i * 600.0)
        assert [e["seq"] for e in tracer.events] == [0, 1, 2, 3, 4]
        assert [e["time"] for e in tracer.events] == [0.0, 600.0, 1200.0, 1800.0, 2400.0]


class TestNullTracer:
    def test_disabled_and_falsy(self):
        assert not NULL_TRACER
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_emit_is_a_noop_and_skips_validation(self):
        # The null tracer must never pay for payload construction or
        # validation -- even an invalid event type goes nowhere quietly.
        assert NULL_TRACER.emit("not-an-event", 0.0, junk=object()) is None

    def test_enabled_tracers_are_truthy(self):
        assert RecordingTracer()
        assert JsonlTracer(io.StringIO())


class TestRecordingTracer:
    def test_filters_by_type_and_job(self):
        tracer = RecordingTracer()
        tracer.emit(EVENT_JOB_ARRIVED, 0.0, job_id="a")
        tracer.emit(EVENT_JOB_ARRIVED, 10.0, job_id="b")
        tracer.emit(EVENT_JOB_COMPLETED, 20.0, job_id="a")
        tracer.emit(EVENT_INTERVAL_TICK, 30.0)
        assert [e["job_id"] for e in tracer.of_type(EVENT_JOB_ARRIVED)] == ["a", "b"]
        assert [e["event"] for e in tracer.for_job("a")] == [
            "job_arrived",
            "job_completed",
        ]


class TestJsonlTracer:
    def test_writes_one_json_object_per_line(self):
        stream = io.StringIO()
        tracer = JsonlTracer(stream)
        tracer.emit(EVENT_JOB_ARRIVED, 0.0, job_id="j1")
        tracer.emit(EVENT_JOB_COMPLETED, 600.0, job_id="j1", steps=100.0)
        tracer.close()
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "job_arrived"
        assert parsed[1]["steps"] == 100.0

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.emit(EVENT_JOB_ARRIVED, 0.0, job_id="j1")
            tracer.emit(EVENT_INTERVAL_TICK, 0.0, running_jobs=1, active_jobs=2)
        events = read_trace(path)
        assert [e["event"] for e in events] == ["job_arrived", "interval_tick"]
        assert events[1]["active_jobs"] == 2

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "job_arrived"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            read_trace(str(path))

    @pytest.mark.parametrize("bad_line", ["42", "[1, 2]", '"a bare string"'])
    def test_read_trace_rejects_non_object_lines(self, tmp_path, bad_line):
        # Valid JSON that is not an event object fails like invalid JSON
        # does, naming the line, instead of surfacing as an event.
        path = tmp_path / "scalar.jsonl"
        path.write_text('{"event": "job_arrived"}\n' + bad_line + "\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            read_trace(str(path))

    def test_strict_summarize_rejects_non_object_lines(self, tmp_path):
        from repro.obs.summarize import main as summarize_main

        path = tmp_path / "scalar.jsonl"
        path.write_text('{"event": "job_arrived", "time": 0.0}\n[1, 2]\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            summarize_main([str(path), "--strict"])
