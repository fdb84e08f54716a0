"""Property tests for the decision ledger (PR 10).

The ledger's core contract: in ``full`` mode, replaying a job's grant
events reconstructs its final allocation exactly. Every greedy grant
emits one ``decision`` event carrying the *post-grant* ``(workers, ps)``,
so for any job that received the 1+1 starter,

    final = (1 + #worker grants, 1 + #ps grants)

and the last grant event's ``(workers, ps)`` equals the final allocation.
Starved jobs instead get a ``capacity_exhausted`` starter denial and no
allocation. Hypothesis explores random fleets (job counts, capacities,
models, work sizes) to check this holds unconditionally.

The second half covers tolerant reads: torn JSONL lines and ``decision``
events with unknown kinds must never break ``summarize`` or ``explain``
-- a trace cut short by a crash is precisely the one an operator reads.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.resources import cpu_mem
from repro.core.allocation import AllocationRequest, allocate
from repro.obs import (
    DecisionLedger,
    MetricsRegistry,
    RecordingTracer,
    explain_trace,
    read_trace_tolerant,
    use_ledger,
)
from repro.obs.fold import fold_trace
from repro.obs.summarize import summarize_trace
from repro.workloads import MODEL_ZOO, StepTimeModel

FAST_MODELS = ("resnet-50", "cnn-rand", "dssm")

LEDGER_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def truth_speed(model, mode):
    truth = StepTimeModel(MODEL_ZOO[model], mode)
    return lambda p, w: truth.speed(p, w)


@st.composite
def fleets(draw):
    """A random fleet: allocation requests plus a cluster capacity."""
    num_jobs = draw(st.integers(min_value=1, max_value=6))
    requests = []
    for i in range(num_jobs):
        model = draw(st.sampled_from(FAST_MODELS))
        mode = draw(st.sampled_from(("sync", "async")))
        remaining = draw(st.floats(min_value=10.0, max_value=1e6))
        cap = draw(st.integers(min_value=1, max_value=12))
        requests.append(
            AllocationRequest(
                job_id=f"j{i}",
                remaining_work=remaining,
                speed=truth_speed(model, mode),
                worker_demand=cpu_mem(5, 10),
                ps_demand=cpu_mem(5, 10),
                max_workers=cap,
                max_ps=cap,
            )
        )
    # Anywhere from starving most jobs to room for everyone.
    cpu = draw(st.integers(min_value=10, max_value=300))
    return requests, cpu_mem(cpu, 2 * cpu)


class TestLedgerReplayReconstruction:
    @LEDGER_SETTINGS
    @given(fleet=fleets())
    def test_full_ledger_replays_to_final_allocation(self, fleet):
        requests, capacity = fleet
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        ledger = DecisionLedger(tracer, metrics, mode="full")
        with use_ledger(ledger):
            result = allocate(requests, capacity)

        grants = {}
        last = {}
        starter_denied = set()
        for event in tracer.events:
            if event.get("event") != "decision":
                continue
            job_id = event["job_id"]
            if event["kind"] == "grant":
                counts = grants.setdefault(job_id, {"worker": 0, "ps": 0})
                counts[event["task"]] += 1
                last[job_id] = (event["workers"], event["ps"])
            elif (
                event["kind"] == "deny"
                and event["reason"] == "capacity_exhausted"
                and event.get("stage") == "starter"
            ):
                starter_denied.add(job_id)

        for request in requests:
            job_id = request.job_id
            if job_id in result.starved:
                assert job_id in starter_denied
                assert job_id not in result.allocations
                assert job_id not in grants
                continue
            final = result.allocations[job_id]
            counts = grants.get(job_id, {"worker": 0, "ps": 0})
            assert (final.workers, final.ps) == (
                1 + counts["worker"],
                1 + counts["ps"],
            )
            if job_id in last:
                assert last[job_id] == (final.workers, final.ps)

        total_grants = sum(
            c["worker"] + c["ps"] for c in grants.values()
        )
        assert metrics.counter("decision.grants").value == total_grants

    @LEDGER_SETTINGS
    @given(fleet=fleets(), top_k=st.integers(min_value=1, max_value=6))
    def test_sampled_mode_conserves_grant_count(self, fleet, top_k):
        requests, capacity = fleet
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        ledger = DecisionLedger(tracer, metrics, mode="sampled", top_k=top_k)
        with use_ledger(ledger):
            allocate(requests, capacity)
        emitted = sum(
            1
            for e in tracer.events
            if e.get("event") == "decision" and e.get("kind") == "grant"
        )
        assert emitted <= top_k
        assert all(
            e.get("sampled") is True
            for e in tracer.events
            if e.get("event") == "decision" and e.get("kind") == "grant"
        )
        sampled_out = metrics.counter("decision.grants_sampled_out").value
        assert metrics.counter("decision.grants").value == emitted + sampled_out


class TestTolerantDecisionReads:
    def write_trace(self, tmp_path):
        """A trace with good lines, a torn line and unknown decision kinds."""
        tracer = RecordingTracer()
        tracer.emit("job_arrived", 0.0, job_id="j1", model="cnn-rand", mode="sync")
        tracer.emit(
            "decision", 0.0, kind="grant", job_id="j1", task="worker",
            gain=0.4, workers=2, ps=1, index=0,
        )
        tracer.emit(
            "decision", 0.0, kind="deny", job_id="j1",
            reason="converged_yield", workers=2, ps=1,
        )
        tracer.emit("allocation_decided", 0.0, job_id="j1", workers=2, ps=1)
        path = tmp_path / "torn.jsonl"
        lines = [json.dumps(e, separators=(",", ":")) for e in tracer.events]
        # A decision kind from a newer build, then a line torn mid-write.
        lines.append(json.dumps({
            "seq": 90, "time": 5.0, "event": "decision", "kind": "frobnicate",
            "job_id": "j1", "whatever": 3,
        }))
        lines.append('{"seq": 91, "time": 6.0, "event": "decision", "kin')
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_summarize_survives_torn_and_unknown_decisions(self, tmp_path):
        events, skipped = read_trace_tolerant(self.write_trace(tmp_path))
        assert skipped == 1  # only the torn line drops
        text = summarize_trace(events, skipped_lines=skipped)
        assert "skipped 1 corrupt/truncated line(s)" in text
        assert "decision ledger:" in text
        fold = fold_trace(events)
        assert fold.grants == {"worker": 1}
        assert fold.denials == {"converged_yield": 1}

    def test_explain_survives_torn_and_unknown_decisions(self, tmp_path):
        events, _ = read_trace_tolerant(self.write_trace(tmp_path))
        text = explain_trace(events, "j1")
        assert "granted +1 worker" in text
        assert "j1" in text
        # The unknown kind renders as *something* without raising.
        assert "frobnicate" in text or "decision" in text

    def test_explain_before_the_jobs_first_event_names_its_time(self, tmp_path):
        events, _ = read_trace_tolerant(self.write_trace(tmp_path))
        late = [dict(event, time=event["time"] + 3600.0) for event in events]
        assert explain_trace(late, "j1", at=100.0) == (
            "no events for job 'j1' at or before t=100; "
            "its first event is at t=3600"
        )
        assert explain_trace(late, "j1", at=3600.0).startswith("j1: ")

    def test_explain_unknown_job_lists_known_jobs(self, tmp_path):
        events, _ = read_trace_tolerant(self.write_trace(tmp_path))
        text = explain_trace(events, "nope")
        assert "no events for job" in text
        assert "j1" in text
