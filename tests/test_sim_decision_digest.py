"""``SimulationResult.decision_digest``: one hash of every interval's decision.

The digest folds each interval's §4.1 allocation and §4.2 placement
through :func:`repro.sim.metrics.hash_decision`. These tests pin that it
is computed the same way whatever sinks are attached, that it replays
from the run's own ``allocation_decided`` / ``placement_decided`` events,
and that it moves when a decision moves.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster, cpu_mem
from repro.obs import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_INTERVAL_TICK,
    EVENT_PLACEMENT_DECIDED,
    JsonlTracer,
    MetricsRegistry,
    RecordingTracer,
    read_trace,
)
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.sim.metrics import hash_decision
from repro.workloads import uniform_arrivals

FAST_MODELS = ["cnn-rand", "dssm", "kaggle-ndsb"]


def run(seed=3, scheduler="optimus", estimator_mode="oracle", num_jobs=3, **sinks):
    ledger_mode = sinks.pop("ledger_mode", "auto")
    return simulate(
        Cluster.homogeneous(4, cpu_mem(16, 64)),
        make_scheduler(scheduler),
        uniform_arrivals(num_jobs=num_jobs, window=900, seed=seed, models=FAST_MODELS),
        SimConfig(seed=seed, estimator_mode=estimator_mode, ledger_mode=ledger_mode),
        **sinks,
    )


def replay_digest(events):
    """Recompute the digest from a trace's events alone.

    Each ``interval_tick`` closes one interval's decision, so an interval
    that granted nothing still contributes ``(now, [])``.
    """
    digest = hashlib.sha256()
    allocations, layouts = {}, {}
    for event in events:
        if event["event"] == EVENT_ALLOCATION_DECIDED:
            allocations[event["job_id"]] = (event["workers"], event["ps"])
        elif event["event"] == EVENT_PLACEMENT_DECIDED:
            layouts[event["job_id"]] = event["layout"]
        elif event["event"] == EVENT_INTERVAL_TICK:
            hash_decision(digest, event["time"], allocations, layouts)
            allocations, layouts = {}, {}
    return digest.hexdigest()


#: Every way of attaching (or not attaching) the observability sinks.
SINKS = {
    "none": lambda: {},
    "tracer+metrics": lambda: {"tracer": RecordingTracer(), "metrics": MetricsRegistry()},
    "ledger-off": lambda: {"tracer": RecordingTracer(), "ledger_mode": "off"},
    "ledger-sampled": lambda: {"tracer": RecordingTracer(), "ledger_mode": "sampled"},
    "ledger-full": lambda: {"tracer": RecordingTracer(), "ledger_mode": "full"},
}


class TestDecisionDigest:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        scheduler=st.sampled_from(["optimus", "drf"]),
        sinks=st.sampled_from(sorted(SINKS)),
    )
    def test_sinks_do_not_change_the_digest(self, seed, scheduler, sinks):
        plain = run(seed, scheduler)
        observed = run(seed, scheduler, **SINKS[sinks]())
        assert observed.decision_digest == plain.decision_digest

    def test_online_estimators_digest_is_sink_independent(self):
        plain = run(estimator_mode="online", num_jobs=2)
        traced = run(
            estimator_mode="online",
            num_jobs=2,
            tracer=RecordingTracer(),
            metrics=MetricsRegistry(),
        )
        assert traced.decision_digest == plain.decision_digest

    def test_digest_replays_from_the_runs_own_events(self, tmp_path):
        tracer = RecordingTracer()
        result = run(tracer=tracer)
        assert replay_digest(tracer.events) == result.decision_digest
        # A trace read back from disk (layout tuples become JSON lists)
        # replays to the same digest.
        path = tmp_path / "trace.jsonl"
        jsonl = JsonlTracer(str(path))
        run(tracer=jsonl)
        jsonl.close()
        assert replay_digest(read_trace(str(path))) == result.decision_digest

    def test_different_decisions_give_different_digests(self):
        assert run(scheduler="optimus").decision_digest != run(scheduler="drf").decision_digest
        assert run(seed=3).decision_digest != run(seed=4).decision_digest

    def test_one_changed_grant_or_layout_changes_the_digest(self):
        def digest_of(allocations, layouts):
            digest = hashlib.sha256()
            hash_decision(digest, 0.0, allocations, layouts)
            return digest.hexdigest()

        base = digest_of({"j": (2, 1)}, {"j": {"s0": (2, 1)}})
        assert digest_of({"j": (2, 1)}, {"j": {"s0": [2, 1]}}) == base
        assert digest_of({"j": (1, 1)}, {"j": {"s0": (1, 1)}}) != base
        assert digest_of({"j": (2, 1)}, {"j": {"s0": (1, 1), "s1": (1, 0)}}) != base


class TestOracleErrors:
    """The oracle perturbed by Fig. 15's injected errors: twelve jobs on
    thirteen servers, one decision digest per (convergence, speed) error.
    At zero error it is the plain oracle."""

    DIGESTS = {
        (0.0, 0.0): "07bc203cd8cb4a17681314ea76abcb9967669f3a34f3c5a417314f21e4be5d51",
        (0.3, 0.0): "6f243576bf1ef22bcfb9e5662be54b240ce16c2e7161e4d5dd93c2c9c02772de",
        (0.0, 0.3): "10a1072056c0b56a0c0c5ba8fba62c21b7c3882bd617f55c7516028aad73dec4",
        (0.2, 0.1): "07f1594910b441b960a9aadbd35f73cb78477c9cf1a895dc814b8db16dd52e7f",
    }

    @pytest.mark.parametrize("convergence_error, speed_error", sorted(DIGESTS))
    def test_digest_is_pinned(self, convergence_error, speed_error):
        result = simulate(
            Cluster.homogeneous(13, cpu_mem(16, 80)),
            make_scheduler("optimus"),
            uniform_arrivals(num_jobs=12, seed=3),
            SimConfig(
                seed=5,
                estimator_mode="oracle",
                convergence_error=convergence_error,
                speed_error=speed_error,
            ),
        )
        assert result.decision_digest == self.DIGESTS[convergence_error, speed_error]
