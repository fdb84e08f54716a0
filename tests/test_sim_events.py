"""The simulator's event loop and the incremental allocator.

Two contracts are pinned here:

* The event heap that drives :class:`~repro.sim.engine.Simulation` must
  keep every per-job outcome (completion time, steps, crash-induced
  restarts) on its recorded digests, across seeds and with faults
  injected. They were first recorded when a fixed-tick loop still ran
  beside it and the two were checked bit-identical, and re-recorded when
  the online §3 estimators began refitting on evidence, a deliberate
  decision change.
* The heap-based incremental ``allocate`` (candidate completion times
  carried in heap entries) must grant exactly what
  a from-scratch reference -- same greedy control flow, but recomputing
  :func:`~repro.core.allocation._marginal_gain` fresh at every push --
  would grant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import json
import random

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.cluster.resources import ResourceVector
from repro.common.errors import FittingError
from repro.core.allocation import (
    AllocationRequest,
    TaskAllocation,
    WeightedSpeed,
    _marginal_gain,
    allocate,
)
from repro.core.speed import SpeedEstimator
from repro.faults.config import FaultConfig
from repro.obs import DecisionLedger, MetricsRegistry, RecordingTracer, use_ledger, use_registry
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import MODEL_ZOO, StepTimeModel, make_job, uniform_arrivals

SEEDS = (3, 11, 42)

FAULTS = FaultConfig(node_mtbf=40_000.0, task_crash_rate=2e-5)


def run_one(seed, faults=None, metrics=None, workload=None):
    workload = workload or uniform_arrivals(num_jobs=8, window=8_000, seed=seed)
    config = SimConfig(seed=seed, faults=faults or FaultConfig())
    return simulate(
        Cluster.homogeneous(10, cpu_mem(16, 80)),
        make_scheduler("optimus"),
        workload,
        config,
        metrics=metrics,
    )


def job_fingerprints(result):
    """Every per-job outcome the pinned digests cover."""
    return {
        job_id: (
            record.completion_time,
            record.total_steps,
            record.num_restarts,
            record.num_scalings,
            record.steps_lost,
        )
        for job_id, record in result.jobs.items()
    }


def fingerprint_digest(result):
    """sha256 of the fingerprints, floats as exact hex."""
    rows = sorted(
        [job_id, *(v.hex() if isinstance(v, float) else v for v in fingerprint)]
        for job_id, fingerprint in job_fingerprints(result).items()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestEngineEquivalence:
    """The event loop reproduces, bit for bit, the recorded outcomes below.
    The former fixed-tick and event-heap engines agreed on the first
    recording; the refit-on-evidence estimators re-recorded them, and so
    did array loss ingestion (each interval's loss noise is drawn as
    arrays, so online decisions moved)."""

    FAULT_FREE_DIGESTS = {
        3: "543833b4621712bfba9a8debc27ac39a6499a184f706fae96a03b9cda2775d5e",
        11: "0530f3759d33f97186dcb094f9990aadfa254047f5206dd14ae359b2fd9d086a",
        42: "0b6c8c36b4f3b2061a48c5186ee6d4a2b00b9256158a5920d7ccbffe372ed128",
    }
    FAULT_DIGESTS = {
        3: "70d3ba7ddac0faaab55323fd36001431825f18f356f2ee4e4faae1d31567fb57",
        11: "b907549dafca73a89fa3c6d66de9804e82d12fea16ef4f04e236232f6d4a55d4",
        42: "ec3bae794a63a86faab0a77e34312dce56ad94bfc9c472bcb52941cf9561947b",
    }

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_fault_free(self, seed):
        assert fingerprint_digest(run_one(seed)) == self.FAULT_FREE_DIGESTS[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_under_faults(self, seed):
        """Node and task crashes draw the fault RNG in the recorded order."""
        result = run_one(seed, faults=FAULTS)
        assert fingerprint_digest(result) == self.FAULT_DIGESTS[seed]

    def test_faults_actually_fire(self):
        # The fault digests would say little if the config never fired.
        restarts = 0
        for seed in SEEDS:
            result = run_one(seed, faults=FAULTS)
            restarts += sum(r.num_restarts for r in result.jobs.values())
        assert restarts > 0

    def test_idle_gaps_cost_no_schedule_events(self):
        """Two jobs separated by a huge idle gap: the loop must not grind
        through the empty intervals inside the gap. Every schedule event
        runs exactly one interval."""
        gap = 400_000.0
        workload = [
            make_job("cnn-rand", mode="sync", job_id="early", arrival_time=0.0),
            make_job(
                "cnn-rand", mode="sync", job_id="late", arrival_time=gap
            ),
        ]
        metrics = MetricsRegistry()
        result = run_one(0, metrics=metrics, workload=workload)
        assert all(record.finished for record in result.jobs.values())

        counters = metrics.snapshot()["counters"]
        intervals = counters["engine.intervals"]
        schedules = counters["sim.events_schedule"]
        assert schedules == intervals
        # The gap alone spans hundreds of interval boundaries; walking it
        # would show up as hundreds of schedule events.
        boundaries_in_gap = gap / result.interval
        assert intervals < boundaries_in_gap / 10
        assert schedules < boundaries_in_gap / 10

    def test_event_counters_exported(self):
        metrics = MetricsRegistry()
        run_one(0, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["sim.events_processed"] > 0
        assert counters["sim.events_arrival"] > 0
        assert counters["sim.events_schedule"] > 0
        # The heap holds only arrivals and scheduling points.
        assert counters["sim.events_processed"] == (
            counters["sim.events_arrival"] + counters["sim.events_schedule"]
        )


# -- incremental allocator vs from-scratch reference -------------------------


def reference_allocate(requests, capacity):
    """The pre-optimization greedy: same control flow as ``allocate`` but
    every push recomputes the full marginal gain from scratch through
    scalar ``_marginal_gain`` calls. Tie-breaking (heap counter order) is
    identical by construction, so results must match exactly."""
    used = {}
    cap = dict(capacity.items())

    def fits(demand):
        return all(
            used.get(name, 0.0) + value <= cap.get(name, 0.0) + 1e-9
            for name, value in demand.items()
        )

    def consume(demand):
        for name, value in demand.items():
            used[name] = used.get(name, 0.0) + value

    allocations = {}
    starved = []
    active = {}
    for request in requests:
        starter = request.worker_demand + request.ps_demand
        if fits(starter):
            consume(starter)
            allocations[request.job_id] = TaskAllocation(1, 1)
            active[request.job_id] = request
        else:
            starved.append(request.job_id)

    counter = itertools.count()
    versions = {job_id: 0 for job_id in active}
    heap = []

    def push(job_id):
        gain, kind = _marginal_gain(active[job_id], allocations[job_id], capacity)
        if gain > 0 and gain != float("inf"):
            heapq.heappush(
                heap, (-gain, next(counter), job_id, kind, versions[job_id])
            )

    for job_id in active:
        push(job_id)

    while heap:
        _, _, job_id, kind, version = heapq.heappop(heap)
        if versions[job_id] != version:
            continue
        request = active[job_id]
        alloc = allocations[job_id]
        demand = request.worker_demand if kind == "worker" else request.ps_demand
        if not fits(demand):
            other = request.ps_demand if kind == "worker" else request.worker_demand
            if kind == "worker" and alloc.ps < request.max_ps and fits(other):
                kind, demand = "ps", other
            elif kind == "ps" and alloc.workers < request.max_workers and fits(other):
                kind, demand = "worker", other
            else:
                continue
        consume(demand)
        if kind == "worker":
            alloc = TaskAllocation(alloc.workers + 1, alloc.ps)
        else:
            alloc = TaskAllocation(alloc.workers, alloc.ps + 1)
        allocations[job_id] = alloc
        versions[job_id] += 1
        push(job_id)

    return allocations, tuple(starved)


def random_fleet(rng, num_jobs):
    """Jobs with randomized Eqn-3-shaped speed functions and demands.

    Coefficients are continuous draws, so gain ties across distinct jobs
    have measure zero -- results cannot depend on how ties break."""
    requests = []
    for i in range(num_jobs):
        a = 0.5 + 4.0 * rng.random()
        b = 0.5 + 4.0 * rng.random()
        c = 0.05 * rng.random()
        d = 0.05 * rng.random()

        def speed(p, w, a=a, b=b, c=c, d=d):
            return w / (a + b * w / p + c * w + d * p)

        requests.append(
            AllocationRequest(
                job_id=f"job-{i}",
                remaining_work=1e4 * (1.0 + 9.0 * rng.random()),
                speed=speed,
                worker_demand=cpu_mem(
                    1 + rng.randrange(4), 2 + rng.randrange(8)
                ),
                ps_demand=cpu_mem(1 + rng.randrange(2), 1 + rng.randrange(4)),
                max_workers=2 + rng.randrange(12),
                max_ps=2 + rng.randrange(12),
            )
        )
    return requests


def fitted_fleet(seed):
    """Twelve jobs on §3.2 fits of noisy samples (thetas with full
    mantissas, sync and async), ``WeightedSpeed`` over those fits and
    ``WeightedSpeed`` over the ground truth, on a cluster that runs out."""
    rng = random.Random(seed)
    requests = []
    for i in range(12):
        mode = ("async", "sync")[i % 2]
        estimator = SpeedEstimator(mode=mode, global_batch=256.0)
        a, b, c = 0.2 + rng.random(), 0.5 + 2.0 * rng.random(), 0.02 * rng.random()
        for p, w in [(1, 1), (1, 2), (2, 2), (2, 4), (3, 6), (4, 8), (4, 12), (6, 9)]:
            seconds = a + b * w / p + c * w + 0.01 * p
            noise = 1.0 + 0.05 * (rng.random() - 0.5)
            estimator.add_sample(
                p, w, noise * (w / seconds if mode == "async" else 1.0 / seconds)
            )
        fitted = estimator.speed_function()
        decay = 0.02 + 0.1 * rng.random()

        def staleness(p, w, decay=decay):
            return 1.0 / (1.0 + decay * (w - 1))

        model = ("cnn-rand", "dssm", "kaggle-ndsb")[i % 3]
        truth = StepTimeModel(MODEL_ZOO[model], mode).speed
        speed = (fitted, WeightedSpeed(fitted, staleness), WeightedSpeed(truth, staleness))[
            i % 3
        ]
        requests.append(
            AllocationRequest(
                job_id=f"job-{i}",
                remaining_work=1e4 * (1.0 + 9.0 * rng.random()),
                speed=speed,
                worker_demand=cpu_mem(1 + rng.randrange(4), 2 + rng.randrange(8)),
                ps_demand=cpu_mem(1 + rng.randrange(2), 1 + rng.randrange(4)),
                priority=(1.0, 0.95)[i % 5 == 0],
                max_workers=4 + rng.randrange(12),
                max_ps=4 + rng.randrange(12),
            )
        )
    return requests, ResourceVector({"cpu": 150.0, "memory": 400.0})


class TestIncrementalAllocatorEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_fleets(self, seed):
        rng = random.Random(seed)
        num_jobs = 3 + rng.randrange(12)
        requests = random_fleet(rng, num_jobs)
        # Capacity from ample to starving: tight capacity exercises the
        # fits-fallback and starter-starvation paths.
        scale = (4, 16, 60)[seed % 3]
        capacity = ResourceVector(
            {"cpu": float(scale * num_jobs), "memory": float(3 * scale * num_jobs)}
        )
        result = allocate(requests, capacity)
        ref_allocations, ref_starved = reference_allocate(requests, capacity)
        assert result.allocations == ref_allocations
        assert result.starved == ref_starved

    def test_matches_reference_with_fitted_speed_model(self):
        """The allocator must agree with the reference on a real fitted
        model, not just Python lambdas."""
        estimator = SpeedEstimator(mode="async", global_batch=128.0)
        for p, w in [(1, 1), (1, 2), (2, 2), (2, 4), (3, 6), (4, 8), (4, 12)]:
            estimator.add_sample(p, w, w / (1.0 + 2.0 * w / p + 0.01 * w))
        fn = estimator.speed_function()
        requests = [
            AllocationRequest(
                job_id=f"fit-{i}",
                remaining_work=5e4 * (i + 1),
                speed=fn,
                worker_demand=cpu_mem(2, 4),
                ps_demand=cpu_mem(1, 2),
                max_workers=16,
                max_ps=16,
            )
            for i in range(5)
        ]
        capacity = ResourceVector({"cpu": 120.0, "memory": 260.0})
        result = allocate(requests, capacity)
        ref_allocations, ref_starved = reference_allocate(requests, capacity)
        assert result.allocations == ref_allocations
        assert result.starved == ref_starved

    def test_starvation_and_stop_reason_preserved(self):
        rng = random.Random(7)
        requests = random_fleet(rng, 10)
        tiny = ResourceVector({"cpu": 12.0, "memory": 30.0})
        result = allocate(requests, tiny)
        ref_allocations, ref_starved = reference_allocate(requests, tiny)
        assert result.allocations == ref_allocations
        assert result.starved == ref_starved
        assert len(ref_starved) > 0  # the scenario actually starves jobs

    def assert_matches_reference(self, requests, capacity):
        result = allocate(requests, capacity)
        ref_allocations, ref_starved = reference_allocate(requests, capacity)
        assert list(result.allocations.items()) == list(ref_allocations.items())
        assert result.starved == ref_starved
        return result

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_fitted_and_weighted_speeds(self, seed):
        """Frozen fits, ``WeightedSpeed`` over a fit, ``WeightedSpeed`` over
        the ground truth, and a weight that turns zero, negative or NaN
        past a knee: those configurations must map to "unusable" as
        ``_safe_speed`` does."""
        rng = random.Random(seed)
        requests = []
        for i, request in enumerate(random_fleet(rng, 9)):
            estimator = SpeedEstimator(mode="async", global_batch=128.0)
            a, b = 0.5 + rng.random(), 1.0 + 2.0 * rng.random()
            for p, w in [(1, 1), (1, 2), (2, 2), (2, 4), (3, 6), (4, 8), (4, 12)]:
                estimator.add_sample(p, w, w / (a + b * w / p + 0.01 * w))
            fitted = estimator.speed_function()
            decay = 0.02 + 0.1 * rng.random()

            def staleness(p, w, decay=decay):
                return 1.0 / (1.0 + decay * (w - 1))

            def cliff(p, w, knee=3 + i % 4, drop=(0.0, -1.0, float("nan"))[i % 3]):
                return drop if p + w >= knee else 1.0

            truth = StepTimeModel(MODEL_ZOO["cnn-rand"], "async").speed
            speed = (
                fitted,
                WeightedSpeed(fitted, staleness),
                WeightedSpeed(truth, staleness),
                WeightedSpeed(fitted, cliff),
            )[i % 4]
            requests.append(dataclasses.replace(request, speed=speed))
        capacity = ResourceVector({"cpu": 120.0, "memory": 360.0})
        self.assert_matches_reference(requests, capacity)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_on_noisy_fits(self, seed):
        """Real §3.2 fits on noisy samples (thetas with full mantissas), in
        both modes, plain and under ``WeightedSpeed``."""
        requests, capacity = fitted_fleet(seed)
        self.assert_matches_reference(requests, capacity)

    def test_noisy_fit_grant_log_is_pinned(self):
        """The grant log of each noisy-fit fleet, as the decision ledger
        records it, first recorded when candidates were still scored
        through a batch ``predict_many``: scalar evaluation must reproduce
        every grant and gain bit for bit. Re-recorded when speed fits moved
        to the normal equations: θ moved in its last bits, and so did the
        gains; every grant stayed where it was."""
        pinned = {
            0: (59, "2c7480bde79be08437a435c1e18f59d2e90c02a0ac653f127afa6392d7dfc1a3"),
            1: (50, "d4852bd5d499a52c84a4ce61a3806c86fd4d694fb103eab6d96d03be176926a7"),
            2: (55, "80dbfe40d144476acf31a3e1c76753f8c1f27bbc25167c571763a4f6507eb58e"),
        }
        for seed, (count, digest) in pinned.items():
            requests, capacity = fitted_fleet(seed)
            tracer = RecordingTracer()
            with use_ledger(DecisionLedger(tracer, MetricsRegistry(), mode="full")):
                allocate(requests, capacity)
            log = [
                [e["job_id"], e["task"], e["gain"].hex(), e["workers"], e["ps"]]
                for e in tracer.of_type("decision")
                if e["kind"] == "grant"
            ]
            assert len(log) == count
            assert hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_when_task_caps_bind(self, seed):
        rng = random.Random(100 + seed)
        requests = [
            dataclasses.replace(
                r, max_workers=1 + rng.randrange(3), max_ps=1 + rng.randrange(3)
            )
            for r in random_fleet(rng, 8)
        ]
        capacity = ResourceVector({"cpu": 1000.0, "memory": 3000.0})
        result = self.assert_matches_reference(requests, capacity)
        at_cap = [
            r.job_id
            for r in requests
            if result.allocations[r.job_id] == TaskAllocation(r.max_workers, r.max_ps)
        ]
        assert at_cap  # the caps, not capacity, stopped some jobs

    @pytest.mark.parametrize("wide", ["worker", "ps"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_when_caps_meet_a_full_cluster(self, seed, wide):
        # Wide tasks of one kind next to narrow ones of the other on a
        # tight cluster: when the preferred wide task no longer fits, the
        # fallback to the narrow kind must still respect that kind's cap.
        rng = random.Random(400 + seed)
        requests = []
        for r in random_fleet(rng, 8):
            wide_demand = cpu_mem(3 + rng.randrange(3), 4)
            narrow_cap = 1 + rng.randrange(2)
            wide_cap = 2 + rng.randrange(6)
            if wide == "ps":
                r = dataclasses.replace(
                    r,
                    worker_demand=cpu_mem(1, 1),
                    ps_demand=wide_demand,
                    max_workers=narrow_cap,
                    max_ps=wide_cap,
                    speed=lambda p, w, base=r.speed: base(w, p),  # PS-hungry
                )
            else:
                r = dataclasses.replace(
                    r,
                    worker_demand=wide_demand,
                    ps_demand=cpu_mem(1, 1),
                    max_workers=wide_cap,
                    max_ps=narrow_cap,
                )
            requests.append(r)
        capacity = ResourceVector({"cpu": 30.0 + rng.randrange(20), "memory": 200.0})
        self.assert_matches_reference(requests, capacity)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_fractional_demands(self, seed):
        # Sums of 0.1-multiples miss the capacity by an ulp, so the 1e-9
        # slack of the capacity check decides the last grants.
        rng = random.Random(500 + seed)
        requests = [
            dataclasses.replace(
                r,
                worker_demand=cpu_mem(0.1 * (1 + rng.randrange(3)), 0.3),
                ps_demand=cpu_mem(0.1, 0.7),
            )
            for r in random_fleet(rng, 8)
        ]
        capacity = ResourceVector({"cpu": 0.1 * (20 + rng.randrange(20)), "memory": 100.0})
        result = self.assert_matches_reference(requests, capacity)
        used = sum(
            (
                r.worker_demand * result.allocations[r.job_id].workers
                + r.ps_demand * result.allocations[r.job_id].ps
                for r in requests
                if r.job_id in result.allocations
            ),
            ResourceVector(),
        )
        assert (capacity - used).get("cpu") <= 0.1  # the CPU ran out

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_priorities(self, seed):
        rng = random.Random(200 + seed)
        requests = [
            dataclasses.replace(r, priority=(0.3, 0.5, 0.95, 1.0)[i % 4])
            for i, r in enumerate(random_fleet(rng, 10))
        ]
        capacity = ResourceVector({"cpu": 80.0, "memory": 240.0})
        self.assert_matches_reference(requests, capacity)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_fitting_errors(self, seed):
        """A speed that raises ``FittingError`` past some configuration
        scores those configurations as unusable, as ``_safe_speed`` does."""
        rng = random.Random(300 + seed)
        requests = []
        for i, request in enumerate(random_fleet(rng, 8)):
            limit = 2 + rng.randrange(6) if i % 2 else 0

            def speed(p, w, base=request.speed, limit=limit):
                if p + w > limit:
                    raise FittingError("degenerate speed fit")
                return base(p, w)

            requests.append(dataclasses.replace(request, speed=speed if limit else request.speed))
        capacity = ResourceVector({"cpu": 100.0, "memory": 300.0})
        metrics = MetricsRegistry()
        with use_registry(metrics):
            self.assert_matches_reference(requests, capacity)
        assert metrics.counter("est.fallback.speed_eval").value > 0
