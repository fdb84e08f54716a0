"""Tests for the marginal-gain resource allocator (§4.1)."""

import collections
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.resources import ResourceVector, cpu_mem
from repro.common.errors import FittingError, SchedulingError
from repro.core.allocation import (
    AllocationRequest,
    TaskAllocation,
    WeightedSpeed,
    allocate,
)
from repro.fitting.speed_model import SpeedModelFit
from repro.obs import (
    DecisionLedger,
    MetricsRegistry,
    RecordingTracer,
    use_ledger,
    use_registry,
)
from repro.workloads import MODEL_ZOO, StepTimeModel

DEMAND = cpu_mem(5, 10)


def request(job_id, remaining, speed, priority=1.0, max_tasks=100):
    return AllocationRequest(
        job_id=job_id,
        remaining_work=remaining,
        speed=speed,
        worker_demand=DEMAND,
        ps_demand=DEMAND,
        priority=priority,
        max_workers=max_tasks,
        max_ps=max_tasks,
    )


def truth_speed(model="resnet-50", mode="sync"):
    truth = StepTimeModel(MODEL_ZOO[model], mode)
    return lambda p, w: truth.speed(p, w)


def allocate_with_grants(requests, capacity):
    """One round under a full decision ledger: the result and its grants."""
    tracer = RecordingTracer()
    with use_ledger(DecisionLedger(tracer, MetricsRegistry(), mode="full")):
        result = allocate(requests, capacity)
    return result, [e for e in tracer.of_type("decision") if e["kind"] == "grant"]


def allocated_demand(requests, result):
    """The summed demand of every granted task."""
    used = ResourceVector()
    for req in requests:
        alloc = result.allocations.get(req.job_id)
        if alloc is not None:
            used = used + req.worker_demand * alloc.workers + req.ps_demand * alloc.ps
    return used


class TestStarterAllocations:
    def test_every_job_gets_one_plus_one(self):
        requests = [request(f"j{i}", 1000, truth_speed()) for i in range(3)]
        result = allocate(requests, cpu_mem(40, 80))
        for job_id in ("j0", "j1", "j2"):
            alloc = result.allocations[job_id]
            assert alloc.workers >= 1 and alloc.ps >= 1
        assert result.starved == ()

    def test_starvation_when_capacity_tiny(self):
        requests = [request(f"j{i}", 1000, truth_speed()) for i in range(3)]
        # Room for only two starter pairs.
        result = allocate(requests, cpu_mem(20, 40))
        assert len(result.starved) == 1
        assert result.starved == ("j2",)  # submission order preserved

    def test_starved_jobs_get_nothing(self):
        requests = [request("a", 1000, truth_speed()), request("b", 1000, truth_speed())]
        result = allocate(requests, cpu_mem(10, 20))
        assert "b" in result.starved
        assert "b" not in result.allocations


class TestCapacityRespect:
    def test_never_exceeds_capacity(self):
        capacity = cpu_mem(100, 200)
        requests = [request(f"j{i}", 10_000 * (i + 1), truth_speed()) for i in range(4)]
        result = allocate(requests, capacity)
        used = allocated_demand(requests, result)
        assert used.fits_within(capacity)
        # The round stopped on capacity: not one more task fits.
        assert result.stop_reason == "capacity"
        assert not DEMAND.fits_within(capacity - used)

    def test_all_capacity_used_when_gains_positive(self):
        # A single huge job with near-linear async speedups should soak up
        # everything (capacity stop), modulo integrality.
        capacity = cpu_mem(100, 200)
        result = allocate(
            [request("big", 1e9, truth_speed("resnet-50", "async"))], capacity
        )
        assert result.allocations["big"].total == 20

    def test_task_caps_respected(self):
        result = allocate(
            [request("j", 1e9, truth_speed("resnet-50", "async"), max_tasks=3)],
            cpu_mem(1000, 2000),
        )
        alloc = result.allocations["j"]
        assert alloc.workers <= 3 and alloc.ps <= 3


class TestMarginalGainBehaviour:
    def test_bigger_jobs_get_more(self):
        capacity = cpu_mem(100, 200)
        requests = [
            request("small", 100, truth_speed()),
            request("large", 1_000_000, truth_speed()),
        ]
        result = allocate(requests, capacity)
        assert (
            result.allocations["large"].total > result.allocations["small"].total
        )

    def test_zero_work_job_gets_only_starter(self):
        capacity = cpu_mem(100, 200)
        requests = [
            request("done", 0, truth_speed()),
            request("busy", 1_000_000, truth_speed()),
        ]
        result = allocate(requests, capacity)
        assert result.allocations["done"] == TaskAllocation(1, 1)

    def test_stops_at_nonpositive_gains(self):
        # A speed function that *decreases* with any extra task: the greedy
        # loop must stop immediately after the starters.
        def declining(p, w):
            return 1.0 / (p + w)

        result = allocate([request("j", 1000, declining)], cpu_mem(1000, 2000))
        assert result.allocations["j"] == TaskAllocation(1, 1)
        assert result.stop_reason == "gains"

    def test_priority_factor_diverts_resources(self):
        capacity = cpu_mem(60, 120)  # 12 tasks
        young = request("young", 100_000, truth_speed(), priority=0.5)
        old = request("old", 100_000, truth_speed(), priority=1.0)
        result = allocate([young, old], capacity)
        assert result.allocations["old"].total >= result.allocations["young"].total

    def test_broken_speed_function_tolerated(self):
        def broken(p, w):
            raise FittingError("degenerate speed fit")

        metrics = MetricsRegistry()
        with use_registry(metrics):
            result = allocate(
                [request("bad", 1000, broken), request("ok", 1000, truth_speed())],
                cpu_mem(60, 120),
            )
        # The broken job keeps its starter; the healthy one grows.
        assert result.allocations["bad"] == TaskAllocation(1, 1)
        assert result.allocations["ok"].total > 2
        # One typed fallback per evaluation: the starter base and the two
        # +1-task candidates.
        assert metrics.counter("est.fallback.speed_eval").value == 3

    def test_unusable_base_yields_with_zero_gain(self):
        # No speed at (1, 1) but one at (1, 2) and (2, 1): the base time is
        # infinite, so Eqn 9 counts no reduction and the job yields at gain 0.
        def unusable_at_starter(p, w):
            if p + w < 3:
                raise FittingError("degenerate speed fit")
            return float(w)

        tracer = RecordingTracer()
        with use_ledger(DecisionLedger(tracer, MetricsRegistry(), mode="full")):
            result = allocate([request("j", 1000, unusable_at_starter)], cpu_mem(60, 120))
        assert result.allocations["j"] == TaskAllocation(1, 1)
        (denial,) = [e for e in tracer.events if e.get("kind") == "deny"]
        assert denial["reason"] == "converged_yield"
        assert denial["gain"] == 0.0

    def test_plain_callables_get_scalar_arguments_only(self):
        seen = set()

        def speed(p, w):
            seen.add((type(p), type(w)))
            return w / (1.0 + 2.0 * w / p)

        allocate([request("j", 1e6, speed)], cpu_mem(60, 120))
        assert seen == {(int, int)}

    def test_other_speed_errors_propagate(self):
        # Only a FittingError is an estimator fallback; anything else is a
        # bug and must not be mapped to a zero speed.
        def buggy(p, w):
            raise RuntimeError("not a fitting failure")

        with pytest.raises(RuntimeError, match="not a fitting failure"):
            allocate(
                [request("bad", 1000, buggy), request("ok", 1000, truth_speed())],
                cpu_mem(60, 120),
            )

    def test_chooses_worker_vs_ps_by_gain(self):
        # Speed that only improves with workers: no extra ps granted.
        def worker_hungry(p, w):
            return w * 1.0

        result = allocate([request("j", 1e6, worker_hungry)], cpu_mem(40, 80))
        alloc = result.allocations["j"]
        assert alloc.workers > alloc.ps


class TestValidation:
    def test_duplicate_ids_rejected(self):
        requests = [request("same", 10, truth_speed()), request("same", 10, truth_speed())]
        with pytest.raises(SchedulingError):
            allocate(requests, cpu_mem(100, 100))

    def test_bad_request_fields(self):
        with pytest.raises(SchedulingError):
            request("j", -1, truth_speed())
        with pytest.raises(SchedulingError):
            AllocationRequest(
                job_id="j",
                remaining_work=1,
                speed=truth_speed(),
                worker_demand=DEMAND,
                ps_demand=DEMAND,
                priority=0.0,
            )

    def test_empty_request_list(self):
        result = allocate([], cpu_mem(10, 10))
        assert result.allocations == {}


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        num_jobs=st.integers(1, 6),
        cpu=st.integers(10, 300),
        work=st.lists(st.floats(100, 1e6), min_size=6, max_size=6),
    )
    def test_invariants(self, num_jobs, cpu, work):
        capacity = cpu_mem(cpu, cpu * 2)
        speed = truth_speed("seq2seq", "sync")
        requests = [request(f"j{i}", work[i], speed) for i in range(num_jobs)]
        result = allocate(requests, capacity)
        used = ResourceVector()
        for job_id, alloc in result.allocations.items():
            assert alloc.workers >= 1 and alloc.ps >= 1
            used = used + DEMAND * alloc.total
        assert used.fits_within(capacity)
        assert set(result.starved) | set(result.allocations) == {
            f"j{i}" for i in range(num_jobs)
        }
        assert not (set(result.starved) & set(result.allocations))


class TestGreedyQuality:
    """The §4.1 greedy against brute force on small instances.

    The underlying program is NP-hard; the paper's claim is that the
    marginal-gain heuristic is "simple yet effective". On instances small
    enough to enumerate, the greedy's total completion time must be close
    to optimal.
    """

    @staticmethod
    def completion_time(request, allocation):
        """``Q / f(p, w)``: the summand of the §4.1 objective."""
        return request.remaining_work / request.speed(allocation.ps, allocation.workers)

    def brute_force(self, requests, max_tasks):
        import itertools

        best = float("inf")
        options = [
            (w, p)
            for w in range(1, max_tasks + 1)
            for p in range(1, max_tasks + 1)
        ]
        for combo in itertools.product(options, repeat=len(requests)):
            if sum(w + p for w, p in combo) > max_tasks:
                continue
            total = 0.0
            for request, (w, p) in zip(requests, combo):
                total += self.completion_time(request, TaskAllocation(w, p))
            best = min(best, total)
        return best

    def objective(self, requests, allocations):
        return sum(
            self.completion_time(request, allocations[request.job_id])
            for request in requests
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_within_optimal_factor(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        models = ["resnet-50", "seq2seq", "cnn-rand", "inception-bn"]
        requests = []
        for i in range(2):
            model = models[int(rng.integers(len(models)))]
            mode = "sync" if rng.random() < 0.5 else "async"
            work = float(rng.uniform(1e3, 1e6))
            requests.append(
                request(f"j{i}", work, truth_speed(model, mode))
            )
        max_tasks = 8
        capacity = cpu_mem(5 * max_tasks, 10 * max_tasks)
        result = allocate(requests, capacity)
        greedy = self.objective(requests, result.allocations)
        optimal = self.brute_force(requests, max_tasks)
        assert greedy <= optimal * 1.35 + 1e-9


class TestGrantTrace:
    """The grant sequence, as the decision ledger records it."""

    def test_trace_records_every_grant(self):
        result, grants = allocate_with_grants(
            [request("j", 1e6, truth_speed())], cpu_mem(60, 120)
        )
        # Starter (1, 1) is not a grant; everything beyond it is.
        assert len(grants) == result.allocations["j"].total - 2
        for grant in grants:
            assert grant["job_id"] == "j"
            assert grant["task"] in ("worker", "ps")
            assert grant["gain"] > 0

    def test_allocation_after_is_cumulative(self):
        result, grants = allocate_with_grants(
            [request("j", 1e6, truth_speed())], cpu_mem(60, 120)
        )
        totals = [g["workers"] + g["ps"] for g in grants]
        assert totals == sorted(totals)
        if totals:
            assert totals[-1] == result.allocations["j"].total

    def test_gains_reflect_greedy_order_across_jobs(self):
        requests = [
            request("small", 1_000, truth_speed()),
            request("large", 1_000_000, truth_speed()),
        ]
        _, grants = allocate_with_grants(requests, cpu_mem(80, 160))
        # The very first grant goes to the job with the larger gain -- the
        # large job, whose absolute time reduction dominates.
        assert grants[0]["job_id"] == "large"


def pinned_fleet():
    """Thirteen jobs covering every branch of the grant loop.

    Speed sources: the ground truth, a frozen fit's ``predict``,
    ``WeightedSpeed`` over each, a declining speed (converged yield)
    and one raising ``FittingError``. Priorities below 1, a job that
    reaches its PS cap, a starter that cannot fit, GPU workers next to CPU
    parameter servers, and a capacity that runs out mid-round.
    """
    fitted = SpeedModelFit(
        "async", (0.75, 1.5, 0.015625, 0.03125), residual=0.0, num_samples=7
    ).predict

    def staleness(p, w):
        return 1.0 / (1.0 + 0.05 * (w - 1))

    def declining(p, w):
        return 1.0 / (p + w)

    def broken(p, w):
        raise FittingError("degenerate speed fit")

    truth = {
        (model, mode): StepTimeModel(MODEL_ZOO[model], mode).speed
        for model in ("resnet-50", "cnn-rand", "dssm")
        for mode in ("sync", "async")
    }
    gpu_worker = ResourceVector({"cpu": 2, "memory": 6, "gpu": 1})
    small = cpu_mem(1, 2)
    rows = [
        ("truth-sync", 4e5, truth["resnet-50", "sync"], gpu_worker, small, 1.0, 100, 100),
        ("truth-async", 3e5, truth["cnn-rand", "async"], cpu_mem(3, 4), small, 1.0, 100, 100),
        ("fitted", 2e5, fitted, cpu_mem(2, 4), cpu_mem(1, 3), 1.0, 100, 100),
        ("weighted-fitted", 2.5e5, WeightedSpeed(fitted, staleness), cpu_mem(2, 4), small,
         1.0, 100, 100),
        ("weighted-truth", 3e5, WeightedSpeed(truth["dssm", "async"], staleness),
         cpu_mem(2, 5), small, 1.0, 100, 100),
        ("young", 5e5, truth["dssm", "sync"], gpu_worker, small, 0.5, 100, 100),
        ("capped", 9e5, truth["cnn-rand", "sync"], cpu_mem(2, 3), small, 1.0, 3, 2),
        ("declining", 1e5, declining, cpu_mem(1, 1), small, 1.0, 100, 100),
        ("broken", 1e5, broken, cpu_mem(1, 1), small, 1.0, 100, 100),
        ("nearly-done", 50.0, truth["resnet-50", "async"], cpu_mem(2, 2), small, 0.95, 100, 100),
        ("huge-a", 8e5, truth["cnn-rand", "async"], cpu_mem(24, 40), cpu_mem(8, 8), 1.0, 100, 100),
        ("giant", 1e6, truth["dssm", "async"], cpu_mem(250, 10), small, 1.0, 100, 100),
        ("huge-b", 8e5, truth["resnet-50", "sync"], cpu_mem(30, 40), cpu_mem(8, 8), 1.0, 100, 100),
    ]
    requests = [
        AllocationRequest(
            job_id=job_id,
            remaining_work=work,
            speed=speed,
            worker_demand=worker_demand,
            ps_demand=ps_demand,
            priority=priority,
            max_workers=max_workers,
            max_ps=max_ps,
        )
        for job_id, work, speed, worker_demand, ps_demand, priority, max_workers, max_ps in rows
    ]
    return requests, ResourceVector({"cpu": 240.0, "memory": 600.0, "gpu": 8.0})


def sha256_of(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


class TestPinnedDecisions:
    """Grant logs and ledger records recorded before the grant loop moved
    to plain numbers; the rewrite must reproduce them bit for bit."""

    def test_trace_grant_log(self):
        requests, capacity = pinned_fleet()
        result, grants = allocate_with_grants(requests, capacity)
        assert [
            (g["job_id"], g["task"], g["gain"], (g["workers"], g["ps"])) for g in grants[:4]
        ] == [
            ("truth-sync", "ps", 78240000.0, (1, 2)),
            ("weighted-fitted", "ps", 43125000.0, (1, 2)),
            ("capped", "ps", 40608000.00000006, (1, 2)),
            ("huge-b", "worker", 34060800.000000015, (2, 1)),
        ]
        log = [[g["job_id"], g["task"], g["gain"].hex(), g["workers"], g["ps"]] for g in grants]
        assert len(log) == 29
        assert sha256_of(log) == (
            "e9814ec384680c34a8a0a3257b59d136e862a02f5038c556aaf288c24d259d33"
        )
        assert {job: tuple(a) for job, a in result.allocations.items()} == {
            "truth-sync": (3, 9),
            "truth-async": (1, 2),
            "fitted": (2, 3),
            "weighted-fitted": (2, 4),
            "weighted-truth": (2, 1),
            "young": (1, 1),
            "capped": (1, 2),
            "declining": (1, 1),
            "broken": (1, 1),
            "nearly-done": (1, 1),
            "huge-a": (1, 1),
            "huge-b": (3, 8),
        }
        assert result.starved == ("giant",)
        assert result.stop_reason == "capacity"
        assert capacity - allocated_demand(requests, result) == ResourceVector(
            {"gpu": 4, "memory": 254}
        )

    def test_full_ledger_grants_and_denials(self):
        requests, capacity = pinned_fleet()
        tracer = RecordingTracer()
        with use_ledger(DecisionLedger(tracer, MetricsRegistry(), mode="full")):
            allocate(requests, capacity)
        events = [e for e in tracer.events if e.get("event") == "decision"]
        kinds = collections.Counter((e["kind"], e.get("reason"), e.get("stage")) for e in events)
        assert kinds == {
            ("grant", None, None): 29,
            ("deny", "capacity_exhausted", "grow"): 10,
            ("deny", "converged_yield", None): 2,
            ("deny", "capacity_exhausted", "starter"): 1,
        }
        assert sha256_of(events) == (
            "0158a6d024fb0e64f08789c951e0b288a3a4c95d539554626dafff5d966434ec"
        )
