"""Tests for the per-job runtime state."""

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import FittingError, SimulationError
from repro.common.rand import RandomSource
from repro.core.allocation import TaskAllocation
from repro.core.convergence import ConvergenceEstimator
from repro.core.speed import SpeedEstimator
from repro.datastore import ChunkStore
from repro.obs import DecisionLedger, RecordingTracer, use_ledger
from repro.obs.explain import describe_decision, explain_job
from repro.obs.registry import MetricsRegistry, use_registry
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.sim.runtime import PRIOR_EPOCHS, RuntimeJob, ScalingCosts
from repro.workloads import make_job


def runtime(mode="sync", model="seq2seq", scale=0.05, seed=1, **kwargs):
    spec = make_job(model, mode=mode, job_id=f"rt-{model}", dataset_scale=scale)
    return RuntimeJob(spec, seed=RandomSource(seed), **kwargs)


class TestLifecycle:
    def test_initial_state(self):
        job = runtime()
        assert job.steps_done == 0
        assert not job.completed
        assert not job.started

    def test_scaling_overhead_first_start(self):
        job = runtime()
        cost = job.scaling_overhead(TaskAllocation(2, 2))
        assert cost == job.scaling_costs.start_cost()

    def test_no_overhead_when_unchanged(self):
        job = runtime()
        alloc = TaskAllocation(2, 2)
        job.note_interval(alloc, job.scaling_overhead(alloc))
        assert job.scaling_overhead(alloc) == 0.0

    def test_overhead_on_change(self):
        job = runtime()
        alloc = TaskAllocation(2, 2)
        job.note_interval(alloc, job.scaling_overhead(alloc))
        cost = job.scaling_overhead(TaskAllocation(3, 2))
        assert cost == job.scaling_costs.scale_cost(job.spec.profile.model_size_bytes)

    def test_overhead_on_resume_after_pause(self):
        job = runtime()
        alloc = TaskAllocation(2, 2)
        job.note_interval(alloc, job.scaling_overhead(alloc))
        job.note_interval(None, 0.0)  # paused
        assert job.scaling_overhead(alloc) > 0

    def test_scaling_bookkeeping(self):
        job = runtime()
        a1, a2 = TaskAllocation(2, 2), TaskAllocation(3, 3)
        job.note_interval(a1, job.scaling_overhead(a1))
        job.note_interval(a2, job.scaling_overhead(a2))
        assert job.num_scalings == 1
        assert job.scaling_time_total > 0


class TestAdvance:
    def test_progresses_steps(self):
        job = runtime()
        assert job.advance(run_time=100, speed=2.0) is None
        assert job.steps_done == pytest.approx(200)

    def test_completes_at_observed_convergence(self):
        job = runtime(model="cnn-rand", scale=1.0)
        # Run absurdly fast so convergence must fire inside the window.
        offset = job.advance(run_time=1000, speed=1e6)
        assert offset is not None
        assert job.completed
        assert 0 < offset <= 1000

    def test_completion_near_smooth_truth(self):
        job = runtime(model="seq2seq", scale=0.05)
        offset = job.advance(run_time=1e9, speed=1.0)
        assert job.completed
        # Observed stopping should land within ~35% of the smooth-curve
        # prediction (epoch-loss noise moves it a little).
        assert job.steps_done == pytest.approx(job.true_total_steps, rel=0.35)

    def test_zero_speed_no_progress(self):
        job = runtime()
        assert job.advance(run_time=100, speed=0.0) is None
        assert job.steps_done == 0

    def test_completed_job_advances_no_further(self):
        job = runtime(model="cnn-rand", scale=1.0)
        job.advance(run_time=1000, speed=1e6)
        steps = job.steps_done
        assert job.advance(run_time=1000, speed=1e6) == 0.0
        assert job.steps_done == steps

    def test_async_staleness_requires_more_raw_steps(self):
        few = runtime(mode="async", model="cnn-rand", scale=1.0, seed=3)
        many = runtime(mode="async", model="cnn-rand", scale=1.0, seed=3)
        few.advance(run_time=1e9, speed=1.0, workers=1)
        many.advance(run_time=1e9, speed=1.0, workers=20)
        assert many.steps_done > few.steps_done
        # Convergence-equivalent progress is what stops the job.
        assert many.effective_steps == pytest.approx(few.effective_steps, rel=0.25)

    def test_sync_unaffected_by_staleness(self):
        job = runtime(mode="sync")
        assert job.staleness_penalty(20) == 1.0


class TestEstimates:
    def test_prior_before_data(self):
        job = runtime()
        remaining = job.estimated_remaining_steps()
        assert remaining == pytest.approx(PRIOR_EPOCHS * job.steps_per_epoch)

    def test_online_floor_while_running(self):
        job = runtime()
        job.advance(run_time=600, speed=1.0)
        job.record_losses(0, job.steps_done, max_points=50)
        floor = job.spec.patience * job.steps_per_epoch
        assert job.estimated_remaining_steps() >= floor

    def test_oracle_mode(self):
        job = runtime(estimator_mode="oracle")
        job.advance(run_time=100, speed=2.0)
        remaining = job.estimated_remaining_steps()
        expected = job.true_total_steps - job.effective_steps
        assert remaining == pytest.approx(max(expected, 2 * job.steps_per_epoch))

    def test_noisy_mode_biased_then_decaying(self):
        job = runtime(estimator_mode="oracle", convergence_error=0.5, seed=7)
        early = job.estimated_remaining_steps()
        truth = job.true_total_steps
        assert early != pytest.approx(truth)  # biased at start
        assert abs(early - truth) / truth <= 0.5 + 1e-6

    def test_speed_function_modes(self):
        oracle = runtime(estimator_mode="oracle")
        fn = oracle.speed_function()
        assert fn(4, 4) == pytest.approx(oracle.truth.speed(4, 4))

        noisy = runtime(estimator_mode="oracle", speed_error=0.3, seed=5)
        fn_noisy = noisy.speed_function()
        # Per-configuration distortion bounded by the error magnitude...
        ratios = [fn_noisy(p, w) / noisy.truth.speed(p, w)
                  for p in (2, 4, 8) for w in (2, 4, 8)]
        assert all(0.7 - 1e-9 <= r <= 1.3 + 1e-9 for r in ratios)
        # ...deterministic per configuration, and not globally uniform.
        assert fn_noisy(4, 4) == fn_noisy(4, 4)
        assert max(ratios) - min(ratios) > 0.01

    def test_only_online_jobs_build_estimators(self):
        oracle = runtime(estimator_mode="oracle", convergence_error=0.2)
        assert not hasattr(oracle, "convergence")
        assert not hasattr(oracle, "speed_estimator")
        assert oracle.view().observation_count == 0
        online = runtime(estimator_mode="online")
        assert isinstance(online.convergence, ConvergenceEstimator)
        assert isinstance(online.speed_estimator, SpeedEstimator)

    @pytest.mark.parametrize("error", ["convergence_error", "speed_error"])
    def test_online_job_rejects_oracle_errors(self, error):
        with pytest.raises(SimulationError, match="perturb the oracle"):
            runtime(estimator_mode="online", **{error: 0.1})

    def test_online_speed_after_bootstrap(self):
        job = runtime(estimator_mode="online")
        job.bootstrap_speed()
        fn = job.speed_function()
        assert fn(4, 4) == pytest.approx(job.truth.speed(4, 4), rel=0.25)

    def test_view_snapshot(self):
        job = runtime()
        view = job.view()
        assert view.job_id == job.spec.job_id
        assert view.remaining_steps > 0
        assert view.progress == 0.0


class _FailingEstimator:
    """Stands in for a fittable estimator whose fit raises *error*."""

    can_fit = True

    def __init__(self, error):
        self.error = error

    def remaining_steps(self, current_step):
        raise self.error

    def speed_function(self):
        raise self.error


class TestEstimatorFallbacks:
    def test_loss_fit_failure_falls_back_to_prior_and_is_counted(self):
        job = runtime()
        job.convergence = _FailingEstimator(FittingError("no admissible b2"))
        with use_registry(MetricsRegistry()) as metrics:
            remaining = job.estimated_remaining_steps()
        assert remaining == pytest.approx(PRIOR_EPOCHS * job.steps_per_epoch)
        assert metrics.counter("est.fallback.loss_fit").value == 1
        assert metrics.counter("est.fallback.speed_fit").value == 0

    def test_speed_fit_failure_falls_back_to_truth_and_is_counted(self):
        job = runtime()
        job.speed_estimator = _FailingEstimator(FittingError("singular design"))
        with use_registry(MetricsRegistry()) as metrics:
            speed = job.speed_function()
        assert speed(2, 3) == job.truth.speed(2, 3)
        assert metrics.counter("est.fallback.speed_fit").value == 1
        assert metrics.counter("est.fallback.loss_fit").value == 0

    def test_other_loss_estimator_errors_propagate(self):
        job = runtime()
        job.convergence = _FailingEstimator(ZeroDivisionError("bug"))
        with pytest.raises(ZeroDivisionError):
            job.estimated_remaining_steps()

    def test_other_speed_estimator_errors_propagate(self):
        job = runtime()
        job.speed_estimator = _FailingEstimator(ValueError("bug"))
        with pytest.raises(ValueError):
            job.speed_function()

    @pytest.mark.parametrize(
        "stage, attribute, estimate",
        [
            ("loss_fit", "convergence", RuntimeJob.estimated_remaining_steps),
            ("speed_fit", "speed_estimator", RuntimeJob.speed_function),
        ],
    )
    def test_fallback_is_a_ledger_denial(self, stage, attribute, estimate):
        job = runtime()
        setattr(job, attribute, _FailingEstimator(FittingError("no admissible b2")))
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        with use_ledger(DecisionLedger(tracer, metrics, mode="full")):
            estimate(job)
        (denial,) = tracer.events
        assert (denial["kind"], denial["reason"]) == ("deny", "estimator_fallback")
        assert denial["job_id"] == job.spec.job_id
        assert (denial["stage"], denial["error"]) == (stage, "no admissible b2")
        assert metrics.counter("decision.deny.estimator_fallback").value == 1
        assert describe_decision(denial) == (
            f"denied: estimator_fallback (stage={stage}, error: no admissible b2)"
        )

    def test_explain_names_the_fallen_back_estimator(self, monkeypatch):
        # A simulated run whose loss fits always fail: the job's timeline
        # says which fit fell back and why.
        def failing_fit(self, current_step):
            raise FittingError("loss curve not convex")

        monkeypatch.setattr(ConvergenceEstimator, "remaining_steps", failing_fit)
        tracer = RecordingTracer()
        spec = make_job("cnn-rand", job_id="fb-0")
        simulate(
            Cluster.homogeneous(2, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            [spec],
            SimConfig(seed=1),
            tracer=tracer,
        )
        lines = explain_job(tracer.events, "fb-0")
        fallbacks = [line for line in lines if "estimator_fallback" in line]
        assert fallbacks
        assert all(
            line.endswith("(stage=loss_fit, error: loss curve not convex)")
            for line in fallbacks
        )


class TestLossIngestion:
    @pytest.mark.parametrize("span", [1, 29, 30, 31, 59, 60, 61, 1000, 1001])
    def test_never_more_points_than_asked(self, span):
        job = runtime()
        job.record_losses(0, span, max_points=30)
        count = job.convergence.observation_count
        # A ceiling stride keeps at least half the budget once span >= 30.
        assert min(span, 15) <= count <= 30
        # Evenly spaced from the range start.
        steps = job.convergence._steps
        assert steps[0] == 0 and len(set(b - a for a, b in zip(steps, steps[1:]))) <= 1

    def test_fifty_nine_steps_give_thirty_points(self):
        job = runtime()
        job.record_losses(0, 59, max_points=30)
        assert job.convergence.observation_count == 30


class TestImbalance:
    def test_paa_near_one(self):
        # resnet-50 has many blocks, so PAA can balance almost perfectly;
        # models with few coarse blocks (e.g. seq2seq) balance less tightly.
        job = runtime(partition_algorithm="paa", model="resnet-50")
        assert 1.0 <= job.imbalance_factor(10) < 1.1

    def test_mxnet_worse(self):
        paa = runtime(partition_algorithm="paa", model="resnet-50")
        mxnet = runtime(partition_algorithm="mxnet", model="resnet-50")
        assert mxnet.imbalance_factor(10) > paa.imbalance_factor(10)

    def test_cached(self):
        job = runtime()
        assert job.imbalance_factor(4) == job.imbalance_factor(4)


class TestDataServing:
    def test_attach_and_rebalance(self):
        job = runtime()
        store = ChunkStore(["dn-0", "dn-1"])
        job.attach_data(store)
        moved = job.rebalance_data(4)
        assert job.chunk_assignment.num_workers == 4
        assert job.chunks_moved == moved

    def test_note_interval_rebalances(self):
        job = runtime()
        store = ChunkStore(["dn-0", "dn-1"])
        job.attach_data(store)
        alloc = TaskAllocation(4, 2)
        job.note_interval(alloc, job.scaling_overhead(alloc))
        assert job.chunk_assignment.num_workers == 4

    def test_detach_drops_the_file(self):
        job = runtime()
        store = ChunkStore(["dn-0", "dn-1"])
        job.attach_data(store)
        job.detach_data(store)
        assert store.file_names == ()
        assert job.chunk_assignment is None


class TestRandomStreams:
    def test_oracle_job_never_builds_the_loss_noise_stream(self):
        job = runtime(estimator_mode="oracle", scale=0.01)
        while not job.completed:
            job.advance(600.0, 50.0)
        assert "_rng" not in vars(job.emitter)

    def test_online_job_builds_it_at_the_first_observation(self):
        job = runtime(estimator_mode="online")
        assert "_rng" not in vars(job.emitter)
        job.record_losses(0, 60, max_points=30)
        assert "_rng" in vars(job.emitter)

    def test_late_streams_draw_what_eager_ones_did(self):
        # A stream's seed is its label path: building it at the first draw
        # cannot change what it draws.
        job = runtime(estimator_mode="oracle", convergence_error=0.2, speed_error=0.2)
        eager = RandomSource(1).child(f"job-{job.spec.job_id}").child("errors").rng
        signs = [1 if eager.random() < 0.5 else -1 for _ in range(2)]
        assert job._conv_error == 0.2 * signs[0]
        assert job._speed_error == 0.2 * signs[1]


class TestScalingCosts:
    def test_scale_cost_grows_with_model(self):
        costs = ScalingCosts()
        assert costs.scale_cost(1e9) > costs.scale_cost(1e6)
        assert costs.scale_cost(1e6) > costs.start_cost()
