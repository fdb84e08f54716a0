"""Tests for heterogeneous resource demands: GPU workers + CPU-only PS.

The paper's testbed mixes CPU and GPU servers (§6.1), and its DRF
machinery (dominant resources, Eqn 9's per-dominant-resource gains) exists
precisely because workers and parameter servers can dominate in *different*
resource types. These tests exercise that path end to end.
"""


from repro.cluster import Cluster, ResourceVector, Server, cpu_mem
from repro.core.allocation import AllocationRequest, allocate
from repro.core.placement import PlacementRequest, place_jobs
from repro.schedulers import JobView, make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import StepTimeModel, make_job

GPU_WORKER = ResourceVector({"cpu": 2, "memory": 8, "gpu": 1})
CPU_PS = cpu_mem(4, 8)


def gpu_job(job_id, model="resnet-50", **kwargs):
    return make_job(
        model,
        mode="sync",
        job_id=job_id,
        worker_demand=GPU_WORKER,
        ps_demand=CPU_PS,
        **kwargs,
    )


def mixed_cluster():
    servers = [
        Server(f"gpu-{i}", ResourceVector({"cpu": 8, "memory": 48, "gpu": 2}))
        for i in range(4)
    ]
    servers += [Server(f"cpu-{i}", cpu_mem(16, 80)) for i in range(4)]
    return Cluster(servers)


class TestAllocation:
    def test_dominant_resources_differ(self):
        cluster = mixed_cluster()
        capacity = cluster.total_capacity
        assert GPU_WORKER.dominant_resource(capacity) == "gpu"
        assert CPU_PS.dominant_resource(capacity) != "gpu"

    def test_allocation_respects_gpu_capacity(self):
        cluster = mixed_cluster()
        spec = gpu_job("j")
        truth = StepTimeModel(spec.profile, "sync")
        request = AllocationRequest(
            job_id="j",
            remaining_work=1e9,
            speed=lambda p, w: truth.speed(p, w),
            worker_demand=GPU_WORKER,
            ps_demand=CPU_PS,
        )
        result = allocate([request], cluster.total_capacity)
        alloc = result.allocations["j"]
        assert alloc.workers <= 8  # only 8 GPUs exist
        assert alloc.workers >= 1 and alloc.ps >= 1

    def test_gpu_contention_starves_late_jobs(self):
        cluster = Cluster([Server("g", ResourceVector({"cpu": 8, "memory": 32, "gpu": 1}))])
        requests = [
            AllocationRequest(
                job_id=f"j{i}",
                remaining_work=1000,
                speed=lambda p, w: float(w),
                worker_demand=GPU_WORKER,
                ps_demand=CPU_PS,
            )
            for i in range(2)
        ]
        result = allocate(requests, cluster.total_capacity)
        # Only one starter pair fits the single GPU.
        assert result.starved == ("j1",)


class TestPlacement:
    def test_gpu_workers_land_on_gpu_servers(self):
        cluster = mixed_cluster()
        request = PlacementRequest(
            job_id="j",
            workers=4,
            ps=4,
            worker_demand=GPU_WORKER,
            ps_demand=CPU_PS,
        )
        result = place_jobs(cluster, [request])
        assert "j" in result.layouts
        for server_name, (n_workers, _) in result.layouts["j"].items():
            if n_workers:
                assert cluster.server(server_name).capacity.get("gpu") > 0

    def test_unplaceable_when_gpus_exhausted(self):
        cluster = Cluster(
            [Server("g", ResourceVector({"cpu": 16, "memory": 64, "gpu": 2}))]
        )
        cluster.place("g", ("other", "worker", 0), ResourceVector({"gpu": 2}))
        request = PlacementRequest(
            job_id="j", workers=3, ps=1,
            worker_demand=GPU_WORKER, ps_demand=CPU_PS,
        )
        result = place_jobs(cluster, [request])
        assert result.unplaced == ("j",)

    def test_short_of_gpus_shrinks_to_what_fits(self):
        # Three GPU workers on a 2-GPU server: halved to (1, 1).
        cluster = Cluster(
            [Server("g", ResourceVector({"cpu": 16, "memory": 64, "gpu": 2}))]
        )
        request = PlacementRequest(
            job_id="j", workers=3, ps=1,
            worker_demand=GPU_WORKER, ps_demand=CPU_PS,
        )
        result = place_jobs(cluster, [request])
        assert result.layouts["j"] == {"g": (1, 1)}


class TestEndToEnd:
    def test_simulation_with_gpu_jobs(self):
        jobs = [
            gpu_job("a", model="inception-bn", dataset_scale=0.3),
            gpu_job("b", model="cnn-rand"),
        ]
        result = simulate(
            mixed_cluster(),
            make_scheduler("optimus"),
            jobs,
            SimConfig(seed=3, estimator_mode="oracle"),
        )
        assert result.all_finished

    def test_scheduler_fills_gpus_not_more(self):
        spec = gpu_job("j")
        truth = StepTimeModel(spec.profile, "sync")
        view = JobView(
            spec=spec,
            remaining_steps=1e9,
            speed=lambda p, w: truth.speed(p, w),
            observation_count=100,
        )
        cluster = mixed_cluster()
        decision = make_scheduler("optimus").schedule(cluster, [view])
        alloc = decision.allocations["j"]
        assert 1 <= alloc.workers <= 8
        decision.validate()
