"""Tests for the checkpoint-based elastic-scaling controller (§5.4)."""

import pytest

from repro.cluster.resources import cpu_mem
from repro.k8s import APIServer, JobController, JobTarget

DEMAND = cpu_mem(5, 10)


@pytest.fixture
def api():
    server = APIServer()
    for i in range(4):
        server.register_node(f"n{i}", cpu_mem(16, 64))
    return server


@pytest.fixture
def controller(api):
    return JobController(api)


def target(job_id, layout):
    return JobTarget(
        job_id=job_id,
        worker_demand=DEMAND,
        ps_demand=DEMAND,
        layout=layout,
    )


class TestCheckpoints:
    def test_roundtrip(self, controller):
        controller.save_checkpoint("j1", 1234.5)
        assert controller.load_checkpoint("j1") == 1234.5

    def test_missing(self, controller):
        assert controller.load_checkpoint("ghost") is None

    def test_delete(self, controller):
        controller.save_checkpoint("j1", 1.0)
        assert controller.delete_checkpoint("j1")
        assert controller.load_checkpoint("j1") is None


class TestReconcile:
    def test_initial_launch(self, api, controller):
        report = controller.reconcile([target("j1", {"n0": (2, 1)})])
        assert report.pods_created == 3
        assert report.pods_deleted == 0
        assert report.jobs_scaled == ("j1",)
        assert len(api.list_pods(job_id="j1")) == 3
        assert api.node("n0").allocatable == cpu_mem(1, 34)

    def test_unchanged_layout_untouched(self, api, controller):
        layout = {"n0": (2, 1)}
        controller.reconcile([target("j1", layout)])
        pods_before = {p.name for p in api.list_pods()}
        report = controller.reconcile([target("j1", layout)])
        assert report.pods_created == 0
        assert report.pods_deleted == 0
        assert report.jobs_scaled == ()
        assert {p.name for p in api.list_pods()} == pods_before

    def test_scaling_checkpoints_and_relaunches(self, api, controller):
        controller.reconcile([target("j1", {"n0": (2, 1)})])
        report = controller.reconcile(
            [target("j1", {"n0": (2, 1), "n1": (2, 1)})],
            job_progress={"j1": 500.0},
        )
        assert report.checkpoints_saved == 1
        assert report.checkpoints_restored == 1
        assert report.pods_deleted == 3
        assert report.pods_created == 6
        assert controller.load_checkpoint("j1") == 500.0
        assert len(api.list_pods(job_id="j1")) == 6

    def test_absent_job_torn_down(self, api, controller):
        controller.reconcile([target("j1", {"n0": (1, 1)})])
        report = controller.reconcile([], job_progress={"j1": 42.0})
        assert report.pods_deleted == 2
        assert controller.load_checkpoint("j1") == 42.0
        assert api.list_pods() == []

    def test_multiple_jobs_independent(self, api, controller):
        controller.reconcile(
            [target("j1", {"n0": (1, 1)}), target("j2", {"n1": (1, 1)})]
        )
        # Only j2 changes; j1's pods must survive untouched.
        j1_pods = {p.name for p in api.list_pods(job_id="j1")}
        report = controller.reconcile(
            [target("j1", {"n0": (1, 1)}), target("j2", {"n1": (2, 1)})]
        )
        assert report.jobs_scaled == ("j2",)
        assert {p.name for p in api.list_pods(job_id="j1")} == j1_pods

    def test_resources_conserved_across_cycles(self, api, controller):
        for layout in ({"n0": (2, 1)}, {"n1": (1, 1)}, {"n2": (2, 1), "n3": (1, 1)}):
            controller.reconcile([target("j1", layout)])
        controller.reconcile([])
        assert api.cluster_allocated().is_zero()

    def test_pause_resume_restores_checkpoint(self, api, controller):
        controller.reconcile([target("j1", {"n0": (1, 1)})])
        controller.reconcile([], job_progress={"j1": 77.0})  # paused
        report = controller.reconcile([target("j1", {"n1": (1, 1)})])
        assert report.checkpoints_restored == 1


class TestSinglePodReadPerPass:
    """Reconcile reads the pod table once per pass, however many jobs."""

    @pytest.fixture
    def pod_reads(self, monkeypatch):
        calls = []
        list_pods = APIServer.list_pods

        def spy(self, *args, **kwargs):
            calls.append((args, kwargs))
            return list_pods(self, *args, **kwargs)

        monkeypatch.setattr(APIServer, "list_pods", spy)
        return calls

    def test_steady_state_pass(self, api, controller, pod_reads):
        targets = [target(f"j{i}", {f"n{i % 4}": (1, 0)}) for i in range(8)]
        controller.reconcile(targets)
        pod_reads.clear()
        report = controller.reconcile(targets, job_progress={"j0": 1.0})
        assert len(pod_reads) == 1
        assert (report.pods_created, report.pods_deleted) == (0, 0)
        assert report.progress_updates == 1

    def test_launch_rescale_and_teardown_pass(self, api, controller, pod_reads):
        controller.reconcile(
            [
                target("keep", {"n0": (1, 0)}),
                target("grow", {"n1": (1, 0)}),
                target("gone", {"n2": (1, 0)}),
            ]
        )
        pod_reads.clear()
        report = controller.reconcile(
            [
                target("keep", {"n0": (1, 0)}),
                target("grow", {"n1": (1, 0), "n3": (1, 0)}),
                target("new", {"n2": (1, 0)}),
            ]
        )
        assert len(pod_reads) == 1
        assert report.jobs_scaled == ("grow", "new")
        assert (report.pods_created, report.pods_deleted) == (3, 2)
        assert {p.job_id for p in api.list_pods()} == {"keep", "grow", "new"}
