"""Tests for job specifications."""

import math

import pytest

from repro.cluster.resources import ResourceVector, cpu_mem
from repro.common.errors import ConfigurationError
from repro.workloads import make_job
from repro.workloads.job import DEFAULT_PS_DEMAND, DEFAULT_WORKER_DEMAND, JobSpec
from repro.workloads.profiles import get_profile


class TestMakeJob:
    def test_defaults(self):
        job = make_job("resnet-50")
        assert job.mode == "sync"
        assert job.worker_demand == DEFAULT_WORKER_DEMAND
        assert job.ps_demand == DEFAULT_PS_DEMAND
        assert job.profile.name == "resnet-50"

    def test_auto_ids_unique(self):
        a, b = make_job("cnn-rand"), make_job("cnn-rand")
        assert a.job_id != b.job_id

    def test_explicit_id(self):
        assert make_job("cnn-rand", job_id="mine").job_id == "mine"

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            make_job("vgg-16")


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            make_job("cnn-rand", mode="turbo")

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            make_job("cnn-rand", threshold=0)

    def test_bad_patience(self):
        with pytest.raises(ConfigurationError):
            make_job("cnn-rand", patience=0)

    def test_bad_dataset_scale(self):
        with pytest.raises(ConfigurationError):
            make_job("cnn-rand", dataset_scale=-1)

    def test_negative_arrival(self):
        with pytest.raises(ConfigurationError):
            make_job("cnn-rand", arrival_time=-5)

    def test_bad_request(self):
        with pytest.raises(ConfigurationError):
            make_job("cnn-rand", requested_workers=0)

    def test_empty_demand(self):
        with pytest.raises(ConfigurationError):
            JobSpec(
                job_id="x",
                profile=get_profile("cnn-rand"),
                mode="sync",
                worker_demand=cpu_mem(0, 0),
            )


class TestDerived:
    def test_steps_per_epoch_uses_mode(self):
        sync = make_job("resnet-50", mode="sync")
        async_ = make_job("resnet-50", mode="async")
        assert async_.steps_per_epoch() > sync.steps_per_epoch()

    def test_total_steps_respects_threshold(self):
        tight = make_job("seq2seq", threshold=0.0005)
        loose = make_job("seq2seq", threshold=0.01)
        assert tight.total_steps_to_converge() > loose.total_steps_to_converge()

    def test_task_demand_aggregates(self):
        job = make_job("cnn-rand")
        assert job.task_demand(3, 2) == cpu_mem(25, 50)

    def test_model_name(self):
        assert make_job("dssm").model_name == "dssm"


class TestSharedShapes:
    """Jobs of one task shape share one demand vector per role."""

    @staticmethod
    def spec(job_id="x", **kwargs):
        return JobSpec(job_id=job_id, profile=get_profile("cnn-rand"), mode="sync", **kwargs)

    def test_equal_distinct_vectors_share_one_instance(self):
        a = self.spec("a", worker_demand=cpu_mem(3, 7), ps_demand=cpu_mem(1, 2))
        b = self.spec("b", worker_demand=cpu_mem(3, 7), ps_demand=cpu_mem(1, 2))
        assert a.worker_demand is b.worker_demand
        assert a.ps_demand is b.ps_demand

    def test_defaults_share_one_instance(self):
        a, b = make_job("cnn-rand"), make_job("dssm", mode="async")
        assert a.worker_demand is b.worker_demand is a.ps_demand is b.ps_demand

    def test_last_bit_difference_is_another_shape(self):
        base = self.spec("a", worker_demand=cpu_mem(3, 7))
        nudged = self.spec("b", worker_demand=cpu_mem(3, math.nextafter(7.0, 8.0)))
        assert nudged.worker_demand is not base.worker_demand
        assert nudged.worker_demand["memory"] == math.nextafter(7.0, 8.0)
        assert nudged.worker_demand == base.worker_demand  # within 1e-9

    def test_key_order_is_another_shape(self):
        base = self.spec("a", worker_demand=ResourceVector({"cpu": 3, "memory": 7}))
        swapped = self.spec("b", worker_demand=ResourceVector({"memory": 7, "cpu": 3}))
        assert swapped.worker_demand is not base.worker_demand
        assert list(swapped.worker_demand) == ["memory", "cpu"]

    def test_equality_and_hash_unchanged(self):
        a = self.spec(worker_demand=cpu_mem(3, 7))
        b = self.spec(worker_demand=cpu_mem(3, math.nextafter(7.0, 8.0)))
        c = self.spec(worker_demand=ResourceVector({"memory": 7, "cpu": 3}))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert a != self.spec(worker_demand=cpu_mem(3, 8))
