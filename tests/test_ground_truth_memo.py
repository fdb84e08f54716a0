"""The process-wide ground-truth tables: Eqn-2 speed and PAA imbalance.

Both tables only ever hold values an uncached call would compute, so a
result must not depend on what ran earlier in the same process.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import ConfigurationError
from repro.common.rand import RandomSource
from repro.ps.blocks import blocks_from_sizes
from repro.ps.partition import mxnet_partition, paa_partition
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.sim.runtime import RuntimeJob
from repro.workloads import MODEL_ZOO, StepTimeModel, make_job, uniform_arrivals
from repro.workloads.speed import MODE_ASYNC, MODE_SYNC

REPO = Path(__file__).resolve().parent.parent
PROFILES = sorted(MODEL_ZOO)
#: A bandwidth no other test uses, per call: a model with an empty table.
FRESH_BANDWIDTHS = itertools.count(1e6, 1.0)


def uncached_speed(model: StepTimeModel, p: int, w: int) -> float:
    total = model.breakdown(p, w).total
    return w / total if model.mode == MODE_ASYNC else 1.0 / total


class TestSpeedTable:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(PROFILES),
                st.sampled_from([MODE_SYNC, MODE_ASYNC]),
                st.integers(1, 20),
                st.integers(1, 200),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_memoized_equals_uncached(self, calls):
        # Calls skip p values and land past the end of a row as well as
        # inside it. On fresh tables, the slots holding a value are
        # exactly the configurations called; every other slot is NaN.
        bandwidth = next(FRESH_BANDWIDTHS)
        for name, mode, p, w in calls:
            model = StepTimeModel(MODEL_ZOO[name], mode, bandwidth)
            assert model.speed(p, w) == uncached_speed(model, p, w)
            assert model.speed(p, w) == uncached_speed(model, p, w)
        for name, mode in {(name, mode) for name, mode, _, _ in calls}:
            table = StepTimeModel(MODEL_ZOO[name], mode, bandwidth)._speed_table
            filled = {
                (p, w) for p, row in table.items() for w, value in enumerate(row)
                if not math.isnan(value)
            }
            assert filled == {(p, w) for n, m, p, w in calls if (n, m) == (name, mode)}

    def test_integral_floats_share_the_integer_slot(self):
        model = StepTimeModel(MODEL_ZOO["dssm"], "async", bandwidth=next(FRESH_BANDWIDTHS))
        first = model.speed(2.0, 3.0)
        assert model.speed(2, 3) == first == uncached_speed(model, 2, 3)
        assert model.speed(2.0, 3.0) == first
        assert list(model._speed_table) == [2]

    @pytest.mark.parametrize(
        "p, w", [(0, 4), (4, 0), (-1, 4), (4, -3), (-4, -3), (2.5, 4), (4, 1.5)]
    )
    def test_invalid_tasks_raise_on_every_call(self, p, w):
        model = StepTimeModel(MODEL_ZOO["cnn-rand"], "sync")
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                model.speed(p, w)
        # Once rows 1-4 exist and hold values in every slot, a negative
        # ``w`` would index a row's tail; it must still raise.
        for q in range(1, 5):
            for v in range(1, 9):
                model.speed(q, v)
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                model.speed(p, w)

    @pytest.mark.parametrize(
        "p, w", [(np.array([1, 2]), 3), (3, np.array([1, 2])), (np.arange(1, 4), np.arange(1, 4))]
    )
    def test_array_arguments_raise_type_error(self, p, w):
        model = StepTimeModel(MODEL_ZOO["cnn-rand"], "async")
        model.speed(3, 3)  # row 3 exists
        for _ in range(2):
            with pytest.raises(TypeError):
                model.speed(p, w)

    def test_models_share_one_table_per_key(self):
        profile = MODEL_ZOO["dssm"]
        a = StepTimeModel(profile, "sync")
        assert StepTimeModel(profile, "sync")._speed_table is a._speed_table
        assert StepTimeModel(profile, "async")._speed_table is not a._speed_table
        other_bw = StepTimeModel(profile, "sync", bandwidth=2 * a.bandwidth)
        assert other_bw._speed_table is not a._speed_table
        assert other_bw.speed(3, 5) != a.speed(3, 5)

    @pytest.mark.parametrize(
        "extra",
        [
            {"imbalance": 1.25},
            {"placement": {"s0": (4, 2)}},
            {"placement": {"s0": (4, 2)}, "bandwidths": {"s0": 50e6}},
        ],
    )
    def test_extra_arguments_bypass_the_table(self, monkeypatch, extra):
        model = StepTimeModel(MODEL_ZOO["kaggle-ndsb"], "async")
        plain = model.speed(2, 4)  # the (2, 4) entry now exists
        calls = []
        original = model.breakdown

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "breakdown", spy)
        assert model.speed(2, 4) == plain
        assert calls == []
        for _ in range(2):
            model.speed(2, 4, **extra)
        assert len(calls) == 2


def oracle_cells(seed: int):
    """Two independent oracle cells; the fingerprint of both runs."""
    cells = []
    for cell in range(2):
        jobs = uniform_arrivals(
            num_jobs=4,
            window=1200,
            seed=seed * 10 + cell,
            models=["cnn-rand", "kaggle-ndsb", "dssm"],
        )
        result = simulate(
            Cluster.homogeneous(6, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            jobs,
            SimConfig(seed=seed, estimator_mode="oracle"),
        )
        cells.append(
            {
                "jobs": sorted(
                    [r.job_id, r.completion_time, r.total_steps, r.num_scalings]
                    for r in result.jobs.values()
                ),
                "busy": [
                    [s.busy_worker_cpu, s.busy_ps_cpu] for s in result.timeline
                ],
            }
        )
    return cells


class TestProcessWideState:
    def test_results_do_not_depend_on_earlier_runs(self):
        first = oracle_cells(1)
        oracle_cells(2)
        again = oracle_cells(1)
        assert again == first
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), str(REPO), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json; from tests.test_ground_truth_memo import oracle_cells;"
                " print(json.dumps(oracle_cells(1)))",
            ],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        # JSON floats round-trip exactly, so this is a bitwise comparison.
        assert json.loads(json.dumps(first)) == json.loads(out)

    @pytest.mark.parametrize("name", PROFILES)
    def test_paa_imbalance_matches_fresh_partition(self, name):
        spec = make_job(name, job_id=f"memo-{name}", dataset_scale=0.05)
        job = RuntimeJob(spec, seed=RandomSource(0))
        blocks = blocks_from_sizes(spec.profile.parameter_blocks())
        for p in range(1, 33):
            fresh = paa_partition(blocks, p).imbalance_factor
            assert job.imbalance_factor(p) == fresh

    def test_mxnet_imbalance_stays_seeded_per_job(self):
        spec = make_job("resnet-50", job_id="memo-mx", dataset_scale=0.05)
        blocks = blocks_from_sizes(spec.profile.parameter_blocks())
        factors = {}
        for seed in (1, 2):
            job = RuntimeJob(
                spec, seed=RandomSource(seed), partition_algorithm="mxnet"
            )
            factors[seed] = [job.imbalance_factor(p) for p in range(2, 17)]
            expected = [
                mxnet_partition(
                    blocks,
                    p,
                    seed=RandomSource(seed).child("job-memo-mx").child(f"mxnet-{p}"),
                ).imbalance_factor
                for p in range(2, 17)
            ]
            assert factors[seed] == expected
        assert factors[1] != factors[2]
