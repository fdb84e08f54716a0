"""§6.3 (text) -- the priority-factor technique for young jobs.

The paper evaluates downgrading the marginal gain of jobs whose predictions
are still unreliable by a factor of 0.95 and reports 2.66% / 1.88% smaller
average JCT / makespan than factor 1.0.

We sweep the factor over several seeds; the shape to hold is that a mild
downgrade never hurts materially (within noise of the factor-1.0 baseline)
-- the effect itself is small by the paper's own account.
"""

import numpy as np

from bench_common import paper_workload, report
from repro.cluster import Cluster, cpu_mem
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate

FACTORS = (1.0, 0.95, 0.8)
SEEDS = (7, 8, 9)


def run_sweep():
    jobs = paper_workload(seed=42)
    out = {}
    for factor in FACTORS:
        jcts, makespans = [], []
        for seed in SEEDS:
            cluster = Cluster.homogeneous(13, cpu_mem(16, 80))
            result = simulate(
                cluster,
                make_scheduler("optimus", priority_factor=factor),
                jobs,
                SimConfig(seed=seed),
            )
            jcts.append(result.average_jct)
            makespans.append(result.makespan)
        out[factor] = (float(np.mean(jcts)), float(np.mean(makespans)))
    return out


def test_ablation_priority_factor(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    base_jct, base_mk = results[1.0]
    # The paper's 0.95 tweak is worth ~2.7%; at minimum it must not cost
    # more than a few percent in our reproduction.
    assert results[0.95][0] < base_jct * 1.08
    assert results[0.95][1] < base_mk * 1.08

    lines = [
        "paper §6.3: priority factor 0.95 gives 2.66% lower JCT and 1.88%",
        "lower makespan than factor 1.0.",
        "",
        f"{'factor':>7s} {'JCT(h)':>8s} {'norm':>7s} {'makespan(h)':>12s} {'norm':>7s}",
    ]
    for factor in FACTORS:
        jct, mk = results[factor]
        lines.append(
            f"{factor:7.2f} {jct/3600:8.2f} {jct/base_jct:7.3f} "
            f"{mk/3600:12.2f} {mk/base_mk:7.3f}"
        )
    report("ablation_priority_factor", lines)
