"""§7 "Scaling overhead" -- cost-aware rescaling ablation.

The paper proposes limiting checkpoint-based restarts for jobs where
rescaling is expensive. Our implementation is hysteresis: a running job
only changes configuration when the estimated completion-time saving
exceeds ``threshold x`` its checkpoint cost.

Shape to hold: raising the threshold monotonically reduces the number of
rescalings (and hence total scaling time) while keeping JCT close to the
eager baseline.
"""


from bench_common import paper_workload, report
from repro.cluster import Cluster, cpu_mem
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate

THRESHOLDS = (0.0, 1.0, 3.0, 10.0)


def run_sweep():
    jobs = paper_workload(seed=42)
    out = {}
    for threshold in THRESHOLDS:
        cluster = Cluster.homogeneous(13, cpu_mem(16, 80))
        result = simulate(
            cluster,
            make_scheduler("optimus", rescale_threshold=threshold),
            jobs,
            SimConfig(seed=7),
        )
        out[threshold] = result
    return out


def test_ablation_rescale_hysteresis(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    scalings = {
        t: sum(r.num_scalings for r in res.jobs.values())
        for t, res in results.items()
    }
    jcts = {t: res.average_jct for t, res in results.items()}

    # More hysteresis, fewer restarts.
    assert scalings[10.0] < scalings[0.0]
    assert scalings[1.0] <= scalings[0.0]
    # Modest thresholds keep JCT competitive with the eager baseline.
    assert jcts[1.0] < jcts[0.0] * 1.15

    lines = [
        "paper §7: limit restarting frequency to control the checkpoint",
        "overhead of elastic scaling (paper's measured overhead: 2.54% of",
        "makespan).",
        "",
        f"{'threshold':>10s} {'rescalings':>11s} {'scaling time':>13s} "
        f"{'JCT(h)':>8s} {'norm':>6s}",
    ]
    base = jcts[0.0]
    for t in THRESHOLDS:
        result = results[t]
        lines.append(
            f"{t:10.1f} {scalings[t]:11d} "
            f"{result.total_scaling_time:11.0f} s "
            f"{result.average_jct/3600:8.2f} {jcts[t]/base:6.2f}"
        )
    report("ablation_rescale_hysteresis", lines)
