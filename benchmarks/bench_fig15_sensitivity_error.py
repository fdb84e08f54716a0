"""Fig. 15 -- sensitivity of Optimus to prediction errors.

Paper: injecting synthetic errors into the convergence and speed estimates
(magnitude decaying with job progress, as in §6.3) increases JCT and
makespan, with diminishing slope; speed errors hurt more than convergence
errors; ~15% degradation at (20% convergence, 10% speed) error.

We run the simulator's oracle with ``convergence_error`` / ``speed_error``
set, which perturbs the ground truth by exactly the paper's v*(1±e)
protocol.
"""

import numpy as np

from bench_common import paper_workload, report, run_scheduler

ERROR_LEVELS = (0.0, 0.15, 0.30, 0.45)
SEEDS = (7, 8, 9)


def run_sensitivity():
    jobs = paper_workload(seed=42)

    def mean_jct(conv_error, speed_error):
        jcts = []
        for seed in SEEDS:
            result = run_scheduler(
                "optimus",
                jobs=jobs,
                seed=seed,
                estimator_mode="oracle",
                convergence_error=conv_error,
                speed_error=speed_error,
            )
            jcts.append(result.average_jct)
        return float(np.mean(jcts))

    convergence = {e: mean_jct(e, 0.0) for e in ERROR_LEVELS}
    speed = {e: mean_jct(0.0, e) for e in ERROR_LEVELS}
    return convergence, speed


def test_fig15_sensitivity_error(benchmark):
    convergence, speed = benchmark.pedantic(run_sensitivity, rounds=1, iterations=1)

    base = convergence[0.0]
    # Errors degrade performance, but boundedly (the paper's curves stay
    # within ~1.45x even at 45% error).
    worst = max(max(convergence.values()), max(speed.values()))
    assert worst < base * 1.8
    # Large speed errors clearly hurt (paper: ~1.38x at 45%).
    assert speed[0.45] > base * 1.10
    # ...with a diminishing slope.
    assert (speed[0.45] - speed[0.30]) < (speed[0.30] - speed[0.15]) + 0.15 * base
    # Speed errors hurt more than convergence errors (paper §6.3; in our
    # reproduction convergence errors barely register at all -- they only
    # rescale a job's marginal gains, which rarely flips the allocation).
    assert speed[0.45] >= convergence[0.45]

    lines = [
        "paper Fig. 15: JCT rises with injected estimation error with",
        "diminishing slope; speed errors hurt more than convergence errors.",
        "",
        f"{'error':>6s} {'JCT conv-err (norm)':>20s} {'JCT speed-err (norm)':>21s}",
    ]
    for e in ERROR_LEVELS:
        lines.append(
            f"{int(100*e):5d}% {convergence[e]/base:20.3f} {speed[e]/base:21.3f}"
        )
    report("fig15_sensitivity_error", lines)
