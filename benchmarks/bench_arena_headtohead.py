"""Arena head-to-head -- the pinned policy race that CI gates.

Races the registry's headline policies (Optimus §4.1, Pollux-style
goodput, OASiS-style online primal-dual, DRF) on one seeded paper-scale
trace via :func:`repro.sim.run_arena`, and writes the flat gate report
(``ArenaReport.gate_dict``) that ``benchmarks/check_regression.py`` diffs
against the committed ``BENCH_arena.json`` baseline. Because the trace,
and seed are pinned, every number is deterministic: any drift is a
behaviour change in a policy or the simulator, not noise.

Run it directly to regenerate the baseline::

    python benchmarks/bench_arena_headtohead.py --output BENCH_arena.json
"""

import argparse
import json
import sys

from bench_common import (
    PAPER_ARRIVAL_WINDOW,
    PAPER_NUM_JOBS,
    paper_cluster,
    paper_workload,
    report,
    smoke_mode,
)
from repro.sim import SimConfig, format_arena, run_arena

#: What benchmarks/smoke.py runs at smoke scale.
SMOKE_PRODUCERS = ("run_headtohead",)

#: The pinned race: baseline first, then the two new online policies and
#: the fairness straw man.
ARENA_POLICIES = ("optimus", "goodput", "oasis", "drf")
ARENA_SEED = 42


def run_headtohead(policies=ARENA_POLICIES, seed=ARENA_SEED):
    """Race *policies* on the §6.1 trace; returns the :class:`ArenaReport`.

    Smoke mode (``BENCH_SMOKE=1``) shrinks the trace through
    :func:`bench_common.paper_workload` but races the same policy set.
    """
    config = SimConfig(seed=seed, estimator_mode="online")
    return run_arena(
        list(policies),
        paper_cluster,
        paper_workload(seed=seed),
        config=config,
        baseline=policies[0],
    )


def run_headtohead_gate(policies=ARENA_POLICIES, seed=ARENA_SEED):
    """The flat gate dictionary for ``check_regression.py``."""
    return run_headtohead(policies, seed=seed).gate_dict()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Race the named policies head-to-head on one trace."
    )
    parser.add_argument(
        "--policies",
        default=",".join(ARENA_POLICIES),
        help="comma-separated policy names (baseline first)",
    )
    parser.add_argument("--seed", type=int, default=ARENA_SEED)
    parser.add_argument(
        "--output", default=None, help="write the gate JSON here"
    )
    args = parser.parse_args(argv)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    arena = run_headtohead(policies, seed=args.seed)
    print(format_arena(arena))
    text = json.dumps(arena.gate_dict(), indent=2, sort_keys=True)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    return 0


def test_arena_headtohead(benchmark):
    arena = benchmark.pedantic(run_headtohead, rounds=1, iterations=1)

    scores = {entry.policy: entry for entry in arena.scores}
    assert set(scores) == set(ARENA_POLICIES)
    if not smoke_mode():
        # Paper-shape claims (§6.2 / Fig. 11 analogues): every policy
        # drains the trace, and the goodput-aware allocator is at least
        # competitive with plain Optimus on mean JCT.
        assert all(s.finished == s.jobs for s in scores.values())
        assert arena.relative("goodput")["jct_ratio"] < 1.1
        assert all(0.0 < s.jain_fairness <= 1.0 for s in scores.values())

    lines = [
        f"pinned head-to-head, seed={arena.seed}, "
        f"{PAPER_NUM_JOBS} jobs / {PAPER_ARRIVAL_WINDOW:.0f} s window",
        "",
        format_arena(arena),
    ]
    report("arena_headtohead", lines)


if __name__ == "__main__":
    sys.exit(main())
