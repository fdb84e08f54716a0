"""Golden pins for the trace readers: ``repro trace``, ``top``, ``explain``
and ``trace diff``.

The traces come from the CI smoke run (9 jobs, 13 servers, seed 0, full
decision ledger; once with ``optimus`` and once with ``goodput``) and from
the CI failover drill, the one trace with leader-election and fencing
events. Each is generated in-process through the CLI and read back from
JSONL, as the commands read it. A ``span`` event's ``duration`` is the
only wall-clock field, so it is overwritten with a constant first; the
rest of every trace is deterministic.

Regenerate the goldens after an intended output change with::

    PYTHONPATH=src python tests/test_obs_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    EVENT_JOB_ARRIVED,
    EVENT_SPAN,
    explain_trace,
    format_trace_diff,
    read_trace,
    render_top,
    summarize_trace,
    trace_diff,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

SMOKE_ARGS = [
    "simulate", "--jobs", "9", "--servers", "13", "--window", "12000",
    "--seed", "0", "--ledger", "full", "--json",
]
FAILOVER_ARGS = [
    "failover", "--crash-point", "mid_step_deposed", "--seed", "0",
    "--kills", "2",
]


def _trace(out_dir: Path, name: str, args, metrics: bool = False):
    """Run one CLI command with ``--trace-out``; return its events (and metrics)."""
    trace = out_dir / f"{name}.jsonl"
    extra = ["--trace-out", str(trace)]
    if metrics:
        extra += ["--metrics-out", str(out_dir / f"{name}.json")]
    assert main(args + extra) == 0
    events = read_trace(str(trace))
    for event in events:
        if event["event"] == EVENT_SPAN:
            event["duration"] = 0.001
    if not metrics:
        return events
    return events, json.loads((out_dir / f"{name}.json").read_text())


def render_goldens(out_dir: Path):
    """``{golden file name: rendered text}`` for every pinned output."""
    optimus, metrics = _trace(out_dir, "optimus", SMOKE_ARGS, metrics=True)
    goodput = _trace(out_dir, "goodput", SMOKE_ARGS + ["--scheduler", "goodput"])
    failover = _trace(out_dir, "failover", FAILOVER_ARGS)
    jobs = [e["job_id"] for e in optimus if e["event"] == EVENT_JOB_ARRIVED]
    return {
        "trace_smoke.txt": summarize_trace(optimus),
        "trace_failover.txt": summarize_trace(failover),
        "top_smoke.txt": render_top(optimus, metrics_snapshot=metrics),
        "top_failover.txt": render_top(failover, metrics_snapshot=metrics),
        "explain_smoke.txt": "\n\n".join(
            explain_trace(optimus, job_id) for job_id in jobs
        ),
        "diff_smoke.txt": format_trace_diff(
            trace_diff(optimus, goodput, label_a="optimus", label_b="goodput")
        ),
    }


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return render_goldens(tmp_path_factory.mktemp("golden-traces"))


@pytest.mark.parametrize(
    "name",
    [
        "trace_smoke.txt",
        "trace_failover.txt",
        "top_smoke.txt",
        "top_failover.txt",
        "explain_smoke.txt",
        "diff_smoke.txt",
    ],
)
def test_matches_golden(rendered, name):
    assert rendered[name] + "\n" == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":  # pragma: no cover - regenerates the goldens
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in render_goldens(Path(tmp)).items():
            (GOLDEN_DIR / name).write_text(text + "\n")
            print(f"wrote {GOLDEN_DIR / name}")
