"""Pins for the control-plane drills' observable output.

``repro drill --json`` payloads (summary, failures, checkpoints) and exit
codes are compared against ``tests/golden/drill_payloads.json``; the soak
scenario's drill phase is pinned as a hash of its event stream with the
wall-clock ``duration`` field stripped. A refactor of the
drill harness must leave every value here unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim.soak import ScenarioSpec, run_soak

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "drill_payloads.json").read_text()
)

DRILL_ARGV = {"default": []}
for _point in ("after_checkpoint", "after_teardown", "mid_launch", "after_launch"):
    DRILL_ARGV[_point] = [
        "--crash-point", _point, "--seed", "0", "--expire-node", "2",
    ]


@pytest.mark.parametrize("case", sorted(DRILL_ARGV))
def test_drill_json_payload_is_pinned(case, capsys):
    code = main(["drill", "--json", *DRILL_ARGV[case]])
    payload = json.loads(capsys.readouterr().out)
    assert code == GOLDEN[case]["exit_code"]
    assert payload == GOLDEN[case]["payload"]


SOAK_BASE = {
    "name": "drill-pin",
    "seed": 0,
    "servers": 4,
    "horizon": 4000,
    "interval": 200,
    "workload": [{"arrivals": "uniform", "jobs": 2, "window": 400}],
}

#: drill block -> sha256 of the stripped event stream of the whole soak.
SOAK_DRILLS = {
    "soak_48h_block": (
        {
            "crash_point": "after_teardown",
            "jobs": 3,
            "steps": 6,
            "servers": 4,
            "expire_node": -1,
            "lease_ttl": 2.0,
        },
        "0e3563805638af69",
    ),
    "mid_launch_dead_node": (
        {"crash_point": "mid_launch", "expire_node": 2},
        "5d52ea6bfe5341e6",
    ),
    # One step launches but never tears down: the crash fires in the drain.
    "crash_in_drain": (
        {"crash_point": "after_checkpoint", "steps": 1},
        "f4ecb40a999e4134",
    ),
    "after_launch_first_step": (
        {"crash_point": "after_launch", "steps": 1},
        "81fb6a06887bb9de",
    ),
    "no_leases": ({"expire_node": 1, "lease_ttl": 0}, "3c4da7999e3d7420"),
    "failover": (
        {"kind": "failover", "kills": 2, "crash_point": "mid_step_deposed"},
        "55728430d4641c26",
    ),
}


def stream_digest(events):
    stripped = [
        {k: v for k, v in event.items() if k != "duration"}
        for event in events
    ]
    payload = json.dumps(stripped, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(SOAK_DRILLS))
def test_soak_drill_phase_stream_is_pinned(case):
    drill, digest = SOAK_DRILLS[case]
    outcome = run_soak(ScenarioSpec.from_dict({**SOAK_BASE, "drill": drill}))
    assert outcome.ok, [v.message for v in outcome.violations]
    accounting = outcome.events[-1]
    assert accounting["event"] == "run_completed"
    assert accounting["leaked_pods"] == []
    assert accounting["leaked_leases"] == []
    assert accounting["leaked_intents"] == []
    assert stream_digest(outcome.events) == digest
