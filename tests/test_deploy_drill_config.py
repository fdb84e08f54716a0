"""Range checks on the drill configs and the CLI's exit code for them."""

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.deploy import CrashDrillConfig, FailoverConfig


@pytest.mark.parametrize(
    "field, value",
    [("jobs", 0), ("servers", 0), ("steps", -1), ("crash_point", "after_elected")],
)
def test_crash_drill_config_rejects(field, value):
    with pytest.raises(ConfigurationError, match=field):
        CrashDrillConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("jobs", 0),
        ("servers", 0),
        ("steps_before", -1),
        ("steps_after", -1),
        ("kills", 0),
        ("crash_point", "after_lunch"),
    ],
)
def test_failover_config_rejects(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FailoverConfig(**{field: value})


def test_boundary_values_are_accepted():
    CrashDrillConfig(jobs=1, servers=1, steps=0)
    FailoverConfig(jobs=1, servers=1, steps_before=0, steps_after=0, kills=1)


@pytest.mark.parametrize(
    "argv, message",
    [
        # Used to die with ZeroDivisionError picking the victim job.
        (["failover", "--jobs", "0", "--crash-point", "after_teardown"], "jobs"),
        # Used to run one kill silently.
        (["failover", "--kills", "0"], "kills"),
        (["failover", "--servers", "0"], "servers"),
        (["drill", "--servers", "0"], "servers"),
        (["drill", "--steps", "-1"], "steps"),
    ],
)
def test_cli_exits_2_with_a_message(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: {message} must be >=")
    assert "Traceback" not in err
