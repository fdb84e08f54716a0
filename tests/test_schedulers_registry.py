"""Tests for the scheduler name tables behind ``make_scheduler``."""

import pytest

from repro.common.errors import SchedulingError
from repro.schedulers import (
    ALLOCATION_POLICIES,
    PLACEMENT_POLICIES,
    PRESETS,
    CompositeScheduler,
    make_scheduler,
)


class TestRegistries:
    def test_builtins_registered(self):
        assert set(PRESETS) == {
            "optimus", "drf", "tetris", "fifo", "srtf", "goodput", "oasis"
        }
        assert set(ALLOCATION_POLICIES) == set(PRESETS)
        assert set(PLACEMENT_POLICIES) == {"optimus", "spread", "pack"}

    def test_available_policies_sorted(self):
        with pytest.raises(SchedulingError) as excinfo:
            make_scheduler("nope")
        listed = str(excinfo.value).split("available: ")[1].split(" (")[0]
        assert listed.split(", ") == sorted(PRESETS)


class TestRoundTrip:
    def test_every_registered_scheduler_resolves(self):
        for name, spec in PRESETS.items():
            scheduler = make_scheduler(name)
            allocation, placement = spec.split("+")
            assert isinstance(scheduler, CompositeScheduler)
            assert scheduler.name == name
            assert scheduler.allocation_policy is ALLOCATION_POLICIES[allocation]
            assert scheduler.placement_policy is PLACEMENT_POLICIES[placement]

    def test_hybrid_names_resolve_to_composite(self):
        scheduler = make_scheduler("srtf+pack")
        assert isinstance(scheduler, CompositeScheduler)
        assert scheduler.name == "srtf+pack"

    def test_every_half_resolves(self):
        for allocation in ALLOCATION_POLICIES:
            for placement in PLACEMENT_POLICIES:
                scheduler = make_scheduler(f"{allocation}+{placement}")
                assert scheduler.allocation_policy is ALLOCATION_POLICIES[allocation]
                assert scheduler.placement_policy is PLACEMENT_POLICIES[placement]


class TestLookupErrors:
    def test_unknown_scheduler_lists_alternatives(self):
        with pytest.raises(SchedulingError) as excinfo:
            make_scheduler("nope")
        message = str(excinfo.value)
        assert "nope" in message
        for name in (*PRESETS, *ALLOCATION_POLICIES, *PLACEMENT_POLICIES):
            assert name in message

    def test_unknown_halves_list_alternatives(self):
        with pytest.raises(SchedulingError, match="optimus"):
            CompositeScheduler("nope", "pack")
        with pytest.raises(SchedulingError, match="pack"):
            CompositeScheduler("optimus", "nope")

    def test_never_a_bare_keyerror(self):
        for name in ("definitely-not-registered", "nope+pack", "drf+nope", "+"):
            try:
                make_scheduler(name)
            except SchedulingError:
                pass
            else:  # pragma: no cover - the lookup must raise
                raise AssertionError(f"lookup of {name!r} did not raise")

    def test_hybrid_with_unknown_half_raises(self):
        with pytest.raises(SchedulingError):
            make_scheduler("nope+pack")
