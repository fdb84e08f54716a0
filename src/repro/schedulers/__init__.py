"""Schedulers: Optimus, the paper's baselines and ablation hybrids.

Every named scheduler is a :class:`CompositeScheduler`: an allocation half
from :data:`ALLOCATION_POLICIES` paired with a placement half from
:data:`PLACEMENT_POLICIES`. :func:`make_scheduler` builds one from a preset
name (:data:`PRESETS`) or an ``"<allocation>+<placement>"`` spec. A policy
outside these tables plugs in as a :class:`Scheduler` instance.
"""

from repro.schedulers.base import JobView, Scheduler, SchedulingDecision
from repro.schedulers.composite import (
    ALLOCATION_POLICIES,
    PLACEMENT_POLICIES,
    PRESETS,
    CompositeScheduler,
    make_scheduler,
)
from repro.schedulers.goodput import goodput_allocation
from repro.schedulers.oasis import oasis_allocation
from repro.schedulers.policies import (
    drf_allocation,
    fifo_allocation,
    optimus_allocation,
    optimus_placement,
    pack_placement,
    spread_placement,
    srtf_allocation,
    tetris_allocation,
)

__all__ = [
    "Scheduler",
    "JobView",
    "SchedulingDecision",
    "CompositeScheduler",
    "make_scheduler",
    "ALLOCATION_POLICIES",
    "PLACEMENT_POLICIES",
    "PRESETS",
    "optimus_allocation",
    "drf_allocation",
    "tetris_allocation",
    "fifo_allocation",
    "srtf_allocation",
    "goodput_allocation",
    "oasis_allocation",
    "optimus_placement",
    "spread_placement",
    "pack_placement",
]
