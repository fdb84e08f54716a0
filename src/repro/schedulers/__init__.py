"""Schedulers: Optimus, the paper's baselines and ablation hybrids.

Every named scheduler is a :class:`CompositeScheduler`: an allocation half
from :data:`ALLOCATION_POLICIES` paired with a placement half from
:data:`PLACEMENT_POLICIES`. :func:`make_scheduler` builds one from a preset
name (:data:`PRESETS`) or an ``"<allocation>+<placement>"`` spec. A policy
outside these tables plugs in as a :class:`Scheduler` instance.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".base": ("Scheduler", "JobView", "SchedulingDecision"),
        ".composite": (
            "CompositeScheduler", "make_scheduler", "ALLOCATION_POLICIES", "PLACEMENT_POLICIES",
            "PRESETS",
        ),
        ".policies": (
            "optimus_allocation", "drf_allocation", "tetris_allocation", "fifo_allocation",
            "srtf_allocation", "optimus_placement", "spread_placement", "pack_placement",
        ),
        ".goodput": ("goodput_allocation",),
        ".oasis": ("oasis_allocation",),
    },
)
