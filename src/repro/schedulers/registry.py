"""The scheduler policy registry: one shared observation/action surface.

Every scheduling policy in this library -- Optimus itself, the paper's
baselines, and the successor policies (Pollux-style goodput, OASiS-style
online primal-dual) -- plugs into the same surface:

* **observations**: a sequence of :class:`~repro.schedulers.base.JobView`
  (per-job stats, fitted speed/loss estimators, progress) plus the cluster
  working copy;
* **actions**: a :class:`~repro.schedulers.base.SchedulingDecision`
  (per-job task allocations + per-server layouts).

Three registries back that surface:

* **schedulers** -- named factories producing a complete
  :class:`~repro.schedulers.base.Scheduler` (``"optimus"``, ``"goodput"``,
  ``"oasis"``, ...). This is what the CLI's ``--policy`` flag, the
  ``arena`` runner and :func:`repro.sim.simulate` resolve by name.
* **allocation policies** -- ``(jobs, capacity) -> {job_id: TaskAllocation}``
  halves, composable into :class:`CompositeScheduler` hybrids.
* **placement policies** -- ``(cluster, requests) -> PlacementResult``
  halves, ditto.

Modules register their policies at import time (see
:mod:`repro.schedulers.policies`, :mod:`repro.schedulers.goodput`,
:mod:`repro.schedulers.oasis`); importing :mod:`repro.schedulers` loads all
built-ins. Lookups of unknown names raise :class:`SchedulingError` listing
the registered alternatives -- never a bare :class:`KeyError`.

The ``REPRO_POLICY`` environment variable overrides the *default* policy
name (the one used when a caller passes ``None``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

from repro.common.errors import SchedulingError

#: Environment variable naming the default scheduler policy.
POLICY_ENV_VAR = "REPRO_POLICY"

#: Named scheduler factories: ``factory(**kwargs) -> Scheduler``.
SCHEDULER_REGISTRY: Dict[str, Callable] = {}

#: Named allocation-policy halves (see :mod:`repro.schedulers.policies`).
ALLOCATION_REGISTRY: Dict[str, Callable] = {}

#: Named placement-policy halves.
PLACEMENT_REGISTRY: Dict[str, Callable] = {}

_KINDS = {
    "scheduler": SCHEDULER_REGISTRY,
    "allocation": ALLOCATION_REGISTRY,
    "placement": PLACEMENT_REGISTRY,
}


def _register(kind: str, name: str, obj: Optional[Callable]):
    registry = _KINDS[kind]

    def install(target: Callable) -> Callable:
        existing = registry.get(name)
        if existing is not None and existing is not target:
            raise SchedulingError(
                f"{kind} policy {name!r} is already registered"
            )
        registry[name] = target
        return target

    if obj is None:
        return install  # decorator form
    return install(obj)


def register_scheduler(name: str, factory: Optional[Callable] = None):
    """Register a scheduler factory under *name* (usable as a decorator).

    The factory is called with the caller's keyword arguments and must
    return a :class:`~repro.schedulers.base.Scheduler`. Classes work
    directly::

        @register_scheduler("goodput")
        class GoodputScheduler(CompositeScheduler): ...
    """
    return _register("scheduler", name, factory)


def register_allocation(name: str, policy: Optional[Callable] = None):
    """Register an allocation-policy half under *name*."""
    return _register("allocation", name, policy)


def register_placement(name: str, policy: Optional[Callable] = None):
    """Register a placement-policy half under *name*."""
    return _register("placement", name, policy)


def available_policies(kind: str = "scheduler") -> Tuple[str, ...]:
    """Sorted names registered for *kind* (scheduler/allocation/placement)."""
    if kind not in _KINDS:
        raise SchedulingError(
            f"unknown registry kind {kind!r}; known: {sorted(_KINDS)}"
        )
    return tuple(sorted(_KINDS[kind]))


def _lookup(kind: str, name: str) -> Callable:
    registry = _KINDS[kind]
    try:
        return registry[name]
    except KeyError:
        raise SchedulingError(
            f"unknown {kind} policy {name!r}; "
            f"available: {', '.join(sorted(registry)) or '(none)'}"
        ) from None


def resolve_allocation(name: str) -> Callable:
    """The registered allocation policy, or :class:`SchedulingError`."""
    return _lookup("allocation", name)


def resolve_placement(name: str) -> Callable:
    """The registered placement policy, or :class:`SchedulingError`."""
    return _lookup("placement", name)


def default_policy(fallback: str = "optimus") -> str:
    """The default scheduler name: ``$REPRO_POLICY`` if set, else *fallback*."""
    return os.environ.get(POLICY_ENV_VAR) or fallback


def resolve_scheduler(name: Optional[str] = None, **kwargs):
    """Build a scheduler from a registered name or an ``alloc+place`` spec.

    ``None`` resolves to :func:`default_policy` (honouring the
    ``REPRO_POLICY`` environment variable). Names containing ``+`` are
    parsed as ``"<allocation>+<placement>"`` ablation hybrids (Fig. 18/19),
    with both halves resolved through their registries. Unknown names raise
    :class:`SchedulingError` listing every registered alternative.
    """
    if name is None:
        name = default_policy()
    factory = SCHEDULER_REGISTRY.get(name)
    if factory is not None:
        return factory(**kwargs)
    if "+" in name:
        from repro.schedulers.composite import CompositeScheduler

        allocation, placement = name.split("+", 1)
        return CompositeScheduler(allocation, placement, **kwargs)
    raise SchedulingError(
        f"unknown scheduler policy {name!r}; available: "
        f"{', '.join(available_policies('scheduler'))} "
        f"(or an '<allocation>+<placement>' hybrid from "
        f"allocations {', '.join(available_policies('allocation'))} and "
        f"placements {', '.join(available_policies('placement'))})"
    )
