"""Outside-in per-layer tracing for the perf benchmark.

Every layer is timed from the benchmark's side of the fence: the public
entry point of the layer is replaced, at the module or class where its
caller looks it up, by a wrapper that records a span (name, start, end,
parent span, scheduling round, job). Nothing inside ``src/`` knows it is
being traced, so the same hooks time any later version of the program.

Leaves that fire 10^5+ times per run (NNLS solves, ground-truth speed
evaluations, KV operations) are not stored one span per call: they are
folded into per-parent aggregates, which keeps the traced run's memory and
overhead bounded. A layer's *self time* is its duration minus the time of
the spans nested inside it; summed over every layer plus ``other`` (wall
time outside any span) it reproduces the traced wall exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names in report order.
LAYERS = (
    "fit.loss",
    "fit.nnls",
    "fit.speed",
    "view",
    "admit",
    "round",
    "snapshot",
    "schedule",
    "allocate",
    "place",
    "truth.speed",
    "truth.breakdown",
    "progress.paa",
    "progress.advance",
    "cp.heartbeat",
    "cp.sweep",
    "cp.cluster_from_api",
    "cp.reconcile",
    "kv.put",
    "kv.get",
    "kv.delete",
    "kv.cas",
    "kv.list",
    "kv.lease",
)

#: Layers aggregated per parent span instead of stored call by call.
LEAVES = frozenset(
    {"fit.nnls", "truth.speed", "truth.breakdown", "progress.advance"}
    | {name for name in LAYERS if name.startswith("kv.")}
)


@dataclass(frozen=True)
class Hook:
    """One patched entry point: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    owner: str
    attr: str

    @property
    def label(self) -> str:
        return f"{self.owner.replace(':', '.')}.{self.attr}"


def _job_of_view(args) -> Optional[str]:
    return args[0].spec.job_id


_RUNTIME_JOB = "repro.sim.runtime:RuntimeJob"
_KV = "repro.k8s.kvstore:KVStore"
_LOOP = "repro.deploy.loop:ControlLoop"

#: Module- and class-level hooks, resolved before anything runs.
HOOKS = (
    Hook("fit.loss", "repro.core.convergence", "fit_loss_curve"),
    Hook("fit.nnls", "repro.fitting.loss_curve", "nnls"),
    Hook("fit.nnls", "repro.fitting.speed_model", "nnls"),
    Hook("fit.speed", "repro.core.speed", "fit_speed_model"),
    Hook("view", _RUNTIME_JOB, "view"),
    Hook("admit", _RUNTIME_JOB, "__init__"),
    Hook("admit", _RUNTIME_JOB, "attach_data"),
    Hook("admit", _RUNTIME_JOB, "bootstrap_speed"),
    # The one non-public hook: both simulator cores run every scheduling
    # round through this method, so it is the round boundary.
    Hook("round", "repro.sim.engine:Simulation", "_process_interval"),
    Hook("round", _LOOP, "step"),
    Hook("snapshot", "repro.cluster.cluster:Cluster", "snapshot"),
    Hook("truth.speed", "repro.workloads.speed:StepTimeModel", "speed"),
    Hook("truth.breakdown", "repro.workloads.speed:StepTimeModel", "breakdown"),
    Hook("progress.paa", "repro.sim.runtime", "paa_partition"),
    Hook("progress.advance", _RUNTIME_JOB, "advance"),
    Hook("cp.heartbeat", _LOOP, "heartbeat"),
    Hook("cp.sweep", _LOOP, "sweep_node_leases"),
    Hook("cp.cluster_from_api", "repro.deploy.loop", "cluster_from_api"),
    Hook("cp.reconcile", "repro.k8s.controller:JobController", "reconcile"),
    Hook("kv.put", _KV, "put"),
    Hook("kv.get", _KV, "get"),
    Hook("kv.delete", _KV, "delete"),
    Hook("kv.cas", _KV, "compare_and_swap"),
    Hook("kv.list", _KV, "list_prefix"),
    Hook("kv.lease", _KV, "grant_lease"),
    Hook("kv.lease", _KV, "renew_lease"),
    Hook("kv.lease", _KV, "revoke_lease"),
    Hook("kv.lease", _KV, "expire_leases"),
)

#: Hooks on the scheduler *instance* (policies are instance attributes).
INSTANCE_HOOKS = (
    ("schedule", "schedule"),
    ("allocate", "allocation_policy"),
    ("place", "placement_policy"),
)

#: Counted, not timed: the refit ratio's denominator.
ESTIMATOR_FIT = Hook(
    "fit.loss.estimator_fits", "repro.core.convergence:ConvergenceEstimator", "fit"
)


class HookError(Exception):
    """A hooked entry point no longer exists under its recorded name."""


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookError(f"{owner}: {exc}") from None
    if class_name:
        target = getattr(target, class_name, None)
        if target is None:
            raise HookError(f"{module_name}.{class_name} is missing")
    return target


def check_hooks(hooks=HOOKS + (ESTIMATOR_FIT,)) -> None:
    """Raise :class:`HookError` naming the first hooked attribute that is gone."""
    for hook in hooks:
        owner = _resolve_owner(hook.owner)
        if not callable(getattr(owner, hook.attr, None)):
            raise HookError(f"{hook.label} is missing")


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "job", "anchor")

    def __init__(self, name, start, span_id, job, anchor):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.job = job
        self.anchor = anchor


class Recorder:
    """Collects spans from the wrappers; one per traced process.

    ``layers`` limits which layers are recorded (an untraced run records
    only ``round``, for step latencies).
    """

    def __init__(self, layers=LAYERS):
        self.layers = frozenset(layers)
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._rounds = 0
        #: Id of the round being traced, 0 between rounds.
        self._round = 0
        self.origin = time.perf_counter()
        #: (id, name, parent id, start, end, round, job), times from origin.
        self.spans: List[Tuple] = []
        #: (anchor span id, leaf name) -> [calls, seconds]
        self.leaf_totals: Dict[Tuple[int, str], List[float]] = defaultdict(lambda: [0, 0.0])
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (layer, nearest non-leaf ancestor layer or "-") -> calls
        self.parent_calls: Counter = Counter()
        self.round_s: List[float] = []
        self.fit_loss_by_job: Dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.counts: Counter = Counter()

    def enter(self, name: str, job: Optional[str]) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = parent.job
        if name in LEAVES:
            span_id, anchor = 0, parent.anchor if parent is not None else None
        else:
            span_id = self._next_id
            self._next_id += 1
            if name == "round":
                self._rounds += 1
                self._round = self._rounds
            anchor = None
        frame = _Frame(name, time.perf_counter(), span_id, job, anchor)
        if span_id:
            frame.anchor = frame
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        name = frame.name
        self.calls[name] += 1
        self.self_s[name] += duration - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        else:
            self.top_level_s += duration
        anchor = parent.anchor if parent is not None else None
        self.parent_calls[(name, anchor.name if anchor is not None else "-")] += 1
        round_id = self._round
        if name == "round":
            self.round_s.append(duration)
            self._round = 0
        elif name == "fit.loss" and frame.job is not None:
            self.fit_loss_by_job[frame.job] += duration
        if frame.span_id:
            self.spans.append(
                (
                    frame.span_id,
                    name,
                    anchor.span_id if anchor is not None else 0,
                    frame.start - self.origin,
                    end - self.origin,
                    round_id,
                    frame.job,
                )
            )
        else:
            totals = self.leaf_totals[(anchor.span_id if anchor is not None else 0, name)]
            totals[0] += 1
            totals[1] += duration

    def count(self, name: str) -> None:
        self.counts[name] += 1

    # -- reading it back -----------------------------------------------------
    def summary(self, wall_s: float, top_jobs: int = 10) -> dict:
        """Plain-data digest of the trace, for the parent process."""
        ranked = sorted(self.fit_loss_by_job.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "wall_s": wall_s,
            "calls": {name: self.calls.get(name, 0) for name in LAYERS},
            "self_s": {name: self.self_s.get(name, 0.0) for name in LAYERS},
            "other_s": wall_s - self.top_level_s,
            "parent_calls": [
                [name, parent, calls]
                for (name, parent), calls in sorted(self.parent_calls.items())
            ],
            "round_s": list(self.round_s),
            "fit_loss_top_jobs": [[job, s] for job, s in ranked[:top_jobs]],
            "counts": dict(self.counts),
        }

    def write_jsonl(self, path: str, header: dict) -> None:
        """Spans one per line (leaf aggregates ride on their parent span)."""
        leaves: Dict[int, Dict[str, List[float]]] = defaultdict(dict)
        for (span_id, name), (calls, seconds) in self.leaf_totals.items():
            leaves[span_id][name] = [calls, seconds]
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            if 0 in leaves:
                handle.write(json.dumps({"id": 0, "name": "-", "leaves": leaves[0]}) + "\n")
            for span_id, name, parent, start, end, round_id, job in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                    "round": round_id,
                    "job": job,
                }
                if span_id in leaves:
                    record["leaves"] = leaves[span_id]
                handle.write(json.dumps(record) + "\n")


def _wrap(recorder: Recorder, layer: str, fn: Callable, job_of=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = recorder.enter(layer, job_of(args) if job_of is not None else None)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(frame)

    return traced


def _counting(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        recorder.count(name)
        return fn(*args, **kwargs)

    return counted


_INHERITED = object()


class Installation:
    """Patched attributes, restored in reverse order by :meth:`remove`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        # Only an attribute the owner defines itself is restored; an
        # inherited one (or a bound method on an instance) is deleted again.
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(recorder: Recorder) -> Installation:
    """Patch every module/class hook whose layer the recorder keeps."""
    check_hooks()
    patched = Installation()
    for hook in HOOKS:
        if hook.layer not in recorder.layers:
            continue
        owner = _resolve_owner(hook.owner)
        job_of = _job_of_view if hook.layer == "view" else None
        wrapped = _wrap(recorder, hook.layer, getattr(owner, hook.attr), job_of)
        patched.patch(owner, hook.attr, wrapped)
    if "fit.loss" in recorder.layers:
        owner = _resolve_owner(ESTIMATOR_FIT.owner)
        patched.patch(
            owner,
            ESTIMATOR_FIT.attr,
            _counting(recorder, ESTIMATOR_FIT.layer, getattr(owner, ESTIMATOR_FIT.attr)),
        )
    return patched


def install_scheduler(recorder: Recorder, scheduler, patched: Installation) -> None:
    """Patch the scheduler instance's schedule / allocate / place entry points."""
    for layer, attr in INSTANCE_HOOKS:
        if not callable(getattr(scheduler, attr, None)):
            raise HookError(f"{type(scheduler).__name__}.{attr} is missing")
        if layer in recorder.layers:
            patched.patch(scheduler, attr, _wrap(recorder, layer, getattr(scheduler, attr)))
