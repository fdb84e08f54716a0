"""The opt-in placement cache (layout memo) and its scheduler wiring.

Covers the unit-level contract of :class:`repro.core.placement.PlacementCache`
(keying, validation, invalidation) and its integration into
:class:`repro.schedulers.composite.CompositeScheduler`: replayed layouts on
unchanged allocations, cache drop on node events reported through
``notify_node_events``, and the fall-back to fresh placement when a cached
layout no longer fits the live cluster.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.core.placement import PlacementCache, PlacementRequest
from repro.obs import MetricsRegistry
from repro.schedulers import JobView, make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import make_job, uniform_arrivals

WORKER_DEMAND = cpu_mem(2, 4)
PS_DEMAND = cpu_mem(1, 2)

FULL_BLOCK = cpu_mem(16, 80)  # one whole server worth of resources


def request(job_id="job-a", workers=3, ps=2):
    return PlacementRequest(
        job_id=job_id,
        workers=workers,
        ps=ps,
        worker_demand=WORKER_DEMAND,
        ps_demand=PS_DEMAND,
    )


def cluster(nodes=4):
    return Cluster.homogeneous(nodes, cpu_mem(16, 80))


class TestPlacementCacheUnit:
    def test_lookup_misses_until_stored(self):
        cache = PlacementCache()
        assert cache.lookup(request()) is None
        cache.store(request(), {"node-0": (3, 2)})
        assert cache.lookup(request()) == {"node-0": (3, 2)}
        assert len(cache) == 1

    def test_changed_allocation_misses(self):
        cache = PlacementCache()
        cache.store(request(workers=3, ps=2), {"node-0": (3, 2)})
        assert cache.lookup(request(workers=4, ps=2)) is None
        assert cache.lookup(request(workers=3, ps=1)) is None

    def test_changed_demand_shape_misses(self):
        cache = PlacementCache()
        cache.store(request(), {"node-0": (3, 2)})
        fatter = PlacementRequest(
            job_id="job-a",
            workers=3,
            ps=2,
            worker_demand=cpu_mem(4, 8),
            ps_demand=PS_DEMAND,
        )
        assert cache.lookup(fatter) is None

    def test_store_copies_the_layout(self):
        cache = PlacementCache()
        layout = {"node-0": (3, 2)}
        cache.store(request(), layout)
        layout["node-1"] = (1, 0)  # mutating the caller's dict
        assert cache.lookup(request()) == {"node-0": (3, 2)}

    def test_retain_drops_absent_jobs(self):
        cache = PlacementCache()
        for job_id in ("a", "b", "c"):
            cache.store(request(job_id), {"node-0": (3, 2)})
        cache.retain({"b"})
        assert len(cache) == 1 and cache.lookup(request("b")) is not None

    def test_forget_job(self):
        cache = PlacementCache()
        cache.store(request(), {"node-0": (3, 2)})
        cache.forget_job("job-a")
        assert cache.lookup(request()) is None

    def test_invalidate_all_counts_dropped_entries(self):
        cache = PlacementCache()
        cache.store(request("a"), {"node-0": (3, 2)})
        cache.store(request("b"), {"node-1": (3, 2)})
        cache.invalidate_all()
        assert len(cache) == 0
        assert cache.invalidations == 2
        cache.invalidate_all()  # idempotent on an empty cache
        assert cache.invalidations == 2

    def test_validate_accepts_fitting_layout(self):
        cache = PlacementCache()
        assert cache.validate(cluster(), request(), {"node-0": (3, 2)})

    def test_validate_rejects_unknown_server(self):
        cache = PlacementCache()
        assert not cache.validate(cluster(), request(), {"node-99": (3, 2)})

    def test_validate_propagates_other_errors(self, monkeypatch):
        # Only an unknown server means "not replayable"; any other failure
        # of the lookup is a bug and must surface, not read as a miss.
        def broken(self, name):
            raise RuntimeError("lookup bug")

        monkeypatch.setattr(Cluster, "server", broken)
        with pytest.raises(RuntimeError, match="lookup bug"):
            PlacementCache().validate(cluster(), request(), {"node-0": (3, 2)})

    def test_validate_rejects_full_server(self):
        c = cluster()
        c.place("node-0", ("blocker", "worker", 0), FULL_BLOCK)
        cache = PlacementCache()
        assert not cache.validate(c, request(), {"node-0": (3, 2)})
        # other servers still fine
        assert cache.validate(c, request(), {"node-1": (3, 2)})


def views_for(num_jobs=4):
    """Stable job views: the allocator grants the same counts each round."""
    views = []
    for i in range(num_jobs):
        spec = make_job(
            "cnn-rand",
            mode="sync",
            job_id=f"job-{i}",
            worker_demand=WORKER_DEMAND,
            ps_demand=PS_DEMAND,
        )
        views.append(
            JobView(
                spec=spec,
                remaining_steps=5e4 * (i + 1),
                speed=lambda p, w: w / (1.0 + 2.0 * w / p + 0.01 * w),
            )
        )
    return views


class TestSchedulerIntegration:
    def make(self, metrics=None):
        scheduler = make_scheduler("optimus", placement_cache=True)
        if metrics is not None:
            scheduler.instrument(metrics=metrics)
        return scheduler

    def test_second_round_replays_layouts(self):
        metrics = MetricsRegistry()
        scheduler = self.make(metrics)
        views = views_for()
        first = scheduler.schedule(cluster(), views)
        assert scheduler.placement_cache.hits == 0
        second = scheduler.schedule(cluster(), views)
        cache = scheduler.placement_cache
        assert cache.hits == len(second.layouts)
        assert second.layouts == first.layouts
        assert second.allocations == first.allocations
        counters = metrics.snapshot()["counters"]
        assert counters["placement.cache_hits"] == cache.hits

    def test_off_by_default(self):
        scheduler = make_scheduler("optimus")
        assert scheduler.placement_cache is None
        # and the no-op node-event hook must not blow up without a cache
        scheduler.notify_node_events(failed=["node-0"])

    def test_node_events_drop_the_cache(self):
        metrics = MetricsRegistry()
        scheduler = self.make(metrics)
        views = views_for()
        scheduler.schedule(cluster(), views)
        assert len(scheduler.placement_cache) > 0
        scheduler.notify_node_events(failed=["node-1"])
        cache = scheduler.placement_cache
        assert len(cache) == 0
        assert cache.invalidations > 0
        counters = metrics.snapshot()["counters"]
        assert counters["placement.cache_invalidations"] == 1.0
        # next round starts cold: no hits added
        scheduler.schedule(cluster(), views)
        assert cache.hits == 0

    def test_stale_layout_falls_back_to_fresh_placement(self):
        scheduler = self.make()
        views = views_for()
        first = scheduler.schedule(cluster(), views)
        # Fill every server the cached layouts use, so validation fails
        # and the jobs must be re-placed from scratch on the spare nodes.
        crowded = cluster(nodes=8)
        used_servers = {
            name for layout in first.layouts.values() for name in layout
        }
        for i, name in enumerate(sorted(used_servers)):
            crowded.place(name, (f"blocker-{i}", "worker", 0), FULL_BLOCK)
        second = scheduler.schedule(crowded, views)
        cache = scheduler.placement_cache
        assert cache.hits == 0
        assert cache.misses >= len(second.layouts)
        assert len(second.layouts) > 0
        for layout in second.layouts.values():
            assert not set(layout) & used_servers

    def test_changed_allocation_is_not_replayed(self):
        scheduler = self.make()
        views = views_for()
        scheduler.schedule(cluster(), views)
        # Shrink the fleet: less capacity -> different task counts -> the
        # cache keys no longer match and nothing is replayed blindly.
        small = cluster(nodes=2)
        decision = scheduler.schedule(small, views)
        decision.validate()
        for job_id, layout in decision.layouts.items():
            alloc = decision.allocations[job_id]
            placed = [sum(c) for c in layout.values()]
            assert sum(placed) == alloc.workers + alloc.ps


class TestCacheLifetime:
    def test_absent_jobs_are_dropped_at_the_next_round(self):
        scheduler = make_scheduler("optimus", placement_cache=True)
        views = views_for()
        scheduler.schedule(cluster(), views)
        assert len(scheduler.placement_cache) == len(views)
        scheduler.schedule(cluster(), views[:1])
        assert len(scheduler.placement_cache) == 1
        scheduler.schedule(cluster(), [])
        assert len(scheduler.placement_cache) == 0

    def test_empty_after_every_job_finished(self):
        scheduler = make_scheduler("optimus", placement_cache=True)
        jobs = uniform_arrivals(
            num_jobs=6, window=1200, seed=1, models=["cnn-rand", "kaggle-ndsb", "dssm"]
        )
        result = simulate(
            Cluster.homogeneous(6, cpu_mem(16, 64)),
            scheduler,
            jobs,
            SimConfig(seed=3, estimator_mode="oracle"),
        )
        assert all(rec.completion_time is not None for rec in result.jobs.values())
        assert scheduler.placement_cache.hits > 0
        assert len(scheduler.placement_cache) == 0
        assert scheduler.placement_cache  # empty, but caching is still on
