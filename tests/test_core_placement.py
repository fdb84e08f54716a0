"""Tests for the §4.2 task-placement scheme and Theorem 1's consequences."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ResourceVector, Server, cpu_mem
from repro.common.errors import PlacementError
from repro.core.placement import (
    PlacementRequest,
    layout_counts,
    place_jobs,
    split_evenly,
    transfer_units,
)

DEMAND = cpu_mem(5, 10)


def req(job_id, workers, ps):
    return PlacementRequest(
        job_id=job_id,
        workers=workers,
        ps=ps,
        worker_demand=DEMAND,
        ps_demand=DEMAND,
    )


class TestSplitEvenly:
    def test_exact_division(self):
        assert split_evenly(6, 3) == [2, 2, 2]

    def test_remainder_goes_first(self):
        assert split_evenly(7, 3) == [3, 2, 2]

    def test_zero_count(self):
        assert split_evenly(0, 3) == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(PlacementError):
            split_evenly(3, 0)
        with pytest.raises(PlacementError):
            split_evenly(-1, 3)

    @given(count=st.integers(0, 1000), buckets=st.integers(1, 50))
    def test_properties(self, count, buckets):
        parts = split_evenly(count, buckets)
        assert sum(parts) == count
        assert max(parts) - min(parts) <= 1
        assert parts == sorted(parts, reverse=True)


class TestPlaceJobs:
    def test_small_job_packs_on_one_server(self, small_cluster):
        result = place_jobs(small_cluster, [req("j", 2, 1)])
        assert result.servers_used("j") == 1
        assert result.unplaced == ()

    def test_uses_fewest_servers(self, small_cluster):
        # 6 tasks at 5 CPU each need exactly 2 of the 16-CPU servers.
        result = place_jobs(small_cluster, [req("j", 4, 2)])
        assert result.servers_used("j") == 2

    def test_even_spread_across_servers(self, small_cluster):
        result = place_jobs(small_cluster, [req("j", 4, 2)])
        layout = result.layouts["j"]
        totals = [nw + np_ for nw, np_ in layout.values()]
        assert max(totals) - min(totals) <= 1

    def test_cluster_state_mutated(self, small_cluster):
        place_jobs(small_cluster, [req("j", 2, 2)])
        assert small_cluster.placed_task_count("j") == 4

    def test_layout_matches_allocation(self, small_cluster):
        result = place_jobs(small_cluster, [req("j", 5, 3)])
        layout = result.layouts["j"]
        assert sum(nw for nw, _ in layout.values()) == 5
        assert sum(np_ for _, np_ in layout.values()) == 3

    def test_smallest_job_first(self, small_cluster):
        """Anti-starvation: a small job must not be squeezed out by a big one."""
        big = req("big", 8, 8)  # 16 tasks: > 12-task capacity... can't fit
        small = req("small", 1, 1)
        result = place_jobs(small_cluster, [big, small])
        assert "small" in result.layouts

    def test_unplaceable_job_reported(self, small_cluster):
        # Not even a (1, 1) of 20-CPU tasks fits a 16-CPU server.
        huge = PlacementRequest("huge", 10, 10, cpu_mem(20, 10), cpu_mem(20, 10))
        result = place_jobs(small_cluster, [huge])
        assert result.unplaced == result.retried == ("huge",)
        assert small_cluster.placed_task_count() == 0

    def test_oversized_job_is_shrunk(self, small_cluster):
        # 20 tasks cannot fit 4 x 3-task servers; halved to (5, 5) they do.
        result = place_jobs(small_cluster, [req("huge", 10, 10)])
        assert result.unplaced == ()
        assert result.retried == ("huge",)
        assert layout_counts(result.layouts["huge"]) == (5, 5)
        assert small_cluster.placed_task_count() == 10

    def test_first_pass_places_before_any_shrink(self, small_cluster):
        # "big" is retried only after every job has had its first pass, so
        # the small jobs keep their full counts.
        requests = [req("big", 6, 6), req("a", 2, 1), req("b", 1, 2)]
        result = place_jobs(small_cluster, requests)
        assert list(result.layouts) == ["a", "b", "big"]
        assert layout_counts(result.layouts["big"]) == (3, 3)

    def test_multiple_jobs_fill_cluster(self, small_cluster):
        requests = [req(f"j{i}", 2, 2) for i in range(3)]
        result = place_jobs(small_cluster, requests)
        assert len(result.layouts) == 3
        assert small_cluster.placed_task_count() == 12

    def test_slot_count_keeps_the_fit_slack(self):
        # 0.9 CPU is left, and Server.place_tasks accepts nine 0.1-CPU
        # tasks there, though 0.9 // 0.1 == 8.
        cluster = Cluster([Server("s", ResourceVector({"cpu": 1.0, "memory": 100}))])
        shape = ResourceVector({"cpu": 0.1, "memory": 0.1})
        cluster.place("s", ("other", "worker", 0), shape)
        result = place_jobs(cluster, [PlacementRequest("j", 5, 4, shape, shape)])
        assert result.layouts == {"j": {"s": (5, 4)}}

    def test_invalid_request(self):
        with pytest.raises(PlacementError):
            req("j", 0, 1)

    def test_prefers_available_servers(self, small_cluster):
        # Pre-load node-0 so it's the least available.
        small_cluster.place("node-0", ("other", "worker", 0), cpu_mem(12, 20))
        result = place_jobs(small_cluster, [req("j", 2, 1)])
        assert "node-0" not in result.layouts["j"]


class TestTheorem1:
    def test_fewer_servers_less_transfer(self):
        """Theorem 1 part 1: the fewest servers minimise transfer."""
        packed = {"s0": (2, 1), "s1": (2, 1)}
        spread = {"s0": (1, 1), "s1": (1, 1), "s2": (1, 0), "s3": (1, 0)}
        assert transfer_units(packed) < transfer_units(spread)

    def test_even_beats_uneven_on_same_servers(self):
        """Theorem 1 part 2: even per-server counts minimise the bottleneck."""
        even = {"s0": (2, 1), "s1": (2, 1)}
        uneven = {"s0": (3, 2), "s1": (1, 0)}
        assert transfer_units(even) <= transfer_units(uneven)

    def test_fig10_example(self):
        """The paper's Fig-10 worked example: (c) strictly beats (a) and (b).

        2 parameter servers + 4 workers on servers hosting 3 tasks each;
        per-pair data is 1 unit (model of 2 units over 2 ps). The paper
        computes transfer times 3, 3 and 2 for the three layouts.
        """
        a = {"s1": (1, 1), "s2": (1, 1), "s3": (2, 0)}
        b = {"s1": (2, 1), "s2": (1, 1), "s3": (1, 0)}
        c = {"s1": (2, 1), "s2": (2, 1)}
        # With unit model size and unit bandwidth the paper's counts are
        # 3, 3 and 2 transfer units respectively.
        assert transfer_units(a, model_units=2.0) == pytest.approx(3.0)
        assert transfer_units(b, model_units=2.0) == pytest.approx(3.0)
        assert transfer_units(c, model_units=2.0) == pytest.approx(2.0)

    def test_single_server_free(self):
        assert transfer_units({"s0": (4, 2)}) == 0.0

    def test_validation(self):
        with pytest.raises(PlacementError):
            transfer_units({"s0": (2, 0)})

    @settings(max_examples=40, deadline=None)
    @given(workers=st.integers(1, 12), ps=st.integers(1, 12), k=st.integers(1, 6))
    def test_even_split_is_optimal_among_k_server_layouts(self, workers, ps, k):
        """Perturbations of the even layout never beat it (Theorem 1).

        The theorem's hypothesis is an exactly-even deployment, i.e. k
        divides both task counts; remainder cases can be beaten by
        concentrating the leftover tasks.
        """
        if workers % k or ps % k:
            return
        even_w = split_evenly(workers, k)
        even_p = list(reversed(split_evenly(ps, k)))
        even = {
            f"s{i}": (even_w[i], even_p[i])
            for i in range(k)
            if even_w[i] or even_p[i]
        }
        base = transfer_units(even)
        # Move one worker from the first loaded server to the last. The
        # claim only covers layouts over the *same* server count (Theorem
        # 1 separately says fewer servers are better), so skip moves that
        # would empty a server.
        names = list(even)
        if len(names) >= 2 and even[names[0]][0] > 0:
            shifted = dict(even)
            w0, p0 = shifted[names[0]]
            w1, p1 = shifted[names[-1]]
            shifted[names[0]] = (w0 - 1, p0)
            shifted[names[-1]] = (w1 + 1, p1)
            if (w0 - 1, p0) == (0, 0):
                return
            assert transfer_units(shifted) >= base - 1e-9


class TestPlacementQuality:
    """place_jobs against brute force on tiny instances: the layout it
    picks must be transfer-optimal (or within a whisker) among all layouts
    using any number of servers."""

    def brute_force_best(self, workers, ps, num_servers, slots_per_server):

        best = None

        def layouts(count, servers):
            # All ways to distribute `count` identical tasks over servers.
            if servers == 1:
                yield (count,)
                return
            for first in range(count + 1):
                for rest in layouts(count - first, servers - 1):
                    yield (first,) + rest

        for w_split in layouts(workers, num_servers):
            for p_split in layouts(ps, num_servers):
                if any(
                    w + p > slots_per_server
                    for w, p in zip(w_split, p_split)
                ):
                    continue
                layout = {
                    f"s{i}": (w_split[i], p_split[i])
                    for i in range(num_servers)
                    if w_split[i] or p_split[i]
                }
                cost = transfer_units(layout)
                if best is None or cost < best:
                    best = cost
        return best

    @pytest.mark.parametrize("workers,ps", [(2, 1), (3, 2), (4, 2), (4, 4), (5, 3)])
    def test_within_optimal_transfer(self, workers, ps):
        num_servers, slots = 4, 3
        cluster = Cluster.homogeneous(num_servers, cpu_mem(15, 64))
        result = place_jobs(cluster, [req("j", workers, ps)])
        assert "j" in result.layouts
        chosen = transfer_units(result.layouts["j"])
        optimal = self.brute_force_best(workers, ps, num_servers, slots)
        assert chosen <= optimal + 1e-9 or chosen <= optimal * 1.25
