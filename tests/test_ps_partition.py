"""Tests for parameter-block partitioning (§5.3): PAA vs MXNet default."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.ps.blocks import Assignment, ParameterBlock, ServerLoad, blocks_from_sizes
from repro.ps.partition import mxnet_partition, paa_partition, partition
from repro.workloads import MODEL_ZOO


@pytest.fixture
def resnet_blocks():
    return blocks_from_sizes(MODEL_ZOO["resnet-50"].parameter_blocks())


class TestBlocks:
    def test_blocks_from_sizes_names(self):
        blocks = blocks_from_sizes([10.0, 20.0])
        assert blocks[0].name == "block-000"
        assert blocks[1].size == 20.0

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterBlock("x", 0)

    def test_server_load_metrics(self):
        load = ServerLoad(0)
        load.add("a", 10.0)
        load.add("b", 5.0)
        assert load.assigned_size == 15.0
        assert load.num_requests == 2

    def test_assignment_metrics(self):
        s0, s1 = ServerLoad(0), ServerLoad(1)
        s0.add("a", 10.0)
        s1.add("b", 4.0)
        s1.add("c", 2.0)
        assignment = Assignment(servers=[s0, s1], algorithm="test")
        assert assignment.total_size == 16.0
        assert assignment.total_requests == 3
        assert assignment.size_difference == 4.0
        assert assignment.request_difference == 1
        assert assignment.max_share == pytest.approx(10 / 16)
        assert assignment.imbalance_factor == pytest.approx(2 * 10 / 16)


class TestMXNetPartition:
    def test_conserves_parameters(self, resnet_blocks):
        assignment = mxnet_partition(resnet_blocks, 10, seed=1)
        assert assignment.total_size == pytest.approx(25e6, rel=1e-6)

    def test_large_blocks_sliced_to_all_servers(self):
        blocks = [ParameterBlock("big", 5e6), ParameterBlock("small", 100.0)]
        assignment = mxnet_partition(blocks, 4, seed=1)
        slices = [
            name for server in assignment.servers for name, _ in server.pieces
            if name == "big"
        ]
        assert len(slices) == 4  # the big block appears on every server

    def test_small_blocks_random_single_server(self):
        blocks = [ParameterBlock(f"b{i}", 100.0) for i in range(20)]
        assignment = mxnet_partition(blocks, 4, seed=1)
        assert assignment.total_requests == 20  # no slicing below threshold

    def test_threshold_parameter(self):
        blocks = [ParameterBlock("b", 500.0)]
        sliced = mxnet_partition(blocks, 4, threshold=100.0, seed=1)
        assert sliced.total_requests == 4

    def test_reproducible_under_seed(self, resnet_blocks):
        a = mxnet_partition(resnet_blocks, 8, seed=5)
        b = mxnet_partition(resnet_blocks, 8, seed=5)
        assert a.summary() == b.summary()

    def test_validation(self, resnet_blocks):
        with pytest.raises(ConfigurationError):
            mxnet_partition(resnet_blocks, 0)
        with pytest.raises(ConfigurationError):
            mxnet_partition([], 4)
        with pytest.raises(ConfigurationError):
            mxnet_partition(resnet_blocks, 4, threshold=0)


class TestPAAPartition:
    def test_conserves_parameters(self, resnet_blocks):
        assignment = paa_partition(resnet_blocks, 10)
        assert assignment.total_size == pytest.approx(25e6, rel=1e-6)

    def test_deterministic(self, resnet_blocks):
        a = paa_partition(resnet_blocks, 10)
        b = paa_partition(resnet_blocks, 10)
        assert a.summary() == b.summary()

    def test_table3_shape(self, resnet_blocks):
        """Table 3: PAA yields tiny size diff, request diff ~1, near-minimal
        requests; MXNet's default is far worse on all three."""
        mx = mxnet_partition(resnet_blocks, 10, seed=1)
        pa = paa_partition(resnet_blocks, 10)
        assert pa.size_difference < 0.3e6  # paper: 0.1M
        assert pa.request_difference <= 2  # paper: 1
        assert pa.total_requests <= len(resnet_blocks) + 3  # paper: no splits
        assert mx.size_difference > 5 * pa.size_difference
        assert mx.request_difference > pa.request_difference
        assert mx.total_requests > pa.total_requests

    def test_imbalance_factor_near_one(self, resnet_blocks):
        for p in (2, 5, 10, 18):
            assignment = paa_partition(resnet_blocks, p)
            assert 1.0 <= assignment.imbalance_factor < 1.15, p

    def test_mxnet_imbalance_grows_with_servers(self, resnet_blocks):
        few = mxnet_partition(resnet_blocks, 4, seed=1).imbalance_factor
        many = mxnet_partition(resnet_blocks, 18, seed=1).imbalance_factor
        assert many > few

    def test_single_server_trivial(self, resnet_blocks):
        assignment = paa_partition(resnet_blocks, 1)
        assert assignment.imbalance_factor == pytest.approx(1.0)
        assert assignment.request_difference == 0

    def test_oversized_block_sliced(self):
        blocks = [ParameterBlock("huge", 100.0), ParameterBlock("rest", 10.0)]
        assignment = paa_partition(blocks, 4)
        # avg = 27.5, so "huge" is sliced into 4 pieces.
        assert assignment.total_requests >= 5
        assert assignment.total_size == pytest.approx(110.0)

    def test_tiny_blocks_balance_requests(self):
        blocks = [ParameterBlock("big0", 1000.0), ParameterBlock("big1", 990.0)]
        blocks += [ParameterBlock(f"tiny{i}", 0.5) for i in range(20)]
        assignment = paa_partition(blocks, 2)
        assert assignment.request_difference <= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            paa_partition([ParameterBlock("a", 1.0)], 2, tiny_fraction=0.0)


class TestDispatch:
    def test_partition_by_name(self, resnet_blocks):
        assert partition(resnet_blocks, 4, "paa").algorithm == "paa"
        assert partition(resnet_blocks, 4, "mxnet", seed=1).algorithm == "mxnet"

    def test_unknown_algorithm(self, resnet_blocks):
        with pytest.raises(ConfigurationError):
            partition(resnet_blocks, 4, "round-robin")


sizes_strategy = st.lists(
    st.floats(min_value=1.0, max_value=5e6, allow_nan=False),
    min_size=1,
    max_size=80,
)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(sizes=sizes_strategy, num_servers=st.integers(1, 12))
    def test_paa_conserves_and_bounds_imbalance(self, sizes, num_servers):
        blocks = blocks_from_sizes(sizes)
        assignment = paa_partition(blocks, num_servers)
        assert assignment.total_size == pytest.approx(sum(sizes), rel=1e-9)
        assert assignment.imbalance_factor >= 1.0 - 1e-9
        # The busiest server holds at most one extra max-block beyond avg.
        avg = sum(sizes) / num_servers
        busiest = max(s.assigned_size for s in assignment.servers)
        assert busiest <= avg + max(sizes) + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(sizes=sizes_strategy, num_servers=st.integers(1, 12), seed=st.integers(0, 99))
    def test_mxnet_conserves(self, sizes, num_servers, seed):
        blocks = blocks_from_sizes(sizes)
        assignment = mxnet_partition(blocks, num_servers, seed=seed)
        assert assignment.total_size == pytest.approx(sum(sizes), rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(sizes=sizes_strategy, num_servers=st.integers(2, 12))
    def test_paa_no_worse_than_mxnet_on_requests(self, sizes, num_servers):
        # PAA slices blocks above avg = total/p; MXNet slices blocks above
        # its fixed threshold. The comparison is only meaningful when PAA
        # has no forced slicing of its own.
        if max(sizes) > sum(sizes) / num_servers:
            return
        blocks = blocks_from_sizes(sizes)
        pa = paa_partition(blocks, num_servers)
        mx = mxnet_partition(blocks, num_servers, seed=0)
        assert pa.total_requests <= mx.total_requests


def reference_paa(blocks, num_servers, tiny_fraction=0.01):
    """PAA as it was written when every load read re-summed the server's
    pieces; returns each server's piece list."""
    pieces = [[] for _ in range(num_servers)]

    def size(i):
        return sum(s for _, s in pieces[i])

    avg_size = sum(b.size for b in blocks) / num_servers
    for block in sorted(blocks, key=lambda b: (-b.size, b.name)):
        if block.size < tiny_fraction * avg_size:
            target = min(range(num_servers), key=lambda i: (len(pieces[i]), size(i), i))
            pieces[target].append((block.name, block.size))
        elif block.size <= avg_size:
            target = None
            for i in range(num_servers):
                remaining = avg_size - size(i)
                if remaining + 1e-9 >= block.size:
                    if target is None or remaining < avg_size - size(target):
                        target = i
            if target is None:
                target = min(range(num_servers), key=lambda i: (size(i), i))
            pieces[target].append((block.name, block.size))
        else:
            count = max(math.ceil(block.size / avg_size - 1e-9), 1)
            remaining = block.size
            for n in range(count):
                piece = remaining if n == count - 1 else min(avg_size, remaining)
                if piece <= 0:
                    break
                remaining -= piece
                target = min(range(num_servers), key=lambda i: (size(i), i))
                pieces[target].append((f"{block.name}/slice-{n}", piece))
    return pieces


def scanning_paa(blocks, num_servers, tiny_fraction=0.01):
    """PAA as it was written before the heaps: every tiny block and every
    slice scans all servers with ``min``; returns the servers."""
    servers = [ServerLoad(i) for i in range(num_servers)]
    avg_size = sum(b.size for b in blocks) / num_servers
    for block in sorted(blocks, key=lambda b: (-b.size, b.name)):
        if block.size < tiny_fraction * avg_size:
            target = min(servers, key=lambda s: (s.num_requests, s.assigned_size, s.index))
            target.add(block.name, block.size)
        elif block.size <= avg_size:
            target = None
            for server in servers:
                remaining = avg_size - server.assigned_size
                if remaining + 1e-9 >= block.size:
                    if target is None or remaining < avg_size - target.assigned_size:
                        target = server
            if target is None:
                target = min(servers, key=lambda s: (s.assigned_size, s.index))
            target.add(block.name, block.size)
        else:
            count = max(int(math.ceil(block.size / avg_size - 1e-9)), 1)
            remaining = block.size
            for n in range(count):
                piece = remaining if n == count - 1 else min(avg_size, remaining)
                if piece <= 0:
                    break
                remaining -= piece
                target = min(servers, key=lambda s: (s.assigned_size, s.index))
                target.add(f"{block.name}/slice-{n}", piece)
    return servers


class TestHeapPartition:
    """The slice and tiny phases pick servers off heaps; every piece must
    land where the scanning version put it."""

    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_matches_scanning_paa_for_every_ps_count(self, model):
        blocks = blocks_from_sizes(MODEL_ZOO[model].parameter_blocks())
        for num_servers in range(1, 65):
            ours = paa_partition(blocks, num_servers).servers
            assert ours == scanning_paa(blocks, num_servers)

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 50).map(float), min_size=1, max_size=60),
        num_servers=st.integers(1, 16),
    )
    def test_matches_scanning_paa_with_ties(self, sizes, num_servers):
        # Small integer sizes make equal loads, so the index tie-break
        # decides.
        blocks = blocks_from_sizes(sizes)
        ours = paa_partition(blocks, num_servers).servers
        assert ours == scanning_paa(blocks, num_servers)


class TestRunningLoads:
    """``ServerLoad.assigned_size`` is a running total; it must equal the
    left-to-right ``sum`` of the pieces exactly, and PAA must place every
    piece where the re-summing version did."""

    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_paa_matches_reference_for_every_ps_count(self, model):
        blocks = blocks_from_sizes(MODEL_ZOO[model].parameter_blocks())
        for num_servers in range(1, 33):
            assignment = paa_partition(blocks, num_servers)
            assert [s.pieces for s in assignment.servers] == reference_paa(blocks, num_servers)
            for server in assignment.servers:
                assert server.assigned_size == sum(size for _, size in server.pieces)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e7, allow_nan=False), max_size=40))
    def test_total_after_each_add(self, sizes):
        load = ServerLoad(0)
        assert load.assigned_size == 0
        for i, size in enumerate(sizes):
            load.add(f"b{i}", size)
            assert load.assigned_size == sum(s for _, s in load.pieces)

    def test_constructed_with_pieces(self):
        load = ServerLoad(3, [("a", 0.1), ("b", 0.2), ("c", 0.3)])
        assert load.assigned_size == 0.1 + 0.2 + 0.3
        load.add("d", 0.4)
        assert load.assigned_size == 0.1 + 0.2 + 0.3 + 0.4
        assert load == ServerLoad(3, list(load.pieces))
