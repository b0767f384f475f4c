"""PhysicalMemory: strict/fallback allocation, frame metadata, accounting."""

import pytest

from repro.errors import OutOfMemoryError, TopologyError
from repro.mem.frame import FrameKind
from repro.mem.physmem import PhysicalMemory
from repro.machine.topology import Machine, Socket
from repro.units import MIB, PAGE_SIZE


class TestNodePartition:
    def test_node_of_pfn_partitions_space(self, physmem2):
        f0 = physmem2.alloc_frame(0)
        f1 = physmem2.alloc_frame(1)
        assert physmem2.node_of_pfn(f0.pfn) == 0
        assert physmem2.node_of_pfn(f1.pfn) == 1

    def test_node_of_pfn_rejects_out_of_range(self, physmem2):
        with pytest.raises(TopologyError):
            physmem2.node_of_pfn(10**9)

    def test_node_boundaries_on_unequal_nodes(self):
        # Unequal capacities, so every boundary sits at a different PFN.
        sizes = (4 * MIB, 12 * MIB, 2 * MIB, 8 * MIB)
        machine = Machine(
            sockets=tuple(
                Socket(socket_id=i, n_cores=1, memory_bytes=size)
                for i, size in enumerate(sizes)
            )
        )
        physmem = PhysicalMemory(machine)
        first = 0
        for node, size in enumerate(sizes):
            last = first + size // PAGE_SIZE - 1
            assert physmem.node_of_pfn(first) == node
            assert physmem.node_of_pfn(last) == node
            first = last + 1
        for outside in (-1, first):
            with pytest.raises(TopologyError):
                physmem.node_of_pfn(outside)


class TestAllocation:
    def test_strict_allocation_lands_on_node(self, physmem4):
        for node in range(4):
            frame = physmem4.alloc_frame(node)
            assert frame.node == node

    def test_strict_allocation_fails_when_node_full(self):
        machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=8 * PAGE_SIZE)
        pm = PhysicalMemory(machine)
        for _ in range(8):
            pm.alloc_frame(0)
        with pytest.raises(OutOfMemoryError):
            pm.alloc_frame(0)
        pm.alloc_frame(1)  # other node untouched

    def test_fallback_moves_to_next_node(self):
        machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=2 * PAGE_SIZE)
        pm = PhysicalMemory(machine)
        pm.alloc_frame(0)
        pm.alloc_frame(0)
        frame = pm.alloc_frame_fallback(0)
        assert frame.node == 1

    def test_fallback_raises_when_machine_full(self):
        machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=PAGE_SIZE)
        pm = PhysicalMemory(machine)
        pm.alloc_frame(0)
        pm.alloc_frame(1)
        with pytest.raises(OutOfMemoryError) as exc:
            pm.alloc_frame_fallback(0)
        assert exc.value.node is None

    def test_huge_frame_has_order_9(self, physmem2):
        frame = physmem2.alloc_huge_frame(0)
        assert frame.order == 9
        assert frame.nbytes == 2 * MIB


class TestFrameMetadata:
    def test_frame_lookup_roundtrip(self, physmem2):
        frame = physmem2.alloc_frame(1)
        assert physmem2.frame(frame.pfn) is frame

    def test_lookup_of_unallocated_pfn_raises(self, physmem2):
        with pytest.raises(TopologyError):
            physmem2.frame(12345)

    def test_double_free_detected(self, physmem2):
        frame = physmem2.alloc_frame(0)
        physmem2.free(frame)
        with pytest.raises(ValueError):
            physmem2.free(frame)

    def test_free_resets_metadata(self, physmem2):
        frame = physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        frame.replica_next = frame.pfn
        physmem2.free(frame)
        assert frame.kind is FrameKind.FREE
        assert frame.replica_next is None


class TestAccounting:
    def test_page_table_bytes_tracked_per_node(self, physmem2):
        physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        physmem2.alloc_frame(1, kind=FrameKind.DATA)
        assert physmem2.page_table_bytes(0) == 2 * PAGE_SIZE
        assert physmem2.page_table_bytes(1) == 0
        assert physmem2.page_table_bytes() == 2 * PAGE_SIZE

    def test_page_table_bytes_drop_on_free(self, physmem2):
        frame = physmem2.alloc_frame(0, kind=FrameKind.PAGE_TABLE)
        physmem2.free(frame)
        assert physmem2.page_table_bytes(0) == 0

    def test_stats_snapshot(self, physmem2):
        physmem2.alloc_frame(0)
        stats = physmem2.stats(0)
        assert stats.used_frames == 1
        assert stats.free_frames == stats.capacity_frames - 1

    def test_total_used_bytes(self, physmem2):
        physmem2.alloc_frame(0)
        physmem2.alloc_huge_frame(1)
        assert physmem2.total_used_bytes() == PAGE_SIZE + 2 * MIB


class TestBreakHugeBlock:
    def test_break_reduces_huge_availability_only(self, physmem2):
        before_huge = physmem2.huge_blocks_available(0)
        before_used = physmem2.stats(0).used_frames
        pin = physmem2.break_huge_block(0)
        assert pin.kind is FrameKind.PINNED
        assert physmem2.huge_blocks_available(0) == before_huge - 1
        assert physmem2.stats(0).used_frames == before_used + 1
