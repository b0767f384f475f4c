"""The benchmark's four workloads, built only through public entry points.

Each workload builds one cell (``build``), runs it (``run``: the measured
phase plus the report a ``repro scenario`` user sees), and then, outside
every timed span, hashes its simulated outputs (``digest``) and reads the
layers' public stats objects (``counts``). See README.md for why these
four were chosen.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

from repro.inject.plan import FaultPlan, install_fault_plan
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.paging import dump as ptdump
from repro.paging.pte import PTE_USER
from repro.sim.bench import RUN_FIELDS, THREAD_FIELDS
from repro.sim.engine import EngineConfig
from repro.sim.scenario import ScenarioResult, ScenarioSetup, measure, setup_multisocket
from repro.tlb.tlb import TlbConfig
from repro.units import MIB, PAGE_SIZE


def _hash(surface: dict) -> str:
    """Digest of a JSON-safe surface. Floats serialise by ``repr``, which
    round-trips exactly, so equal digests mean bit-identical outputs."""
    blob = json.dumps(surface, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _translation_counts(kernel: Kernel) -> dict[str, int]:
    """TLB/PSC hit and miss totals over every registered core context."""
    counts = dict.fromkeys(
        ("tlb.l1_hits", "tlb.l1_misses", "tlb.l2_hits", "tlb.walks",
         "tlb.psc_hits", "tlb.psc_lookups"), 0,
    )
    for tlb, mmu in kernel.cpu_contexts:
        counts["tlb.l1_hits"] += tlb.totals.l1.hits
        counts["tlb.l1_misses"] += tlb.totals.l1.misses
        counts["tlb.l2_hits"] += tlb.totals.l2.hits
        counts["tlb.walks"] += tlb.totals.walks
        counts["tlb.psc_hits"] += mmu.stats.hits
        counts["tlb.psc_lookups"] += mmu.stats.lookups
    return counts


def _kernel_counts(kernel: Kernel, tree) -> dict[str, int]:
    return {
        **_translation_counts(kernel),
        "tlb.shootdowns": kernel.shootdown.stats.shootdowns,
        "kernel.faults": kernel.fault_handler.faults_handled,
        "kernel.swap_ins": kernel.swap.stats.pages_swapped_in,
        "kernel.swap_outs": kernel.swap.stats.pages_swapped_out,
        "paging.pte_writes": tree.ops.stats.pte_writes,
        "mitosis.ring_hops": tree.ops.stats.ring_hops,
    }


# -- engine workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class EngineWorkload:
    """A Fig. 9-style multi-socket cell measured by ``measure``.

    ``reclaim_pages`` > 0 pushes that many pages to swap after the build
    (through the replicated PTEs when ``config`` ends in ``+M``) under a
    seeded swap-stall fault plan.
    """

    name: str
    workload: str
    config: str
    n_sockets: int
    footprint_mib: int
    accesses_per_thread: int
    thp: bool = False
    reclaim_pages: int = 0
    tlb: TlbConfig | None = None

    #: The unit of ``ops`` in the cell report.
    op_unit = "simulated accesses"

    def build(self, seed: int) -> tuple[ScenarioSetup, EngineConfig]:
        setup = setup_multisocket(
            self.workload, self.config, thp=self.thp,
            footprint=self.footprint_mib * MIB, n_sockets=self.n_sockets, seed=seed,
        )
        if self.reclaim_pages:
            plan = FaultPlan(seed=seed)
            plan.swap_stall(probability=0.4)
            install_fault_plan(setup.kernel, plan)
            setup.kernel.swap.reclaim(setup.process, target_pages=self.reclaim_pages)
        config = EngineConfig(accesses_per_thread=self.accesses_per_thread, seed=seed)
        if self.tlb is not None:
            config.tlb = self.tlb
        return setup, config

    def run(self, cell: tuple[ScenarioSetup, EngineConfig], engine: str) -> ScenarioResult:
        setup, config = cell
        config.engine = engine
        return measure(setup, config)

    @staticmethod
    def ops(result: ScenarioResult) -> int:
        return result.metrics.accesses

    @staticmethod
    def kernel(cell) -> Kernel:
        return cell[0].kernel

    @staticmethod
    def digest(cell, result: ScenarioResult) -> str:
        metrics = result.metrics
        return _hash({
            "threads": [[getattr(t, f) for f in THREAD_FIELDS] for t in metrics.threads],
            "run": [getattr(metrics, f) for f in RUN_FIELDS],
            "dump": result.dump.render(),
            "remote_leaf": sorted(result.remote_leaf_fraction.items()),
            "pt_bytes": sorted(result.pt_bytes_per_node.items()),
            "thp_failure_rate": result.thp_failure_rate,
        })

    @staticmethod
    def simulated(result: ScenarioResult) -> dict[str, float]:
        return {
            "sim.runtime_cycles": result.runtime_cycles,
            "sim.walk_cycle_fraction": result.walk_cycle_fraction,
        }

    @staticmethod
    def counts(cell, result: ScenarioResult) -> dict[str, float]:
        setup = cell[0]
        metrics = result.metrics
        escapes = metrics.escape_counts
        accesses = metrics.accesses
        refs = sum(t.walk_memory_refs for t in metrics.threads)
        return {
            **_kernel_counts(setup.kernel, setup.process.mm.tree),
            "sim.batched_frac": (accesses - escapes["l1_miss"] - escapes["bailout"]) / accesses,
            "sim.escape_l1_miss": escapes["l1_miss"],
            "sim.escape_fault": escapes["fault"],
            "sim.escape_bailout": escapes["bailout"],
            "paging.walks": sum(t.tlb_walks for t in metrics.threads),
            "paging.walk_refs": refs,
            "cache.llc_hit_ratio": (
                sum(t.walk_llc_hits for t in metrics.threads) / refs if refs else 0.0
            ),
        }


# -- vma-churn -----------------------------------------------------------------------


@dataclass
class ChurnCell:
    kernel: Kernel
    process: object
    sizes: list[int]


@dataclass
class ChurnResult:
    round_seconds: list[float]
    #: Per round: did page-table bytes and used frames return to their
    #: pre-loop values?
    rounds_ok: list[bool]
    #: Simulated cycles of each syscall, in call order.
    cycles: list[float]
    pages: int
    dump: ptdump.PageTableDump
    pt_bytes_per_node: dict[int, int]


@dataclass(frozen=True)
class ChurnWorkload:
    """Table 5's mmap(populate) -> mprotect -> munmap sequence as a
    throughput loop, on a process replicated on every socket that keeps a
    populated mapping alive."""

    name: str
    n_sockets: int
    resident_mib: int
    #: Region size of each round, in MiB; the seed only shuffles the order.
    round_mib: tuple[int, ...]

    op_unit = "pages mapped, reprotected and unmapped"

    def build(self, seed: int) -> ChurnCell:
        machine = Machine.homogeneous(
            self.n_sockets, cores_per_socket=1,
            memory_per_socket=self.resident_mib * MIB + 96 * MIB,
        )
        kernel = Kernel(machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
        process = kernel.create_process(self.name, socket=0)
        for socket in machine.node_ids()[1:]:
            process.add_thread(socket)
        kernel.mitosis.replicate_on_all_sockets(process)
        kernel.sys_mmap(process, self.resident_mib * MIB, populate=True, name="resident")
        sizes = [mib * MIB for mib in self.round_mib]
        random.Random(seed).shuffle(sizes)
        return ChurnCell(kernel=kernel, process=process, sizes=sizes)

    def run(self, cell: ChurnCell, engine: str) -> ChurnResult:
        kernel, process = cell.kernel, cell.process
        physmem = kernel.physmem
        pt_before = physmem.page_table_bytes()
        used_before = physmem.total_used_bytes()
        round_seconds, rounds_ok, cycles = [], [], []
        for size in cell.sizes:
            start = time.perf_counter()
            mapped = kernel.sys_mmap(process, size, populate=True, name="churn")
            prot = kernel.sys_mprotect(process, mapped.value, size, PTE_USER)
            unmapped = kernel.sys_munmap(process, mapped.value, size)
            round_seconds.append(time.perf_counter() - start)
            cycles += [mapped.cycles, prot.cycles, unmapped.cycles]
            rounds_ok.append(
                physmem.page_table_bytes() == pt_before
                and physmem.total_used_bytes() == used_before
            )
        tree = process.mm.tree
        return ChurnResult(
            round_seconds=round_seconds,
            rounds_ok=rounds_ok,
            cycles=cycles,
            pages=sum(cell.sizes) // PAGE_SIZE,
            dump=ptdump.dump_tree(tree, physmem, kernel.machine.n_sockets),
            pt_bytes_per_node={n: physmem.page_table_bytes(n) for n in kernel.machine.node_ids()},
        )

    @staticmethod
    def ops(result: ChurnResult) -> int:
        return result.pages

    @staticmethod
    def kernel(cell: ChurnCell) -> Kernel:
        return cell.kernel

    @staticmethod
    def digest(cell: ChurnCell, result: ChurnResult) -> str:
        stats = cell.process.mm.tree.ops.stats
        return _hash({
            "cycles": result.cycles,
            "ops": [stats.pte_writes, stats.pte_reads, stats.ring_hops,
                    stats.tables_allocated, stats.tables_released],
            "dump": result.dump.render(),
            "pt_bytes": sorted(result.pt_bytes_per_node.items()),
        })

    @staticmethod
    def simulated(result: ChurnResult) -> dict[str, float]:
        return {"sim.runtime_cycles": sum(result.cycles), "sim.walk_cycle_fraction": 0.0}

    @staticmethod
    def counts(cell: ChurnCell, result: ChurnResult) -> dict[str, float]:
        return {
            **_kernel_counts(cell.kernel, cell.process.mm.tree),
            "sim.batched_frac": 0.0,
            "sim.escape_l1_miss": 0,
            "sim.escape_fault": 0,
            "sim.escape_bailout": 0,
            "paging.walks": 0,
            "paging.walk_refs": 0,
            "cache.llc_hit_ratio": 0.0,
        }


#: The paper hardware's huge-page TLB (Haswell: 32-entry L1 + L2 share),
#: as ``repro.sim.bench`` models it for its GUPS scenario.
PAPER_HUGE_TLB = TlbConfig(l1_huge_entries=32, l1_huge_ways=4, l2_huge_entries=64, l2_huge_ways=8)

WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            "replicated-walks", "xsbench", "F-A+M", n_sockets=4, footprint_mib=64,
            accesses_per_thread=10_000,
        ),
        EngineWorkload(
            "swap-churn", "redis", "F+M", n_sockets=2, footprint_mib=48,
            accesses_per_thread=25_000, reclaim_pages=2048,
        ),
        EngineWorkload(
            "hugepage-hits", "gups", "F", n_sockets=4, footprint_mib=64,
            accesses_per_thread=2_000_000, thp=True, tlb=PAPER_HUGE_TLB,
        ),
        ChurnWorkload(
            "vma-churn", n_sockets=4, resident_mib=64,
            round_mib=(2, 2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 6),
        ),
    )
}
