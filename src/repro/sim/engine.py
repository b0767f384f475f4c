"""The execution engine: drives address streams through the memory system.

For every access the engine models the full translation stack the paper
reasons about:

1. per-core two-level TLB lookup — hit means no walk at all;
2. on a miss, the paging-structure caches pick the deepest walk starting
   point (usually: straight to the leaf PTE);
3. the hardware walker fetches one PTE cache-line per remaining level; each
   fetch probes the socket's LLC and, on a miss, pays the DRAM latency of
   whichever NUMA node holds that page-table page — *this* is where
   page-table placement becomes walk cycles;
4. the data access itself pays its own locality-dependent cost.

Latency is divided by the workload's memory-level parallelism (overlapped
misses), the bandwidth term is not; interference inflates both for hogged
nodes (see :mod:`repro.machine.latency`).

Two interpreter tiers produce **bit-identical** metrics (the differential
contract of docs/performance.md, enforced by
``tests/sim/test_engine_equivalence.py``):

* ``scalar`` — the reference per-access loop (:class:`_ThreadExecution`);
* ``vector`` (default) — a numpy fast path that resolves *runs* of
  guaranteed L1-TLB hits in bulk, validated in O(1) against
  :meth:`TlbHierarchy.fastpath_token` (whose generation half is bumped by
  every shootdown/invalidation path). Everything the hit mask cannot
  cover — the walk/fault/trace *escape classes* of docs/performance.md —
  runs on the batched escape interpreter (:mod:`repro.sim.escape`):
  inlined TLB probes and TLB-miss path (PSC probe, LLC probes, PSC and
  TLB fills), the allocation-free walker batch entry point,
  fault-partitioned spans, and a deferred structure-of-arrays trace
  flush that reproduces the scalar tier's record stream exactly.

Select with ``EngineConfig(engine=...)`` or ``REPRO_ENGINE=scalar|vector``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cache.llc import SocketLlc
from repro.errors import TopologyError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.latency import cost_table
from repro.paging.walker import HardwareWalker
from repro.sim.escape import EscapeRunner
from repro.sim.metrics import RunMetrics, ThreadMetrics
from repro.tlb.mmu_cache import MmuCacheConfig, MmuCaches
from repro.tlb.tlb import Tlb, TlbConfig, TlbHierarchy
from repro.trace.session import current_session
from repro.units import HUGE_PAGE_SHIFT, KIB, PAGE_SHIFT

#: Engine names accepted by ``EngineConfig.engine`` / ``REPRO_ENGINE``.
ENGINES: tuple[str, ...] = ("scalar", "vector")

#: Accesses covered by one batch mask (one ``np.isin`` over the chunk).
#: Chunks start small and double up to the cap: a mask built over a cold
#: TLB is all-escapes, so short early chunks let the mask catch up with
#: warmup fills quickly, while steady state pays one mask per 2048.
_CHUNK_MIN = 256
_CHUNK = 2048
#: Below this run length the per-run numpy overhead exceeds scalar cost.
_MIN_RUN = 32
#: Deterministic bail-out: after this many accesses of a slice, if fewer
#: than 1/4 were batchable the rest of the slice runs on the escape
#: interpreter without further mask-building (must span at least two
#: chunks so the post-warmup mask gets a chance).
_ADAPT_PROBE = 2 * _CHUNK
#: After a snapshot rebuild, stale-token transitions keep escaping for
#: this many accesses instead of rebuilding again: near TLB capacity
#: every walk evicts (bumping the token), and a rebuild per eviction
#: costs far more than a few conservative escape-side accesses.
_REBUILD_COOLDOWN = 64

@dataclass
class EngineConfig:
    """Tunables of one simulation run.

    ``pt_llc_bytes`` is the LLC capacity *visible to page-table lines* —
    scaled with the footprint scale-down exactly as DESIGN.md describes (a
    35 MiB LLC holds a vanishing fraction of a 0.5 TB working set's leaf
    PTEs; 16 KiB preserves that regime at 128 MiB footprints while still
    letting the tiny 2 MiB-page leaf level fit, reproducing §8.2).
    """

    accesses_per_thread: int = 40_000
    pt_llc_bytes: int = 16 * KIB
    llc_hit_cycles: float = 40.0
    #: Concurrent hardware page walkers per core: even workloads with high
    #: memory-level parallelism can only overlap this many walks, which is
    #: why remote page-tables can hurt *more* than remote data (§3.2
    #: observation 4).
    page_walkers: int = 2
    tlb: TlbConfig = field(default_factory=TlbConfig)
    mmu: MmuCacheConfig = field(default_factory=MmuCacheConfig)
    #: AutoNUMA: number of balance passes spread through the run (0 = off).
    autonuma_epochs: int = 0
    #: Sample 1 in N accesses for AutoNUMA hinting.
    autonuma_sample: int = 64
    #: Split the run into this many epochs even without AutoNUMA (enables
    #: the epoch callback below; 0 = single epoch).
    epochs: int = 0
    #: Invoked between epochs with (epoch_index, metrics_so_far) — the hook
    #: the §6.1 counter-driven policy daemon observes runs through.
    epoch_callback: "Callable[[int, RunMetrics], None] | None" = None
    seed: int = 7
    #: Interpreter tier: "vector" (batched fast path) or "scalar" (the
    #: reference per-access loop). ``None`` defers to the ``REPRO_ENGINE``
    #: environment variable, then to "vector". Both tiers produce
    #: bit-identical metrics (docs/performance.md).
    engine: str | None = None


def _chain_sum(carry: float, costs: np.ndarray) -> float:
    """Left-to-right IEEE-754 sum of ``carry + costs[0] + costs[1] + ...``.

    ``np.add.accumulate`` applies the ufunc strictly sequentially (unlike
    ``np.sum``, which uses pairwise summation and rounds differently), so
    this reproduces the scalar loop's running ``+=`` bit-for-bit — the
    keystone of the engines' float-equality contract.
    """
    buffer = np.empty(costs.size + 1, dtype=np.float64)
    buffer[0] = carry
    buffer[1:] = costs
    return float(np.add.accumulate(buffer)[-1])


def _replay_promotions(structure: Tlb, vpns: np.ndarray) -> None:
    """Replay the LRU effect of a batched run of hits on one TLB structure.

    The scalar loop promotes on every hit; the final per-set LRU order
    after a run only depends on each vpn's *last* access, so promoting the
    unique vpns in ascending last-occurrence order leaves every set in the
    exact state the scalar loop would. (Unique count is bounded by L1
    capacity — at most ~72 entries — so the python loop is cheap.)
    """
    if not vpns.size:
        return
    # dict.fromkeys over the reversed run keeps first occurrences == last
    # accesses, in descending last-occurrence order, at C speed.
    unique_desc = dict.fromkeys(vpns[::-1].tolist())
    touch = structure.touch
    for vpn in reversed(unique_desc):
        touch(vpn)


#: Widest vpn span a dense residency LUT may cover (beyond it, fall back
#: to sort-based lookups; L1 reach is tiny, so this only trips on wildly
#: scattered mappings).
_LUT_SPAN_MAX = 1 << 18


class _ResidencyLut:
    """O(1)-per-element membership + node lookup over one page size's
    L1-resident vpns (one half of a batch-mask snapshot).

    Resident vpns cluster inside the workload's contiguous mapping, so a
    dense ``[vpn - base]``-indexed table beats ``np.isin``'s sort by a
    wide margin; a sorted-array fallback covers pathological spans.
    """

    __slots__ = ("base", "span", "resident", "nodes", "vpns_sorted", "nodes_sorted")

    def __init__(self, pairs: list[tuple[int, int]], frames_per_node: int):
        if not pairs:
            self.base = None
            return
        pairs.sort()
        arr = np.asarray(pairs, dtype=np.int64)
        vpns = np.ascontiguousarray(arr[:, 0])
        nodes = arr[:, 1] // frames_per_node
        span = int(vpns[-1] - vpns[0]) + 1
        if span <= _LUT_SPAN_MAX:
            self.base = int(vpns[0])
            self.span = span
            self.resident = np.zeros(span, dtype=bool)
            self.nodes = np.zeros(span, dtype=np.int64)
            offsets = vpns - self.base
            self.resident[offsets] = True
            self.nodes[offsets] = nodes
        else:
            self.base = -1
            self.vpns_sorted = vpns
            self.nodes_sorted = nodes

    def contains(self, vpns: np.ndarray) -> np.ndarray:
        """Boolean residency mask for a chunk of vpns."""
        if self.base is None:
            return np.zeros(vpns.size, dtype=bool)
        if self.base < 0:
            return np.isin(vpns, self.vpns_sorted)
        rel = vpns - self.base
        in_span = (rel >= 0) & (rel < self.span)
        if in_span.all():
            return self.resident[rel]
        mask = np.zeros(vpns.size, dtype=bool)
        mask[in_span] = self.resident[rel[in_span]]
        return mask

    def nodes_for(self, vpns: np.ndarray) -> np.ndarray:
        """Home node per vpn (every vpn must be resident)."""
        if self.base < 0:
            return self.nodes_sorted[np.searchsorted(self.vpns_sorted, vpns)]
        return self.nodes[vpns - self.base]


def _snapshot_luts(tlb: TlbHierarchy, frames_per_node: int):
    """Residency LUTs over every L1-resident translation:
    ``(token, lut_4k, lut_2m)``."""
    token, pairs_4k, pairs_2m = tlb.fastpath_snapshot()
    return (
        token,
        _ResidencyLut(pairs_4k, frames_per_node),
        _ResidencyLut(pairs_2m, frames_per_node),
    )


class _ThreadExecution:
    """Per-(thread, epoch-slice) state shared by both interpreter tiers.

    Owns the cost tables and the running accumulators; :meth:`run_span` is
    the reference scalar interpreter (with :meth:`walk_one` as its
    TLB-miss path), and the vector tier's :class:`repro.sim.escape
    .EscapeRunner` reads the same fields and folds into the same
    accumulators with access-for-access identical semantics. Accumulators
    fold strictly left-to-right per counter, which keeps the float totals
    identical no matter how a slice is partitioned into batches and
    escape spans.
    """

    def __init__(
        self,
        sim: "Simulator",
        process: Process,
        walker: HardwareWalker,
        context: tuple[TlbHierarchy, MmuCaches],
        llcs: dict[int, SocketLlc],
        socket: int,
        mlp: float,
        out: ThreadMetrics,
    ):
        kernel = sim.kernel
        config = sim.config
        # Precomputed cost tables: [node] -> cycles for this socket. Data
        # accesses overlap up to the workload's MLP; walks only up to the
        # core's page-walker count.
        walk_mlp = min(mlp, float(config.page_walkers))
        nodes = tuple(kernel.machine.node_ids())
        hogged = frozenset(kernel.contention.hogged_nodes)
        self.data_cost = cost_table(kernel.timings, socket, nodes, mlp, hogged)
        self.walk_cost = cost_table(kernel.timings, socket, nodes, walk_mlp, hogged)
        self.llc_hit_cost = config.llc_hit_cycles / mlp
        self.walk_llc_hit_cost = config.llc_hit_cycles / walk_mlp
        self.frames_per_node = sim._frames_per_node
        self.process = process
        self.walker = walker
        self.tlb, self.mmu = context
        self.llc = llcs[socket]
        self.registry = process.mm.tree.registry
        self.fault_handler = kernel.fault_handler
        self.allow_huge = kernel.sysctl.thp_enabled
        self.autonuma = kernel.autonuma if kernel.sysctl.autonuma_enabled else None
        self.sample_mask = config.autonuma_sample - 1
        self.socket = socket
        # Tracing: hoisted out of the loop so the disabled path costs one
        # local None-check per *walk* (never per access) — the
        # zero-overhead-when-disabled guarantee of docs/observability.md.
        self.session = current_session()
        self.track = 1 + out.thread
        self.data_cycles = 0.0
        self.walk_cycles = 0.0
        self.walks = 0
        self.walk_refs = 0
        self.walk_llc_hits = 0
        self.faults = 0
        self.fault_cycles = 0.0
        #: Guaranteed L1 hits handled escape-side for economic reasons
        #: (vector tier only; the scalar tier has no batcher to bail from).
        self.escape_bailout = 0
        # The L1-miss escape class is a hierarchy-counter delta: identical
        # between tiers because the batched runs replay hit counting
        # exactly, so the slice's miss total is a machine fact.
        self._l1_misses_start = self.tlb.totals.l1.misses

    def run_span(
        self,
        vas: list[int],
        writes: list[bool],
        hit_rolls: list[bool],
        pollution_rolls: list[bool],
        index_base: int = 0,
    ) -> None:
        """The reference per-access interpreter over one span of the slice.

        ``index_base`` keeps AutoNUMA's 1-in-N sampling positions aligned
        with the start of the epoch slice when the vector tier hands over
        a tail mid-slice.
        """
        tlb = self.tlb
        walk_one = self.walk_one
        data_cost = self.data_cost
        llc_hit_cost = self.llc_hit_cost
        frames_per_node = self.frames_per_node
        autonuma = self.autonuma
        sample_mask = self.sample_mask
        process = self.process
        socket = self.socket
        data_cycles = self.data_cycles
        for i, va in enumerate(vas):
            translation = tlb.lookup(va)
            if translation is None:
                translation = walk_one(va, writes[i], pollution_rolls[i])
            if hit_rolls[i]:
                data_cycles += llc_hit_cost
            else:
                data_cycles += data_cost[translation.pfn // frames_per_node]
            if autonuma is not None and ((index_base + i) & sample_mask) == 0:
                autonuma.record_access(process, va, socket)
        self.data_cycles = data_cycles

    def walk_one(self, va: int, is_write: bool, polluted: bool):
        """Full TLB-miss path: MMU-cache probe, hardware walk (servicing a
        demand fault if needed), one LLC probe per fetched level, fills."""
        self.walks += 1
        mmu = self.mmu
        walker = self.walker
        socket = self.socket
        start = mmu.lookup(va)
        result = walker.walk(va, socket, is_write, start=start)
        faulted = result.faulted
        if faulted:
            fr = self.fault_handler.handle(
                self.process,
                va,
                socket,
                is_write=is_write,
                allow_huge=self.allow_huge,
            )
            self.faults += 1
            self.fault_cycles += fr.work.cycles() + fr.io_cycles
            result = walker.walk(va, socket, is_write)
            assert result.translation is not None
        accesses = result.accesses
        leaf_access = accesses[-1]
        llc_access = self.llc.access
        walk_cost = self.walk_cost
        walk_llc_hit_cost = self.walk_llc_hit_cost
        registry = self.registry
        walk_cycles = self.walk_cycles
        walk_llc_hits = self.walk_llc_hits
        session = self.session
        if session is None:
            for access in accesses:
                hit = llc_access(access.line_addr)
                if hit and access is leaf_access and polluted:
                    # Data traffic evicted this leaf PTE line since the
                    # last walk that used it (shared-LLC contention).
                    hit = False
                if hit:
                    walk_llc_hits += 1
                    walk_cycles += walk_llc_hit_cost
                else:
                    walk_cycles += walk_cost[access.node]
                if access.level > 1:
                    mmu.insert(va, registry[access.pfn])
            self.walk_cycles = walk_cycles
            self.walk_llc_hits = walk_llc_hits
            translation = result.translation
            self.tlb.insert(va, translation)
        else:
            walk_start = walk_cycles
            level_records = []
            record = level_records.append
            for access in accesses:
                hit = llc_access(access.line_addr)
                if hit and access is leaf_access and polluted:
                    hit = False
                if hit:
                    walk_llc_hits += 1
                    cost = walk_llc_hit_cost
                else:
                    cost = walk_cost[access.node]
                walk_cycles += cost
                record((access.level, access.node, hit, cost))
                if access.level > 1:
                    mmu.insert(va, registry[access.pfn])
            self.walk_cycles = walk_cycles
            self.walk_llc_hits = walk_llc_hits
            translation = result.translation
            self.tlb.insert(va, translation)
            dur = walk_cycles - walk_start
            session.observe("walker.walk_cycles", dur)
            session.complete(
                "walk",
                category="walker",
                dur=dur,
                track=self.track,
                va=va,
                socket=socket,
                faulted=faulted,
                levels=[
                    {
                        "level": level,
                        "node": node,
                        "remote": node != socket,
                        "llc_hit": hit,
                        "cycles": round(cost, 1),
                    }
                    for level, node, hit, cost in level_records
                ],
            )
        self.walk_refs += len(accesses)
        return translation

    def finish(self, out: ThreadMetrics, n_accesses: int) -> None:
        """Fold this slice's accumulators into the thread metrics."""
        out.accesses += n_accesses
        out.data_cycles += self.data_cycles
        out.walk_cycles += self.walk_cycles
        out.fault_cycles += self.fault_cycles
        out.tlb_walks += self.walks
        out.tlb_lookups += n_accesses
        out.faults += self.faults
        out.walk_memory_refs += self.walk_refs
        out.walk_llc_hits += self.walk_llc_hits
        out.escape_l1_miss += self.tlb.totals.l1.misses - self._l1_misses_start
        out.escape_fault += self.faults
        out.escape_trace += self.walks if self.session is not None else 0
        out.escape_bailout += self.escape_bailout


class Simulator:
    """Runs workload streams against one kernel."""

    def __init__(self, kernel: Kernel, config: EngineConfig | None = None):
        self.kernel = kernel
        self.config = config or EngineConfig()
        engine = self.config.engine or os.environ.get("REPRO_ENGINE") or "vector"
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {', '.join(ENGINES)} "
                "(EngineConfig.engine or REPRO_ENGINE)"
            )
        self.engine = engine
        machine = kernel.machine
        # Homogeneous PFN partition -> O(1) node-of-pfn.
        self._frames_per_node = machine.sockets[0].memory_bytes // 4096
        for socket in machine.sockets:
            if socket.memory_bytes // 4096 != self._frames_per_node:
                raise TopologyError(
                    "engine fast path assumes homogeneous nodes: socket "
                    f"{socket.socket_id} has {socket.memory_bytes} bytes, "
                    f"expected {self._frames_per_node * 4096}"
                )

    def run(
        self,
        process: Process,
        workload,
        thread_sockets: list[int],
        va_base: int,
    ) -> RunMetrics:
        """Simulate ``workload`` on ``process`` with one thread per entry of
        ``thread_sockets``, accessing the mapping at ``va_base``.

        The VMA must already exist (see :class:`repro.sim.scenario` for
        population/placement); demand faults raised mid-run are serviced and
        charged to ``fault_cycles``.
        """
        config = self.config
        kernel = self.kernel
        metrics = RunMetrics()
        n_threads = len(thread_sockets)
        autonuma_on = kernel.sysctl.autonuma_enabled and config.autonuma_epochs > 0
        epochs = max(1, config.epochs, config.autonuma_epochs if autonuma_on else 0)

        # Per-socket LLCs (page-table lines), shared by threads on a socket.
        # The workload's data traffic competes for the same ways: on each
        # walk, the leaf PTE line has been evicted since its last use with
        # probability pt_llc_pressure. This is what lets Redis/Canneal lose
        # their page-table lines even with 2 MiB pages while GUPS keeps its
        # tiny, hot leaf level resident (the §8.2 analysis behind Fig. 10b).
        llcs = {
            node: SocketLlc(config.pt_llc_bytes, name=f"llc{node}")
            for node in kernel.machine.node_ids()
        }
        # Per-thread translation hardware, registered for shootdowns.
        kernel.cpu_contexts.clear()
        contexts = []
        for _ in range(n_threads):
            context = (TlbHierarchy(config.tlb), MmuCaches(config.mmu))
            contexts.append(context)
            kernel.cpu_contexts.append(context)

        walker = HardwareWalker(process.mm.tree)
        session = current_session()
        # Streams stay numpy end-to-end; the scalar tier converts its span
        # to python lists at the edge (list iteration is faster there).
        streams = []
        for t, socket in enumerate(thread_sockets):
            kernel.scheduler.context_switch(process, socket)
            offsets = workload.offsets(t, n_threads, config.accesses_per_thread)
            writes = workload.writes(t, config.accesses_per_thread)
            vas = np.asarray(offsets, dtype=np.int64) + va_base
            streams.append((vas, np.asarray(writes)))
            metrics.threads.append(ThreadMetrics(thread=t, socket=socket))
            if session is not None:
                session.name_track(1 + t, f"thread-{t} (socket {socket})")

        hit_rate = workload.profile.data_llc_hit_rate
        pressure = workload.profile.pt_llc_pressure
        rng = np.random.default_rng(config.seed)
        rolls = [
            rng.random(config.accesses_per_thread) < hit_rate
            for _ in range(n_threads)
        ]
        pollution = [
            rng.random(config.accesses_per_thread) < pressure
            for _ in range(n_threads)
        ]

        run_thread = self._run_thread if self.engine == "scalar" else self._run_thread_vector
        per_epoch = config.accesses_per_thread // epochs
        for epoch in range(epochs):
            lo = epoch * per_epoch
            hi = config.accesses_per_thread if epoch == epochs - 1 else lo + per_epoch
            if session is not None:
                session.instant("epoch", category="engine", epoch=epoch)
            for t, socket in enumerate(thread_sockets):
                vas, writes = streams[t]
                run_thread(
                    process,
                    walker,
                    contexts[t],
                    llcs,
                    socket,
                    vas[lo:hi],
                    writes[lo:hi],
                    rolls[t][lo:hi],
                    pollution[t][lo:hi],
                    workload.profile.mlp,
                    metrics.threads[t],
                )
            if autonuma_on and epoch < epochs - 1:
                work = kernel.autonuma.balance(process)
                metrics.overhead_cycles += work.cycles()
                metrics.overhead_cycles += kernel.shootdown.flush_all(kernel.cpu_contexts)
            if config.epoch_callback is not None and epoch < epochs - 1:
                self._sync_robustness(metrics)
                config.epoch_callback(epoch, metrics)
        self._sync_robustness(metrics)
        if session is not None:
            self._publish_trace(session, contexts, llcs, metrics)
        return metrics

    def _publish_trace(self, session, contexts, llcs, metrics: RunMetrics) -> None:
        """Flush the translation hardware's hit/miss/evict counters and
        the finished run's perf-counter view into the trace session, so
        one registry holds the whole run (docs/observability.md)."""
        from repro.trace.integrate import publish_run_metrics

        registry = session.metrics
        for tlb, mmu in contexts:
            registry.count("tlb.l1.hits", tlb.totals.l1.hits)
            registry.count("tlb.l1.misses", tlb.totals.l1.misses)
            registry.count("tlb.l2.hits", tlb.totals.l2.hits)
            registry.count("tlb.l2.misses", tlb.totals.l2.misses)
            registry.count("tlb.walks", tlb.totals.walks)
            for structure in (tlb.l1_4k, tlb.l1_2m, tlb.l2_4k, tlb.l2_2m):
                registry.count("tlb.evictions", structure.stats.evictions)
            registry.count("mmu_cache.lookups", mmu.stats.lookups)
            registry.count("mmu_cache.hits", mmu.stats.hits)
            registry.count("mmu_cache.evictions", mmu.stats.evictions)
        for node in sorted(llcs):
            registry.count("llc.pt_hits", llcs[node].stats.hits)
            registry.count("llc.pt_misses", llcs[node].stats.misses)
        publish_run_metrics(session, metrics)

    def _sync_robustness(self, metrics: RunMetrics) -> None:
        """Mirror the kernel's fault-injection and resilience counters into
        the run metrics (absolute values — idempotent)."""
        kernel = self.kernel
        plan = getattr(kernel, "fault_plan", None)
        if plan is not None:
            metrics.faults_injected = plan.stats.total
        resilience = getattr(kernel, "resilience", None)
        if resilience is not None:
            metrics.degradations = resilience.degradations
            metrics.retries = resilience.retries
            metrics.recoveries = resilience.recoveries

    # -- scalar tier ------------------------------------------------------------

    def _run_thread(
        self,
        process: Process,
        walker: HardwareWalker,
        context: tuple[TlbHierarchy, MmuCaches],
        llcs: dict[int, SocketLlc],
        socket: int,
        vas: np.ndarray,
        writes: np.ndarray,
        hit_rolls: np.ndarray,
        pollution_rolls: np.ndarray,
        mlp: float,
        out: ThreadMetrics,
    ) -> None:
        """Reference tier: the per-access interpreter over the whole slice."""
        ex = _ThreadExecution(self, process, walker, context, llcs, socket, mlp, out)
        ex.run_span(
            vas.tolist(), writes.tolist(), hit_rolls.tolist(), pollution_rolls.tolist()
        )
        ex.finish(out, int(vas.size))

    # -- vector tier ------------------------------------------------------------

    def _run_thread_vector(
        self,
        process: Process,
        walker: HardwareWalker,
        context: tuple[TlbHierarchy, MmuCaches],
        llcs: dict[int, SocketLlc],
        socket: int,
        vas: np.ndarray,
        writes: np.ndarray,
        hit_rolls: np.ndarray,
        pollution_rolls: np.ndarray,
        mlp: float,
        out: ThreadMetrics,
    ) -> None:
        """Batch tier: resolve runs of guaranteed L1-TLB hits in bulk.

        A *run* is a maximal stretch of accesses whose pages were all
        L1-resident when the batch mask was built. During a run of hits
        the TLB performs no fills or evictions, so residency at run start
        guarantees every access in it hits — the bulk replay (stats adds,
        last-occurrence LRU promotions, ``_chain_sum`` cost folding)
        reproduces the scalar tier's state transitions exactly.

        Everything else — misses, short runs, cooldown stretches, the
        post-bail-out tail — is handed to the batched escape interpreter
        (:class:`EscapeRunner`) in maximal *spans* rather than one access
        at a time: the mask is fixed while a span runs (escapes never
        un-stale a token or flip mask bits from miss to hit), so span
        boundaries land exactly where the per-access loop's would. Faults
        partition a span inside the runner; trace records buffer and
        flush post-span with identical timestamps. Masks are revalidated
        against ``fastpath_token()`` before every batched run, so a
        shootdown / replication change / migration (which bump the TLB
        generation) forces a re-resolve and a stale batched translation
        is impossible.
        """
        ex = _ThreadExecution(self, process, walker, context, llcs, socket, mlp, out)
        n = int(vas.size)
        if n == 0:
            ex.finish(out, 0)
            return
        tlb = ex.tlb
        vpn4 = vas >> PAGE_SHIFT
        vpn2 = vas >> HUGE_PAGE_SHIFT
        data_cost_arr = np.asarray(ex.data_cost, dtype=np.float64)
        autonuma = ex.autonuma
        sample_mask = ex.sample_mask
        l1_4k = tlb.l1_4k
        l1_2m = tlb.l1_2m
        totals_l1 = tlb.totals.l1
        escape = EscapeRunner(ex)

        snap_token: tuple[int, int] | None = None
        snap_walks = -1
        lut_4k: _ResidencyLut | None = None
        lut_2m: _ResidencyLut | None = None
        mask_4k: np.ndarray | None = None
        ok: np.ndarray | None = None
        # Chunk-local python lists for escape spans, built lazily on the
        # first escape within a chunk (all-hit steady-state chunks never
        # pay the conversion).
        chunk_lists: tuple[list, list, list, list] | None = None
        chunk_lo = 0
        chunk_hi = 0
        chunk_size = _CHUNK_MIN
        fast = 0
        cooldown = 0
        i = 0
        while i < n:
            if i >= chunk_hi:
                ok = None
            elif ok is not None and ok[i - chunk_lo] and tlb.fastpath_token() != snap_token:
                # An escape evicted or invalidated entries after this mask
                # was built; it can no longer be trusted for batching.
                if i < cooldown:
                    # Recently rebuilt: run the (always sound) escape
                    # interpreter to the cooldown horizon rather than
                    # rebuilding on every eviction. One span is exact:
                    # the token stays stale (it never un-stales), so
                    # every access up to the horizon escapes anyway.
                    stop = min(cooldown, chunk_hi)
                    if chunk_lists is None:
                        chunk_lists = (
                            vas[chunk_lo:chunk_hi].tolist(),
                            writes[chunk_lo:chunk_hi].tolist(),
                            hit_rolls[chunk_lo:chunk_hi].tolist(),
                            pollution_rolls[chunk_lo:chunk_hi].tolist(),
                        )
                    escape.run(*chunk_lists, i - chunk_lo, stop - chunk_lo, chunk_lo)
                    i = stop
                    continue
                ok = None
            if ok is None:
                # Deterministic economics, checked before every rebuild:
                # when batching is not paying off (miss-heavy slice, or
                # hits too scattered to form batchable runs), hand the
                # rest to the escape interpreter in one span.
                if i >= _ADAPT_PROBE and fast * 4 < i:
                    break
                if tlb.fastpath_token() != snap_token or ex.walks != snap_walks:
                    snap_token, lut_4k, lut_2m = _snapshot_luts(tlb, ex.frames_per_node)
                    snap_walks = ex.walks
                    cooldown = i + _REBUILD_COOLDOWN
                chunk_lo = i
                chunk_hi = min(i + chunk_size, n)
                chunk_size = min(chunk_size * 2, _CHUNK)
                mask_4k = lut_4k.contains(vpn4[chunk_lo:chunk_hi])
                ok = mask_4k | lut_2m.contains(vpn2[chunk_lo:chunk_hi])
                chunk_lists = None
            rel = i - chunk_lo
            if not ok[rel]:
                # A maximal run of will-miss accesses: one escape span.
                stops = np.flatnonzero(ok[rel:])
                k = int(stops[0]) if stops.size else int(ok.size) - rel
                if chunk_lists is None:
                    chunk_lists = (
                        vas[chunk_lo:chunk_hi].tolist(),
                        writes[chunk_lo:chunk_hi].tolist(),
                        hit_rolls[chunk_lo:chunk_hi].tolist(),
                        pollution_rolls[chunk_lo:chunk_hi].tolist(),
                    )
                escape.run(*chunk_lists, rel, rel + k, chunk_lo)
                i += k
                continue
            stops = np.flatnonzero(~ok[rel:])
            k = int(stops[0]) if stops.size else int(ok.size) - rel
            if k < _MIN_RUN:
                # Guaranteed hits, but too short for numpy to pay off.
                # Deliberately not counted as fast progress: a slice made
                # of short scattered runs loses to mask-rebuild overhead
                # and should bail out of mask-building entirely.
                if chunk_lists is None:
                    chunk_lists = (
                        vas[chunk_lo:chunk_hi].tolist(),
                        writes[chunk_lo:chunk_hi].tolist(),
                        hit_rolls[chunk_lo:chunk_hi].tolist(),
                        pollution_rolls[chunk_lo:chunk_hi].tolist(),
                    )
                escape.run(*chunk_lists, rel, rel + k, chunk_lo)
                i += k
                continue
            fast += k
            # ---- batched run of k guaranteed L1 hits ------------------------
            seg4 = mask_4k[rel:rel + k]
            run4 = vpn4[i:i + k]
            run2 = vpn2[i:i + k]
            n4k = int(np.count_nonzero(seg4))
            n2m = k - n4k
            # Hierarchy counters, exactly as k scalar lookups would count
            # them (a 2 MiB hit first misses the 4 KiB L1 structure).
            totals_l1.hits += k
            l1_4k.stats.hits += n4k
            if n2m:
                l1_4k.stats.misses += n2m
                l1_2m.stats.hits += n2m
            if n2m == 0:
                node_idx = lut_4k.nodes_for(run4)
                _replay_promotions(l1_4k, run4)
            elif n4k == 0:
                node_idx = lut_2m.nodes_for(run2)
                _replay_promotions(l1_2m, run2)
            else:
                inv = ~seg4
                node_idx = np.empty(k, dtype=np.int64)
                node_idx[seg4] = lut_4k.nodes_for(run4[seg4])
                node_idx[inv] = lut_2m.nodes_for(run2[inv])
                _replay_promotions(l1_4k, run4[seg4])
                _replay_promotions(l1_2m, run2[inv])
            costs = np.where(hit_rolls[i:i + k], ex.llc_hit_cost, data_cost_arr[node_idx])
            ex.data_cycles = _chain_sum(ex.data_cycles, costs)
            if autonuma is not None:
                sampled = np.flatnonzero((np.arange(i, i + k) & sample_mask) == 0)
                for offset in sampled:
                    p = i + int(offset)
                    autonuma.record_access(process, int(vas[p]), socket)
            i += k
        if i < n:
            # Adaptive bail-out: escape interpreter for the whole tail.
            escape.run(
                vas[i:].tolist(), writes[i:].tolist(),
                hit_rolls[i:].tolist(), pollution_rolls[i:].tolist(),
                0, n - i, i,
            )
        escape.close()
        ex.finish(out, n)
