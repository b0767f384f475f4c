"""Differential equivalence: the vector tier is the scalar tier, faster.

The engine contract (docs/performance.md) is *bit-identical* metrics:
every integer counter exact, every cycle sum float-equal, across
workloads, machine sizes, seeds, THP, AutoNUMA, replication, migration,
fault injection and tracing. These tests run both tiers on fresh,
identically-built scenarios and compare the full metrics surface.
"""

from __future__ import annotations

from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.cache.llc import SocketLlc
from repro.inject.plan import FaultPlan, install_fault_plan
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.sim.bench import RUN_FIELDS, THREAD_FIELDS
from repro.sim.engine import EngineConfig, Simulator, _chain_sum
from repro.sim.scenario import run_migration, run_multisocket, setup_migration, setup_multisocket
from repro.tlb.mmu_cache import MmuCacheConfig
from repro.tlb.tlb import TlbConfig
from repro.trace.session import TraceSession, start_tracing, stop_tracing
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.workloads.base import Workload, WorkloadProfile

FOOTPRINT = 16 * MIB


def assert_metrics_identical(scalar, vector):
    """Full-surface equality with a field-precise failure message."""
    assert len(scalar.threads) == len(vector.threads)
    for ts, tv in zip(scalar.threads, vector.threads):
        for name in THREAD_FIELDS:
            assert getattr(ts, name) == getattr(tv, name), (
                f"thread {ts.thread}: {name} scalar={getattr(ts, name)!r} "
                f"vector={getattr(tv, name)!r}"
            )
    for name in RUN_FIELDS:
        assert getattr(scalar, name) == getattr(vector, name), (
            f"run: {name} scalar={getattr(scalar, name)!r} "
            f"vector={getattr(vector, name)!r}"
        )


def engine_config(engine, **kwargs):
    kwargs.setdefault("accesses_per_thread", 2500)
    return EngineConfig(engine=engine, **kwargs)


def run_setup(setup, config):
    sim = Simulator(setup.kernel, config)
    sockets = [t.socket for t in setup.process.threads]
    return sim.run(setup.process, setup.workload, sockets, setup.va_base)


class TestMatrix:
    """3 workloads x 2 machine presets x 2 seeds (acceptance matrix)."""

    @pytest.mark.parametrize("workload", ["gups", "redis", "memcached"])
    @pytest.mark.parametrize("n_sockets", [2, 4])
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_multisocket(self, workload, n_sockets, seed):
        results = {
            engine: run_multisocket(
                workload, "F", footprint=FOOTPRINT, n_sockets=n_sockets,
                engine=engine_config(engine), seed=seed,
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)


class TestConfigurations:
    """The placement/feature axes beyond the plain matrix."""

    def test_thp_with_replication(self):
        results = {
            engine: run_multisocket(
                "gups", "F+M", thp=True, footprint=FOOTPRINT, n_sockets=2,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)

    def test_autonuma_sampling(self):
        results = {
            engine: run_multisocket(
                "memcached", "F-A", footprint=FOOTPRINT, n_sockets=2,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)

    def test_interleave(self):
        results = {
            engine: run_multisocket(
                "stream", "I", footprint=FOOTPRINT, n_sockets=2,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)

    def test_migration_with_interference(self):
        results = {
            engine: run_migration(
                "gups", "RPI-LD", mitosis=True, footprint=FOOTPRINT,
                engine=engine_config(engine),
            )
            for engine in ("scalar", "vector")
        }
        assert_metrics_identical(results["scalar"].metrics, results["vector"].metrics)


class TestFaultInjection:
    def _run(self, engine):
        setup = setup_migration("redis", "LP-RD", footprint=FOOTPRINT)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        return run_setup(setup, engine_config(engine))

    def test_major_faults_with_injected_stalls(self):
        scalar = self._run("scalar")
        vector = self._run("vector")
        # The scenario must actually exercise the fault path.
        assert scalar.faults_injected > 0
        assert sum(t.faults for t in scalar.threads) > 0
        assert_metrics_identical(scalar, vector)


class TestTracing:
    def _run(self, engine):
        setup = setup_multisocket("memcached", "F", footprint=FOOTPRINT, n_sockets=2)
        session = start_tracing(TraceSession(sinks=()))
        try:
            metrics = run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        return metrics, session

    def test_traced_runs_match_metrics_and_counters(self):
        scalar, scalar_session = self._run("scalar")
        vector, vector_session = self._run("vector")
        assert_metrics_identical(scalar, vector)
        # The observability surface must agree too: same counter values
        # (walk spans, eviction counts, ...) from both tiers. The single
        # exception is the bail-out diagnostic — it counts the vector
        # tier's *scheduling* decisions (hits ceded to the escape
        # interpreter), not machine state, and is 0 on the scalar tier.
        scalar_counters = dict(scalar_session.metrics.counters)
        vector_counters = dict(vector_session.metrics.counters)
        assert scalar_counters.pop("perf.engine.escape_bailout") == 0
        assert vector_counters.pop("perf.engine.escape_bailout") >= 0
        assert scalar_counters == vector_counters
        assert scalar_counters  # non-trivial session


class TestCombinedEscapeMatrix:
    """The batched-escape acceptance cells: every escape class at once.

    Faults (working set partly swapped + seeded stall plan), a live
    TraceSession, and replication/migration in the same run — the
    configurations that used to force the vector tier fully scalar and
    now run on the batched escape interpreter. Metrics must stay
    bit-identical."""

    def _run_replicated(self, engine):
        setup = setup_multisocket("redis", "F+M", footprint=FOOTPRINT, n_sockets=2)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        session = start_tracing(TraceSession(sinks=()))
        try:
            metrics = run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        return metrics, session

    def _run_migrated(self, engine):
        setup = setup_migration("redis", "LP-RD", mitosis=True, footprint=FOOTPRINT)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        session = start_tracing(TraceSession(sinks=()))
        try:
            metrics = run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        return metrics, session

    def test_faults_tracing_replication_combined(self):
        scalar, _ = self._run_replicated("scalar")
        vector, _ = self._run_replicated("vector")
        # All three escape classes must actually fire in this cell.
        assert sum(t.faults for t in scalar.threads) > 0
        assert scalar.faults_injected > 0
        assert scalar.escape_counts["trace"] > 0
        assert_metrics_identical(scalar, vector)

    def test_faults_tracing_migration_combined(self):
        scalar, _ = self._run_migrated("scalar")
        vector, _ = self._run_migrated("vector")
        assert sum(t.faults for t in scalar.threads) > 0
        assert_metrics_identical(scalar, vector)


def machine_state(kernel, llcs) -> dict:
    """Every piece of translation-hardware state a run leaves behind.

    Per core: each TLB structure's sets (keys in LRU order, with their
    translations) and stats, the hierarchy totals, the generation, the
    translation-cache records (in insertion order), each PSC level's tags
    in LRU order with the table PFNs they point at, and the PSC stats.
    Per socket: the LLC's page-table lines in LRU order and its stats.
    """
    cores = []
    for tlb, mmu in kernel.cpu_contexts:
        cores.append({
            "tlb": {
                structure.name: (
                    [list(entry_set.items()) for entry_set in structure._sets],
                    astuple(structure.stats),
                )
                for structure in (tlb.l1_4k, tlb.l1_2m, tlb.l2_4k, tlb.l2_2m)
            },
            "totals": (astuple(tlb.totals.l1), astuple(tlb.totals.l2), tlb.totals.walks),
            "generation": tlb.generation,
            "xlate_4k": list(tlb._xlate_4k.items()),
            "xlate_2m": list(tlb._xlate_2m.items()),
            "psc": [
                (level, [(tag, page.pfn) for tag, page in cache.items()])
                for level, cache, _shift in mmu.probe_plan
            ],
            "psc_stats": (
                mmu.stats.lookups,
                list(mmu.stats.hits_at_level.items()),
                mmu.stats.evictions,
            ),
        })
    sockets = [(list(llc._lines), astuple(llc.stats)) for llc in llcs]
    return {"cores": cores, "llcs": sockets}


#: Geometries small enough that TLB sets and the page-table LLC run at
#: capacity. The PSC evicts too once a hot set spans more 1 GiB windows
#: than it has level-2 entries (``_sparse_setup``).
TINY_TLB = TlbConfig(
    l1_entries=8, l1_ways=2, l1_huge_entries=2, l1_huge_ways=2,
    l2_entries=32, l2_ways=4, l2_huge_entries=4, l2_huge_ways=2,
)
TINY_PSC = MmuCacheConfig(entries_per_level={1: 2, 2: 2, 3: 1})
TINY_LLC = 2 * KIB


class _SparseWorkload(Workload):
    """A hot set of 48 pages scattered over a 4 GiB mapping."""

    profile = WorkloadProfile(
        name="sparse", description="scattered hot set", mlp=2.0,
        data_llc_hit_rate=0.3, pt_llc_pressure=0.2, write_fraction=0.3,
    )

    def offsets(self, thread, n_threads, count):
        rng = self.rng(thread)
        hot = rng.integers(0, self.n_pages, size=48, dtype=np.int64)
        return hot[rng.integers(0, hot.size, size=count)] * PAGE_SIZE


def _sparse_setup():
    """A replicated two-socket process whose pages are demand-faulted
    during the run, spread over four 1 GiB PSC windows."""
    machine = Machine.homogeneous(2, cores_per_socket=2, memory_per_socket=64 * MIB)
    kernel = Kernel(machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
    process = kernel.create_process("sparse", socket=0)
    process.add_thread(1)
    workload = _SparseWorkload(footprint=4 * GIB, seed=3)
    va_base = kernel.sys_mmap(process, workload.footprint, name="sparse").value
    kernel.mitosis.replicate_where_running(process)
    return SimpleNamespace(kernel=kernel, process=process, workload=workload, va_base=va_base)


class TestMachineStateIdentity:
    """Metrics equality can hide a slip in the inlined miss path (an LRU
    promotion out of order, a missed eviction count, a PSC fill at the
    wrong level). After identical scalar and vector runs, every TLB set,
    PSC level, translation-cache record and LLC line -- and their
    stats -- must be identical too."""

    def _run(self, engine, build, monkeypatch, traced=False, **config):
        llcs: list[SocketLlc] = []

        class RecordingLlc(SocketLlc):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                llcs.append(self)

        monkeypatch.setattr(engine_module, "SocketLlc", RecordingLlc)
        setup = build()
        session = start_tracing(TraceSession(sinks=())) if traced else None
        try:
            metrics = run_setup(setup, engine_config(engine, **config))
        finally:
            if session is not None:
                stop_tracing()
        return metrics, machine_state(setup.kernel, llcs)

    def _assert_identical(self, build, monkeypatch, traced=False, **config):
        scalar, scalar_state = self._run("scalar", build, monkeypatch, traced, **config)
        vector, vector_state = self._run("vector", build, monkeypatch, traced, **config)
        assert_metrics_identical(scalar, vector)
        assert scalar_state["llcs"] == vector_state["llcs"]
        assert len(scalar_state["cores"]) == len(vector_state["cores"])
        for core, (s, v) in enumerate(zip(scalar_state["cores"], vector_state["cores"])):
            for key in s:
                assert s[key] == v[key], f"core {core}: {key} differs"
        return scalar, scalar_state

    def test_tiny_geometries_force_evictions(self, monkeypatch):
        # AutoNUMA epochs flush every TLB in between, so later fills stamp
        # a non-zero generation into the translation-cache records.
        build = lambda: setup_multisocket("memcached", "F-A", footprint=FOOTPRINT, n_sockets=2)
        _, state = self._assert_identical(
            build, monkeypatch, tlb=TINY_TLB, mmu=TINY_PSC, pt_llc_bytes=TINY_LLC,
            autonuma_epochs=4,
        )
        core = state["cores"][0]
        assert core["generation"] > 0
        assert any(gen == core["generation"] for _pfn, gen in dict(core["xlate_4k"]).values())
        assert core["tlb"]["l1-4k"][1][2] > 0  # L1 evictions
        assert core["tlb"]["l2-4k"][1][2] > 0  # L2 evictions
        assert core["psc_stats"][1]  # PSC hits
        line_count = len(state["llcs"][0][0])
        assert line_count == TINY_LLC // 64  # LLC at capacity

    def test_sparse_mapping_evicts_psc(self, monkeypatch):
        # A 16 MiB footprint sits in one 1 GiB window, so one level-2 PSC
        # tag covers it; a hot set scattered over 4 GiB needs four.
        _, state = self._assert_identical(
            _sparse_setup, monkeypatch, tlb=TINY_TLB, mmu=TINY_PSC, pt_llc_bytes=TINY_LLC,
        )
        for core in state["cores"]:
            lookups, hits, evictions = core["psc_stats"]
            assert evictions > 0
            assert dict(hits)[2] > 0

    def test_thp_huge_structures(self, monkeypatch):
        build = lambda: setup_multisocket(
            "gups", "F+M", thp=True, footprint=FOOTPRINT, n_sockets=2
        )
        _, state = self._assert_identical(
            build, monkeypatch, tlb=TINY_TLB, mmu=TINY_PSC, pt_llc_bytes=TINY_LLC,
        )
        core = state["cores"][0]
        assert core["xlate_2m"]
        assert core["tlb"]["l1-2m"][1][2] > 0  # huge L1 evictions
        assert core["tlb"]["l2-2m"][1][2] > 0  # huge L2 evictions

    def test_swap_faults_with_stalls(self, monkeypatch):
        def build():
            setup = setup_migration("redis", "LP-RD", footprint=FOOTPRINT)
            plan = FaultPlan(seed=5)
            plan.swap_stall(probability=0.5)
            install_fault_plan(setup.kernel, plan)
            setup.kernel.swap.reclaim(setup.process, target_pages=256)
            return setup

        metrics, _ = self._assert_identical(
            build, monkeypatch, mmu=TINY_PSC, pt_llc_bytes=TINY_LLC,
        )
        assert sum(t.faults for t in metrics.threads) > 0
        assert metrics.faults_injected > 0

    def test_live_trace_session(self, monkeypatch):
        build = lambda: setup_multisocket("redis", "F+M", footprint=FOOTPRINT, n_sockets=2)
        metrics, _ = self._assert_identical(
            build, monkeypatch, traced=True, tlb=TINY_TLB, mmu=TINY_PSC,
            pt_llc_bytes=TINY_LLC,
        )
        assert metrics.escape_counts["trace"] > 0


class TestTraceStreamIdentity:
    """The deferred flush must be invisible: the vector tier's buffered
    walk spans have to land in the ring as the *same record sequence* —
    names, categories, payloads, virtual-clock timestamps and durations —
    the scalar tier emits inline (docs/observability.md)."""

    def _events(self, engine, build):
        setup = build()
        session = start_tracing(TraceSession(sinks=(), capacity=1 << 20))
        try:
            run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()
        assert session.dropped == 0
        return [event.to_dict() for event in session.events]

    def test_traced_walk_stream_identical(self):
        build = lambda: setup_multisocket(
            "memcached", "F", footprint=FOOTPRINT, n_sockets=2
        )
        scalar_events = self._events("scalar", build)
        vector_events = self._events("vector", build)
        assert any(e["name"] == "walk" for e in scalar_events)
        assert scalar_events == vector_events

    def test_stream_identical_with_faults_interleaved(self):
        """Fault instants fire mid-slice between walk spans; the flush-
        before-fault policy must reproduce the scalar interleaving."""

        def build():
            setup = setup_migration("redis", "LP-RD", footprint=FOOTPRINT)
            plan = FaultPlan(seed=5)
            plan.swap_stall(probability=0.5)
            install_fault_plan(setup.kernel, plan)
            setup.kernel.swap.reclaim(setup.process, target_pages=256)
            return setup

        scalar_events = self._events("scalar", build)
        vector_events = self._events("vector", build)
        assert any(e["name"] == "walk" for e in scalar_events)
        assert any(
            e["name"] == "fault" and e["cat"] == "inject" for e in scalar_events
        )
        assert scalar_events == vector_events

    def test_stream_identical_with_replication_epochs(self):
        def build():
            return setup_multisocket(
                "gups", "F+M", thp=True, footprint=FOOTPRINT, n_sockets=2
            )

        scalar_events = self._events("scalar", build)
        vector_events = self._events("vector", build)
        assert scalar_events == vector_events


class TestEscapeCounters:
    """Per-reason escape accounting (ThreadMetrics.escape_*): l1_miss /
    fault / trace are machine facts on the equivalence surface (checked
    field-by-field by every assert_metrics_identical above); bailout is
    the vector tier's scheduling diagnostic."""

    def _run(self, engine, traced=False):
        setup = setup_migration("redis", "LP-RD", footprint=FOOTPRINT)
        plan = FaultPlan(seed=5)
        plan.swap_stall(probability=0.5)
        install_fault_plan(setup.kernel, plan)
        setup.kernel.swap.reclaim(setup.process, target_pages=256)
        if not traced:
            return run_setup(setup, engine_config(engine))
        start_tracing(TraceSession(sinks=()))
        try:
            return run_setup(setup, engine_config(engine))
        finally:
            stop_tracing()

    def test_reason_counters_are_machine_facts(self):
        scalar = self._run("scalar")
        vector = self._run("vector")
        counts = scalar.escape_counts
        walks = sum(t.tlb_walks for t in scalar.threads)
        faults = sum(t.faults for t in scalar.threads)
        # Every walk is an L1 miss (and then some: L2 hits miss L1 too).
        assert counts["l1_miss"] >= walks > 0
        assert counts["fault"] == faults > 0
        assert counts["trace"] == 0  # untraced run
        assert counts["bailout"] == 0  # the scalar tier has no batcher to bail from
        for reason in ("l1_miss", "fault", "trace"):
            assert vector.escape_counts[reason] == counts[reason]

    def test_trace_class_counts_walks_under_live_session(self):
        for engine in ("scalar", "vector"):
            metrics = self._run(engine, traced=True)
            walks = sum(t.tlb_walks for t in metrics.threads)
            assert metrics.escape_counts["trace"] == walks > 0

    def test_perf_counters_expose_escape_reasons(self):
        from repro.sim.perfcounters import perf_stat

        metrics = self._run("vector")
        report = perf_stat(metrics)
        counts = metrics.escape_counts
        assert report["engine.escape_l1_miss"] == float(counts["l1_miss"])
        assert report["engine.escape_fault"] == float(counts["fault"])
        assert report["engine.escape_trace"] == float(counts["trace"])
        assert report["engine.escape_bailout"] == float(counts["bailout"])


class TestMidRunInvalidation:
    """Epoch callbacks that mutate translations mid-run: the generation
    bump must force the vector tier to re-resolve (stale batched
    translations are impossible — docs/performance.md)."""

    def _run(self, engine):
        setup = setup_multisocket("gups", "F", footprint=FOOTPRINT, n_sockets=2)
        kernel, process = setup.kernel, setup.process

        def flip_replication(epoch, _metrics):
            if kernel.mitosis.get_replication_mask(process):
                kernel.mitosis.set_replication_mask(process, None)
            else:
                kernel.mitosis.set_replication_mask(process, frozenset({0, 1}))

        config = engine_config(engine, epochs=4, epoch_callback=flip_replication)
        return run_setup(setup, config)

    def test_replication_flips_between_epochs(self):
        assert_metrics_identical(self._run("scalar"), self._run("vector"))


class TestEngineSelection:
    def test_invalid_engine_rejected(self, kernel2):
        with pytest.raises(ValueError, match="engine"):
            Simulator(kernel2, EngineConfig(engine="simd"))

    def test_env_var_selects_engine(self, kernel2, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert Simulator(kernel2, EngineConfig()).engine == "scalar"
        monkeypatch.delenv("REPRO_ENGINE")
        assert Simulator(kernel2, EngineConfig()).engine == "vector"

    def test_config_beats_env(self, kernel2, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        assert Simulator(kernel2, EngineConfig(engine="vector")).engine == "vector"


class TestResidencyLut:
    """Both LUT representations must agree (dense is an optimization)."""

    def _pairs(self, vpns, frames_per_node=100):
        return [(vpn, (vpn % 7) * frames_per_node + 3) for vpn in vpns]

    @pytest.mark.parametrize("spread", [1, 1 << 16])  # dense / sparse
    def test_contains_and_nodes(self, spread):
        from repro.sim.engine import _LUT_SPAN_MAX, _ResidencyLut

        resident = [5 * spread, 9 * spread, 12 * spread, 700 * spread]
        span = resident[-1] - resident[0] + 1
        assert (span <= _LUT_SPAN_MAX) == (spread == 1)  # both arms covered
        lut = _ResidencyLut(self._pairs(resident), frames_per_node=100)
        probe = np.asarray(
            resident + [0, 6 * spread, 12 * spread + 1, 701 * spread], dtype=np.int64
        )
        assert lut.contains(probe).tolist() == [True] * 4 + [False] * 4
        assert lut.nodes_for(np.asarray(resident, dtype=np.int64)).tolist() == [
            vpn % 7 for vpn in resident
        ]

    def test_empty_lut_contains_nothing(self):
        from repro.sim.engine import _ResidencyLut

        lut = _ResidencyLut([], frames_per_node=100)
        assert lut.contains(np.asarray([1, 2], dtype=np.int64)).tolist() == [False, False]


class TestChainSum:
    """The float-fold primitive behind bit-identical cycle sums."""

    def test_matches_sequential_python_fold(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(1.0, 700.0, size=10_001)
        carry = 1234.5678
        expected = carry
        for cost in costs:
            expected += cost
        assert _chain_sum(carry, costs) == expected

    def test_empty_run_returns_carry(self):
        assert _chain_sum(42.25, np.empty(0)) == 42.25
