"""Command-line front-end.

The paper's user-facing knob is ``numactl --pgtablerepl=<sockets>``
(Listing 2): run a program with a page-table replication policy, no code
changes. This CLI reproduces that UX against the simulator, plus
sub-commands for the experiment harnesses, the analysis tools, the chaos
(fault-injection) harness, the static analyzer and the tracing layer:

::

    python -m repro numactl --pgtablerepl=0-3 gups --footprint-mib 64
    python -m repro numactl --cpunodebind=0 --membind=1 --pt-node=1 gups
    python -m repro scenario migration gups RPI-LD --mitosis
    python -m repro scenario multisocket canneal F+M --thp
    python -m repro dump memcached
    python -m repro table4
    python -m repro chaos --scenario replication-oom --seed 7 --json
    python -m repro fleet campaign --seeds 0-7 --intensities 0.5,1.0,2.0
    python -m repro fleet sweep --workloads gups,btree --seeds 1234
    python -m repro fleet bench --accesses 6000 --workers 0
    python -m repro lint --format json
    python -m repro lint --whole-program --jobs 4 --changed
    python -m repro lint --explain
    python -m repro trace --out trace.json chaos --scenario replication-oom
    python -m repro perf --accesses 50000 --out BENCH_engine.json
    python -m repro perf --fleet --check

``trace`` wraps any of the simulation sub-commands (``numactl``,
``scenario``, ``dump``, ``chaos``, ``fleet``) in a :mod:`repro.trace`
session and exports the timeline — see docs/observability.md. ``fleet``
shards a whole grid of cells across a supervised warm-worker pool
(``--workers 0`` runs inline) with a crash-safe result cache — see
docs/fleet.md. ``perf`` benchmarks the scalar-vs-vector interpreter
tiers and writes ``BENCH_engine.json``; ``perf --fleet`` benchmarks the
pool's dispatch throughput, checks its outcomes against inline dispatch
and writes ``BENCH_fleet.json`` — see docs/performance.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.overhead import render_table4
from repro.analysis.ptdump import fig3_snapshot
from repro.kernel.kernel import Kernel
from repro.kernel.policy import FixedNodePolicy
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.mitosis.policy import parse_socket_list
from repro.sim.chaos import SCENARIOS as CHAOS_SCENARIOS
from repro.sim.chaos import run_chaos
from repro.sim.engine import EngineConfig, Simulator
from repro.sim.scenario import (
    MIGRATION_CONFIGS,
    MULTISOCKET_CONFIGS,
    run_migration,
    run_multisocket,
)
from repro.units import MIB
from repro.workloads.registry import WORKLOADS, create


def _add_numactl_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--pgtablerepl", "-r", default=None,
        help="sockets to replicate page-tables on (e.g. '0-3' or '0,2')",
    )
    parser.add_argument("--cpunodebind", "-N", type=int, default=0, help="run on this socket")
    parser.add_argument("--membind", "-m", type=int, default=None, help="force data to a node")
    parser.add_argument("--pt-node", type=int, default=None, help="force page-tables to a node")
    parser.add_argument("--sockets", type=int, default=4, help="machine size")
    parser.add_argument("--footprint-mib", type=int, default=64)
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument("--thp", action="store_true", help="enable transparent huge pages")
    parser.add_argument(
        "--perf", action="store_true", help="print perf-stat style counters (§3.2)"
    )


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kind", choices=["migration", "multisocket"])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("config", help="e.g. RPI-LD (migration) or F+M (multisocket)")
    parser.add_argument("--mitosis", action="store_true", help="migration: add the +M repair")
    parser.add_argument("--thp", action="store_true")
    parser.add_argument("--fragmentation", type=float, default=0.0)
    parser.add_argument("--footprint-mib", type=int, default=64)
    parser.add_argument("--accesses", type=int, default=20_000)


def _add_dump_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--footprint-mib", type=int, default=64)


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", choices=CHAOS_SCENARIOS, default="replication-oom",
        help="which chaos scenario to run",
    )
    parser.add_argument("--seed", type=int, default=7, help="fault-plan seed")
    parser.add_argument(
        "--intensity", type=float, default=1.0,
        help="fault-plan intensity multiplier: scales rule probabilities "
        "and limits (>1 = more hostile, <1 = gentler; default 1.0)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the structured verdict (repro-chaos-verdict/1 JSON) "
        "instead of the text report",
    )
    parser.add_argument(
        "--pte-sanitizer", action="store_true",
        help="guard every PTE store with the runtime sanitizer "
        "(also enabled by REPRO_PTE_SANITIZER=1)",
    )


def _add_fleet_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "mode", choices=["campaign", "sweep", "bench"],
        help="campaign: chaos grid (scenario x seed x intensity); "
        "sweep: scenario-measurement grid (workload x config x seed); "
        "bench: one engine perf-measurement cell per bench scenario",
    )
    parser.add_argument(
        "--scenarios", default=None, metavar="LIST",
        help="campaign/bench: comma-separated scenarios (default: all)",
    )
    parser.add_argument(
        "--seeds", default="7", metavar="LIST",
        help="seed list, numactl-style: '0-7', '1,2,3' (default: 7)",
    )
    parser.add_argument(
        "--intensities", default="1.0", metavar="LIST",
        help="campaign: comma-separated fault-plan intensities (default: 1.0)",
    )
    parser.add_argument(
        "--harness", choices=["multisocket", "migration"], default="multisocket",
        help="sweep: which experiment harness (default: multisocket)",
    )
    parser.add_argument(
        "--workloads", default="gups", metavar="LIST",
        help="sweep: comma-separated workloads (default: gups)",
    )
    parser.add_argument(
        "--configs", default=None, metavar="LIST",
        help="sweep: comma-separated configs (default: every config of "
        "the chosen harness)",
    )
    parser.add_argument("--thp", action="store_true", help="sweep: enable THP")
    parser.add_argument(
        "--mitosis", action="store_true", help="sweep (migration): add the +M repair"
    )
    parser.add_argument("--footprint-mib", type=int, default=64)
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument(
        "--cache-dir", default=".fleet-cache",
        help="crash-safe result cache / resume checkpoint (default: .fleet-cache)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="supervised warm-pool worker processes; 0 runs jobs inline "
        "(default: 2)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-attempt wall-clock budget in seconds before the worker "
        "is killed (default: 60)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per job before quarantine (default: 3)",
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help="write a per-job Chrome trace bundle into this directory "
        "(worker mode only)",
    )
    parser.add_argument(
        "--report", default=None,
        help="also write the full fleet report JSON to this path",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the report as repro-fleet-report/1 JSON instead of text",
    )
    parser.add_argument(
        "--inject-crash", type=float, default=0.0, metavar="P",
        help="self-hosting chaos: crash each worker launch with this "
        "probability (site fleet.worker.crash)",
    )
    parser.add_argument(
        "--inject-hang", type=int, default=0, metavar="N",
        help="self-hosting chaos: hang every Nth worker launch (killed at "
        "the timeout; 0 = never)",
    )
    parser.add_argument(
        "--inject-seed", type=int, default=42,
        help="seed for the fleet's own fault plan (default: 42)",
    )


def _add_lint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text", dest="fmt",
        help="report format (sarif = SARIF 2.1.0 for code-scanning UIs)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule subset (e.g. PROV001,TLBGEN001)",
    )
    parser.add_argument(
        "--whole-program", action="store_true",
        help="also build the project call graph and run the cross-module "
        "protocol rules (TLBGEN001/TLBGEN002, SHOOT001, PROV001, SPAN001), "
        "the interprocedural dataflow rules (DETFLOW001, "
        "RES001/RES002 handle lifecycles incl. pipe ends, PIPE002 pipe "
        "typestate) and the concurrency rules (FORK001/FORK002, "
        "SIG001, PIPE001 message pairing)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard the analysis across N forked worker processes "
        "(findings stay byte-identical to serial; 0 = auto-size from "
        "the CPU count; default: 1)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="only report findings in files touched relative to REF "
        "(default HEAD) plus their reverse call-graph dependents; a fast "
        "development filter, not a gate — cross-file marker pairings can "
        "escape the closure (see docs/static-analysis.md)",
    )
    parser.add_argument(
        "--explain", nargs="?", const="", default=None, metavar="RULE",
        help="print the full rationale for one rule (what it flags, which "
        "wrappers are sanctioned, how to suppress) and exit; with no RULE, "
        "print the whole rule catalog",
    )
    parser.add_argument(
        "--stats", default=None, metavar="FILE",
        help="write run statistics to FILE as JSON: dataflow-engine "
        "counters (modules analyzed, summary cache hits/misses) plus the "
        "wall-clock phase breakdown under 'timings'",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental dataflow summary cache (re-extract "
        "every module)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="dataflow summary cache directory (default: $REPRO_LINT_CACHE_DIR "
        "or .lint-cache at the repo root)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file (default: lint-baseline.json at the repo root)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="strict mode: ignore the baseline, every finding counts",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )


def _add_perf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--accesses", type=int, default=50_000,
        help="simulated accesses per thread per measurement (default: 50000)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="measurements per engine per scenario; best is kept (default: 3)",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable; default: all three)",
    )
    parser.add_argument(
        "--out", default=None,
        help="report path (default: BENCH_engine.json, or BENCH_fleet.json "
        "with --fleet; with --json, no file unless --out is given)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if engines disagree on metrics, or the vector "
        "tier is slower than scalar on the GUPS gate scenario or the "
        "escape-heavy gate scenarios (redis-faults, memcached-traced); "
        "with --fleet: if pooled throughput or dispatch-overhead p99 misses "
        "its committed bound, pooled outcomes differ from inline dispatch, "
        "or the real crash/hang probes are not quarantined",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full report (repro-bench-engine/2, or "
        "repro-bench-fleet/2 with --fleet) to stdout instead of the "
        "summary table; writes a file only with --out",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="benchmark warm-pool fleet dispatch throughput over a "
        "many-small-jobs campaign, checked against inline dispatch, instead "
        "of the engine tiers; writes BENCH_fleet.json",
    )
    parser.add_argument(
        "--fleet-jobs", type=int, default=240,
        help="--fleet: cells per campaign (default: 240)",
    )
    parser.add_argument(
        "--fleet-workers", type=int, default=4,
        help="--fleet: pool worker processes (default: 4)",
    )


#: Sub-commands ``trace`` can wrap: everything that actually drives the
#: simulator (``lint`` and ``table4`` never emit trace events).
TRACEABLE_COMMANDS: dict[str, tuple[str, object]] = {
    "numactl": ("run a workload under placement/replication policies", _add_numactl_args),
    "scenario": ("run a paper experiment configuration", _add_scenario_args),
    "dump": ("page-table placement snapshot (Fig. 3)", _add_dump_args),
    "chaos": ("run a fault-injection scenario and verify replica consistency", _add_chaos_args),
    "fleet": ("run a fault-tolerant sweep: supervised workers + crash-safe "
              "result cache (docs/fleet.md)", _add_fleet_args),
}


def build_parser() -> argparse.ArgumentParser:
    """Assemble the ``repro`` argument parser (every sub-command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mitosis (ASPLOS 2020) reproduction — simulated NUMA machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, add_args) in TRACEABLE_COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))

    sub.add_parser("table4", help="print the Table 4 memory-overhead model")

    perf = sub.add_parser(
        "perf",
        help="benchmark the scalar vs vector engine tiers (docs/performance.md)",
    )
    _add_perf_args(perf)

    lint = sub.add_parser(
        "lint",
        help="static analysis: PV-Ops / determinism / fault-site invariants "
        "(--whole-program adds call-graph + CFG protocol rules)",
    )
    _add_lint_args(lint)

    trace = sub.add_parser(
        "trace",
        help="run a sub-command with structured tracing and export the timeline",
    )
    trace.add_argument(
        "--out", default="trace.json",
        help="output file for the exported trace (default: trace.json)",
    )
    trace.add_argument(
        "--export", choices=["chrome", "jsonl"], default="chrome",
        help="chrome: trace_event JSON for Perfetto/chrome://tracing; "
        "jsonl: one event per line",
    )
    trace.add_argument(
        "--capacity", type=int, default=65536,
        help="in-memory event ring size (sinks see every event regardless)",
    )
    trace.add_argument(
        "--no-summary", action="store_true",
        help="skip the end-of-run event/counter summary",
    )
    traced = trace.add_subparsers(dest="traced_command", required=True)
    for name, (help_text, add_args) in TRACEABLE_COMMANDS.items():
        add_args(traced.add_parser(name, help=help_text))
    return parser


def _cmd_numactl(args: argparse.Namespace) -> int:
    """``repro numactl``: the Listing 2 UX — run one workload on a chosen
    socket with optional data/page-table pinning and a ``--pgtablerepl``
    replication mask, then print the headline metrics."""
    machine = Machine.homogeneous(
        args.sockets, cores_per_socket=2,
        memory_per_socket=(args.footprint_mib + 192) * MIB,
    )
    kernel = Kernel(machine, sysctl=Sysctl(
        thp_enabled=args.thp, mitosis_mode=MitosisMode.PER_PROCESS
    ))
    pt_policy = FixedNodePolicy(args.pt_node) if args.pt_node is not None else None
    data_policy = FixedNodePolicy(args.membind) if args.membind is not None else None
    process = kernel.create_process(
        args.workload, socket=args.cpunodebind, pt_policy=pt_policy, data_policy=data_policy
    )
    workload = create(args.workload, footprint=args.footprint_mib * MIB)
    va = kernel.sys_mmap(process, workload.footprint, populate=True).value
    if args.pgtablerepl is not None:
        mask = parse_socket_list(args.pgtablerepl)
        kernel.mitosis.set_replication_mask(process, mask or None)
    metrics = Simulator(kernel, EngineConfig(accesses_per_thread=args.accesses)).run(
        process, workload, [args.cpunodebind], va
    )
    mask = kernel.mitosis.get_replication_mask(process)
    print(f"workload={args.workload} socket={args.cpunodebind} "
          f"footprint={args.footprint_mib} MiB thp={args.thp} "
          f"pgtablerepl={sorted(mask) if mask else 'off'}")
    print(f"runtime_cycles={metrics.runtime_cycles:.0f}")
    print(f"walk_cycle_fraction={metrics.walk_cycle_fraction:.3f}")
    print(f"tlb_miss_rate={metrics.tlb_miss_rate:.3f}")
    print(f"pt_bytes={kernel.physmem.page_table_bytes()}")
    if args.perf:
        from repro.sim.perfcounters import perf_stat, render_perf

        print()
        print(render_perf(perf_stat(metrics), label=args.workload))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``repro scenario``: one measured bar of the paper's experiments —
    ``migration`` (Table 2 / Figs. 6, 10, 11) or ``multisocket``
    (Table 3 / Fig. 9)."""
    engine = EngineConfig(accesses_per_thread=args.accesses)
    footprint = args.footprint_mib * MIB
    if args.kind == "migration":
        if args.config not in MIGRATION_CONFIGS:
            print(f"unknown migration config {args.config!r}; "
                  f"choose from {', '.join(MIGRATION_CONFIGS)}", file=sys.stderr)
            return 2
        result = run_migration(
            args.workload, args.config, mitosis=args.mitosis, thp=args.thp,
            fragmentation=args.fragmentation, footprint=footprint, engine=engine,
        )
    else:
        if args.config not in MULTISOCKET_CONFIGS:
            print(f"unknown multisocket config {args.config!r}; "
                  f"choose from {', '.join(MULTISOCKET_CONFIGS)}", file=sys.stderr)
            return 2
        result = run_multisocket(
            args.workload, args.config, thp=args.thp, footprint=footprint, engine=engine
        )
    print(f"config={result.config} workload={result.workload}")
    print(f"runtime_cycles={result.runtime_cycles:.0f}")
    print(f"walk_cycle_fraction={result.walk_cycle_fraction:.3f}")
    remote = " ".join(f"s{s}={f:.0%}" for s, f in sorted(result.remote_leaf_fraction.items()))
    print(f"remote_leaf_fraction: {remote}")
    if result.thp_failure_rate:
        print(f"thp_failure_rate={result.thp_failure_rate:.2f}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: one seeded fault-injection scenario end-to-end,
    ending with the replica-consistency verifier; exits 1 on a verifier
    violation. ``--intensity`` scales the fault plan's hostility,
    ``--json`` prints the structured ``repro-chaos-verdict/1`` verdict,
    and ``--pte-sanitizer`` additionally guards every PTE store."""
    import json

    from repro.lint.sanitizer import PTESanitizer, env_enabled

    sanitizer = None
    if args.pte_sanitizer or env_enabled():
        sanitizer = PTESanitizer().install()
    try:
        report = run_chaos(args.scenario, seed=args.seed, intensity=args.intensity)
    finally:
        if sanitizer is not None:
            sanitizer.uninstall()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
        if sanitizer is not None:
            print(f"  {sanitizer.summary()}")
    return 0 if report.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet``: drive a whole grid of cells to terminal outcomes
    under supervision (docs/fleet.md).

    ``campaign`` fans :mod:`repro.sim.chaos` scenarios across a
    seed × intensity grid and aggregates the verifier verdicts;
    ``sweep`` does the same for scenario measurements. Completed cells
    checkpoint into ``--cache-dir`` as they finish, so an interrupted
    invocation resumes incrementally; cells that fail ``--max-attempts``
    times are quarantined and reported with a one-line reproducer.
    ``--inject-crash`` / ``--inject-hang`` turn the fleet's own chaos on
    (site ``fleet.worker.crash``). Exit status: 0 all cells ok, 1 any
    failing cell, 130 interrupted.
    """
    import json

    from repro.fleet import (
        Fleet,
        FleetConfig,
        ResultCache,
        bench_grid,
        chaos_grid,
        scenario_grid,
    )
    from repro.inject import FaultPlan
    from repro.sim.scenario import MIGRATION_CONFIGS as _MIG
    from repro.sim.scenario import MULTISOCKET_CONFIGS as _MULTI

    try:
        seeds = sorted(parse_socket_list(args.seeds)) or [7]
        intensities = [float(x) for x in args.intensities.split(",") if x.strip()]
    except Exception as exc:  # noqa: BLE001 - argument validation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.mode == "campaign":
            scenarios = (
                [s.strip() for s in args.scenarios.split(",") if s.strip()]
                if args.scenarios else None
            )
            specs = chaos_grid(scenarios=scenarios, seeds=seeds, intensities=intensities)
        elif args.mode == "bench":
            scenarios = (
                [s.strip() for s in args.scenarios.split(",") if s.strip()]
                if args.scenarios else None
            )
            specs = bench_grid(scenarios=scenarios, accesses=args.accesses)
        else:
            default_configs = _MULTI if args.harness == "multisocket" else _MIG
            configs = (
                [c.strip() for c in args.configs.split(",") if c.strip()]
                if args.configs else list(default_configs)
            )
            workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
            specs = scenario_grid(
                args.harness, workloads, configs, seeds=seeds,
                thp=args.thp, mitosis=args.mitosis,
                footprint_mib=args.footprint_mib, accesses=args.accesses,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plan = None
    if args.inject_crash > 0 or args.inject_hang > 0:
        plan = FaultPlan(seed=args.inject_seed)
        if args.inject_crash > 0:
            plan.worker_crash(probability=args.inject_crash)
        if args.inject_hang > 0:
            plan.worker_crash(hang=True, every=args.inject_hang)
    config = FleetConfig(
        workers=args.workers,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        trace_dir=args.trace_dir,
        fault_plan=plan,
    )
    fleet = Fleet(config, ResultCache(args.cache_dir))
    mode_label = "inline" if args.workers == 0 else "pooled"
    print(f"fleet {args.mode}: {len(specs)} cell(s), workers={args.workers} "
          f"({mode_label}), cache={args.cache_dir}", file=sys.stderr)
    report = fleet.run(specs)
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report written to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


#: Rule-module suffix -> human-readable analysis layer, for --explain.
_RULE_LAYERS = {
    "rules_pvops": "per-file",
    "rules_determinism": "per-file",
    "rules_fault": "per-file",
    "rules_protocol": "protocol",
    "dataflow": "dataflow",
    "concurrency": "concurrency",
}


def _rule_layer(cls: type) -> str:
    return _RULE_LAYERS.get(cls.__module__.rsplit(".", 1)[-1], "per-file")


def _explain_catalog() -> int:
    """``repro lint --explain`` (no rule): the full catalog — every
    registered rule's id, analysis layer and one-line summary."""
    from repro.lint.core import RULE_REGISTRY, WHOLE_PROGRAM_REGISTRY

    rows = [
        (name, _rule_layer(cls), " ".join(cls.description.split()))
        for name, cls in sorted(
            list(RULE_REGISTRY.items()) + list(WHOLE_PROGRAM_REGISTRY.items())
        )
    ]
    width = max(len(name) for name, _, _ in rows)
    layer_width = max(len(layer) for _, layer, _ in rows)
    for name, layer, summary in rows:
        print(f"{name:<{width}}  {layer:<{layer_width}}  {summary}")
    print()
    print(f"{len(rows)} rule(s); 'repro lint --explain RULE' for the full rationale")
    return 0


def _explain_rule(name: str) -> int:
    """``repro lint --explain RULE``: print one rule's full rationale —
    description, docstring (what it flags, sanctioned wrappers, how to
    suppress) — sourced from the rule class itself."""
    import inspect

    from repro.lint.core import RULE_REGISTRY, WHOLE_PROGRAM_REGISTRY

    if not name:
        return _explain_catalog()
    cls = RULE_REGISTRY.get(name) or WHOLE_PROGRAM_REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(set(RULE_REGISTRY) | set(WHOLE_PROGRAM_REGISTRY)))
        print(f"unknown rule {name!r} (known: {known})", file=sys.stderr)
        return 2
    scope = "whole-program" if name in WHOLE_PROGRAM_REGISTRY else "per-file"
    print(f"{name} ({scope}): {cls.description}")
    doc = inspect.getdoc(cls)
    if doc:
        print()
        print(doc)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: run the static analyzer (PV-Ops, determinism,
    fault-site and suppression-hygiene rules — plus, with
    ``--whole-program``, the call-graph/CFG protocol rules and the
    interprocedural dataflow rules) over the given paths; exits 1 when
    there are findings not covered by the baseline."""
    import json as _json
    from pathlib import Path

    from repro.lint import (
        default_cache_dir,
        filter_baseline,
        lint_paths,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )
    from repro.lint.baseline import default_baseline_path

    if args.explain is not None:
        return _explain_rule(args.explain)

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        import repro

        paths = [Path(repro.__file__).resolve().parent]
    rules = [r.strip() for r in args.rules.split(",")] if args.rules else None
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir:
        cache_dir = Path(args.cache_dir)
    else:
        cache_dir = default_cache_dir()
    jobs = args.jobs
    if jobs <= 0:
        from repro.lint.parallel import default_jobs

        jobs = default_jobs()
    scope = None
    if args.changed is not None:
        from repro.lint.changed import changed_scope
        from repro.lint.core import iter_python_files

        all_files = list(iter_python_files(paths))
        scoped = changed_scope(all_files, ref=args.changed)
        if scoped is None:
            print(
                f"--changed: cannot resolve {args.changed!r} in a git "
                "work-tree; linting everything",
                file=sys.stderr,
            )
        else:
            scope, touched = scoped
            print(
                f"--changed {args.changed}: {len(touched)} touched file(s), "
                f"reporting on {len(scope)} (with reverse dependents)",
                file=sys.stderr,
            )
    try:
        result = lint_paths(
            paths,
            rules=rules,
            whole_program=args.whole_program,
            dataflow_cache_dir=cache_dir,
            jobs=jobs,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if scope is not None:
        result.findings = [f for f in result.findings if f.path in scope]

    if args.stats:
        stats = dict(result.dataflow_stats or {})
        stats["timings"] = result.timings
        Path(args.stats).write_text(
            _json.dumps(stats, indent=2, sort_keys=True)
        )

    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()
    if args.write_baseline:
        write_baseline(result.findings, baseline_path)
        print(
            f"wrote {len(result.findings)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0
    new_findings = result.findings
    if not args.no_baseline and baseline_path.exists():
        new_findings = filter_baseline(result.findings, load_baseline(baseline_path))
    render = {"json": render_json, "sarif": render_sarif, "text": render_text}[args.fmt]
    print(render(result, new_findings))
    return 1 if new_findings else 0


def _cmd_dump(args: argparse.Namespace) -> int:
    """``repro dump``: populate a workload and print the Fig. 3 style
    page-table placement snapshot (tables per level per node)."""
    dump = fig3_snapshot(workload=args.workload, footprint=args.footprint_mib * MIB)
    print(dump.render())
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    """``repro table4``: print the paper's Table 4 memory-overhead model."""
    print(render_table4())
    return 0


def _perf_out(args: argparse.Namespace, default: str) -> str | None:
    """Where ``perf`` writes its report: ``--out``, else ``default`` --
    except under ``--json``, which prints the report instead and writes
    a file only when ``--out`` names one."""
    if args.out:
        return args.out
    return None if args.json else default


def _cmd_perf(args: argparse.Namespace) -> int:
    """``repro perf``: benchmark the scalar vs vector engine tiers.

    Runs the :mod:`repro.sim.bench` scenarios (best-of-``--repeat``
    wall-clock per engine, fresh scenario per measurement), prints an
    accesses/second table with per-batch p50/p99 latencies, and writes
    the ``repro-bench-engine/2`` report to ``--out`` (default
    ``BENCH_engine.json``). ``--json`` prints the full report to stdout
    instead (machine-readable, what CI's perf-smoke gate parses) and
    writes a file only when ``--out`` is given, so a reduced-scale run
    never overwrites the committed report. ``--check`` turns it into a regression
    gate: non-zero exit when the engines' metrics differ anywhere, or
    the vector tier is slower than scalar on the GUPS scenario or the
    escape-heavy redis-faults / memcached-traced scenarios.

    ``--fleet`` benchmarks the *fleet* instead (:mod:`repro.fleet.bench`):
    warm-pool dispatch throughput over a many-small-jobs campaign plus a
    chaos-hardened campaign, each checked against an inline run, written
    to ``BENCH_fleet.json`` (``repro-bench-fleet/2``); ``--check`` then
    gates pooled throughput and p99 dispatch overhead against committed
    bounds, outcomes equal to inline, and the real crash/hang probes
    quarantined.
    """
    import json

    from repro.sim.bench import check_report, run_bench, write_report

    if args.fleet:
        return _cmd_perf_fleet(args)
    try:
        report = run_bench(
            accesses=args.accesses, repeat=args.repeat, scenarios=args.scenario
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _perf_out(args, "BENCH_engine.json")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for name, result in report["scenarios"].items():
            engines = result["engines"]
            latency = result["batch_latency"]
            print(
                f"{name:>18}: scalar {engines['scalar']['accesses_per_second']:>12,.0f} acc/s"
                f"  vector {engines['vector']['accesses_per_second']:>12,.0f} acc/s"
                f"  speedup {result['speedup']:.2f}x"
                f"  metrics {'equal' if result['metrics_equal'] else 'DIFFER'}"
            )
            print(
                f"{'':>18}  batch p50/p99 (us): "
                f"scalar {latency['scalar']['p50_us']:,.0f}/{latency['scalar']['p99_us']:,.0f}"
                f"  vector {latency['vector']['p50_us']:,.0f}/{latency['vector']['p99_us']:,.0f}"
                f"  ({latency['accesses_per_batch']} accesses/batch)"
            )
    if out is not None:
        write_report(report, out)
    if not args.json:
        print(f"report written to {out}")
    if args.check:
        problems = check_report(report)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


def _cmd_perf_fleet(args: argparse.Namespace) -> int:
    """``repro perf --fleet``: warm-pool dispatch throughput (jobs/s,
    per-job dispatch-overhead p50/p99) over a clean and a chaos-hardened
    campaign, each checked against inline dispatch; writes
    ``BENCH_fleet.json``."""
    import json

    from repro.fleet.bench import check_fleet_report, run_fleet_bench
    from repro.sim.bench import write_report

    report = run_fleet_bench(jobs=args.fleet_jobs, workers=args.fleet_workers)
    out = _perf_out(args, "BENCH_fleet.json")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for section in ("campaign", "chaos"):
            data = report[section]
            print(f"{section:>10}: {data['jobs']} job(s), "
                  f"workers={report['workers']}")
            stats = data["pooled"]
            overhead = stats["dispatch_overhead"]
            print(
                f"{'':>10}  pooled: {stats['jobs_per_second']:>8,.0f} jobs/s"
                f"  overhead p50/p99 (us) "
                f"{overhead['p50_us']:,.0f}/{overhead['p99_us']:,.0f}"
                f"  recycles {stats['worker_recycles']}"
            )
            reference = data["inline_reference"]
            verdict = "identical" if reference["outcomes_identical"] else "DIFFER"
            print(f"{'':>10}  vs inline on {reference['cells']} cell(s): "
                  f"outcomes {verdict}")
            if reference["probes"]:
                quarantined = reference["probes_quarantined"]
                print(f"{'':>10}  real crash/hang probes: "
                      + ("quarantined" if quarantined else "NOT quarantined"))
    if out is not None:
        write_report(report, out)
    if not args.json:
        print(f"report written to {out}")
    if args.check:
        problems = check_fleet_report(report)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run a nested sub-command with a
    :mod:`repro.trace` session installed and export the timeline.

    ``--export chrome`` (default) writes a Chrome ``trace_event`` file
    for https://ui.perfetto.dev / ``chrome://tracing``; ``--export
    jsonl`` streams one JSON event per line. The traced command's exit
    code is preserved; a summary of event volume and counters is printed
    unless ``--no-summary``.
    """
    from repro.trace import ChromeTraceSink, JsonlSink, TraceSession, start_tracing, stop_tracing

    if args.export == "chrome":
        sink: ChromeTraceSink | JsonlSink = ChromeTraceSink(args.out)
    else:
        sink = JsonlSink(args.out)
    session = TraceSession(
        capacity=args.capacity,
        sinks=[sink],
        metadata={"command": args.traced_command},
    )
    if isinstance(sink, ChromeTraceSink):
        sink.open_session(session)
    start_tracing(session)
    try:
        code = COMMANDS[args.traced_command](args)
    finally:
        stop_tracing()
    print(f"trace written to {args.out} ({args.export})")
    if not args.no_summary:
        print(session.summary())
    return code


#: Sub-command dispatch (``trace`` re-enters this table for its nested
#: command, which is why it is defined after every handler).
COMMANDS: dict[str, object] = {
    "numactl": _cmd_numactl,
    "scenario": _cmd_scenario,
    "dump": _cmd_dump,
    "table4": _cmd_table4,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
    "perf": _cmd_perf,
}


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and dispatch to the chosen sub-command handler."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
