"""Host-cost benchmark of the simulator: one workload, one seed, one run.

    python3 hostbench/run.py --workload replicated-walks --seed 1 --seconds 15 --trace 0

Runs cells of the workload one at a time (a closed loop with one client),
each in a fresh interpreter, until ``--seconds`` have passed, then one
reference cell. ``--trace 0`` reports the end-to-end metrics (medians
over the cells); ``--trace 1`` alternates untraced and traced cells and
reports the per-layer metrics. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".hostbench"

WORKLOADS = ("replicated-walks", "swap-churn", "hugepage-hits", "vma-churn")

#: Largest share of a traced cell's wall time the spans may leave
#: unattributed. What they leave is interpreter start-up before the root
#: span opens, ~50 ms, which is up to ~6% of the shortest traced cells.
ATTRIBUTION_TOLERANCE = 0.10

#: A cell that takes longer than this is killed and counted as failed.
CELL_TIMEOUT_S = 120

END_TO_END = {
    "cell_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Host speed drifts by up to ~1.7x over tens of seconds on a shared
#: machine, so each cell's times are scaled by the speed of a fixed
#: calibration loop timed just before and just after it. Reported times
#: are seconds on a host where ``host_probe`` takes this long.
PROBE_REFERENCE_S = 0.060

#: Per-layer metric -> unit. Times are self times of the traced cells.
PER_LAYER_TIMES = {
    "cli.import_s": "cli.import",
    "workloads.stream_s": "workloads.stream",
    "sim.engine_self_s": "sim.engine",
    "tlb.fill_s": "tlb.fill",
    "tlb.psc_s": "tlb.psc",
    "tlb.shootdown_s": "tlb.shootdown",
    "paging.walk_s": "paging.walk",
    "cache.llc_s": "cache.llc",
    "kernel.fault_setup_s": "kernel.fault@build",
    "kernel.fault_run_s": "kernel.fault@run",
    "kernel.swap_s": "kernel.swap",
    "kernel.autonuma_s": "kernel.autonuma",
    "kernel.syscall_s": "kernel.syscall",
    "kernel.native_pvops_s": "kernel.native_pvops",
    "mem.alloc_s": "mem.alloc",
    "mitosis.pvops_s": "mitosis.pvops",
    "mitosis.replicate_s": "mitosis.replicate",
    "paging.dump_s": "paging.dump",
    "build.other_s": "build",
    "run.other_s": "run",
    "cell.other_s": "cell",
}
PER_LAYER_COUNTS = {
    "sim.batched_frac": "ratio",
    "sim.escape_l1_miss": "count",
    "sim.escape_fault": "count",
    "sim.escape_bailout": "count",
    "tlb.l1_hits": "count",
    "tlb.l1_misses": "count",
    "tlb.l2_hits": "count",
    "tlb.walks": "count",
    "tlb.psc_hits": "count",
    "tlb.psc_lookups": "count",
    "tlb.shootdowns": "count",
    "paging.walks": "count",
    "paging.walk_refs": "count",
    "cache.llc_probes": "count",
    "cache.llc_hit_ratio": "ratio",
    "kernel.faults": "count",
    "kernel.swap_ins": "count",
    "kernel.swap_outs": "count",
    "paging.pte_writes": "count",
    "mitosis.ring_hops": "count",
}


def fingerprint() -> dict:
    """Host and code identity stamped on every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


def commit() -> str:
    """Git HEAD when the checkout is a repository, else a content hash of
    the simulator's sources."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
        else:
            return ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python loop of dict stores and
    lookups, the operations the simulator spends its time on. It uses no
    simulator code, so a change to the simulator cannot move it."""
    start = time.perf_counter()
    for _ in range(2):
        table = {}
        for i in range(200_000):
            table[i * 7919 % 100_003] = i
        total = 0
        for key in table:
            total += table[key]
    return time.perf_counter() - start


def normalised(cell: dict) -> dict:
    """The cell's end-to-end metrics at the reference host speed."""
    scale = PROBE_REFERENCE_S / cell["probe_s"]
    return {
        "cell_s": cell["cell_s"] * scale,
        "setup_s": cell["setup_s"] * scale,
        "ops_per_s": cell["ops_per_s"] / scale,
        "peak_rss_mib": cell["peak_rss_mib"],
    }


def run_cell(workload: str, seed: int, mode: str, index: int, **paths: Path) -> dict:
    """Run one cell in a fresh interpreter; its JSON result, or a failure
    record when it raised, timed out or printed nothing."""
    cmd = [
        sys.executable, str(HERE / "cell.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--cell-id", f"{workload}/seed{seed}/{mode}{index}",
    ]
    for flag, path in paths.items():
        cmd += [f"--{flag.replace('_', '-')}", str(path)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    probe_before = host_probe()
    cmd += ["--spawn-ns", str(time.perf_counter_ns())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CELL_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} cell timed out after {CELL_TIMEOUT_S} s"}
    probe_after = host_probe()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"{mode} cell exited {proc.returncode}: " + " | ".join(tail)}
    cell = json.loads(lines[-1])
    cell["probe_s"] = (probe_before + probe_after) / 2
    return cell


def cell_problems(cell: dict, expected_digest: str | None) -> list[str]:
    """Why a cell counts as failed (empty when it is correct)."""
    if "error" in cell:
        return [cell["error"]]
    problems = []
    if not cell["verify_ok"]:
        problems.append("replica check: " + "; ".join(cell["violations"]))
    if not cell["rounds_ok"]:
        problems.append("page-table bytes or used frames did not return to their pre-loop values")
    if expected_digest is not None and cell["digest"] != expected_digest:
        problems.append(f"sim_digest {cell['digest']} != reference {expected_digest}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if time.get_clock_info("perf_counter").implementation != time.get_clock_info(
        "monotonic"
    ).implementation:
        print("error: perf_counter is not the system-wide monotonic clock", file=sys.stderr)
        return 2

    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    spans_out = traces / f"{args.workload}-seed{args.seed}.npz"

    timed: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while not timed or time.monotonic() < deadline:
        timed.append(run_cell(args.workload, args.seed, "timed", len(timed)))
        if args.trace:
            traced.append(
                run_cell(args.workload, args.seed, "traced", len(traced), spans_out=spans_out)
            )
    reference = run_cell(args.workload, args.seed, "reference", 0)

    problems: list[str] = []
    expected = reference.get("digest")
    if expected is None:
        problems.append("reference: " + reference.get("error", "no digest"))
    failed = 0
    for cell in timed + traced + [reference]:
        bad = cell_problems(cell, expected)
        if bad:
            failed += 1
            problems += bad
    # A cell that ran to the end is timed even when a check failed: the
    # failure is reported through "correct" and "failed".
    good = [c for c in timed if "error" not in c]
    good_traced = [c for c in traced if "error" not in c]
    if not good or (args.trace and not good_traced):
        for problem in dict.fromkeys(problems):
            print(f"# FAIL {problem}", file=sys.stderr)
        print("error: no cell ran to the end", file=sys.stderr)
        return 1

    host = fingerprint()
    print(f"# host: {json.dumps(host, sort_keys=True)}")
    sim = good[0]
    print(
        f"# simulated (exact): sim.runtime_cycles={sim['sim.runtime_cycles']!r} "
        f"sim.walk_cycle_fraction={sim['sim.walk_cycle_fraction']!r} "
        f"sim_digest={sim['digest']}"
    )
    print(
        f"# {args.workload} seed={args.seed}: {len(good)} untraced cells, "
        f"{sim['ops']} ops per cell ({sim['op_unit']})"
    )
    print(
        f"# replicas: {sim['verify_rings']} rings checked; verify_kernel reported "
        f"{sim['verify_anchor_artifacts']} replica-anchoring artifact(s) (replicas.py)"
    )

    if args.trace:
        metrics = per_layer(good, good_traced, problems)
    else:
        scaled = [normalised(c) for c in good]
        metrics = {
            name: {"value": median([c[name] for c in scaled]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        raw = ", ".join(f"{name}={median([c[name] for c in good]):.6g}" for name in END_TO_END)
        probe = median([c["probe_s"] for c in good])
        print(f"# unscaled medians: {raw}; probe median {probe:.4f} s")
    for problem in dict.fromkeys(problems):
        print(f"# FAIL ({problems.count(problem)}x) {problem}")
    for name, metric in metrics.items():
        print(f"# {name:<26} {metric['value']:>16.6g} {metric['unit']}")

    result = {
        "correct": not problems,
        "attempted": len(timed) + len(traced) + 1,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "host": host, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "result": result,
        "cells": timed + traced + [reference],
    }
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def per_layer(untraced: list[dict], traced: list[dict], problems: list[str]) -> dict:
    """Per-layer metrics: medians over the traced cells, plus the checks
    of the traced run against itself and against the untraced cells."""
    for cell in traced:
        if cell["digest"] != untraced[0]["digest"]:
            problems.append(
                f"traced sim_digest {cell['digest']} != untraced {untraced[0]['digest']}"
            )
    metrics = {}
    for metric, span in PER_LAYER_TIMES.items():
        value = median([c["layers"].get(span, (0.0, 0))[0] for c in traced])
        metrics[metric] = {"value": value, "unit": "s"}
    counts = dict(traced[0]["counts"])
    counts["cache.llc_probes"] = traced[0]["layers"].get("cache.llc", (0.0, 0))[1]
    for metric, unit in PER_LAYER_COUNTS.items():
        metrics[metric] = {"value": counts[metric], "unit": unit}
    unattributed = []
    for cell in traced:
        attributed = sum(s for s, _ in cell["layers"].values())
        unattributed.append((cell["cell_s"] - attributed) / cell["cell_s"])
    worst = max(unattributed, key=abs)
    if abs(worst) > ATTRIBUTION_TOLERANCE:
        problems.append(
            f"span self times leave {worst:.1%} of a traced cell unattributed "
            f"(tolerance {ATTRIBUTION_TOLERANCE:.0%})"
        )
    overhead = median([c["cell_s"] for c in traced]) - median([c["cell_s"] for c in untraced])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.unattributed_frac"] = {"value": median(unattributed), "unit": "ratio"}
    metrics["trace.spans"] = {"value": median([c["spans"] for c in traced]), "unit": "count"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
