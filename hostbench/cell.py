"""One benchmark cell, in a fresh interpreter.

Run by ``run.py``; prints one JSON line. A cell imports ``repro.cli``,
builds its workload, runs it and produces the report (all timed), then,
outside the timed span, verifies the kernel's replicas (``replicas.py``), hashes the
simulated outputs and reads the layers' stats objects.

Modes:

* ``timed``: only ``Simulator.run`` is wrapped, by one timer;
* ``traced``: every layer in ``spans.TARGETS`` is wrapped and the spans
  are saved to ``--spans-out``;
* ``reference``: engine workloads run the scalar reference tier; the
  write-side workload runs under the runtime PTE sanitizer;
* ``profile``: the cell runs under ``cProfile`` and the stats are saved to
  ``--profile-out``.
"""

import time

_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SpanRecorder, self_times  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("timed", "traced", "reference", "profile"), default="timed"
    )
    parser.add_argument(
        "--spawn-ns", type=int, required=True,
        help="parent's perf_counter_ns() just before it started this interpreter",
    )
    parser.add_argument("--cell-id", default="cell")
    parser.add_argument("--spans-out")
    parser.add_argument("--profile-out")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    rec = SpanRecorder()
    root = rec.open("cell", start=_START_NS)
    with rec.phase("cli.import"):
        import repro.cli  # noqa: F401
    import cells

    workload = cells.WORKLOADS[args.workload]
    engine = "vector"
    profiler = None
    if args.mode == "traced":
        rec.install()
    else:
        rec.install(only=("sim.engine",))
    if args.mode == "reference":
        if isinstance(workload, cells.EngineWorkload):
            engine = "scalar"
        else:
            from repro.lint.sanitizer import PTESanitizer

            PTESanitizer().install()
    elif args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    with rec.phase("build") as build_span:
        cell = workload.build(args.seed)
    with rec.phase("run"):
        result = workload.run(cell, engine)
    end_ns = rec.close(root)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- untimed from here on ----------------------------------------------------
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile_out)
    rec.uninstall()
    from replicas import check_replicas

    replicas = check_replicas(workload.kernel(cell))
    ops = workload.ops(result)
    if isinstance(workload, cells.ChurnWorkload):
        run_s = sum(result.round_seconds)
        rounds_ok = all(result.rounds_ok)
    else:
        run_s = rec.duration_ns("sim.engine") / 1e9
        rounds_ok = True
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "engine": engine,
        "cell_s": (end_ns - args.spawn_ns) / 1e9,
        "root_s": (end_ns - _START_NS) / 1e9,
        "setup_s": (rec.end[build_span] - rec.start[build_span]) / 1e9,
        "run_s": run_s,
        "ops": ops,
        "op_unit": workload.op_unit,
        "ops_per_s": ops / run_s,
        "peak_rss_mib": peak_rss_kib / 1024,
        "digest": workload.digest(cell, result),
        **workload.simulated(result),
        "verify_ok": replicas.ok,
        "violations": replicas.violations[:5],
        "verify_rings": replicas.rings_checked,
        "verify_anchor_artifacts": replicas.anchor_artifacts,
        "rounds_ok": rounds_ok,
        "counts": workload.counts(cell, result),
    }
    if args.mode == "traced":
        names, name, parent, start, end = rec.names, *rec.arrays()
        out["layers"] = self_times(names, name, parent, start, end)
        out["spans"] = len(name)
        if args.spans_out:
            rec.save(args.spans_out, args.cell_id)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
