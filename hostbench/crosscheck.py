"""Cross-check the span attribution against cProfile on one workload.

    python3 hostbench/crosscheck.py --workload replicated-walks --seed 1

Runs one traced cell and one cell under ``cProfile`` (both fresh
interpreters) and prints, per layer, its inclusive share of the cell's
build + run time as each source sees it. The span side sums the
outermost span of each layer; the cProfile side sums the cumulative time
of the layer's wrapped functions, minus calls made from another function
of the same layer. cProfile charges a fixed cost to every Python call,
so layers made of many short calls read higher under it.
"""

from __future__ import annotations

import argparse
import pstats
import sys

import spans
from run import OUT, SRC, WORKLOADS, run_cell


def profile_layers(path: str) -> tuple[dict[str, float], float]:
    """``({layer: inclusive seconds}, profiled seconds)`` from cProfile stats."""
    stats = pstats.Stats(path).stats
    layer_of: dict[tuple, str] = {}
    targets = [(*spans.resolve(m, p), span) for m, p, span in spans.TARGETS]
    targets += [(*t, spans.STREAM_SPAN) for t in spans.stream_targets()]
    for _, _, fn, span in targets:
        code = fn.__code__
        layer_of[(code.co_filename, code.co_firstlineno, code.co_name)] = span
    inclusive: dict[str, float] = {}
    for key, layer in layer_of.items():
        if key not in stats:
            continue
        _, _, _, cumulative, callers = stats[key]
        nested = sum(c[3] for caller, c in callers.items() if layer_of.get(caller) == layer)
        inclusive[layer] = inclusive.get(layer, 0.0) + cumulative - nested
    total = sum(entry[2] for entry in stats.values())
    return inclusive, total


def span_layers(path: str) -> tuple[dict[str, float], float]:
    """``({layer: inclusive seconds}, build + run seconds)`` from a trace."""
    names, name, parent, start, end, _ = spans.load(path)
    inclusive = spans.inclusive_times(names, name, parent, start, end)
    merged: dict[str, float] = {}
    for span, seconds in inclusive.items():
        layer = span.split("@")[0]
        merged[layer] = merged.get(layer, 0.0) + seconds
    return merged, merged.get("build", 0.0) + merged.get("run", 0.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="replicated-walks", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    out = OUT / "crosscheck"
    out.mkdir(parents=True, exist_ok=True)
    trace = out / f"{args.workload}-seed{args.seed}.npz"
    profile = out / f"{args.workload}-seed{args.seed}.prof"
    for mode, paths in (("traced", {"spans_out": trace}), ("profile", {"profile_out": profile})):
        cell = run_cell(args.workload, args.seed, mode, 0, **paths)
        if "error" in cell:
            print(f"error: {cell['error']}", file=sys.stderr)
            return 1
    by_span, span_total = span_layers(str(trace))
    by_profile, profile_total = profile_layers(str(profile))
    layers = sorted(
        set(by_profile) | (set(by_span) - set(spans.PHASES)), key=lambda k: -by_span.get(k, 0.0)
    )
    print(f"{args.workload} seed={args.seed}: inclusive share of build + run time")
    print(f"{'layer':<22} {'spans':>8} {'cProfile':>9}")
    for layer in layers:
        print(
            f"{layer:<22} {100 * by_span.get(layer, 0.0) / span_total:>7.1f}% "
            f"{100 * by_profile.get(layer, 0.0) / profile_total:>8.1f}%"
        )
    print(f"{'(build + run seconds)':<22} {span_total:>8.3f} {profile_total:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
