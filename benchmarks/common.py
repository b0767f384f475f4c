"""Shared infrastructure for the paper-reproduction benches.

Every bench regenerates one table or figure of the paper: it runs the
simulator at bench scale, renders the same rows/series the paper prints,
writes the rendering to ``benchmarks/results/<name>.txt`` (so the output
survives pytest's capture) and asserts the paper's *qualitative* claims —
who wins, roughly by how much, where the crossovers sit.

Scale knob: set ``REPRO_BENCH_SCALE`` (default 1) to multiply the number of
simulated accesses; 4 gives smoother numbers at ~4x the wall time.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.sim import EngineConfig
from repro.units import MIB

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Host wall-clock measurements (``perf/``) change on every run and every
#: machine, so they land in this gitignored directory, not ``results/``.
HOST_RESULTS_DIR = Path(__file__).resolve().parent / ".host-results"

#: Accesses per simulated thread at scale 1.
BASE_ACCESSES = 8_000
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))

#: Footprints at bench scale (see DESIGN.md "Scaling rule").
FOOTPRINT_MS = 64 * MIB
FOOTPRINT_WM = 64 * MIB

#: Mitosis-vs-baseline pairs per figure (the paper's on-bar annotations).
FIG9_PAIRS = {"F+M": "F", "F-A+M": "F-A", "I+M": "I"}
FIG9T_PAIRS = {"TF+M": "TF", "TF-A+M": "TF-A", "TI+M": "TI"}

#: Paper-reported Mitosis speedups, for the side-by-side columns.
PAPER_FIG9A = {  # workload -> {config-pair: speedup}
    "canneal": {"F+M": 1.17, "F-A+M": 1.13, "I+M": 1.34},
    "memcached": {"F+M": 1.14, "F-A+M": 1.12, "I+M": 1.24},
    "xsbench": {"F+M": 1.12, "F-A+M": 1.10, "I+M": 1.16},
    "graph500": {"F+M": 1.07, "F-A+M": 1.02, "I+M": 1.05},
    "hashjoin": {"F+M": 1.04, "F-A+M": 1.02, "I+M": 1.03},
    "btree": {"F+M": 1.08, "F-A+M": 1.09, "I+M": 1.02},
}
PAPER_FIG10A = {  # workload -> RPI-LD / LP-LD slowdown repaired by Mitosis
    "gups": 3.24,
    "btree": 1.97,
    "hashjoin": 2.10,
    "redis": 1.80,
    "xsbench": 1.44,
    "pagerank": 1.83,
    "liblinear": 1.42,
    "canneal": 1.95,
}
PAPER_FIG10B = {
    "gups": 1.00,
    "btree": 1.02,
    "hashjoin": 1.00,
    "redis": 1.70,
    "xsbench": 1.00,
    "pagerank": 1.00,
    "liblinear": 1.31,
    "canneal": 2.35,
}
PAPER_FIG11 = {"xsbench": 2.73, "redis": 1.70, "gups": 1.08}
PAPER_TABLE5 = {  # operation -> region -> overhead ratio
    "mmap": {"4KB": 1.021, "8MB": 1.008, "4GB": 1.006},
    "mprotect": {"4KB": 1.121, "8MB": 3.238, "4GB": 3.279},
    "munmap": {"4KB": 1.043, "8MB": 1.354, "4GB": 1.393},
}


def engine(accesses: int = BASE_ACCESSES, **kwargs) -> EngineConfig:
    """Bench-scale engine configuration."""
    return EngineConfig(accesses_per_thread=accesses * SCALE, **kwargs)


def write_result(name: str, text: str, directory: Path = RESULTS_DIR) -> Path:
    """Persist a rendered table/figure under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def emit(name: str, text: str, directory: Path = RESULTS_DIR) -> None:
    """Write the rendering to disk and echo it (visible with ``pytest -s``)."""
    path = write_result(name, text, directory)
    print(f"\n[{name}] written to {path}\n{text}")
