"""In-memory span recorder for the benchmark's traced cells.

The recorder wraps the public functions of each simulator layer at run
time (nothing under ``src/`` is edited) and keeps one span per call in
four flat integer arrays: name id, parent span index, start and end in
``perf_counter_ns``. A layer's *self time* is the duration of its spans
minus the part their child spans cover; summed over every span, self
times add up to the root span's duration exactly.

Code the vector engine inlines (TLB probes, the replay of batched L1
hits) has no call to wrap: its time lands in the self time of
``Simulator.run`` (``sim.engine``).

Read a saved trace with::

    python3 hostbench/spans.py .hostbench/traces/<workload>-seed<seed>.npz
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

#: ``(module, attribute path, span name)`` for every wrapped function. The
#: span name is the layer; ``kernel.fault`` spans are further split by the
#: phase (``build``/``run``) that encloses them.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.run", "sim.engine"),
    ("repro.tlb.tlb", "TlbHierarchy.insert", "tlb.fill"),
    ("repro.tlb.mmu_cache", "MmuCaches.lookup", "tlb.psc"),
    ("repro.tlb.mmu_cache", "MmuCaches.insert", "tlb.psc"),
    ("repro.tlb.shootdown", "TlbShootdown.flush_all", "tlb.shootdown"),
    ("repro.tlb.shootdown", "TlbShootdown.flush_page", "tlb.shootdown"),
    ("repro.paging.walker", "HardwareWalker.walk", "paging.walk"),
    ("repro.paging.walker", "HardwareWalker.walk_into", "paging.walk"),
    ("repro.cache.llc", "SocketLlc.access", "cache.llc"),
    ("repro.kernel.fault", "PageFaultHandler.handle", "kernel.fault"),
    ("repro.kernel.swap", "SwapManager.reclaim", "kernel.swap"),
    ("repro.kernel.swap", "SwapManager.swap_out", "kernel.swap"),
    ("repro.kernel.swap", "SwapManager.swap_in", "kernel.swap"),
    ("repro.kernel.autonuma", "AutoNuma.balance", "kernel.autonuma"),
    ("repro.kernel.autonuma", "AutoNuma.record_access", "kernel.autonuma"),
    ("repro.kernel.syscalls", "VmSyscalls.sys_mmap", "kernel.syscall"),
    ("repro.kernel.syscalls", "VmSyscalls.sys_mprotect", "kernel.syscall"),
    ("repro.kernel.syscalls", "VmSyscalls.sys_munmap", "kernel.syscall"),
    ("repro.kernel.pvops", "NativePagingOps.set_pte", "kernel.native_pvops"),
    ("repro.kernel.pvops", "NativePagingOps.alloc_table", "kernel.native_pvops"),
    ("repro.kernel.pvops", "NativePagingOps.release_table", "kernel.native_pvops"),
    ("repro.mem.physmem", "PhysicalMemory.alloc_frame", "mem.alloc"),
    ("repro.mem.physmem", "PhysicalMemory.alloc_huge_frame", "mem.alloc"),
    ("repro.mem.physmem", "PhysicalMemory.free", "mem.alloc"),
    ("repro.mitosis.backend", "MitosisPagingOps.set_pte", "mitosis.pvops"),
    ("repro.mitosis.backend", "MitosisPagingOps.alloc_table", "mitosis.pvops"),
    ("repro.mitosis.backend", "MitosisPagingOps.release_table", "mitosis.pvops"),
    ("repro.mitosis.backend", "MitosisPagingOps.clear_ad_bits", "mitosis.pvops"),
    ("repro.mitosis.manager", "MitosisManager.replicate_where_running", "mitosis.replicate"),
    ("repro.mitosis.manager", "MitosisManager.replicate_on_all_sockets", "mitosis.replicate"),
    # measure()'s report calls dump_tree through repro.sim.scenario's
    # binding; both names get the one wrapper.
    ("repro.paging.dump", "dump_tree", "paging.dump"),
    ("repro.sim.scenario", "dump_tree", "paging.dump"),
)

#: Workload stream generators, wrapped on every registered workload class.
STREAM_METHODS = ("offsets", "writes")
STREAM_SPAN = "workloads.stream"

#: Phase spans opened by the cell itself. Their self time is glue code
#: outside every wrapped layer.
PHASES = ("cell", "cli.import", "build", "run")

_NO_PARENT = -1


def resolve(module: str, path: str):
    """``(owner, attribute, function)`` for one target."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


def stream_targets():
    """``(owner, attribute, function)`` for every workload stream method
    defined in a registered workload class (or their common base)."""
    from repro.workloads.base import Workload
    from repro.workloads.registry import WORKLOADS

    for cls in (Workload, *WORKLOADS.values()):
        for attr in STREAM_METHODS:
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                yield cls, attr, fn


class SpanRecorder:
    """Spans of one cell, recorded in call order (a parent always has a
    smaller index than its children)."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [_NO_PARENT]
        #: Innermost open phase; splits ``kernel.fault`` into build/run.
        self.phase_name = "cell"
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, start: int | None = None) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(self.clock() if start is None else start)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> int:
        if self._stack[-1] != idx:
            raise RuntimeError(f"span {self.names[self.name[idx]]} closed out of order")
        self.end[idx] = now = self.clock()
        self._stack.pop()
        return now

    @contextmanager
    def phase(self, name: str):
        """A span opened by the cell itself around one of its phases."""
        outer = self.phase_name
        self.phase_name = name
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)
            self.phase_name = outer

    def duration_ns(self, name: str) -> int:
        """Total inclusive duration of every span called ``name``."""
        nid = self._ids.get(name)
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == nid
        )

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, span: str):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock
        # Fault spans get their own wrapper so the phase lookup stays off
        # every other layer's per-call path.
        if span == "kernel.fault":
            build_id = self._id("kernel.fault@build")
            run_id = self._id("kernel.fault@run")
            recorder = self

            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(build_id if recorder.phase_name == "build" else run_id)
                parents.append(stack[-1])
                starts.append(clock())
                ends.append(0)
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
        else:
            nid = self._id(span)

            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(clock())
                ends.append(0)
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap every target (or only the spans named in ``only``)."""
        wrapped: dict[int, object] = {}
        targets = [(*resolve(m, p), span) for m, p, span in TARGETS]
        targets += [(*t, STREAM_SPAN) for t in stream_targets()]
        for owner, attr, fn, span in targets:
            if only is not None and span not in only:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, span)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self):
        import numpy as np

        return (
            np.frombuffer(self.name, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def save(self, path: str, cell_id: str) -> None:
        import numpy as np

        name, parent, start, end = self.arrays()
        np.savez(
            path, names=np.array(self.names), name=name, parent=parent,
            start=start, end=end, cell=np.array(cell_id),
        )


def self_times(names, name, parent, start, end) -> dict[str, tuple[float, int]]:
    """``{span name: (self seconds, calls)}`` over one cell's spans."""
    import numpy as np

    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - covered
    self_ns = np.bincount(name, weights=own, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    return {n: (float(self_ns[i]) / 1e9, int(calls[i])) for i, n in enumerate(names)}


def inclusive_times(names, name, parent, start, end) -> dict[str, float]:
    """``{span name: seconds}`` inside the outermost span of each name:
    a span nested (at any depth) in a span of the same name is skipped,
    so recursion and same-layer nesting count once."""
    dur = end - start
    width = len(names)
    # Bitmask of span names open above each span (parents precede children).
    above = [0] * len(name)
    total = [0] * width
    name_l, parent_l, dur_l = name.tolist(), parent.tolist(), dur.tolist()
    for i, nid in enumerate(name_l):
        p = parent_l[i]
        mask = (above[p] | (1 << name_l[p])) if p >= 0 else 0
        above[i] = mask
        if not mask >> nid & 1:
            total[nid] += dur_l[i]
    return {n: total[i] / 1e9 for i, n in enumerate(names)}


def load(path: str):
    """``(names, name, parent, start, end, cell id)`` of a saved trace."""
    import numpy as np

    with np.load(path) as data:
        return (
            [str(n) for n in data["names"]],
            data["name"], data["parent"], data["start"], data["end"],
            str(data["cell"]),
        )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    names, name, parent, start, end, cell = load(argv[0])
    own = self_times(names, name, parent, start, end)
    incl = inclusive_times(names, name, parent, start, end)
    total = sum(s for s, _ in own.values())
    print(f"cell {cell}: {len(name)} spans, {total:.3f} s")
    print(f"{'span':<24} {'calls':>9} {'self s':>9} {'self %':>7} {'incl s':>9}")
    for n, (s, calls) in sorted(own.items(), key=lambda kv: -kv[1][0]):
        print(f"{n:<24} {calls:>9} {s:>9.4f} {100 * s / total:>6.1f}% {incl[n]:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
