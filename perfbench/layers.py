"""Outside-in layer tracing for the benchmark's traced runs.

The traced run wraps each layer's public entry points (class methods, or
bound methods on a workload instance) with a timing shim.  Every wrapped
call pushes a frame on one stack; on return its duration is charged to the
caller's frame, so a layer's *self time* is its calls' duration minus the
part covered by nested wrapped calls.  High-frequency calls (about a
million cache and DRAM calls per main workload) are aggregated per
(task, layer) rather than kept as spans.

Times are integer nanoseconds from ``perf_counter_ns``, so the accounting
identity -- layer self times plus the unattributed remainder equal the
task's traced time -- holds exactly and is checked with ``==``.

Nothing here edits ``src/``: :func:`install` patches attributes at run
time and returns a function that restores them.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns

#: The root frame of a task: whatever no wrapped layer covers.
UNATTRIBUTED = "unattributed"

#: Workload methods wrapped per instance (the subclasses override them).
WORKLOAD_METHODS = ("generate", "baseline_traces", "dx100_schedule",
                    "validate_dx")


def entry_points() -> dict[str, list[tuple[type, str]]]:
    """layer -> [(class, method)] wrapped at class level.

    Both front-ends' classes are listed; a method is wrapped only on the
    class whose ``__dict__`` defines it, so an override is never wrapped
    twice through inheritance.
    """
    from repro.cache.batched import BatchedHierarchy
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.core.batched import BatchedMulticore
    from repro.core.multicore import Multicore
    from repro.dram.remote import RemoteLink
    from repro.dram.system import DRAMSystem
    from repro.dx100.accelerator import DX100
    from repro.prefetch.dmp import DMPEngine

    cache_methods = ("access", "access_lines", "llc_access")
    return {
        "core": [(Multicore, "run"), (BatchedMulticore, "run")],
        "cache": [(cls, m) for cls in (MemoryHierarchy, BatchedHierarchy)
                  for m in cache_methods],
        "prefetch": [(DMPEngine, "observe")],
        "dx100": [(DX100, "dispatch"), (DX100, "wait")],
        "dram": [(DRAMSystem, m)
                 for m in ("access", "enqueue", "complete", "drain")],
        "dram.remote": [(RemoteLink, "inject"), (RemoteLink, "deliver")],
    }


class LayerTracer:
    """Per-(task, layer) call counts and self times on one call stack."""

    def __init__(self, clock=perf_counter_ns) -> None:
        self.clock = clock
        # One frame per open wrapped call: [ns its nested wrapped calls took].
        self._stack: list[list] = []
        self.task: str | None = None
        self.calls: dict[tuple[str, str], int] = {}
        self.self_ns: dict[tuple[str, str], int] = {}
        self.task_ns: dict[str, int] = {}

    def wrap(self, layer: str, fn):
        """``fn`` wrapped so each call is charged to ``layer``."""
        stack = self._stack
        clock = self.clock
        calls = self.calls
        self_ns = self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = (self.task, layer)
                calls[key] = calls.get(key, 0) + 1
                self_ns[key] = self_ns.get(key, 0) + duration - frame[0]
        return traced

    def run_task(self, label: str, fn, *args, **kwargs):
        """Call ``fn`` as task ``label``: its root frame collects the time
        no wrapped layer covers, under :data:`UNATTRIBUTED`."""
        if self._stack:
            raise RuntimeError("a task started inside another wrapped call")
        self.task = label
        frame = [0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self._stack.pop()
            key = (label, UNATTRIBUTED)
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_ns[key] = self.self_ns.get(key, 0) + duration - frame[0]
            self.task_ns[label] = self.task_ns.get(label, 0) + duration
            self.task = None

    def wrap_instance(self, obj, layer: str, names) -> None:
        """Shadow ``obj``'s bound methods ``names`` with wrapped ones."""
        for name in names:
            setattr(obj, name, self.wrap(layer, getattr(obj, name)))

    # ------------------------------------------------------------ results

    def per_task(self) -> dict[str, dict[str, dict]]:
        """task -> layer -> {"calls", "self_ns"}."""
        out: dict[str, dict[str, dict]] = {}
        for (task, layer), ns in self.self_ns.items():
            out.setdefault(task, {})[layer] = {
                "calls": self.calls[(task, layer)], "self_ns": ns}
        return out

    def accounting_errors(self) -> list[str]:
        """Why the per-task accounting does not hold (empty when it does).

        Each wrapped call's duration is its self time plus its children's
        durations, so a task's layer self times must sum to its traced
        time exactly; a negative self time means a call was charged more
        child time than it lasted.  Either one means a broken stack.
        """
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} frames left on the stack")
        for task, layers in self.per_task().items():
            total = sum(v["self_ns"] for v in layers.values())
            traced = self.task_ns.get(task)
            if traced is None:
                problems.append(f"{task}: calls outside any task")
            elif total != traced:
                problems.append(f"{task}: layer self times sum to {total} "
                                f"ns, traced time is {traced} ns")
            for layer, v in layers.items():
                if v["self_ns"] < 0:
                    problems.append(f"{task}/{layer}: negative self time")
        return problems


def install(tracer: LayerTracer):
    """Wrap every layer entry point; returns the function that undoes it."""
    originals = []
    for layer, points in entry_points().items():
        for cls, name in points:
            if name in cls.__dict__:
                fn = cls.__dict__[name]
                originals.append((cls, name, fn))
                setattr(cls, name, tracer.wrap(layer, fn))

    def uninstall() -> None:
        for cls, name, fn in reversed(originals):
            setattr(cls, name, fn)
    return uninstall
