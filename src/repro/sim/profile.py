"""Profiling harness: where does a simulated run spend its wall-clock?

Perf work on the simulator needs a measurement loop, not guesses.  This
module provides the two complementary views ``python -m repro profile``
reports:

* **Stage timers** — coarse wall-clock per pipeline stage (generate, warm,
  simulate, collect; plus preload/schedule/validate for DX100 runs),
  accumulated by :class:`StageTimers` context managers threaded through
  :mod:`repro.sim.runner`.  Passing no timers costs nothing: the runner
  defaults to a shared null object whose ``stage`` returns a reusable
  no-op context.
* **Component attribution** — cProfile's per-function ``tottime`` folded
  up to the ``repro`` subpackage that owns the function (dram, cache,
  core, dx100, ...), so a run answers "the DRAM model is 40% of wall"
  directly, plus the raw top-N hotspot list for drilling in.

:func:`profile_run` produces a schema-versioned report dict; the CLI
pretty-prints it and can write it as JSON for tracking perf trajectories
alongside ``BENCH_mainsweep.json``.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

#: Bump when the report dict's shape changes incompatibly.
PROFILE_SCHEMA = 1

_SRC_ROOT = str(Path(__file__).resolve().parents[1])  # .../src/repro


class StageTimers:
    """Named wall-clock accumulators for coarse pipeline stages."""

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        """Context manager accumulating the block's wall time under ``name``."""
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def as_dict(self) -> dict[str, float]:
        return {name: round(total, 6) for name, total in self.totals.items()}


class _NullTimers:
    """Zero-overhead stand-in used when no profiling was requested."""

    __slots__ = ()
    totals: dict[str, float] = {}

    _CTX = nullcontext()

    def stage(self, name: str):
        return self._CTX

    def as_dict(self) -> dict[str, float]:
        return {}


#: Shared do-nothing timer the runner defaults to.
NULL_TIMERS = _NullTimers()


def _component_of(filename: str) -> str:
    """Map a profiled function's file to the repro subpackage owning it."""
    if filename.startswith(_SRC_ROOT):
        rel = filename[len(_SRC_ROOT):].lstrip("/")
        head = rel.split("/", 1)[0]
        if head.endswith(".py"):
            return head[:-3] or "repro"
        return head
    return "stdlib/other"


#: (module-basename, function-name) -> pipeline stage.  Function names win
#: over the per-file fallbacks below so fused batched kernels and their
#: scalar twins land in the same row.
_STAGE_FUNCS = {
    # Tag-array interrogation (scalar Cache methods).
    ("cache.py", "hit"): "cache:tag-lookup",
    ("cache.py", "lookup"): "cache:tag-lookup",
    ("cache.py", "touch"): "cache:tag-lookup",
    ("cache.py", "line_addr"): "cache:tag-lookup",
    # Fills and evictions.
    ("cache.py", "insert"): "cache:fill",
    ("cache.py", "invalidate"): "cache:fill",
    ("hierarchy.py", "_fill"): "cache:fill",
    ("hierarchy.py", "_prefetch_fill"): "cache:fill",
    ("hierarchy.py", "prefetch_into"): "cache:fill",
    ("batched.py", "_prefetch_fill"): "cache:fill",
    ("batched.py", "prefetch_into"): "cache:fill",
    # MSHR adjudication.
    ("hierarchy.py", "_stall_for_mshr"): "cache:mshr",
    # ROB drain: retirement and completion on both front-ends.
    ("ooo.py", "_retire_oldest"): "core:rob-drain",
    ("ooo.py", "_drain_iq"): "core:rob-drain",
    ("ooo.py", "_complete"): "core:rob-drain",
    ("ooo.py", "drain"): "core:rob-drain",
    ("batched.py", "_drain_iq"): "core:rob-drain",
    ("batched.py", "_complete"): "core:rob-drain",
    ("batched.py", "drain"): "core:rob-drain",
}

#: subpackage-or-module fallback -> stage, applied when no function rule
#: matched.  ``cache/batched.py``'s fused walk deliberately lands in
#: ``cache:walk``: it *is* tag lookup + MSHR + fill in one body, and
#: splitting it would require instrumentation the un-instrumented sweep
#: must not carry.
_STAGE_FILES = {
    ("cache", "mshr.py"): "cache:mshr",
    ("cache", "prefetcher.py"): "cache:prefetch",
    ("prefetch", None): "cache:prefetch",
    ("cache", None): "cache:walk",
    ("core", "trace.py"): "core:trace",
    ("core", None): "core:dispatch",
    ("dram", "address.py"): "dram:decode",
    ("dram", None): "dram:engine",
    ("dx100", None): "dx100",
    ("workloads", None): "workloads:gen",
}


def _stage_of(filename: str, func: str) -> str:
    """Pipeline-stage attribution for one profiled function."""
    if not filename.startswith(_SRC_ROOT):
        return "other"
    rel = filename[len(_SRC_ROOT):].lstrip("/")
    parts = rel.split("/")
    base = parts[-1]
    head = parts[0]
    stage = _STAGE_FUNCS.get((base, func))
    if stage is not None and (head in ("cache", "core", "prefetch")):
        return stage
    stage = _STAGE_FILES.get((head, base))
    if stage is not None:
        return stage
    stage = _STAGE_FILES.get((head, None))
    if stage is not None:
        return stage
    return "sim:other"


def stage_breakdown(stats: pstats.Stats) -> dict[str, float]:
    """Fold cProfile ``tottime`` into pipeline-stage rows.

    The rows answer the perf questions the sweep record tracks over time:
    how much wall goes to tag lookup, MSHR adjudication, fills, prefetch
    engines, ROB drain, dispatch, trace construction, and the DRAM
    engine — independent of which front-end or engine produced them.
    """
    stages: dict[str, float] = {}
    for (filename, _line, func), entry in stats.stats.items():
        tottime = entry[2]
        stage = _stage_of(filename, func)
        stages[stage] = stages.get(stage, 0.0) + tottime
    return {k: round(v, 6) for k, v in
            sorted(stages.items(), key=lambda kv: -kv[1])}


def _relative(filename: str) -> str:
    root = str(Path(_SRC_ROOT).parents[1])  # the repo root
    if filename.startswith(root):
        return filename[len(root):].lstrip("/")
    return filename


def summarize_profile(stats: pstats.Stats, top: int = 25,
                      ) -> tuple[list[dict], dict[str, float]]:
    """Fold raw cProfile stats into (top-N hotspots, per-component seconds).

    Hotspots are ranked by ``tottime`` (time inside the function itself,
    excluding callees) because that is what an optimization can actually
    remove; ``cumtime`` is reported alongside for context.  Component
    seconds sum each function's tottime into the ``repro`` subpackage that
    owns its source file, with everything outside the package pooled under
    ``stdlib/other``.
    """
    rows = []
    components: dict[str, float] = {}
    for (filename, line, func), entry in stats.stats.items():
        cc, ncalls, tottime, cumtime = entry[0], entry[1], entry[2], entry[3]
        components[_component_of(filename)] = (
            components.get(_component_of(filename), 0.0) + tottime)
        rows.append({
            "function": func,
            "file": _relative(filename),
            "line": line,
            "ncalls": ncalls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    rows.sort(key=lambda r: r["tottime_s"], reverse=True)
    components = {k: round(v, 6) for k, v in
                  sorted(components.items(), key=lambda kv: -kv[1])}
    return rows[:top], components


def profile_run(benchmark: str = "IS", mode: str = "baseline",
                quick: bool = True, top: int = 25) -> dict:
    """Profile one (benchmark, mode) run; returns the structured report.

    The run itself is a plain :func:`repro.sim.runner.run_baseline` /
    ``run_dx100`` call — same configs the sweep uses — executed under
    cProfile with a :class:`StageTimers` threaded through, so the report's
    numbers describe exactly the code the sweep exercises.
    """
    # Imported here so that `import repro.sim.profile` stays dependency-free
    # for the runner (which imports NULL_TIMERS from this module).
    from repro.sim.runner import run_baseline, run_dx100
    from repro.sim.sweep import CONFIG_BUILDERS
    from repro.workloads import MAIN_BENCHMARKS, QUICK_BENCHMARKS

    registry = QUICK_BENCHMARKS if quick else MAIN_BENCHMARKS
    if benchmark not in registry:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    if mode not in CONFIG_BUILDERS:
        raise ValueError(
            f"unknown mode {mode!r} (want {sorted(CONFIG_BUILDERS)})")
    workload = registry[benchmark]()
    config = CONFIG_BUILDERS[mode](4)

    timers = StageTimers()
    profiler = cProfile.Profile()
    t0 = perf_counter()
    profiler.enable()
    if mode == "dx100":
        result = run_dx100(workload, config, warm=False, timers=timers)
    else:
        result = run_baseline(workload, config, warm=False, timers=timers)
    profiler.disable()
    wall = perf_counter() - t0

    stats = pstats.Stats(profiler)
    hotspots, components = summarize_profile(stats, top)
    return {
        "schema": PROFILE_SCHEMA,
        "benchmark": benchmark,
        "mode": mode,
        "quick": quick,
        "frontend": config.frontend,
        "wall_s": round(wall, 6),
        "stages_s": timers.as_dict(),
        "components_s": components,
        "pipeline_stages_s": stage_breakdown(stats),
        "hotspots": hotspots,
        "result": {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "dram_requests": result.dram_requests,
            "dram_bytes": result.dram_bytes,
            "bandwidth_utilization": result.bandwidth_utilization,
            "row_buffer_hit_rate": result.row_buffer_hit_rate,
        },
    }


def profile_tasks(tasks) -> dict:
    """Profile a list of :class:`~repro.sim.sweep.SweepTask` serially.

    One cProfile session accumulates across every task, so the folded
    components and pipeline-stage rows describe the *whole grid* the way
    ``BENCH_mainsweep.json`` tracks it.  Runs everything in-process with
    no cache — this is the instrumented second pass behind
    ``python -m repro sweep --profile``; the un-instrumented wall-clock is
    measured separately by the sweep itself.
    """
    from repro.sim.sweep import execute_task

    profiler = cProfile.Profile()
    t0 = perf_counter()
    profiler.enable()
    for task in tasks:
        execute_task(task)
    profiler.disable()
    wall = perf_counter() - t0
    stats = pstats.Stats(profiler)
    _, components = summarize_profile(stats, top=0)
    return {
        "profile_wall_s": round(wall, 3),
        "profile_components_s": components,
        "profile_stages_s": stage_breakdown(stats),
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_run` report."""
    lines = [
        f"profile: {report['benchmark']} [{report['mode']}]"
        f"{' (quick)' if report['quick'] else ''} — "
        f"{report['wall_s']:.3f}s wall, "
        f"{report['result']['cycles']} cycles",
        "",
        "stages (wall seconds):",
    ]
    for name, secs in report["stages_s"].items():
        lines.append(f"  {name:<10s} {secs:9.3f}")
    lines.append("")
    lines.append("components (cProfile tottime, seconds):")
    for name, secs in report["components_s"].items():
        lines.append(f"  {name:<14s} {secs:9.3f}")
    lines.append("")
    lines.append("pipeline stages (cProfile tottime, seconds):")
    for name, secs in report.get("pipeline_stages_s", {}).items():
        lines.append(f"  {name:<18s} {secs:9.3f}")
    lines.append("")
    lines.append(f"top {len(report['hotspots'])} hotspots by tottime:")
    lines.append(f"  {'tottime':>9s} {'cumtime':>9s} {'ncalls':>9s}  function")
    for h in report["hotspots"]:
        lines.append(
            f"  {h['tottime_s']:9.3f} {h['cumtime_s']:9.3f} "
            f"{h['ncalls']:>9d}  {h['function']} "
            f"({h['file']}:{h['line']})")
    return "\n".join(lines)
