"""One pass of one benchmark workload, in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python3 perfbench/one_pass.py --workload
NAME --seed N --trace 0|1`` with ``src`` on ``PYTHONPATH``; prints one
JSON object.  The pass imports ``repro``, builds the workload's task list
with :func:`repro.sim.sweep.main_sweep_tasks`, and runs it through
:func:`repro.sim.sweep.run_sweep` (``jobs=1``, run cache off), which
pauses the GC per task exactly as ``python -m repro sweep`` does.

Three hooks are installed from here, each a few calls per run:

* ``repro.sim.sweep.execute_task`` is wrapped so each task gets a workload
  built with the benchmark's seed (``execute_task(task, workload=...)``)
  and is timed; an exception is recorded as a failed run;
* the runner's ``run_baseline`` / ``run_dx100`` get a
  :class:`~repro.sim.profile.StageTimers` subclass, whose ``simulate``
  stage marks where a run's set-up ends;
* the runner's ``SimSystem`` is subclassed to keep the finished system,
  whose components' ``.stats`` hold the simulated per-layer counters.

Before each task the pass runs :func:`probe`, whose speed ``run.py`` uses
to scale host times.  With ``--trace 1`` the layers' entry points are
wrapped too (:mod:`layers`).  Results files, the run cache and golden
files are only ever read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
from contextlib import contextmanager
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

from layers import WORKLOAD_METHODS, LayerTracer, install
from workloads import WORKLOADS, seeded_factory


#: Host-speed probe iterations per pass, spread evenly over its tasks.
PROBE_ITERATIONS = 750_000


def probe(iterations: int) -> None:
    """Fixed pure-Python work -- dict updates and a small heap, the kind of
    work the simulator does -- that touches no ``repro`` code.  Its time
    tracks how fast this host runs Python right now; ``run.py`` scales
    host times by it.  The GC is off, as in a task, so the probe's cost
    does not depend on how many objects earlier tasks left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict[int, int] = {}
        heap: list = []
        for i in range(iterations):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + i
            heappush(heap, (key, i))
            if len(heap) > 64:
                heappop(heap)
    finally:
        if enabled:
            gc.enable()


def sim_counters(result, system) -> dict:
    """The run's simulated counters: golden fields plus component stats.

    Host time never enters here, so two runs of the same code and seed
    must agree on every value.
    """
    from repro.sim.sweep import GOLDEN_FIELDS
    counters = {f: getattr(result, f) for f in GOLDEN_FIELDS}
    if system is None:
        return counters
    core = system.multicore.merged_stats()
    hier = system.hierarchy.stats
    dram = system.dram.merged_stats()
    counters.update({
        "core_instructions": core.get("instructions"),
        "rob_stalls": core.get("rob_stalls"),
        "l1_hits": hier.get("l1_hits"),
        "l1_accesses": hier.get("l1_accesses"),
        "llc_misses": hier.get("llc_misses") - hier.get("spd_fills"),
        "llc_mshr_coalesced": hier.get("llc_mshr_coalesced"),
        "dmp_prefetches": (system.dmp.stats.get("dmp_prefetches")
                           if system.dmp is not None else 0.0),
        "dmp_prefetch_issued": hier.get("dmp_prefetch_issued"),
        "dx100_instructions": result.extra.get("dx100_instructions", 0.0),
        "coalescing": result.extra.get("coalescing"),
        "dram_serviced": dram.get("serviced"),
        "dram_writes": dram.get("writes"),
        "dram_row_hits": dram.get("row_hits"),
        "dram_row_conflicts": dram.get("row_conflicts"),
        "far_serviced": dram.get("far_serviced"),
        "link_out_wait": dram.get("link_out_wait"),
        "link_ret_wait": dram.get("link_ret_wait"),
    })
    return counters


def digest(tasks: list[dict]) -> str:
    """Short hash of every task's simulated counters, in task order."""
    blob = json.dumps([[t["label"], t["counters"]] for t in tasks],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class PassHarness:
    """The pass's hooks into ``repro.sim.sweep`` and ``repro.sim.runner``."""

    def __init__(self, factories: dict, tracer: LayerTracer | None,
                 probe_iterations: int) -> None:
        from repro.sim.profile import StageTimers

        harness = self
        self.factories = factories
        self.tracer = tracer
        self.probe_iterations = probe_iterations
        self.probe = {"iterations": 0, "cpu_s": 0.0, "wall_s": 0.0}
        self.tasks: list[dict] = []
        self.spans: list[list] = []
        self._timers = None
        self._system = None

        # Defined here, not at module level: ``repro`` is first imported
        # inside the pass, where the import is timed.
        class SetupTimers(StageTimers):
            """Stage spans, and where ``simulate`` began."""

            def __init__(self, task: str) -> None:
                super().__init__()
                self.task = task
                self.sim_start: int | None = None

            @contextmanager
            def stage(self, name: str):
                start = perf_counter_ns()
                if name == "simulate" and self.sim_start is None:
                    self.sim_start = start
                try:
                    with super().stage(name):
                        yield
                finally:
                    harness.spans.append(
                        [name, self.task, start, perf_counter_ns() - start])

        self.SetupTimers = SetupTimers

    @contextmanager
    def installed(self):
        import repro.sim.runner as runner
        import repro.sim.sweep as sweep

        harness = self
        original = {"execute_task": sweep.execute_task,
                    "run_baseline": runner.run_baseline,
                    "run_dx100": runner.run_dx100,
                    "SimSystem": runner.SimSystem}

        def timed(run):
            def call(*args, **kwargs):
                return run(*args, timers=harness._timers, **kwargs)
            return call

        class RecordingSystem(original["SimSystem"]):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                harness._system = self

        def execute_task(task, workload=None):
            return self._execute(original["execute_task"], task)

        sweep.execute_task = execute_task
        runner.run_baseline = timed(original["run_baseline"])
        runner.run_dx100 = timed(original["run_dx100"])
        runner.SimSystem = RecordingSystem
        uninstall = install(self.tracer) if self.tracer else None
        try:
            yield
        finally:
            if uninstall is not None:
                uninstall()
            sweep.execute_task = original["execute_task"]
            runner.run_baseline = original["run_baseline"]
            runner.run_dx100 = original["run_dx100"]
            runner.SimSystem = original["SimSystem"]

    def _execute(self, execute_task, task):
        from repro.sim.metrics import RunResult

        label = f"{task.benchmark}/{task.mode}"
        self._timers = self.SetupTimers(label)
        self._system = None
        tracer = self.tracer

        def body():
            build = self.factories[task.benchmark]
            if tracer is not None:
                workload = tracer.wrap("workloads", build)()
                tracer.wrap_instance(workload, "workloads", WORKLOAD_METHODS)
            else:
                workload = build()
            return execute_task(task, workload=workload)

        cpu0 = process_time()
        wall0 = perf_counter()
        probe(self.probe_iterations)
        self.probe["iterations"] += self.probe_iterations
        self.probe["cpu_s"] += process_time() - cpu0
        self.probe["wall_s"] += perf_counter() - wall0

        error = None
        cpu0 = process_time()
        start = perf_counter_ns()
        try:
            result, _ = (tracer.run_task(label, body) if tracer is not None
                         else body())
        except Exception as exc:   # a failed run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            result = RunResult(task.benchmark, task.config.name, 0, 0.0,
                               0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        end = perf_counter_ns()
        cpu = process_time() - cpu0
        sim_start = self._timers.sim_start or end
        self.spans.append(["task", label, start, end - start])
        self.tasks.append({
            "label": label,
            "benchmark": task.benchmark,
            "mode": task.mode,
            "error": error,
            "cpu_s": cpu,
            "wall_s": (end - start) / 1e9,
            "setup_s": (sim_start - start) / 1e9,
            "counters": sim_counters(result, None if error
                                     else self._system),
        })
        self._system = None
        return result, (end - start) / 1e9


def golden_failures(workload, seed: int, outcome) -> tuple[list, set]:
    """Golden-field mismatches and the runs they fail, for the workload
    pinned at seed 0 (other seeds draw other inputs)."""
    if not workload.golden or seed != 0:
        return [], set()
    from repro.sim.sweep import diff_golden, golden_snapshot, load_golden
    snapshot = golden_snapshot(outcome)
    golden = load_golden()
    pinned = {bench: {mode: golden[bench][mode] for mode in modes
                      if mode in golden[bench]}
              for bench, modes in snapshot.items() if bench in golden}
    failed = {f"{bench}/{mode}"
              for bench, modes in snapshot.items()
              for mode, fields in modes.items()
              if any(pinned.get(bench, {}).get(mode, {}).get(f) != v
                     for f, v in fields.items())}
    return diff_golden(snapshot, pinned), failed


def run_pass(workload, seed: int, trace: bool) -> dict:
    """Run ``workload`` (a :class:`workloads.Workload`) once; the result
    is what ``perfbench/run.py`` aggregates over passes."""
    t0 = perf_counter()
    import repro.sim.runner  # noqa: F401  (the import is timed)
    from repro.sim.sweep import model_version, run_sweep
    import_s = perf_counter() - t0
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(repro.__file__).resolve().parents[1] != src:
        raise RuntimeError(f"repro was imported from {repro.__file__}, "
                           f"not from this checkout's {src}")

    t1 = perf_counter()
    tasks = workload.tasks()
    factories = {}
    for task in tasks:
        if task.benchmark not in factories:
            factories[task.benchmark] = seeded_factory(task.factory(), seed)
    tasklist_s = perf_counter() - t1

    tracer = LayerTracer() if trace else None
    harness = PassHarness(factories, tracer,
                          PROBE_ITERATIONS // len(tasks))
    with harness.installed():
        cpu0 = process_time()
        start = perf_counter_ns()
        outcome = run_sweep(tasks, jobs=1, cache=False)
        end = perf_counter_ns()
        cpu_s = process_time() - cpu0
    harness.spans.append([workload.name, None, start, end - start])

    runs = harness.tasks
    wall_s = (end - start) / 1e9
    problems, mismatched = golden_failures(workload, seed, outcome)
    for run in runs:
        run["golden_ok"] = run["label"] not in mismatched
    out = {
        "workload": workload.name,
        "seed": seed,
        "traced": trace,
        "import_s": import_s,
        "tasklist_s": tasklist_s,
        "setup_s": import_s + tasklist_s + sum(r["setup_s"] for r in runs),
        # The probe runs inside run_sweep, before each task; it is taken
        # out of the workload's own times here.
        "cpu_s": cpu_s - harness.probe["cpu_s"],
        "wall_s": wall_s - harness.probe["wall_s"],
        "sweep_overhead_s": (wall_s - harness.probe["wall_s"]
                             - sum(r["wall_s"] for r in runs)),
        "probe": harness.probe,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": {
            "model_version": model_version(),
            "dram_engine": sorted({t.config.dram.engine for t in tasks}),
            "frontend": sorted({t.config.frontend for t in tasks}),
        },
        "golden_problems": problems,
        "digest": digest(runs),
        "tasks": runs,
        "spans": [[n, p, s - start, d] for n, p, s, d in harness.spans],
    }
    if tracer is not None:
        out["layers"] = tracer.per_task()
        out["accounting_errors"] = tracer.accounting_errors()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run_pass(WORKLOADS[args.workload], args.seed, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
