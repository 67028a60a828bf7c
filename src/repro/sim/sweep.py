"""Process-parallel experiment executor with a content-addressed run cache.

The paper's evaluation is a sweep: 12 benchmarks x {baseline, DMP, DX100}
(Figures 9-12) plus ablations — dozens of fully independent simulations.
This module fans (workload, config, mode) triples out over
``multiprocessing`` workers and memoizes every finished run in an on-disk
cache keyed by *content*:

    key = sha256(workload name + constructor params,
                 every SystemConfig field,
                 model-version stamp)

where the model-version stamp is a hash of the ``repro`` package's own
source tree, so any model change invalidates exactly the runs it could
affect and an unchanged run is loaded instead of re-simulated.  Execution
is bitwise-deterministic: each run builds a fresh workload from the
registry with its fixed seed, so a parallel sweep returns ``RunResult``
metrics identical to a serial one (``tests/sim/test_sweep.py`` asserts
this, and the golden-metrics harness pins the quick suite's numbers).
Every run generates its own dataset; reusing one dataset's generate stage
across modes is the campaign fabric's job (:mod:`repro.sim.fabric`).

Entry points:

* :func:`run_sweep` — execute a list of :class:`SweepTask`;
* :func:`execute_task` — run one task (``python -m repro run`` and
  ``timeline`` call it directly, with their own event bus);
* :func:`main_sweep_tasks` — the Figure 9-12 benchmark x configuration
  grid (``benchmarks/mainsweep.py``, ``python -m repro sweep``, ``run``
  and ``timeline`` build their tasks with it);
* :func:`write_sweep_records` — the sweep's one record,
  ``results/sweep.json`` (model version, per-run wall and every
  ``RunResult``);
* :func:`golden_snapshot` / :func:`diff_golden` — the quick suite's
  pinned fields (``tests/golden/quick_suite.json``, checked by the
  ``quick`` suite of :mod:`repro.sim.golden`).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.common.config import SystemConfig
from repro.sim.metrics import RunResult
from repro.workloads.registry import SCALES

MODES = ("baseline", "dmp", "dx100")

#: Bump when the metric *semantics* change without a source change that the
#: model-version hash would see (e.g. an external data file).  Part of every
#: cache key.
CACHE_SCHEMA = 1

DEFAULT_CACHE_DIR = Path("results") / ".runcache"

#: RunResult fields pinned by the golden-metrics harness.  ``extra`` is
#: excluded: it carries run-mode-dependent annotations (audit reports,
#: wall-clock) alongside the deterministic counters.
GOLDEN_FIELDS = (
    "cycles", "instructions", "bandwidth_utilization",
    "row_buffer_hit_rate", "request_buffer_occupancy", "llc_mpki",
    "dram_bytes", "dram_requests",
)

GOLDEN_PATH = Path(__file__).resolve().parents[3] / "tests" / "golden" / \
    "quick_suite.json"


# --------------------------------------------------------------------- keys

def model_version() -> str:
    """Hash of the ``repro`` package's source tree (the model itself).

    Any edit to any ``.py`` file under ``src/repro`` yields a new stamp, so
    cached results can never outlive the model that produced them.
    """
    global _MODEL_VERSION
    if _MODEL_VERSION is None:
        root = Path(__file__).resolve().parents[1]
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _MODEL_VERSION = h.hexdigest()[:16]
    return _MODEL_VERSION


_MODEL_VERSION: str | None = None


def workload_fingerprint(workload) -> dict:
    """Name + constructor-visible parameters of a workload instance.

    Only scalar attributes participate: derived state (rng, generated
    arrays, memory handles) is a function of those scalars plus the model
    version, both already in the key.
    """
    params = {
        k: v for k, v in sorted(vars(workload).items())
        if k != "mem"
        and (isinstance(v, (int, float, str, bool)) or v is None)
    }
    return {
        "class": type(workload).__qualname__,
        "name": workload.name,
        "params": params,
    }


@dataclass(frozen=True)
class SweepTask:
    """One independent simulation: a (workload, config, mode) triple."""

    benchmark: str            # registry name, e.g. "IS"
    mode: str                 # baseline | dmp | dx100
    scale: str                # a SCALES key: quick | main | full
    config: SystemConfig
    warm: bool = False
    #: Observability sampling period in cycles (0 = off).  When nonzero the
    #: run attaches a trace-less :class:`repro.obs.events.EventBus` and the
    #: timeline summary lands in ``RunResult.extra`` — so it participates
    #: in the cache key but never in the golden fields.
    sample_every: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (want {MODES})")
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r} (want "
                             f"{', '.join(SCALES)})")
        if self.benchmark not in SCALES[self.scale]:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r} at scale "
                f"{self.scale}: {', '.join(SCALES[self.scale])}")

    def factory(self):
        return SCALES[self.scale][self.benchmark]

    def key(self) -> str:
        """Content-addressed cache key for this task.

        ``frontend`` and ``scale`` are named explicitly even though both
        are derivable (``config.frontend`` rides in via ``asdict``, and
        the workload fingerprint carries the scale's sizes): the
        simulation front-end and the dataset scale each select a
        different engine/workload pairing, and an aliased cache hit
        across either would silently replay the wrong run.  Keeping them
        as top-level key fields makes that impossible to regress by
        refactoring the config dict.
        """
        payload = {
            "schema": CACHE_SCHEMA,
            "model": model_version(),
            "workload": workload_fingerprint(self.factory()()),
            "mode": self.mode,
            "warm": self.warm,
            "sample_every": self.sample_every,
            "frontend": self.config.frontend,
            "scale": self.scale,
            "config": asdict(self.config),
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def result_to_dict(result: RunResult) -> dict:
    return asdict(result)


def result_from_dict(d: dict) -> RunResult:
    return RunResult(**d)


# -------------------------------------------------------------------- cache

class RunCache:
    """Content-addressed on-disk store of finished ``RunResult``s.

    One JSON file per key.  Keys embed the model-version stamp, so
    invalidation is automatic — stale entries are simply never addressed
    again (``prune`` deletes them).
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        env = os.environ.get("REPRO_CACHE_DIR")
        self.directory = Path(directory or env or DEFAULT_CACHE_DIR)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> RunResult | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            return result_from_dict(payload["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return None   # corrupt entry: fall through to a re-run

    def store(self, key: str, task: SweepTask, result: RunResult) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "model": model_version(),
            "benchmark": task.benchmark,
            "mode": task.mode,
            "scale": task.scale,
            "result": result_to_dict(result),
        }
        # Per-process temp name: concurrent sweeps (or a sweep racing a
        # test run) may store the same key at once, and a shared tmp file
        # would let one writer rename the other's half-written payload.
        tmp = self.directory / f"{key}.{os.getpid()}.tmp"
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(self._path(key))   # atomic vs concurrent sweeps
        finally:
            tmp.unlink(missing_ok=True)    # only if the rename never ran

    def prune(self) -> int:
        """Delete stale entries (older model versions, corrupt files left
        by killed writers, orphaned temp files); returns the number
        removed."""
        current = model_version()
        removed = 0
        if not self.directory.exists():
            return 0
        for path in self.directory.glob("*.json"):
            try:
                if json.loads(path.read_text()).get("model") != current:
                    path.unlink()
                    removed += 1
            except Exception:
                # Unreadable, unparseable, or parseable-but-not-a-record
                # (a killed worker can leave literally anything): all are
                # equally dead entries.
                path.unlink(missing_ok=True)
                removed += 1
        for path in self.directory.glob("*.tmp"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# ---------------------------------------------------------------- execution

def execute_task(task: SweepTask, workload=None,
                 obs=None) -> tuple[RunResult, float]:
    """Run one task from scratch; returns (result, wall seconds).

    ``workload`` lets the campaign fabric pass a prepared instance (with
    the generate stage snapshotted by its :class:`GenerateCache`); the
    default builds a fresh one from the registry, which is the path every
    golden metric is pinned against.  ``obs`` is the run's
    :class:`repro.obs.events.EventBus` (``run --trace`` and ``timeline``
    pass their own); by default a nonzero ``task.sample_every`` attaches
    a trace-less one.

    The cyclic GC is paused for the duration of the run: the simulators
    allocate millions of short-lived records (ops, results, heap nodes)
    whose generation scans cost several percent of wall time, and the
    object graph is acyclic by construction, so deferring collection to
    the gaps between tasks loses nothing.
    """
    import gc
    from repro.sim.runner import run_baseline, run_dx100
    t0 = time.perf_counter()
    if workload is None:
        workload = task.factory()()
    if obs is None and task.sample_every:
        from repro.obs.events import EventBus
        obs = EventBus(trace=False, sample_every=task.sample_every)
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if task.mode == "dx100":
            result = run_dx100(workload, task.config, warm=task.warm, obs=obs)
        else:
            result = run_baseline(workload, task.config, warm=task.warm,
                                  obs=obs)
    finally:
        if gc_was_enabled:
            gc.enable()
    return result, time.perf_counter() - t0


def _worker(payload: tuple[int, SweepTask]) -> tuple[int, RunResult, float]:
    index, task = payload
    result, wall = execute_task(task)
    return index, result, wall


@dataclass
class TaskRun:
    """One task's outcome inside a sweep."""

    task: SweepTask
    result: RunResult
    wall: float               # seconds simulating (0.0 for a cache hit)
    cached: bool
    key: str                  # cache key ("" when run without a cache)


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in task order."""

    runs: list[TaskRun]
    jobs: int
    wall: float
    cache_hits: int = 0
    cache_misses: int = 0

    def nested(self) -> dict[str, dict[str, RunResult]]:
        """benchmark -> mode -> RunResult (the mainsweep shape)."""
        out: dict[str, dict[str, RunResult]] = {}
        for run in self.runs:
            out.setdefault(run.task.benchmark, {})[run.task.mode] = run.result
        return out

    def wall_by_benchmark(self) -> dict[str, dict[str, float]]:
        """benchmark -> mode -> simulation wall seconds (0.0 = cache hit).

        The per-(workload, config) wall-clock view the sweep record
        carries, so perf regressions can be pinned to the workload that
        slowed down rather than inferred from the grid total.
        """
        out: dict[str, dict[str, float]] = {}
        for run in self.runs:
            out.setdefault(run.task.benchmark, {})[run.task.mode] = round(
                run.wall, 3)
        return out

    # ------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        return {
            "model_version": model_version(),
            "jobs": self.jobs,
            "wall_s": round(self.wall, 3),
            "wall_by_benchmark": self.wall_by_benchmark(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "runs": [
                {
                    "benchmark": r.task.benchmark,
                    "mode": r.task.mode,
                    "scale": r.task.scale,
                    "key": r.key,
                    "cached": r.cached,
                    "wall_s": round(r.wall, 3),
                    "result": result_to_dict(r.result),
                }
                for r in self.runs
            ],
        }


def default_jobs() -> int:
    """Worker count for the sweep pool: ``REPRO_JOBS`` env override, else
    the scheduling-affinity CPU count (container-aware), else
    ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer (got {env!r})"
            ) from None
        if jobs < 1:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer (got {env!r})")
        return jobs
    # Prefer the scheduling affinity mask: in a container/cgroup the
    # process may be pinned to far fewer CPUs than the host exposes, and
    # os.cpu_count() reports the host, oversubscribing the pool.
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):   # non-Linux platforms
        return os.cpu_count() or 1


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sweep(tasks: list[SweepTask], jobs: int | None = None,
              cache: bool = True,
              cache_dir: str | Path | None = None) -> SweepOutcome:
    """Execute ``tasks``, fanning cache misses out over worker processes.

    ``jobs=None`` uses ``REPRO_JOBS`` or the CPU count; ``jobs=1`` runs
    strictly serially in-process (no pool), which the determinism tests
    compare against the parallel path.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(
            f"sweep needs at least one job, got {jobs} "
            f"(use jobs=None for the REPRO_JOBS/CPU-count default)")
    jobs = default_jobs() if jobs is None else jobs
    store = RunCache(cache_dir) if cache else None
    t0 = time.perf_counter()

    # A key costs a workload construction and a config hash; without a
    # cache there is nothing to address.
    keys = [task.key() if store is not None else "" for task in tasks]
    settled: list[TaskRun | None] = [None] * len(tasks)
    misses: list[int] = []
    hits = 0
    for i, (task, key) in enumerate(zip(tasks, keys)):
        found = store.load(key) if store is not None else None
        if found is not None:
            settled[i] = TaskRun(task, found, 0.0, True, key)
            hits += 1
        else:
            misses.append(i)

    if misses:
        if jobs == 1 or len(misses) == 1:
            fresh = [_worker((i, tasks[i])) for i in misses]
        else:
            ctx = _pool_context()
            with ctx.Pool(processes=min(jobs, len(misses))) as pool:
                fresh = pool.map(_worker, [(i, tasks[i]) for i in misses])
        for index, result, wall in fresh:
            run = TaskRun(tasks[index], result, wall, False, keys[index])
            settled[index] = run
            if store is not None:
                store.store(keys[index], tasks[index], result)

    runs = [r for r in settled if r is not None]
    return SweepOutcome(runs=runs, jobs=jobs,
                        wall=time.perf_counter() - t0,
                        cache_hits=hits, cache_misses=len(misses))


# ------------------------------------------------------- the main-eval grid

CONFIG_BUILDERS = {
    "baseline": SystemConfig.baseline_scaled,
    "dmp": SystemConfig.dmp_scaled,
    "dx100": SystemConfig.dx100_scaled,
}


def main_sweep_tasks(quick: bool = False, benchmarks: list[str] | None = None,
                     modes: tuple[str, ...] = MODES, cores: int = 4,
                     audit: bool = False,
                     sample_every: int = 0,
                     dram: str | None = None) -> list[SweepTask]:
    """The Figure 9-12 grid: every benchmark under every configuration.

    ``dram`` swaps the whole memory technology via
    :data:`repro.common.config.DRAM_PRESETS` (``"cxl"`` puts the pool
    behind the modeled far-memory link); ``audit`` composes on top.
    Paper-scale callers build the main grid and ``replace(task,
    scale="full")``.
    """
    scale = "quick" if quick else "main"
    registry = SCALES[scale]
    names = list(registry) if benchmarks is None else list(benchmarks)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown benchmarks: {', '.join(unknown)}")
    tasks = []
    for name in names:
        for mode in modes:
            config = CONFIG_BUILDERS[mode](cores)
            if dram is not None:
                from repro.common.config import dram_preset
                config = replace(config, dram=dram_preset(dram))
            if audit:
                config = replace(config,
                                 dram=replace(config.dram, audit=True))
            tasks.append(SweepTask(benchmark=name, mode=mode, scale=scale,
                                   config=config,
                                   sample_every=sample_every))
    return tasks


def write_sweep_records(outcome: SweepOutcome,
                        results_dir: str | Path,
                        sweep_json: str | Path | None = None) -> None:
    """Write the sweep record (``to_json_dict``) to ``sweep_json``, or to
    ``sweep.json`` inside ``results_dir`` by default."""
    path = Path(sweep_json) if sweep_json else Path(results_dir) / "sweep.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(outcome.to_json_dict(), indent=2,
                               sort_keys=True) + "\n")


# ------------------------------------------------------ quick-suite goldens

def golden_snapshot(outcome: SweepOutcome) -> dict:
    """``benchmark -> mode -> {field: value}`` for the pinned fields."""
    snapshot: dict[str, dict[str, dict]] = {}
    for name, runs in outcome.nested().items():
        snapshot[name] = {
            mode: {f: getattr(r, f) for f in GOLDEN_FIELDS}
            for mode, r in runs.items()
        }
    return snapshot


def diff_golden(snapshot: dict, golden: dict) -> list[str]:
    """Exact field-by-field diff; empty list means bitwise identical."""
    problems = []
    for name in sorted(set(golden) | set(snapshot)):
        if name not in snapshot:
            problems.append(f"{name}: missing from this run")
            continue
        if name not in golden:
            problems.append(f"{name}: not in the golden file "
                            f"(run `python -m repro golden update quick`)")
            continue
        for mode in sorted(set(golden[name]) | set(snapshot[name])):
            got = snapshot[name].get(mode)
            want = golden[name].get(mode)
            if got is None or want is None:
                problems.append(f"{name}/{mode}: present in only one side")
                continue
            for fld in GOLDEN_FIELDS:
                if got.get(fld) != want.get(fld):
                    problems.append(
                        f"{name}/{mode}.{fld}: got {got.get(fld)!r}, "
                        f"golden {want.get(fld)!r}")
    return problems


def load_golden(path: str | Path | None = None) -> dict:
    return json.loads(Path(path or GOLDEN_PATH).read_text())["metrics"]
