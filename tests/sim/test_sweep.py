"""The sweep executor: determinism, the content-addressed run cache, and
cache-key sensitivity (ISSUE 2's bitwise-identical guarantee)."""

from dataclasses import asdict, replace

import pytest

from repro.common import SystemConfig
from repro.sim import run_baseline, run_dx100
from repro.sim.sweep import (
    RunCache, SweepTask, diff_golden, execute_task, golden_snapshot,
    main_sweep_tasks, model_version, run_sweep, workload_fingerprint,
)
from repro.workloads import FULL_BENCHMARKS, QUICK_BENCHMARKS


def _tasks(benchmarks=("IS",), modes=("baseline", "dx100")):
    return main_sweep_tasks(quick=True, benchmarks=list(benchmarks),
                            modes=modes)


# ------------------------------------------------------------- determinism

def test_parallel_sweep_matches_serial_and_direct_runs():
    """The same quick workload run serially, via the executor with jobs=1,
    and via the executor with jobs=4 yields identical metrics dicts."""
    direct = {
        "baseline": run_baseline(QUICK_BENCHMARKS["IS"](),
                                 SystemConfig.baseline_scaled(), warm=False),
        "dx100": run_dx100(QUICK_BENCHMARKS["IS"](),
                           SystemConfig.dx100_scaled(), warm=False),
    }
    serial = run_sweep(_tasks(), jobs=1, cache=False)
    parallel = run_sweep(_tasks(), jobs=4, cache=False)

    for outcome in (serial, parallel):
        runs = outcome.nested()["IS"]
        for mode, want in direct.items():
            assert asdict(runs[mode]) == asdict(want), mode
    # Without a cache there is nothing to address: no key is computed.
    assert all(run.key == "" for run in serial.runs + parallel.runs)


def test_task_order_is_preserved():
    tasks = _tasks(benchmarks=("IS", "CG"))
    outcome = run_sweep(tasks, jobs=4, cache=False)
    assert [(r.task.benchmark, r.task.mode) for r in outcome.runs] == \
        [(t.benchmark, t.mode) for t in tasks]


# ------------------------------------------------------------------- cache

def test_cache_hit_returns_the_exact_cached_runresult(tmp_path):
    tasks = _tasks()
    cold = run_sweep(tasks, jobs=1, cache=True, cache_dir=tmp_path)
    assert cold.cache_hits == 0 and cold.cache_misses == len(tasks)

    warm = run_sweep(tasks, jobs=1, cache=True, cache_dir=tmp_path)
    assert warm.cache_hits == len(tasks) and warm.cache_misses == 0
    for a, b in zip(cold.runs, warm.runs):
        assert not a.cached and b.cached
        assert asdict(a.result) == asdict(b.result)

    # The store itself round-trips bitwise: load(key) == the stored result.
    store = RunCache(tmp_path)
    for run in cold.runs:
        assert asdict(store.load(run.key)) == asdict(run.result)


def test_corrupt_cache_entry_falls_back_to_a_rerun(tmp_path):
    task = _tasks(modes=("baseline",))[0]
    store = RunCache(tmp_path)
    (store.directory).mkdir(parents=True, exist_ok=True)
    (store.directory / f"{task.key()}.json").write_text("not json{")
    outcome = run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    assert outcome.cache_misses == 1
    assert outcome.runs[0].result.cycles > 0


def test_prune_removes_entries_from_older_models(tmp_path):
    task = _tasks(modes=("baseline",))[0]
    run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    store = RunCache(tmp_path)
    stale = store.directory / ("0" * 64 + ".json")
    stale.write_text('{"model": "not-this-model", "result": {}}')
    assert store.prune() == 1
    assert not stale.exists()
    assert store.load(task.key()) is not None   # current entry survives


# -------------------------------------------------------------------- keys

def test_key_is_stable_and_content_sensitive():
    a, b = _tasks(modes=("baseline",))[0], _tasks(modes=("baseline",))[0]
    assert a.key() == b.key()

    other_mode = replace(a, mode="dx100",
                         config=SystemConfig.dx100_scaled())
    assert other_mode.key() != a.key()

    other_config = replace(a, config=replace(
        a.config, llc=replace(a.config.llc, size_bytes=2560 * 1024)))
    assert other_config.key() != a.key()

    other_size = replace(a, scale="main")  # MAIN vs QUICK constructor params
    assert other_size.key() != a.key()


def test_key_separates_frontends_and_scales():
    """``frontend`` and ``scale`` are explicit top-level key fields: a
    scalar-frontend replay must never alias a batched run's cache entry
    (they are bitwise-equal by contract, but an alias would make the
    differential check vacuous), and quick/main runs of the same workload
    class must never share entries."""
    a = _tasks(modes=("baseline",))[0]
    assert a.config.frontend == "batched"

    scalar = replace(a, config=replace(a.config, frontend="scalar"))
    assert scalar.key() != a.key()
    # Same frontend forced twice hashes identically (no hidden state).
    scalar2 = replace(a, config=replace(a.config, frontend="scalar"))
    assert scalar2.key() == scalar.key()

    import json
    from unittest import mock

    captured = []
    real_dumps = json.dumps

    def spy(payload, **kw):
        captured.append(payload)
        return real_dumps(payload, **kw)

    with mock.patch.object(json, "dumps", side_effect=spy):
        a.key()
    (payload,) = [p for p in captured if isinstance(p, dict)
                  and "frontend" in p]
    assert payload["frontend"] == "batched"
    assert payload["scale"] == "quick"


def test_workload_fingerprint_captures_constructor_params():
    fp_a = workload_fingerprint(QUICK_BENCHMARKS["IS"]())
    fp_b = workload_fingerprint(QUICK_BENCHMARKS["IS"]())
    assert fp_a == fp_b
    assert fp_a["params"]["scale"] == 1 << 12
    assert "rng" not in fp_a["params"] and "mem" not in fp_a["params"]


def test_model_version_is_a_stable_stamp():
    assert model_version() == model_version()
    assert len(model_version()) == 16


def test_unknown_benchmark_and_mode_are_rejected():
    with pytest.raises(KeyError):
        main_sweep_tasks(quick=True, benchmarks=["NOPE"])
    with pytest.raises(ValueError):
        SweepTask(benchmark="IS", mode="turbo", scale="quick",
                  config=SystemConfig.baseline_scaled())


def test_scale_and_benchmark_are_checked_at_construction():
    config = SystemConfig.dx100_scaled()
    with pytest.raises(ValueError, match="at scale full: IS, CG, XRAGE"):
        SweepTask(benchmark="BFS", mode="dx100", scale="full", config=config)
    with pytest.raises(ValueError, match="'huge' .*quick, main, full"):
        SweepTask(benchmark="IS", mode="dx100", scale="huge", config=config)
    # Paper scale is the main grid's task with its scale replaced.
    (task,) = main_sweep_tasks(benchmarks=["CG"], modes=("dx100",))
    assert replace(task, scale="full").factory() is FULL_BENCHMARKS["CG"]


# ------------------------------------------------------------ golden diffs

def test_diff_golden_flags_any_field_change():
    outcome = run_sweep(_tasks(modes=("baseline",)), jobs=1, cache=False)
    snap = golden_snapshot(outcome)
    assert diff_golden(snap, snap) == []

    drifted = {n: {m: dict(f) for m, f in runs.items()}
               for n, runs in snap.items()}
    drifted["IS"]["baseline"]["cycles"] += 1
    problems = diff_golden(snap, drifted)
    assert problems and "IS/baseline.cycles" in problems[0]

    missing = {**snap, "GHOST": {}}
    assert any("GHOST" in p for p in diff_golden(snap, missing))


# --------------------------------------------------------- cache hygiene

def test_store_tmp_name_is_per_process_and_cleaned_up(tmp_path):
    """Concurrent writers must not share a temp file: the staging name
    embeds the pid, and nothing *.tmp survives a successful store."""
    import os

    task = _tasks(modes=("baseline",))[0]
    outcome = run_sweep([task], jobs=1, cache=False)
    store = RunCache(tmp_path)

    seen = []
    original = RunCache._path

    def spy(self, key):
        seen.extend(p.name for p in self.directory.glob("*.tmp"))
        return original(self, key)

    RunCache._path = spy
    try:
        store.store(task.key(), task, outcome.runs[0].result)
    finally:
        RunCache._path = original
    assert any(f".{os.getpid()}.tmp" in name for name in seen)
    assert list(tmp_path.glob("*.tmp")) == []
    assert asdict(store.load(task.key())) == asdict(outcome.runs[0].result)


def test_prune_deletes_orphaned_tmp_files(tmp_path):
    """A writer killed mid-store leaves <key>.<pid>.tmp behind; prune
    sweeps those alongside stale-model entries."""
    task = _tasks(modes=("baseline",))[0]
    run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    store = RunCache(tmp_path)
    orphan = store.directory / f"{task.key()}.12345.tmp"
    orphan.write_text('{"half": "written')
    assert store.prune() == 1
    assert not orphan.exists()
    assert store.load(task.key()) is not None


def test_default_jobs_prefers_scheduling_affinity(monkeypatch):
    """Inside a container the affinity mask, not os.cpu_count(), bounds
    usable parallelism; REPRO_JOBS still overrides everything."""
    import os

    from repro.sim.sweep import default_jobs

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_jobs() == 3

    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: (_ for _ in ()).throw(OSError()),
                        raising=False)
    assert default_jobs() == 64

    monkeypatch.setenv("REPRO_JOBS", "7")
    assert default_jobs() == 7


def test_prune_deletes_corrupt_entries_left_by_killed_workers(tmp_path):
    """A SIGKILLed worker can leave a cache file holding anything —
    truncated JSON, or JSON that parses but is not a record.  prune must
    sweep them all without crashing, and keep the valid entry."""
    task = _tasks(modes=("baseline",))[0]
    run_sweep([task], jobs=1, cache=True, cache_dir=tmp_path)
    store = RunCache(tmp_path)

    (tmp_path / "deadbeef1.json").write_text('{"model": "x", "trunc')
    (tmp_path / "deadbeef2.json").write_text("null")
    (tmp_path / "deadbeef3.json").write_text("[1, 2, 3]")
    assert store.prune() == 3
    assert sorted(p.name for p in tmp_path.glob("*.json")) == \
        [f"{task.key()}.json"]
    assert store.load(task.key()) is not None


def test_run_sweep_rejects_nonpositive_jobs():
    task = _tasks(modes=("baseline",))[0]
    with pytest.raises(ValueError, match="at least one job"):
        run_sweep([task], jobs=0, cache=False)
    with pytest.raises(ValueError, match="at least one job"):
        run_sweep([task], jobs=-2, cache=False)


def test_default_jobs_rejects_bad_repro_jobs(monkeypatch):
    from repro.sim.sweep import default_jobs

    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "-3")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


def test_sweep_cli_rejects_jobs_zero_with_a_clear_message(capsys):
    from repro.__main__ import main

    assert main(["sweep", "--jobs", "0", "--quick", "IS"]) == 2
    err = capsys.readouterr().err
    assert "--jobs must be >= 1" in err


def test_sweep_cli_reports_bad_repro_jobs(monkeypatch, capsys, tmp_path):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_JOBS", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["sweep", "--quick", "IS", "--configs", "baseline"]) == 2
    assert "REPRO_JOBS must be a positive integer" in capsys.readouterr().err
