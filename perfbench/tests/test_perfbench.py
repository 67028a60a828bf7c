"""The benchmark's own tests: trace accounting, seeding, golden checks,
side effects and the contract between ``BENCHMARK.json`` and the code.

They run small slices of the quick grid (IS only), so the whole file takes
a few seconds: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import layers
import one_pass
import run
from workloads import WORKLOADS, Workload, seeded_factory

ROOT = Path(__file__).resolve().parents[2]
SMALL = Workload("is-quick", quick=True, benchmarks=("IS",),
                 modes=("baseline", "dx100"), golden=True)


class ScriptedClock:
    """A clock returning preset nanosecond readings, one per call."""

    def __init__(self, readings) -> None:
        self.readings = list(readings)

    def __call__(self) -> int:
        return self.readings.pop(0)


# ----------------------------------------------------------- self time

def test_self_time_on_a_nested_call_tree():
    # task [0, 100]: cache [10, 60] containing dram [20, 40];
    #                core [70, 90]
    tracer = layers.LayerTracer(
        clock=ScriptedClock([0, 10, 20, 40, 60, 70, 90, 100]))
    dram = tracer.wrap("dram", lambda: None)
    cache = tracer.wrap("cache", lambda: dram())
    core = tracer.wrap("core", lambda: None)

    def task():
        cache()
        core()
    tracer.run_task("T", task)

    table = tracer.per_task()["T"]
    assert {k: v["self_ns"] for k, v in table.items()} == {
        "cache": 30, "dram": 20, "core": 20, layers.UNATTRIBUTED: 30}
    assert {k: v["calls"] for k, v in table.items()} == {
        "cache": 1, "dram": 1, "core": 1, layers.UNATTRIBUTED: 1}
    assert tracer.task_ns == {"T": 100}
    assert tracer.accounting_errors() == []


def test_same_layer_nesting_and_exceptions_keep_the_stack_balanced():
    # task [0, 50]: cache [5, 45] -> cache [10, 30] raises, caught inside
    tracer = layers.LayerTracer(clock=ScriptedClock([0, 5, 10, 30, 45, 50]))

    def fail():
        raise ValueError("miss")
    inner = tracer.wrap("cache", fail)

    def outer_body():
        with pytest.raises(ValueError):
            inner()
    outer = tracer.wrap("cache", outer_body)
    tracer.run_task("T", outer)

    table = tracer.per_task()["T"]
    assert table["cache"] == {"calls": 2, "self_ns": 40}
    assert table[layers.UNATTRIBUTED]["self_ns"] == 10
    assert tracer.accounting_errors() == []


def test_accounting_flags_a_broken_stack():
    tracer = layers.LayerTracer(clock=ScriptedClock([0, 10]))
    tracer.run_task("T", lambda: None)
    tracer.self_ns[("T", "dram")] = 5       # time no call accounted for
    tracer.calls[("T", "dram")] = 1
    assert any("sum to 15" in e for e in tracer.accounting_errors())
    tracer._stack.append([0])
    assert any("left on the stack" in e for e in tracer.accounting_errors())


def test_install_wraps_and_restores_every_entry_point():
    tracer = layers.LayerTracer()
    points = [(cls, name) for pts in layers.entry_points().values()
              for cls, name in pts if name in cls.__dict__]
    before = {(cls, name): cls.__dict__[name] for cls, name in points}
    uninstall = layers.install(tracer)
    try:
        assert all(cls.__dict__[name] is not fn
                   for (cls, name), fn in before.items())
    finally:
        uninstall()
    assert all(cls.__dict__[name] is fn for (cls, name), fn in before.items())


# ------------------------------------------------------------ seeding

def test_seed_zero_rebuilds_the_registry_workloads():
    from repro.sim.sweep import workload_fingerprint
    from repro.workloads import MAIN_BENCHMARKS, QUICK_BENCHMARKS
    for registry in (QUICK_BENCHMARKS, MAIN_BENCHMARKS):
        for name, factory in registry.items():
            assert (workload_fingerprint(seeded_factory(factory, 0)())
                    == workload_fingerprint(factory())), name


def test_seed_one_changes_the_inputs_and_still_validates():
    seed0 = one_pass.run_pass(SMALL, seed=0, trace=False)
    seed1 = one_pass.run_pass(SMALL, seed=1, trace=False)
    for p in (seed0, seed1):
        assert [t["error"] for t in p["tasks"]] == [None, None]
    cycles = [[t["counters"]["cycles"] for t in p["tasks"]]
              for p in (seed0, seed1)]
    assert cycles[0] != cycles[1]
    assert seed0["golden_problems"] == []
    assert all(t["golden_ok"] for t in seed0["tasks"])


# ------------------------------------------------------------- checks

def test_golden_mismatch_fails_the_run(monkeypatch):
    import repro.sim.sweep as sweep
    real = sweep.load_golden()
    bent = json.loads(json.dumps(real))
    bent["IS"]["dx100"]["cycles"] += 1
    monkeypatch.setattr(sweep, "load_golden", lambda path=None: bent)
    out = one_pass.run_pass(SMALL, seed=0, trace=False)
    assert [t["golden_ok"] for t in out["tasks"]] == [True, False]
    assert any("IS/dx100.cycles" in g for g in out["golden_problems"])
    assert any("golden" in p for p in run.checks([out]))


def test_a_raising_run_is_counted_as_failed(monkeypatch):
    from repro.workloads.nas import IntegerSort

    def broken(self, mem):
        raise RuntimeError("generate failed")
    monkeypatch.setattr(IntegerSort, "generate", broken)
    out = one_pass.run_pass(SMALL, seed=0, trace=False)
    assert all("generate failed" in t["error"] for t in out["tasks"])
    assert sum(run.task_failed(t) for t in out["tasks"]) == 2
    assert run.checks([out])


def test_traced_and_untraced_passes_agree_and_account():
    plain = one_pass.run_pass(SMALL, seed=0, trace=False)
    traced = one_pass.run_pass(SMALL, seed=0, trace=True)
    assert traced["digest"] == plain["digest"]
    assert traced["accounting_errors"] == []
    assert run.checks([plain, traced]) == []
    calls = run.layer_calls(traced)
    for layer in ("workloads", "core", "cache", "dx100", "dram"):
        assert calls[layer] > 0, layer
    assert "dram.remote" not in calls and "prefetch" not in calls
    metrics = run.per_layer([plain, traced])
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["dram.remote.far_serviced"] == 0
    # The harness hooks are gone once the pass ends.
    import repro.sim.sweep as sweep
    assert sweep.execute_task.__module__ == "repro.sim.sweep"


def test_checks_catch_counters_that_differ_between_passes():
    out = one_pass.run_pass(SMALL, seed=0, trace=False)
    other = dict(out, digest="0" * 16)
    assert any("differ" in p for p in run.checks([out, other]))


# -------------------------------------------------------- side effects

def _tree_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for top in paths:
        files = [top] if top.is_file() else sorted(top.rglob("*"))
        for path in files:
            h.update(str(path.relative_to(ROOT)).encode())
            if path.is_file():
                h.update(path.read_bytes())
    return h.hexdigest()


def test_a_pass_leaves_results_and_goldens_untouched():
    watched = [ROOT / "BENCH_mainsweep.json", ROOT / "results",
               ROOT / "tests" / "golden"]
    before = _tree_digest(*watched)
    one_pass.run_pass(SMALL, seed=0, trace=True)
    assert _tree_digest(*watched) == before


# ------------------------------------------------------------ contract

def test_benchmark_json_names_the_code_s_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
