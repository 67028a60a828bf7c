"""Simulation harness: runners, metrics, and cross-configuration invariants."""

import pytest

from repro.common import SystemConfig
from repro.sim import SimSystem, run_baseline, run_dx100
from repro.workloads import QUICK_BENCHMARKS, GatherFull, IntegerSort


def test_simsystem_wiring():
    system = SimSystem(SystemConfig.baseline())
    assert system.dx100 is None and system.dmp is None
    system = SimSystem(SystemConfig.dx100_system())
    assert system.dx100 is not None
    system = SimSystem(SystemConfig.dmp_system())
    assert system.dmp is not None and system.hierarchy.observers


def test_run_baseline_produces_metrics():
    result = run_baseline(GatherFull(1024))
    assert result.config == "baseline"
    assert result.cycles > 0
    assert result.instructions > 1024
    assert 0 <= result.bandwidth_utilization <= 1.0
    assert 0 <= result.row_buffer_hit_rate <= 1.0


def test_run_dx100_validates_and_counts_issue_instructions():
    result = run_dx100(GatherFull(1024))
    assert result.config == "dx100"
    assert result.extra["dx100_instructions"] > 0
    assert result.extra["coalescing"] >= 1.0


def test_run_dx100_requires_dx_config():
    with pytest.raises(ValueError):
        run_dx100(GatherFull(1024), SystemConfig.baseline())


def test_dmp_run_issues_prefetches():
    wl = QUICK_BENCHMARKS["IS"]()
    result = run_baseline(wl, SystemConfig.dmp_system(), warm=False)
    assert result.config == "dmp"
    assert result.extra["dmp_prefetches"] > 0


def test_compare_runs_all_three_configs():
    results = {
        "baseline": run_baseline(GatherFull(1024), SystemConfig.baseline()),
        "dmp": run_baseline(GatherFull(1024), SystemConfig.dmp_system()),
        "dx100": run_dx100(GatherFull(1024),
                           SystemConfig.dx100_system(tile_elems=1024)),
    }
    assert set(results) == {"baseline", "dmp", "dx100"}
    speedup = results["dx100"].speedup_over(results["baseline"])
    assert speedup > 1.0


def test_speedup_over():
    a = run_baseline(GatherFull(512))
    b = run_baseline(GatherFull(512))
    assert a.speedup_over(b) == pytest.approx(b.cycles / a.cycles)


def test_scaled_configs_are_consistent():
    base = SystemConfig.baseline_scaled()
    dx = SystemConfig.dx100_scaled()
    dmp = SystemConfig.dmp_scaled()
    assert base.llc.size_bytes > dx.llc.size_bytes  # SPD area handicap
    assert dmp.dmp and dmp.llc.size_bytes == base.llc.size_bytes
    big = SystemConfig.baseline_scaled(cores=8)
    assert big.dram.channels == 4


def test_software_pipeline_preserves_items_and_validates():
    from repro.sim import software_pipeline
    from repro.workloads import GZZ

    wl = GZZ(scale=1 << 13)
    from repro.dx100 import HostMemory
    mem = HostMemory(1 << 25)
    wl.generate(mem)
    from repro.common import DX100Config
    schedule = wl.dx100_schedule(DX100Config(tile_elems=2048), 4)
    piped = software_pipeline(schedule)
    assert sorted(map(id, piped)) == sorted(map(id, schedule))

    # A pipelined run still validates and is never slower than serial
    # beyond noise.
    plain = run_dx100(GZZ(scale=1 << 13),
                      SystemConfig.dx100_scaled(tile_elems=2048), warm=False)
    fast = run_dx100(GZZ(scale=1 << 13),
                     SystemConfig.dx100_scaled(tile_elems=2048),
                     warm=False, pipelined=True)
    assert fast.cycles <= plain.cycles * 1.02
