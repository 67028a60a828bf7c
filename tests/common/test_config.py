"""Table 3 configuration presets."""

import pytest

from repro.common import (CacheConfig, DDR4Timing, DRAMConfig, DX100Config,
                          SystemConfig, ns_to_cycles)


def test_timing_matches_table3():
    t = DDR4Timing()
    assert t.tCK == 2                 # 625 ps at 3.2 GHz
    assert t.tRP == 40 and t.tRCD == 40   # 12.5 ns
    assert t.tCCD_S == 8 and t.tCCD_L == 16
    assert t.tRTP == 24
    assert t.tRAS == 104
    assert t.tRC == t.tRAS + t.tRP


def test_dram_peak_bandwidth_is_51_2_gbps():
    cfg = DRAMConfig()
    assert cfg.peak_bw_gbps == pytest.approx(51.2, rel=1e-3)
    assert cfg.banks_total == 32     # 2ch x 1rank x 4bg x 4banks


def test_ns_to_cycles_rounding():
    assert ns_to_cycles(1.0) == 3
    assert ns_to_cycles(2.5) == 8
    assert ns_to_cycles(0.0) == 0


def test_cache_geometry():
    l1 = CacheConfig("L1D", 32 * 1024, 8, latency=4, mshrs=16)
    assert l1.sets == 64
    with pytest.raises(ValueError):
        CacheConfig("bad", 1000, 3, latency=1, mshrs=1)


def test_baseline_preset_matches_table3():
    cfg = SystemConfig.baseline()
    assert cfg.cores == 4
    assert cfg.core.rob_size == 224
    assert cfg.core.lq_size == 72 and cfg.core.sq_size == 56
    assert cfg.llc.size_bytes == 10 * 1024 * 1024
    assert cfg.llc.mshrs == 256
    assert cfg.dram.request_buffer == 32
    assert cfg.dx100 is None


def test_dx100_preset_shrinks_llc_by_2mb():
    cfg = SystemConfig.dx100_system()
    assert cfg.dx100 is not None
    assert cfg.llc.size_bytes == 8 * 1024 * 1024
    assert cfg.llc.ways == 16
    assert cfg.dx100.tile_elems == 16 * 1024
    assert cfg.dx100.spd_bytes == 2 * 1024 * 1024


def test_scaled_preset_doubles_channels():
    cfg = SystemConfig.baseline(cores=8)
    assert cfg.dram.channels == 4
    assert cfg.llc.size_bytes == 20 * 1024 * 1024


def test_dmp_preset():
    cfg = SystemConfig.dmp_system()
    assert cfg.dmp and cfg.dx100 is None
    assert cfg.llc.size_bytes == 10 * 1024 * 1024


@pytest.mark.parametrize("build,field,valid", [
    (lambda: DRAMConfig(page_policy="bogus"), "page_policy", "open, closed"),
    (lambda: DRAMConfig(request_buffer=0), "request_buffer", ">= 1"),
    (lambda: DRAMConfig(engine="vectorized"), "engine", "batched, scalar"),
    (lambda: DRAMConfig(scheduler="ref-frfcfs"), "scheduler", "frfcfs, fcfs"),
    (lambda: DX100Config(tile_elems=0), "tile_elems", ">= 1"),
    (lambda: DX100Config(fill_rate=0), "fill_rate", ">= 1"),
    (lambda: DX100Config(drain_rate=0), "drain_rate", ">= 1"),
    (lambda: SystemConfig(frontend="vectorized"), "frontend",
     "batched, scalar"),
], ids=["page_policy", "request_buffer", "engine", "scheduler",
        "tile_elems", "fill_rate", "drain_rate", "frontend"])
def test_out_of_domain_config_is_rejected_at_construction(build, field,
                                                          valid):
    """A config that could not run never constructs, and the error names
    the field and its valid values."""
    with pytest.raises(ValueError, match=f"{field} must be .*{valid}"):
        build()
