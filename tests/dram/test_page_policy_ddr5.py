"""Closed-page policy and the DDR5 sensitivity preset."""

import pytest

from repro.common import DRAMConfig, DRAMRequest
from repro.common.config import ddr5_6400
from repro.dram import AddressMapper, DRAMSystem, MemoryController


def _run(cfg, addrs):
    mapper = AddressMapper(cfg)
    ctrl = MemoryController(0, cfg, mapper)
    log = []
    ctrl.command_observers.append(lambda *c: log.append(c))
    for i, a in enumerate(addrs):
        ctrl.enqueue(DRAMRequest(a & ~63, False, arrival=i))
    ctrl.drain()
    return ctrl, log


def test_closed_page_precharges_after_every_access():
    cfg = DRAMConfig(channels=1, page_policy="closed")
    ctrl, log = _run(cfg, [i * 64 for i in range(64)])
    kinds = [k for k, *_ in log]
    assert kinds.count("PRE") == kinds.count("RD")
    # Closed page: no row hits even on a perfect stream.
    assert ctrl.stats.get("row_hits") == 0


def test_open_page_beats_closed_on_streams():
    stream = [i * 64 for i in range(512)]
    open_ctrl, _ = _run(DRAMConfig(channels=1), stream)
    closed_ctrl, _ = _run(DRAMConfig(channels=1, page_policy="closed"),
                          stream)
    assert open_ctrl.stats.get("last_finish") < \
        closed_ctrl.stats.get("last_finish")


def test_closed_page_schedule_is_legal():
    from tests.dram.test_timing_legality import check_legality
    cfg = DRAMConfig(channels=1, page_policy="closed")
    _, log = _run(cfg, [i * 4096 for i in range(128)])
    check_legality(log)


def test_ddr5_preset_geometry():
    cfg = ddr5_6400()
    assert cfg.channels == 4
    assert cfg.bankgroups == 8
    assert cfg.peak_bw_gbps == pytest.approx(102.4, rel=1e-3)
    assert cfg.timing.tCK == 1


def test_ddr5_system_services_requests():
    system = DRAMSystem(ddr5_6400())
    reqs = [system.access(i * 64, False, arrival=0) for i in range(4096)]
    system.drain()
    assert all(r.done for r in reqs)
    util = system.bandwidth_utilization(system.last_finish())
    assert util > 0.7  # streams come close to the wider system's peak
    assert system.row_buffer_hit_rate() > 0.9
