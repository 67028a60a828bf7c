"""Differential tests: the segment handoff vs the per-line DRAM interface.

:meth:`DRAMSystem.access_lines` / :meth:`DRAMSystem.complete_lines` hand a
DX100 drain segment's direct lines to the DRAM engine in one call each.
They must be *bitwise identical* to the per-line loop they replace —
``access`` per line in drain order, then per line ``complete`` followed
(for IST/IRMW) by the line's writeback ``access`` at ``completion + 1`` —
on both engines.  Each program is replayed four ways (scalar or batched
engine x per-line or segment calls) and compared with the scalar per-line
oracle: per-channel command logs, per-request arrival/start/finish/row-hit,
merged statistics (the far link's ``link_*`` counters included) and the
returned finish / writeback window.

Programs mimic the indirect unit: several segments issued back to back
(``drain_rate`` lines per cycle), then completed in order.  A segment's
H-bit lines are single ``access`` reads between the runs, as an LLC miss
on the Cache Interface would enqueue them, so the runs' order relative to
interleaved per-line traffic is exercised too.

A deterministic case attaches the observability bus with a sampled
timeline: the batched kernel defers its statistics to frame locals and
must publish them before any command observer reads them mid-service.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import DRAMConfig
from repro.common.config import RemoteLinkConfig
from repro.dram import DRAMSystem
from repro.obs.events import EventBus

COORDS = ("channel", "rank", "bankgroup", "bank", "row")

_CONFIGS = {
    "ddr4-2ch": DRAMConfig(channels=2),
    # The two shared-link configurations of test_engine_differential.py:
    # hash placement splits lines between near and far, and two channels
    # feed one link, so cross-channel call order reaches the link state.
    "cxl-mixed": DRAMConfig(channels=1, remote=RemoteLinkConfig(
        enabled=True, placement="hash", far_fraction=0.5)),
    "cxl-2ch": DRAMConfig(channels=2, remote=RemoteLinkConfig(
        enabled=True, latency=800)),
}


def _drive(system: DRAMSystem, segments: list, drain_rate: int,
           writeback: bool, tenant: int, segmented: bool):
    """Issue every segment, then complete them in order, then drain.

    Returns the requests in issue order (writebacks excluded) and the
    folded ``(finish, wb_lo, wb_hi)``."""
    line_bytes = system.config.line_bytes
    capacity = system.config.capacity_bytes
    issued: list = []
    pending: list = []
    t = 0
    for gap, seg in segments:
        t += gap
        addrs = np.array([(n * line_bytes) % capacity for n, _ in seg],
                         dtype=np.int64)
        fields = system.mapper.map_arrays(addrs)
        coords = np.stack([fields[name] for name in COORDS], axis=1)
        decoded = coords.tolist()
        lines = fields["line"].tolist()
        arrivals = [t + j // drain_rate for j in range(len(seg))]
        start = 0
        cuts = [j for j, (_, h_bit) in enumerate(seg) if h_bit] + [len(seg)]
        for j in cuts:
            if j > start:
                if segmented:
                    reqs = system.access_lines(
                        lines[start:j], coords[start:j], arrivals[start:j],
                        False, tenant)
                else:
                    reqs = [system.access(lines[k], False, arrivals[k],
                                          decoded=tuple(decoded[k]),
                                          tenant=tenant)
                            for k in range(start, j)]
                issued += reqs
                pending.append((reqs, decoded[start:j]))
            if j < len(seg):
                req = system.access(lines[j], False, arrivals[j],
                                    tenant=tenant)
                issued.append(req)
                pending.append((req, None))
            start = j + 1

    finish = wb_lo = wb_hi = -1
    for reqs, decoded in pending:
        if decoded is None:
            finish = max(finish, system.complete(reqs))
        elif segmented:
            done, lo, hi = system.complete_lines(reqs, writeback, decoded,
                                                 tenant)
            finish = max(finish, done)
            if lo >= 0 and (wb_lo < 0 or lo < wb_lo):
                wb_lo = lo
            wb_hi = max(wb_hi, hi)
        else:
            for req, coord in zip(reqs, decoded):
                completion = system.complete(req)
                if writeback:
                    wr = system.access(req.addr, True, completion + 1,
                                       decoded=tuple(coord), tenant=tenant)
                    if wb_lo < 0 or wr.arrival < wb_lo:
                        wb_lo = wr.arrival
                    wb_hi = max(wb_hi, wr.arrival)
                    completion = max(completion, wr.arrival)
                finish = max(finish, completion)
    system.drain()
    return issued, (finish, wb_lo, wb_hi)


def _replay(cfg: DRAMConfig, program: tuple, segmented: bool):
    """One replay of ``program``; everything the differential compares."""
    segments, drain_rate, writeback, tenant = program
    system = DRAMSystem(cfg)
    logs: list[list[tuple]] = [[] for _ in system.controllers]
    for ctrl, log in zip(system.controllers, logs):
        ctrl.command_observers.append(
            lambda kind, cycle, bank, row, _log=log:
            _log.append((kind, cycle, bank, row)))
    issued, folded = _drive(system, segments, drain_rate, writeback, tenant,
                            segmented)
    stats = system.merged_stats()
    return (logs,
            [(r.channel, r.arrival, r.start, r.finish, r.row_hit, r.far)
             for r in issued],
            folded,
            dict(stats.counters), stats.mins, stats.maxs,
            system.mean_occupancy(), system.last_finish())


def _assert_handoff_equivalent(cfg: DRAMConfig, program: tuple) -> None:
    oracle = _replay(replace(cfg, engine="scalar"), program, segmented=False)
    for engine in ("scalar", "batched"):
        for segmented in (False, True):
            run = _replay(replace(cfg, engine=engine), program, segmented)
            assert run == oracle, (engine, segmented)


_segment = st.lists(
    st.tuples(st.integers(0, 1 << 13),        # line number
              st.booleans() | st.just(False)),  # H bit (mostly clear)
    min_size=1, max_size=40)

_handoff_program = st.tuples(
    st.lists(st.tuples(st.integers(0, 600), _segment),
             min_size=1, max_size=4),
    st.sampled_from([1, 2, 4]),               # drain_rate
    st.booleans(),                            # writeback (IST/IRMW)
    st.sampled_from([-1, 0, 3]),              # tenant tag
)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
@settings(max_examples=30, deadline=None)
@given(program=_handoff_program)
def test_segment_handoff_matches_per_line(name, program):
    _assert_handoff_equivalent(_CONFIGS[name], program)


def _dense_program(seed: int) -> tuple:
    """Three 300-line segments with a sprinkling of H-bit lines."""
    rng = np.random.default_rng(seed)
    segments = [(int(gap), [(int(n), bool(h)) for n, h in zip(
        rng.integers(0, 1 << 13, 300), rng.random(300) < 0.05)])
        for gap in rng.integers(0, 500, 3)]
    return segments, 2, True, -1


def _observed_replay(cfg: DRAMConfig, program: tuple, segmented: bool):
    """Replay with the observability bus's DRAM hooks attached the way
    ``EventBus.attach`` wires them (command stream, timeline sampler,
    starvation probes, far link)."""
    segments, drain_rate, writeback, tenant = program
    system = DRAMSystem(cfg)
    bus = EventBus(trace=True, sample_every=64)
    for ctrl in system.controllers:
        ctrl.command_observers.append(bus.dram_command)
    bus.attach_schedulers(system)
    bus.timeline.watch(SimpleNamespace(dram=system))
    if system.remote is not None:
        system.remote.obs = bus
    _drive(system, segments, drain_rate, writeback, tenant, segmented)
    timeline = bus.timeline
    return (timeline.channels, timeline.link, timeline.link_wait,
            bus.dram_events, bus.starvations, bus.link_marks)


@pytest.mark.parametrize("name", ["ddr4-2ch", "cxl-2ch"])
def test_timeline_samples_identical_under_segment_handoff(name):
    """The timeline samples ``serviced``/``row_hits``/``bytes`` and the
    buffer occupancy whenever a command crosses a window boundary — so
    the batched kernel's deferred statistics must be flushed before each
    observer call, or these samples drift from the scalar oracle."""
    cfg = _CONFIGS[name]
    program = _dense_program(seed=5)
    oracle = _observed_replay(replace(cfg, engine="scalar"), program, False)
    samples = sum(len(s) for s in oracle[0].values())
    assert samples > 100, "the program must cross many sample windows"
    for segmented in (False, True):
        run = _observed_replay(replace(cfg, engine="batched"), program,
                               segmented)
        assert run == oracle, segmented
