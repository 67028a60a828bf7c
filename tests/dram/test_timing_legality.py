"""JEDEC timing-legality audit of the controller's command schedule.

Property-based: random request mixes are serviced with the streaming
:class:`~repro.dram.audit.CommandAuditor` attached, and the resulting
ACT/PRE/RD/WR schedule is checked against every constraint the model
claims to honour.  This is the request-granular model's substitute for a
cycle-accurate simulator's assertion machinery.

The legality rules live in ``repro.dram.audit`` (tRRD/tFAW correctly
scoped per rank, not per channel); :func:`check_legality` remains as a
thin wrapper over the auditor for recorded logs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import DDR4Timing, DRAMConfig, DRAMRequest
from repro.dram import AddressMapper, CommandAuditor, MemoryController

T = DDR4Timing()


def run_commands(addr_writes, buffer=32, **cfg_kwargs):
    cfg = DRAMConfig(channels=1, request_buffer=buffer, **cfg_kwargs)
    mapper = AddressMapper(cfg)
    ctrl = MemoryController(0, cfg, mapper)
    log = []
    ctrl.command_observers.append(lambda *c: log.append(c))
    for i, (addr, is_write) in enumerate(addr_writes):
        ctrl.enqueue(DRAMRequest(addr & ~63, is_write, arrival=i))
    ctrl.drain()
    return log


def check_legality(log, timing=None):
    """Assert every JEDEC constraint on a command log (auditor-backed)."""
    auditor = CommandAuditor(timing or T)
    auditor.check_log(log)
    auditor.assert_clean()


def test_streaming_schedule_is_legal():
    log = run_commands([(i * 64, False) for i in range(512)])
    check_legality(log)


def test_random_read_schedule_is_legal():
    rng = random.Random(0)
    log = run_commands([(rng.randrange(0, 1 << 24), False)
                        for _ in range(512)])
    check_legality(log)


def test_mixed_read_write_schedule_is_legal():
    rng = random.Random(1)
    log = run_commands([(rng.randrange(0, 1 << 22), rng.random() < 0.4)
                        for _ in range(512)])
    check_legality(log)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, (1 << 22) - 1), st.booleans()),
                min_size=1, max_size=200),
       st.integers(min_value=1, max_value=64))
def test_any_schedule_is_legal(reqs, buffer):
    log = run_commands([(a, w) for a, w in reqs], buffer=buffer)
    check_legality(log)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, (1 << 22) - 1), st.booleans()),
                min_size=1, max_size=200),
       st.integers(min_value=1, max_value=64))
def test_closed_page_schedule_is_legal(reqs, buffer):
    """The closed-page auto-precharge path honours tRTP/tWR recovery.

    Regression cover for the bug where the auto-precharge read
    ``pre_ready`` *before* the column command updated it, issuing PRE in
    violation of tWR on every write."""
    log = run_commands([(a, w) for a, w in reqs], buffer=buffer,
                       page_policy="closed")
    check_legality(log)


def test_closed_page_write_recovery_regression():
    """8 alternating R/W to distinct rows: the seed model issued 4 PREs
    inside the tWR window here."""
    log = run_commands([(i * 4096, i % 2 == 1) for i in range(8)],
                       page_policy="closed")
    check_legality(log)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, (1 << 24) - 1), st.booleans()),
                min_size=1, max_size=200),
       st.sampled_from(["open", "closed"]))
def test_multirank_schedule_is_legal(reqs, page_policy):
    """tRRD/tFAW are per rank; a two-rank channel must still be legal
    (and is *allowed* to activate faster across ranks)."""
    log = run_commands([(a, w) for a, w in reqs], ranks=2,
                       page_policy=page_policy)
    check_legality(log)
