"""Differential: the batched indirect unit against the scalar oracle.

:class:`~repro.dx100.batched.BatchedIndirectUnit` plans a tile's Row Table
fill in one vectorized pass; :class:`~repro.dx100.indirect_unit.IndirectUnit`
inserts element by element into a real Row Table + Word Table.  Both run
the same tile sequences on paired systems (same hierarchy class, so only
the unit differs) and must agree on every :class:`IndirectResult` field,
the unit stats, the hierarchy stats, every channel's DRAM command stream,
the Row Table occupancy events and the host memory bytes.

The tables are tiny (1-4 BCAM rows, 1-8 columns) so fills drain mid-tile,
and the LLC is tiny so a drain's LLC fills evict lines whose H bit a later
segment snoops: the batched unit must snoop each segment only after the
previous segment's drain.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.batched import BatchedHierarchy
from repro.common import AluOp, DType, SystemConfig
from repro.common.config import dram_preset
from repro.common.stats import Stats
from repro.dram import DRAMSystem
from repro.dx100.batched import BatchedIndirectUnit
from repro.dx100.hostmem import HostMemory
from repro.dx100.indirect_unit import IndirectUnit
from repro.dx100.tlb import TLB
from repro.obs.events import EventBus

ELEMS = 1 << 16
DTYPE = DType.I64


def _config(rows, cols, fill_rate, dram):
    cfg = SystemConfig.dx100_system(cores=1, tile_elems=256)
    return replace(
        cfg,
        llc=replace(cfg.llc, size_bytes=4 * 1024, ways=4),
        dram=dram_preset(dram),
        dx100=replace(cfg.dx100, row_table_rows=rows, row_table_cols=cols,
                      fill_rate=fill_rate))


def _run(unit_cls, cfg, warm, tiles):
    dram = DRAMSystem(cfg.dram)
    logs = []
    for ctrl in dram.controllers:
        log = []
        ctrl.command_observers.append(
            lambda kind, cycle, bank, row, _l=log:
            _l.append((kind, cycle, bank, row)))
        logs.append(log)
    hier = BatchedHierarchy(cfg, dram)
    mem = HostMemory(1 << 21)
    base = mem.place("data", np.arange(ELEMS, dtype=np.int64) * 3)
    stats = Stats()
    unit = unit_cls(cfg.dx100, hier, dram, mem, TLB(cfg.dx100, stats), stats)
    unit.obs = EventBus()
    # Lines cached only in the L2 have their H bit set but miss the LLC,
    # so their drain refills the (64-line) LLC and evicts LLC-only lines
    # that a later segment snoops.
    llc_only, l2_only = warm
    for i in llc_only:
        hier.llc.insert(base + i * DTYPE.nbytes)
    for i in l2_only:
        hier.l2[0].insert(base + i * DTYPE.nbytes)
    results = []
    t = 0
    for n, (kind, indices, cond, values, avail_rate) in enumerate(tiles):
        index_avail = (t, avail_rate) if avail_rate else None
        res = unit.execute(kind, base, DTYPE, np.asarray(indices),
                           cond, values, t,
                           op=AluOp.ADD if kind == "rmw" else None,
                           index_avail=index_avail, tile=n)
        results.append(res)
        t = res.busy_until
    dram.drain()
    return {
        "results": [(r.finish, r.elements, r.unique_lines, r.drains, r.start,
                     r.busy_until,
                     None if r.values is None else r.values.tolist())
                    for r in results],
        "unit_stats": dict(stats.counters),
        "hier_stats": dict(hier.stats.counters),
        "dram_logs": logs,
        "rt_fills": unit.obs.rt_fills,
        "tile_phases": unit.obs.tile_phases,
        "hostmem": mem.view("data").tobytes(),
    }


def _assert_units_agree(cfg, warm, tiles):
    scalar = _run(IndirectUnit, cfg, warm, tiles)
    batched = _run(BatchedIndirectUnit, cfg, warm, tiles)
    for key in scalar:
        assert batched[key] == scalar[key], key


@st.composite
def _tiles(draw):
    """1-3 tiles of ld/st/rmw over duplicate-heavy indices, some masked,
    some paced by a fractional index-availability rate."""
    span = draw(st.sampled_from([16, 256, ELEMS]))
    tiles = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["ld", "st", "rmw"]))
        n = draw(st.integers(0, 120))
        indices = draw(st.lists(st.integers(0, span - 1),
                                min_size=n, max_size=n))
        cond = None
        if draw(st.booleans()):
            cond = np.asarray(draw(st.lists(st.integers(0, 1),
                                            min_size=n, max_size=n)))
        values = None
        if kind != "ld":
            values = np.asarray(draw(st.lists(
                st.integers(-1000, 1000), min_size=n, max_size=n)),
                dtype=np.int64)
        avail_rate = draw(st.sampled_from([None, 0.3, 1.0, 2.5, 7.0]))
        tiles.append((kind, indices, cond, values, avail_rate))
    warm = (draw(st.lists(st.integers(0, span - 1), max_size=150)),
            draw(st.lists(st.integers(0, span - 1), max_size=60)))
    return warm, tiles


@settings(max_examples=60, deadline=None)
@given(case=_tiles(), rows=st.integers(1, 4), cols=st.integers(1, 8),
       fill_rate=st.sampled_from([1, 3, 16]))
def test_batched_indirect_unit_matches_scalar(case, rows, cols, fill_rate):
    warm, tiles = case
    _assert_units_agree(_config(rows, cols, fill_rate, "ddr4"), warm, tiles)


@pytest.mark.parametrize("dram", ["ddr4", "cxl"])
@pytest.mark.parametrize("kind", ["ld", "st", "rmw"])
def test_uniform_tiles_with_capacity_drains_agree(dram, kind):
    """2K-element uniform tiles through a 4x4 Row Table (about seven
    capacity drains per tile), with a condition mask and a warm cache."""
    rng = np.random.default_rng(11)
    n = 2048
    indices = rng.integers(0, ELEMS, n)
    cond = (rng.random(n) < 0.8).astype(np.int64)
    values = rng.integers(-50, 50, n).astype(np.int64)
    cfg = _config(4, 4, 16, dram)
    tiles = [(kind, indices, cond, None if kind == "ld" else values, None),
             (kind, indices[::-1], None,
              None if kind == "ld" else values, 1.5)]
    warm = (rng.integers(0, ELEMS, 200).tolist(),
            rng.integers(0, ELEMS, 200).tolist())
    _assert_units_agree(cfg, warm, tiles)
