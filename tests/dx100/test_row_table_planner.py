"""The vectorized Row Table fill planner against the insert/drain loop.

:func:`repro.dx100.row_table.plan_fill` must reproduce, for any tile and
any table shape, exactly what inserting the tile element by element into a
:class:`RowTable` (draining on every refusal, then once at the end) yields:
the cut elements, each drain's lines in issue order, their coordinates,
word counts and the BCAM occupancy at the drain.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common import SystemConfig
from repro.common.types import DRAMCoord
from repro.dram.address import AddressMapper
from repro.dx100.row_table import RowTable, plan_fill

MAPPER = AddressMapper(SystemConfig.dx100_system().dram)
FIELDS = ("channel", "rank", "bankgroup", "bank", "row", "column", "line")


def _insert_loop(fields, rows_per_slice, cols_per_row):
    """``(cut, drained PendingLines, occupancy)`` per drain, the scalar
    indirect unit's fill loop."""
    rt = RowTable(rows_per_slice, cols_per_row)
    cols = {name: fields[name].tolist() for name in FIELDS}
    out = []
    n = len(cols["line"])
    for e in range(n):
        coord = DRAMCoord(*(cols[name][e] for name in FIELDS[:6]))
        accepted, _ = rt.insert(coord, cols["line"][e], e, lambda line: False)
        if not accepted:
            out.append((e, rt.occupancy, rt.drain()))
            accepted, _ = rt.insert(coord, cols["line"][e], e,
                                    lambda line: False)
            assert accepted
    out.append((n, rt.occupancy, rt.drain()))
    return out


def _assert_plan_matches(addrs, rows_per_slice, cols_per_row):
    fields = MAPPER.map_arrays(np.asarray(addrs, dtype=np.int64))
    expected = _insert_loop(fields, rows_per_slice, cols_per_row)
    plan = plan_fill(fields, rows_per_slice, cols_per_row)
    assert len(plan) == len(expected)
    for seg, (cut, occupancy, drained) in zip(plan, expected):
        assert seg.end == cut
        assert seg.units == occupancy
        assert seg.lines.tolist() == [p.line_addr for p in drained]
        assert seg.words.tolist() == [p.words for p in drained]
        assert ([tuple(c) for c in seg.coords.tolist()]
                == [p.coord + (p.row,) for p in drained])
    return plan


# Indices from a small pool (duplicate-heavy) up to a wide range (rows and
# slices spread out); the pool size decides which.
_tile = st.integers(1, 1 << 22).flatmap(
    lambda span: st.lists(st.integers(0, span), min_size=1, max_size=300))


@settings(max_examples=150, deadline=None)
@given(indices=_tile, rows=st.integers(1, 4), cols=st.integers(1, 8),
       stride=st.sampled_from([4, 8, 64, 8192]))
def test_plan_matches_insert_drain_loop(indices, rows, cols, stride):
    _assert_plan_matches(np.asarray(indices) * stride, rows, cols)


def test_plan_matches_on_full_tiles():
    """16K-element tiles in the production table shape: uniform (capacity
    drains), Zipf-skewed and dense (no drains)."""
    rng = np.random.default_rng(7)
    n = 16 * 1024
    tiles = {
        "uniform": rng.integers(0, 1 << 24, n),
        "zipf": np.minimum(rng.zipf(1.3, n), 1 << 22),
        "dense": rng.integers(0, 1 << 15, n),
    }
    drains = {name: len(_assert_plan_matches(idx * 4, 64, 8)) - 1
              for name, idx in tiles.items()}
    assert drains["uniform"] > 0
    assert drains["dense"] == 0


def test_plan_of_empty_tile_is_empty():
    fields = MAPPER.map_arrays(np.zeros(0, dtype=np.int64))
    assert plan_fill(fields, 64, 8) == []


def test_cols_per_row_is_per_table():
    """A second table with another ``cols_per_row`` must not change how
    the first one counts BCAM entry units."""
    wide = RowTable(64, 8)
    coords = [DRAMCoord(0, 0, 0, 0, row=5, column=c) for c in range(8)]
    for i, coord in enumerate(coords):
        assert wide.insert(coord, 64 * i, i, lambda line: False)[0]
    assert wide.occupancy == 1
    RowTable(64, 2)
    assert wide.occupancy == 1
    assert wide.slice_units((0, 0, 0, 0)) == 1
