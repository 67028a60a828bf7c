"""The Indirect Access unit's Row Table (Figure 4 a/b).

One slice per DRAM bank.  A slice's BCAM tracks up to ``rows`` open target
rows; each row entry's SRAM side tracks up to ``cols`` target columns
(cache lines), each holding the tail of that line's word linked-list in the
Word Table and the cache-hit (H) bit sampled at first touch.

The structure realizes the three bandwidth mechanisms:

* **reorder** — drain emits all buffered columns of a DRAM row
  consecutively, so the bank services them as row hits;
* **coalesce** — a second word to an already-tracked line only extends the
  word list instead of adding a request;
* **interleave** — drain round-robins across slices ordered so consecutive
  requests alternate channels first and bank groups second.

A row with more than ``cols`` distinct lines consumes additional BCAM
entries (one per ``cols`` lines), which is how the hardware's fixed-shape
SRAM is modelled without losing capacity semantics.

:class:`RowTable` is the element-by-element structure the scalar indirect
unit drives; :func:`plan_fill` computes the same fill for a whole tile in
a few NumPy passes, which is what the batched unit uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.common.types import DRAMCoord


@dataclass
class ColumnRecord:
    """One tracked cache line within a row."""

    line_addr: int
    tail_i: int          # last word-table iteration touching this line
    h_bit: bool          # line present in the cache hierarchy at first touch
    words: int = 1


@dataclass
class _Slice:
    coord: tuple[int, int, int, int]       # (channel, rank, bankgroup, bank)
    cols_per_entry: int                    # the owning table's cols_per_row
    rows: dict[int, dict[int, ColumnRecord]] = field(default_factory=dict)
    #: BCAM entries consumed (ceil(lines/cols_per_entry) summed over rows),
    #: maintained incrementally on insert.  The *insert* capacity check
    #: reads this counter (rows only grow between drains, so it is exact);
    #: :meth:`entry_units` still recomputes from the rows so external
    #: checkers (the serving layer's invariants) detect state corrupted
    #: behind the API.
    units: int = 0

    def entry_units(self) -> int:
        return sum(-(-len(cols) // self.cols_per_entry)
                   for cols in self.rows.values())


@dataclass
class PendingLine:
    """A drained request: one unique cache line plus its word list tail."""

    line_addr: int
    coord: tuple[int, int, int, int]
    row: int
    tail_i: int
    h_bit: bool
    words: int


class RowTable:
    """All slices of the Row Table plus the interleaving drain order."""

    def __init__(self, rows_per_slice: int = 64, cols_per_row: int = 8) -> None:
        self.rows_per_slice = rows_per_slice
        self.cols_per_row = cols_per_row
        self._slices: dict[tuple[int, int, int, int], _Slice] = {}
        self.inserted_words = 0
        self.unique_lines = 0

    # ---------------------------------------------------------------- insert

    def insert(self, coord: DRAMCoord, line_addr: int, iteration: int,
               h_bit_fn) -> tuple[bool, int | None]:
        """Insert one word.

        Returns ``(accepted, previous_tail)``; ``accepted`` is False when the
        slice is out of BCAM entries and the table must be drained first.
        ``previous_tail`` is the prior word-list tail for the line (None for
        a fresh line), which the caller links into the Word Table.
        ``h_bit_fn(line_addr)`` is consulted only on a line's first touch —
        the directory snoop of Section 3.6.
        """
        flat_bank = coord.flat_bank
        row = coord.row
        sl = self._slices.get(flat_bank)
        if sl is None:
            sl = _Slice(coord=flat_bank, cols_per_entry=self.cols_per_row)
            self._slices[flat_bank] = sl
        cols = sl.rows.get(row)
        if cols is not None and line_addr in cols:
            rec = cols[line_addr]
            prev = rec.tail_i
            rec.tail_i = iteration
            rec.words += 1
            self.inserted_words += 1
            return True, prev
        # A new line: check BCAM capacity.
        if cols is None:
            needed = 1
        else:
            needed = 1 if len(cols) % self.cols_per_row == 0 else 0
        if sl.units + needed > self.rows_per_slice:
            return False, None
        if cols is None:
            cols = {}
            sl.rows[row] = cols
        cols[line_addr] = ColumnRecord(line_addr=line_addr, tail_i=iteration,
                                       h_bit=bool(h_bit_fn(line_addr)))
        sl.units += needed
        self.inserted_words += 1
        self.unique_lines += 1
        return True, None

    # ----------------------------------------------------------------- drain

    def drain(self) -> list[PendingLine]:
        """Empty the table, returning requests in issue order.

        Issue order: round-robin one column at a time across slices sorted so
        that consecutive picks alternate channel fastest, then bank group,
        then bank; within a slice, rows drain completely before the next row
        starts (the row-hit grouping).
        """
        def interleave_key(sl: _Slice) -> tuple:
            ch, ra, bg, ba = sl.coord
            return (ra, ba, bg, ch)

        ordered = sorted(self._slices.values(), key=interleave_key)
        # Flatten each slice into its per-bank row-grouped column order.
        per_slice: list[list[PendingLine]] = []
        for sl in ordered:
            lines: list[PendingLine] = []
            for row, cols in sl.rows.items():
                for rec in cols.values():
                    lines.append(PendingLine(
                        line_addr=rec.line_addr, coord=sl.coord, row=row,
                        tail_i=rec.tail_i, h_bit=rec.h_bit, words=rec.words,
                    ))
            per_slice.append(lines)
        out: list[PendingLine] = []
        cursors = [0] * len(per_slice)
        remaining = sum(len(s) for s in per_slice)
        while remaining:
            for i, lines in enumerate(per_slice):
                if cursors[i] < len(lines):
                    out.append(lines[cursors[i]])
                    cursors[i] += 1
                    remaining -= 1
        self._slices.clear()
        return out

    # ---------------------------------------------------------------- stats

    @property
    def occupancy(self) -> int:
        return sum(sl.entry_units() for sl in self._slices.values())

    def slice_units(self, flat_bank: tuple[int, int, int, int]) -> int:
        """BCAM entry units currently used by one slice (0 if untouched).

        Public so external quota layers (:mod:`repro.serve`) can budget
        per-tenant capacity without reaching into ``_slices``.
        """
        sl = self._slices.get(flat_bank)
        return 0 if sl is None else sl.entry_units()

    def entries(self):
        """Iterate tracked lines as ``(flat_bank, row, line_addr, words)``.

        Read-only view for external checkers (the serving layer's isolation
        invariants walk every entry without touching slice internals).
        """
        for key, sl in self._slices.items():
            for row, cols in sl.rows.items():
                for rec in cols.values():
                    yield key, row, rec.line_addr, rec.words

    def insert_cost(self, coord: DRAMCoord, line_addr: int) -> int:
        """BCAM entry units an insert of ``line_addr`` would consume.

        0 — the line is already tracked (coalesce) or fits in its row's
        current entry; 1 — a fresh BCAM entry would be allocated.  Pure
        query: the table is not modified.
        """
        sl = self._slices.get(coord.flat_bank)
        if sl is None:
            return 1
        cols = sl.rows.get(coord.row)
        if cols is None:
            return 1
        if line_addr in cols:
            return 0
        return 1 if len(cols) % self.cols_per_row == 0 else 0

    def coalescing_factor(self) -> float:
        """Words inserted per unique line (>= 1)."""
        if self.unique_lines == 0:
            return 1.0
        return self.inserted_words / self.unique_lines


# ------------------------------------------------------------ tile planner

class FillSegment(NamedTuple):
    """One Row Table fill between two drains, as planned by :func:`plan_fill`.

    ``lines`` are the segment's unique cache lines in drain order, the
    order :meth:`RowTable.drain` would return them in.
    """

    end: int             # first element of the next segment (the cut)
    lines: np.ndarray    # unique line addresses, drain order
    coords: np.ndarray   # (len(lines), 5): channel, rank, bankgroup, bank, row
    words: np.ndarray    # elements coalesced into each line
    units: int           # BCAM entry units in use when the segment drains


_COORD_FIELDS = ("channel", "rank", "bankgroup", "bank", "row")


def plan_fill(fields: dict[str, np.ndarray], rows_per_slice: int,
              cols_per_row: int) -> list[FillSegment]:
    """Plan a whole tile's Row Table fill without inserting element-wise.

    ``fields`` is the tile's ``AddressMapper.map_arrays`` decode (only
    ``line``, ``channel``, ``rank``, ``bankgroup``, ``bank`` and ``row`` are
    read).  The result is exactly what inserting the elements one by one
    into a fresh :class:`RowTable` and draining it on every refusal (then
    once at the end) would produce: the element index of each capacity cut,
    and per drain the unique lines in issue order, their coordinates and
    word counts.  H bits are not planned — the caller snoops each
    segment's lines just before issuing that segment.

    Each segment is scanned over a bounded window of elements (twice the
    previous segment's length, doubled until a cut or the tile end falls
    inside it), so a tile with many capacity drains costs O(n), not
    O(drains x n).
    """
    n = len(fields["line"])
    segments: list[FillSegment] = []
    start, width = 0, n
    while start < n:
        stop = min(n, start + width)
        seg = _plan_segment(fields, start, stop, stop == n, rows_per_slice,
                            cols_per_row)
        if seg is None:          # no cut inside a truncated window: widen
            width *= 2
            continue
        segments.append(seg)
        width = 2 * (seg.end - start)
        start = seg.end
    return segments


def _run_rank(sorted_keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal sorted keys."""
    idx = np.arange(len(sorted_keys))
    run_start = np.ones(len(sorted_keys), dtype=bool)
    run_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return idx - np.maximum.accumulate(np.where(run_start, idx, 0))


def _plan_segment(fields: dict[str, np.ndarray], start: int, stop: int,
                  at_end: bool, rows_per_slice: int,
                  cols_per_row: int) -> FillSegment | None:
    """Plan the segment that starts at element ``start`` in an empty table,
    looking only at elements ``[start, stop)``.  None when no cut falls in
    the window and the window stops short of the tile end."""
    uniq, first, inverse = np.unique(fields["line"][start:stop],
                                     return_index=True, return_inverse=True)
    touch = np.argsort(first)        # unique ids in first-touch order
    pos = start + first[touch]       # element index of each new line
    coords = [fields[name][pos] for name in _COORD_FIELDS]
    channel, rank, bankgroup, bank, row = coords
    # One integer per slice, ascending in the drain's interleave priority
    # (rank, bank, bankgroup, channel) — the round-robin visiting order.
    slices = np.zeros(len(pos), dtype=np.int64)
    for values in (rank, bank, bankgroup, channel):
        slices = slices * (int(values.max()) + 1) + values
    groups = slices * (int(row.max()) + 1) + row

    # BCAM cost: a new line takes a unit when it is the first line of its
    # (slice, row) group or a multiple of cols_per_row after it.
    by_group = np.argsort(groups, kind="stable")
    group_rank = _run_rank(groups[by_group])
    costly = np.empty(len(pos), dtype=bool)
    costly[by_group] = group_rank % cols_per_row == 0
    # The slice overflows at its (rows_per_slice + 1)-th costly new line.
    costly_at = np.flatnonzero(costly)
    by_slice = np.argsort(slices[costly_at], kind="stable")
    over = costly_at[by_slice[_run_rank(slices[costly_at][by_slice])
                              >= rows_per_slice]]
    if over.size:
        k = int(over.min())          # new lines accepted before the cut
        if k == 0:
            raise RuntimeError("insert failed on empty Row Table")
        end = int(pos[k])
    elif at_end:
        k, end = len(pos), stop
    else:
        return None

    # Drain order: within a slice rows in first-touch order, each row's
    # lines in first-touch order; slices round-robined in interleave order.
    row_touch = np.empty(len(pos), dtype=np.int64)
    row_touch[by_group] = by_group[np.arange(len(pos)) - group_rank]
    within = np.lexsort((np.arange(k), row_touch[:k], slices[:k]))
    depth = np.empty(k, dtype=np.int64)
    depth[within] = _run_rank(slices[:k][within])
    order = np.lexsort((slices[:k], depth))

    words = np.bincount(inverse[:end - start], minlength=len(uniq))[touch]
    return FillSegment(end=end, lines=uniq[touch[order]],
                       coords=np.stack([c[order] for c in coords], axis=1),
                       words=words[order],
                       units=int(np.count_nonzero(costly[:k])))
