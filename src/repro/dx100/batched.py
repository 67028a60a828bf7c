"""Batched front-end: tile-granular DX100 stream/indirect kernels.

The accelerator half of the ``SystemConfig.frontend = "batched"`` split:

* :class:`BatchedStreamUnit` routes the SLD/SST issue loop through
  :meth:`repro.cache.batched.BatchedHierarchy.access_lines` — one decode,
  one fused function for the whole tile instead of two calls per line.

* :class:`BatchedIndirectUnit` keeps the fill -> request -> response
  pipeline of the scalar unit but plans the whole tile's Row Table fill in
  one vectorized pass (:func:`repro.dx100.row_table.plan_fill`) instead of
  one insert per element: the plan gives each segment between capacity
  drains as arrays of unique lines in drain order, their coordinates and
  word counts.  The request and response stages walk those arrays.  The
  Word Table is dropped entirely: the only thing the scalar response stage
  reads from its linked list is the chain *length*, which the plan carries
  as the segment's word count.

Both units share the scalar classes' request stage and functional (numpy)
execution; the differential suites run the same tiles through both
front-ends and assert identical timings, stats, and DRAM streams.
"""

from __future__ import annotations

import numpy as np

from repro.common.types import AluOp, DType
from repro.dx100.alu import RMW_UFUNCS
from repro.dx100.indirect_unit import (RESPONSE_LATENCY, IndirectResult,
                                       IndirectUnit)
from repro.dx100.row_table import plan_fill
from repro.dx100.stream_unit import StreamUnit


class BatchedStreamUnit(StreamUnit):
    """SLD/SST over the fused whole-tile LLC path."""

    def _issue_lines(self, lines: np.ndarray, is_write: bool, t_start: int,
                     avail: tuple[int, float] | None = None,
                     elems_per_line: float = 1.0) -> tuple[int, int]:
        if not len(lines):
            return t_start, t_start
        return self.hierarchy.access_lines(
            lines, is_write, t_start,
            window=self.config.request_table,
            rate=self.config.stream_issue_rate,
            avail=avail, elems_per_line=elems_per_line,
            tenant=self.tenant)


class BatchedIndirectUnit(IndirectUnit):
    """ILD/IST/IRMW with decoded bulk Row Table fills."""

    def execute(self, kind: str, base: int, dtype: DType,
                indices: np.ndarray, cond: np.ndarray | None,
                src_values: np.ndarray | None, t_start: int,
                op: AluOp | None = None,
                index_avail: tuple[int, float] | None = None,
                tile: int = -1) -> IndirectResult:
        if kind not in ("ld", "st", "rmw"):
            raise ValueError(f"unknown indirect kind {kind!r}")
        if kind == "rmw" and (op is None or not op.is_commutative_associative):
            raise ValueError("IRMW needs a commutative+associative op")

        indices = np.asarray(indices, dtype=np.int64)
        n_tile = len(indices)
        iters = np.arange(n_tile, dtype=np.int64)
        if cond is not None:
            if len(cond) < n_tile:
                raise ValueError("condition tile shorter than index tile")
            keep = np.asarray(cond[:n_tile]) != 0
            iters = iters[keep]
            sel_idx = indices[keep]
        else:
            sel_idx = indices
        addrs = base + sel_idx * dtype.nbytes

        t = t_start + (self.tlb.translate_tile(addrs) if addrs.size else 0)
        segments = plan_fill(self.mapper.map_arrays(addrs),
                             self.config.row_table_rows,
                             self.config.row_table_cols)
        drain_times = [t]
        if segments:
            # A capacity drain happens once its cut element has been
            # decoded (the insert it refuses), the final one after the
            # last element.
            drain_times = self._fill_cursor(
                t, [seg.end for seg in segments[:-1]] + [int(iters.size) - 1],
                index_avail)

        # Request stage: each segment's H bits are snooped just before its
        # requests issue, after the previous segment's drain.
        lines: list[int] = []
        decoded: list[tuple] = []
        h_bits: list[bool] = []
        accesses: list = []
        served = 0
        for seg, t_drain in zip(segments, drain_times):
            seg_lines = seg.lines.tolist()
            seg_decoded = list(zip(*seg.coords.T.tolist()))
            seg_h = list(map(self.hierarchy.snoop, seg_lines))
            accesses += self._issue(seg_lines, seg_decoded, seg_h, seg.units,
                                    t_drain, kind, tile)
            lines += seg_lines
            decoded += seg_decoded
            h_bits += seg_h
            served += int(seg.words.sum())
        drains = max(1, len(segments))
        fill_cursor = drain_times[-1]
        if self.obs is not None:
            self.obs.tile_phase(tile, "fill", t_start, fill_cursor,
                                lines=int(iters.size))

        # ------------------------------------------------------- response
        finish = fill_cursor
        wb_lo = wb_hi = -1
        wb_lines = 0
        writes = kind in ("st", "rmw")
        dram = self.dram
        for j, access in enumerate(accesses):
            # H-bit lines hold an LLC AccessResult, the rest a DRAM request.
            if h_bits[j]:
                completion = access.resolve(dram)
            else:
                completion = dram.complete(access)
                if writes:
                    wr = dram.access(lines[j], is_write=True,
                                     arrival=completion + 1,
                                     decoded=decoded[j], tenant=self.tenant)
                    wb_lines += 1
                    if wb_lo < 0 or wr.arrival < wb_lo:
                        wb_lo = wr.arrival
                    if wr.arrival > wb_hi:
                        wb_hi = wr.arrival
                    completion = max(completion, wr.arrival)
            finish = max(finish, completion)
        if iters.size and served != iters.size:
            raise RuntimeError(
                f"row table served {served} of {iters.size} elements"
            )
        finish += RESPONSE_LATENCY
        if self.obs is not None:
            self.obs.tile_phase(tile, "response", fill_cursor, finish,
                                lines=len(accesses))
            if wb_lines:
                self.obs.tile_phase(tile, "writeback", wb_lo, wb_hi,
                                    lines=wb_lines)

        # ------------------------------------------------------ functional
        values = None
        if kind == "ld":
            values = np.zeros(n_tile, dtype=dtype.numpy_name)
            if addrs.size:
                values[iters] = self.hostmem.read_words(addrs, dtype)
        elif kind == "st":
            if addrs.size:
                src = np.asarray(src_values)[iters]
                self.hostmem.write_words(addrs, src, dtype)
        else:  # rmw
            if addrs.size:
                src = np.asarray(src_values)[iters]
                self.hostmem.rmw_words(addrs, src, dtype, RMW_UFUNCS[op])

        unique = len(lines)
        self.stats.add(f"i{kind}_elements", iters.size)
        self.stats.add(f"i{kind}_lines", unique)
        self.stats.add("indirect_drains", drains)
        return IndirectResult(values=values, finish=finish,
                              elements=int(iters.size), unique_lines=unique,
                              drains=drains, start=t,
                              busy_until=fill_cursor)

    def _fill_cursor(self, t: int, marks: list[int],
                     index_avail: tuple[int, float] | None) -> list[int]:
        """Fill-stage cycle (truncated) right after each element in
        ``marks`` (ascending) is inserted.

        Element ``e`` is inserted at ``max(cursor + 1 / fill_rate,
        t0 + e / rate)``; without ``index_avail`` the second term never
        binds, and the sequential ``np.add.accumulate`` reproduces the
        element-by-element float sums bitwise.
        """
        step = 1.0 / self.config.fill_rate
        if index_avail is None:
            incs = np.full(marks[-1] + 2, step)
            incs[0] = float(t)
            cursor = np.add.accumulate(incs)
            return [int(c) for c in cursor[np.asarray(marks) + 1].tolist()]
        avail_t0, avail_rate = index_avail
        out = []
        cursor = float(t)
        first = 0
        for mark in marks:
            for e in range(first, mark + 1):
                # max(cursor + step, avail) without the call.
                cursor += step
                avail = avail_t0 + e / avail_rate
                if avail > cursor:
                    cursor = avail
            first = mark + 1
            out.append(int(cursor))
        return out
