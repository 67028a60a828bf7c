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
  word counts.  The request and response stages walk those arrays a
  segment at a time.  One
  :meth:`~repro.cache.batched.BatchedHierarchy.snoop_lines` call gives the
  segment's H bits.  Each run of direct lines between H-bit lines goes to
  the DRAM engine in one :meth:`~repro.dram.system.DRAMSystem.access_lines`
  call and completes, with its writebacks, in one
  :meth:`~repro.dram.system.DRAMSystem.complete_lines` call.  H-bit lines
  keep their per-line LLC access in drain order, since an LLC miss there
  enqueues a DRAM read between the runs.  The Word Table is dropped
  entirely: the only thing the scalar response stage reads from its
  linked list is the chain *length*, which the plan carries as the
  segment's word count.

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
from repro.dx100.row_table import FillSegment, plan_fill
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
        pending: list[tuple] = []
        unique = served = 0
        for seg, t_drain in zip(segments, drain_times):
            pending += self._issue_segment(seg, t_drain, kind, tile)
            unique += len(seg.lines)
            served += int(seg.words.sum())
        drains = max(1, len(segments))
        fill_cursor = drain_times[-1]
        if self.obs is not None:
            self.obs.tile_phase(tile, "fill", t_start, fill_cursor,
                                lines=int(iters.size))

        # ------------------------------------------------------- response
        # Drain order: each run of direct lines completes in one
        # DRAMSystem.complete_lines call, each H-bit line on its own.
        finish = fill_cursor
        wb_lo = wb_hi = -1
        wb_lines = 0
        writes = kind in ("st", "rmw")
        dram = self.dram
        tenant = self.tenant
        for access, decoded in pending:
            if decoded is None:
                completion = access.resolve(dram)
            else:
                completion, lo, hi = dram.complete_lines(access, writes,
                                                         decoded, tenant)
                if writes:
                    wb_lines += len(access)
                    if wb_lo < 0 or lo < wb_lo:
                        wb_lo = lo
                    if hi > wb_hi:
                        wb_hi = hi
            if completion > finish:
                finish = completion
        if iters.size and served != iters.size:
            raise RuntimeError(
                f"row table served {served} of {iters.size} elements"
            )
        finish += RESPONSE_LATENCY
        if self.obs is not None:
            self.obs.tile_phase(tile, "response", fill_cursor, finish,
                                lines=unique)
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

        self.stats.add(f"i{kind}_elements", iters.size)
        self.stats.add(f"i{kind}_lines", unique)
        self.stats.add("indirect_drains", drains)
        return IndirectResult(values=values, finish=finish,
                              elements=int(iters.size), unique_lines=unique,
                              drains=drains, start=t,
                              busy_until=fill_cursor)

    def _issue_segment(self, seg: FillSegment, t: int, kind: str,
                       tile: int) -> list[tuple]:
        """Request stage for one drain segment, ``drain_rate`` lines per
        cycle from ``t``.

        Each run of direct lines (H bit clear) goes to the DRAM engine in
        one :meth:`~repro.dram.system.DRAMSystem.access_lines` call.  An
        H-bit line goes through the Cache Interface on its own, in drain
        order, because an LLC miss there enqueues a DRAM read between the
        runs.  Returns the segment's pending responses in drain order:
        ``(requests, decoded)`` per run, ``(llc_result, None)`` per H-bit
        line.
        """
        lines = seg.lines.tolist()
        coords = seg.coords
        decoded = coords.tolist()
        h_bits = self.hierarchy.snoop_lines(lines)
        n = len(lines)
        drain_rate = self.config.drain_rate
        arrivals = [t + j // drain_rate for j in range(n)]
        is_write = kind in ("st", "rmw")
        tenant = self.tenant
        access_lines = self.dram.access_lines
        llc_access = self.hierarchy.llc_access
        out: list[tuple] = []
        start = 0
        for j in [j for j, h in enumerate(h_bits) if h] + [n]:
            if j > start:
                out.append((access_lines(lines[start:j], coords[start:j],
                                         arrivals[start:j], False, tenant),
                            decoded[start:j]))
            if j < n:
                out.append((llc_access(lines[j], is_write, arrivals[j],
                                       decoded=tuple(decoded[j]),
                                       tenant=tenant), None))
            start = j + 1
        self._note_drain(lines, seg.units, t, tile)
        return out

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
