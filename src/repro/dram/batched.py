"""The batched array-kernel channel engine (the production controller).

:class:`BatchedController` is a drop-in replacement for
:class:`~repro.dram.controller.MemoryController` that trades the scalar
engine's per-request object dispatch for structure-of-arrays state:

* **SoA request buffer** — a request's arrival / direction / row / dense
  bank id live in parallel lists indexed by a monotone request id (rid);
  the scheduler's heaps hold bare ``(arrival, rid)`` int pairs, with
  liveness in one ``bytearray``: requests taken out of arrival order are
  popped lazily when they surface, and the heaps are compacted wholesale
  once dead entries outnumber live ones.  The per-(bank, row) heaps the
  row-hit scan reads are filled lazily, just before a scan: requests the
  age cap serves oldest-first (long DX100 drains) are never indexed.  A
  whole run of requests enters with
  :meth:`~BatchedController.enqueue_run` (``list.extend`` per column).
* **Dense bank state** — per-channel banks are numbered
  ``(rank * bankgroups + bankgroup) * banks_per_group + bank`` and kept in
  one flat list, killing the per-access dict hashing of flat-bank tuples.
* **Pre-decoded enqueue** — callers that decoded a whole tile through
  :meth:`~repro.dram.address.AddressMapper.map_arrays` hand coordinates in
  as ints (:meth:`enqueue_decoded`); nothing on the service path touches a
  ``DRAMCoord``.
* **One-frame service kernel** — refill, FR-FCFS/FCFS take and command
  timing run in one frame (:meth:`~BatchedController._service`), looping
  there for ``service_until_done`` and ``drain``; ``service_one`` is its
  one-request form.  JEDEC constants, SoA columns, bank/rank lists and the
  bus state are locals; bank/bus math is inlined from
  :mod:`repro.dram.bank`.  Per-request statistics accumulate in locals and
  are flushed on exit — and before any command observer runs, since
  observers (the obs timeline) read them mid-service.

The engine is *bitwise equivalent* to the scalar oracle: identical pick
order (``(arrival, rid)`` reproduces the linear scan's tie-break, earlier
buffer slot first — rids are assigned in enqueue order and refill is
FIFO, so buffer order is rid order), identical command streams
(including refresh, which walks banks in dense order on both sides), and
identical statistics (the deferred sums are integer-valued, so one flush
equals the per-request additions bitwise).
``tests/dram/test_engine_differential.py`` and
``tests/dram/test_segment_handoff.py`` hold the differential suites;
select the oracle with ``DRAMConfig.engine = "scalar"``.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

import numpy as np

from repro.common.config import DRAMConfig
from repro.common.stats import Stats
from repro.common.types import DRAMCoord, DRAMRequest
from repro.dram.address import AddressMapper
from repro.dram.bank import BankState, ChannelBusState, RankState
from repro.dram.scheduler import AGE_CAP

#: Reclaim SoA storage once the retired tail exceeds this many slots (only
#: at quiescent points, where no rid can still be referenced).
_RESET_THRESHOLD = 1 << 16


class _SchedulerHandle:
    """Stand-in scheduler object for the batched engine's compat surface.

    The engine schedules inline, but the observability layer attaches a
    starvation probe via ``controller.scheduler.obs`` (see
    :meth:`repro.obs.events.EventBus.attach`) — this is that attach point.
    """

    __slots__ = ("obs",)

    def __init__(self) -> None:
        self.obs = None


class _BufferView:
    """Sized view of the request buffer (``len(ctrl.buffer)`` compat)."""

    __slots__ = ("_ctrl",)

    def __init__(self, ctrl: "BatchedController") -> None:
        self._ctrl = ctrl

    def __len__(self) -> int:
        return self._ctrl._buffered

    def __bool__(self) -> bool:
        return self._ctrl._buffered > 0


class BatchedController:
    """Batched timing model of a single DDR4 channel.

    External surface (time, stats, observers, ``banks``, ``buffer``,
    enqueue/service/drain) mirrors :class:`MemoryController`; see the
    module docstring for what differs inside.
    """

    def __init__(self, channel: int, config: DRAMConfig,
                 mapper: AddressMapper) -> None:
        self.channel = channel
        self.config = config
        self.timing = config.timing
        self.mapper = mapper
        self.scheduler = _SchedulerHandle()
        self._fcfs = config.scheduler == "fcfs"
        self._closed_page = config.page_policy == "closed"

        # Dense bank/rank state.  bank_id = (rank*BG + bg)*BPG + bank.
        self._bankgroups = config.bankgroups
        self._banks_per_group = config.banks_per_group
        self._banks_per_rank = config.bankgroups * config.banks_per_group
        n_banks = config.ranks * self._banks_per_rank
        self._bank_list = [BankState() for _ in range(n_banks)]
        self._rank_list = [RankState() for _ in range(config.ranks)]
        self._fb: list[tuple[int, int, int, int]] = []
        self.banks: dict[tuple, BankState] = {}
        for bid in range(n_banks):
            rank, rem = divmod(bid, self._banks_per_rank)
            bg, bank = divmod(rem, self._banks_per_group)
            fb = (channel, rank, bg, bank)
            self._fb.append(fb)
            self.banks[fb] = self._bank_list[bid]
        self.ranks: dict[int, RankState] = dict(enumerate(self._rank_list))
        if config.refresh:
            for rank_state in self._rank_list:
                rank_state.next_ref = self.timing.tREFI
            self._next_ref = self.timing.tREFI
        else:
            self._next_ref = 1 << 62
        self.bus = ChannelBusState()

        # SoA request storage, indexed by rid (monotone per enqueue).
        self._arr: list[int] = []       # arrival cycle
        self._w: list[bool] = []        # is_write
        self._row: list[int] = []
        self._bg: list[int] = []
        self._bid: list[int] = []       # dense bank id
        self._req: list = []            # DRAMRequest (cleared on retire)
        self._alive = bytearray()
        self.input_queue: deque[int] = deque()
        self._buffered = 0
        self._dead = 0

        # Inline FR-FCFS index over (arrival, rid) pairs.
        self._any: list[tuple[int, int]] = []
        # row * n_banks + bank_id -> (read_heap, write_heap)
        self._groups: dict[int, tuple[list, list]] = {}
        self._hot: dict[int, tuple[list, list]] = {}
        # Buffered rids not yet in their (bank, row) heaps (FR-FCFS only).
        self._unindexed: list[int] = []

        self.buffer = _BufferView(self)
        self.time = 0
        self.stats = Stats()
        self._last_occ_time = 0
        self._buffer_cap = config.request_buffer
        self._line_bytes = config.line_bytes
        # JEDEC constants, unpacked into locals by the service kernel in one
        # step (the frozen-dataclass reads added up).
        t = self.timing
        self._jedec = (t.tRP, t.tRCD, t.tRAS, t.tRC, t.tRTP, t.tWR, t.tCL,
                       t.tCWL, t.tBL, t.tCCD_S, t.tCCD_L, t.tRRD_S, t.tRRD_L,
                       t.tFAW)
        # Every container the kernel walks, likewise unpacked in one step.
        # Their identities never change: reset and compaction work in place.
        self._soa = (self._arr, self._w, self._row, self._bg, self._bid,
                     self._req, self._alive, self.input_queue, self._any,
                     self._groups, self._hot, self._unindexed,
                     self._bank_list, self._rank_list, self._fb)
        self.command_observers: list = []
        # Far-memory link (:class:`repro.dram.remote.RemoteLink`), shared
        # across channels; assigned by :class:`~repro.dram.system.DRAMSystem`
        # when the remote tier is enabled.  None = all addresses are local.
        self.remote = None

    # ------------------------------------------------------------- producers

    def enqueue(self, req: DRAMRequest) -> None:
        """Accept a request; decode via the (memoized) scalar map."""
        coord = self.mapper.map(req.addr)
        self.enqueue_coord(req, coord)

    def enqueue_coord(self, req: DRAMRequest, coord: DRAMCoord) -> None:
        if coord.channel != self.channel:
            raise ValueError(
                f"request for channel {coord.channel} routed to {self.channel}"
            )
        self.enqueue_decoded(req, coord.rank, coord.bankgroup, coord.bank,
                             coord.row)

    def enqueue_decoded(self, req: DRAMRequest, rank: int, bankgroup: int,
                        bank: int, row: int) -> None:
        """Accept a request with pre-decoded coordinates (batch decode)."""
        rid = len(self._arr)
        if (rid > _RESET_THRESHOLD and not self._buffered
                and not self.input_queue):
            self._reset_storage()
            rid = 0
        self._arr.append(req.arrival)
        self._w.append(req.is_write)
        self._row.append(row)
        self._bg.append(bankgroup)
        self._bid.append((rank * self._bankgroups + bankgroup)
                         * self._banks_per_group + bank)
        self._req.append(req)
        self._alive.append(0)
        self.input_queue.append(rid)
        counters = self.stats.counters
        counters["requests"] += 1
        counters["writes" if req.is_write else "reads"] += 1

    def enqueue_run(self, reqs: list[DRAMRequest], coords: np.ndarray,
                    is_write: bool) -> None:
        """Accept a run of same-direction requests at once.

        ``coords`` holds each request's ``(channel, rank, bankgroup, bank,
        row)`` (one row per request, as decoded by
        :meth:`~repro.dram.address.AddressMapper.map_arrays`); the SoA
        columns grow by ``list.extend`` and the dense bank ids come from one
        NumPy expression.  Equivalent to :meth:`enqueue_decoded` per request.
        """
        n = len(reqs)
        base = len(self._arr)
        if (base > _RESET_THRESHOLD and not self._buffered
                and not self.input_queue):
            self._reset_storage()
            base = 0
        self._arr.extend([req.arrival for req in reqs])
        self._w.extend([is_write] * n)
        self._row.extend(coords[:, 4].tolist())
        self._bg.extend(coords[:, 2].tolist())
        self._bid.extend(((coords[:, 1] * self._bankgroups + coords[:, 2])
                          * self._banks_per_group + coords[:, 3]).tolist())
        self._req.extend(reqs)
        self._alive.extend(bytes(n))
        self.input_queue.extend(range(base, base + n))
        counters = self.stats.counters
        counters["requests"] += n
        counters["writes" if is_write else "reads"] += n

    def _reset_storage(self) -> None:
        """Reclaim SoA slots at a quiescent point (nothing in flight).

        Rid relative order is preserved for all future requests, so the
        ``(arrival, rid)`` tie-break stays equivalent to the oracle's
        monotone ``seq`` (ties are only ever compared among co-buffered
        requests).
        """
        del self._arr[:]
        del self._w[:]
        del self._row[:]
        del self._bg[:]
        del self._bid[:]
        del self._req[:]
        del self._alive[:]
        del self._any[:]
        self._groups.clear()
        self._hot.clear()
        del self._unindexed[:]
        self._dead = 0

    @property
    def pending(self) -> int:
        return self._buffered + len(self.input_queue)

    def next_event(self) -> int | None:
        """Earliest cycle this channel has schedulable work, or None."""
        if self._buffered:
            return self.time
        if self.input_queue:
            arrival = self._arr[self.input_queue[0]]
            return arrival if arrival > self.time else self.time
        return None

    # ------------------------------------------------------------- scheduling

    def _compact(self) -> None:
        """Drop dead nodes from every heap and rebuild the hot set (in
        place: the service kernel holds these containers in locals and
        resets its dead count itself)."""
        alive = self._alive
        any_heap = self._any
        any_heap[:] = [node for node in any_heap if alive[node[1]]]
        heapify(any_heap)
        groups = self._groups
        for key in list(groups):
            read_heap, write_heap = groups[key]
            read_heap[:] = [n for n in read_heap if alive[n[1]]]
            write_heap[:] = [n for n in write_heap if alive[n[1]]]
            if read_heap:
                heapify(read_heap)
            if write_heap:
                heapify(write_heap)
            if not read_heap and not write_heap:
                del groups[key]
        hot = self._hot
        hot.clear()
        n_banks = len(self._bank_list)
        for bid, bank in enumerate(self._bank_list):
            if bank.open_row is not None:
                pair = groups.get(bank.open_row * n_banks + bid)
                if pair is not None and (pair[0] or pair[1]):
                    hot[bid] = pair

    # ------------------------------------------------------------- refresh

    def _refresh_catch_up(self, now: int) -> None:
        """Issue every REF whose tREFI point has passed (dense bank walk).

        Mirrors the scalar engine's refresh semantics exactly: close open
        rows at ``max(pre_ready, due)``, REF at the latest of the due
        point, the previous REF's recovery, and every bank's ``act_ready``;
        the schedule stays pinned to multiples of tREFI.
        """
        timing = self.timing
        observers = self.command_observers
        counters = self.stats.counters
        hot = self._hot
        bank_list = self._bank_list
        banks_per_rank = self._banks_per_rank
        for rank_id, rank in enumerate(self._rank_list):
            while rank.next_ref <= now:
                due = rank.next_ref
                t_ref = due if due > rank.ref_done else rank.ref_done
                base = rank_id * banks_per_rank
                for bid in range(base, base + banks_per_rank):
                    bank = bank_list[bid]
                    if bank.open_row is not None:
                        t_pre = bank.pre_ready
                        if due > t_pre:
                            t_pre = due
                        row = bank.open_row
                        bank.precharge(t_pre, timing)
                        hot.pop(bid, None)
                        if observers:
                            fb = self._fb[bid]
                            for obs in observers:
                                obs("PRE", t_pre, fb, row)
                        counters["refresh_row_closes"] += 1
                    if bank.act_ready > t_ref:
                        t_ref = bank.act_ready
                if observers:
                    fb = (self.channel, rank_id, 0, 0)
                    for obs in observers:
                        obs("REF", t_ref, fb, -1)
                counters["refreshes"] += 1
                rank.ref_done = t_ref + timing.tRFC
                rank.next_ref = due + timing.tREFI
        self._next_ref = min(r.next_ref for r in self._rank_list)

    # ------------------------------------------------------------- service

    def _flush(self, serviced: int, hits: int, conflicts: int, empty: int,
               occ_sum: int, occ_w: int, first: int, last: int,
               buffered: int) -> None:
        """Publish the service kernel's frame-local statistics.

        Only non-zero deltas are written, so no zero-valued key appears
        that per-request accounting would not have created.  Every delta
        is an integer-valued float sum, so one flush equals the per-request
        additions bitwise.  Also publishes the buffer occupancy the kernel
        keeps in a local (``len(ctrl.buffer)``).
        """
        self._buffered = buffered
        stats = self.stats
        counters = stats.counters
        if serviced:
            counters["serviced"] += serviced
            counters["bytes"] += serviced * self._line_bytes
            mins = stats.mins
            cur = mins.get("first_arrival")
            if cur is None or first < cur:
                mins["first_arrival"] = first
            maxs = stats.maxs
            cur = maxs.get("last_finish")
            if cur is None or last > cur:
                maxs["last_finish"] = last
        if hits:
            counters["row_hits"] += hits
        if conflicts:
            counters["row_conflicts"] += conflicts
        if empty:
            counters["row_empty"] += empty
        if occ_w:
            stats._wsum["occupancy"] += occ_sum
            stats._wweight["occupancy"] += occ_w

    def _service(self, target: DRAMRequest | None = None, limit: int = 0,
                 bound: int | None = None) -> DRAMRequest | None:
        """The service kernel: refill, FR-FCFS/FCFS take and the full
        ACT/PRE/column timing advance for as many requests as asked, in
        one frame.

        Stops once ``target`` has finished (raising if the channel goes
        idle first), after ``limit`` requests (0 = no limit), when the
        channel is idle, or — with ``bound`` — as soon as the channel's
        next event lies beyond ``bound``.  Returns the last request
        serviced (None if none was).

        JEDEC constants, SoA columns, bank/rank lists, the bus state, the
        clock and the per-request statistics live in locals; statistics
        are flushed (:meth:`_flush`) on exit and, when command observers
        are attached, before any observer sees a command — observers such
        as the obs timeline read ``serviced``/``row_hits``/``bytes`` and
        the buffer occupancy mid-service.
        """
        (arr, writes, rows, bgs, bids, reqs, alive, queue, any_heap, groups,
         hot, unindexed, bank_list, rank_list, fbs) = self._soa
        (tRP, tRCD, tRAS, tRC, tRTP, tWR, tCL, tCWL, tBL, tCCD_S, tCCD_L,
         tRRD_S, tRRD_L, tFAW) = self._jedec
        fcfs = self._fcfs
        closed = self._closed_page
        cap = self._buffer_cap
        banks_per_rank = self._banks_per_rank
        n_banks = len(bank_list)
        observers = self.command_observers
        probe = self.scheduler.obs
        bus = self.bus
        last_col = bus.last_col
        last_col_bg = bus.last_col_bg
        last_was_write = bus.last_was_write
        data_free = bus.data_free
        now = self.time
        buffered = self._buffered
        dead = self._dead
        next_ref = self._next_ref
        occ_t = self._last_occ_time
        occ_sum = occ_w = 0
        n_serv = n_hit = n_conf = n_empty = 0
        first = 1 << 62
        last_fin = -(1 << 62)
        served = 0
        req = None
        stranded = False
        while target is None or target.finish < 0:
            if not buffered:
                if not queue:
                    stranded = target is not None
                    break
                arrival = arr[queue[0]]
                if arrival > now:
                    # Idle gap: account the empty buffer, skip ahead.
                    dt = now - occ_t
                    if dt > 0:
                        occ_w += dt
                    now = occ_t = arrival
            # Refill: arrived requests enter the window, oldest first.
            while queue and buffered < cap and arr[queue[0]] <= now:
                rid = queue.popleft()
                alive[rid] = 1
                heappush(any_heap, (arr[rid], rid))
                buffered += 1
                if not fcfs:
                    unindexed.append(rid)

            # ------------------------------------------------------ take
            if fcfs:
                rid = heappop(any_heap)[1]
            else:
                while not alive[any_heap[0][1]]:
                    heappop(any_heap)
                    dead -= 1
                oldest = any_heap[0]
                if now - oldest[0] > AGE_CAP:
                    rid = oldest[1]
                    if probe is not None:
                        probe.starvation(now)
                else:
                    # Index the requests refilled since the last row-hit
                    # scan by (bank, row); the age-cap path never needs
                    # them, so long starved streaks skip the indexing.
                    for rid in unindexed:
                        if alive[rid]:
                            bid = bids[rid]
                            row = rows[rid]
                            key = row * n_banks + bid
                            pair = groups.get(key)
                            if pair is None:
                                pair = groups[key] = ([], [])
                            heappush(pair[1] if writes[rid] else pair[0],
                                     (arr[rid], rid))
                            if bank_list[bid].open_row == row:
                                hot[bid] = pair
                    del unindexed[:]
                    best_dir = best_hit = None
                    stale = None
                    for hot_bid, pair in hot.items():
                        read_heap, write_heap = pair
                        while read_heap and not alive[read_heap[0][1]]:
                            heappop(read_heap)
                            dead -= 1
                        while write_heap and not alive[write_heap[0][1]]:
                            heappop(write_heap)
                            dead -= 1
                        if read_heap:
                            head = read_heap[0]
                            if best_hit is None or head < best_hit:
                                best_hit = head
                            if not last_was_write and (
                                    best_dir is None or head < best_dir):
                                best_dir = head
                        if write_heap:
                            head = write_heap[0]
                            if best_hit is None or head < best_hit:
                                best_hit = head
                            if last_was_write and (
                                    best_dir is None or head < best_dir):
                                best_dir = head
                        elif not read_heap:
                            stale = ([hot_bid] if stale is None
                                     else stale + [hot_bid])
                    if stale is not None:
                        for hot_bid in stale:
                            del hot[hot_bid]
                    if best_dir is not None:
                        rid = best_dir[1]
                    elif best_hit is not None:
                        rid = best_hit[1]
                    else:
                        rid = oldest[1]
                dead += 1
            alive[rid] = 0
            buffered -= 1
            if dead > 64 and dead > 2 * buffered:
                self._compact()
                dead = 0

            # --------------------------------------------------- execute
            arrival = arr[rid]
            earliest = now if now > arrival else arrival
            if earliest >= next_ref:
                # Refresh points have passed: catch up before the row-state
                # check — a REF closes every open row in its rank.
                if observers:
                    self._flush(n_serv, n_hit, n_conf, n_empty, occ_sum,
                                occ_w, first, last_fin, buffered)
                    n_serv = n_hit = n_conf = n_empty = occ_sum = occ_w = 0
                self._refresh_catch_up(earliest)
                next_ref = self._next_ref
            bid = bids[rid]
            row = rows[rid]
            bg = bgs[rid]
            is_write = writes[rid]
            req = reqs[rid]
            bank = bank_list[bid]
            open_row = bank.open_row
            if open_row == row:
                n_hit += 1
            elif open_row is None:
                n_empty += 1
            else:
                n_conf += 1
            if observers:
                self._flush(n_serv, n_hit, n_conf, n_empty, occ_sum, occ_w,
                            first, last_fin, buffered)
                n_serv = n_hit = n_conf = n_empty = occ_sum = occ_w = 0

            if open_row == row:
                req.row_hit = True
                t_col_min = bank.col_ready
                if earliest > t_col_min:
                    t_col_min = earliest
            else:
                rank = rank_list[bid // banks_per_rank]
                if open_row is not None:
                    t_pre = bank.pre_ready
                    if earliest > t_pre:
                        t_pre = earliest
                    bank.open_row = None
                    t = t_pre + tRP
                    if t > bank.act_ready:
                        bank.act_ready = t
                    hot.pop(bid, None)
                    if observers:
                        fb = fbs[bid]
                        for obs in observers:
                            obs("PRE", t_pre, fb, open_row)
                t_act = bank.act_ready
                if earliest > t_act:
                    t_act = earliest
                # Inline RankState.earliest_act: tRRD spacing plus the tFAW
                # four-activate window.
                rank_ready = rank.last_act + (
                    tRRD_L if bg == rank.last_act_bg else tRRD_S)
                times = rank.last_act_times
                if len(times) >= 4:
                    faw = times[-4] + tFAW
                    if faw > rank_ready:
                        rank_ready = faw
                if rank_ready > t_act:
                    t_act = rank_ready
                if rank.ref_done > t_act:
                    t_act = rank.ref_done
                # Inline BankState.activate.
                bank.open_row = row
                bank.last_act = t_act
                t = t_act + tRCD
                if t > bank.col_ready:
                    bank.col_ready = t
                t = t_act + tRAS
                if t > bank.pre_ready:
                    bank.pre_ready = t
                t = t_act + tRC
                if t > bank.act_ready:
                    bank.act_ready = t
                # Inline RankState.record_act.
                rank.last_act = t_act
                rank.last_act_bg = bg
                times.append(t_act)
                if len(times) > 8:
                    del times[:-4]
                if not fcfs:
                    pair = groups.get(row * n_banks + bid)
                    if pair is not None and (pair[0] or pair[1]):
                        hot[bid] = pair
                    else:
                        hot.pop(bid, None)
                if observers:
                    fb = fbs[bid]
                    for obs in observers:
                        obs("ACT", t_act, fb, row)
                t_col_min = bank.col_ready

            # Inline ChannelBusState.earliest_col / record_col.
            t_col = last_col + (tCCD_L if bg == last_col_bg else tCCD_S)
            if last_was_write != is_write:
                turn = last_col + tCCD_L
                if turn > t_col:
                    t_col = turn
            latency = tCWL if is_write else tCL
            free = data_free - latency
            if free > t_col:
                t_col = free
            if t_col_min > t_col:
                t_col = t_col_min
            last_col = t_col
            last_col_bg = bg
            last_was_write = is_write
            data_free = t_col + latency + tBL
            if observers:
                fb = fbs[bid]
                kind = "WR" if is_write else "RD"
                for obs in observers:
                    obs(kind, t_col, fb, row)
            if is_write:
                t = t_col + tCWL + tBL + tWR
                if t > bank.pre_ready:
                    bank.pre_ready = t
                finish = t_col + tCWL + tBL
            else:
                t = t_col + tRTP
                if t > bank.pre_ready:
                    bank.pre_ready = t
                finish = t_col + tCL + tBL
            req.start = t_col
            if req.far:
                # Far-memory tier: route the completion through the shared
                # link's return path (same call site in both engines, so
                # the link state evolves identically — the bitwise
                # guarantee).
                remote = self.remote
                if remote is not None:
                    finish = remote.deliver(finish, is_write)
            req.finish = finish
            if closed:
                # Auto-precharge (RDA/WRA): close the row as soon as legal.
                t_pre = bank.pre_ready
                bank.open_row = None
                t = t_pre + tRP
                if t > bank.act_ready:
                    bank.act_ready = t
                hot.pop(bid, None)
                if observers:
                    fb = fbs[bid]
                    for obs in observers:
                        obs("PRE", t_pre, fb, row)

            dt = t_col - occ_t
            if dt > 0:
                occ_sum += buffered * dt
                occ_w += dt
                occ_t = t_col
            if t_col > now:
                now = t_col
            n_serv += 1
            tenant = req.tenant
            if tenant >= 0:
                # Per-tenant accounting, mirroring the scalar oracle.
                counters = self.stats.counters
                counters[f"tenant{tenant}_serviced"] += 1
                counters[f"tenant{tenant}_bytes"] += self._line_bytes
                if req.row_hit:
                    counters[f"tenant{tenant}_row_hits"] += 1
            if arrival < first:
                first = arrival
            if finish > last_fin:
                last_fin = finish
            reqs[rid] = None
            served += 1
            if served == limit:
                break
            if bound is not None:
                # Stop once the next schedulable cycle passes ``bound``.
                if buffered:
                    if now > bound:
                        break
                elif not queue:
                    break
                else:
                    head = arr[queue[0]]
                    if (head if head > now else now) > bound:
                        break

        bus.last_col = last_col
        bus.last_col_bg = last_col_bg
        bus.last_was_write = last_was_write
        bus.data_free = data_free
        self.time = now
        self._dead = dead
        self._last_occ_time = occ_t
        # ``_flush`` inlined: most calls service a single request.
        self._buffered = buffered
        stats = self.stats
        counters = stats.counters
        if n_serv:
            counters["serviced"] += n_serv
            counters["bytes"] += n_serv * self._line_bytes
        if n_hit:
            counters["row_hits"] += n_hit
        if n_conf:
            counters["row_conflicts"] += n_conf
        if n_empty:
            counters["row_empty"] += n_empty
        if occ_w:
            stats._wsum["occupancy"] += occ_sum
            stats._wweight["occupancy"] += occ_w
        if served:
            mins = stats.mins
            cur = mins.get("first_arrival")
            if cur is None or first < cur:
                mins["first_arrival"] = first
            maxs = stats.maxs
            cur = maxs.get("last_finish")
            if cur is None or last_fin > cur:
                maxs["last_finish"] = last_fin
        if stranded:
            raise RuntimeError("request never enqueued on this channel")
        return req if served else None

    def service_one(self) -> DRAMRequest | None:
        """Schedule and complete one request; returns it, or None if idle
        (the one-request form of the service kernel)."""
        return self._service(None, 1)

    #: ``service_until_done(req)`` is the kernel itself with ``target=req``
    #: (one call per completed line on the segment path, not two).
    service_until_done = _service

    def drain(self, bound: int | None = None) -> None:
        """Service until idle or, with ``bound``, until the channel's next
        schedulable cycle lies beyond ``bound``."""
        self._service(None, 0, bound)

    # ------------------------------------------------------------- metrics

    def row_buffer_hit_rate(self) -> float:
        """Fraction of serviced requests that hit an open row."""
        serviced = self.stats.get("serviced")
        if serviced == 0:
            return 0.0
        return self.stats.get("row_hits") / serviced

    def mean_occupancy(self) -> float:
        return self.stats.mean("occupancy")
