"""Limited-window out-of-order core timing model.

The model is the trace-driven analogue of the paper's gem5 O3 configuration
(8-wide, ROB 224, LQ 72, SQ 56).  It reproduces the *structural* behaviour
the paper attributes the baseline's poor bandwidth to (Section 2.2):

* the frontend feeds at most ``width`` instructions per cycle, so address
  arithmetic consumes fetch slots;
* an op cannot issue before the ops its address depends on complete
  (the index-load -> indirect-load chain);
* ROB / LQ / SQ occupancy bounds in-flight memory ops, and the in-order
  retire of the ROB head blocks the window behind a long miss;
* atomic RMWs serialize per core: each waits for the previous atomic's
  completion plus a fence cost (line locking + store-buffer drain).

Completion times are resolved lazily from the cache hierarchy so that
independent misses pile up inside the memory controller's request buffer
before being scheduled — the visibility window FR-FCFS reorders within.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.common.config import CoreConfig
from repro.common.stats import Stats
from repro.common.types import AccessType, MemOp
from repro.cache.hierarchy import AccessResult, MemoryHierarchy
from repro.core.trace import Trace
from repro.dram.system import DRAMSystem


class AtomicsArbiter:
    """Per-core serialization of atomic RMW operations.

    x86 atomics lock the target cache line and fence the store buffer.
    Within a core, consecutive atomics to different lines overlap only
    partially (OVERLAP-deep pipelining of the line acquisitions), so each
    atomic delays the next by ``fence + exposed_latency/OVERLAP``.  Cached
    atomics come out ~4-5x slower than plain RMWs (the Free Atomics
    measurement the paper cites); atomics that miss to DRAM expose a
    quarter of the memory latency each — which is why RMW-heavy kernels
    like IS gain so much from DX100's fence-free exclusive-writer
    execution.
    """

    OVERLAP = 4

    def __init__(self, fence_cycles: int) -> None:
        self.fence_cycles = fence_cycles
        self._free_at: dict[int, int] = {}

    def acquire(self, core: int, t: int) -> int:
        """Earliest cycle an atomic presented at ``t`` may issue."""
        free = self._free_at.get(core, 0)
        return free if free > t else t

    def release(self, core: int, issue: int, completion: int) -> None:
        exposed = completion - issue
        exposed = exposed // self.OVERLAP if exposed > 0 else 0
        busy_until = issue + self.fence_cycles + exposed
        if busy_until > self._free_at.get(core, 0):
            self._free_at[core] = busy_until


@dataclass(slots=True)
class _InFlight:
    op: MemOp
    result: AccessResult
    instrs: int  # ROB occupancy contribution (op + its extra instructions)
    in_iq: bool = False   # consumers still parked in the issue queue
    iq_instrs: int = 0    # IQ occupancy contribution while unresolved


class CoreModel:
    """Timing model for one core executing one trace."""

    def __init__(self, core_id: int, config: CoreConfig,
                 hierarchy: MemoryHierarchy, dram: DRAMSystem,
                 atomics: AtomicsArbiter | None = None) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.dram = dram
        self.atomics = atomics or AtomicsArbiter(config.atomic_fence_cycles)
        self.stats = Stats()
        # Observability bus; None (one branch on forced retire) when off.
        self.obs: Any = None
        self._window: deque[_InFlight] = deque()
        # Flights whose consumers still occupy issue-queue slots, in window
        # (append) order.  Retired flights are removed lazily: they stay in
        # the deque with ``in_iq`` already cleared and get skipped/popped on
        # the next drain, so the per-op IQ scan touches only IQ residents
        # instead of the whole ROB window.
        self._iq_flights: deque[_InFlight] = deque()
        self._rob_used = 0
        self._iq_used = 0
        self._lq_used = 0
        self._sq_used = 0
        self._fetch_time = 0.0
        self._trace: Trace | None = None
        self._next = 0
        self._finish = 0

    # --------------------------------------------------------------- control

    def start(self, trace: Trace, at: int = 0) -> None:
        self._trace = trace
        self._next = 0
        self._fetch_time = float(at)
        self._finish = at

    @property
    def done(self) -> bool:
        return self._trace is None or self._next >= len(self._trace.ops)

    @property
    def next_time(self) -> float:
        """Approximate time of the next op's dispatch (for interleaving)."""
        return self._fetch_time

    # --------------------------------------------------------------- helpers

    def _complete(self, flight: _InFlight) -> int:
        # ``AccessResult.resolve`` inlined: one call per op completion.
        result = flight.result
        done = result.complete
        if done < 0:
            request = result.request
            if request.finish < 0:
                self.dram.complete(request)
            done = request.finish + result.return_latency
            result.complete = done
        flight.op.complete = done
        return done

    def _drain_iq(self, now: float) -> None:
        """Free IQ slots whose load completed by wall-clock ``now``."""
        if not self._iq_used:
            if self._iq_flights:
                self._iq_flights.clear()   # only lazily-retired leftovers
            return
        # Single pass with a rebuild instead of rotating the deque through
        # popleft/append: survivors keep their relative (window) order.
        flights = self._iq_flights
        kept: list[_InFlight] = []
        keep = kept.append
        iq_used = self._iq_used
        for flight in flights:
            if not flight.in_iq:
                continue
            complete = flight.result.complete
            if 0 <= complete <= now:
                flight.in_iq = False
                iq_used -= flight.iq_instrs
            else:
                keep(flight)
        self._iq_used = iq_used
        flights.clear()
        flights.extend(kept)

    def _retire_oldest(self, forced: bool = False) -> None:
        flight = self._window.popleft()
        # ``_complete`` inlined (one call per retired op).
        result = flight.result
        done = result.complete
        if done < 0:
            request = result.request
            if request.finish < 0:
                self.dram.complete(request)
            done = request.finish + result.return_latency
            result.complete = done
        flight.op.complete = done
        self._rob_used -= flight.instrs
        if flight.in_iq:
            self._iq_used -= flight.iq_instrs
            flight.in_iq = False
        if flight.op.kind is AccessType.LOAD:
            self._lq_used -= 1
        else:
            self._sq_used -= 1
        if done > self._finish:
            self._finish = done
        if forced:
            # Structural stall: fetch was blocked until the ROB head
            # completed — this head-of-line burstiness is what keeps the
            # baseline's sustained request rate (and the controller's
            # request-buffer occupancy) low (Section 6.2).
            if done > self._fetch_time:
                if self.obs is not None:
                    self.obs.core_span(self.core_id, "rob-blocked",
                                       self._fetch_time, done)
                self._fetch_time = float(done)
        else:
            refill = done - self._rob_used / self.config.width
            if refill > self._fetch_time:
                self._fetch_time = refill

    def _dep_ready(self, op: MemOp) -> int:
        ready = 0
        for dep_idx in op.deps:
            dep_op = self._trace.ops[dep_idx]
            if dep_op.complete < 0:
                # Find it in the window and resolve.
                for flight in self._window:
                    if flight.op is dep_op:
                        dep_op.complete = self._complete(flight)
                        break
                else:
                    raise RuntimeError(
                        f"dependence on op {dep_idx} which never executed"
                    )
            ready = max(ready, dep_op.complete)
        return ready

    # --------------------------------------------------------------- stepping

    def step(self) -> MemOp:
        """Execute the next memory op of the trace; returns it."""
        if self.done:
            raise RuntimeError("trace exhausted")
        op = self._trace.ops[self._next]
        self._next += 1
        cfg = self.config
        counters = self.stats.counters
        window = self._window
        instrs = 1 + op.extra_instrs
        is_load = op.kind is AccessType.LOAD

        # Frontend: fetch/decode bandwidth.
        self._fetch_time += instrs / cfg.width
        dispatch = self._fetch_time

        # Structural stalls: free ROB / LQ / SQ / IQ space by retiring in
        # order.  The IQ is the binding window for indirect kernels: the
        # consumer instructions of every outstanding miss sit unissued in
        # the 50-entry issue queue, so only a few iterations' misses can be
        # in flight at once (the paper's Section 6.2 analysis).
        while window and self._rob_used + instrs > cfg.rob_size:
            counters["rob_stalls"] += 1
            self._retire_oldest(forced=True)
        # ``_iq_used`` is only consulted here, so draining can wait until
        # the (over-)estimate signals pressure: if the undrained count fits,
        # the drained one fits too and the stall loop is skipped either way.
        if self._iq_used + instrs > cfg.iq_size:
            self._drain_iq(self._fetch_time)
            while self._iq_used + instrs > cfg.iq_size:
                # Wait (wall-clock) for the oldest miss holding IQ slots.
                iq_flights = self._iq_flights
                while iq_flights and not iq_flights[0].in_iq:
                    iq_flights.popleft()   # retired lazily; discard
                if not iq_flights:
                    break
                counters["iq_stalls"] += 1
                done = self._complete(iq_flights[0])
                if done > self._fetch_time:
                    self._fetch_time = float(done)
                self._drain_iq(self._fetch_time)
        if is_load:
            while window and self._lq_used >= cfg.lq_size:
                counters["lq_stalls"] += 1
                self._retire_oldest(forced=True)
        else:
            while window and self._sq_used >= cfg.sq_size:
                counters["sq_stalls"] += 1
                self._retire_oldest(forced=True)
        if self._fetch_time > dispatch:
            dispatch = self._fetch_time

        # Data dependences: the address is ready when producers complete.
        issue = int(dispatch)
        if op.deps:
            ready = self._dep_ready(op)
            if ready > issue:
                issue = ready

        if op.atomic:
            issue = self.atomics.acquire(self.core_id, issue)
            counters["atomics"] += 1

        result = self.hierarchy.access(self.core_id, op.addr,
                                       op.kind.is_write, issue, pc=op.pc,
                                       tag=op.tag)
        op.issue = result.issue
        op.level = result.level
        complete = result.complete
        if complete >= 0:
            op.complete = complete

        if op.atomic:
            # The line lock / fence delays this core's next atomic.
            op.complete = result.resolve(self.dram)
            self.atomics.release(self.core_id, issue, op.complete)
            complete = result.complete

        flight = _InFlight(op, result, instrs)
        if complete < 0:
            # Miss: the op and roughly half its attributed instructions
            # (the value consumers) wait in the issue queue until the line
            # returns; the rest (address generation, control) issued early.
            flight.iq_instrs = 1 + op.extra_instrs // 2
            flight.in_iq = True
            self._iq_used += flight.iq_instrs
            self._iq_flights.append(flight)
        window.append(flight)
        self._rob_used += instrs
        if is_load:
            self._lq_used += 1
        else:
            self._sq_used += 1
        counters["ops"] += 1
        counters["instructions"] += instrs
        return op

    def drain(self) -> int:
        """Retire everything outstanding; returns the core's finish cycle."""
        while self._window:
            self._retire_oldest()
        self._iq_flights.clear()   # all retired above; drop stale refs
        tail = self._trace.tail_instrs if self._trace else 0
        if tail:
            self.stats.add("instructions", tail)
            self._fetch_time += tail / self.config.width
        self._finish = max(self._finish, int(self._fetch_time))
        return self._finish

    def run(self, trace: Trace, at: int = 0) -> int:
        """Convenience single-core execution: returns the finish cycle."""
        self.start(trace, at)
        while not self.done:
            self.step()
        return self.drain()
