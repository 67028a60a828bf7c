"""Miss Status Holding Registers.

An MSHR file bounds the number of outstanding line fills per cache and
coalesces repeated misses to the same line onto one fill — both effects the
paper identifies as limiting the baseline's memory-level parallelism
(Section 2.2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.common.stats import Stats
from repro.common.types import DRAMRequest


@dataclass(slots=True)
class MSHREntry:
    """One outstanding line fill."""

    line_addr: int
    allocated_at: int
    request: DRAMRequest | None = None   # None when filled from a lower cache
    ready: int = -1                      # known completion, if already resolved
    waiters: int = 0
    #: Allocated by a prefetch fill rather than a demand miss.  The first
    #: demand that touches the line adjudicates the race (see ``lookup``):
    #: a timely fill is a plain hit, an in-flight fill is *one* miss.
    prefetch: bool = False

    def resolve(self, ready: int) -> None:
        self.ready = ready


class MSHRFile:
    """Bounded set of outstanding misses with same-line coalescing."""

    __slots__ = ("capacity", "name", "stats", "obs", "_entries", "_counters",
                 "_key_coalesced", "_key_allocations", "_key_stalls")

    def __init__(self, capacity: int, stats: Stats | None = None,
                 name: str = "mshr") -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.stats = stats if stats is not None else Stats()
        # Observability bus; None (one branch on allocate) unless attached.
        self.obs: Any = None
        self._entries: OrderedDict[int, MSHREntry] = OrderedDict()
        # Hot-path counter access: the counters dict is a defaultdict and
        # its identity is stable, so bump it directly with precomputed keys
        # instead of formatting the stat name on every lookup/allocate.
        self._counters = self.stats.counters
        self._key_coalesced = f"{name}_coalesced"
        self._key_allocations = f"{name}_allocations"
        self._key_stalls = f"{name}_stalls"

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lookup(self, line_addr: int, now: int = -1) -> MSHREntry | None:
        """Return the outstanding entry for ``line_addr``, if any.

        Entries are released *lazily*: a resolved entry (fill completed)
        encountered here is dropped and reported absent, exactly as if it
        had been pruned eagerly at the start of the access — so callers
        never need a full :meth:`release_resolved` sweep on the hot path.

        Prefetch entries are the exception: their fill was speculative, so
        a resolved entry is released only when the fill landed at or before
        ``now`` (the demand's arrival) — a *timely* prefetch the demand
        simply hits.  A fill still in flight (or landing after ``now``) is
        returned with ``prefetch`` still set so the caller can charge the
        demand miss the prefetch merely absorbed.
        """
        entry = self._entries.get(line_addr)
        if entry is None:
            return None
        if entry.prefetch:
            ready = entry.ready
            if ready < 0 and entry.request is not None:
                ready = entry.request.finish
            if 0 <= ready <= now:
                del self._entries[line_addr]
                return None
            entry.waiters += 1
            self._counters[self._key_coalesced] += 1.0
            return entry
        if entry.ready >= 0 or (entry.request is not None
                                and entry.request.finish >= 0):
            del self._entries[line_addr]
            return None
        entry.waiters += 1
        self._counters[self._key_coalesced] += 1.0
        return entry

    def allocate(self, line_addr: int, allocated_at: int) -> MSHREntry:
        entries = self._entries
        if len(entries) >= self.capacity:
            raise RuntimeError(f"{self.name} full; release an entry first")
        if line_addr in entries:
            raise ValueError(f"line {line_addr:#x} already outstanding")
        entry = MSHREntry(line_addr=line_addr, allocated_at=allocated_at)
        entries[line_addr] = entry
        self._counters[self._key_allocations] += 1.0
        if self.obs is not None:
            self.obs.mshr_occupancy(self.name, allocated_at, len(entries),
                                    self.capacity)
        return entry

    def release(self, line_addr: int) -> MSHREntry:
        entry = self._entries.pop(line_addr, None)
        if entry is None:
            raise KeyError(f"line {line_addr:#x} not outstanding")
        return entry

    def release_resolved(self) -> None:
        """Free every entry whose fill has completed.

        The access path relies on :meth:`lookup`'s lazy per-line release
        instead; this wholesale sweep runs only under capacity pressure
        (:meth:`MemoryHierarchy._stall_for_mshr`) and before external
        prefetch admission, where an exact occupancy count matters.
        """
        entries = self._entries
        if not entries:
            return
        stale = None
        for line_addr, entry in entries.items():
            if entry.ready >= 0 or (entry.request is not None
                                    and entry.request.finish >= 0):
                if stale is None:
                    stale = [line_addr]
                else:
                    stale.append(line_addr)
        if stale is not None:
            for line_addr in stale:
                del entries[line_addr]

    def oldest(self) -> MSHREntry:
        """FIFO-oldest entry — the one a full-MSHR stall waits on."""
        if not self._entries:
            raise RuntimeError("MSHR file is empty")
        return next(iter(self._entries.values()))

    def entries(self) -> list[MSHREntry]:
        return list(self._entries.values())
