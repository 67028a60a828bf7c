"""Stage timers: coarse wall-clock per pipeline stage of one run.

:class:`StageTimers` accumulates wall time per named stage (generate,
warm, simulate, collect; plus preload/schedule/validate for DX100 runs)
through context managers threaded through :mod:`repro.sim.runner`.
Passing no timers costs nothing: the runner defaults to the shared
:data:`NULL_TIMERS`, whose ``stage`` returns a reusable no-op context.

Finer views are not coded here.  Exact per-layer self time (workloads,
core, cache, prefetch, DX100, DRAM, far link) comes from the repo
benchmark, ``python3 perfbench/run.py --trace 1``, which subclasses
:class:`StageTimers`; function hotspots come from plain cProfile, e.g.
``PYTHONPATH=src python -m cProfile -s tottime -m repro run IS --quick``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class StageTimers:
    """Named wall-clock accumulators for coarse pipeline stages."""

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        """Context manager accumulating the block's wall time under ``name``."""
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def as_dict(self) -> dict[str, float]:
        return {name: round(total, 6) for name, total in self.totals.items()}


class _NullTimers:
    """Zero-overhead stand-in used when no timing was requested."""

    __slots__ = ()
    totals: dict[str, float] = {}

    _CTX = nullcontext()

    def stage(self, name: str):
        return self._CTX

    def as_dict(self) -> dict[str, float]:
        return {}


#: Shared do-nothing timer the runner defaults to.
NULL_TIMERS = _NullTimers()
