"""Workload framework.

Each paper benchmark provides three views of the same kernel:

* ``generate``        — allocate and initialize its arrays in host memory;
* ``baseline_traces`` — the per-core memory-op trace of the legacy multicore
  code (index loads feeding indirect accesses, address-calculation
  instruction counts, atomics where the kernel needs them);
* ``dx100_schedule``  — the offloaded version: DX100 program items
  interleaved with the residual core work (:class:`CoreWork` items), tiled
  and double-buffered;
* ``expected``        — the NumPy reference the DX100 run's memory state is
  validated against.

Scales are reduced relative to the paper (Python request-level simulation),
with access-pattern statistics preserved; see DESIGN.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.common.config import DX100Config
from repro.core.trace import Trace
from repro.dx100.hostmem import HostMemory


@dataclass
class CoreWork:
    """Residual multicore work inside a DX100 schedule."""

    traces: list[Trace]


# PCs used so the stride prefetcher and DMP can distinguish access streams.
PC_INDEX = 1
PC_INDIRECT = 2
PC_VALUE = 3
PC_OUTPUT = 4
PC_SPD = 5
PC_EXTRA = 6

# Per-element instruction costs, calibrated against the paper's
# Gather-Full microbenchmark (baseline ~13 dynamic instructions per
# element, DX100 residual near zero; Section 6.1) and the 3.6x geomean
# instruction reduction of Figure 11(a).
BASE_ADDR_CALC = 8     # address arithmetic + loop overhead per element


class Workload(ABC):
    """One benchmark kernel."""

    name: str = "workload"
    suite: str = "suite"
    pattern: str = ""          # the Table 1 row for this kernel
    single_core_baseline: bool = False   # scatter: WAW hazards serialize
    #: Simulated host-memory footprint this workload needs.  The runner
    #: sizes :class:`~repro.dx100.hostmem.HostMemory` from this, so
    #: full-scale registry entries (paper-sized footprints) can raise it
    #: past the 64 MiB default without touching every call site.
    mem_bytes: int = 1 << 26

    def __init__(self, scale: int, seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.mem: HostMemory | None = None

    # ---------------------------------------------------------------- hooks

    @abstractmethod
    def generate(self, mem: HostMemory) -> None:
        """Allocate arrays in ``mem`` and remember their bases."""

    @abstractmethod
    def baseline_traces(self, cores: int) -> list[Trace]:
        """Per-core traces of the legacy code."""

    @abstractmethod
    def dx100_schedule(self, config: DX100Config, cores: int) -> list:
        """DX100 program items + CoreWork for the offloaded code."""

    @abstractmethod
    def expected(self) -> dict[str, np.ndarray]:
        """Final expected contents of mutated arrays (or packed outputs)."""

    def dmp_streams(self) -> dict[int, np.ndarray]:
        """pc -> unconditional indirect target addresses, for the DMP run."""
        return {}

    def non_roi_instructions(self) -> float:
        """Instructions outside the offloaded region of interest (input
        generation, setup) — identical in every configuration.  The paper's
        Figure 11(a) counts whole-execution instructions, so this floor is
        what keeps fully-offloaded kernels' reduction ratios finite."""
        return 4.0 * self.scale

    # -------------------------------------------------------------- utility

    def validate(self, mem: HostMemory) -> None:
        """Assert the post-run memory matches the NumPy reference."""
        for name, expect in self.expected().items():
            got = mem.view(name)
            if not np.array_equal(got, expect):
                bad = int(np.count_nonzero(got != expect))
                raise AssertionError(
                    f"{self.name}: array {name!r} diverges from the "
                    f"reference in {bad}/{len(expect)} elements"
                )

    def validate_dx(self, dx, mem: HostMemory) -> None:
        """Full DX100-run validation: memory state plus any gathered tiles
        registered with :meth:`expect_gather` (for load-only kernels whose
        results live in the scratchpad rather than memory)."""
        self.validate(mem)
        for record_index, expect in getattr(self, "_gather_checks", []):
            record = dx.records[record_index]
            got = record.detail.values
            if not np.array_equal(np.asarray(got), np.asarray(expect)):
                raise AssertionError(
                    f"{self.name}: gathered tile of instruction "
                    f"{record_index} diverges from the reference"
                )

    def expect_gather(self, instr_index: int, values: np.ndarray) -> None:
        """Register the expected contents of instruction ``instr_index``'s
        gathered tile (index counts Instr items in schedule order)."""
        if not hasattr(self, "_gather_checks"):
            self._gather_checks = []
        self._gather_checks.append((instr_index, np.asarray(values)))

    def _remember(self, mem: HostMemory) -> None:
        self.mem = mem


def chunk_bounds(n: int, tile: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + tile, n)) for lo in range(0, n, tile)]
