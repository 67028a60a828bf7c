"""The 12-benchmark evaluation set (Section 5) with scaled default sizes.

Factories return fresh workload instances so each configuration runs on
identical inputs (same seed) with independent state.
"""

from __future__ import annotations

from typing import Callable

from repro.workloads.base import Workload
from repro.workloads.gap import BFS, BetweennessCentrality, PageRank
from repro.workloads.hashjoin import RadixJoinChaining, RadixJoinHistogram
from repro.workloads.nas import ConjugateGradient, IntegerSort
from repro.workloads.spatter import SpatterXRAGE
from repro.workloads.ume import GZP, GZPI, GZZ, GZZI

WorkloadFactory = Callable[[], Workload]

# name -> factory, ordered as the paper's figures list them.
MAIN_BENCHMARKS: dict[str, WorkloadFactory] = {
    "IS": lambda: IntegerSort(scale=1 << 15),
    "CG": lambda: ConjugateGradient(scale=1 << 11),
    "BFS": lambda: BFS(scale=1 << 12, nodes=1 << 17),
    "PR": lambda: PageRank(scale=1 << 12, nodes=1 << 17),
    "BC": lambda: BetweennessCentrality(scale=1 << 12, nodes=1 << 17),
    "PRH": lambda: RadixJoinHistogram(scale=1 << 15),
    "PRO": lambda: RadixJoinChaining(scale=1 << 15),
    "GZZ": lambda: GZZ(scale=1 << 16),
    "GZZI": lambda: GZZI(scale=1 << 12, zones=1 << 16),
    "GZP": lambda: GZP(scale=1 << 16),
    "GZPI": lambda: GZPI(scale=1 << 12, zones=1 << 16),
    "XRAGE": lambda: SpatterXRAGE(scale=1 << 15),
}

# Paper-scale footprints (Section 5 sizes): datasets far past every cache
# capacity, for ``scale="full"`` tasks.  Only the batched
# front-end makes these tractable; entries carry the simulated-memory
# footprint they need via ``mem_bytes``.
def _sized(factory: WorkloadFactory, mem_bytes: int) -> WorkloadFactory:
    def build() -> Workload:
        wl = factory()
        wl.mem_bytes = mem_bytes
        return wl
    return build


FULL_BENCHMARKS: dict[str, WorkloadFactory] = {
    "IS": _sized(lambda: IntegerSort(scale=1 << 25,
                                     bucket_space=1 << 22), 1 << 29),
    "CG": _sized(lambda: ConjugateGradient(scale=1 << 15,
                                           columns=1 << 22), 1 << 28),
    "XRAGE": _sized(lambda: SpatterXRAGE(scale=1 << 22,
                                         region=1 << 24), 1 << 28),
}

# A smaller variant for tests and quick CI-style runs.
QUICK_BENCHMARKS: dict[str, WorkloadFactory] = {
    "IS": lambda: IntegerSort(scale=1 << 12, bucket_space=1 << 18),
    "CG": lambda: ConjugateGradient(scale=1 << 8, columns=1 << 17),
    "BFS": lambda: BFS(scale=1 << 9, nodes=1 << 14),
    "PR": lambda: PageRank(scale=1 << 9, nodes=1 << 14),
    "BC": lambda: BetweennessCentrality(scale=1 << 9, nodes=1 << 14),
    "PRH": lambda: RadixJoinHistogram(scale=1 << 12, partitions=1 << 10,
                                      table_space=1 << 17),
    "PRO": lambda: RadixJoinChaining(scale=1 << 12, buckets=1 << 12),
    "GZZ": lambda: GZZ(scale=1 << 13),
    "GZZI": lambda: GZZI(scale=1 << 9, zones=1 << 13),
    "GZP": lambda: GZP(scale=1 << 13),
    "GZPI": lambda: GZPI(scale=1 << 9, zones=1 << 13),
    "XRAGE": lambda: SpatterXRAGE(scale=1 << 12, region=1 << 17),
}

# Dataset scale -> registry: the one place a scale name picks its sizes
# (``SweepTask.scale``, the spec DSL's ``scale=`` and ``run --scale``).
SCALES: dict[str, dict[str, WorkloadFactory]] = {
    "quick": QUICK_BENCHMARKS,
    "main": MAIN_BENCHMARKS,
    "full": FULL_BENCHMARKS,
}
