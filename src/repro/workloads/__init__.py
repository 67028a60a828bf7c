"""The paper's benchmark workloads (Section 5) and microbenchmarks."""

from repro.workloads.base import CoreWork, Workload
from repro.workloads.extensions import (
    ConjugateGradientF64, ConnectedComponents, IntegerSortBucketed,
)
from repro.workloads.gap import BFS, BetweennessCentrality, PageRank
from repro.workloads.hashjoin import RadixJoinChaining, RadixJoinHistogram
from repro.workloads.micro import (
    GatherAllMiss, GatherFull, GatherSPD, RMWAtomic, RMWNoAtom, Scatter,
)
from repro.workloads.nas import ConjugateGradient, IntegerSort
from repro.workloads.registry import (
    FULL_BENCHMARKS, MAIN_BENCHMARKS, QUICK_BENCHMARKS, SCALES,
)
from repro.workloads.spatter import SpatterXRAGE
from repro.workloads.spatter_patterns import SpatterKernel, expand_spec
from repro.workloads.ume import GZP, GZPI, GZZ, GZZI

__all__ = [
    "BFS",
    "BetweennessCentrality",
    "ConjugateGradient",
    "ConjugateGradientF64",
    "ConnectedComponents",
    "CoreWork",
    "FULL_BENCHMARKS",
    "GatherAllMiss",
    "GatherFull",
    "GatherSPD",
    "GZP",
    "GZPI",
    "GZZ",
    "GZZI",
    "IntegerSort",
    "IntegerSortBucketed",
    "MAIN_BENCHMARKS",
    "PageRank",
    "QUICK_BENCHMARKS",
    "RadixJoinChaining",
    "RadixJoinHistogram",
    "RMWAtomic",
    "RMWNoAtom",
    "SCALES",
    "Scatter",
    "SpatterKernel",
    "SpatterXRAGE",
    "expand_spec",
    "Workload",
]
