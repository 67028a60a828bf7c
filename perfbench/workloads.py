"""The benchmark's workloads: which sweep tasks each one runs, and why.

Every workload is a slice of the grid ``python -m repro sweep`` runs,
built by the same :func:`repro.sim.sweep.main_sweep_tasks` (4-core scaled
configs; DDR4 unless stated).  The reasons each one exists are in
``perfbench/README.md``; the one-line versions are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

#: One kernel per suite family (NAS, GAP, hash join, UME, Spatter).
FAMILY = ("IS", "CG", "BFS", "PRH", "GZZ", "XRAGE")


@dataclass(frozen=True)
class Workload:
    name: str
    quick: bool
    benchmarks: tuple[str, ...] | None     # None = the whole registry
    modes: tuple[str, ...]
    dram: str | None = None
    #: Seed-0 results are pinned bitwise by ``tests/golden/quick_suite.json``.
    golden: bool = False
    #: No reference number exists for this configuration in the paper.
    validated: bool = True

    def tasks(self):
        from repro.sim.sweep import main_sweep_tasks
        return main_sweep_tasks(
            quick=self.quick,
            benchmarks=None if self.benchmarks is None
            else list(self.benchmarks),
            modes=self.modes, dram=self.dram)


WORKLOADS = {
    w.name: w for w in (
        Workload("quick-grid", quick=True, benchmarks=None,
                 modes=("baseline", "dmp", "dx100"), golden=True),
        Workload("main-baseline", quick=False, benchmarks=FAMILY,
                 modes=("baseline",)),
        Workload("main-dx100", quick=False, benchmarks=FAMILY,
                 modes=("dx100",)),
        Workload("far-cxl", quick=False, benchmarks=("IS", "CG", "XRAGE"),
                 modes=("baseline", "dx100"), dram="cxl", validated=False),
    )
}


def seeded_factory(factory, seed: int):
    """A factory building ``factory``'s workload with ``seed`` instead.

    The registry's factories take no seed, so the constructor arguments
    are read back from one instance (each is stored under its own name)
    and the class is rebuilt with the given seed.  At seed 0 the result
    equals the registry's instance, which the golden check confirms.
    """
    proto = factory()
    cls = type(proto)
    params = inspect.signature(cls.__init__).parameters
    kwargs = {name: getattr(proto, name) for name in params
              if name not in ("self", "seed")}
    return lambda: cls(**kwargs, seed=seed)
