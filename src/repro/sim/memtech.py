"""Memory-technology comparison scenarios (local DDR vs far memory).

The grid behind the ``memtech`` golden suite: one quick benchmark under
baseline and DX100 on each memory technology row —

``local``
    plain DDR4-2400, every line in the local pool (the default config);
``ddr5``
    the DDR5-6400 timing preset, still all-local;
``cxl``
    every line behind the modeled far-memory link
    (:mod:`repro.dram.remote`) at its default latency/bandwidth;
``mixed``
    half the lines far by deterministic line-interleave hash — the
    tiered-memory placement where hot and cold data share the footprint.

Each row reports the pinned :data:`~repro.sim.sweep.GOLDEN_FIELDS`
plus the link's ``far_serviced`` counter, pinned bitwise in
``tests/golden/memory_technology.json`` by the ``memtech`` suite of
:mod:`repro.sim.golden`, so a far-tier regression (or an accidental change
to link timing) fails CI the same way the quick-suite goldens do.  Check
with ``python -m repro golden check memtech``; ``--scalar`` replays the
grid on the scalar oracles, which must reproduce the file exactly.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Callable

from repro.common.config import (
    DRAMConfig, RemoteLinkConfig, cxl_remote, ddr5_6400,
)
from repro.sim.sweep import (
    CONFIG_BUILDERS, GOLDEN_FIELDS, SweepOutcome, SweepTask,
)

#: Pinned per-run fields: the sweep goldens' eight, plus the far-tier
#: service count (0 on all-local rows — pinning it catches placement
#: regressions that happen not to move the timing).
MEMTECH_FIELDS = GOLDEN_FIELDS + ("far_serviced",)

#: The technology rows, in report order: scenario -> DRAM config builder.
MEMTECH_DRAM: dict[str, Callable[[], DRAMConfig]] = {
    "local": DRAMConfig,
    "ddr5": ddr5_6400,
    "cxl": cxl_remote,
    "mixed": lambda: DRAMConfig(remote=RemoteLinkConfig(
        enabled=True, placement="hash", far_fraction=0.5)),
}
MEMTECH_SCENARIOS = tuple(MEMTECH_DRAM)

_MODES = ("baseline", "dx100")


def memtech_tasks(benchmark: str = "IS", cores: int = 2) -> list[SweepTask]:
    """The scenario grid on one quick benchmark, scenario-major."""
    return [
        SweepTask(benchmark=benchmark, mode=mode, scale="quick",
                  config=replace(CONFIG_BUILDERS[mode](cores),
                                 dram=MEMTECH_DRAM[scenario]()))
        for scenario, mode in product(MEMTECH_SCENARIOS, _MODES)
    ]


def memtech_snapshot(outcome: SweepOutcome) -> dict:
    """``scenario -> mode -> {field: value}`` over :data:`MEMTECH_FIELDS`
    for a sweep of :func:`memtech_tasks`."""
    snapshot: dict[str, dict[str, dict]] = {}
    for (scenario, mode), run in zip(product(MEMTECH_SCENARIOS, _MODES),
                                     outcome.runs):
        row = {f: getattr(run.result, f) for f in GOLDEN_FIELDS}
        row["far_serviced"] = int(run.result.extra.get("far_serviced", 0))
        snapshot.setdefault(scenario, {})[mode] = row
    return snapshot
