"""The golden harness: every pinned result file behind one check/update.

Each file under ``tests/golden/`` belongs to one :class:`Suite` — a name,
the file, and a producer ``produce(scalar) -> dict`` that re-runs the
experiment and returns the file's body (everything but ``_comment``):

``quick``
    the Figure 9-12 grid at quick sizes, every benchmark under
    baseline/dmp/dx100 (``quick_suite.json``);
``tenancy``
    the canonical multi-tenant serving scenarios (``tenancy_quick.json``);
``memtech``
    quick IS on local DDR4, DDR5, all-far CXL and mixed placement
    (``memory_technology.json``).

:func:`check` re-runs a suite with the run cache off and diffs it exactly
against its file, naming every mismatch by dotted path
(``metrics.IS.dx100.cycles``); :func:`update` rewrites the file after an
intentional model change.  ``scalar=True`` replays every run on the
per-request DRAM oracle and the per-op cache/core front-end
(``DRAMConfig.engine`` and ``SystemConfig.frontend`` set to
``"scalar"``).  Both oracles are bitwise-identical to the production
engines, so the same files must reproduce: that replay is the
differential check CI runs.  Command line::

    python -m repro golden check [--scalar] [SUITE ...]
    python -m repro golden update [SUITE ...]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.common.config import DRAMConfig, SystemConfig
from repro.sim.sweep import (
    GOLDEN_FIELDS, GOLDEN_PATH, SweepOutcome, SweepTask, golden_snapshot,
    main_sweep_tasks, run_sweep,
)

GOLDEN_DIR = GOLDEN_PATH.parent


@dataclass(frozen=True)
class Suite:
    """One golden file and the producer that regenerates its body."""

    name: str
    path: Path
    produce: Callable[[bool], dict]
    #: First sentence of the file's ``_comment``.
    about: str

    def comment(self) -> str:
        return (f"{self.about} Regenerate with `python -m repro golden "
                f"update {self.name}` after an intentional model change.")


def scalar_config(config: SystemConfig) -> SystemConfig:
    """``config`` on the scalar DRAM engine and the scalar front-end."""
    return replace(config, frontend="scalar",
                   dram=replace(config.dram, engine="scalar"))


def _replay(tasks: list[SweepTask], scalar: bool) -> SweepOutcome:
    if scalar:
        tasks = [replace(t, config=scalar_config(t.config)) for t in tasks]
    return run_sweep(tasks, cache=False)


def _quick(scalar: bool) -> dict:
    outcome = _replay(main_sweep_tasks(quick=True), scalar)
    return {"fields": list(GOLDEN_FIELDS),
            "metrics": golden_snapshot(outcome)}


def _tenancy(scalar: bool) -> dict:
    from repro.serve import tenancy_scenarios
    config = DRAMConfig(engine="scalar") if scalar else DRAMConfig()
    return {"scenarios": {name: report.golden_snapshot() for name, report
                          in tenancy_scenarios(config).items()}}


def _memtech(scalar: bool) -> dict:
    from repro.sim.memtech import MEMTECH_FIELDS, memtech_snapshot, \
        memtech_tasks
    benchmark = "IS"
    outcome = _replay(memtech_tasks(benchmark), scalar)
    return {"benchmark": benchmark, "fields": list(MEMTECH_FIELDS),
            "metrics": memtech_snapshot(outcome)}


SUITES = {suite.name: suite for suite in (
    Suite("quick", GOLDEN_PATH, _quick,
          "Golden RunResult metrics for the REPRO_QUICK suite under "
          "baseline/dmp/dx100."),
    Suite("tenancy", GOLDEN_DIR / "tenancy_quick.json", _tenancy,
          "Golden per-tenant QoS metrics for the canonical tenancy "
          "scenarios (repro.serve.tenancy_scenarios)."),
    Suite("memtech", GOLDEN_DIR / "memory_technology.json", _memtech,
          "Golden metrics for the memory-technology scenario grid (quick "
          "IS under baseline/dx100 on local DDR4, DDR5, all-far CXL, and "
          "mixed placement)."),
)}


def load(suite: Suite) -> dict:
    """The suite's committed body (the file minus ``_comment``)."""
    body = json.loads(suite.path.read_text())
    body.pop("_comment", None)
    return body


def diff(got: Any, want: Any, path: str = "") -> list[str]:
    """Exact recursive diff; each problem starts with its dotted path.

    An empty list means bitwise identical, types included (``1`` and
    ``1.0`` differ).
    """
    if isinstance(got, dict) and isinstance(want, dict):
        problems: list[str] = []
        for key in sorted(set(got) | set(want)):
            where = f"{path}.{key}" if path else str(key)
            if key not in got:
                problems.append(f"{where}: missing from this run")
            elif key not in want:
                problems.append(f"{where}: not in the golden file")
            else:
                problems.extend(diff(got[key], want[key], where))
        return problems
    if type(got) is not type(want) or got != want:
        return [f"{path}: got {got!r}, golden {want!r}"]
    return []


def check(suite: Suite, scalar: bool = False) -> list[str]:
    """Re-run ``suite`` and diff it against its file (empty = identical)."""
    # Through JSON first, so the run compares in the form the file holds
    # (tuples as lists, integer keys as strings).
    got = json.loads(json.dumps(suite.produce(scalar)))
    return diff(got, load(suite))


def update(suite: Suite) -> Path:
    """Re-run ``suite`` and rewrite its file; returns the path."""
    payload = {"_comment": suite.comment(), **suite.produce(False)}
    suite.path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    return suite.path
