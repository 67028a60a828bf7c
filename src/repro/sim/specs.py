"""Declarative campaign spec DSL (the spack-style variant grammar).

A campaign spec is a single line of ``key=values`` clauses::

    benchmarks=IS,CG dram=ddr4,ddr5 tile=4k:64k tenants=1:8

Each clause names one *dimension*; the campaign grid is the cartesian
product of every dimension's values, deduplicated (a ``tile`` point only
exists for the dx100 configuration, so baseline/dmp tasks collapse across
the tile axis instead of replicating).  Value lists compose three forms:

* **commas** — ``ddr4,ddr5`` enumerates literal values;
* **ranges** — ``lo:hi`` expands geometrically by doubling from ``lo``
  until ``hi`` (``1:8`` -> 1,2,4,8; a ``hi`` off the doubling chain is
  included as the final point, so ``4k:48k`` -> 4k,8k,16k,32k,48k);
* **suffixes** — integers accept ``k``/``m``/``g`` (powers of 1024);
* **globs** — benchmark names match ``fnmatch`` patterns against the
  chosen scale's registry (``G*`` selects GZZ, GZZI, GZP, GZPI; at
  ``scale=full`` only IS, CG and XRAGE are sized).

Dimensions (all optional; a spec of ``""`` is the full default grid):

===========  ==================================================  =========
key          values                                              default
===========  ==================================================  =========
benchmarks   registry names or globs                             all 12
modes        baseline, dmp, dx100 (alias: ``configs``)           all three
dram         DRAM_PRESETS registry: ddr4, ddr5, cxl              ddr4
tile         DX100 tile elements (dx100 tasks only)              config
cores        core counts                                         4
scale        SCALES registry: quick, main, full                  main
sample       timeline sampling period in cycles                  0 (off)
tenants      serving-layer tenant counts (opens the serve axis)  --
aggressor    tenant index flooding the serve runs (-1 = none)    -1
===========  ==================================================  =========

``tenants`` opens the serve axis: *serve tasks*, multi-tenant QoS runs
(:func:`repro.serve.serve_run`) expanded over ``tenants x dram x
aggressor``.  ``dram`` is shared by both grids; ``benchmarks``,
``modes``, ``tile``, ``cores``, ``scale`` and ``sample`` are sweep-only.
A spec that opens the serve axis builds the sweep grid only when it also
names a sweep-only dimension, so ``tenants=2`` is one serve task while
``tenants=2 scale=quick`` is that task beside the quick sweep grid.  A
spec without ``tenants`` always builds the sweep grid (``""`` is the full
default grid).

This module also owns the :class:`~repro.common.config.SystemConfig`
dict round-trip the on-disk campaign manifest needs: ``asdict`` flattens
the frozen config tree into JSON, :func:`system_config_from_dict`
rebuilds it bitwise (``tests/sim/test_specs.py`` pins the round-trip).
"""

from __future__ import annotations

import fnmatch
from dataclasses import asdict, replace
from typing import Any

from repro.common.config import (
    DRAM_PRESETS, CacheConfig, CoreConfig, DDR4Timing, DRAMConfig,
    DX100Config, RemoteLinkConfig, SystemConfig, dram_preset,
)
from repro.sim.sweep import CONFIG_BUILDERS, MODES, SweepTask
from repro.workloads.registry import SCALES


class SpecError(ValueError):
    """A malformed or unsatisfiable campaign spec."""


_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}

#: Dimension keys the grammar accepts (aliases normalized first).
DIMENSIONS = (
    "benchmarks", "modes", "dram", "tile", "cores", "scale",
    "sample", "tenants", "aggressor",
)

#: Dimensions only the sweep grid reads (``dram`` is shared with serve).
SWEEP_ONLY = ("benchmarks", "modes", "tile", "cores", "scale", "sample")

_ALIASES = {
    "benchmark": "benchmarks",
    "configs": "modes",
    "config": "modes",
    "mode": "modes",
    "tiles": "tile",
    "tenant": "tenants",
}

_CHOICES = {
    "modes": set(MODES),
    # Derived from the preset registry beside DRAMConfig so a new memory
    # technology (e.g. ``cxl``) is accepted here the moment it exists —
    # the grammar can never lag the config layer.
    "dram": set(DRAM_PRESETS),
    "scale": set(SCALES),
}

_INT_DIMS = {"tile", "cores", "sample", "tenants", "aggressor"}


# ------------------------------------------------------------------ parsing

def parse_atom(token: str) -> int | str:
    """One literal value: an integer (with optional k/m/g suffix) or a
    bare string."""
    text = token.strip()
    if not text:
        raise SpecError("empty value in spec")
    scale = 1
    if text[-1].lower() in _SUFFIXES and text[:-1].lstrip("-").isdigit():
        scale = _SUFFIXES[text[-1].lower()]
        text = text[:-1]
    if text.lstrip("-").isdigit():
        return int(text) * scale
    return token.strip()


def expand_range(lo: int, hi: int) -> list[int]:
    """Geometric doubling from ``lo`` to ``hi`` inclusive."""
    if lo <= 0:
        raise SpecError(f"range start must be positive, got {lo}")
    if hi < lo:
        raise SpecError(f"empty range {lo}:{hi}")
    values = []
    v = lo
    while v < hi:
        values.append(v)
        v *= 2
    values.append(hi)
    return values


def expand_values(text: str) -> list[int | str]:
    """A clause's right-hand side: comma list of atoms and ``lo:hi``
    geometric ranges."""
    out: list[int | str] = []
    for token in text.split(","):
        if ":" in token:
            lo_s, _, hi_s = token.partition(":")
            lo, hi = parse_atom(lo_s), parse_atom(hi_s)
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise SpecError(f"range bounds must be integers: {token!r}")
            out.extend(expand_range(lo, hi))
        else:
            out.append(parse_atom(token))
    # Dedupe preserving order (ranges can overlap comma values).
    seen: set[int | str] = set()
    unique = [v for v in out if not (v in seen or seen.add(v))]  # type: ignore[func-returns-value]
    return unique


def parse_spec(text: str) -> dict[str, list[int | str]]:
    """Parse a spec line into ``dimension -> values`` (validated)."""
    spec: dict[str, list[int | str]] = {}
    for clause in text.split():
        key, sep, values = clause.partition("=")
        if not sep or not values:
            raise SpecError(
                f"clause {clause!r} is not key=value,...; dimensions: "
                f"{', '.join(DIMENSIONS)}")
        key = _ALIASES.get(key.lower(), key.lower())
        if key not in DIMENSIONS:
            raise SpecError(
                f"unknown dimension {key!r}; choose from "
                f"{', '.join(DIMENSIONS)}")
        if key in spec:
            raise SpecError(f"dimension {key!r} given twice")
        parsed = expand_values(values)
        if key in _INT_DIMS:
            bad = [v for v in parsed if not isinstance(v, int)]
            if bad:
                raise SpecError(f"{key} takes integers, got {bad}")
        choices = _CHOICES.get(key)
        if choices is not None:
            bad = [v for v in parsed if v not in choices]
            if bad:
                raise SpecError(
                    f"{key} takes {sorted(choices)}, got {bad}")
        spec[key] = parsed
    return spec


def _match_benchmarks(patterns: list[int | str], scale: str) -> list[str]:
    """Glob-expand benchmark patterns against ``scale``'s registry, in
    registry order, erroring on patterns that match nothing."""
    names = list(SCALES[scale])
    selected: list[str] = []
    for pattern in patterns:
        pat = str(pattern)
        hits = [n for n in names if fnmatch.fnmatchcase(n, pat)]
        if not hits:
            raise SpecError(
                f"benchmark pattern {pat!r} matches nothing at scale "
                f"{scale} (registry: {', '.join(names)})")
        selected.extend(h for h in hits if h not in selected)
    return selected


# ---------------------------------------------------------------- expansion

def expand_sweep_tasks(spec: dict[str, list[int | str]]) -> list[SweepTask]:
    """The spec's (workload, config, mode) grid as deduplicated
    :class:`~repro.sim.sweep.SweepTask` items, grouped by benchmark so a
    worker claiming in order runs every mode of one dataset back to back
    (the fabric's generate-reuse window).  A spec that opens the serve
    axis and names no sweep-only dimension has no sweep grid."""
    if "tenants" in spec and not any(key in spec for key in SWEEP_ONLY):
        return []
    patterns = spec.get("benchmarks", ["*"])
    modes = [str(m) for m in spec.get("modes", list(MODES))]
    drams = [str(d) for d in spec.get("dram", ["ddr4"])]
    tiles: list[int | None] = list(spec["tile"]) if "tile" in spec \
        else [None]   # type: ignore[list-item]
    cores = [int(c) for c in spec.get("cores", [4])]
    scales = [str(s) for s in spec.get("scale", ["main"])]
    sample = int(spec.get("sample", [0])[0])  # type: ignore[arg-type]

    tasks: list[SweepTask] = []
    seen: set[SweepTask] = set()
    for scale in scales:
        for name in _match_benchmarks(patterns, scale):
            for mode in modes:
                for dram in drams:
                    for tile in tiles:
                        for n_cores in cores:
                            config = replace(CONFIG_BUILDERS[mode](n_cores),
                                             dram=dram_preset(dram))
                            if tile is not None and config.dx100 is not None:
                                config = replace(
                                    config,
                                    dx100=config.dx100.with_tile(int(tile)))
                            task = SweepTask(
                                benchmark=name, mode=mode, scale=scale,
                                config=config, sample_every=sample)
                            if task not in seen:
                                seen.add(task)
                                tasks.append(task)
    return tasks


def expand_serve_params(spec: dict[str, list[int | str]]) -> list[dict]:
    """The spec's serving-layer grid (``tenants x dram x aggressor``) as
    parameter dicts for :class:`repro.sim.fabric.ServeParams`."""
    if "tenants" not in spec:
        return []
    drams = [str(d) for d in spec.get("dram", ["ddr4"])]
    aggressors = [int(a) for a in spec.get("aggressor", [-1])]
    params = []
    for tenants in spec["tenants"]:
        if int(tenants) < 1:
            raise SpecError(f"tenants must be >= 1, got {tenants}")
        for dram in drams:
            for aggressor in aggressors:
                if aggressor >= int(tenants):
                    raise SpecError(
                        f"aggressor index {aggressor} out of range for "
                        f"{tenants} tenant(s)")
                params.append({"tenants": int(tenants), "dram": dram,
                               "aggressor": aggressor})
    return params


# -------------------------------------------------- config dict round-trip

def system_config_to_dict(config: SystemConfig) -> dict[str, Any]:
    """JSON-ready dict of the whole config tree (plain ``asdict``)."""
    return asdict(config)


def system_config_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its ``asdict`` form, bitwise.

    The campaign manifest stores every task's config as JSON so a resumed
    campaign (possibly on another host sharing the results directory)
    re-simulates exactly the grid that was scheduled, not whatever the
    current defaults happen to be.
    """
    d = dict(data)
    dram_d = dict(d["dram"])
    # Every nested frozen dataclass must be rebuilt explicitly — a plain
    # ``DRAMConfig(**dram_d)`` would land raw dicts in the typed fields
    # and silently break hashing/equality (tests/sim/test_cache_key_coverage
    # pins that each nested type survives the round trip).
    dram = DRAMConfig(**{
        **dram_d,
        "timing": DDR4Timing(**dram_d["timing"]),
        "remote": RemoteLinkConfig(**dram_d["remote"]),
    })
    dx100 = DX100Config(**d["dx100"]) if d.get("dx100") else None
    return SystemConfig(**{
        **d,
        "core": CoreConfig(**d["core"]),
        "l1": CacheConfig(**d["l1"]),
        "l2": CacheConfig(**d["l2"]),
        "llc": CacheConfig(**d["llc"]),
        "dram": dram,
        "dx100": dx100,
    })


def sweep_task_to_dict(task: SweepTask) -> dict[str, Any]:
    """Manifest form of one sweep task."""
    return {
        "benchmark": task.benchmark,
        "mode": task.mode,
        "scale": task.scale,
        "warm": task.warm,
        "sample_every": task.sample_every,
        "config": system_config_to_dict(task.config),
    }


def sweep_task_from_dict(data: dict[str, Any]) -> SweepTask:
    return SweepTask(
        benchmark=data["benchmark"], mode=data["mode"],
        scale=data["scale"], warm=data.get("warm", False),
        sample_every=data.get("sample_every", 0),
        config=system_config_from_dict(data["config"]),
    )
