"""The campaign spec DSL: grammar, grid expansion, and the config dict
round-trip the on-disk manifest depends on (bitwise)."""

from dataclasses import asdict

import pytest

from repro.common.config import SystemConfig, ddr5_6400
from repro.sim.specs import (
    SpecError, expand_range, expand_serve_params, expand_sweep_tasks,
    expand_values, parse_atom, parse_spec, sweep_task_from_dict,
    sweep_task_to_dict, system_config_from_dict, system_config_to_dict,
)
from repro.sim.sweep import CONFIG_BUILDERS, MODES


# ------------------------------------------------------------------ grammar

def test_atoms_parse_suffixes_and_strings():
    assert parse_atom("4") == 4
    assert parse_atom("4k") == 4096
    assert parse_atom("2m") == 2 * 1024 ** 2
    assert parse_atom("1g") == 1024 ** 3
    assert parse_atom("ddr5") == "ddr5"
    assert parse_atom("G*") == "G*"
    with pytest.raises(SpecError):
        parse_atom("")


def test_ranges_double_geometrically_and_keep_an_off_chain_hi():
    assert expand_range(1, 8) == [1, 2, 4, 8]
    assert expand_range(4, 4) == [4]
    assert expand_range(4096, 48 * 1024) == [
        4096, 8192, 16384, 32768, 48 * 1024]
    with pytest.raises(SpecError):
        expand_range(0, 8)
    with pytest.raises(SpecError):
        expand_range(8, 4)


def test_values_compose_commas_and_ranges_with_order_preserving_dedupe():
    assert expand_values("1:4,2,16") == [1, 2, 4, 16]
    assert expand_values("ddr4,ddr5") == ["ddr4", "ddr5"]
    assert expand_values("4k:8k") == [4096, 8192]


def test_parse_spec_validates_keys_choices_and_duplicates():
    spec = parse_spec("benchmarks=IS,CG dram=ddr4,ddr5 tile=4k:8k")
    assert spec["benchmarks"] == ["IS", "CG"]
    assert spec["dram"] == ["ddr4", "ddr5"]
    assert spec["tile"] == [4096, 8192]

    with pytest.raises(SpecError, match="unknown dimension"):
        parse_spec("bogus=1")
    with pytest.raises(SpecError, match="given twice"):
        parse_spec("dram=ddr4 dram=ddr5")
    with pytest.raises(SpecError, match="takes"):
        parse_spec("dram=ddr6")
    with pytest.raises(SpecError, match="takes integers"):
        parse_spec("tile=big")
    with pytest.raises(SpecError, match="not key=value"):
        parse_spec("benchmarks")


def test_aliases_normalize_to_canonical_dimensions():
    assert parse_spec("mode=dx100")["modes"] == ["dx100"]
    assert parse_spec("configs=baseline")["modes"] == ["baseline"]
    assert parse_spec("tiles=4k")["tile"] == [4096]
    assert parse_spec("tenant=2")["tenants"] == [2]


def test_benchmark_globs_match_the_registry_in_order():
    tasks = expand_sweep_tasks(parse_spec("benchmarks=G* modes=baseline "
                                          "scale=quick"))
    assert [t.benchmark for t in tasks] == ["GZZ", "GZZI", "GZP", "GZPI"]
    with pytest.raises(SpecError, match="matches nothing"):
        expand_sweep_tasks(parse_spec("benchmarks=NOPE*"))


# ---------------------------------------------------------------- expansion

def test_empty_spec_is_the_full_default_grid():
    tasks = expand_sweep_tasks(parse_spec(""))
    assert len(tasks) == 12 * len(MODES)
    assert all(t.scale == "main" for t in tasks)


def test_serve_only_spec_builds_no_sweep_grid():
    """``tenants`` alone (plus the shared ``dram``) is serve-only; a
    sweep-only dimension brings the sweep grid back, and a spec without
    ``tenants`` always has one."""
    assert expand_sweep_tasks(parse_spec("tenants=2 dram=ddr4,ddr5")) == []
    both = expand_sweep_tasks(parse_spec("tenants=2 benchmarks=IS "
                                         "scale=quick"))
    assert {t.benchmark for t in both} == {"IS"}
    assert len(expand_sweep_tasks(parse_spec("dram=ddr5"))) == 12 * len(MODES)


def test_engine_and_frontend_are_not_spec_dimensions():
    for clause in ("engine=scalar", "frontend=scalar"):
        with pytest.raises(SpecError, match="unknown dimension"):
            parse_spec(clause)


def test_tile_axis_only_replicates_dx100_tasks():
    """baseline/dmp have no DX100 config, so the tile axis collapses for
    them instead of producing duplicate cache keys."""
    tasks = expand_sweep_tasks(parse_spec(
        "benchmarks=IS tile=4k:16k scale=quick"))
    by_mode: dict[str, int] = {}
    for t in tasks:
        by_mode[t.mode] = by_mode.get(t.mode, 0) + 1
    assert by_mode == {"baseline": 1, "dmp": 1, "dx100": 3}
    dx_tiles = {t.config.dx100.tile_elems for t in tasks
                if t.mode == "dx100"}
    assert dx_tiles == {4096, 8192, 16384}


def test_dram_axis_selects_presets():
    tasks = expand_sweep_tasks(parse_spec(
        "benchmarks=IS modes=baseline dram=ddr4,ddr5 scale=quick"))
    timings = {t.config.dram.timing.tCK for t in tasks}
    from repro.common.config import DRAMConfig
    assert timings == {DRAMConfig().timing.tCK, ddr5_6400().timing.tCK}


def test_dram_choices_derive_from_the_preset_registry():
    """The grammar's allowed set IS the config layer's registry — adding
    a preset must never require touching the DSL (the hardcoded-set bug
    this pins: ``cxl`` existed in the config but the spec rejected it)."""
    from repro.common.config import DRAM_PRESETS
    from repro.sim.specs import _CHOICES
    assert _CHOICES["dram"] == set(DRAM_PRESETS)
    assert "cxl" in _CHOICES["dram"]


def test_unknown_dram_error_enumerates_the_registry():
    """The error path names every valid preset, cxl included."""
    with pytest.raises(SpecError, match=r"cxl.*ddr4.*ddr5|takes.*cxl"):
        parse_spec("dram=hbm")


def test_dram_cxl_expands_with_the_remote_link_enabled():
    tasks = expand_sweep_tasks(parse_spec(
        "benchmarks=IS modes=baseline,dx100 dram=cxl scale=quick"))
    assert tasks, "cxl must be a legal dram value"
    for task in tasks:
        assert task.config.dram.remote.enabled
    # And it round-trips through the campaign manifest bitwise.
    rebuilt = sweep_task_from_dict(sweep_task_to_dict(tasks[0]))
    assert rebuilt == tasks[0]
    assert rebuilt.config.dram.remote.enabled
    assert rebuilt.key() == tasks[0].key()


def test_serve_axis_accepts_cxl():
    params = expand_serve_params(parse_spec("tenants=2 dram=cxl"))
    assert [p["dram"] for p in params] == ["cxl"]


def test_serve_axis_expands_tenants_by_dram_by_aggressor():
    params = expand_serve_params(parse_spec("tenants=1:4 dram=ddr4,ddr5"))
    assert len(params) == 3 * 2       # tenants 1,2,4 x two DRAM presets
    assert {p["tenants"] for p in params} == {1, 2, 4}

    with pytest.raises(SpecError, match="out of range"):
        expand_serve_params(parse_spec("tenants=2 aggressor=5"))
    assert expand_serve_params(parse_spec("benchmarks=IS")) == []


# --------------------------------------------------------------- round-trip

@pytest.mark.parametrize("mode", MODES)
def test_system_config_round_trips_bitwise(mode):
    config = CONFIG_BUILDERS[mode](4)
    rebuilt = system_config_from_dict(system_config_to_dict(config))
    assert rebuilt == config
    assert asdict(rebuilt) == asdict(config)


def test_system_config_round_trip_covers_ddr5_and_tile_overrides():
    from dataclasses import replace
    config = SystemConfig.dx100_scaled(4)
    config = replace(config, dram=ddr5_6400(),
                     dx100=config.dx100.with_tile(8192))
    assert system_config_from_dict(system_config_to_dict(config)) == config


def test_sweep_task_round_trip_preserves_the_cache_key():
    task = expand_sweep_tasks(parse_spec(
        "benchmarks=CG modes=dx100 tile=8k scale=quick"))[0]
    rebuilt = sweep_task_from_dict(sweep_task_to_dict(task))
    assert rebuilt == task
    assert rebuilt.key() == task.key()
