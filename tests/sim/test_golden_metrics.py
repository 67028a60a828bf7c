"""Golden-value tests beyond the harness (tier-1).

The golden files themselves are re-run and diffed by
``tests/sim/test_golden.py`` (one parametrized test per suite of
:mod:`repro.sim.golden`).  These tests pin properties *around* them: the
tenant-tagged paths must reproduce the untagged numbers exactly.
"""

from repro.sim.sweep import GOLDEN_FIELDS, load_golden


def test_single_tenant_serve_degenerates_to_untagged_run():
    """tenants=1 must replay the untagged path cycle for cycle.

    The only admissible difference is the per-tenant DRAM counters
    themselves (absent when untagged); every latency, cycle count, and
    fairness figure must be bitwise identical.
    """
    from repro.serve import make_tenants, serve_run
    specs = make_tenants(1, tiles=3, tile_lines=96)
    tagged = serve_run(specs, tag_requests=True).golden_snapshot()
    untagged = serve_run(specs, tag_requests=False).golden_snapshot()
    for snap in (tagged, untagged):
        for rec in snap["tenants"].values():
            for key in ("dram_serviced", "dram_bytes", "dram_row_hits"):
                rec.pop(key)
    assert tagged == untagged


def test_tenant_tagged_quick_run_matches_pinned_golden():
    """Threading tenant tags through SimSystem must not move any metric.

    Runs one quick benchmark with every core and the DX100 instance
    tagged as tenant 0 and compares the pinned RunResult fields against
    the committed golden values for the untagged run.
    """
    from repro.sim.runner import run_dx100
    from repro.sim.sweep import CONFIG_BUILDERS
    from repro.workloads import QUICK_BENCHMARKS
    golden = load_golden()
    name = sorted(golden)[0]
    result = run_dx100(QUICK_BENCHMARKS[name](), CONFIG_BUILDERS["dx100"](4),
                       warm=False, tenant=0)
    for fld in GOLDEN_FIELDS:
        assert getattr(result, fld) == golden[name]["dx100"][fld], fld
