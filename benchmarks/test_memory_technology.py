"""Memory-technology sensitivity (extension).

The paper's motivation cites DoE ATS-5's "overcoming the memory wall"
goal; this bench asks how DX100's advantage moves as the memory system
changes underneath it, across two axes:

* **technology rows** — local DDR4-3200, approximate DDR5-6400 (2x
  bandwidth, 2x bank groups), an all-far CXL pool behind the modeled
  link (:mod:`repro.dram.remote`), and a mixed placement with half the
  lines far.  More bank-level parallelism helps the baseline absorb
  random traffic; a far link hurts it far more than DX100, whose tile
  drains pipeline bursts through the link while the baseline's
  MSHR-bounded misses pay per-miss round trips.
* **link-latency sweep** — the Tiara-thesis figure: as one-way link
  latency grows geometrically, baseline throughput collapses roughly
  linearly while DX100 amortizes the latency once per drain, so the
  DX100 speedup *increases monotonically* with latency.  Both claims
  are asserted, not just recorded.
"""

from dataclasses import replace

from repro.common import SystemConfig, geomean
from repro.common.config import RemoteLinkConfig, cxl_remote, ddr5_6400
from repro.sim import run_baseline, run_dx100
from repro.sim.golden import SUITES, check
from repro.workloads import IntegerSort, SpatterXRAGE

from mainsweep import record

SUBSET = {
    "IS": lambda: IntegerSort(scale=1 << 15),
    "XRAGE": lambda: SpatterXRAGE(scale=1 << 15),
}

TECHS = {
    "ddr4": lambda: None,
    "ddr5": ddr5_6400,
    "cxl": cxl_remote,
    "mixed": lambda: replace(cxl_remote(), remote=RemoteLinkConfig(
        enabled=True, placement="hash", far_fraction=0.5)),
}

#: One-way link latencies (CPU cycles) for the Tiara sweep: geometric 4x
#: steps, ~40 ns to ~640 ns at 3.2 GHz — the CXL/far-memory regime.  At
#: microsecond-scale latencies DX100 becomes link-latency-bound too and
#: the ratio rolls off; the monotone-growth claim is about this regime.
LINK_LATENCIES = (128, 512, 2048)


def _pair(factory, dram):
    base_cfg = SystemConfig.baseline_scaled()
    dx_cfg = SystemConfig.dx100_scaled()
    if dram is not None:
        base_cfg = replace(base_cfg, dram=dram)
        dx_cfg = replace(dx_cfg, dram=dram)
    base = run_baseline(factory(), base_cfg, warm=False)
    dx = run_dx100(factory(), dx_cfg, warm=False)
    return base, dx


def _sweep():
    techs = {}
    for tech, make in TECHS.items():
        dram = make()
        speedups, dx_bw, base_cycles = [], [], []
        for factory in SUBSET.values():
            base, dx = _pair(factory, dram)
            speedups.append(base.cycles / dx.cycles)
            dx_bw.append(dx.bandwidth_utilization)
            base_cycles.append(base.cycles)
        techs[tech] = (geomean(speedups), sum(dx_bw) / len(dx_bw),
                       sum(base_cycles))
    latencies = {}
    for latency in LINK_LATENCIES:
        dram = cxl_remote(latency=latency)
        speedups, base_cycles, dx_cycles = [], [], []
        for factory in SUBSET.values():
            base, dx = _pair(factory, dram)
            speedups.append(base.cycles / dx.cycles)
            base_cycles.append(base.cycles)
            dx_cycles.append(dx.cycles)
        latencies[latency] = (geomean(speedups), sum(base_cycles),
                              sum(dx_cycles))
    return {"techs": techs, "latencies": latencies}


def test_memory_technology_sensitivity(benchmark):
    out = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    techs, latencies = out["techs"], out["latencies"]
    lines = [f"{'tech':6s} {'geomean speedup':>16s} {'dx BW util':>11s}"]
    for tech, (speedup, bw, _) in techs.items():
        lines.append(f"{tech:6s} {speedup:15.2f}x {bw:10.2f}")
    lines.append("")
    lines.append(f"{'link latency':>12s} {'geomean speedup':>16s} "
                 f"{'baseline cy':>12s} {'dx100 cy':>10s}")
    for latency, (speedup, base_cy, dx_cy) in latencies.items():
        lines.append(f"{latency:12d} {speedup:15.2f}x "
                     f"{base_cy:12d} {dx_cy:10d}")
    record("memory_technology", lines,
           data={"techs": {t: {"speedup": s, "dx_bw": bw}
                           for t, (s, bw, _) in techs.items()},
                 "link_latency": {str(k): {"speedup": s,
                                           "baseline_cycles": b,
                                           "dx100_cycles": d}
                                  for k, (s, b, d) in latencies.items()}})

    # DX100 wins on every technology row.
    for tech, (speedup, _, _) in techs.items():
        assert speedup > 1.5, tech
    # The far tier hurts the baseline much more than DX100: the advantage
    # GROWS behind a link.
    assert techs["cxl"][0] > techs["ddr4"][0]
    assert techs["cxl"][2] > 2 * techs["ddr4"][2]   # baseline collapses

    # Tiara thesis: DX100 speedup increases monotonically with link
    # latency while baseline throughput degrades monotonically.
    sweep = [latencies[lat] for lat in LINK_LATENCIES]
    for (s_lo, base_lo, _), (s_hi, base_hi, _) in zip(sweep, sweep[1:]):
        assert s_hi > s_lo, "speedup must grow with link latency"
        assert base_hi > base_lo, "baseline must degrade with latency"

    # Golden pin: the quick scenario grid behind these rows must reproduce
    # tests/golden/memory_technology.json exactly.
    problems = check(SUITES["memtech"])
    assert not problems, "\n".join(problems)
