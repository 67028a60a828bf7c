"""The repository benchmark: host cost per simulated DRAM request.

    python3 perfbench/run.py --workload quick-grid --seed 0 --seconds 25 \\
        --trace 0

Runs the named workload (see ``perfbench/workloads.py`` and
``perfbench/README.md``) as repeated passes, each in a fresh interpreter
(``perfbench/one_pass.py``), serially, until ``--seconds`` would be
exceeded (at least :data:`MIN_PASSES`).  Prints a readable report, then,
as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over passes, host
times scaled to a reference host speed by a probe; see the README);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Exits 1 when any run fails or a check does not hold,
and 2 without a result line when a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 2
#: A pass that runs longer than this is killed and the benchmark fails.
PASS_TIMEOUT_S = 150

#: The probe's nanoseconds per iteration on the host this benchmark was
#: defined on (a 2-CPU Intel Xeon container, Python 3.11).  That host's
#: speed drifts by up to 2x within minutes as its neighbours' load changes,
#: and the probe, run before every task, drifts with it; host times are
#: reported scaled to this reference speed.
PROBE_REF_NS = 650.0

#: The paper's Figure 9 geomean speedup of DX100 over the baseline
#: (EXPERIMENTS.md, "Figure 9").
PAPER_SPEEDUP = 2.6

END_TO_END = {
    "cpu_s": "s",
    "wall_s": "s",
    "us_per_dram_req": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
}
#: Printed in the report but not in the result line: ``fail_rate`` is the
#: line's own ``failed / attempted``, the speedup exists only where a
#: workload runs both modes, and the last two show the host-speed scaling.
REPORT_ONLY = {"fail_rate": "frac", "sim_speedup_dx100": "x",
               "cpu_s_raw": "s", "host_speed": "x"}

#: Layers whose self time is also given per simulated DRAM request.
PER_REQ_LAYERS = ("core", "cache", "dx100", "dram")
LAYER_HOST = {
    "workloads": ("calls", "self_s"),
    "core": ("calls", "self_s"),
    "cache": ("calls", "self_s"),
    "prefetch": ("calls", "self_s"),
    "dx100": ("calls", "self_s"),
    "dram": ("calls", "self_s"),
    "dram.remote": ("calls", "self_s"),
    "unattributed": ("self_s",),
}
PER_LAYER = {
    "sim.sweep.overhead_s": "s",
    **{f"{layer}.{kind}": ("count" if kind == "calls" else "s")
       for layer, kinds in LAYER_HOST.items() for kind in kinds},
    **{f"{layer}.self_us_per_req": "us" for layer in PER_REQ_LAYERS},
    "core.instructions": "count",
    "core.rob_stalls": "count",
    "cache.l1_hit_rate": "frac",
    "cache.llc_mpki": "per_kinstr",
    "cache.llc_mshr_coalesced": "count",
    "prefetch.dmp_prefetches": "count",
    "prefetch.redundant_frac": "frac",
    "dx100.instructions": "count",
    "dx100.coalescing": "x",
    "dram.requests": "count",
    "dram.writes": "count",
    "dram.row_buffer_hit_rate": "frac",
    "dram.row_conflicts": "count",
    "dram.bandwidth_utilization": "frac",
    "dram.request_buffer_occupancy": "count",
    "dram.remote.far_serviced": "count",
    "dram.remote.out_wait": "cycles",
    "dram.remote.ret_wait": "cycles",
    "trace.overhead_frac": "frac",
}


class PassError(RuntimeError):
    """A pass that exited abnormally (the program could not run)."""


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "perfbench" / "one_pass.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassError(f"pass exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = perf_counter() - start
    return out


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> list[dict]:
    """Passes until the next one would end past ``seconds``; with
    ``trace`` every second pass is traced, starting untraced."""
    passes: list[dict] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, seed,
                               trace and len(passes) % 2 == 1))
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if (len(passes) >= MIN_PASSES
                and perf_counter() - start + typical > seconds):
            return passes


# ------------------------------------------------------------ aggregation

def host_speed(p: dict, clock: str) -> float:
    """Factor scaling pass ``p``'s host times on ``clock`` ("cpu_s" or
    "wall_s") to the reference speed: below 1 when the host ran slow."""
    probe = p["probe"]
    return PROBE_REF_NS * probe["iterations"] / 1e9 / probe[clock]


def scaled(passes: list[dict], key: str, clock: str) -> float:
    """Median over ``passes`` of host time ``key`` at the reference speed."""
    return statistics.median(p[key] * host_speed(p, clock) for p in passes)


def task_failed(task: dict) -> bool:
    return task["error"] is not None or not task["golden_ok"]


def checks(passes: list[dict]) -> list[str]:
    """Every reason the outputs are not correct (empty when they are)."""
    problems = []
    for i, p in enumerate(passes):
        for task in p["tasks"]:
            if task["error"] is not None:
                problems.append(f"pass {i} {task['label']}: {task['error']}")
        problems.extend(f"pass {i} golden: {g}"
                        for g in p["golden_problems"])
        problems.extend(f"pass {i} trace accounting: {e}"
                        for e in p.get("accounting_errors", ()))
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append(f"simulated counters differ between passes "
                        f"(traced and untraced): {sorted(digests)}")
    calls = {json.dumps(layer_calls(p), sort_keys=True)
             for p in passes if p["traced"]}
    if len(calls) > 1:
        problems.append("layer call counts differ between traced passes")
    return problems


def layer_calls(p: dict) -> dict[str, int]:
    out: dict[str, int] = {}
    for layers in p["layers"].values():
        for layer, v in layers.items():
            out[layer] = out.get(layer, 0) + v["calls"]
    return out


def layer_self_s(p: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for layers in p["layers"].values():
        for layer, v in layers.items():
            out[layer] = out.get(layer, 0.0) + v["self_ns"] / 1e9
    return out


def speedup_dx100(tasks: list[dict]) -> float | None:
    """Geomean of baseline cycles over dx100 cycles, over the benchmarks
    the workload runs in both modes (None when there are none)."""
    cycles = {(t["benchmark"], t["mode"]): t["counters"]["cycles"]
              for t in tasks}
    # A failed run reports 0 cycles and has no speedup.
    ratios = [cycles[(b, "baseline")] / cycles[(b, "dx100")]
              for b, m in cycles if m == "dx100"
              and cycles.get((b, "baseline"), 0) > 0
              and cycles[(b, "dx100")] > 0]
    return statistics.geometric_mean(ratios) if ratios else None


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Medians over the untraced passes, plus the simulated totals."""
    untraced = [p for p in passes if not p["traced"]]
    tasks = untraced[0]["tasks"]
    requests = sum(t["counters"]["dram_requests"] for t in tasks)
    cpu_s = scaled(untraced, "cpu_s", "cpu_s")
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(task_failed(t) for p in passes for t in p["tasks"])
    out = {
        "cpu_s": cpu_s,
        "wall_s": scaled(untraced, "wall_s", "wall_s"),
        "us_per_dram_req": cpu_s / max(requests, 1) * 1e6,
        "setup_s": scaled(untraced, "setup_s", "wall_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "sim_cycles": float(sum(t["counters"]["cycles"] for t in tasks)),
        "fail_rate": failed / attempted,
        "cpu_s_raw": statistics.median(p["cpu_s"] for p in untraced),
        "host_speed": statistics.median(host_speed(p, "cpu_s")
                                        for p in untraced),
    }
    speedup = speedup_dx100(tasks)
    if speedup is not None:
        out["sim_speedup_dx100"] = speedup
    return out


def per_layer(passes: list[dict]) -> dict[str, float]:
    """Host metrics from the traced passes (medians), simulated counters
    from the run's tasks (identical in every pass)."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    tasks = traced[0]["tasks"]

    # A failed run carries only the golden fields; it counts as zero.
    def total(key: str) -> float:
        return float(sum(t["counters"].get(key) or 0 for t in tasks))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean(key: str, rows) -> float:
        values = [t["counters"].get(key) or 0 for t in rows]
        return sum(values) / len(values) if values else 0.0

    requests = total("dram_requests")
    calls = layer_calls(traced[0])
    self_s = {layer: statistics.median(
        layer_self_s(p).get(layer, 0.0) * host_speed(p, "wall_s")
        for p in traced) for layer in LAYER_HOST}
    out = {"sim.sweep.overhead_s": scaled(traced, "sweep_overhead_s",
                                          "wall_s")}
    for layer, kinds in LAYER_HOST.items():
        if "calls" in kinds:
            out[f"{layer}.calls"] = float(calls.get(layer, 0))
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in PER_REQ_LAYERS:
        out[f"{layer}.self_us_per_req"] = ratio(self_s[layer], requests) * 1e6
    dx100_runs = [t for t in tasks if t["mode"] == "dx100"]
    dmp = total("dmp_prefetches")
    out.update({
        "core.instructions": total("core_instructions"),
        "core.rob_stalls": total("rob_stalls"),
        "cache.l1_hit_rate": ratio(total("l1_hits"), total("l1_accesses")),
        "cache.llc_mpki": ratio(total("llc_misses"),
                                total("instructions")) * 1000,
        "cache.llc_mshr_coalesced": total("llc_mshr_coalesced"),
        "prefetch.dmp_prefetches": dmp,
        "prefetch.redundant_frac": ratio(dmp - total("dmp_prefetch_issued"),
                                         dmp),
        "dx100.instructions": total("dx100_instructions"),
        "dx100.coalescing": mean("coalescing", dx100_runs),
        "dram.requests": requests,
        "dram.writes": total("dram_writes"),
        "dram.row_buffer_hit_rate": ratio(total("dram_row_hits"),
                                          total("dram_serviced")),
        "dram.row_conflicts": total("dram_row_conflicts"),
        "dram.bandwidth_utilization": mean("bandwidth_utilization", tasks),
        "dram.request_buffer_occupancy": mean("request_buffer_occupancy",
                                              tasks),
        "dram.remote.far_serviced": total("far_serviced"),
        "dram.remote.out_wait": total("link_out_wait"),
        "dram.remote.ret_wait": total("link_ret_wait"),
        "trace.overhead_frac": (scaled(traced, "cpu_s", "cpu_s")
                                / scaled(untraced, "cpu_s", "cpu_s") - 1.0),
    })
    return out


# --------------------------------------------------------------- output

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(workload: str, seed: int, passes: list[dict]) -> dict:
    return {
        **passes[0]["provenance"],
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report_lines(workload: str, prov: dict, e2e: dict,
                 layers: dict | None, digest: str) -> list[str]:
    lines = [f"perfbench {workload}: "
             + ", ".join(f"{k}={v}" for k, v in prov.items()),
             f"simulated-counter digest: {digest}"]
    units = {**END_TO_END, **REPORT_ONLY}
    for name, value in e2e.items():
        lines.append(f"  {name:<34} {value:>14.6g} {units[name]}")
    speedup = e2e.get("sim_speedup_dx100")
    if speedup is not None:
        if WORKLOADS[workload].validated:
            err = speedup / PAPER_SPEEDUP - 1.0
            lines.append(f"  sim_speedup_dx100 {speedup:.3f}x vs paper "
                         f"Figure 9 geomean {PAPER_SPEEDUP}x "
                         f"(relative error {err:+.1%})")
        else:
            lines.append(f"  sim_speedup_dx100 {speedup:.3f}x is "
                         f"unvalidated: the paper reports no number for "
                         f"this configuration")
    for name, value in (layers or {}).items():
        lines.append(f"  {name:<34} {value:>14.6g} {PER_LAYER[name]}")
    return lines


def write_trace(workload: str, seed: int, passes: list[dict]) -> Path:
    """Coarse spans (workload -> task -> stage) and the per-(task, layer)
    aggregates of every traced pass, as one JSON file."""
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    payload = [{"pass": i, "spans": p["spans"], "layers": p["layers"]}
               for i, p in enumerate(passes) if p["traced"]]
    path.write_text(json.dumps(payload) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, trace)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = checks(passes)
    e2e = end_to_end(passes)
    layers = per_layer(passes) if trace else None
    prov = provenance(args.workload, args.seed, passes)
    for line in report_lines(args.workload, prov, e2e, layers,
                             passes[0]["digest"]):
        print(line)
    if trace:
        path = write_trace(args.workload, args.seed, passes)
        print(f"trace written to {path.relative_to(ROOT)}")
    for problem in problems:
        print(f"FAILED: {problem}")

    units = PER_LAYER if trace else END_TO_END
    values = layers if trace else e2e
    result = {
        "correct": not problems,
        "attempted": sum(len(p["tasks"]) for p in passes),
        "failed": sum(task_failed(t) for p in passes for t in p["tasks"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
