"""Experiment runner: execute a workload under each system configuration.

Two runners cover the paper's three run modes:

* ``run_baseline``  — the legacy multicore code (Table 3 baseline); with
  a DMP configuration, plus the DMP indirect prefetcher;
* ``run_dx100``     — the offloaded code: the DX100 program interleaved
  with residual core work, synchronized through scratchpad ready bits.

:func:`repro.sim.sweep.execute_task` is the one place that picks the
runner for a task's mode.

DX100 runs also *validate*: the host-memory state after the program must
match the workload's NumPy reference.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.dx100.api import RegWrite, WaitTiles
from repro.dx100.isa import Instr
from repro.sim.metrics import RunResult, collect
from repro.sim.profile import NULL_TIMERS, StageTimers
from repro.sim.system import SimSystem
from repro.workloads.base import CoreWork, Workload

# Spin-wait modelling: one poll loop iteration (load + compare + branch)
# every SPIN_PERIOD cycles while blocked on a ready bit, capped per wait.
SPIN_PERIOD = 20
SPIN_CAP = 500
WAIT_BASE_INSTRS = 2
ISSUE_INSTRS = 3  # three 64-bit memory-mapped stores per instruction


def run_baseline(workload: Workload, config: SystemConfig | None = None,
                 warm: bool = True,
                 timers: StageTimers | None = None,
                 obs=None, tenant: int = -1) -> RunResult:
    """Run a workload's legacy multicore code (optionally with DMP).

    ``timers`` (see :mod:`repro.sim.profile`) attributes wall-clock to the
    run's coarse stages — generate, warm, simulate, collect — for the
    repo benchmark; the default null timer adds no overhead.  ``obs``
    is an optional :class:`repro.obs.events.EventBus`; its summary lands
    in ``RunResult.extra`` (never in the golden metric fields).
    ``tenant`` (>= 0) tags every DRAM request for per-tenant accounting;
    the tag never changes scheduling, so a tagged run's metrics match the
    untagged ones exactly (the serving layer's degeneracy guarantee).
    """
    timers = timers or NULL_TIMERS
    config = config or SystemConfig.baseline()
    system = SimSystem(config, mem_bytes=workload.mem_bytes, obs=obs)
    if tenant >= 0:
        system.set_tenant(tenant)
    with timers.stage("generate"):
        workload.generate(system.hostmem)
    if warm and hasattr(workload, "warm_lines"):
        with timers.stage("warm"):
            system.warm(workload.warm_lines())
    cores = 1 if workload.single_core_baseline else config.cores
    with timers.stage("trace"):
        traces = workload.baseline_traces(cores)
    if system.dmp is not None:
        for pc, addrs in workload.dmp_streams().items():
            system.dmp.register_stream(pc, addrs)
    with timers.stage("simulate"):
        finish = system.multicore.run(traces)
    instructions = (system.multicore.total_instructions()
                    + workload.non_roi_instructions())
    extra = {}
    if system.dmp is not None:
        extra["dmp_prefetches"] = system.dmp.stats.get("dmp_prefetches")
    if obs is not None:
        # Drain in-flight DRAM traffic first (idempotent; collect() drains
        # too) so the digest reflects the run's final event counts.
        system.dram.drain()
        extra.update(obs.summary())
    with timers.stage("collect"):
        return collect(system, workload.name, config.name, finish,
                       instructions, extra)


def software_pipeline(schedule: list) -> list:
    """Reorder a schedule for double buffering: each chunk's instructions
    dispatch *before* the previous chunk's residual core work, so the
    accelerator gathers tile k+1 while the cores consume tile k (the
    overlap the paper's programming model encourages).  The scoreboard's
    tile hazards keep the reordering safe."""
    segments: list[list] = [[]]
    for item in schedule:
        segments[-1].append(item)
        if isinstance(item, CoreWork):
            segments.append([])
    if not segments[-1]:
        segments.pop()
    out: list = []
    pending_tail: list = []       # waits + core work deferred one segment
    for segment in segments:
        issue = [x for x in segment if isinstance(x, (Instr, RegWrite))]
        tail = [x for x in segment if not isinstance(x, (Instr, RegWrite))]
        out.extend(issue)
        out.extend(pending_tail)
        pending_tail = tail
    out.extend(pending_tail)
    return out


def run_dx100(workload: Workload, config: SystemConfig | None = None,
              warm: bool = True, validate: bool = True,
              pipelined: bool = False,
              timers: StageTimers | None = None,
              obs=None, tenant: int = -1) -> RunResult:
    """Run the offloaded code: DX100 schedule + residual core work,
    synchronized through scratchpad ready bits, then validate.

    ``pipelined=True`` applies :func:`software_pipeline` (double
    buffering); the default keeps the workload's own ordering.
    ``timers`` attributes wall-clock to the coarse stages (generate, warm,
    preload, schedule, validate, collect) for the repo benchmark.
    ``obs`` is an optional :class:`repro.obs.events.EventBus`; its summary
    lands in ``RunResult.extra`` (never in the golden metric fields).
    ``tenant`` (>= 0) tags every DRAM request for per-tenant accounting
    without altering scheduling (see :func:`run_baseline`)."""
    timers = timers or NULL_TIMERS
    config = config or SystemConfig.dx100_system()
    if config.dx100 is None:
        raise ValueError("run_dx100 needs a DX100 configuration")
    system = SimSystem(config, mem_bytes=workload.mem_bytes, obs=obs)
    if tenant >= 0:
        system.set_tenant(tenant)
    dx = system.dx100
    with timers.stage("generate"):
        workload.generate(system.hostmem)
    if warm and hasattr(workload, "warm_lines"):
        with timers.stage("warm"):
            system.warm(workload.warm_lines())
    # PTE transfer for all touched memory (Section 3.6).
    with timers.stage("preload"):
        dx.preload_pages(system.hostmem.base,
                         system.hostmem.base + system.hostmem.size)

    with timers.stage("schedule"):
        schedule = workload.dx100_schedule(config.dx100, config.cores)
        if pipelined:
            schedule = software_pipeline(schedule)
    t = 0
    issue_instrs = 0.0
    with timers.stage("simulate"):
        for item in schedule:
            if isinstance(item, RegWrite):
                dx.write_register(item.reg, item.value)
                t += 1
                issue_instrs += 1
            elif isinstance(item, Instr):
                dx.dispatch(item, t)
                t += ISSUE_INSTRS
                issue_instrs += ISSUE_INSTRS
            elif isinstance(item, WaitTiles):
                resume = dx.wait(item.tiles, t)
                spins = min((resume - t) // SPIN_PERIOD, SPIN_CAP)
                issue_instrs += WAIT_BASE_INSTRS + spins
                t = resume
                for tile in item.tiles:
                    dx.mark_consumed(tile)
            elif isinstance(item, CoreWork):
                t = system.multicore.run(item.traces, at=t)
            else:
                raise TypeError(f"unknown schedule item {item!r}")
        # The run ends when both the cores and the accelerator are done.
        if dx.records:
            t = max(t, max(r.finish for r in dx.records))
    instructions = (system.multicore.total_instructions() + issue_instrs
                    + workload.non_roi_instructions())
    if validate:
        with timers.stage("validate"):
            workload.validate_dx(dx, system.hostmem)
    extra = {
        "dx100_instructions": dx.stats.get("instructions"),
        "coalescing": _mean_coalescing(dx),
    }
    if obs is not None:
        # Drain first (idempotent) so the digest sees the final counts.
        system.dram.drain()
        extra.update(obs.summary())
    with timers.stage("collect"):
        return collect(system, workload.name, config.name, t, instructions,
                       extra)


def _mean_coalescing(dx) -> float:
    factors = [r.detail.coalescing for r in dx.records
               if r.detail is not None and hasattr(r.detail, "coalescing")]
    if not factors:
        return 1.0
    return sum(factors) / len(factors)
