"""Differential tests: the batched front-end vs the scalar oracle.

The batched front-end (:class:`~repro.cache.batched.BatchedHierarchy` +
:class:`~repro.core.batched.BatchedMulticore`) is a call-graph fusion of
the scalar per-op models — same data structures, same schedule, fewer
Python frames.  *Bitwise equivalence is the contract*: for any trace, the
two front-ends must agree on

* the finish cycle and per-op timing (``issue``, ``complete``, ``level``);
* every cache/MSHR/prefetcher counter in the hierarchy's stats;
* the DRAM command stream (kind, cycle, bank, row, in order) on every
  channel, under *both* DRAM engines;
* the merged DRAM counters and the instruction totals.

Three layers: hypothesis property tests drive randomized multi-core trace
programs (loads/stores/RMWs, dependence chains, atomics, PC/tag streams)
through paired systems; seeded long runs cross prefetcher and MSHR
pressure with the DMP engine attached; and end-to-end pairs replay quick
benchmarks — including DX100 mode, whose tile path exercises
``llc_access``/``access_lines`` — through the sweep's own ``execute_task``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SystemConfig
from repro.common.types import AccessType
from repro.core.trace import Trace, TraceBuilder
from repro.sim.system import SimSystem

CORES = 2
LINE = 64


# ------------------------------------------------------------- harness

def _make_config(mode: str, dram_engine: str) -> SystemConfig:
    if mode == "baseline":
        cfg = SystemConfig.baseline(CORES)
    elif mode == "dmp":
        cfg = SystemConfig.dmp_system(CORES)
    elif mode == "dx100":
        cfg = SystemConfig.dx100_system(CORES)
    else:  # pragma: no cover
        raise ValueError(mode)
    return replace(cfg, dram=replace(cfg.dram, engine=dram_engine))


def _system(config: SystemConfig, frontend: str):
    """A SimSystem with per-channel DRAM command recorders attached."""
    system = SimSystem(replace(config, frontend=frontend))
    logs: list[list[tuple]] = []
    for ctrl in system.dram.controllers:
        log: list[tuple] = []
        ctrl.command_observers.append(
            lambda kind, cycle, bank, row, _l=log:
            _l.append((kind, cycle, bank, row)))
        logs.append(log)
    return system, logs


def _build_traces(program) -> list[Trace]:
    """Materialize the per-core op program.  Ops are mutated by the core
    model (issue/complete/level), so each front-end needs fresh traces."""
    builders = [TraceBuilder() for _ in range(CORES)]
    for core, kind, line_no, dep_back, extra, atomic, pc, tag in program:
        tb = builders[core % CORES]
        addr = (line_no * LINE) % (1 << 22)
        n = len(tb._ops)
        deps = (n - 1 - (dep_back % n),) if (dep_back >= 0 and n) else ()
        if extra:
            tb.compute(extra)
        if kind == 0:
            tb.load(addr, deps=deps, pc=pc, tag=tag)
        elif kind == 1:
            tb.store(addr, deps=deps, atomic=atomic, pc=pc, tag=tag)
        else:
            tb.rmw(addr, deps=deps, atomic=atomic, pc=pc, tag=tag)
    return [tb.finish() for tb in builders]


def _assert_equivalent(config: SystemConfig, program,
                       dmp_stream=None) -> None:
    finishes, op_timings, cache_counters = {}, {}, {}
    dram_logs, dram_counters, instrs = {}, {}, {}
    for frontend in ("scalar", "batched"):
        system, logs = _system(config, frontend)
        if dmp_stream is not None and system.dmp is not None:
            pc, addrs = dmp_stream
            system.dmp.register_stream(pc, addrs)
        traces = _build_traces(program)
        finish = system.multicore.run(traces)
        system.dram.drain()
        finishes[frontend] = finish
        op_timings[frontend] = [
            (op.issue, op.complete, op.level)
            for trace in traces for op in trace.ops]
        cache_counters[frontend] = dict(system.hierarchy.stats.counters)
        dram_logs[frontend] = logs
        dram_counters[frontend] = dict(system.dram.merged_stats().counters)
        instrs[frontend] = system.multicore.total_instructions()
    assert finishes["batched"] == finishes["scalar"]
    assert op_timings["batched"] == op_timings["scalar"]
    assert cache_counters["batched"] == cache_counters["scalar"]
    assert dram_logs["batched"] == dram_logs["scalar"]
    assert dram_counters["batched"] == dram_counters["scalar"]
    assert instrs["batched"] == instrs["scalar"]


# ------------------------------------------------- property: random traces

# (core, kind, line_no, dep_back, extra, atomic, pc, tag): a footprint a
# few times the L1/L2 capacity, short dependence chains, occasional
# atomics, and small PC/tag alphabets so prefetchers and the DMP see
# recurring streams.
_op = st.tuples(
    st.integers(0, CORES - 1),            # core
    st.integers(0, 2),                    # load / store / rmw
    st.integers(0, 1 << 9),               # line number
    st.integers(-1, 4),                   # dep: -1 = none, else back-offset
    st.integers(0, 5),                    # extra non-memory instructions
    st.booleans(),                        # atomic?
    st.integers(0, 3),                    # pc
    st.integers(-1, 7),                   # tag
)
_program = st.lists(_op, min_size=1, max_size=60)


@pytest.mark.parametrize("mode,engine", [
    ("baseline", "batched"),
    ("baseline", "scalar"),
    ("dmp", "batched"),
    ("dx100", "batched"),
])
@settings(max_examples=25, deadline=None)
@given(program=_program)
def test_batched_frontend_matches_scalar_randomized(mode, engine, program):
    _assert_equivalent(_make_config(mode, engine), program)


# ------------------------------------------------------ seeded long runs

def _long_program(seed: int, n: int):
    import random
    rng = random.Random(seed)
    prog = []
    for i in range(n):
        kind = rng.choice((0, 0, 0, 1, 2))
        # Mix a strided walk (prefetcher-friendly) with random lines
        # (MSHR/LLC pressure) on alternating PCs.
        line_no = i * 2 if i % 3 else rng.randrange(1 << 12)
        prog.append((rng.randrange(CORES), kind, line_no,
                     rng.randrange(-1, 3), rng.randrange(4),
                     rng.random() < 0.1, i % 3, i % 5))
    return prog


@pytest.mark.parametrize("mode", ["baseline", "dmp", "dx100"])
def test_long_run_agrees(mode):
    _assert_equivalent(_make_config(mode, "batched"),
                       _long_program(seed=hash(mode) % 1000, n=500))


def test_dmp_with_registered_stream_agrees():
    """The DMP observer path live: a registered indirect stream on pc=1
    makes ``observe`` issue LLC prefetches from inside the demand walk —
    the batched walk's observer short-circuit must not skip them."""
    stream = [(i * 17 % (1 << 10)) * LINE for i in range(64)]
    program = [(i % CORES, 0, (i * 17) % (1 << 10), -1, 1, False, 1, i)
               for i in range(200)]
    _assert_equivalent(_make_config("dmp", "batched"), program,
                       dmp_stream=(1, stream))


def test_both_dram_engines_same_frontend_answer():
    """Front-end equivalence must hold on the scalar DRAM oracle too (the
    2x2 grid closes: any front-end x any engine gives the same system)."""
    program = _long_program(seed=42, n=300)
    for engine in ("batched", "scalar"):
        _assert_equivalent(_make_config("baseline", engine), program)


# ---------------------------------------------- end-to-end benchmark pairs

@pytest.mark.parametrize("bench,mode", [
    ("IS", "baseline"),
    ("IS", "dx100"),
    ("CG", "dmp"),
    ("XRAGE", "dx100"),
])
def test_quick_benchmark_end_to_end_pair(bench, mode):
    """Full RunResult equality through the sweep's own task executor —
    every golden metric field plus the extra fields, both front-ends.
    The dx100 rows drive the tile path (``llc_access``/``access_lines``)
    and the scratchpad windows end to end."""
    from repro.sim.sweep import CONFIG_BUILDERS, SweepTask, execute_task

    results = {}
    for frontend in ("batched", "scalar"):
        config = replace(CONFIG_BUILDERS[mode](4), frontend=frontend)
        task = SweepTask(benchmark=bench, mode=mode, scale="quick",
                         config=config)
        result, _wall = execute_task(task)
        results[frontend] = result
    assert results["batched"].__dict__ == results["scalar"].__dict__


def test_unknown_frontend_rejected():
    with pytest.raises(ValueError):
        SimSystem(replace(SystemConfig.baseline(2), frontend="vectorized"))
