"""Simulation harness: system assembly, runners, metric collection."""

from repro.sim.corun import CorunResult, NamespacedMemory, run_corun
from repro.sim.fabric import (
    Campaign, CampaignTask, RetryPolicy, build_tasks, campaign_status,
    create_campaign, load_campaign, run_campaign, worker_loop,
)
from repro.sim.metrics import RunResult, collect
from repro.sim.report import bar_chart, comparison_table, to_csv
from repro.sim.runner import run_baseline, run_dx100, software_pipeline
from repro.sim.scale import run_dx100_multi
from repro.sim.statsdump import dump_stats, format_stats, write_stats
from repro.sim.specs import expand_sweep_tasks, parse_spec
from repro.sim.sweep import (
    RunCache, SweepOutcome, SweepTask, main_sweep_tasks, run_sweep,
)
from repro.sim.system import SimSystem

__all__ = [
    "Campaign",
    "CampaignTask",
    "CorunResult",
    "NamespacedMemory",
    "RetryPolicy",
    "RunCache",
    "RunResult",
    "SimSystem",
    "SweepOutcome",
    "SweepTask",
    "bar_chart",
    "build_tasks",
    "campaign_status",
    "collect",
    "comparison_table",
    "create_campaign",
    "dump_stats",
    "expand_sweep_tasks",
    "format_stats",
    "load_campaign",
    "main_sweep_tasks",
    "parse_spec",
    "run_baseline",
    "run_campaign",
    "run_corun",
    "run_dx100",
    "run_dx100_multi",
    "run_sweep",
    "software_pipeline",
    "to_csv",
    "worker_loop",
    "write_stats",
]
