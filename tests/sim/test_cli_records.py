"""What the grid commands leave on disk, and which knobs they no longer take.

``sweep`` and ``campaign`` write their records under ``results/`` only:
the sweep its ``results/sweep.json``, the campaign its manifest and
``summary.md``.  Per-layer timing lives in the repo benchmark
(``perfbench/run.py --trace 1``), not in a CLI option.
"""

import pytest

from repro.__main__ import main
from repro.sim.report import to_csv
from repro.sim.sweep import main_sweep_tasks, run_sweep


def test_sweep_and_campaign_write_only_under_results(tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runcache"))

    assert main(["sweep", "IS", "--quick", "--configs", "baseline",
                 "--no-cache", "--jobs", "1"]) == 0
    assert main(["campaign", "benchmarks=IS modes=baseline scale=quick",
                 "--id", "one", "--no-cache"]) == 0

    written = [p.relative_to(work) for p in work.rglob("*") if p.is_file()]
    assert written
    assert all(p.parts[0] == "results" for p in written), written
    assert not list(work.glob("BENCH_*.json"))
    assert (work / "results" / "sweep.json").is_file()
    assert (work / "results" / ".campaigns" / "one" / "summary.md").is_file()


def test_run_and_sweep_agree_bitwise(tmp_path, monkeypatch):
    """``run`` executes the same tasks as ``sweep`` through the same
    executor, so its CSV equals the sweep's, byte for byte."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.csv"
    assert main(["run", "IS", "PR", "--quick", "--configs", "baseline",
                 "dx100", "--csv", str(path)]) == 0
    outcome = run_sweep(main_sweep_tasks(
        quick=True, benchmarks=["IS", "PR"], modes=("baseline", "dx100")),
        jobs=1, cache=False)
    assert path.read_text() == to_csv([r.result for r in outcome.runs])
    assert [p.name for p in tmp_path.rglob("*")] == ["run.csv"]


#: (command line, argparse dest of an option the command no longer has).
REMOVED_OPTIONS = [
    (["sweep", "IS", "--quick"], "affinity"),
    (["sweep", "IS", "--quick"], "profile"),
    (["campaign", "benchmarks=IS"], "no_bench"),
    (["run", "IS", "--quick"], "stats_dir"),
]


@pytest.mark.parametrize("argv, dest", REMOVED_OPTIONS)
def test_removed_options_are_usage_errors(argv, dest):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--" + dest.replace("_", "-")])
    assert exc.value.code == 2


def test_removed_profile_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["profile", "IS", "--quick"])
    assert exc.value.code == 2
