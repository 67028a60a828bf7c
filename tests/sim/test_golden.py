"""The golden harness (tier-1): every pinned file through one registry.

For each suite of :mod:`repro.sim.golden` (``quick``, ``tenancy``,
``memtech``): the committed file is well-formed, the producer reproduces
it exactly and writes nothing, the diff names each kind of drift by its
dotted path, and ``python -m repro golden check`` exits 0 on the file and
1 on a drifted copy.  Each producer runs once per suite (module-scoped
fixture); the CLI tests reuse its output.  CI replays every suite on the
scalar oracles with ``python -m repro golden check --scalar``.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.sim.golden import GOLDEN_DIR, SUITES, diff, load
from repro.sim.memtech import MEMTECH_FIELDS, MEMTECH_SCENARIOS
from repro.sim.sweep import GOLDEN_FIELDS

NAMES = list(SUITES)


@pytest.fixture(scope="module", params=NAMES)
def produced(request, tmp_path_factory):
    """(suite, producer output as JSON, files it left in an empty cwd)."""
    suite = SUITES[request.param]
    cwd = tmp_path_factory.mktemp(f"cwd-{suite.name}")
    before = os.getcwd()
    os.chdir(cwd)
    try:
        body = suite.produce(False)
    finally:
        os.chdir(before)
    return suite, json.loads(json.dumps(body)), sorted(cwd.iterdir())


def _first_leaf(tree: dict) -> list[str]:
    """Key path to a pinned metric: descend into the first nested dict
    (sorted keys) until only values remain, then take the first."""
    path, node = [], tree
    while isinstance(node, dict):
        key = min(node, key=lambda k: (not isinstance(node[k], dict), k))
        path.append(key)
        node = node[key]
    return path


def _at(tree: dict, path: list[str]) -> dict:
    """The dict holding the last key of ``path``."""
    for key in path[:-1]:
        tree = tree[key]
    return tree


def _bump(value):
    return value + 1 if isinstance(value, (int, float)) else f"{value}~"


def _check_quick(body):
    assert body["fields"] == list(GOLDEN_FIELDS)
    assert len(body["metrics"]) == 12, sorted(body["metrics"])
    for name, runs in body["metrics"].items():
        assert set(runs) == {"baseline", "dmp", "dx100"}, name
        for mode, fields in runs.items():
            assert set(fields) == set(GOLDEN_FIELDS), (name, mode)


def _check_tenancy(body):
    scenarios = body["scenarios"]
    assert set(scenarios) == {"t1", "t2", "t2_aggressor", "t4"}
    for name, entry in scenarios.items():
        assert entry["total_cycles"] > 0, name
        assert 0.0 < entry["jain"] <= 1.0, name
        for tenant, rec in entry["tenants"].items():
            assert rec["p50"] <= rec["p99"], (name, tenant)
            assert rec["dram_serviced"] == rec["lines"], (name, tenant)


def _check_memtech(body):
    assert body["fields"] == list(MEMTECH_FIELDS)
    metrics = body["metrics"]
    assert set(metrics) == set(MEMTECH_SCENARIOS)
    for scenario, runs in metrics.items():
        assert set(runs) == {"baseline", "dx100"}, scenario
        for mode, fields in runs.items():
            assert set(fields) == set(MEMTECH_FIELDS), (scenario, mode)
            # The far-tier rows really went through the link; the local
            # rows really did not.
            far = fields["far_serviced"]
            assert (far > 0) == (scenario in ("cxl", "mixed")), scenario


SHAPES = {"quick": _check_quick, "tenancy": _check_tenancy,
          "memtech": _check_memtech}


@pytest.mark.parametrize("name", NAMES)
def test_golden_file_is_well_formed(name):
    suite = SUITES[name]
    assert suite.path.exists(), (
        f"missing {suite.path}; run `python -m repro golden update {name}`")
    raw = json.loads(suite.path.read_text())
    assert raw["_comment"] == suite.comment()
    SHAPES[name](load(suite))


def test_every_golden_file_belongs_to_exactly_one_suite():
    paths = [suite.path for suite in SUITES.values()]
    assert len(set(paths)) == len(paths)
    assert sorted(GOLDEN_DIR.glob("*.json")) == sorted(paths)


def test_producer_matches_the_file_exactly(produced):
    suite, body, _ = produced
    problems = diff(body, load(suite))
    assert not problems, (
        f"reproduced metrics drifted from {suite.path.name} (intentional? "
        f"`python -m repro golden update {suite.name}`):\n  "
        + "\n  ".join(problems))


def test_producer_writes_no_file(produced):
    _, _, leftovers = produced
    assert leftovers == []


@pytest.mark.parametrize("name", NAMES)
def test_diff_names_each_drift_by_dotted_path(name):
    golden = load(SUITES[name])
    path = _first_leaf(golden)
    dotted = ".".join(path)

    changed = json.loads(json.dumps(golden))
    _at(changed, path)[path[-1]] = _bump(_at(golden, path)[path[-1]])
    missing = json.loads(json.dumps(golden))
    del _at(missing, path)[path[-1]]
    extra = {**golden, "bogus": 1}

    assert diff(golden, golden) == []
    for run, where in ((changed, dotted), (missing, dotted),
                       (extra, "bogus")):
        problems = diff(run, golden)
        assert len(problems) == 1 and problems[0].startswith(f"{where}: "), \
            problems


def test_cli_check_passes_fails_on_drift_and_writes_nothing(
        produced, monkeypatch, tmp_path, capsys):
    suite, body, _ = produced
    calls = []

    def replay(scalar):
        calls.append(scalar)
        return body

    monkeypatch.setitem(SUITES, suite.name, replace(suite, produce=replay))
    monkeypatch.chdir(tmp_path)
    assert main(["golden", "check", suite.name]) == 0
    assert main(["golden", "check", "--scalar", suite.name]) == 0
    assert calls == [False, True]

    drifted = json.loads(suite.path.read_text())
    path = _first_leaf(load(suite))
    _at(drifted, path)[path[-1]] = _bump(_at(drifted, path)[path[-1]])
    copy = tmp_path / suite.path.name
    copy.write_text(json.dumps(drifted))
    monkeypatch.setitem(SUITES, suite.name, replace(
        suite, path=copy, produce=replay))
    capsys.readouterr()
    assert main(["golden", "check", suite.name]) == 1
    assert f"  {'.'.join(path)}: got " in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [copy]


def test_cli_update_rewrites_the_file_byte_for_byte(produced, monkeypatch,
                                                    tmp_path):
    suite, body, _ = produced
    copy = tmp_path / suite.path.name
    monkeypatch.setitem(SUITES, suite.name, replace(
        suite, path=copy, produce=lambda scalar: body))
    assert main(["golden", "update", suite.name]) == 0
    assert copy.read_text() == suite.path.read_text()


def test_cli_rejects_an_unknown_suite(capsys):
    assert main(["golden", "check", "nope"]) == 2
    assert "quick, tenancy, memtech" in capsys.readouterr().err
