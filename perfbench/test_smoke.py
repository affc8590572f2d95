"""Smoke test of the benchmark at tiny sizes.

    python -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced through the same ``measure`` and
``metrics`` code as a real run, checks that the reported metric names are
exactly the ones BENCHMARK.json lists, that the output checks catch a wrong
answer, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program(run.ROOT)

import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "cli_gen": dict(rows=500),
    "cli_test": dict(rows=500),
    "mc_null": dict(n_grid=(100, 300), reps=4),
    "select_h1": dict(rows=3000),
    "certificates": dict(instances=10, markets=5),
}


def _measure(name: str, trace: bool, tmp_path: Path):
    workload = wl.WORKLOADS[name](7, tmp_path, **TINY[name])
    raw = run.measure(workload, 0.05, trace)
    return workload, raw, run.metrics(workload, raw, trace)[0]


def test_every_workload_is_tiny_and_listed():
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_end_to_end_metrics(name, tmp_path):
    _, raw, values = _measure(name, False, tmp_path)
    assert [o["problems"] for o in raw["ops"]] == [[]] * len(raw["ops"])
    assert len(raw["ops"]) >= run.MIN_OPS
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_per_layer_metrics(name, tmp_path):
    workload, raw, values = _measure(name, True, tmp_path)
    assert [o["problems"] for o in raw["ops"]] == [[]] * len(raw["ops"])
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    if name == "mc_null":
        assert values["montecarlo.replicates"] == len(workload.n_grid) * workload.reps
        assert values["synth.calls"] == values["montecarlo.replicates"]
    if name == "select_h1":
        assert values["selection.subset_tests"] == values["selection.rescales"] > 0
    if name == "certificates":
        assert values["bounds.instances"] == workload.n_instances
        assert values["portfolio.solver_calls"] > 0 and values["portfolio.solver_iters"] > 0
    if name in ("cli_gen", "cli_test"):
        assert values["cli.self_s"] > 0
    # counts repeat exactly from one traced operation to the next
    traced = [o["layers"] for o in raw["ops"] if o["traced"]]
    for key in ("partition.calls", "partition.occupied_triples", "discrete.mi_calls"):
        assert len({layers[key] for layers in traced}) == 1


def test_mc_spot_check_agrees_with_program(tmp_path):
    workload = wl.McNull(3, tmp_path, n_grid=(100, 300), reps=4)
    workload.full_check_rows = 0  # take the one-replicate path for every n
    output = workload.summarize(workload.run())
    assert workload.problems(output) == []


def test_checks_catch_a_wrong_statistic(tmp_path):
    workload = wl.SelectH1(5, tmp_path, rows=3000)
    workload.setup()
    workload.before_run()
    output = json.loads(workload.summarize(workload.run()))
    output["trace"][0]["L_n"] += 1e-6
    assert any("L_n" in p for p in workload.problems(json.dumps(output, sort_keys=True)))


def test_dense_oracle_matches_program_at_an_exact_cell_edge():
    # n = 1e5 gives h = 0.0999..., whose last edge 10 h falls just below 1.
    data = wl.synth.gen_h0(wl.synth.H0Config(n=100_000, seed=1))
    h, bins = wl._bandwidth(data.n, 2, 1)
    assert bins * h < 1.0
    oracle = wl.dense_l_statistic(data.x, data.y, data.z, h, bins)
    assert abs(oracle - wl.partition.run_test(data).L_n) <= wl.L_TOL


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli_gen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
