"""Smoke tests: the example scripts run at a tiny size and print their summaries."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_bounds_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("run_bounds_sweep.py", "--instances", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "instances               5"
    assert lines[1] == "certificate violations  0 (asserted)"
    assert lines[-1] == f"wrote {out}"
    assert len(out.read_text().splitlines()) == 6  # header plus one row per instance


def test_portfolio_demo():
    proc = run_script("run_portfolio_demo.py", "--markets", "5")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "I gap   = 0.693147   (log 2 = 0.693147; tight)" in out
    assert "random markets (5 seeds, d_a <= 3, <= 6 outcomes):" in out
    line = next(ln for ln in out.splitlines() if ln.startswith("  max certified error "))
    assert float(line.split()[3]) <= 1e-12
    assert out.rstrip().endswith("certificate violations: 0 (growth_gap_bound raises otherwise)")


def test_bounds_sweep_golden(tmp_path):
    # Default sizes and output path, run from an empty directory: every
    # certificate value in the CSV and every summary figure is pinned.
    proc = run_script("run_bounds_sweep.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == (
        "e88f06920a76010d3a8a2db732f68133d83e090d82dc83b71d71e567edef6dc2"
    )
    csv_bytes = (tmp_path / "results" / "bounds_sweep.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == (
        "d5b6fe0b275755574d736b628e03c23d692009a1e202f7ee1d48ed2d487fa9f6"
    )


def test_portfolio_demo_golden():
    proc = run_script("run_portfolio_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == (
        "b516d9a661f399ce0d8be69b26d9cb30d54897d1007055322268fabf4bb7a7db"
    )


def test_bounds_sweep_rejects_empty_sweep(tmp_path):
    proc = run_script("run_bounds_sweep.py", "--instances", "0", "--out", str(tmp_path / "s.csv"))
    assert proc.returncode == 2
    assert "argument --instances: must be a positive integer, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bounds_sweep_rejects_bad_sup(tmp_path, value):
    proc = run_script("run_bounds_sweep.py", "--instances", "2", f"--sup={value}",
                      "--out", str(tmp_path / "s.csv"))
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert f"argument --sup: must be a finite number >= 0, got {float(value)}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_portfolio_demo_rejects_empty_sweep():
    proc = run_script("run_portfolio_demo.py", "--markets", "0")
    assert proc.returncode == 2
    assert "argument --markets: must be a positive integer, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag, value, message", [
    ("--assets", "0", "argument --assets: must be a positive integer, got 0"),
    ("--outcomes", "1", "argument --outcomes: must be an integer >= 2, got 1"),
])
def test_portfolio_demo_rejects_degenerate_markets(flag, value, message):
    proc = run_script("run_portfolio_demo.py", "--markets", "2", flag, value)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_stage_keys_are_benchmark_layer_names(monkeypatch):
    # The pipeline rows of a bench file share their keys with the trace.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    stages = bench.pipeline_rows(2000, 1, 1)["stages"]
    assert set(stages) == set(bench.STAGE_KEYS) and set(stages) <= per_layer
    assert all(seconds > 0 for seconds in stages.values())
    row = bench.cli_test_row(2000, 1, 1)
    assert row["rows"] == 2000 and row["min_s"] > 0
