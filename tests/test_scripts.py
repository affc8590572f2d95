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


def test_bounds_sweep_violation_exits_under_optimize(tmp_path):
    # python -O strips assert statements; a failing certificate (stubbed
    # here) must still stop the sweep, naming the seed, before any output.
    stub = (
        "import dataclasses, runpy, sys, infoloss\n"
        "real = infoloss.bound_bounded_loss\n"
        "def failing(*args):\n"
        "    return dataclasses.replace(real(*args), holds=False)\n"
        "infoloss.bound_bounded_loss = failing\n"
        "sys.argv = sys.argv[1:]\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n"
    )
    out = tmp_path / "s.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", stub, str(ROOT / "scripts" / "run_bounds_sweep.py"),
         "--instances", "3", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("certificate violated at seed 7: excess ")
    assert proc.stdout == "" and not out.exists()


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


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--sup", "-1", "argument --sup: must be a finite number >= 0, got -1.0",
                 id="--sup=-1"),
    pytest.param("--sup", "nan", "argument --sup: must be a finite number >= 0, got nan",
                 id="--sup=nan"),
    pytest.param("--sup", "inf", "argument --sup: must be a finite number >= 0, got inf",
                 id="--sup=inf"),
    pytest.param("--seed", "-1",
                 "argument --seed: the sweep keys seeds -1 .. 1000000, outside [0, 2**64)",
                 id="--seed=-1"),
    pytest.param("--seed", "-5000000",
                 "argument --seed: the sweep keys seeds -5000000 .. -3999999, outside [0, 2**64)",
                 id="--seed=-5000000"),
    pytest.param("--seed", str(2**64 - 1_000_001), "argument --seed: the sweep keys seeds "
                 "18446744073708551615 .. 18446744073709551616, outside [0, 2**64)",
                 id="--seed=2**64-1000001"),
    pytest.param("--seed", str(2**64 - 1), "argument --seed: the sweep keys seeds "
                 "18446744073709551615 .. 18446744073710551616, outside [0, 2**64)",
                 id="--seed=2**64-1"),
])
def test_bounds_sweep_rejects_bad_arguments(tmp_path, flag, value, message):
    out = tmp_path / "s.csv"
    proc = run_script("run_bounds_sweep.py", "--instances", "2", f"{flag}={value}",
                      "--out", str(out))
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_portfolio_demo_rejects_empty_sweep():
    proc = run_script("run_portfolio_demo.py", "--markets", "0")
    assert proc.returncode == 2
    assert "argument --markets: must be a positive integer, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag, value, message", [
    ("--assets", "0", "argument --assets: must be a positive integer, got 0"),
    ("--outcomes", "1", "argument --outcomes: must be an integer >= 2, got 1"),
    ("--seed", "-1", "argument --seed: the demo keys seeds -1 .. 1, outside [0, 2**64)"),
    ("--seed", str(2**64 - 2), "argument --seed: the demo keys seeds "
     "18446744073709551614 .. 18446744073709551616, outside [0, 2**64)"),
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
