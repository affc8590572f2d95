"""Smoke tests: the example scripts run at a tiny size and print their summaries."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


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
    assert out.rstrip().endswith("certificate violations: 0 (growth_gap_bound raises otherwise)")


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
