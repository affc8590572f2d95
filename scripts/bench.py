#!/usr/bin/env python3
"""Write BENCH_<label>.json: the benchmark's workloads plus the pipeline rows it lacks.

    python scripts/bench.py --label NAME [--root DIR]

Measures the source checkout at ``--root`` (default: this one), importing
the package from its ``src/`` and the tracer from its ``perfbench/``, so an
older checkout can be measured with this script.  The file holds:

- ``workloads``: each workload of the checkout's BENCHMARK.json run by its
  ``perfbench/run.py`` with ``--trace 0`` and ``--trace 1``, keeping the
  ``report:`` line's environment and every metric's median;
- ``cli_test``: min-of-K wall time of CLI ``test`` on a 1e6-row h1 CSV
  written by CLI ``gen``, in this process;
- ``pipeline``: for n = 1e5, 1e6 and 5e6, min-of-K per-stage times of
  ``run_test`` on an h1 sample, keyed by BENCHMARK.json's per-layer names
  (generate, scale, bin, statistic and threshold), and the whole
  ``run_test`` time.

Each perfbench run lasts SECONDS = 20, every sample is drawn with SEED = 1,
and each min-of-K row takes K = 5 repeats.

Every time is in seconds.  Stage times are self times from perfbench's
tracer: ``build_histogram`` takes the scaling itself, so the scale pass
runs inside the bin span and counts in ``partition.scale_s``, not in
``partition.bin_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20.0
SEED = 1
K = 5
SIZES = (100_000, 1_000_000, 5_000_000)
CSV_ROWS = 1_000_000

# Stages of one test, in pipeline order; the partition.stat span covers
# both l_statistic and threshold, and partition.run_test_s is run_test's
# own time outside them.
STAGE_KEYS = ("synth.gen_s", "partition.scale_s", "partition.bin_s", "partition.stat_s",
              "partition.run_test_s")


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its environment, metric medians and failure count."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    *_, report_line, result_line = proc.stdout.splitlines()
    report = json.loads(report_line.removeprefix("report: "))
    result = json.loads(result_line)
    return {
        "env": report["env"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "medians": {key: m["median"] for key, m in sorted(report["metrics"].items())},
        "units": {key: m["unit"] for key, m in sorted(report["metrics"].items())},
    }


def pipeline_rows(n: int, k: int, seed: int) -> dict:
    """Min-of-k stage self times and whole run_test time on an n-row h1 sample."""
    import infoloss.cli as cli
    from infoloss.synth import H1Config
    from tracing import Tracer, layer_metrics

    stages = dict.fromkeys(STAGE_KEYS, math.inf)
    total = math.inf
    for _ in range(k):
        tracer = Tracer()
        with tracer.installed():  # wraps the names cli calls, as perfbench does
            data = cli.gen_h1(H1Config(n=n, seed=seed))
            cli.run_test(data)
        del data
        layers = layer_metrics(tracer.spans)
        for key in STAGE_KEYS:
            stages[key] = min(stages[key], layers[key])
        total = min(total, sum(s.end - s.start for s in tracer.spans
                               if s.name == "partition.run_test"))
    return {"stages": stages, "run_test_s": total}


def cli_test_row(rows: int, k: int, seed: int) -> dict:
    """Min-of-k wall time of ``infoloss test`` on a CSV that ``infoloss gen`` writes."""
    from infoloss.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "sample"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["gen", "--scenario", "h1", "--n", str(rows), "--seed", str(seed),
                  "--output", str(stem)])
        csv = stem.with_suffix(".csv")
        times = []
        for _ in range(k):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                main(["test", "--input", str(csv)])
                times.append(time.perf_counter() - start)
        return {"rows": rows, "csv_bytes": csv.stat().st_size, "min_s": min(times),
                "times_s": times}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=ROOT, help="source checkout to measure")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from run import environment

    bench = {
        "label": args.label,
        "env": environment(root, SEED, 1),
        "k": K,
        "workloads": {
            w["name"]: {f"trace{t}": run_workload(root, w["name"], SEED, SECONDS, t)
                        for t in (0, 1)}
            for w in spec["workloads"]
        },
        "cli_test": cli_test_row(CSV_ROWS, K, SEED),
        "pipeline": {str(n): pipeline_rows(n, K, SEED) for n in SIZES},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
