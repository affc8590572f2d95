#!/usr/bin/env python3
"""infoloss benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  One run sets the workload up several
times, then runs operations back to back (a closed loop with one client)
until the next one would end after ``--seconds``.  Outputs are checked after
the loop, outside the timed region.

Each operation is preceded by a fixed reference computation, timed the same
way.  The gated time, ``wall_ref``, is an operation's wall time divided by
the reference time around it: the host's speed drifts by up to 2x from one
minute to the next, and the reference drifts with it.  Raw seconds are
reported beside it.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the spans
are written to ``.perfbench_traces/`` when the run ends.

The last line of stdout is the result object; the line before it is a
report with the environment and each metric's median, tail and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_OPS = 3
END_TO_END = ("setup_s", "wall_ref", "peak_rss_mb")
REPORTED_UNITS = {"wall_s": "s", "items_per_s": "1/s", "reference_s": "s", "setup_s": "s"}
# Byte counts derived from array shapes and string lengths, not measured I/O.
COMPUTED = ("partition.bytes_in", "serialize.read_mb_per_s", "serialize.write_mb_per_s")


def load_program(root: Path) -> None:
    """Import the package from ``root/src``; exits when the checkout has none."""
    src = root / "src"
    if not (src / "infoloss" / "__init__.py").is_file():
        sys.exit(f"perfbench: no infoloss package under {src}")
    sys.path.insert(0, str(src))
    import infoloss

    if Path(infoloss.__file__).resolve().parent != (src / "infoloss").resolve():
        sys.exit(f"perfbench: imported {infoloss.__file__}, not the checkout's package")


def fresh_import_s(root: Path) -> float:
    """Seconds for a new interpreter to start and import the package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import infoloss"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


class Reference:
    """A fixed computation of one kind, timed to track the host's current speed.

    "python" runs bytecode (arithmetic, ``repr`` formatting, ``float``
    parsing) and a few numpy passes over 1.6 MB, like the CSV and
    certificate workloads; "numpy" runs whole-array passes and a sort over
    4 MB arrays, like the binning core.  Its buffers are allocated once,
    here, so timing it adds a fixed few MB to the resident size and no peak.
    """

    def __init__(self, kind: str) -> None:
        if kind not in ("python", "numpy"):
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        size = 200_000 if kind == "python" else 500_000
        self.data = np.random.default_rng(0).random(size)
        self.scaled = np.empty_like(self.data)
        self.cells = np.empty(size, dtype=np.int64)
        self.sorted = np.empty(min(size, 250_000))

    def _passes(self, repeats: int) -> None:
        data, scaled, cells = self.data, self.scaled, self.cells
        for _ in range(repeats):
            lo, hi = data.min(), data.max()
            np.subtract(data, lo, out=scaled)
            np.divide(scaled, (hi - lo) * 0.0625, out=scaled)
            np.floor(scaled, out=scaled)
            np.copyto(cells, scaled, casting="unsafe")
            np.bincount(cells)
        np.copyto(self.sorted, data[: self.sorted.size])
        self.sorted.sort()

    def seconds(self) -> float:
        start = time.perf_counter()
        if self.kind == "python":
            total = 0
            for i in range(60_000):
                total += i * i
            text = ",".join(repr(i * 0.5) for i in range(20_000))
            [float(v) for v in text.split(",")]
            self._passes(1)
        else:
            self._passes(4)
            self._passes(0)
        return time.perf_counter() - start


def environment(root: Path, seed: int, threads: int) -> dict:
    from workloads import nproc

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": threads,
    }


def _summary(values: list) -> dict:
    """Median, highest value and sample count; counts keep an integer median."""
    counts = all(isinstance(v, int) for v in values)
    median = statistics.median_low(values) if counts else statistics.median(values)
    return {"median": median, "tail_max": max(values), "samples": len(values)}


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run operations for ``seconds``, check outputs; returns raw results."""
    from tracing import Tracer, layer_metrics

    reference = Reference(workload.reference)
    # A module is imported once per process, so each set-up times the import
    # in a new interpreter, then builds the inputs and warms the code paths.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_s(ROOT)
        start = time.perf_counter()
        workload.setup()
        setup_times.append(import_s + time.perf_counter() - start)

    tracer = Tracer()
    ops = []  # dicts: traced, ref, wall, output, error, layers, spans, problems
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        tracer.spans = []
        gc.collect()
        op = {"traced": traced, "ref": reference.seconds(), "output": None, "error": None}
        t0 = time.perf_counter()
        try:
            workload.before_run()
            if traced:
                with tracer.installed():
                    t0 = time.perf_counter()
                    raw = workload.run()
                    t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                raw = workload.run()
                t1 = time.perf_counter()
            op["wall"] = t1 - t0
            op["output"] = workload.summarize(raw)
            del raw
        except Exception:
            op["wall"] = time.perf_counter() - t0
            op["error"] = traceback.format_exc()
        if traced:
            op["spans"] = tracer.spans
            op["layers"] = layer_metrics(tracer.spans)
        ops.append(op)
        elapsed = time.perf_counter() - start
        walls = [o["wall"] for o in ops]
        if len(ops) >= MIN_OPS + trace and elapsed + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each operation is divided by the mean of the references just before and after it
    refs = [o["ref"] for o in ops] + [reference.seconds()]
    for op, before, after in zip(ops, refs, refs[1:]):
        op["wall_ref"] = op["wall"] / ((before + after) / 2)

    checked: dict = {}
    for op in ops:
        if op["error"] is None:
            key = op["output"]
            if key not in checked:
                try:
                    checked[key] = workload.problems(key)
                except Exception:
                    checked[key] = [traceback.format_exc()]
            op["problems"] = checked[key]
        else:
            op["problems"] = [op["error"]]
    return {"setup_times": setup_times, "ops": ops, "peak_rss_mb": peak_rss_mb}


def metrics(workload, raw: dict, trace: bool) -> tuple[dict, dict]:
    """(metric values, per-metric summaries) for the result line and the report."""
    ok = [o for o in raw["ops"] if o["error"] is None]
    plain = [o for o in ok if not o["traced"]]
    summaries: dict = {"setup_s": _summary(raw["setup_times"])}
    if trace:
        traced = [o for o in ok if o["traced"]]
        for name in traced[0]["layers"] if traced else ():
            summaries[name] = _summary([o["layers"][name] for o in traced])
        if traced and plain:
            ratio = (statistics.median(o["wall_ref"] for o in traced)
                     / statistics.median(o["wall_ref"] for o in plain) - 1.0)
            summaries["trace.overhead_ratio"] = _summary([ratio])
        values = {name: s["median"] for name, s in summaries.items() if name != "setup_s"}
        return values, summaries
    summaries["wall_ref"] = _summary([o["wall_ref"] for o in plain])
    summaries["wall_s"] = _summary([o["wall"] for o in plain])
    summaries["items_per_s"] = _summary([workload.items(o["output"]) / o["wall"] for o in plain])
    summaries["reference_s"] = _summary([o["ref"] for o in plain])
    summaries["peak_rss_mb"] = _summary([raw["peak_rss_mb"]])
    return {name: summaries[name]["median"] for name in END_TO_END}, summaries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")

    load_program(ROOT)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        raw = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, summaries = metrics(workload, raw, bool(args.trace))
    if set(values) != set(units):
        sys.exit(f"perfbench: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}")

    ops = raw["ops"]
    failed = sum(1 for o in ops if o["problems"])
    env = environment(ROOT, args.seed, workload.threads)
    all_units = {**REPORTED_UNITS, **units}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "reference": workload.reference,
        "computed_metrics": [name for name in COMPUTED if name in values],
        "failed_ratio": failed / len(ops),
        "failures": sorted({p for o in ops for p in o["problems"]}),
        "metrics": {name: dict(s, unit=all_units[name]) for name, s in summaries.items()},
    }
    if args.trace:
        out = ROOT / ".perfbench_traces"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload,
            "env": env,
            "span_fields": ["id", "parent", "name", "site", "start", "end", "thread", "attrs"],
            "operations": [{"wall_s": o["wall"], "spans": [s.to_list() for s in o["spans"]]}
                           for o in ops if o["traced"]],
        }))
        report["trace_file"] = str(path.relative_to(ROOT))
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
