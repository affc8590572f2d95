"""The benchmark's workloads and the independent checks of their outputs.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one operation in ``run`` (the timed part), turns the raw result into a small
hashable ``summarize``d output outside the timed part, and lists what is
wrong with an output in ``problems``.  The checks recompute the answer
without the package's binning or CSV code: ``np.loadtxt`` parses the CSV and
a dense ``np.histogramdd`` count over every cell triple gives L_n.

The program is reached the way a user reaches it: ``infoloss.cli.main``
in-process, or the public API.  Names are looked up through their modules at
call time, so a traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import infoloss.bounds
import infoloss.cli
import infoloss.portfolio
import infoloss.selection
from infoloss import discrete, partition, synth

L_TOL = 1e-9  # agreement required between the program's L_n / t_n and the oracle
C1 = 1.5  # default threshold multiplier of the CLI and the API
DELTA = 0.2  # default bandwidth exponent, h = n^-delta


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = infoloss.cli.main(argv)
    return code, buf.getvalue()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _bandwidth(n: int, d: int, d_prime: int, delta: float = DELTA) -> tuple[float, int]:
    """h = n^-delta, with delta clamped to 99% of 1/(d + 1 + d') as selection does."""
    limit = 1.0 / (d + 1 + d_prime)
    if delta >= limit:
        delta = 0.99 * limit
    h = min(1.0, float(n) ** (-delta))
    return h, math.ceil(1.0 / h)


def reference_threshold(n: int, bins: int, d: int, d_prime: int, h: float, c1: float = C1):
    """t_n = c1 (sqrt(m m' m''/n) + sqrt(m' m''/n) + sqrt(m m''/n) + sqrt(m''/n)) + h log n."""
    m, m1, m2 = bins**d, bins, bins**d_prime
    return c1 * (
        math.sqrt(m * m1 * m2 / n) + math.sqrt(m1 * m2 / n)
        + math.sqrt(m * m2 / n) + math.sqrt(m2 / n)
    ) + math.log(n) * h


def reference_type1_bound(bins: int, d_prime: int, c1: float = C1) -> float:
    return 4.0 * math.exp(-(c1 * c1 / 2.0 - math.log(2.0)) * bins**d_prime)


def dense_l_statistic(x: np.ndarray, y: np.ndarray, z: np.ndarray, h: float, bins: int) -> float:
    """L_n summed over every (A, B, C) cell triple of a dense histogram."""
    cols = np.column_stack([x, y, z])
    n, width = cols.shape
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    span = hi - lo
    unit = np.full_like(cols, 0.5)
    live = span > 0
    unit[:, live] = (cols[:, live] - lo[live]) / span[live]
    edges = np.arange(bins + 1) * h
    edges[-1] = max(edges[-1], 1.0)  # the last cell also holds the values at 1
    edges = [edges] * width
    counts, _ = np.histogramdd(unit, bins=edges)
    d, d_prime = x.shape[1], z.shape[1]
    p = counts.reshape(bins**d, bins, bins**d_prime) / n
    p_ac = p.sum(axis=1, keepdims=True)
    p_bc = p.sum(axis=0, keepdims=True)
    p_c = p.sum(axis=(0, 1), keepdims=True)
    occupied = np.broadcast_to(p_c > 0, p.shape)
    q = np.divide(p_ac * p_bc, p_c, out=np.zeros_like(p), where=p_c > 0)
    return float(np.abs(p - q)[occupied].sum())


def _close(name: str, got: float, want: float, problems: list[str]) -> None:
    if not abs(got - want) <= L_TOL:
        problems.append(f"{name}: program {got!r}, reference {want!r}")


class Workload:
    """One closed-loop, single-client workload."""

    name = ""
    threads = 1
    # Kind of reference computation the operation time is divided by: where
    # the workload spends its time, "python" bytecode or "numpy" array passes.
    reference = "python"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs from the seed and warm the code paths; may run repeatedly."""

    def before_run(self) -> None:
        """Untimed step before each operation."""

    def run(self):
        raise NotImplementedError

    def summarize(self, raw):
        return raw

    def items(self, output) -> int:
        """Work items one operation completed: sample rows, or instances."""
        raise NotImplementedError

    def problems(self, output) -> list[str]:
        raise NotImplementedError


class CliGen(Workload):
    """CLI ``gen``: draw an h1 sample and write it as CSV (the writer path)."""

    name = "cli_gen"

    def __init__(self, seed: int, workdir: Path, rows: int = 200_000) -> None:
        super().__init__(seed, workdir)
        self.rows = rows
        self.stem = workdir / "gen"

    def _argv(self, rows: int, stem: Path) -> list[str]:
        return ["gen", "--scenario", "h1", "--n", str(rows), "--seed", str(self.seed),
                "--output", str(stem)]

    def setup(self) -> None:
        _cli(self._argv(1000, self.workdir / "warm"))

    def run(self):
        return _cli(self._argv(self.rows, self.stem))

    def summarize(self, raw):
        code, _ = raw
        return code, _sha256(self.stem.with_suffix(".csv")), self.stem.with_suffix(".json").read_text()

    def items(self, output) -> int:
        return self.rows

    def problems(self, output) -> list[str]:
        code, digest, echo = output
        csv = self.stem.with_suffix(".csv")
        if digest != _sha256(csv):
            return ["CSV bytes differ between operations with one seed"]
        problems = [] if code == 0 else [f"exit code {code}"]
        with csv.open() as fh:
            header = fh.readline().strip()
        if header != "x1,x2,y,z1":
            problems.append(f"header {header!r}")
        want = synth.gen_h1(synth.H1Config(n=self.rows, seed=self.seed))
        got = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(got, np.column_stack([want.x, want.y, want.z])):
            problems.append("CSV values do not round-trip the generated sample")
        meta = json.loads(echo)
        for key, value in (("n", self.rows), ("seed", self.seed), ("d", 2), ("d_prime", 1)):
            if meta.get(key) != value:
                problems.append(f"config echo {key}={meta.get(key)!r}, expected {value!r}")
        return problems


class CliTest(Workload):
    """CLI ``test`` on a CSV written by CLI ``gen`` (the parser path)."""

    name = "cli_test"

    def __init__(self, seed: int, workdir: Path, rows: int = 200_000) -> None:
        super().__init__(seed, workdir)
        self.rows = rows
        self.stem = workdir / "sample"

    def setup(self) -> None:
        # The sample is written once per run, by a child process, so the
        # writer's memory does not count towards this process's peak resident
        # size; the writer's time is what cli_gen measures.
        if not self.stem.with_suffix(".csv").exists():
            src = Path(infoloss.__file__).resolve().parent.parent
            subprocess.run(
                [sys.executable, "-m", "infoloss", "gen", "--scenario", "h1", "--n",
                 str(self.rows), "--seed", str(self.seed), "--output", str(self.stem)],
                env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                stdout=subprocess.DEVNULL, timeout=120,
            )
        warm = self.workdir / "warm"
        _cli(["gen", "--scenario", "h1", "--n", "200", "--seed", "0", "--output", str(warm)])
        _cli(["test", "--input", str(warm.with_suffix(".csv"))])

    def run(self):
        return _cli(["test", "--input", str(self.stem.with_suffix(".csv"))])

    def items(self, output) -> int:
        return self.rows

    def problems(self, output) -> list[str]:
        code, stdout = output
        got = json.loads(stdout)
        cols = np.loadtxt(self.stem.with_suffix(".csv"), delimiter=",", skiprows=1, ndmin=2)
        n = cols.shape[0]
        h, bins = _bandwidth(n, 2, 1)
        problems: list[str] = []
        _close("L_n", got["L_n"], dense_l_statistic(cols[:, :2], cols[:, 2], cols[:, 3:], h, bins),
               problems)
        _close("t_n", got["t_n"], reference_threshold(n, bins, 2, 1, h), problems)
        _close("type1_bound", got["type1_bound"], reference_type1_bound(bins, 1), problems)
        if (got["m"], got["m_prime"], got["m_dprime"]) != (bins**2, bins, bins):
            problems.append(f"cell counts {got['m'], got['m_prime'], got['m_dprime']}")
        reject = got["L_n"] >= got["t_n"]
        if got["reject"] != reject or code != (3 if reject else 0):
            problems.append(f"decision reject={got['reject']} with exit code {code}")
        return problems


class McNull(Workload):
    """CLI ``mc`` on the null scenario: the criterion-1 plan."""

    name = "mc_null"
    reference = "numpy"
    # Sample sizes with n * reps up to this are recomputed replicate by
    # replicate; larger ones get a one-replicate spot check.
    full_check_rows = 2_000_000

    def __init__(self, seed: int, workdir: Path, n_grid=(1000, 10_000, 100_000), reps: int = 200
                 ) -> None:
        super().__init__(seed, workdir)
        self.n_grid = tuple(n_grid)
        self.reps = reps
        self.threads = min(2, nproc())
        self.stem = workdir / "mc"

    def _argv(self, n_grid, reps: int, stem: Path) -> list[str]:
        return ["mc", "--scenario", "h0", "--n-grid", ",".join(map(str, n_grid)),
                "--reps", str(reps), "--seed", str(self.seed), "--threads", str(self.threads),
                "--output", str(stem)]

    def setup(self) -> None:
        _cli(self._argv((100, 200), 4, self.workdir / "warm"))

    def run(self):
        return _cli(self._argv(self.n_grid, self.reps, self.stem))

    def summarize(self, raw):
        code, _ = raw
        return code, self.stem.with_suffix(".csv").read_text()

    def items(self, output) -> int:
        return sum(self.n_grid) * self.reps

    def _replicate_l(self, n: int, rep: int, h: float, bins: int) -> tuple[float, float]:
        """(oracle L_n, program L_n) of one replicate's sample."""
        data = synth.gen_h0(synth.H0Config(n=n, seed=self.seed + rep))
        oracle = dense_l_statistic(data.x, data.y, data.z, h, bins)
        return oracle, partition.run_test(data).L_n

    def problems(self, output) -> list[str]:
        code, text = output
        problems = [] if code == 0 else [f"exit code {code}"]
        lines = text.splitlines()
        if lines[0] != "n,rejection_rate,mean_Ln,mean_tn,type1_bound":
            problems.append(f"CSV header {lines[0]!r}")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(self.n_grid):
            return problems + [f"CSV sample sizes {[r[0] for r in rows]}"]
        for (_, rate, mean_l, mean_t, bound), n in zip(rows, self.n_grid):
            h, bins = _bandwidth(n, 2, 1)
            t_n = reference_threshold(n, bins, 2, 1, h)
            _close(f"n={n} mean_tn", mean_t, t_n, problems)
            _close(f"n={n} type1_bound", bound, reference_type1_bound(bins, 1), problems)
            if n * self.reps <= self.full_check_rows:
                ls = [self._replicate_l(n, r, h, bins)[0] for r in range(self.reps)]
                _close(f"n={n} mean_Ln", mean_l, float(np.mean(ls)), problems)
                want_rate = sum(l >= t_n for l in ls) / self.reps
                if rate != want_rate:
                    problems.append(f"n={n} rejection_rate {rate}, reference {want_rate}")
            else:
                oracle, program = self._replicate_l(n, self.seed % self.reps, h, bins)
                _close(f"n={n} replicate L_n", program, oracle, problems)
                rejects = rate * self.reps
                if not 0.0 <= mean_l <= 2.0 or abs(rejects - round(rejects)) > 1e-9:
                    problems.append(f"n={n} mean_Ln {mean_l} or rejection_rate {rate}")
        return problems


class SelectH1(Workload):
    """Greedy selection on an in-memory h1 sample through the public API."""

    name = "select_h1"
    reference = "numpy"

    def __init__(self, seed: int, workdir: Path, rows: int = 1_000_000) -> None:
        super().__init__(seed, workdir)
        self.rows = rows
        self.data = None

    def setup(self) -> None:
        self.data = None
        self.data = synth.gen_h1(synth.H1Config(n=self.rows, seed=self.seed))
        infoloss.selection.greedy_lossless_selection(
            synth.gen_h1(synth.H1Config(n=2000, seed=self.seed))
        )

    def before_run(self) -> None:
        # A fresh copy per operation, so nothing cached on the input object by
        # one operation can serve the next; a user selects once per sample.
        self.live = copy.deepcopy(self.data)

    def run(self):
        return infoloss.selection.greedy_lossless_selection(self.live)

    def summarize(self, raw):
        return json.dumps(raw.to_dict(), sort_keys=True)

    def items(self, output) -> int:
        trace = json.loads(output)["trace"]
        return self.rows * sum(1 + len(step["candidates"]) for step in trace)

    def expected_path(self) -> dict:
        """The greedy path recomputed with the dense oracle."""
        x, y = self.data.x, self.data.y
        n, d = x.shape
        cache: dict[tuple[int, ...], tuple[float, float]] = {}

        def test(subset: list[int]) -> tuple[float, float]:
            key = tuple(subset)
            if key not in cache:
                h, bins = _bandwidth(n, d, len(subset))
                z = x[:, subset]
                cache[key] = (dense_l_statistic(x, y, z, h, bins),
                              reference_threshold(n, bins, d, len(subset), h))
            return cache[key]

        selected: list[int] = []
        trace = []
        while True:
            l_n, t_n = test(selected)
            step = {"subset": [f"x{i + 1}" for i in selected], "L_n": l_n, "t_n": t_n,
                    "accepted": l_n < t_n, "candidates": {}, "added": None}
            trace.append(step)
            remaining = [j for j in range(d) if j not in selected]
            if step["accepted"] or not remaining:
                return {"selected": step["subset"], "accepted": step["accepted"], "trace": trace}
            scores = {j: test(selected + [j])[0] for j in remaining}
            best = min(scores, key=lambda j: (scores[j], j))
            step["candidates"] = {f"x{j + 1}": s for j, s in scores.items()}
            step["added"] = f"x{best + 1}"
            selected.append(best)

    def problems(self, output) -> list[str]:
        got, want = json.loads(output), self.expected_path()
        problems: list[str] = []
        if (got["selected"], got["accepted"]) != (want["selected"], want["accepted"]):
            problems.append(f"selected {got['selected']}, reference {want['selected']}")
        if len(got["trace"]) != len(want["trace"]):
            return problems + [f"{len(got['trace'])} steps, reference {len(want['trace'])}"]
        for k, (g, w) in enumerate(zip(got["trace"], want["trace"])):
            for key in ("subset", "accepted", "added"):
                if g[key] != w[key]:
                    problems.append(f"step {k} {key}: {g[key]!r}, reference {w[key]!r}")
            _close(f"step {k} L_n", g["L_n"], w["L_n"], problems)
            _close(f"step {k} t_n", g["t_n"], w["t_n"], problems)
            if sorted(g["candidates"]) != sorted(w["candidates"]):
                problems.append(f"step {k} candidates {sorted(g['candidates'])}")
                continue
            for name, score in g["candidates"].items():
                _close(f"step {k} candidate {name}", score, w["candidates"][name], problems)
        return problems


def horse_race() -> infoloss.portfolio.MarketModel:
    """Doubling horse race where side information reveals the winner; gap = log 2."""
    returns = np.array([[2.0, 1e-9], [1e-9, 2.0]])
    tmap = discrete.DeterministicMap(np.array([0, 0]), n_z=1)
    joint = discrete.apply_map(np.array([[0.5, 0.0], [0.0, 0.5]]), tmap)
    return infoloss.portfolio.MarketModel(returns=returns, joint=joint, tmap=tmap)


class Certificates(Workload):
    """Risk certificates on random joints and growth gaps on random markets."""

    name = "certificates"

    def __init__(self, seed: int, workdir: Path, instances: int = 500, markets: int = 200) -> None:
        super().__init__(seed, workdir)
        self.n_instances = instances
        self.n_markets = markets

    def setup(self) -> None:
        # Proportions and alphabet sizes of scripts/run_bounds_sweep.py and
        # scripts/run_portfolio_demo.py at their defaults.
        self.instances = []
        for i in range(self.n_instances):
            seed = self.seed + i
            rng = synth.philox(seed + 1_000_000)
            ny = int(rng.integers(2, 5))
            nx = int(rng.integers(2, 7))
            nz = int(rng.integers(2, min(nx, 4) + 1))
            joint, tmap = synth.gen_random_joint((ny, nx, nz), seed)
            self.instances.append((joint, tmap, synth.gen_random_loss(ny, 1.0, seed + 500_000)))
        # The markets are the portfolio demo's own (its seed 0) whatever the
        # benchmark seed is.  Solver iterations are heavy-tailed, about one
        # market in 200 needs ~6000 against a median of ~60, so seeded markets
        # would move one operation's work by up to 60% from seed to seed.
        rng = np.random.default_rng(0)
        self.markets = [
            synth.gen_market(int(rng.integers(1, 4)), int(rng.integers(2, 7)), i)
            for i in range(self.n_markets)
        ] + [horse_race()]
        joint, tmap, loss = self.instances[0]
        infoloss.bounds.bound_bounded_loss(joint, tmap, loss)
        infoloss.portfolio.growth_gap_bound(self.markets[-1])

    def before_run(self) -> None:
        # Fresh objects per operation, as a user's single pass over them gets.
        self.live = copy.deepcopy((self.instances, self.markets))

    def run(self):
        instances, markets = self.live
        reports = []
        for joint, tmap, loss in instances:
            worst = infoloss.bounds.bound_bounded_loss(joint, tmap, loss)
            profile = infoloss.bounds.hoeffding_profile(joint.p_yx, loss)
            adaptive = infoloss.bounds.bound_subgaussian(joint, tmap, profile, loss)
            reports.append((worst, adaptive))
        growth = []
        for market in markets:
            try:
                growth.append(infoloss.portfolio.growth_gap_bound(market))
            except ValueError as exc:
                growth.append(f"growth_gap_bound raised: {exc}")
        return reports, growth

    def summarize(self, raw):
        reports, growth = raw
        return json.dumps({
            "certificates": [[w.to_dict(), a.to_dict()] for w, a in reports],
            "growth": [g if isinstance(g, str) else g.to_dict() for g in growth],
        })

    def items(self, output) -> int:
        return self.n_instances + len(self.markets)

    def problems(self, output) -> list[str]:
        got = json.loads(output)
        problems = [
            f"instance {i} {r['corollary']}: excess {r['excess']} > bound {r['bound']}"
            for i, pair in enumerate(got["certificates"]) for r in pair if r["holds"] is not True
        ]
        problems += [g for g in got["growth"] if isinstance(g, str)]
        race = got["growth"][-1]
        if not isinstance(race, str):
            if abs(race["gap"] - math.log(2.0)) > 1e-6 or abs(race["mi_gap"] - math.log(2.0)) > 1e-6:
                problems.append(f"horse race gap {race['gap']}, mi_gap {race['mi_gap']}; want log 2")
        return problems


WORKLOADS = {cls.name: cls for cls in (CliGen, CliTest, McNull, SelectH1, Certificates)}
