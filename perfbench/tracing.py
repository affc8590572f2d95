"""Spans around the calls into each infoloss module, and the per-layer metrics.

A traced operation replaces module-level public names with timing wrappers
at the places the program looks them up (for example ``run_test`` as
``infoloss.montecarlo`` sees it), runs, and restores the originals.  Every
wrapped call becomes one span: name, call site, start, end, parent and the
counts observed at that boundary.  The parent comes from a per-thread stack,
so spans opened by Monte Carlo worker threads are roots of their own thread.
Spans stay in memory; the caller writes them out when the run ends.

Busy times are self times: a span's duration minus the part covered by its
child spans.  Children always run on the parent's thread and one after
another, so their summed durations are the covered part.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    site: str
    start: float
    end: float
    thread: int
    attrs: dict

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.site, self.start, self.end,
                self.thread, self.attrs]


def _rows(args, kwargs, result):
    data = args[0]
    return {"rows": data.n, "columns": data.d + 1 + data.d_prime}


def _occupied(args, kwargs, result):
    return {"occupied": int(result.counts.size)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}  # the CSV text is ASCII


def _threads(args, kwargs, result):
    return {"threads": kwargs.get("threads") or os.cpu_count() or 1}


def _instance(args, kwargs, result):
    return {"instance": 1}


def _solver_call(fn, args, kwargs):
    """Run the solver with its objective trace on and hand the caller the usual result."""
    wanted = kwargs.pop("return_trace", False)
    b, w, trace = fn(*args, return_trace=True, **kwargs)
    return ((b, w, trace) if wanted else (b, w)), {"iters": len(trace) - 1}


# (module, attribute, span name, attrs(args, kwargs, result) or None, call adapter or None)
PATCHES = (
    ("infoloss.cli", "main", "cli.main", None, None),
    ("infoloss.cli", "read_dataset_csv", "serialize.read", _file_bytes, None),
    ("infoloss.cli", "dataset_to_csv", "serialize.write", _text_bytes, None),
    ("infoloss.cli", "gen_h0", "synth.gen", None, None),
    ("infoloss.cli", "gen_h1", "synth.gen", None, None),
    ("infoloss.cli", "run_test", "partition.run_test", _rows, None),
    ("infoloss.cli", "run_plan", "montecarlo.run_plan", _threads, None),
    ("infoloss.montecarlo", "gen_h0", "synth.gen", None, None),
    ("infoloss.montecarlo", "gen_h1", "synth.gen", None, None),
    ("infoloss.montecarlo", "run_test", "partition.run_test", _rows, None),
    ("infoloss.selection", "greedy_lossless_selection", "selection.select", None, None),
    ("infoloss.selection", "run_test", "partition.run_test", _rows, None),
    ("infoloss.partition", "scale_unit", "partition.scale", None, None),
    ("infoloss.partition", "build_histogram", "partition.bin", _occupied, None),
    ("infoloss.partition", "l_statistic", "partition.stat", None, None),
    ("infoloss.partition", "threshold", "partition.stat", None, None),
    ("infoloss.bounds", "bound_bounded_loss", "bounds.certificate", _instance, None),
    ("infoloss.bounds", "hoeffding_profile", "bounds.certificate", None, None),
    ("infoloss.bounds", "bound_subgaussian", "bounds.certificate", None, None),
    ("infoloss.bounds", "mutual_information", "discrete.mi", None, None),
    ("infoloss.bounds", "excess_risk", "discrete.excess_risk", None, None),
    ("infoloss.portfolio", "growth_gap_bound", "portfolio.growth_gap", None, None),
    ("infoloss.portfolio", "mutual_information", "discrete.mi", None, None),
    ("infoloss.portfolio", "log_optimal_portfolio", "portfolio.solver", None, _solver_call),
)


class Tracer:
    """Collects spans from wrapped calls; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, site: str, attrs=None, call=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            extra: dict = {}
            start = time.perf_counter()
            try:
                if call is None:
                    result = fn(*args, **kwargs)
                else:
                    result, extra = call(fn, args, kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                extra = attrs(args, kwargs, result)
            self.spans.append(
                Span(span_id, parent, name, site, start, end, threading.get_ident(), extra)
            )
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, attrs, call in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                site = module_name.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(original, name, site, attrs, call))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times of one traced operation."""
    by_id = {s.id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    for s in spans:
        self_s[s.name] += (s.end - s.start) - covered[s.id]
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attr_sum[s.name, key] += value

    def under(span: Span, name: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    def rate_mb(nbytes: float, seconds: float) -> float:
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    mc_spans = [s for s in spans if s.site == "montecarlo"]
    plans = [s for s in spans if s.name == "montecarlo.run_plan"]
    run_plan_s = sum(s.end - s.start for s in plans)
    busy = sum(s.end - s.start for s in mc_spans)
    threads = max((s.attrs["threads"] for s in plans), default=1)
    sel_tests = [s for s in spans if s.name == "partition.run_test" and s.site == "selection"]
    rows_cols = sum(
        s.attrs["rows"] * s.attrs["columns"] for s in spans if s.name == "partition.run_test"
    )

    return {
        "serialize.read_s": self_s["serialize.read"],
        "serialize.read_mb_per_s": rate_mb(
            attr_sum["serialize.read", "bytes"], self_s["serialize.read"]
        ),
        "serialize.write_s": self_s["serialize.write"],
        "serialize.write_mb_per_s": rate_mb(
            attr_sum["serialize.write", "bytes"], self_s["serialize.write"]
        ),
        "synth.gen_s": self_s["synth.gen"],
        "synth.calls": calls["synth.gen"],
        "partition.run_test_s": self_s["partition.run_test"],
        "partition.scale_s": self_s["partition.scale"],
        "partition.bin_s": self_s["partition.bin"],
        "partition.stat_s": self_s["partition.stat"],
        "partition.calls": calls["partition.run_test"],
        "partition.rows": int(attr_sum["partition.run_test", "rows"]),
        "partition.occupied_triples": int(attr_sum["partition.bin", "occupied"]),
        "partition.bytes_in": int(rows_cols * 8),
        "montecarlo.run_plan_s": run_plan_s,
        "montecarlo.replicates": sum(1 for s in mc_spans if s.name == "partition.run_test"),
        "montecarlo.replicate_busy_s": busy,
        "montecarlo.pool_efficiency": busy / (threads * run_plan_s) if run_plan_s > 0 else 0.0,
        "selection.subset_tests": len(sel_tests),
        "selection.rescales": sum(
            1 for s in spans if s.name == "partition.scale" and under(s, "selection.select")
        ),
        "selection.subset_test_s": sum(s.end - s.start for s in sel_tests),
        "selection.self_s": self_s["selection.select"],
        "discrete.mi_calls": calls["discrete.mi"],
        "discrete.mi_s": self_s["discrete.mi"],
        "discrete.excess_risk_calls": calls["discrete.excess_risk"],
        "discrete.excess_risk_s": self_s["discrete.excess_risk"],
        "bounds.certificate_s": self_s["bounds.certificate"],
        "bounds.instances": int(attr_sum["bounds.certificate", "instance"]),
        "portfolio.solver_s": self_s["portfolio.solver"],
        "portfolio.solver_calls": calls["portfolio.solver"],
        "portfolio.solver_iters": int(attr_sum["portfolio.solver", "iters"]),
        "portfolio.growth_gap_s": self_s["portfolio.growth_gap"],
        "cli.self_s": self_s["cli.main"],
    }
