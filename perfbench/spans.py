"""Spans recorded from outside chebslider, for the benchmark's traced run.

Each public function below is wrapped where its caller looks it up, for the
duration of one traced operation only, and the originals are restored
afterwards. A span is ``[name, start, end, parent, op]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``op`` the operation id.
Spans stay in memory until the run ends.

Scalar ``cheb1d`` and ``eval_tensor`` calls are not wrapped: one 3-D slide
evaluation makes about 100k of them. Code that runs inside a closure passed
to a wrapped function is charged to that function's self time; for example
the ``orthopca`` reconstruction and ``slider`` restriction closures that
``build_tensor`` calls at every mesh node count towards
``chebtensor.build_s``.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)

# Per-layer metric name -> (span names, "self" or "total" time).
_TIMES = {
    "riskengine.brute_s": (("riskengine.pnl_distribution",), "total"),
    "riskengine.brute_self_s": (("riskengine.pnl_distribution",), "self"),
    "riskengine.stats_s": (
        ("riskengine.expected_shortfall", "riskengine.ks_two_sample", "riskengine.correlation"),
        "total",
    ),
    "riskengine.horizon_s": (("riskengine.apply_liquidity_horizon",), "total"),
    "orthopca.build_s": (("orthopca.build_orthogonal_slider",), "self"),
    "orthopca.fit_s": (("orthopca.fit_pca",), "self"),
    "orthopca.eval_s": (("orthopca.eval_orthogonal_slider_many",), "self"),
    "orthopca.project_s": (("orthopca.project",), "self"),
    "slider.build_s": (("slider.build_slider",), "self"),
    "slider.eval_s": (("slider.eval_slider_many",), "self"),
    "chebtensor.build_s": (("chebtensor.build_tensor",), "self"),
    "chebtensor.eval_s.d1": (("chebtensor.eval_tensor_many.d1",), "total"),
    "chebtensor.eval_s.d2": (("chebtensor.eval_tensor_many.d2",), "total"),
    "chebtensor.eval_s.d3": (("chebtensor.eval_tensor_many.d3",), "total"),
}

# (metric name, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = (
    ("pricers.calls", "count", "lower"),
    ("pricers.busy_s", "s", "lower"),
    ("pricers.us_per_call", "us", "lower"),
    ("pricers.floored_vols", "count", "lower"),
    ("riskengine.brute_s", "s", "lower"),
    ("riskengine.brute_self_s", "s", "lower"),
    ("riskengine.brute_passes", "count", "lower"),
    ("riskengine.stats_s", "s", "lower"),
    ("riskengine.horizon_s", "s", "lower"),
    ("orthopca.build_s", "s", "lower"),
    ("orthopca.fit_s", "s", "lower"),
    ("orthopca.eval_s", "s", "lower"),
    ("orthopca.project_s", "s", "lower"),
    ("slider.build_s", "s", "lower"),
    ("slider.eval_s", "s", "lower"),
    ("chebtensor.build_s", "s", "lower"),
    ("chebtensor.eval_s.d1", "s", "lower"),
    ("chebtensor.eval_s.d2", "s", "lower"),
    ("chebtensor.eval_s.d3", "s", "lower"),
    ("chebtensor.points.d1", "count", "lower"),
    ("chebtensor.points.d2", "count", "lower"),
    ("chebtensor.points.d3", "count", "lower"),
    ("chebtensor.bary_evals", "count", "lower"),
    ("chebtensor.ns_per_bary_eval", "ns", "lower"),
    ("cheb1d.clamps", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Counts that must repeat exactly from one operation to the next.
STABLE_COUNTS = ("pricers.calls", "pricers.floored_vols", "cheb1d.clamps", "chebtensor.bary_evals")


class Tracer:
    """In-memory span recorder; ``op`` is set by the caller per operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.op = -1
        self._stack: list[int] = []

    def add(self, name: str, n: int) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def exit(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            rec = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(rec)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "op"])
            writer.writerows(self.spans)


def _patches(tracer: Tracer, cb) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced call site."""
    patches = []

    def plain(owner, attr, name):
        patches.append((owner, attr, tracer.wrap(getattr(owner, attr), name)))

    plain(cb.cli, "run_es_analysis", "riskengine.run_es_analysis")
    for attr in (
        "pnl_distribution",
        "apply_liquidity_horizon",
        "expected_shortfall",
        "ks_two_sample",
        "correlation",
    ):
        plain(cb.riskengine, attr, f"riskengine.{attr}")
    plain(cb.riskengine, "build_orthogonal_slider", "orthopca.build_orthogonal_slider")
    plain(cb.orthopca, "fit_pca", "orthopca.fit_pca")
    plain(cb.orthopca, "project", "orthopca.project")
    plain(cb.orthopca, "build_slider", "slider.build_slider")
    plain(cb.orthopca, "eval_slider_many", "slider.eval_slider_many")
    plain(cb.slider, "build_tensor", "chebtensor.build_tensor")

    traced_os = tracer.wrap(
        cb.riskengine.eval_orthogonal_slider_many, "orthopca.eval_orthogonal_slider_many"
    )

    def traced_eval_os_many(os_, shocks, clamp_counter=None):
        before = clamp_counter.count if clamp_counter is not None else 0
        out = traced_os(os_, shocks, clamp_counter)
        if clamp_counter is not None:
            tracer.add("cheb1d.clamps", clamp_counter.count - before)
        return out

    patches.append((cb.riskengine, "eval_orthogonal_slider_many", traced_eval_os_many))

    eval_tensor_many = cb.slider.eval_tensor_many

    def traced_eval_tensor_many(t, xs, clamp_counter=None):
        d = t.mesh.ndim
        rec = tracer.enter(f"chebtensor.eval_tensor_many.d{d}")
        try:
            out = eval_tensor_many(t, xs, clamp_counter)
        finally:
            tracer.exit(rec)
        rows = len(out)
        tracer.add(f"chebtensor.points.d{d}", rows)
        tracer.add("chebtensor.bary_evals", cb.eval_call_count(t.mesh.shape) * rows)
        return out

    patches.append((cb.slider, "eval_tensor_many", traced_eval_tensor_many))

    pricer_call = tracer.wrap(cb.pricers.ShockedPortfolioPricer.__call__, "pricers.call")

    def traced_pricer_call(self, shock):
        before = self.floored_vol_count
        value = pricer_call(self, shock)
        tracer.add("pricers.floored_vols", self.floored_vol_count - before)
        return value

    patches.append((cb.pricers.ShockedPortfolioPricer, "__call__", traced_pricer_call))
    return patches


@contextmanager
def installed(tracer: Tracer, cb):
    """Route the traced call sites through ``tracer`` for one operation."""
    patches = _patches(tracer, cb)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def metrics_by_op(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each traced operation (all but trace.overhead_frac)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    sums: dict[int, tuple[dict, dict, dict]] = {}
    for s, children in zip(spans, child_time):
        total, self_time, calls = sums.setdefault(s[OP], ({}, {}, {}))
        dur = s[END] - s[START]
        total[s[NAME]] = total.get(s[NAME], 0.0) + dur
        self_time[s[NAME]] = self_time.get(s[NAME], 0.0) + dur - children
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
    return {op: _layer_metrics(tracer, op, *sums[op]) for op in sums}


def _layer_metrics(tracer, op, total, self_time, calls) -> dict[str, float]:
    def count(name):
        return tracer.counts.get((op, name), 0)

    m: dict[str, float] = {}
    m["pricers.calls"] = calls.get("pricers.call", 0)
    m["pricers.busy_s"] = total.get("pricers.call", 0.0)
    m["pricers.us_per_call"] = (
        1e6 * m["pricers.busy_s"] / m["pricers.calls"] if m["pricers.calls"] else 0.0
    )
    m["pricers.floored_vols"] = count("pricers.floored_vols")
    m["riskengine.brute_passes"] = calls.get("riskengine.pnl_distribution", 0)
    for metric, (names, kind) in _TIMES.items():
        source = total if kind == "total" else self_time
        m[metric] = sum(source.get(n, 0.0) for n in names)
    for d in (1, 2, 3):
        m[f"chebtensor.points.d{d}"] = count(f"chebtensor.points.d{d}")
    m["chebtensor.bary_evals"] = count("chebtensor.bary_evals")
    eval_s = sum(m[f"chebtensor.eval_s.d{d}"] for d in (1, 2, 3))
    m["chebtensor.ns_per_bary_eval"] = (
        1e9 * eval_s / m["chebtensor.bary_evals"] if m["chebtensor.bary_evals"] else 0.0
    )
    m["cheb1d.clamps"] = count("cheb1d.clamps")
    m["cli.self_s"] = total.get("cli.main", 0.0) - total.get("riskengine.run_es_analysis", 0.0)
    return m
