"""What the benchmark in perfbench/ uses of chebslider still exists.

perfbench/ runs the CLI in process, wraps library functions where their
callers look them up, and builds its inputs and reference results through
the public API. These tests resolve the same names, parse the same command
lines and run one traced operation, so removing or renaming something the
benchmark needs fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import chebslider
import chebslider.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_trace_call_sites_resolve():
    # _patches looks up every wrapped call site without installing any.
    patches = spans._patches(spans.Tracer(), chebslider)
    assert {attr for _, attr, _ in patches} >= {"run_es_analysis", "eval_tensor_many", "__call__"}
    # Looked up only while an operation runs.
    assert callable(chebslider.eval_call_count)
    assert callable(cli.shocked_pricer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_argv_parses(name, tmp_path):
    w = workloads.WORKLOADS[name]
    files = {k: tmp_path / f"{k}.json" for k in ("portfolio", "market", "scenarios", "blocks")}
    args = cli.build_parser().parse_args(w.argv(files, tmp_path / "out"))
    assert args.command == w.command


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")
    return {book: workloads.write_fixtures(book, 0, root / book) for book in ("swaps", "swaptions")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_and_plan(name, fixture_files):
    w = workloads.WORKLOADS[name]
    files = fixture_files[w.book]
    inputs = workloads.load_inputs(files)
    plan = workloads.make_plan(w, files, inputs.scenarios)
    assert set(plan.horizon_shocks) == set(w.horizons)
    assert len(plan.specs) == len(w.configs)
    # The benchmark's pricer probe reads and resets these counters.
    pricer = inputs.pricer
    pricer(plan.base_shock)
    assert (pricer.call_count, pricer.floored_vol_count) == (1, 0)
    pricer.reset_counters()
    assert pricer.call_count == 0


def test_traced_operation_counts_every_pricer_call(tmp_path, monkeypatch):
    made = []
    construct = cli.shocked_pricer

    def capture(*args):
        made.append(construct(*args))
        return made[-1]

    monkeypatch.setattr(cli, "shocked_pricer", capture)
    tracer = spans.Tracer()
    tracer.op = 0
    argv = ["run", "--synthetic", "swaptions", "--scenario-count", "40", "--pca-dims", "3,3",
            "--slider-tuple", "2,1x*", "--horizons", "10d,60d", "--out", str(tmp_path)]
    with spans.installed(tracer, chebslider):
        assert cli.main(argv) == 0
    metrics = spans.metrics_by_op(tracer)[0]
    assert metrics["pricers.calls"] == made[0].call_count > 0
    assert metrics["chebtensor.points.d2"] == 2 * 40  # one 2-D slide, two horizons
    assert np.isfinite(list(metrics.values())).all()
