"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 10 is a soft performance gate: on constrained hardware it
reports and xfails instead of failing the suite.
"""

import json
import math
import time

import numpy as np
import pytest

import chebslider.chebtensor as chebtensor
from chebslider import (
    ChebyshevInterpolant1D,
    Domain1D,
    HyperRectangle,
    SliderConfig,
    brute_pnl,
    build_interpolant,
    build_mesh,
    build_slider,
    build_tensor,
    chebyshev_points,
    es_tail_size,
    eval_barycentric,
    eval_barycentric_many,
    eval_call_count,
    eval_orthogonal_slider_many,
    eval_slider,
    eval_slider_many,
    eval_tensor,
    expected_shortfall,
    fit_pca,
    generate_synthetic_history,
    project,
    reconstruct,
    run_es_analysis,
    shocked_pricer,
)
from chebslider.cli import main as cli_main
from chebslider.demo import swaps_demo, swaptions_demo
from chebslider.riskengine import BlockLayout

from .oracles import InstrumentedPricer, es_exhaustive, lagrange_eval, tensor_lagrange_eval

SEED = 42


def report_line(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def swaps_run():
    demo = swaps_demo()
    scen = generate_synthetic_history(demo.synthetic, SEED)
    pricer = shocked_pricer(list(demo.portfolio), demo.market)
    layout = BlockLayout.from_doc(demo.blocks_doc(), demo.factor_names)
    base = np.zeros(pricer.n_factors)
    t0 = time.perf_counter()
    brute = brute_pnl(pricer, scen, base, layout.horizon_map())
    result = run_es_analysis(
        pricer, scen, base, layout.pca_spec((3,)), SliderConfig((1, 1, 1), 5), brute, alpha=0.975,
    )
    wall = time.perf_counter() - t0
    return demo, scen, pricer, result, wall


@pytest.fixture(scope="module")
def swaptions_runs():
    demo = swaptions_demo()
    scen = generate_synthetic_history(demo.synthetic, SEED)
    layout = BlockLayout.from_doc(demo.blocks_doc(), demo.factor_names)
    out = {}
    t0 = time.perf_counter()
    for dims in ((10, 10), (5, 5)):
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        base = np.zeros(pricer.n_factors)
        brute = brute_pnl(pricer, scen, base, layout.horizon_map(("10d", "60d")))
        result = run_es_analysis(
            pricer, scen, base, layout.pca_spec(dims), SliderConfig((1,) * sum(dims), 5), brute,
            alpha=0.975,
        )
        out[sum(dims)] = (pricer, result)
    wall = time.perf_counter() - t0
    return demo, scen, out, wall


def test_c01_barycentric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (2, 5, 10, 20):
        g = chebyshev_points(n, Domain1D(-1.2, 2.4))
        vals = rng.standard_normal(n + 1)
        p = ChebyshevInterpolant1D(grid=g, values=vals)
        for x in rng.uniform(-1.2, 2.4, size=100):
            direct = lagrange_eval(g.nodes, vals, float(x))
            err = abs(eval_barycentric(p, float(x)) - direct) / (1 + abs(direct))
            worst = max(worst, err)
        node_hits_exact = all(
            eval_barycentric(p, float(x)) == vals[j] for j, x in enumerate(g.nodes)
        )
        assert node_hits_exact
    wall = time.perf_counter() - t0
    ok = worst <= 1e-11 and wall < 1.0
    assert report_line(
        "01 barycentric-vs-lagrange", ok, f"max rel diff {worst:.2e}, node hits exact, {wall:.2f}s"
    )


def test_c02_exponential_convergence():
    t0 = time.perf_counter()
    xs = np.linspace(-1, 1, 1000)
    p = build_interpolant(math.exp, chebyshev_points(14, Domain1D(-1, 1)))
    err_exp = float(np.max(np.abs(eval_barycentric_many(p, xs) - np.exp(xs))))

    runge = lambda x: 1.0 / (1.0 + 25.0 * x * x)
    xs2 = np.linspace(-1, 1, 2000)
    errs = {}
    for n in (20, 40):
        pn = build_interpolant(runge, chebyshev_points(n, Domain1D(-1, 1)))
        errs[n] = float(np.max(np.abs(eval_barycentric_many(pn, xs2) - runge(xs2))))
    ratio = errs[40] / errs[20]
    wall = time.perf_counter() - t0
    ok = err_exp <= 1e-10 and ratio <= 0.05 and wall < 1.0
    assert report_line(
        "02 exponential-convergence", ok,
        f"exp n=14 err {err_exp:.2e}, runge ratio {ratio:.4f}, {wall:.2f}s",
    )


def test_c03_tensor_cost_and_oracle(monkeypatch):
    calls = {"n": 0}
    real = chebtensor.barycentric_eval

    def counting(nodes, weights, values, x):
        calls["n"] += 1
        return real(nodes, weights, values, x)

    monkeypatch.setattr(chebtensor, "barycentric_eval", counting)
    box3 = HyperRectangle(tuple(Domain1D(-1, 1) for _ in range(3)))
    mesh = build_mesh(box3, [10, 10, 10])
    t = build_tensor(lambda v: float(np.sin(v[0]) + v[1] * v[2]), mesh)
    eval_tensor(t, [0.2, -0.3, 0.7])
    count_ok = calls["n"] == 111 == eval_call_count([10, 10, 10])

    rng = np.random.default_rng(2)
    worst = 0.0
    for shape in ((5,), (4, 6), (6, 5, 4), (3, 3, 3)):
        box = HyperRectangle(tuple(Domain1D(-1, 1) for _ in shape))
        m = build_mesh(box, list(shape))
        tt = chebtensor.ChebyshevTensor(mesh=m, values=rng.standard_normal(shape))
        axes = [g.nodes for g in m.grids]
        for _ in range(40):
            pt = rng.uniform(-1, 1, size=len(shape))
            direct = tensor_lagrange_eval(axes, tt.values, pt)
            err = abs(eval_tensor(tt, pt) - direct) / (1 + abs(direct))
            worst = max(worst, err)
    ok = count_ok and worst <= 1e-10
    assert report_line(
        "03 tensor-cost-and-oracle", ok,
        f"111 calls on 10x10x10: {count_ok}, nested-sum max rel diff {worst:.2e}",
    )


def test_c04_slider_algebra():
    rng = np.random.default_rng(3)
    n = 6
    box = HyperRectangle(tuple(Domain1D(-1.0, 1.5) for _ in range(n)))
    pivot = rng.uniform(-0.5, 0.5, size=n)
    f = InstrumentedPricer(
        lambda v: float(math.exp(0.3 * v[0]) * math.cos(v[1]) + np.sum(v**2))
    )
    cfg = SliderConfig((2, 1, 1, 1, 1), 5)
    s = build_slider(f, box, pivot, cfg)
    pivot_err = abs(eval_slider(s, pivot) - s.pivot_value) / (1 + abs(s.pivot_value))

    counts_ok = (
        s.build_call_count == 1 + 25 + 4 * 5 and f.call_count == s.build_call_count
    )

    coeffs = rng.uniform(-2, 2, size=(n, 5))

    def additive(v):
        return float(sum(np.polyval(coeffs[i], v[i]) for i in range(n)))

    s_add = build_slider(additive, box, pivot, SliderConfig((1,) * n, 5))
    pts = rng.uniform(-1.0, 1.5, size=(400, n))
    exact = np.array([additive(p) for p in pts])
    add_err = float(
        np.max(np.abs(eval_slider_many(s_add, pts) - exact)) / max(1.0, np.max(np.abs(exact)))
    )
    ok = pivot_err <= 1e-12 and add_err <= 1e-11 and counts_ok
    assert report_line(
        "04 slider-algebra", ok,
        f"pivot rel err {pivot_err:.2e}, additive rel err {add_err:.2e}, "
        f"call count {s.build_call_count}",
    )


def test_c05_pca():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((80, 12)) * np.linspace(4, 0.05, 12)
    m_full = fit_pca(data, 12)
    ortho = float(np.max(np.abs(m_full.components @ m_full.components.T - np.eye(12))))
    x = rng.standard_normal(12)
    round_trip = float(np.max(np.abs(reconstruct(m_full, project(m_full, x)) - x)))
    mses = []
    for k in range(1, 13):
        m = fit_pca(data, k)
        mses.append(float(np.mean((reconstruct(m, project(m, data)) - data) ** 2)))
    monotone = all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))
    ok = ortho <= 1e-10 and round_trip <= 1e-10 and monotone
    assert report_line(
        "05 pca", ok,
        f"orthonormality {ortho:.2e}, round trip {round_trip:.2e}, MSE monotone {monotone}",
    )


def test_c06_swaps_end_to_end(swaps_run):
    demo, scen, pricer, result, wall = swaps_run
    r = result.reports["10d"]
    checks = {
        "rel_err<=10%": r.relative_error <= 0.10,
        "rel_err<=3% (target)": r.relative_error <= 0.03,
        "savings>=99%": r.savings >= 0.99,
        "corr>=0.99": r.correlation >= 0.99,
        "ks_p>=0.05": r.ks_p_value >= 0.05,
        "runtime<60s": wall < 60.0,
        "scale==3131": scen.count == 3131,
    }
    ok = all(checks.values())
    assert report_line(
        "06 swaps-end-to-end", ok,
        f"rel_err {r.relative_error:.4%}, savings {r.savings:.4%}, "
        f"corr {r.correlation:.4f}, ks_p {r.ks_p_value:.3f}, {wall:.1f}s"
        + ("" if ok else f", failed: {[k for k, v in checks.items() if not v]}"),
    )


def test_c07_swaptions_end_to_end(swaptions_runs):
    demo, scen, runs, wall = swaptions_runs
    r20 = runs[20][1].reports["10d"]
    r10 = runs[10][1].reports["10d"]
    ratio = r10.relative_error / r20.relative_error
    checks = {
        "dim20 rel_err<=10%": r20.relative_error <= 0.10,
        "dim20 savings>=95%": r20.savings >= 0.95,
        "dim10 err >= 5x dim20 err": ratio >= 5.0,
        "runtime<300s": wall < 300.0,
        "scale==3108": scen.count == 3108,
    }
    ok = all(checks.values())
    assert report_line(
        "07 swaptions-end-to-end", ok,
        f"dim20 err {r20.relative_error:.4%} savings {r20.savings:.4%}, "
        f"dim10 err {r10.relative_error:.4%}, ratio {ratio:.1f}x, {wall:.1f}s"
        + ("" if ok else f", failed: {[k for k, v in checks.items() if not v]}"),
    )


def test_c08_liquidity_horizon_reuse(swaptions_runs):
    demo, scen, runs, _ = swaptions_runs
    pricer, result = runs[20]
    r60 = result.reports["60d"]
    before = pricer.call_count
    scen60 = scen.shocks.copy()
    values = eval_orthogonal_slider_many(result.slider, scen60)
    extra = pricer.call_count - before
    ok = r60.incremental_calls == 0 and r60.savings == 1.0 and extra == 0
    assert values.shape == (scen.count,)
    assert report_line(
        "08 60d-reuse", ok,
        f"incremental calls {r60.incremental_calls}, savings {r60.savings:.0%}, "
        f"re-eval extra calls {extra}",
    )


def test_c09_es_oracle_and_properties():
    rng = np.random.default_rng(5)
    checked = 0
    exact = True
    while checked < 100:
        s = int(rng.integers(1, 51))
        alpha = float(rng.uniform(0.9, 0.995))
        t = es_tail_size(s, alpha)
        if math.comb(s, t) > 120_000:
            continue
        pnl = rng.integers(-10**6, 10**6, size=s) / 64.0
        exact = exact and expected_shortfall(pnl, alpha) == es_exhaustive(pnl, alpha)
        checked += 1

    translation_ok = True
    monotone_ok = True
    for _ in range(500):
        s = int(rng.integers(2, 200))
        alpha = float(rng.uniform(0.9, 0.99))
        pnl = rng.standard_normal(s) * rng.uniform(1, 1e5)
        c = rng.uniform(-1e4, 1e4)
        base = expected_shortfall(pnl, alpha)
        shifted = expected_shortfall(pnl + c, alpha)
        translation_ok = translation_ok and abs(shifted - (base - c)) <= 1e-8 * (1 + abs(base) + abs(c))
    for _ in range(500):
        s = int(rng.integers(2, 200))
        alpha = float(rng.uniform(0.9, 0.99))
        pnl = rng.standard_normal(s) * rng.uniform(1, 1e5)
        hurt = pnl.copy()
        hurt[int(rng.integers(0, s))] -= rng.uniform(0, 1e5)
        monotone_ok = monotone_ok and (
            expected_shortfall(hurt, alpha) >= expected_shortfall(pnl, alpha) - 1e-9
        )
    ok = exact and translation_ok and monotone_ok
    assert report_line(
        "09 es-oracle", ok,
        f"100 exhaustive cases exact: {exact}, translation x500: {translation_ok}, "
        f"monotonicity x500: {monotone_ok}",
    )


def test_c10_performance_floor(swaps_run):
    p = build_interpolant(math.exp, chebyshev_points(9, Domain1D(-1, 1)))
    xs = np.random.default_rng(6).uniform(-1, 1, size=256)
    chunk_times = []
    for _ in range(50):
        t0 = time.perf_counter()
        for x in xs:
            eval_barycentric(p, float(x))
        chunk_times.append((time.perf_counter() - t0) / xs.size)
    per_eval = float(np.median(chunk_times))

    demo, scen, _, result, _ = swaps_run
    t0 = time.perf_counter()
    eval_orthogonal_slider_many(result.slider, scen.shocks)
    slider_wall = time.perf_counter() - t0

    ok = per_eval <= 5e-6 and slider_wall <= 1.0
    report_line(
        "10 performance-floor", ok,
        f"degree-9 eval {per_eval * 1e6:.2f}us (<=5us), "
        f"3131-scenario slider eval {slider_wall * 1e3:.0f}ms (<=1000ms)",
    )
    if not ok:
        pytest.xfail("soft gate: performance floor not met on this hardware")


def test_c11_determinism(tmp_path):
    args = [
        "run", "--synthetic", "swaps", "--seed", str(SEED),
        "--pca-dims", "3", "--slider-tuple", "1x3",
    ]
    code_a = cli_main([*args, "--out", str(tmp_path / "a")])
    code_b = cli_main([*args, "--out", str(tmp_path / "b")])
    report_a = (tmp_path / "a/report.json").read_bytes()
    report_b = (tmp_path / "b/report.json").read_bytes()
    pnl_a = (tmp_path / "a/pnl_10d.csv").read_bytes()
    pnl_b = (tmp_path / "b/pnl_10d.csv").read_bytes()
    ok = code_a == code_b == 0 and report_a == report_b and pnl_a == pnl_b
    assert report_line(
        "11 determinism", ok,
        f"report bytes {len(report_a)} == {len(report_b)}: {report_a == report_b}, "
        f"pnl identical: {pnl_a == pnl_b}",
    )
    doc = json.loads(report_a)
    assert doc["horizons"]["10d"]["relative_error"] <= 0.10
