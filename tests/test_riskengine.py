"""ES, KS, savings, synthetic history, horizons and the end-to-end run."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from chebslider import (
    ArgumentError,
    ModelDomainError,
    ParameterError,
    ScenarioSet,
    SliderConfig,
    SwapTrade,
    SyntheticBlock,
    SyntheticSpec,
    UnknownFactorError,
    apply_liquidity_horizon,
    brute_pnl,
    correlation,
    es_tail_size,
    expected_shortfall,
    fit_pca,
    generate_synthetic_history,
    ks_two_sample,
    pla_test,
    pnl_distribution,
    run_es_analysis,
    savings,
    shocked_pricer,
)
from chebslider import riskengine
from chebslider.demo import swaps_demo, swaptions_demo
from chebslider.errors import ConfigurationError
from chebslider.riskengine import BlockLayout, kolmogorov_sf, read_scenarios, write_scenarios

from .oracles import InstrumentedPricer, es_exhaustive, kolmogorov_sf_theta


def _equicorrelation(p, rho):
    """Variance spectrum of p factors with pairwise correlation rho."""
    return (1 + (p - 1) * rho,) + (1 - rho,) * (p - 1)


class TestExpectedShortfall:
    def test_hand_counted_tail(self):
        pnl = np.concatenate([[-10.0, -20.0, -30.0], np.zeros(97)])
        # alpha=0.975, s=100 -> ceil(2.5) = 3 worst values
        assert expected_shortfall(pnl, 0.975) == pytest.approx(20.0)

    def test_all_equal(self):
        assert expected_shortfall(np.full(40, 3.5), 0.975) == -3.5

    def test_all_zero_tail_is_positive_zero(self):
        es = expected_shortfall(np.zeros(40), 0.975)
        assert es == 0.0
        assert math.copysign(1.0, es) == 1.0

    def test_tail_size_250(self):
        assert es_tail_size(250, 0.975) == 7

    def test_tail_size_exact_multiple_not_bumped(self):
        # (1 - 0.975) * 200 = 5.0 exactly; floating noise must not give 6
        assert es_tail_size(200, 0.975) == 5

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            expected_shortfall(np.array([]), 0.975)
        with pytest.raises(ArgumentError):
            expected_shortfall(np.array([1.0]), 1.0)

    def test_matches_exhaustive_oracle_exactly(self):
        # Dyadic-rational P&L keeps every partial sum exact in binary
        # floating point, so "exactly" means bit-for-bit here.
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            s = int(rng.integers(1, 51))
            alpha = float(rng.uniform(0.9, 0.995))
            t = es_tail_size(s, alpha)
            if math.comb(s, t) > 120_000:
                continue
            pnl = rng.integers(-1_000_000, 1_000_000, size=s) / 64.0
            assert expected_shortfall(pnl, alpha) == es_exhaustive(pnl, alpha)
            checked += 1

    @given(
        pnl=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
        alpha=st.floats(0.9, 0.99),
        c=st.floats(-1e5, 1e5),
    )
    @settings(max_examples=500, deadline=None)
    def test_property_translation(self, pnl, alpha, c):
        pnl = np.asarray(pnl)
        base = expected_shortfall(pnl, alpha)
        shifted = expected_shortfall(pnl + c, alpha)
        assert shifted == pytest.approx(base - c, rel=1e-9, abs=1e-6)

    @given(
        pnl=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
        alpha=st.floats(0.9, 0.99),
        worsen=st.floats(0.0, 1e5),
    )
    @settings(max_examples=500, deadline=None)
    def test_property_monotonicity(self, pnl, alpha, worsen):
        pnl = np.asarray(pnl)
        base = expected_shortfall(pnl, alpha)
        hurt = pnl.copy()
        hurt[np.argmin(hurt)] -= worsen
        assert expected_shortfall(hurt, alpha) >= base - 1e-9 * (1 + abs(base))


class TestCorrelation:
    def test_self_is_one(self):
        a = np.array([1.0, 2.0, -3.0, 0.5])
        assert correlation(a, a) == pytest.approx(1.0)

    def test_negated_is_minus_one(self):
        v = np.array([1.0, 2.0, -3.0, 0.5])
        assert correlation(v, -v) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        v = np.array([1.0, 2.0, -3.0, 0.5])
        assert correlation(v, 2.0 * v + 3.0) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ArgumentError):
            correlation(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        d, p = ks_two_sample(a, a)
        assert d == 0.0
        assert p == pytest.approx(1.0)

    def test_disjoint_supports(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, 60)
        b = rng.uniform(10, 11, 60)
        d, p = ks_two_sample(a, b)
        assert d == 1.0
        assert p < 1e-6

    def test_interleaved_thirds(self):
        d, _ = ks_two_sample(np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.5, 3.5]))
        assert d == pytest.approx(1.0 / 3.0)

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(300)
        b = rng.standard_normal(200) * 1.1 + 0.05
        d, p = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, mode="asymp")
        assert d == pytest.approx(ref.statistic, abs=1e-15)

    def test_p_value_matches_kolmogorov_limit(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(400)
        b = rng.standard_normal(350) * 1.05
        d, p = ks_two_sample(a, b)
        n_eff = 400 * 350 / 750
        lam = math.sqrt(n_eff) * d
        assert p == pytest.approx(float(stats.kstwobign.sf(lam)), abs=1e-10)
        assert p == pytest.approx(kolmogorov_sf_theta(lam), abs=1e-8)

    def test_sf_series_against_theta_dual_form(self):
        for lam in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
            assert kolmogorov_sf(lam) == pytest.approx(kolmogorov_sf_theta(lam), abs=1e-8)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            ks_two_sample(np.array([]), np.array([1.0]))


class TestSavings:
    def test_paper_magnitude(self):
        assert savings(16, 3131) == pytest.approx(0.99489, abs=5e-6)

    def test_build_equals_brute(self):
        assert savings(100, 100) == 0.0

    def test_zero_incremental_calls(self):
        assert savings(0, 3108) == 1.0

    def test_floored_at_zero(self):
        assert savings(200, 100) == 0.0

    def test_bad_brute(self):
        with pytest.raises(ArgumentError):
            savings(1, 0)


class TestPlaTest:
    def test_identical_series_all_green(self):
        rng = np.random.default_rng(4)
        ht = rng.standard_normal(100) + 5.0
        spearman, ks, zone = pla_test(ht, ht, 20)
        assert len(zone) == 81
        assert spearman == pytest.approx(np.ones(81), abs=1e-15)
        assert (ks == 0.0).all()
        assert (zone == "green").all()

    def test_ranks_alone_do_not_pass(self):
        # Same ranks, disjoint distributions: Spearman 1, KS 1.
        ht = np.random.default_rng(5).standard_normal(60)
        spearman, ks, zone = pla_test(ht, ht + 10.0, 15)
        assert spearman == pytest.approx(np.ones(46), abs=1e-15)
        assert (ks == 1.0).all()
        assert (zone == "red").all()

    def test_constant_window_has_no_spearman_and_is_red(self):
        ramp = np.arange(10.0)
        for ht, rt in ((np.zeros(10), ramp), (ramp, np.ones(10))):
            spearman, ks, zone = pla_test(ht, rt, 5)
            assert np.isnan(spearman).all()
            assert (zone == "red").all()
        spearman, _, zone = pla_test(np.r_[np.zeros(5), ramp[1:6]], np.r_[ramp[:5], ramp[:5]], 5)
        assert np.isnan(spearman[0]) and not np.isnan(spearman[1:]).any()
        assert zone[0] == "red"

    def test_window_bounds(self):
        for window in (1, 6):
            with pytest.raises(ArgumentError):
                pla_test(np.arange(5.0), np.arange(5.0), window)
        with pytest.raises(ArgumentError):
            pla_test(np.arange(5.0), np.arange(4.0), 2)

    def test_one_result_per_window_start(self):
        spearman, ks, zone = pla_test(np.arange(3000.0), np.arange(3000.0), 250)
        assert len(spearman) == len(ks) == len(zone) == 2751

    def test_thresholds_are_strict(self):
        # MAR32: green needs Spearman above 0.80 and KS below 0.09; red needs
        # Spearman below 0.70 or KS above 0.12. Each bound itself is amber.
        up, down = (lambda v: np.nextafter(v, 1.0)), (lambda v: np.nextafter(v, 0.0))
        cases = [
            (0.80, 0.05, "amber"), (up(0.80), 0.05, "green"),
            (0.70, 0.05, "amber"), (down(0.70), 0.05, "red"),
            (0.95, 0.09, "amber"), (0.95, down(0.09), "green"),
            (0.95, 0.12, "amber"), (0.95, up(0.12), "red"),
            (np.nan, 0.0, "red"),
        ]
        spearman, ks, want = (np.array(c) for c in zip(*cases))
        assert list(riskengine._pla_zones(spearman.astype(float), ks.astype(float))) == list(want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_scipy_with_ties(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        high = data.draw(st.sampled_from([1, 3, 50]), label="high")
        series = st.lists(st.integers(-high, high), min_size=n, max_size=n)
        ht = np.array(data.draw(series, label="ht"), dtype=float)
        rt = np.array(data.draw(series, label="rt"), dtype=float)
        window = data.draw(st.integers(2, n), label="window")
        spearman, ks, zone = pla_test(ht, rt, window)
        assert len(zone) == n - window + 1
        for i in range(n - window + 1):
            hw, rw = ht[i : i + window], rt[i : i + window]
            assert ks[i] == stats.ks_2samp(hw, rw, method="asymp").statistic
            if hw.min() == hw.max() or rw.min() == rw.max():
                # spearmanr would warn, which the suite makes an error
                assert np.isnan(spearman[i]) and zone[i] == "red"
            else:
                assert abs(spearman[i] - stats.spearmanr(hw, rw).statistic) <= 1e-12


class TestSyntheticHistory:
    def test_seed_repeatable(self):
        spec = swaps_demo(scenario_count=100).synthetic
        a = generate_synthetic_history(spec, 7)
        b = generate_synthetic_history(spec, 7)
        assert np.array_equal(a.shocks, b.shocks)
        assert a.labels == b.labels

    def test_different_seed_differs(self):
        spec = swaps_demo(scenario_count=100).synthetic
        a = generate_synthetic_history(spec, 7)
        b = generate_synthetic_history(spec, 8)
        assert not np.array_equal(a.shocks, b.shocks)

    def test_zero_scale_gives_zero_shocks(self):
        block = SyntheticBlock(
            name="flat", factor_names=tuple(f"f{i}" for i in range(5)), scale=0.0,
            spectrum=_equicorrelation(5, 0.5),
        )
        scen = generate_synthetic_history(SyntheticSpec(blocks=(block,), count=20), 0)
        assert np.all(scen.shocks == 0.0)

    def test_equicorrelation_concentrates_variance(self):
        # 40 factors at rho=0.95: top eigenvalue 1 + 39*0.95 = 38.05 of 40,
        # so three principal components explain >= 95% of the variance.
        block = SyntheticBlock(
            name="rates",
            factor_names=tuple(f"r{i}" for i in range(40)),
            scale=0.01,
            spectrum=_equicorrelation(40, 0.95),
        )
        scen = generate_synthetic_history(SyntheticSpec(blocks=(block,), count=3131), 42)
        m = fit_pca(scen.shocks, 40)
        frac = m.explained_variance[:3].sum() / m.explained_variance.sum()
        assert frac >= 0.95

    def test_non_psd_block_corr_rejected(self):
        blocks = (
            SyntheticBlock(name="a", factor_names=("x",), scale=1.0, spectrum=(1.0,)),
            SyntheticBlock(name="b", factor_names=("y",), scale=1.0, spectrum=(1.0,)),
        )
        spec = SyntheticSpec(
            blocks=blocks, count=10, block_corr=np.array([[1.0, 2.0], [2.0, 1.0]])
        )
        with pytest.raises(ParameterError):
            generate_synthetic_history(spec, 0)

    def test_negative_spectrum_rejected(self):
        block = SyntheticBlock(
            name="bad", factor_names=("a", "b"), scale=1.0, spectrum=(1.0, -0.1)
        )
        with pytest.raises(ParameterError):
            generate_synthetic_history(SyntheticSpec(blocks=(block,), count=10), 0)

    def test_block_correlation_applied(self):
        blocks = (
            SyntheticBlock(
                name="a", factor_names=("x1", "x2"), scale=1.0, spectrum=_equicorrelation(2, 0.999)
            ),
            SyntheticBlock(
                name="b", factor_names=("y1", "y2"), scale=1.0, spectrum=_equicorrelation(2, 0.999)
            ),
        )
        spec = SyntheticSpec(
            blocks=blocks, count=4000, block_corr=np.array([[1.0, 0.8], [0.8, 1.0]])
        )
        scen = generate_synthetic_history(spec, 11)
        lead_a = scen.shocks[:, 0] + scen.shocks[:, 1]
        lead_b = scen.shocks[:, 2] + scen.shocks[:, 3]
        assert np.corrcoef(lead_a, lead_b)[0, 1] == pytest.approx(0.8, abs=0.03)


class TestLiquidityHorizons:
    def _scen(self):
        shocks = np.arange(12.0).reshape(3, 4)
        return ScenarioSet(
            labels=("a", "b", "c"),
            shocks=shocks,
            factor_names=("r1", "r2", "v1", "v2"),
        )

    def test_all_factors_is_identity(self):
        scen = self._scen()
        out = apply_liquidity_horizon(scen, scen.factor_names, np.zeros(4), "10d")
        assert np.array_equal(out.shocks, scen.shocks)

    def test_vols_only_freezes_rates(self):
        scen = self._scen()
        base = np.array([9.0, 9.0, 9.0, 9.0])
        out = apply_liquidity_horizon(scen, ("v1", "v2"), base, "60d")
        assert np.all(out.shocks[:, :2] == 9.0)
        assert np.array_equal(out.shocks[:, 2:], scen.shocks[:, 2:])
        assert out.horizon == "60d"

    def test_empty_set_freezes_everything(self):
        scen = self._scen()
        base = np.full(4, -1.0)
        out = apply_liquidity_horizon(scen, (), base, "x")
        assert np.all(out.shocks == -1.0)

    def test_unknown_factor(self):
        with pytest.raises(UnknownFactorError):
            apply_liquidity_horizon(self._scen(), ("nope",), np.zeros(4), "60d")


class TestPnlDistribution:
    def test_base_scenarios_give_zero(self):
        f = InstrumentedPricer(lambda v: float(v.sum() + 5.0))
        pnl = pnl_distribution(f, np.zeros((2, 3)), f(np.zeros(3)))
        assert np.all(pnl == 0.0)
        assert not pnl.flags.writeable

    def test_base_value_parameter_avoids_extra_call(self):
        f = InstrumentedPricer(lambda v: float(v.sum()))
        pnl_distribution(f, np.ones((2, 2)), 0.0)
        assert f.call_count == 2

    def test_antisymmetric_parallel_pair_on_single_swap(self):
        demo = swaps_demo()
        trade = SwapTrade(notional=1e6, fixed_rate=0.025, maturity=10.0, frequency=0.5, payer=True)
        pricer = shocked_pricer([trade], demo.market)
        bump = np.full(pricer.n_factors, 1e-4)
        base_value = pricer(np.zeros(pricer.n_factors))
        up, down = pnl_distribution(pricer, np.vstack([bump, -bump]), base_value)
        assert up == pytest.approx(-down, rel=0.05)

    def test_evaluator_errors_carry_scenario_index(self):
        def bad(v):
            if v[0] > 0.5:
                raise ArgumentError("boom")
            return 0.0

        with pytest.raises(ArgumentError, match="scenario 1"):
            pnl_distribution(bad, np.array([[0.0], [1.0]]), 0.0)

    def test_non_finite_value_stops_at_its_scenario(self):
        f = InstrumentedPricer(lambda v: math.inf if v[0] > 0.5 else 0.0)
        with pytest.raises(ModelDomainError, match=r"^scenario 1: portfolio value inf is not finite"):
            pnl_distribution(f, np.array([[0.0], [1.0], [0.0]]), 0.0)
        assert f.call_count == 2

    def test_non_finite_base_value_rejected(self):
        scen = ScenarioSet(labels=("a",), shocks=np.ones((1, 2)), factor_names=("x", "y"))
        f = InstrumentedPricer(lambda v: math.nan if v[0] == 0.0 else 1.0)
        with pytest.raises(ModelDomainError, match=r"^base shock: portfolio value nan"):
            brute_pnl(f, scen, np.zeros(2))
        assert f.call_count == 1


class TestRunAnalysis:
    def _setup(self, count=400, seed=5):
        demo = swaps_demo(scenario_count=count)
        scen = generate_synthetic_history(demo.synthetic, seed)
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        return BlockLayout.from_doc(demo.blocks_doc(), demo.factor_names), scen, pricer

    def _run(self, layout, scen, pricer, diagnostic=False):
        base = np.zeros(pricer.n_factors)
        brute = brute_pnl(pricer, scen, base, layout.horizon_map())
        return run_es_analysis(
            pricer, scen, base, layout.pca_spec((3,)), SliderConfig((1, 1, 1), 5), brute,
            diagnostic=diagnostic,
        )

    def test_report_identity_and_accounting(self):
        layout, scen, pricer = self._setup()
        res = self._run(layout, scen, pricer)
        r = res.reports["10d"]
        assert r.relative_error == pytest.approx(
            abs(r.es_slider - r.es_brute) / abs(r.es_brute), abs=1e-12
        )
        assert r.build_calls == 16
        assert r.savings == pytest.approx(1 - 16 / scen.count)
        # base + brute + build
        assert pricer.call_count == 1 + scen.count + 16

    def test_triangle_inequality_of_series(self):
        layout, scen, pricer = self._setup(count=300)
        s = self._run(layout, scen, pricer, diagnostic=True).pnl["10d"]
        brute, pca, slider = s["brute"], s["pca_repriced"], s["slider"]
        lhs = np.abs(slider - brute)
        rhs = np.abs(slider - pca) + np.abs(pca - brute)
        assert np.all(lhs <= rhs + 1e-9 * (1 + np.abs(brute)))

    def test_diagnostic_costs_full_brute_force(self):
        layout, scen, pricer = self._setup(count=150)
        self._run(layout, scen, pricer, diagnostic=True)
        # base + brute + build + pca_reprice
        assert pricer.call_count == 1 + 150 + 16 + 150

    def test_shared_brute_pass_matches_separate_runs(self):
        layout, scen, pricer = self._setup(count=200)
        base = np.zeros(pricer.n_factors)
        shared = brute_pnl(pricer, scen, base, layout.horizon_map())
        assert pricer.call_count == 1 + scen.count
        for dims, slides in (((3,), (1, 1, 1)), ((2,), (2,))):
            cfg = SliderConfig(slides, 5)
            reused = run_es_analysis(pricer, scen, base, layout.pca_spec(dims), cfg, shared)
            _, _, fresh_pricer = self._setup(count=200)
            fresh_brute = brute_pnl(fresh_pricer, scen, base, layout.horizon_map())
            fresh = run_es_analysis(
                fresh_pricer, scen, base, layout.pca_spec(dims), cfg, fresh_brute
            )
            assert reused.reports == fresh.reports
        assert pricer.call_count == 1 + scen.count + 16 + 26


def _read_outcome(read, path):
    try:
        scen = read(path)
    except ArgumentError as exc:
        return str(exc)
    return scen.labels, scen.factor_names, scen.shocks.shape, scen.shocks.tobytes()


# Files close to the format, with text where np.loadtxt could part from csv.reader
# and float(): a label with "#", a quote, a comma or a line break other than
# \n and \r; separator controls, underscores and non-ASCII digits around a
# number; shocks that overflow, are not numbers, are -0.0 or subnormal;
# ragged rows, blank and whitespace-only lines, CRLF and CR line ends.
_LABELS = st.one_of(
    *[st.sampled_from(["s0", "s1", "#s", "a b", ""])] * 3,
    st.text(st.sampled_from(list('a#", \t\u2028\x85\x1c\r\x00')), max_size=3),
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_CELLS = st.one_of(
    *[_FLOATS] * 8,
    st.sampled_from(["-0.0", "5e-324", "2.225073858507201e-308", "1.7976931348623157e+308",
                     " 1", "1 ", "\u20001", "+.5", "1."]),
    st.sampled_from(["1_0", "\u0661", "nan", "inf", "-Infinity", "1e400", "\x1c1", "1\x1f",
                     "", " ", "0x1p3", "abc", "1#"]),
)
_NAME = st.sampled_from(["x", "y", "z", "#w", "q r", "\u2028", '"n"'])


@st.composite
def _scenario_csv_text(draw):
    names = draw(st.one_of(*[st.lists(_NAME, min_size=1, max_size=3, unique=True)] * 4,
                           st.lists(_NAME, max_size=3)))
    first = draw(st.sampled_from(["label"] * 9 + ["labels"]))
    lines = [",".join([first, *names])]
    for _ in range(draw(st.integers(1, 4))):
        lines += draw(st.sampled_from([[]] * 5 + [[""], [" "], ["\t"]]))  # blank lines
        width = len(names) + draw(st.sampled_from([0] * 8 + [1, -1]))
        lines.append(",".join([draw(_LABELS), *(draw(_CELLS) for _ in range(max(width, 0)))]))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))  # the last line may lack its terminator
    return "".join(line + end for line, end in zip(lines, ends))


class TestScenarioCsv:
    def test_round_trip(self, tmp_path):
        demo = swaps_demo(scenario_count=25)
        scen = generate_synthetic_history(demo.synthetic, 3)
        path = tmp_path / "scen.csv"
        write_scenarios(scen, path)
        back = read_scenarios(path)
        assert back.labels == scen.labels
        assert back.factor_names == scen.factor_names
        assert np.array_equal(back.shocks, scen.shocks)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,a,b\n1,2,3\n")
        with pytest.raises(ArgumentError):
            read_scenarios(path)

    @pytest.mark.parametrize("demo", [swaps_demo, swaptions_demo], ids=["swaps", "swaptions"])
    def test_desk_size_file_takes_the_loadtxt_path(self, tmp_path, monkeypatch, demo):
        def line_reader(path):
            raise AssertionError("the line reader ran on a valid file")

        scen = generate_synthetic_history(demo().synthetic, 4)
        path = tmp_path / "scen.csv"
        write_scenarios(scen, path)
        monkeypatch.setattr(riskengine, "_read_scenarios_reference", line_reader)
        back = read_scenarios(path)
        assert back.labels == scen.labels
        assert back.factor_names == scen.factor_names
        assert back.shocks.tobytes() == scen.shocks.tobytes()

    @pytest.mark.parametrize(
        "labels, line_reader_runs",
        [(("#1", "# two", "3#"), False), (("a,b", 'say "hi"', "#c"), True)],
        ids=["hash", "quoted"],
    )
    def test_label_round_trip(self, tmp_path, monkeypatch, labels, line_reader_runs):
        runs, reference = [], riskengine._read_scenarios_reference

        def line_reader(path):
            runs.append(path)
            return reference(path)

        monkeypatch.setattr(riskengine, "_read_scenarios_reference", line_reader)
        scen = ScenarioSet(labels=labels, shocks=np.arange(6.0).reshape(3, 2), factor_names=("x", "y"))
        path = tmp_path / "scen.csv"
        write_scenarios(scen, path)
        back = read_scenarios(path)
        assert back.labels == labels
        assert np.array_equal(back.shocks, scen.shocks)
        assert runs == ([path] if line_reader_runs else [])

    @pytest.mark.parametrize("label", ["plain", '"quoted"'], ids=["loadtxt", "line-reader"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, label):
        text = f"label,rate:discount:1,rate:discount:2\n{label},0.001,-2.5e-4\nd2,0,1e-3\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
        want = read_scenarios(plain)
        if label == "plain":  # a quoted label sends both files to the line reader

            def line_reader(path):
                raise AssertionError("the line reader ran on a plain file")

            monkeypatch.setattr(riskengine, "_read_scenarios_reference", line_reader)
        got = read_scenarios(bom)
        assert (got.labels, got.factor_names) == (want.labels, want.factor_names)
        assert got.shocks.tobytes() == want.shocks.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(text=_scenario_csv_text())
    @example(text="label,a\nx,1_0\ny,\u0661\n")  # float() takes these, np.loadtxt does not
    @example(text="label,a\nx,\x1c1\n")  # np.loadtxt strips \x1c, float() rejects it
    @example(text="label,a,b\n#x,1,2\n")
    @example(text='label,a,b\n"p,q",1,2\n')
    @example(text="label,a,b\nx,1,2,3\n")
    @example(text="label,a,b\n")
    @example(text="\ufefflabel,a,b\nx,1,2\n")
    @example(text='label,"a"\nx,1\n')
    @example(text="label,a\n" + "x" * (csv.field_size_limit() + 1) + ",1\n")
    def test_fast_path_matches_line_reader(self, text):
        """Same labels, names and shock bits as the line reader, or the same error."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scen.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert _read_outcome(read_scenarios, path) == _read_outcome(
                riskengine._read_scenarios_reference, path
            )


_NAMES = ("a1", "a2", "a3", "b1", "b2")


class TestBlockLayout:
    def test_prefix_k_and_horizons(self):
        layout = BlockLayout.from_doc(
            {"blocks": [{"name": "b", "prefix": "b", "horizons": ["60d", "20d"]},
                        {"name": "a", "factors": ["a1", "a2", "a3"], "k": 2}]},
            _NAMES,
        )
        assert layout.horizons == ("10d", "60d", "20d")
        assert layout.horizon_map(["20d", "10d"]) == {"20d": ("b1", "b2"), "10d": None}
        spec = layout.pca_spec((1, 2))
        assert [(b.name, b.coord_indices, b.k) for b in spec.blocks] == [
            ("b", (3, 4), 1), ("a", (0, 1, 2), 2)
        ]
        with pytest.raises(ConfigurationError, match="no 'k' in blocks \\['b'\\]"):
            layout.pca_spec()
        with pytest.raises(ConfigurationError, match="horizon '5d' not defined"):
            layout.horizon_map(["5d"])
        with pytest.raises(ParameterError):
            layout.pca_spec((3, 2))

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([{"factors": list(_NAMES)}], "block 0 needs a 'name'"),
            ([{"name": "x", "factors": ["a1", "zz"]}], "'x'\\): not risk factors: \\['zz'\\]"),
            ([{"name": "x", "prefix": "q"}], "needs a 'factors' list or a matching 'prefix'"),
            ([{"name": "x", "factors": list(_NAMES), "k": 0}], "'k' must be an integer in 1..5"),
            ([{"name": "x", "factors": list(_NAMES), "horizons": "60d"}], "'horizons' must"),
            ([{"name": "x", "factors": ["a1", "a2"]}], "cover each of the 5 risk factors"),
            ([{"name": "x", "factors": list(_NAMES), "horizons": ["10d", "a/b"]}],
             "horizon tag 'a/b' is not"),
            ([{"name": "x", "factors": list(_NAMES), "horizons": ["60d\n"]}],
             "horizon tag '60d\\\\n' is not"),
        ],
    )
    def test_malformed_blocks_name_the_block(self, blocks, message):
        with pytest.raises(ConfigurationError, match=f"^f.json: .*{message}"):
            BlockLayout.from_doc({"blocks": blocks}, _NAMES, "f.json")

    @pytest.mark.parametrize("demo", [swaps_demo(50), swaptions_demo(50)], ids=["swaps", "swaptions"])
    def test_demo_layout_is_its_blocks_doc(self, demo):
        layout = BlockLayout.from_doc(demo.blocks_doc(), demo.factor_names)
        assert layout.pca_spec() == layout.pca_spec(demo.default_pca_dims)
        assert [b.k for b in layout.pca_spec().blocks] == list(demo.default_pca_dims)
        horizons = tuple(dict.fromkeys(h for b in demo.synthetic.blocks for h in b.horizons))
        assert tuple(layout.horizon_map()) == horizons
        for h, shocked in layout.horizon_map().items():
            want = [n for b in demo.synthetic.blocks if h in b.horizons for n in b.factor_names]
            assert shocked is None if h == "10d" else list(shocked) == want
