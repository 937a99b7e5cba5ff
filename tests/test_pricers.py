"""Reference pricers: curves, swaps, Black swaptions, shock application."""

import dataclasses
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chebslider import (
    ArgumentError,
    ConfigurationError,
    Domain1D,
    Market,
    MissingCurveError,
    ModelDomainError,
    ParameterError,
    SwapTrade,
    SwaptionTrade,
    VolSurface,
    ZeroCurve,
    build_interpolant,
    chebyshev_points,
    eval_barycentric_many,
    market_risk_factors,
    par_swap_rate,
    pnl_distribution,
    price_swap,
    price_swaption_black,
    price_trade,
    shocked_pricer,
    swap_annuity,
)
from chebslider.pricers import (
    VOL_FLOOR,
    _black,
    _checked_forward,
    load_market,
    load_portfolio,
    save_market,
    save_portfolio,
)
from chebslider.demo import swaps_demo, swaptions_demo

from .fixtures.swap_cashflow_oracle import flat_curve_swap_pv
from .oracles import black_call_quadrature


def flat_curves(rate, ids=("discount", "forecast")):
    return {
        cid: ZeroCurve(tenors=np.array([1.0, 30.0]), zero_rates=np.array([rate, rate]))
        for cid in ids
    }


class TestZeroCurve:
    def test_log_linear_interpolation(self):
        c = ZeroCurve(tenors=np.array([1.0, 3.0]), zero_rates=np.array([0.02, 0.04]))
        # log DF linear between (1, -0.02) and (3, -0.12)
        assert c.log_discount(2.0) == pytest.approx(-0.07)
        assert c.discount(1.0) == pytest.approx(math.exp(-0.02))

    def test_flat_rate_before_first_tenor(self):
        c = ZeroCurve(tenors=np.array([2.0]), zero_rates=np.array([0.03]))
        assert c.log_discount(0.5) == pytest.approx(-0.015)
        assert c.discount(0.0) == 1.0

    def test_constant_forward_extrapolation(self):
        c = ZeroCurve(tenors=np.array([1.0, 2.0]), zero_rates=np.array([0.02, 0.03]))
        # forward over [1,2] is (0.04 - 0.02) = 2% per year in log-DF slope
        slope = (-0.06 + 0.02) / 1.0
        assert c.log_discount(4.0) == pytest.approx(-0.06 + slope * 2.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ZeroCurve(tenors=np.array([2.0, 1.0]), zero_rates=np.array([0.01, 0.01]))
        with pytest.raises(ParameterError):
            ZeroCurve(tenors=np.array([-1.0]), zero_rates=np.array([0.01]))

    def test_forward_consistent_with_dfs(self):
        c = ZeroCurve(tenors=np.array([1.0, 5.0]), zero_rates=np.array([0.02, 0.035]))
        t1, t2 = 1.5, 2.5
        f = c.forward(t1, t2)
        assert f == pytest.approx((c.discount(t1) / c.discount(t2) - 1.0) / (t2 - t1))


class TestVolSurface:
    def surface(self):
        return VolSurface(
            expiries=np.array([1.0, 2.0]),
            tenors=np.array([1.0, 3.0]),
            vols=np.array([[0.20, 0.30], [0.40, 0.50]]),
        )

    def test_grid_points_exact(self):
        s = self.surface()
        assert s.vol(1.0, 1.0) == 0.20
        assert s.vol(2.0, 3.0) == 0.50

    def test_bilinear_midpoint(self):
        s = self.surface()
        assert s.vol(1.5, 2.0) == pytest.approx(0.35)

    def test_flat_extrapolation(self):
        s = self.surface()
        assert s.vol(0.25, 0.5) == 0.20
        assert s.vol(9.0, 30.0) == 0.50

    def test_validation(self):
        with pytest.raises(ParameterError):
            VolSurface(
                expiries=np.array([1.0]),
                tenors=np.array([1.0]),
                vols=np.array([[0.0]]),
            )


class TestSwapPricing:
    def test_par_rate_gives_zero_pv(self):
        curves = swaps_demo().market.curves
        t = SwapTrade(notional=1e6, fixed_rate=0.0, maturity=7.0, frequency=0.5, payer=True)
        par = par_swap_rate(t, curves)
        t_par = SwapTrade(notional=1e6, fixed_rate=par, maturity=7.0, frequency=0.5, payer=True)
        assert abs(price_swap(t_par, curves)) <= 1e-9 * 1e6

    def test_flat_zero_curve_zero_fixed(self):
        t = SwapTrade(notional=1e6, fixed_rate=0.0, maturity=5.0, frequency=1.0, payer=True)
        assert price_swap(t, flat_curves(0.0)) == 0.0

    def test_matches_cashflow_oracle(self):
        t = SwapTrade(notional=1e6, fixed_rate=0.01, maturity=5.0, frequency=1.0, payer=True)
        expected = flat_curve_swap_pv(1e6, 0.01, 5.0, 1.0, 0.02, payer=True)
        assert price_swap(t, flat_curves(0.02)) == pytest.approx(expected, abs=1e-6)

    def test_payer_receiver_mirror(self):
        curves = swaps_demo().market.curves
        base = dict(notional=5e6, fixed_rate=0.025, maturity=10.0, frequency=0.5)
        p = price_swap(SwapTrade(payer=True, **base), curves)
        r = price_swap(SwapTrade(payer=False, **base), curves)
        assert p == -r

    def test_pv01_close_to_finite_difference(self):
        # +1bp parallel shock vs the closed-form flat-curve derivative:
        # float leg PV = 1 - e^{-rT} (telescoping), fixed leg = K * annuity.
        r, k, T = 0.02, 0.02, 5.0
        t = SwapTrade(notional=1e6, fixed_rate=k, maturity=T, frequency=1.0, payer=True)
        dpv = price_swap(t, flat_curves(r + 1e-4)) - price_swap(t, flat_curves(r))
        d_float = T * math.exp(-r * T)
        d_annuity = -sum(ti * math.exp(-r * ti) for ti in range(1, 6))
        analytic_pv01 = 1e6 * 1e-4 * (d_float - k * d_annuity)
        assert dpv == pytest.approx(analytic_pv01, rel=0.01)

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            SwapTrade(notional=1e6, fixed_rate=0.02, maturity=5.3, frequency=0.5, payer=True)
        with pytest.raises(ConfigurationError):
            SwapTrade(notional=1e6, fixed_rate=0.02, maturity=5.0, frequency=0.3, payer=True)

    def test_missing_curve(self):
        t = SwapTrade(notional=1e6, fixed_rate=0.02, maturity=5.0, frequency=1.0, payer=True)
        with pytest.raises(MissingCurveError):
            price_swap(t, {"discount": flat_curves(0.02)["discount"]})

    def test_forward_start_schedule(self):
        t = SwapTrade(
            notional=1e6, fixed_rate=0.02, maturity=7.0, frequency=1.0, payer=True, start=2.0
        )
        assert t.payment_times.tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]


class TestSwaptionPricing:
    def _trade(self, strike, payer, notional=1e6):
        u = SwapTrade(
            notional=notional, fixed_rate=strike, maturity=6.0, frequency=1.0,
            payer=payer, start=1.0,
        )
        return SwaptionTrade(expiry=1.0, underlying=u, strike=strike, payer=payer)

    def test_zero_vol_limit_is_intrinsic(self):
        curves = flat_curves(0.03)
        surface = VolSurface(
            expiries=np.array([0.5, 2.0]),
            tenors=np.array([1.0, 10.0]),
            vols=np.full((2, 2), 1e-9),
        )
        t = self._trade(strike=0.02, payer=True)
        f = par_swap_rate(t.underlying, curves)
        annuity = swap_annuity(t.underlying, curves)
        pv = price_swaption_black(t, curves, surface)
        assert pv == pytest.approx(1e6 * annuity * (f - 0.02), rel=1e-6)

    def test_atm_small_vol_expansion(self):
        curves = flat_curves(0.03)
        sigma = 0.05
        surface = VolSurface(
            expiries=np.array([0.5, 2.0]),
            tenors=np.array([1.0, 10.0]),
            vols=np.full((2, 2), sigma),
        )
        u = SwapTrade(
            notional=1e6, fixed_rate=0.03, maturity=6.0, frequency=1.0, payer=True, start=1.0
        )
        f = par_swap_rate(u, curves)
        t = SwaptionTrade(
            expiry=1.0,
            underlying=SwapTrade(
                notional=1e6, fixed_rate=f, maturity=6.0, frequency=1.0, payer=True, start=1.0
            ),
            strike=f,
            payer=True,
        )
        annuity = swap_annuity(u, curves)
        pv = price_swaption_black(t, curves, surface)
        # ATM expansion: pv ~ annuity * F * sigma * sqrt(T) * phi(0)
        assert pv == pytest.approx(1e6 * annuity * f * sigma * 0.3989422804, rel=2e-3)

    def test_matches_quadrature_oracle(self):
        demo = swaptions_demo()
        curves, surface = demo.market.curves, demo.market.surface
        u = SwapTrade(
            notional=1e6, fixed_rate=0.03, maturity=7.0, frequency=1.0, payer=True, start=2.0
        )
        t = SwaptionTrade(expiry=2.0, underlying=u, strike=0.03, payer=True)
        f = par_swap_rate(u, curves)
        annuity = swap_annuity(u, curves)
        sigma = surface.vol(2.0, 5.0)
        expected = 1e6 * annuity * black_call_quadrature(f, 0.03, sigma, 2.0)
        assert price_swaption_black(t, curves, surface) == pytest.approx(expected, rel=1e-7)

    def test_put_call_parity(self):
        demo = swaptions_demo()
        curves, surface = demo.market.curves, demo.market.surface
        k = 0.028
        pv_p = price_swaption_black(self._trade(k, True), curves, surface)
        pv_r = price_swaption_black(self._trade(k, False), curves, surface)
        u = SwapTrade(
            notional=1e6, fixed_rate=k, maturity=6.0, frequency=1.0, payer=True, start=1.0
        )
        f = par_swap_rate(u, curves)
        annuity = swap_annuity(u, curves)
        assert pv_p - pv_r == pytest.approx(1e6 * annuity * (f - k), abs=1e-10 * 1e6)

    def test_negative_forward_rejected(self):
        curves = flat_curves(-0.01)
        demo = swaptions_demo()
        with pytest.raises(ModelDomainError):
            price_swaption_black(self._trade(0.02, True), curves, demo.market.surface)

    def test_underlying_must_start_at_expiry(self):
        u = SwapTrade(
            notional=1e6, fixed_rate=0.02, maturity=6.0, frequency=1.0, payer=True, start=2.0
        )
        with pytest.raises(ConfigurationError):
            SwaptionTrade(expiry=1.0, underlying=u, strike=0.02, payer=True)


class TestShockedPricer:
    def test_zero_shock_is_base_value(self):
        demo = swaps_demo()
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        base = sum(price_trade(t, demo.market) for t in demo.portfolio)
        # The compiled book sums in a different order than the trade loop.
        assert pricer(np.zeros(pricer.n_factors)) == pytest.approx(base, rel=1e-12, abs=0)

    def test_determinism_bit_identical(self):
        demo = swaptions_demo()
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        rng = np.random.default_rng(0)
        shock = rng.standard_normal(pricer.n_factors) * 0.002
        assert pricer(shock) == pricer(shock)

    def test_call_accounting(self):
        demo = swaps_demo()
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        s = 17
        for _ in range(s):
            pricer(np.zeros(pricer.n_factors))
        assert pricer.call_count == s

    def test_rate_shock_moves_only_rates(self):
        demo = swaptions_demo()
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        shock = np.zeros(pricer.n_factors)
        names = pricer.factor_names
        shock[[i for i, n in enumerate(names) if n.startswith("rate:")]] = 0.001
        market, floored = pricer.shocked_market(shock)
        assert floored == 0
        assert np.array_equal(market.surface.vols, demo.market.surface.vols)
        assert np.allclose(
            market.curves["discount"].zero_rates,
            demo.market.curves["discount"].zero_rates + 0.001,
        )

    def test_vol_floor_counted_not_raised(self):
        demo = swaptions_demo()
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        shock = np.zeros(pricer.n_factors)
        names = pricer.factor_names
        vol_idx = [i for i, n in enumerate(names) if n.startswith("vol:")]
        shock[vol_idx] = -1.0  # slam every vol through the floor
        market, floored = pricer.shocked_market(shock)
        assert floored == len(vol_idx)
        assert np.all(market.surface.vols == VOL_FLOOR)
        pricer(shock)
        assert pricer.floored_vol_count == len(vol_idx)

    def test_wrong_shock_length(self):
        demo = swaps_demo()
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        with pytest.raises(ArgumentError) as called:
            pricer(np.zeros(3))
        with pytest.raises(ArgumentError) as shocked:
            pricer.shocked_market(np.zeros(3))
        assert str(called.value) == str(shocked.value) == "shock of shape (3,), expected (20,)"

    def test_factor_ordering_deterministic(self):
        demo = swaptions_demo()
        names = [f.name for f in market_risk_factors(demo.market)]
        assert names == sorted(names, key=lambda n: (not n.startswith("rate:"),)) or names
        # rates first (curve ids sorted), then vols in row-major surface order
        assert names[0].startswith("rate:discount:")
        assert names[10].startswith("rate:forecast:")
        assert names[20].startswith("vol:")

    def test_analyticity_proxy_1d_convergence_along_shock_direction(self):
        # Portfolio value along a parallel-shift direction is smooth enough
        # for geometric interpolant convergence (n=16 error well under n=8).
        demo = swaptions_demo()
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        direction = np.ones(pricer.n_factors) * 0.004
        g = lambda a: pricer(a * direction)
        dom = Domain1D(-1.0, 1.0)
        xs = np.linspace(-1, 1, 201)
        exact = np.array([g(float(x)) for x in xs])
        errs = {}
        for n in (8, 16):
            p = build_interpolant(g, chebyshev_points(n, dom))
            errs[n] = float(np.max(np.abs(eval_barycentric_many(p, xs) - exact)))
        assert errs[16] <= 0.1 * errs[8]


_SWAPS = swaps_demo()
_SWAPTIONS = swaptions_demo()


def _mixed_book():
    """Swaps and swaptions on three curves whose payment dates coincide.

    Swaption 0 pays on the dates of swap 0 from 2.5y, on the same curves;
    swap 1 pays on those dates too, but discounts on "ois". Swaption 1 and
    the single-curve forward-start swap 2 pay yearly from 2y, both
    discounted on "ois".
    """
    curves = {
        "discount": ZeroCurve(tenors=np.array([1.0, 2.0, 5.0, 10.0]),
                              zero_rates=np.array([0.025, 0.027, 0.03, 0.031])),
        "forecast": ZeroCurve(tenors=np.array([1.0, 3.0, 7.0]),
                              zero_rates=np.array([0.03, 0.032, 0.035])),
        "ois": ZeroCurve(tenors=np.array([0.5, 2.0, 5.0, 10.0]),
                         zero_rates=np.array([0.02, 0.022, 0.025, 0.027])),
    }
    surface = VolSurface(expiries=np.array([0.5, 1.0, 3.0]), tenors=np.array([1.0, 5.0, 10.0]),
                         vols=np.array([[0.35, 0.3, 0.28], [0.33, 0.29, 0.27],
                                        [0.3, 0.27, 0.25]]))
    book = [
        SwapTrade(notional=1e6, fixed_rate=0.01, maturity=6.0, frequency=0.5, payer=True),
        SwapTrade(notional=2e6, fixed_rate=0.045, maturity=5.0, frequency=0.5, payer=False,
                  discount_curve="ois", start=2.0),
        SwapTrade(notional=1.5e6, fixed_rate=0.015, maturity=7.0, frequency=1.0, payer=True,
                  discount_curve="ois", forecast_curve="ois", start=1.0),
        SwaptionTrade(
            expiry=2.0,
            underlying=SwapTrade(notional=1e6, fixed_rate=0.03, maturity=5.0, frequency=0.5,
                                 payer=True, start=2.0),
            strike=0.03, payer=True,
        ),
        SwaptionTrade(
            expiry=1.0,
            underlying=SwapTrade(notional=-1e6, fixed_rate=0.028, maturity=6.0, frequency=1.0,
                                 payer=False, start=1.0, discount_curve="ois"),
            strike=0.028, payer=False,
        ),
    ]
    return SimpleNamespace(portfolio=book, market=Market(curves=curves, surface=surface))


_MIXED = _mixed_book()


def _reference_value(pricer, shock):
    """Trade-by-trade value on the shocked market objects, and its gross size."""
    market, floored = pricer.shocked_market(shock)
    values = [price_trade(t, market) for t in pricer.portfolio]
    return sum(values), sum(abs(v) for v in values), floored


class TestCompiledBook:
    """The compiled __call__ against shocked_market + price_trade.

    The tolerance is 1e-12 of the gross book value (sum of |trade PV|): the
    two paths add the same terms in a different order, and the net value of
    a hedged book can cancel to far below its terms.
    """

    def _check(self, demo, shock, market=None):
        pricer = shocked_pricer(list(demo.portfolio), market or demo.market)
        try:
            want, gross, floored = _reference_value(pricer, shock)
        except ModelDomainError:
            with pytest.raises(ModelDomainError):
                pricer(shock)
            assert pricer.call_count == 0
            return
        got = pricer(shock)
        assert abs(got - want) <= 1e-12 * gross
        assert pricer.floored_vol_count == floored
        assert pricer.call_count == 1

    @given(arrays(float, 20, elements=st.floats(-0.04, 0.04)))
    @settings(max_examples=60, deadline=None)
    def test_swaps_book(self, shock):
        self._check(_SWAPS, shock)

    @given(
        rates=arrays(float, 20, elements=st.floats(-0.006, 0.006)),
        vols=arrays(float, 20, elements=st.floats(-0.6, 0.3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_swaptions_book_with_floored_vols(self, rates, vols):
        self._check(_SWAPTIONS, np.concatenate([rates, vols]))

    @pytest.mark.parametrize("demo", [_SWAPS, _SWAPTIONS], ids=["swaps", "swaptions"])
    @given(
        rates=arrays(float, 22, elements=st.floats(-0.006, 0.006)),
        vols=arrays(float, 20, elements=st.floats(-0.6, 0.3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_unread_curve_sorting_first(self, demo, rates, vols):
        # No trade reads "aaa", and it sorts first, so every read curve sits
        # at a non-zero offset of the shock. The swaps book gets the surface
        # too: vol factors exist, but no swaption reads them.
        aaa = ZeroCurve(tenors=np.array([1.0, 5.0]), zero_rates=np.array([0.01, 0.02]))
        market = Market(curves={**demo.market.curves, "aaa": aaa},
                        surface=_SWAPTIONS.market.surface)
        shock = np.concatenate([rates, vols])
        assert market_risk_factors(market)[0].name == "rate:aaa:1"
        shocked, _ = shocked_pricer([], market).shocked_market(shock)
        assert np.array_equal(shocked.curves["aaa"].zero_rates, aaa.zero_rates + rates[:2])
        self._check(demo, shock, market)

    @given(
        rates=arrays(float, 11, elements=st.floats(-0.006, 0.006)),
        vols=arrays(float, 9, elements=st.floats(-0.3, 0.3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_book_with_shared_payment_dates(self, rates, vols):
        self._check(_MIXED, np.concatenate([rates, vols]))

    @pytest.mark.parametrize("demo", [_SWAPS, _SWAPTIONS, _MIXED],
                             ids=["swaps", "swaptions", "mixed"])
    def test_exponent_columns_are_distinct(self, demo):
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        columns = np.vstack([pricer._offset, pricer._slope])
        assert np.unique(columns, axis=1).shape == columns.shape
        assert pricer._legs.shape == (1 + 2 * len(pricer._swaptions), columns.shape[1])

    def test_trades_share_exponent_columns(self):
        pricer = shocked_pricer(list(_SWAPS.portfolio), _SWAPS.market)
        periods = sum(t.payment_times.size for t in _SWAPS.portfolio)
        assert pricer._slope.shape[1] < 2 * periods

    def test_negative_forward_raises_uncounted(self):
        pricer = shocked_pricer(list(_SWAPTIONS.portfolio), _SWAPTIONS.market)
        down = np.zeros(40)
        down[:20] = -0.05
        with pytest.raises(ModelDomainError, match=r"^forward swap rate"):
            pricer(down)
        assert pricer.call_count == 0
        assert pricer.floored_vol_count == 0

    def test_times_past_the_last_tenor_and_off_the_vol_grid(self):
        curves = {
            "discount": ZeroCurve(tenors=np.array([1.0, 3.0, 5.0]),
                                  zero_rates=np.array([0.02, 0.025, 0.03])),
            "forecast": ZeroCurve(tenors=np.array([2.0, 4.0]),
                                  zero_rates=np.array([0.03, 0.032])),
        }
        surface = VolSurface(expiries=np.array([1.0, 2.0]), tenors=np.array([1.0, 5.0]),
                             vols=np.array([[0.3, 0.25], [0.28, 0.22]]))
        book = [
            SwapTrade(notional=1e6, fixed_rate=0.03, maturity=9.0, frequency=0.25, payer=True),
            SwapTrade(notional=2e6, fixed_rate=0.028, maturity=7.5, frequency=0.5,
                      payer=False, start=4.5),
            SwaptionTrade(
                expiry=3.5,
                underlying=SwapTrade(notional=1e6, fixed_rate=0.03, maturity=10.5,
                                     frequency=1.0, payer=True, start=3.5),
                strike=0.03, payer=True,
            ),
            SwaptionTrade(
                expiry=1.5,
                underlying=SwapTrade(notional=-1e6, fixed_rate=0.029, maturity=4.5,
                                     frequency=0.5, payer=False, start=1.5),
                strike=0.029, payer=False,
            ),
        ]
        pricer = shocked_pricer(book, Market(curves=curves, surface=surface))
        rng = np.random.default_rng(3)
        for _ in range(20):
            shock = rng.uniform(-0.004, 0.004, pricer.n_factors)
            want, gross, _ = _reference_value(pricer, shock)
            assert abs(pricer(shock) - want) <= 1e-12 * gross

    def test_floors_counted_per_grid_point(self):
        shock = np.zeros(40)
        shock[20:24] = -0.5  # the four 0.5y-expiry vols go through the floor
        pricer = shocked_pricer(list(_SWAPTIONS.portfolio), _SWAPTIONS.market)
        want, gross, floored = _reference_value(pricer, shock)
        assert floored == 4
        assert abs(pricer(shock) - want) <= 1e-12 * gross
        assert pricer.floored_vol_count == 4

    def test_negative_forward_names_the_scenario(self):
        pricer = shocked_pricer(list(_SWAPTIONS.portfolio), _SWAPTIONS.market)
        down = np.zeros(40)
        down[:20] = -0.05  # every zero rate below zero: forward swap rates turn negative
        with pytest.raises(ModelDomainError, match=r"^scenario 1: forward swap rate"):
            pnl_distribution(pricer, np.vstack([np.zeros(40), down]), 0.0)
        # scenario 0 was priced; the failed call is not counted
        assert pricer.call_count == 1

    def test_non_finite_shock_rejected(self):
        pricer = shocked_pricer(list(_SWAPS.portfolio), _SWAPS.market)
        shock = np.zeros(20)
        shock[3] = np.nan
        with pytest.raises(ParameterError):
            pricer(shock)
        assert pricer.call_count == 0

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("at", [0, 19, 25], ids=["first-rate", "last-rate", "vol"])
    def test_non_finite_shock_rejected_without_warning(self, value, at):
        pricer = shocked_pricer(list(_SWAPTIONS.portfolio), _SWAPTIONS.market)
        shock = np.zeros(40)
        shock[at] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^shock must be finite$"):
                pricer(shock)
        assert pricer.call_count == 0

    def test_finite_shock_whose_sum_overflows_is_priced(self):
        pricer = shocked_pricer(list(_SWAPTIONS.portfolio), _SWAPTIONS.market)
        shock = np.zeros(40)
        shock[20:22] = 1e308  # the 0.5y x 1y and 0.5y x 2y vols
        assert not math.isfinite(sum(shock.tolist()))
        assert round(pricer(shock), 2) == 654_291.77
        assert pricer.call_count == 1

    @staticmethod
    def _black_per_swaption(pricer, shock):
        """The valuation with _black per swaption, from the pricer's matrices."""
        legs = (pricer._legs @ np.exp(pricer._offset + shock @ pricer._slope)).tolist()
        vols = np.maximum(pricer.market.surface.vols.ravel() + shock[pricer._n_rates:], VOL_FLOOR)
        sigmas = (pricer._vol_weights @ vols).tolist()
        swaptions = [t for t in pricer.portfolio if isinstance(t, SwaptionTrade)]
        total = legs[0]
        for t, sigma, annuity, floating in zip(swaptions, sigmas, legs[1::2], legs[2::2]):
            forward = _checked_forward(floating, annuity)
            std = sigma * math.sqrt(t.expiry)
            total += t.underlying.notional * annuity * _black(forward, t.strike, std, t.payer)
        return total

    @pytest.mark.parametrize("demo", [_SWAPTIONS, _MIXED], ids=["swaptions", "mixed"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inlined_black_is_bit_identical_to_black(self, demo, data):
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        n_rates = pricer._n_rates
        rates = data.draw(arrays(float, n_rates, elements=st.floats(-0.006, 0.006)))
        vols = data.draw(
            arrays(float, pricer.n_factors - n_rates, elements=st.floats(-0.6, 0.3))
        )
        shock = np.concatenate([rates, vols])
        try:
            expected = self._black_per_swaption(pricer, shock)
        except ModelDomainError:
            with pytest.raises(ModelDomainError, match=r"^forward swap rate"):
                pricer(shock)
            return
        assert pricer(shock) == expected

    def test_bit_identity_covers_payers_receivers_and_floors(self):
        payers = [t.payer for t in _SWAPTIONS.portfolio]
        assert payers == [True, False] * 8
        shock = np.zeros(40)
        shock[20:] = -0.6
        pricer = shocked_pricer(list(_SWAPTIONS.portfolio), _SWAPTIONS.market)
        assert pricer(shock) == self._black_per_swaption(pricer, shock)
        assert pricer.floored_vol_count == 20

    def test_empty_book_is_worth_zero(self):
        pricer = shocked_pricer([], _SWAPTIONS.market)
        shock = np.zeros(40)
        shock[20] = -1.0
        assert pricer(shock) == 0.0
        assert pricer.floored_vol_count == 1


class TestMarketPortfolioFiles:
    def test_market_round_trip(self, tmp_path):
        demo = swaptions_demo()
        path = tmp_path / "market.json"
        save_market(demo.market, path)
        m2 = load_market(path)
        assert set(m2.curves) == set(demo.market.curves)
        for cid in m2.curves:
            assert np.array_equal(m2.curves[cid].tenors, demo.market.curves[cid].tenors)
            assert np.array_equal(
                m2.curves[cid].zero_rates, demo.market.curves[cid].zero_rates
            )
        assert np.array_equal(m2.surface.vols, demo.market.surface.vols)

    def test_portfolio_round_trip(self, tmp_path):
        demo = swaptions_demo()
        path = tmp_path / "portfolio.json"
        save_portfolio(list(demo.portfolio), path)
        p2 = load_portfolio(path)
        assert p2 == list(demo.portfolio)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_portfolio_round_trip_every_field(self, tmp_path_factory, data):
        number = st.floats(-1e9, 1e9, allow_nan=False)
        curve = st.text(max_size=8)

        def swap(start):
            frequency = data.draw(st.sampled_from((0.25, 0.5, 1.0)))
            return SwapTrade(
                notional=data.draw(number),
                fixed_rate=data.draw(number),
                maturity=start + frequency * data.draw(st.integers(1, 100)),
                frequency=frequency,
                payer=data.draw(st.booleans()),
                discount_curve=data.draw(curve),
                forecast_curve=data.draw(curve),
                start=start,
            )

        trades = []
        for _ in range(data.draw(st.integers(1, 4))):
            expiry = data.draw(st.floats(0.01, 30.0))
            if data.draw(st.booleans()):
                trades.append(swap(expiry))
            else:
                trades.append(SwaptionTrade(
                    expiry=expiry,
                    strike=data.draw(st.floats(1e-6, 1.0)),
                    payer=data.draw(st.booleans()),
                    underlying=swap(expiry),
                ))
        path = tmp_path_factory.mktemp("book") / "portfolio.json"
        save_portfolio(trades, path)
        assert load_portfolio(path) == trades

    @pytest.mark.parametrize(
        "key, default",
        [("start", 0.0), ("discount_curve", "discount"), ("forecast_curve", "forecast")],
    )
    def test_omitted_optional_field_takes_the_dataclass_default(self, tmp_path, key, default):
        trade = SwapTrade(notional=1e6, fixed_rate=0.02, maturity=5.0, frequency=1.0, payer=True,
                          discount_curve="ois", forecast_curve="libor", start=1.0)
        path = tmp_path / "portfolio.json"
        save_portfolio([trade], path)
        doc = json.loads(path.read_text())
        del doc["trades"][0][key]
        path.write_text(json.dumps(doc))
        assert load_portfolio(path) == [dataclasses.replace(trade, **{key: default})]

    def test_swap_only_market_without_surface(self, tmp_path):
        demo = swaps_demo()
        path = tmp_path / "market.json"
        save_market(demo.market, path)
        assert load_market(path).surface is None
