"""Synthetic desk-scale demo setups: a swaps book and a swaptions book.

Both run at desk scale on the scenario side (3,131 swap
scenarios, 3,108 swaption scenarios over two liquidity horizons) with
deterministic synthetic market data, portfolios and shock statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .pricers import (
    Market,
    SwapTrade,
    SwaptionTrade,
    VolSurface,
    ZeroCurve,
    market_risk_factors,
)
from .riskengine import SyntheticBlock, SyntheticSpec

__all__ = ["DemoSetup", "swaps_demo", "swaptions_demo", "demo_by_name"]

SWAPS_SCENARIOS = 3131
SWAPTIONS_SCENARIOS = 3108

_CURVE_TENORS = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)
_DISC_RATES = (0.018, 0.020, 0.022, 0.024, 0.026, 0.028, 0.030, 0.032, 0.034, 0.035)
_FORE_RATES = (0.021, 0.023, 0.025, 0.027, 0.029, 0.031, 0.033, 0.035, 0.037, 0.038)

_VOL_EXPIRIES = (0.5, 1.0, 2.0, 3.0, 5.0)
_VOL_TENORS = (1.0, 2.0, 5.0, 10.0)

# Rate shocks concentrate in three cosine components (level, slope,
# curvature); the remainder is numerically negligible, so three principal
# components describe a swaps book almost exactly.
_SWAPS_RATE_SPECTRUM = (
    1.0, 0.22, 0.06,
    7e-4, 4e-4, 2.5e-4, 1.5e-4, 1e-4, 6e-5, 4e-5, 2e-5,
)

# Swaption rates move like the swaps book (three factors); the vol surface
# spreads meaningful variance through ten components, so five principal
# components per block miss a material slice of the movement while ten
# capture almost all of it.
_SWAPTIONS_RATE_SPECTRUM = _SWAPS_RATE_SPECTRUM
_SWAPTIONS_VOL_SPECTRUM = (
    1.0, 0.45, 0.28, 0.19, 0.13,
    0.21, 0.17, 0.136, 0.11, 0.09,
    5e-4, 3e-4, 2e-4, 1.2e-4, 8e-5,
)


@dataclass(frozen=True)
class DemoSetup:
    """Market, portfolio and synthetic shock statistics for one demo book."""

    name: str
    market: Market
    portfolio: tuple
    synthetic: SyntheticSpec
    default_pca_dims: tuple[int, ...]

    @property
    def factor_names(self) -> tuple[str, ...]:
        return self.synthetic.factor_names

    def blocks_doc(self) -> dict:
        """The blocks document `chebslider demo` writes: one block per synthetic block."""
        blocks = [
            {"name": b.name, "factors": list(b.factor_names), "k": k, "horizons": list(b.horizons)}
            for b, k in zip(self.synthetic.blocks, self.default_pca_dims)
        ]
        return {"version": 1, "blocks": blocks}


def _demo_curves() -> dict[str, ZeroCurve]:
    return {
        "discount": ZeroCurve(
            tenors=np.array(_CURVE_TENORS), zero_rates=np.array(_DISC_RATES)
        ),
        "forecast": ZeroCurve(
            tenors=np.array(_CURVE_TENORS), zero_rates=np.array(_FORE_RATES)
        ),
    }


def _demo_surface() -> VolSurface:
    base = np.array(
        [
            [0.42, 0.40, 0.36, 0.33],
            [0.39, 0.37, 0.34, 0.31],
            [0.36, 0.34, 0.31, 0.29],
            [0.33, 0.32, 0.29, 0.27],
            [0.30, 0.29, 0.27, 0.25],
        ]
    )
    return VolSurface(
        expiries=np.array(_VOL_EXPIRIES), tenors=np.array(_VOL_TENORS), vols=base
    )


def _swap_portfolio() -> tuple[SwapTrade, ...]:
    trades = []
    specs = [
        # (notional, fixed_rate, maturity, frequency, payer)
        (8_000_000, 0.016, 1.0, 0.5, True),
        (6_000_000, 0.018, 2.0, 0.5, True),
        (4_000_000, 0.021, 2.0, 0.25, False),
        (9_000_000, 0.020, 3.0, 1.0, True),
        (3_000_000, 0.024, 3.0, 0.5, False),
        (10_000_000, 0.023, 5.0, 0.5, True),
        (5_000_000, 0.027, 5.0, 1.0, False),
        (7_500_000, 0.026, 7.0, 0.5, True),
        (2_500_000, 0.030, 7.0, 1.0, False),
        (12_000_000, 0.029, 10.0, 0.5, True),
        (6_000_000, 0.032, 10.0, 1.0, False),
        (4_000_000, 0.031, 12.0, 0.5, True),
        (8_000_000, 0.033, 15.0, 1.0, True),
        (3_500_000, 0.035, 15.0, 0.5, False),
        (5_000_000, 0.034, 20.0, 1.0, True),
        (2_000_000, 0.036, 20.0, 0.5, False),
        (4_500_000, 0.035, 25.0, 1.0, True),
        (6_500_000, 0.036, 30.0, 1.0, True),
        (2_500_000, 0.038, 30.0, 0.5, False),
        (7_000_000, 0.019, 4.0, 0.5, True),
        (3_000_000, 0.022, 4.0, 1.0, False),
        (5_500_000, 0.025, 6.0, 0.5, True),
        (4_200_000, 0.028, 8.0, 1.0, True),
        (3_800_000, 0.030, 9.0, 0.5, False),
    ]
    for notional, rate, maturity, freq, payer in specs:
        trades.append(
            SwapTrade(
                notional=float(notional),
                fixed_rate=rate,
                maturity=maturity,
                frequency=freq,
                payer=payer,
            )
        )
    return tuple(trades)


def _swaption_portfolio() -> tuple[SwaptionTrade, ...]:
    # Relative-value vol book: payer/receiver straddle pairs, long the 0.5y,
    # 2y and 5y expiry rows and short the 1y and 3y rows. Net delta roughly
    # cancels per pair; the vega profile alternates across expiries, so the
    # book is sensitive to the finer movements of the surface, not just its
    # level.
    trades = []
    specs = [
        # (notional, expiry, tenor, strike, frequency, option payer flag)
        (7_000_000, 0.5, 2.0, 0.024, 0.5, True),
        (7_000_000, 0.5, 2.0, 0.024, 0.5, False),
        (5_000_000, 0.5, 10.0, 0.031, 1.0, True),
        (5_000_000, 0.5, 10.0, 0.031, 1.0, False),
        (-6_000_000, 1.0, 2.0, 0.026, 0.5, True),
        (-6_000_000, 1.0, 2.0, 0.026, 0.5, False),
        (-4_000_000, 1.0, 10.0, 0.032, 1.0, True),
        (-4_000_000, 1.0, 10.0, 0.032, 1.0, False),
        (8_000_000, 2.0, 5.0, 0.030, 1.0, True),
        (8_000_000, 2.0, 5.0, 0.030, 1.0, False),
        (-7_000_000, 3.0, 5.0, 0.032, 1.0, True),
        (-7_000_000, 3.0, 5.0, 0.032, 1.0, False),
        (9_000_000, 5.0, 5.0, 0.034, 1.0, True),
        (9_000_000, 5.0, 5.0, 0.034, 1.0, False),
        (6_000_000, 5.0, 1.0, 0.031, 0.5, True),
        (6_000_000, 5.0, 1.0, 0.031, 0.5, False),
    ]
    for notional, expiry, tenor, strike, freq, payer in specs:
        underlying = SwapTrade(
            notional=float(notional),
            fixed_rate=strike,
            maturity=expiry + tenor,
            frequency=freq,
            payer=payer,
            start=expiry,
        )
        trades.append(
            SwaptionTrade(expiry=expiry, underlying=underlying, strike=strike, payer=payer)
        )
    return tuple(trades)


def _factor_names_by_kind(market: Market) -> tuple[tuple[str, ...], tuple[str, ...]]:
    rates = []
    vols = []
    for f in market_risk_factors(market):
        (rates if f.kind == "rate" else vols).append(f.name)
    return tuple(rates), tuple(vols)


def swaps_demo(scenario_count: int = SWAPS_SCENARIOS) -> DemoSetup:
    """Linear swaps book: one rates block, 10-day horizon only."""
    market = Market(curves=_demo_curves())
    rate_names, _ = _factor_names_by_kind(market)
    synthetic = SyntheticSpec(
        blocks=(
            SyntheticBlock(
                name="rates",
                factor_names=rate_names,
                scale=0.025,
                spectrum=_SWAPS_RATE_SPECTRUM,
                horizons=("10d",),
            ),
        ),
        count=scenario_count,
    )
    return DemoSetup(
        name="swaps",
        market=market,
        portfolio=_swap_portfolio(),
        synthetic=synthetic,
        default_pca_dims=(3,),
    )


def swaptions_demo(scenario_count: int = SWAPTIONS_SCENARIOS) -> DemoSetup:
    """Black swaptions book: rates + vols blocks, 10-day and 60-day horizons."""
    market = Market(curves=_demo_curves(), surface=_demo_surface())
    rate_names, vol_names = _factor_names_by_kind(market)
    synthetic = SyntheticSpec(
        blocks=(
            SyntheticBlock(
                name="rates",
                factor_names=rate_names,
                scale=0.0035,
                spectrum=_SWAPTIONS_RATE_SPECTRUM,
                horizons=("10d",),
            ),
            SyntheticBlock(
                name="vols",
                factor_names=vol_names,
                scale=0.065,
                spectrum=_SWAPTIONS_VOL_SPECTRUM,
                horizons=("10d", "60d"),
            ),
        ),
        count=scenario_count,
        block_corr=np.array([[1.0, 0.35], [0.35, 1.0]]),
    )
    return DemoSetup(
        name="swaptions",
        market=market,
        portfolio=_swaption_portfolio(),
        synthetic=synthetic,
        default_pca_dims=(10, 10),
    )


def demo_by_name(name: str, scenario_count: int | None = None) -> DemoSetup:
    if name == "swaps":
        return swaps_demo(scenario_count or SWAPS_SCENARIOS)
    if name == "swaptions":
        return swaptions_demo(scenario_count or SWAPTIONS_SCENARIOS)
    raise ConfigurationError(f"unknown demo {name!r} (expected 'swaps' or 'swaptions')")
