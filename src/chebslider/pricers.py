"""Reference pricing oracles: linear-discounting swaps and Black-76 swaptions.

These stand in for Front Office pricers. Curves interpolate log discount
factors linearly in time (flat zero rate before the first tenor, constant
forward past the last); the vol surface interpolates bilinearly with flat
extrapolation. A ShockedPortfolioPricer maps an additive shock vector to the
portfolio value and counts every valuation of the book in call_count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    ConfigurationError,
    MissingCurveError,
    ModelDomainError,
    ParameterError,
)

__all__ = [
    "ZeroCurve",
    "VolSurface",
    "Market",
    "SwapTrade",
    "SwaptionTrade",
    "RiskFactor",
    "ShockedPortfolioPricer",
    "price_swap",
    "price_swaption_black",
    "price_trade",
    "par_swap_rate",
    "swap_annuity",
    "market_risk_factors",
    "shocked_pricer",
    "load_market",
    "save_market",
    "load_portfolio",
    "save_portfolio",
]

VALID_FREQUENCIES = (0.25, 0.5, 1.0)
VOL_FLOOR = 1e-4
# Longest swap term in years: past any traded swap (the demos stop at 30y),
# and a schedule of at most 400 quarterly periods.
MAX_SWAP_TERM = 100.0


@dataclass(frozen=True)
class ZeroCurve:
    """Continuously compounded zero rates at strictly increasing tenors."""

    tenors: np.ndarray
    zero_rates: np.ndarray

    def __post_init__(self) -> None:
        tenors = np.asarray(self.tenors, dtype=float)
        rates = np.asarray(self.zero_rates, dtype=float)
        if tenors.ndim != 1 or tenors.shape != rates.shape or tenors.size == 0:
            raise ParameterError("tenors and zero_rates must be equal-length 1-D arrays")
        if not (np.all(np.diff(tenors) > 0) and np.all(tenors > 0) and np.isfinite(tenors[-1])):
            raise ParameterError("tenors must be finite, positive and strictly increasing")
        if not np.isfinite(rates).all():
            raise ParameterError("zero rates must be finite")
        knots_t = np.concatenate(([0.0], tenors))
        with np.errstate(over="ignore"):
            knots_y = np.concatenate(([0.0], -rates * tenors))
        if not np.isfinite(knots_y).all():
            raise ParameterError("log discounts -zero_rate * tenor overflow")
        for a in (tenors, rates, knots_t, knots_y):
            a.flags.writeable = False
        object.__setattr__(self, "tenors", tenors)
        object.__setattr__(self, "zero_rates", rates)
        object.__setattr__(self, "_knots_t", knots_t)
        object.__setattr__(self, "_knots_y", knots_y)

    def log_discount(self, t):
        t = np.asarray(t, dtype=float)
        kt, ky = self._knots_t, self._knots_y
        y = np.interp(t, kt, ky)
        over = t > kt[-1]
        if np.any(over):
            slope = (ky[-1] - ky[-2]) / (kt[-1] - kt[-2])
            y = np.where(over, ky[-1] + slope * (t - kt[-1]), y)
        return y

    def discount(self, t):
        return np.exp(self.log_discount(t))

    def forward(self, t1, t2):
        """Simply compounded forward rate over [t1, t2]."""
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        tau = t2 - t1
        return (np.exp(self.log_discount(t1) - self.log_discount(t2)) - 1.0) / tau


@dataclass(frozen=True)
class VolSurface:
    """Lognormal implied vols on an expiry x tenor grid, bilinear lookup."""

    expiries: np.ndarray
    tenors: np.ndarray
    vols: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.expiries, dtype=float)
        t = np.asarray(self.tenors, dtype=float)
        v = np.asarray(self.vols, dtype=float)
        if e.ndim != 1 or t.ndim != 1 or v.shape != (e.size, t.size):
            raise ParameterError(
                f"vols must have shape (len(expiries), len(tenors)); got {v.shape}"
            )
        if not (np.all(np.diff(e) > 0) and np.all(np.diff(t) > 0)):
            raise ParameterError("surface axes must be strictly increasing")
        if not (np.isfinite(v).all() and np.all(v > 0)):
            raise ParameterError("vols must be finite and positive")
        for a in (e, t, v):
            a.flags.writeable = False
        object.__setattr__(self, "expiries", e)
        object.__setattr__(self, "tenors", t)
        object.__setattr__(self, "vols", v)

    def vol(self, expiry: float, tenor: float) -> float:
        i0, i1, wi = _bracket(self.expiries, expiry)
        j0, j1, wj = _bracket(self.tenors, tenor)
        v = self.vols
        return float(
            (1 - wi) * ((1 - wj) * v[i0, j0] + wj * v[i0, j1])
            + wi * ((1 - wj) * v[i1, j0] + wj * v[i1, j1])
        )


def _bracket(axis: np.ndarray, x: float) -> tuple[int, int, float]:
    # Clamped linear weights along one axis.
    if x <= axis[0]:
        return 0, 0, 0.0
    if x >= axis[-1]:
        return axis.size - 1, axis.size - 1, 0.0
    i1 = int(np.searchsorted(axis, x, side="right"))
    i0 = i1 - 1
    w = (x - axis[i0]) / (axis[i1] - axis[i0])
    return i0, i1, float(w)


@dataclass(frozen=True)
class Market:
    curves: dict[str, ZeroCurve]
    surface: VolSurface | None = None


@dataclass(frozen=True)
class SwapTrade:
    """Fixed-for-floating swap; payer=True pays fixed, receives floating."""

    notional: float
    fixed_rate: float
    maturity: float
    frequency: float
    payer: bool
    discount_curve: str = "discount"
    forecast_curve: str = "forecast"
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency not in VALID_FREQUENCIES:
            raise ConfigurationError(
                f"frequency must be one of {VALID_FREQUENCIES}, got {self.frequency}"
            )
        if not (self.maturity > self.start >= 0.0):
            raise ConfigurationError(
                f"need maturity > start >= 0, got start={self.start}, maturity={self.maturity}"
            )
        if self.maturity - self.start > MAX_SWAP_TERM:
            raise ConfigurationError(
                f"swap term {self.maturity - self.start}y exceeds {MAX_SWAP_TERM:g}y"
            )
        nper = (self.maturity - self.start) / self.frequency
        periods = round(nper)
        if periods == 0 or abs(nper - periods) > 1e-8:
            raise ConfigurationError(
                f"maturity {self.maturity} is not a whole, positive number of "
                f"{self.frequency}y periods from start {self.start}"
            )
        times = self.start + self.frequency * np.arange(1, periods + 1)
        times[-1] = self.maturity
        times.flags.writeable = False
        object.__setattr__(self, "_times", times)

    @property
    def payment_times(self) -> np.ndarray:
        return self._times


@dataclass(frozen=True)
class SwaptionTrade:
    """European option (expiry) on a forward-starting swap."""

    expiry: float
    underlying: SwapTrade
    strike: float
    payer: bool

    def __post_init__(self) -> None:
        if self.expiry <= 0:
            raise ConfigurationError(f"expiry must be positive, got {self.expiry}")
        if self.underlying.start != self.expiry:
            raise ConfigurationError(
                f"underlying swap must start at the option expiry "
                f"({self.underlying.start} != {self.expiry})"
            )
        if self.underlying.maturity <= self.expiry:
            raise ConfigurationError("underlying maturity must exceed the option expiry")
        if self.strike <= 0:
            raise ConfigurationError(f"strike must be positive, got {self.strike}")

    @property
    def tenor(self) -> float:
        return self.underlying.maturity - self.expiry


def _get_curve(curves: dict[str, ZeroCurve], cid: str) -> ZeroCurve:
    try:
        return curves[cid]
    except KeyError:
        raise MissingCurveError(f"curve {cid!r} not in market") from None


def _legs(trade: SwapTrade, curves: dict[str, ZeroCurve]):
    disc = _get_curve(curves, trade.discount_curve)
    fore = _get_curve(curves, trade.forecast_curve)
    times = trade.payment_times
    prev = np.concatenate(([trade.start], times[:-1]))
    tau = times - prev
    fwd = fore.forward(prev, times)
    df = disc.discount(times)
    annuity = float(np.sum(tau * df))
    float_pv = float(np.sum(tau * fwd * df))
    return float_pv, annuity


def price_swap(trade: SwapTrade, curves: dict[str, ZeroCurve]) -> float:
    """PV of the swap: floating leg minus fixed leg, signed by direction."""
    float_pv, annuity = _legs(trade, curves)
    pv = trade.notional * (float_pv - trade.fixed_rate * annuity)
    return pv if trade.payer else -pv


def swap_annuity(trade: SwapTrade, curves: dict[str, ZeroCurve]) -> float:
    return _legs(trade, curves)[1]


def par_swap_rate(trade: SwapTrade, curves: dict[str, ZeroCurve]) -> float:
    """Fixed rate that sets the swap PV to zero."""
    float_pv, annuity = _legs(trade, curves)
    return float_pv / annuity


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _checked_forward(float_pv: float, annuity: float) -> float:
    forward = float_pv / annuity
    if forward <= 0.0:
        raise ModelDomainError(
            f"forward swap rate {forward} is not positive; lognormal model undefined"
        )
    return forward


def _black(forward: float, k: float, std: float, payer: bool) -> float:
    """Black-76 value per unit annuity; std = sigma * sqrt(expiry)."""
    if std == 0.0:
        return max(forward - k, 0.0) if payer else max(k - forward, 0.0)
    d1 = (math.log(forward / k) + 0.5 * std * std) / std
    d2 = d1 - std
    if payer:
        return forward * _norm_cdf(d1) - k * _norm_cdf(d2)
    return k * _norm_cdf(-d2) - forward * _norm_cdf(-d1)


def price_swaption_black(
    trade: SwaptionTrade, curves: dict[str, ZeroCurve], surface: VolSurface
) -> float:
    """Black-76 on the forward par swap rate, bilinear vol lookup."""
    float_pv, annuity = _legs(trade.underlying, curves)
    forward = _checked_forward(float_pv, annuity)
    sigma = surface.vol(trade.expiry, trade.tenor)
    std = sigma * math.sqrt(trade.expiry)
    black = _black(forward, trade.strike, std, trade.payer)
    return trade.underlying.notional * annuity * black


def price_trade(trade, market: Market) -> float:
    if isinstance(trade, SwaptionTrade):
        if market.surface is None:
            raise ConfigurationError("swaption pricing needs a vol surface")
        return price_swaption_black(trade, market.curves, market.surface)
    if isinstance(trade, SwapTrade):
        return price_swap(trade, market.curves)
    raise ArgumentError(f"unknown trade type {type(trade).__name__}")


@dataclass(frozen=True)
class RiskFactor:
    """One shockable market coordinate."""

    name: str
    kind: str  # "rate" or "vol"


def market_risk_factors(market: Market) -> list[RiskFactor]:
    """The market's shockable coordinates, in the order of a shock vector.

    The order is every curve's zero rates (curve ids sorted, tenors in
    order), then the vol grid row-major (expiry-major). So each curve's rates
    are one slice of the shock, and the vols are its tail.
    """
    factors: list[RiskFactor] = []
    for cid in sorted(market.curves):
        for tenor in market.curves[cid].tenors:
            factors.append(RiskFactor(f"rate:{cid}:{tenor:g}", "rate"))
    if market.surface is not None:
        s = market.surface
        for e in s.expiries:
            for t in s.tenors:
                factors.append(RiskFactor(f"vol:{e:g}x{t:g}", "vol"))
    return factors


def _log_discount_weights(curve: ZeroCurve, t: np.ndarray) -> np.ndarray:
    """W with curve.log_discount(t) == W @ curve.zero_rates, one row per time.

    Log discounts interpolate linearly between the knots (0, 0) and
    (tenor_k, -rate_k * tenor_k); past the last tenor the last segment
    extends, which is the constant-forward extrapolation.
    """
    kt = curve._knots_t
    n = curve.tenors.size
    seg = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, n - 1)
    frac = (t - kt[seg]) / (kt[seg + 1] - kt[seg])
    on_knots = np.zeros((t.size, n + 1))
    rows = np.arange(t.size)
    on_knots[rows, seg] = 1.0 - frac
    on_knots[rows, seg + 1] += frac
    return on_knots[:, 1:] * -curve.tenors


class ShockedPortfolioPricer:
    """Portfolio value as a function of an additive shock vector.

    The shock is laid out as market_risk_factors(market). Rate shocks add to
    zero rates, vol shocks add to surface vols (floored at VOL_FLOOR; floor
    events are counted, not raised). Each call values the whole book once and
    increments call_count by one.

    The constructor checks every trade against the market, naming the trade,
    and compiles the book into fixed matrices over the shock. Zero rates are
    affine in the shock and log discounts are linear in the zero rates, so
    the log discount at every payment time, and the log forward growth over
    every accrual period, is one row of an affine map of the shock. Leg sums
    are segment matmuls over those rows. Swaption vols are shocked and
    floored on the grid, then interpolated with fixed bilinear weights;
    Black-76 runs per swaption. shocked_market plus price_trade is the
    reference path the compiled valuation is tested against.
    """

    def __init__(self, portfolio, market: Market):
        self.portfolio = list(portfolio)
        self.market = market
        self.factors = market_risk_factors(market)
        self.call_count = 0
        self.floored_vol_count = 0
        surface = market.surface

        # Each curve's zero rates are one slice of the shock (and of rates0).
        cids = sorted(market.curves)
        ends = np.cumsum([0, *(market.curves[cid].tenors.size for cid in cids)]).tolist()
        self._curve_slices = {cid: slice(a, b) for cid, a, b in zip(cids, ends, ends[1:])}
        self._n_rates = n_rates = ends[-1]

        swaps: list[SwapTrade] = []
        is_swap: list[bool] = []
        self._swaptions: list[tuple[int, float, float, bool, float]] = []
        vol_weights = []
        for i, trade in enumerate(self.portfolio):
            is_swap.append(isinstance(trade, SwapTrade))
            if isinstance(trade, SwaptionTrade):
                if surface is None:
                    raise ConfigurationError(f"trade {i}: swaption pricing needs a vol surface")
                self._swaptions.append(
                    (i, math.sqrt(trade.expiry), trade.strike, trade.payer,
                     trade.underlying.notional)
                )
                i0, i1, wi = _bracket(surface.expiries, trade.expiry)
                j0, j1, wj = _bracket(surface.tenors, trade.tenor)
                grid = np.zeros(surface.vols.shape)
                grid[i0, j0] += (1 - wi) * (1 - wj)
                grid[i0, j1] += (1 - wi) * wj
                grid[i1, j0] += wi * (1 - wj)
                grid[i1, j1] += wi * wj
                vol_weights.append(grid.ravel())
                trade = trade.underlying
            elif not isinstance(trade, SwapTrade):
                raise ArgumentError(f"trade {i}: unknown trade type {type(trade).__name__}")
            for cid in (trade.discount_curve, trade.forecast_curve):
                if cid not in market.curves:
                    raise MissingCurveError(f"trade {i}: curve {cid!r} not in market")
            swaps.append(trade)

        rates0 = np.concatenate([np.empty(0), *(market.curves[cid].zero_rates for cid in cids)])

        def weights(cid: str, t: np.ndarray) -> np.ndarray:
            w = np.zeros((t.size, n_rates))
            w[:, self._curve_slices[cid]] = _log_discount_weights(market.curves[cid], t)
            return w

        times = [s.payment_times for s in swaps]
        prevs = [np.concatenate(([s.start], t[:-1])) for s, t in zip(swaps, times)]
        log_discount = [weights(s.discount_curve, t) for s, t in zip(swaps, times)]
        log_growth = [
            weights(s.forecast_curve, p) - weights(s.forecast_curve, t)
            for s, t, p in zip(swaps, times, prevs)
        ]
        rows = np.vstack([np.empty((0, n_rates)), *log_discount, *log_growth])
        self._n = rows.shape[0] // 2
        self._offset = rows @ rates0
        # Full width, with zero rows for the vol factors: shock[:n_rates] @ rows.T
        # would round some valuations differently in the last bits.
        self._slope = np.zeros((self.n_factors, rows.shape[0]))
        self._slope[:n_rates] = rows.T

        tau = np.concatenate([np.empty(0), *times]) - np.concatenate([np.empty(0), *prevs])
        counts = [t.size for t in times]
        self._segments = np.zeros((len(swaps), self._n))
        self._segments[np.repeat(np.arange(len(swaps)), counts), np.arange(self._n)] = 1.0
        self._tau_segments = self._segments * tau

        # Swaps: value = weight * (float leg - fixed rate * annuity).
        self._fixed = np.array([s.fixed_rate for s in swaps]) * is_swap
        self._swap_weight = np.array(
            [s.notional if s.payer else -s.notional for s in swaps]
        ) * is_swap
        self._vol0 = None if surface is None else surface.vols.ravel()
        self._vol_weights = np.array(vol_weights)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def factor_names(self) -> list[str]:
        return [f.name for f in self.factors]

    def _checked_shock(self, shock) -> np.ndarray:
        shock = np.asarray(shock, dtype=float)
        if shock.shape != (self.n_factors,):
            raise ArgumentError(
                f"shock of shape {shock.shape}, expected ({self.n_factors},)"
            )
        return shock

    def shocked_market(self, shock) -> tuple[Market, int]:
        """The market after applying the shock, plus the number of floored vols."""
        shock = self._checked_shock(shock)
        curves = {
            cid: ZeroCurve(c.tenors, c.zero_rates + shock[self._curve_slices[cid]])
            for cid, c in self.market.curves.items()
        }
        surface = self.market.surface
        floored = 0
        if surface is not None:
            vols = surface.vols + shock[self._n_rates :].reshape(surface.vols.shape)
            floored = int(np.count_nonzero(vols < VOL_FLOOR))
            np.maximum(vols, VOL_FLOOR, out=vols)
            surface = VolSurface(expiries=surface.expiries, tenors=surface.tenors, vols=vols)
        return Market(curves=curves, surface=surface), floored

    def __call__(self, shock) -> float:
        shock = self._checked_shock(shock)
        if not np.isfinite(shock).all():
            raise ParameterError("shock must be finite")
        n = self._n
        e = np.exp(self._offset + shock @ self._slope)
        df = e[:n]
        annuity = self._tau_segments @ df
        floating = self._segments @ ((e[n:] - 1.0) * df)
        total = float(self._swap_weight @ (floating - self._fixed * annuity))
        floored = 0
        if self._vol0 is not None:
            vols = self._vol0 + shock[self._n_rates :]
            floored = int(np.count_nonzero(vols < VOL_FLOOR))
            np.maximum(vols, VOL_FLOOR, out=vols)
            if self._swaptions:
                sigmas = (self._vol_weights @ vols).tolist()
                floating = floating.tolist()
                annuity = annuity.tolist()
                for (k, sqrt_t, strike, payer, notional), sigma in zip(self._swaptions, sigmas):
                    forward = _checked_forward(floating[k], annuity[k])
                    total += notional * annuity[k] * _black(forward, strike, sigma * sqrt_t, payer)
        self.call_count += 1
        self.floored_vol_count += floored
        return total

    def reset_counters(self) -> None:
        self.call_count = 0
        self.floored_vol_count = 0


def shocked_pricer(portfolio, market: Market) -> ShockedPortfolioPricer:
    """Shock-vector -> portfolio-value pricer over the market's full factor list."""
    return ShockedPortfolioPricer(portfolio, market)


# ---------------------------------------------------------------------------
# Market / portfolio files (JSON, schema version 1)
# ---------------------------------------------------------------------------

def save_market(market: Market, path) -> None:
    doc = {
        "version": 1,
        "curves": {
            cid: {"tenors": c.tenors.tolist(), "zero_rates": c.zero_rates.tolist()}
            for cid, c in market.curves.items()
        },
        "vol_surface": None
        if market.surface is None
        else {
            "expiries": market.surface.expiries.tolist(),
            "tenors": market.surface.tenors.tolist(),
            "vols": market.surface.vols.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def _malformed(path, where: str, exc: Exception) -> ConfigurationError:
    detail = f"missing key {exc}" if type(exc) is KeyError else str(exc)
    return ConfigurationError(f"{path}{where}: {detail}")


def load_market(path) -> Market:
    """Read a market file; malformed content raises ConfigurationError naming file and curve."""
    where = ""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        curves = {}
        for cid, c in doc["curves"].items():
            where = f", curve {cid!r}"
            curves[cid] = ZeroCurve(
                tenors=np.asarray(c["tenors"], dtype=float),
                zero_rates=np.asarray(c["zero_rates"], dtype=float),
            )
        where = ", vol_surface"
        surf = doc.get("vol_surface")
        surface = None
        if surf is not None:
            surface = VolSurface(
                expiries=np.asarray(surf["expiries"], dtype=float),
                tenors=np.asarray(surf["tenors"], dtype=float),
                vols=np.asarray(surf["vols"], dtype=float),
            )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _malformed(path, where, exc) from None
    return Market(curves=curves, surface=surface)


def _swap_to_dict(t: SwapTrade) -> dict:
    return {
        "type": "swap",
        "notional": t.notional,
        "fixed_rate": t.fixed_rate,
        "maturity": t.maturity,
        "frequency": t.frequency,
        "payer": t.payer,
        "discount_curve": t.discount_curve,
        "forecast_curve": t.forecast_curve,
        "start": t.start,
    }


def _flag(d: dict, key: str) -> bool:
    if not isinstance(d[key], bool):
        raise TypeError(f"{key!r} must be true or false, got {d[key]!r}")
    return d[key]


def _number(d: dict, key: str, default: float | None = None) -> float:
    value = float(d[key] if default is None else d.get(key, default))
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    return value


def _curve_id(d: dict, key: str, default: str) -> str:
    cid = d.get(key, default)
    if not isinstance(cid, str):
        raise TypeError(f"{key!r} must be a curve name, got {cid!r}")
    return cid


def _swap_from_dict(d: dict) -> SwapTrade:
    return SwapTrade(
        notional=_number(d, "notional"),
        fixed_rate=_number(d, "fixed_rate"),
        maturity=_number(d, "maturity"),
        frequency=_number(d, "frequency"),
        payer=_flag(d, "payer"),
        discount_curve=_curve_id(d, "discount_curve", "discount"),
        forecast_curve=_curve_id(d, "forecast_curve", "forecast"),
        start=_number(d, "start", 0.0),
    )


def save_portfolio(portfolio, path) -> None:
    trades = []
    for t in portfolio:
        if isinstance(t, SwaptionTrade):
            trades.append(
                {
                    "type": "swaption",
                    "expiry": t.expiry,
                    "strike": t.strike,
                    "payer": t.payer,
                    "underlying": _swap_to_dict(t.underlying),
                }
            )
        else:
            trades.append(_swap_to_dict(t))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "trades": trades}, fh, indent=2)


def _trade_from_dict(d: dict):
    if d["type"] == "swap":
        return _swap_from_dict(d)
    if d["type"] == "swaption":
        return SwaptionTrade(
            expiry=_number(d, "expiry"),
            strike=_number(d, "strike"),
            payer=_flag(d, "payer"),
            underlying=_swap_from_dict(d["underlying"]),
        )
    raise ConfigurationError(f"unknown trade type {d['type']!r}")


def load_portfolio(path) -> list:
    """Read a portfolio file; malformed content raises ConfigurationError naming file and trade."""
    where = ""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out = []
        for i, d in enumerate(doc["trades"]):
            where = f", trade {i}"
            out.append(_trade_from_dict(d))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _malformed(path, where, exc) from None
    if not out:
        raise ConfigurationError(f"{path}: no trades")
    return out
