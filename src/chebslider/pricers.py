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

from .documents import CurveId, from_dict, to_dict
from .errors import (
    ArgumentError,
    ConfigurationError,
    MissingCurveError,
    ModelDomainError,
    ParameterError,
    error_detail,
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
# Largest |zero rate| a market file may hold (100%). Shocked curves are not
# bounded: a scenario may move a rate past it.
MAX_ZERO_RATE = 1.0


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
    discount_curve: CurveId = "discount"
    forecast_curve: CurveId = "forecast"
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
    strike: float
    payer: bool
    underlying: SwapTrade

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


_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


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
    and compiles the book into an exponent map and a leg matrix. Zero rates
    are affine in the shock and log discounts are linear in the zero rates,
    so every discount factor, and every growth x discount factor of an
    accrual period, is the exp of one column of an affine map of the shock:
    one column per curve and time, however many trades share it. The legs
    are linear in those exps: row 0 of the leg matrix is the swaps' total,
    then come each swaption's annuity and float leg. Swaption vols are
    shocked and floored on the grid, then interpolated with fixed bilinear
    weights; Black-76 is inlined in a loop over the swaptions, and _black is
    its bit-for-bit reference. shocked_market plus price_trade is the
    reference path the compiled valuation is tested against.

    A shock's finiteness is tested on the sum of its Python floats, before
    any numpy arithmetic on it; numpy's exact test confirms a non-finite sum.
    """

    def __init__(self, portfolio, market: Market):
        self.portfolio = list(portfolio)
        self.market = market
        self.factors = market_risk_factors(market)
        self._shock_shape = (len(self.factors),)
        self.call_count = 0
        self.floored_vol_count = 0
        surface = market.surface

        # Each curve's zero rates are one slice of the shock (and of rates0).
        cids = sorted(market.curves)
        ends = np.cumsum([0, *(market.curves[cid].tenors.size for cid in cids)]).tolist()
        self._curve_slices = {cid: slice(a, b) for cid, a, b in zip(cids, ends, ends[1:])}
        self._n_rates = n_rates = ends[-1]

        # An exponent column is keyed by its log as (sign, curve, time) terms:
        # a discount factor is one term, a growth x discount factor three. A
        # single-curve period's growth x discount is the discount factor at
        # its start, so it shares that column.
        columns: dict[tuple, int] = {}
        entries: list[tuple[int, int, float]] = []  # (leg row, column, coefficient)
        # Per swaption (sqrt(expiry), strike, w, w * notional / 2), w = +1 payer, -1 receiver.
        self._swaptions: list[tuple[float, float, float, float]] = []
        vol_weights = []
        for i, trade in enumerate(self.portfolio):
            if isinstance(trade, SwaptionTrade):
                if surface is None:
                    raise ConfigurationError(f"trade {i}: swaption pricing needs a vol surface")
                w = 1.0 if trade.payer else -1.0
                self._swaptions.append(
                    (math.sqrt(trade.expiry), trade.strike, w, 0.5 * w * trade.underlying.notional)
                )
                i0, i1, wi = _bracket(surface.expiries, trade.expiry)
                j0, j1, wj = _bracket(surface.tenors, trade.tenor)
                grid = np.zeros(surface.vols.shape)
                grid[i0, j0] += (1 - wi) * (1 - wj)
                grid[i0, j1] += (1 - wi) * wj
                grid[i1, j0] += wi * (1 - wj)
                grid[i1, j1] += wi * wj
                vol_weights.append(grid.ravel())
                swap = trade.underlying
            elif isinstance(trade, SwapTrade):
                swap = trade
            else:
                raise ArgumentError(f"trade {i}: unknown trade type {type(trade).__name__}")
            d, f = swap.discount_curve, swap.forecast_curve
            for cid in (d, f):
                if cid not in market.curves:
                    raise MissingCurveError(f"trade {i}: curve {cid!r} not in market")
            times = swap.payment_times.tolist()
            for p, t in zip([swap.start, *times[:-1]], times):
                df = columns.setdefault(((1.0, d, t),), len(columns))
                gdf = columns.setdefault(
                    ((1.0, d, p),) if f == d else ((1.0, f, p), (-1.0, f, t), (1.0, d, t)),
                    len(columns),
                )
                if swap is trade:  # value = weight * (float leg - fixed rate * annuity)
                    w = swap.notional if swap.payer else -swap.notional
                    entries += [(0, df, w * (-1.0 - swap.fixed_rate * (t - p))), (0, gdf, w)]
                else:  # annuity and float leg of swaption k
                    k = 2 * len(self._swaptions) - 1
                    entries += [(k, df, t - p), (k + 1, df, -1.0), (k + 1, gdf, 1.0)]

        terms: dict[str, list[tuple[int, float, float]]] = {}
        for key, j in columns.items():
            for sign, cid, t in key:
                terms.setdefault(cid, []).append((j, sign, t))
        rows = np.zeros((len(columns), n_rates))
        for cid, cid_terms in terms.items():
            j, sign, t = (np.array(v) for v in zip(*cid_terms))
            w = _log_discount_weights(market.curves[cid], t) * sign[:, None]
            np.add.at(rows[:, self._curve_slices[cid]], j, w)
        rates0 = np.concatenate([np.empty(0), *(market.curves[cid].zero_rates for cid in cids)])
        self._offset = rows @ rates0
        # Full width, with zero rows for the vol factors, so a valuation
        # takes no slice of the shock.
        self._slope = np.zeros((self.n_factors, len(columns)))
        self._slope[:n_rates] = rows.T

        self._legs = np.zeros((1 + 2 * len(self._swaptions), len(columns)))
        if entries:
            r, c, v = zip(*entries)
            np.add.at(self._legs, (np.array(r), np.array(c)), v)
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
        if shock.shape != self._shock_shape:
            raise ArgumentError(f"shock of shape {shock.shape}, expected {self._shock_shape}")
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
        shock = np.asarray(shock, dtype=float)
        if shock.shape != self._shock_shape:
            self._checked_shock(shock)  # raises, with the one shape message
        # A float sum is non-finite whenever a term is; the exact test runs
        # only then, so a finite shock whose sum overflows is still priced.
        if not math.isfinite(sum(shock.tolist())) and not np.isfinite(shock).all():
            raise ParameterError("shock must be finite")
        legs = (self._legs @ np.exp(self._offset + shock @ self._slope)).tolist()
        total = legs[0]
        floored = 0
        if self._vol0 is not None:
            vols = self._vol0 + shock[self._n_rates :]
            floored = int(np.count_nonzero(vols < VOL_FLOOR))
            if floored:
                np.maximum(vols, VOL_FLOOR, out=vols)
            if self._swaptions:
                # Black-76 as _black computes it, with its 1/2 and the payer
                # sign moved into half_wn: both scalings are exact, so the
                # value is bit for bit the reference's. std > 0, since vols
                # are floored and expiries positive.
                erf, log, sqrt2 = math.erf, math.log, _SQRT2
                sigmas = (self._vol_weights @ vols).tolist()
                for (sqrt_t, strike, w, half_wn), sigma, annuity, floating in zip(
                    self._swaptions, sigmas, legs[1::2], legs[2::2]
                ):
                    forward = floating / annuity
                    if forward <= 0.0:
                        _checked_forward(floating, annuity)  # raises
                    std = sigma * sqrt_t
                    d1 = (log(forward / strike) + 0.5 * std * std) / std
                    total += half_wn * annuity * (
                        forward * (1.0 + erf(w * d1 / sqrt2))
                        - strike * (1.0 + erf(w * (d1 - std) / sqrt2))
                    )
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
        "curves": {cid: to_dict(c) for cid, c in market.curves.items()},
        "vol_surface": None if market.surface is None else to_dict(market.surface),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def _malformed(path, where: str, exc: Exception) -> ConfigurationError:
    return ConfigurationError(f"{path}{where}: {error_detail(exc)}")


def load_market(path) -> Market:
    """Read a market file; malformed content raises ConfigurationError naming file and curve."""
    where = ""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        curves = {}
        for cid, c in doc["curves"].items():
            where = f", curve {cid!r}"
            curves[cid] = curve = from_dict(ZeroCurve, c)
            worst = max(curve.zero_rates.tolist(), key=abs)
            if abs(worst) > MAX_ZERO_RATE:
                raise ValueError(
                    f"zero rate {worst!r} exceeds {MAX_ZERO_RATE:g} (100%) in magnitude"
                )
        where = ", vol_surface"
        surf = doc.get("vol_surface")
        surface = None if surf is None else from_dict(VolSurface, surf)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _malformed(path, where, exc) from None
    return Market(curves=curves, surface=surface)


# A trade file entry holds its class's fields, in declaration order, after
# its "type"; a nested trade is an entry of its own.
_TRADE_TYPES = {"swap": SwapTrade, "swaption": SwaptionTrade}
_TRADE_TAGS = {cls: name for name, cls in _TRADE_TYPES.items()}


def save_portfolio(portfolio, path) -> None:
    trades = [to_dict(t, _TRADE_TAGS) for t in portfolio]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "trades": trades}, fh, indent=2)


def load_portfolio(path) -> list:
    """Read a portfolio file; malformed content raises ConfigurationError naming file and trade."""
    where = ""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        out = []
        for i, d in enumerate(doc["trades"]):
            where = f", trade {i}"
            cls = _TRADE_TYPES.get(d["type"]) if isinstance(d["type"], str) else None
            if cls is None:
                raise ConfigurationError(f"unknown trade type {d['type']!r}")
            out.append(from_dict(cls, d, _TRADE_TAGS))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _malformed(path, where, exc) from None
    if not out:
        raise ConfigurationError(f"{path}: no trades")
    return out
