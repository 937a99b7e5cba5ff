"""Scenario P&L distributions, Expected Shortfall and validation statistics.

Implements the benchmark protocol: price the portfolio on every
historic shock (brute force), build an Orthogonal Chebyshev Slider from the
10-day shocks, evaluate it on each liquidity horizon, and compare the two
P&L distributions through ES relative error, call savings, correlation and a
two-sample Kolmogorov-Smirnov test; and run the FRTB P&L attribution test
over rolling windows.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .cheb1d import ClampCounter
from .errors import (
    ArgumentError,
    ConfigurationError,
    ModelDomainError,
    ParameterError,
    UnknownFactorError,
)
from .orthopca import (
    OrthogonalSlider,
    PcaBlock,
    PcaBlockSpec,
    build_orthogonal_slider,
    eval_orthogonal_slider_many,
    reconstruct_through,
)
from .slider import SliderConfig

__all__ = [
    "ScenarioSet",
    "EsReport",
    "SyntheticBlock",
    "SyntheticSpec",
    "BlockLayout",
    "BrutePnl",
    "RunResult",
    "generate_synthetic_history",
    "apply_liquidity_horizon",
    "pnl_distribution",
    "brute_pnl",
    "expected_shortfall",
    "es_tail_size",
    "correlation",
    "ks_two_sample",
    "kolmogorov_sf",
    "savings",
    "pla_test",
    "run_es_analysis",
    "write_scenarios",
    "read_scenarios",
]

# P&L attribution zones (BCBS d457, MAR32): green if both hold, red if either does, else amber
PLA_GREEN = {"spearman_above": 0.80, "ks_below": 0.09}
PLA_RED = {"spearman_below": 0.70, "ks_above": 0.12}


@dataclass(frozen=True)
class ScenarioSet:
    """Labelled shock vectors over a named risk-factor list."""

    labels: tuple[str, ...]
    shocks: np.ndarray
    factor_names: tuple[str, ...]
    horizon: str = "10d"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        s = np.asarray(self.shocks, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ArgumentError(f"shocks must be a non-empty matrix, got shape {s.shape}")
        if len(self.labels) != s.shape[0]:
            raise ArgumentError("one label per scenario required")
        if len(self.factor_names) != s.shape[1]:
            raise ArgumentError("one factor name per column required")
        if len(set(self.factor_names)) != len(self.factor_names):
            raise ArgumentError("factor names must be unique")
        if not np.isfinite(s).all():
            raise ArgumentError("shocks must be finite")
        s.flags.writeable = False
        object.__setattr__(self, "shocks", s)

    @property
    def count(self) -> int:
        return self.shocks.shape[0]

    @property
    def n_factors(self) -> int:
        return self.shocks.shape[1]


@dataclass(frozen=True)
class EsReport:
    """What one horizon's comparison gives; the run settings live with the run."""

    es_brute: float
    es_slider: float
    relative_error: float | None  # None: es_brute is 0 and es_slider is not
    savings: float
    correlation: float | None  # None: a constant series
    ks_statistic: float
    ks_p_value: float
    es_tail_size: int
    build_calls: int
    incremental_calls: int
    clamped_evaluations: int


# ---------------------------------------------------------------------------
# Synthetic shock history
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticBlock:
    """Gaussian shock block in an orthonormal cosine loading basis.

    `spectrum` gives the leading per-component variances (the rest are
    zero); `scale` multiplies the resulting shocks.
    """

    name: str
    factor_names: tuple[str, ...]
    scale: float
    spectrum: tuple[float, ...]
    horizons: tuple[str, ...] = ("10d",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        object.__setattr__(self, "horizons", tuple(self.horizons))
        object.__setattr__(self, "spectrum", tuple(float(v) for v in self.spectrum))
        if not self.factor_names:
            raise ParameterError(f"block {self.name!r} has no factors")
        if len(self.spectrum) > len(self.factor_names):
            raise ParameterError(f"block {self.name!r}: spectrum longer than block")

    @property
    def size(self) -> int:
        return len(self.factor_names)

    def variances(self) -> np.ndarray:
        lam = np.zeros(self.size)
        lam[: len(self.spectrum)] = self.spectrum
        if np.any(lam < 0):
            raise ParameterError(
                f"block {self.name!r}: implied covariance is not positive semi-definite"
            )
        return lam


@dataclass(frozen=True)
class SyntheticSpec:
    blocks: tuple[SyntheticBlock, ...]
    count: int
    block_corr: np.ndarray | None = None  # correlation of the blocks' leading scores

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.count < 1:
            raise ParameterError(f"scenario count must be >= 1, got {self.count}")
        if self.block_corr is not None:
            c = np.asarray(self.block_corr, dtype=float)
            b = len(self.blocks)
            if c.shape != (b, b):
                raise ParameterError(f"block_corr must be {b}x{b}, got {c.shape}")
            object.__setattr__(self, "block_corr", c)

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(n for b in self.blocks for n in b.factor_names)


# ---------------------------------------------------------------------------
# PCA blocks and liquidity horizons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDef:
    """One block of a blocks document."""

    name: str
    factors: tuple[str, ...]
    k: int | None  # default PCA dimension; None: it must be given
    horizons: tuple[str, ...]  # liquidity horizons at which the factors stay shocked


_BLOCK_KEYS = ("name", "factors", "prefix", "k", "horizons")


@dataclass(frozen=True)
class BlockLayout:
    """PCA blocks over an ordered risk-factor list, read from a blocks document.

    The document is {"version": 1, "blocks": [{"name", "factors" | "prefix",
    "k", "horizons"}]}; a block takes exactly one of `factors` and `prefix`,
    `k` is optional, `horizons` defaults to ["10d"], and a block with any
    other key is rejected.
    The 10-day horizon shocks every factor; any other horizon shocks the
    factors of the blocks that list it.
    """

    blocks: tuple[BlockDef, ...]
    factor_names: tuple[str, ...]

    @classmethod
    def from_doc(cls, doc, factor_names, where: str = "blocks") -> BlockLayout:
        """Check a blocks document against the risk factors; errors name `where` and the block."""
        names = tuple(factor_names)
        entries = doc.get("blocks") if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not entries:
            raise ConfigurationError(f"{where}: needs a non-empty 'blocks' list")
        blocks = []
        for i, entry in enumerate(entries):
            name = entry.get("name") if isinstance(entry, dict) else None
            if not isinstance(name, str):
                raise ConfigurationError(f"{where}: block {i} needs a 'name' string")
            at = f"{where}: block {i} ({name!r})"
            for key in entry:  # a misspelt key would silently fall back to a default
                if key not in _BLOCK_KEYS:
                    raise ConfigurationError(
                        f"{at}: unknown key {key!r} (a block takes {', '.join(_BLOCK_KEYS)})"
                    )
            if "factors" in entry and "prefix" in entry:
                raise ConfigurationError(f"{at}: takes 'factors' or 'prefix', not both")
            factors = entry.get("factors")
            if factors is None and isinstance(entry.get("prefix"), str):
                factors = [n for n in names if n.startswith(entry["prefix"])]
            if not isinstance(factors, list) or not factors:
                raise ConfigurationError(f"{at} needs a 'factors' list or a matching 'prefix'")
            unknown = [f for f in factors if f not in names]
            if unknown:
                raise ConfigurationError(f"{at}: not risk factors: {unknown}")
            k = entry.get("k")
            if k is not None and (type(k) is not int or not 1 <= k <= len(factors)):
                raise ConfigurationError(f"{at}: 'k' must be an integer in 1..{len(factors)}")
            horizons = entry.get("horizons", ["10d"])
            if not isinstance(horizons, list) or not all(isinstance(h, str) for h in horizons):
                raise ConfigurationError(f"{at}: 'horizons' must be a list of tags")
            for h in horizons:  # a tag names an output file, pnl_<tag>.csv
                if not re.fullmatch(r"[A-Za-z0-9_-]+", h):
                    raise ConfigurationError(f"{at}: horizon tag {h!r} is not [A-Za-z0-9_-]+")
            blocks.append(BlockDef(name, tuple(factors), k, tuple(horizons)))
        covered = [f for b in blocks for f in b.factors]
        if sorted(covered) != sorted(names):
            raise ConfigurationError(
                f"{where}: blocks must cover each of the {len(names)} risk factors exactly once"
            )
        return cls(tuple(blocks), names)

    @property
    def horizons(self) -> tuple[str, ...]:
        """Every defined horizon: 10d first, then in order of appearance."""
        return tuple(dict.fromkeys(("10d", *(h for b in self.blocks for h in b.horizons))))

    def pca_spec(self, pca_dims=None, scenario_count: int | None = None) -> PcaBlockSpec:
        """The blocks reduced to `pca_dims` dimensions (default: each block's k).

        Given `scenario_count`, each k is also checked against it, as the PCA
        fit will: k components need k scenarios, and at least 2.
        """
        if pca_dims is None:
            missing = [b.name for b in self.blocks if b.k is None]
            if missing:
                raise ConfigurationError(f"no PCA dims given and no 'k' in blocks {missing}")
            pca_dims = tuple(b.k for b in self.blocks)
        if len(pca_dims) != len(self.blocks):
            raise ConfigurationError(
                f"{len(self.blocks)} blocks defined, got {len(pca_dims)} PCA dims"
            )
        index = {n: i for i, n in enumerate(self.factor_names)}
        pca_blocks = []
        for b, k in zip(self.blocks, pca_dims):
            if k > len(b.factors):
                raise ParameterError(f"block {b.name!r} has {len(b.factors)} factors, got k={k}")
            if scenario_count is not None and (scenario_count < 2 or k > scenario_count):
                raise ParameterError(
                    f"block {b.name!r}: k={k} needs at least {max(k, 2)} scenarios, "
                    f"got {scenario_count}"
                )
            pca_blocks.append(PcaBlock(b.name, tuple(index[f] for f in b.factors), int(k)))
        return PcaBlockSpec(tuple(pca_blocks))

    def horizon_map(self, names=None) -> dict[str, tuple[str, ...] | None]:
        """Horizon tag -> shocked factor names (None = all factors); default every horizon."""
        out: dict[str, tuple[str, ...] | None] = {}
        for h in self.horizons if names is None else names:
            if h not in self.horizons:
                raise ConfigurationError(f"horizon {h!r} not defined (have {list(self.horizons)})")
            out[h] = None if h == "10d" else tuple(
                f for b in self.blocks if h in b.horizons for f in b.factors
            )
        return out


def _cosine_basis(p: int) -> np.ndarray:
    # Orthonormal DCT rows; the first row is constant, matching the flat
    # leading factor of highly correlated curves.
    basis = np.empty((p, p))
    i = np.arange(p)
    basis[0] = 1.0 / math.sqrt(p)
    for j in range(1, p):
        basis[j] = math.sqrt(2.0 / p) * np.cos(np.pi * j * (2 * i + 1) / (2 * p))
    return basis


def _psd_factor(corr: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(corr)
    if np.any(vals < -1e-10):
        raise ParameterError("block correlation matrix is not positive semi-definite")
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def generate_synthetic_history(spec: SyntheticSpec, seed: int) -> ScenarioSet:
    """Deterministic Gaussian shock history with block structure."""
    rng = np.random.default_rng(seed)
    s = spec.count
    latents = [rng.standard_normal((s, b.size)) for b in spec.blocks]
    if spec.block_corr is not None and len(spec.blocks) > 1:
        fac = _psd_factor(spec.block_corr)
        lead = np.column_stack([xi[:, 0] for xi in latents]) @ fac.T
        for bi, xi in enumerate(latents):
            xi[:, 0] = lead[:, bi]
    cols = []
    for b, xi in zip(spec.blocks, latents):
        lam = b.variances()
        basis = _cosine_basis(b.size)
        cols.append((xi * np.sqrt(lam)) @ basis * b.scale)
    shocks = np.hstack(cols)
    labels = tuple(f"scn{i:05d}" for i in range(s))
    return ScenarioSet(
        labels=labels, shocks=shocks, factor_names=spec.factor_names, horizon="10d"
    )


def apply_liquidity_horizon(
    scen: ScenarioSet, shocked_factors, base_shock, horizon: str
) -> ScenarioSet:
    """Freeze every factor outside `shocked_factors` at its base-shock value."""
    names = list(scen.factor_names)
    index = {n: i for i, n in enumerate(names)}
    shocked = set()
    for n in shocked_factors:
        if n not in index:
            raise UnknownFactorError(f"unknown risk factor {n!r}")
        shocked.add(index[n])
    base_shock = np.asarray(base_shock, dtype=float)
    if base_shock.shape != (scen.n_factors,):
        raise ArgumentError(
            f"base shock of shape {base_shock.shape}, expected ({scen.n_factors},)"
        )
    shocks = np.array(scen.shocks)
    frozen = [i for i in range(scen.n_factors) if i not in shocked]
    shocks[:, frozen] = base_shock[frozen]
    return ScenarioSet(
        labels=scen.labels, shocks=shocks, factor_names=scen.factor_names, horizon=horizon
    )


# ---------------------------------------------------------------------------
# P&L and statistics
# ---------------------------------------------------------------------------

def pnl_distribution(evaluator, shocks: np.ndarray, base_value: float) -> np.ndarray:
    """P&L_i = evaluator(shocks[i]) - base_value, one call per row; losses negative.

    The one per-row pricing loop. An evaluator error, or a value that is not
    finite, stops it at that row and names the scenario index.
    """
    out = np.empty(len(shocks))
    # Overflow on the way to a non-finite value is reported, with its
    # scenario, by the check below. One errstate covers the whole loop:
    # entering one costs about 2 us, a third of a ~6 us swaps valuation.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(shocks):
            try:
                value = evaluator(row)
            except Exception as exc:
                raise type(exc)(f"scenario {i}: {exc}") from exc
            if not math.isfinite(value):
                raise ModelDomainError(f"scenario {i}: portfolio value {value} is not finite")
            out[i] = value
    out -= base_value
    out.flags.writeable = False
    return out


def es_tail_size(count: int, alpha: float) -> int:
    """ceil((1 - alpha) * count), robust against floating error, at least 1."""
    if count < 1:
        raise ArgumentError(f"need at least one observation, got {count}")
    if not 0.0 < alpha < 1.0:
        raise ArgumentError(f"alpha must be in (0, 1), got {alpha}")
    q = (1.0 - alpha) * count
    return max(1, int(math.ceil(q - 1e-9)))


def expected_shortfall(pnl, alpha: float = 0.975) -> float:
    """Average loss over the worst ceil((1-alpha)*s) P&L values, sign-flipped.

    Losses are negative P&L; the result is positive when the tail is losing.
    """
    values = np.asarray(pnl, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ArgumentError("P&L distribution must be a non-empty vector")
    t = es_tail_size(values.size, alpha)
    worst = np.sort(values)[:t]
    return float(-worst.mean()) + 0.0  # + 0.0 turns an all-zero tail's -0.0 into 0.0


def correlation(a, b) -> float:
    """Pearson correlation of two P&L distributions."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ArgumentError("correlation needs two equal-length vectors of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(xc @ xc))
    sy = float(np.sqrt(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise ArgumentError("correlation undefined for zero-variance input")
    return float((xc @ yc) / (sx * sy))


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lam) = 2*sum (-1)^(j-1) exp(-2 j^2 lam^2)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value.

    D is the sup distance between the two empirical CDFs; the p-value is the
    Kolmogorov survival function at sqrt(na*nb/(na+nb)) * D.
    """
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ArgumentError("both samples must be non-empty")
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / x.size
    cdf_y = np.searchsorted(y, both, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    n_eff = x.size * y.size / (x.size + y.size)
    p = kolmogorov_sf(math.sqrt(n_eff) * d)
    return d, p


def savings(build_calls: int, brute_calls: int) -> float:
    """1 - build_calls / brute_calls, floored at zero."""
    if brute_calls <= 0:
        raise ArgumentError(f"brute_calls must be positive, got {brute_calls}")
    if build_calls < 0:
        raise ArgumentError(f"build_calls must be non-negative, got {build_calls}")
    return max(0.0, 1.0 - build_calls / brute_calls)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank."""
    s = np.sort(x)
    return (np.searchsorted(s, x, "left") + np.searchsorted(s, x, "right") + 1) / 2.0


def _varies(x: np.ndarray) -> bool:
    return bool(x.min() != x.max())


def _pla_zones(spearman: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """MAR32 zone per window; a missing (NaN) Spearman is red."""
    green = (spearman > PLA_GREEN["spearman_above"]) & (ks < PLA_GREEN["ks_below"])
    red = np.isnan(spearman) | (spearman < PLA_RED["spearman_below"]) | (ks > PLA_RED["ks_above"])
    return np.where(green, "green", np.where(red, "red", "amber"))


def pla_test(hypothetical, risk_theoretical, window: int):
    """FRTB P&L attribution test over each window of `window` consecutive days.

    Returns arrays (spearman, ks, zone) by window start. Spearman is NaN where
    either window is constant; zone is "green", "amber" or "red".
    """
    ht = np.asarray(hypothetical, dtype=float)
    rt = np.asarray(risk_theoretical, dtype=float)
    if ht.shape != rt.shape or ht.ndim != 1:
        raise ArgumentError("series must be equal-length vectors")
    if not 2 <= window <= ht.size:
        raise ArgumentError(f"window must be in 2..{ht.size}, got {window}")
    m = ht.size - window + 1
    spearman = np.full(m, np.nan)
    ks = np.empty(m)
    for i in range(m):
        hw = ht[i : i + window]
        rw = rt[i : i + window]
        ks[i] = ks_two_sample(hw, rw)[0]
        if _varies(hw) and _varies(rw):
            spearman[i] = correlation(_average_ranks(hw), _average_ranks(rw))
    return spearman, ks, _pla_zones(spearman, ks)


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrutePnl:
    """Brute-force P&L of every horizon, from one base valuation."""

    base_value: float
    shocks: dict[str, np.ndarray]  # horizon -> the shocks priced
    pnl: dict[str, np.ndarray]  # horizon -> brute-force P&L


def brute_pnl(
    pricer,
    scenarios: ScenarioSet,
    base_shock,
    horizons: dict[str, tuple[str, ...] | None] | None = None,
) -> BrutePnl:
    """Price the base shock once and every scenario once per horizon.

    `horizons` maps a horizon tag to the factor names shocked at that
    horizon (None means all; the scenarios' own horizon is implied). The
    result depends on nothing but these inputs, so one pass serves every
    slider configuration built on the same history.
    """
    base_shock = np.asarray(base_shock, dtype=float)
    horizons = dict(horizons or {})
    horizons.setdefault(scenarios.horizon, None)
    shocks = {
        h: scenarios.shocks if shocked is None
        else apply_liquidity_horizon(scenarios, shocked, base_shock, h).shocks
        for h, shocked in horizons.items()
    }
    base_value = float(pricer(base_shock))
    if not math.isfinite(base_value):
        raise ModelDomainError(f"base shock: portfolio value {base_value} is not finite")
    pnl = {h: pnl_distribution(pricer, s, base_value) for h, s in shocks.items()}
    return BrutePnl(base_value=base_value, shocks=shocks, pnl=pnl)


@dataclass
class RunResult:
    slider: OrthogonalSlider
    reports: dict[str, EsReport]
    pnl: dict[str, dict[str, np.ndarray]]  # horizon -> source -> P&L series


def _relative_error(es_brute: float, es_slider: float) -> float | None:
    if es_brute == 0.0:
        return None if es_slider != 0.0 else 0.0
    return abs(es_slider - es_brute) / abs(es_brute)


def run_es_analysis(
    pricer,
    scenarios: ScenarioSet,
    base_shock,
    block_spec: PcaBlockSpec,
    config: SliderConfig,
    brute: BrutePnl,
    alpha: float = 0.975,
    diagnostic: bool = False,
) -> RunResult:
    """Brute-vs-slider comparison on every horizon of `brute`.

    `brute` is the brute_pnl of the same pricer, scenarios and base shock;
    one brute-force pass serves any number of slider configurations. The
    slider is built once, on the scenarios' own (10-day) shocks, and reused
    on every other horizon.
    """
    base_value = brute.base_value

    calls_before_build = pricer.call_count
    oslider = build_orthogonal_slider(pricer, scenarios.shocks, block_spec, config, base_shock)
    build_calls = pricer.call_count - calls_before_build

    reports: dict[str, EsReport] = {}
    pnl: dict[str, dict[str, np.ndarray]] = {}

    for horizon, shocks_h in brute.shocks.items():
        brute_h = brute.pnl[horizon]
        count = len(shocks_h)
        horizon_build_calls = build_calls if horizon == scenarios.horizon else 0

        clamp = ClampCounter()
        calls_before_eval = pricer.call_count
        slider_pnl = eval_orthogonal_slider_many(oslider, shocks_h, clamp) - base_value
        slider_pnl.flags.writeable = False
        incremental = pricer.call_count - calls_before_eval  # slider reuse: 0

        series = {"brute": brute_h, "slider": slider_pnl}
        if diagnostic:
            series["pca_repriced"] = pnl_distribution(
                pricer, reconstruct_through(oslider, shocks_h), base_value
            )

        varies = _varies(brute_h) and _varies(slider_pnl)
        es_b = expected_shortfall(brute_h, alpha)
        es_s = expected_shortfall(slider_pnl, alpha)
        d, p = ks_two_sample(brute_h, slider_pnl)
        reports[horizon] = EsReport(
            es_brute=es_b,
            es_slider=es_s,
            relative_error=_relative_error(es_b, es_s),
            savings=savings(horizon_build_calls, count),
            correlation=correlation(brute_h, slider_pnl) if varies else None,
            ks_statistic=d,
            ks_p_value=p,
            es_tail_size=es_tail_size(count, alpha),
            build_calls=horizon_build_calls,
            incremental_calls=incremental,
            clamped_evaluations=clamp.count,
        )
        pnl[horizon] = series

    return RunResult(slider=oslider, reports=reports, pnl=pnl)


# ---------------------------------------------------------------------------
# Scenario CSV files
# ---------------------------------------------------------------------------

def write_scenarios(scen: ScenarioSet, path) -> None:
    """CSV with header "label,<factor names...>", one row per scenario."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", *scen.factor_names])
        writer.writerows(zip(scen.labels, *(map(repr, col) for col in scen.shocks.T.tolist())))


def read_scenarios(path) -> ScenarioSet:
    """Read a 10-day scenario CSV; malformed content raises ArgumentError naming file and line.

    A file without quotes whose rows are all as wide as the header and whose
    shocks are all finite is parsed in C by one `np.loadtxt` pass. Any other
    file goes to the line reader, which also accepts quoted labels and is the
    only source of error messages.
    """
    scen = _read_plain_scenarios(path)
    return scen if scen is not None else _read_scenarios_reference(path)


# A line holding one of these goes to the line reader: a quote can hide a
# comma or a line break from the fast path, and np.loadtxt strips the four
# separator controls around a number where float() rejects them.
_LINE_READER_CHARS = '"\x1c\x1d\x1e\x1f'
_BLANK_LINES = ("\n", "\r\n", "\r")  # csv.reader yields [] for these; both paths skip them


def _read_plain_scenarios(path) -> ScenarioSet | None:
    """Fast path of `read_scenarios`; None sends the file to the line reader.

    One cheap line pass collects the labels and checks that every row has
    as many cells as the header, then `np.loadtxt` parses the shocks. A cell
    is the text between two commas, as for csv.reader on a file without
    quotes, and np.loadtxt parses a number with the C routine float() uses.
    """
    limit = csv.field_size_limit()  # csv.reader rejects a longer cell
    with open(path, encoding="utf-8-sig", newline="") as fh:  # -sig: skip a byte-order mark
        try:
            first = fh.readline()
            header = first.rstrip("\r\n").split(",")
            if (
                header[0] != "label"
                or len(header) < 2
                or len(set(header)) != len(header)
                or len(first) > limit
                or '"' in first
            ):
                return None
            commas = len(header) - 1
            labels = []
            for line in fh:
                if line in _BLANK_LINES:
                    continue
                if line.count(",") != commas or len(line) > limit:
                    return None
                for c in _LINE_READER_CHARS:
                    if c in line:
                        return None
                labels.append(line[: line.index(",")])
            if not labels:
                return None
            fh.seek(0)
            fh.readline()
            # comments=None: a label may start with "#"
            shocks = np.loadtxt(
                fh, dtype=float, delimiter=",", comments=None, usecols=range(1, commas + 1), ndmin=2
            )
        except ValueError:  # undecodable bytes, a cell np.loadtxt cannot parse
            return None
    if not np.isfinite(shocks).all():  # the line reader names the line
        return None
    return ScenarioSet(labels=tuple(labels), shocks=shocks, factor_names=tuple(header[1:]))


def _read_scenarios_reference(path) -> ScenarioSet:
    """The line reader: any CSV, including quoted labels; the first fault is named with its line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:  # -sig: skip a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[0] != "label":
                raise ValueError("scenario CSV must start with a 'label' header column")
            if len(set(header)) != len(header):
                raise ValueError("the header names a column twice")
            labels = []
            rows = []
            for line in reader:
                if not line:
                    continue
                if len(line) != len(header):
                    raise ValueError(f"{len(line)} cells, the header has {len(header)}")
                row = [float(v) for v in line[1:]]
                for name, cell, value in zip(header[1:], line[1:], row):
                    if not math.isfinite(value):
                        raise ValueError(f"shock {cell!r} for {name} is not finite")
                labels.append(line[0])
                rows.append(row)
        except (ValueError, csv.Error) as exc:  # also a non-numeric cell, undecodable bytes
            raise ArgumentError(f"{path}, line {reader.line_num or 1}: {exc}") from None
    if not rows:
        raise ArgumentError(f"{path}: no scenario rows after the header")
    return ScenarioSet(
        labels=tuple(labels), shocks=np.asarray(rows, dtype=float), factor_names=tuple(header[1:])
    )
