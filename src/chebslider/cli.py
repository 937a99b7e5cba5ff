"""Command-line driver: run, sweep, backtest and demo subcommands.

Batch interface only. Exit codes: 0 success, 2 usage/configuration error,
3 numerical/model error; failures emit a machine-readable JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .demo import demo_by_name
from .errors import (
    ArgumentError,
    ChebSliderError,
    ConfigurationError,
    DomainError,
    MissingCurveError,
    ParameterError,
    UnknownFactorError,
)
from .orthopca import PcaBlock, PcaBlockSpec, save_orthogonal_slider
from .pricers import load_market, load_portfolio, save_market, save_portfolio, shocked_pricer
from .riskengine import (
    brute_pnl,
    generate_synthetic_history,
    read_scenarios,
    rolling_ratio_backtest,
    run_es_analysis,
    write_scenarios,
)
from .slider import SliderConfig, parse_slider_tuple

_USAGE_ERRORS = (
    ConfigurationError,
    ParameterError,
    ArgumentError,
    DomainError,
    UnknownFactorError,
    MissingCurveError,
    FileNotFoundError,
    json.JSONDecodeError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebslider",
        description="Orthogonal Chebyshev Slider risk harness (brute force vs slider ES).",
    )
    parser.add_argument("--version", action="version", version=f"chebslider {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source_args(p):
        p.add_argument("--synthetic", choices=["swaps", "swaptions"],
                       help="use a built-in synthetic demo setup")
        p.add_argument("--seed", type=int, default=0, help="synthetic history seed")
        p.add_argument("--scenario-count", type=int, default=None,
                       help="override the synthetic scenario count")
        p.add_argument("--portfolio", help="portfolio JSON path")
        p.add_argument("--market", help="market JSON path")
        p.add_argument("--scenarios", help="scenario CSV path")
        p.add_argument("--blocks", help="PCA block definition JSON path")
        p.add_argument("--pca-dims",
                       help="comma-separated PCA dims, one per block (e.g. '3' or '10,10'); "
                            "required for file-based run and backtest, ignored by sweep")
        p.add_argument("--points", type=int, default=5, help="Chebyshev points per slide dimension")
        p.add_argument("--alpha", type=float, default=0.975, help="ES confidence level")
        p.add_argument("--horizons", default=None,
                       help="comma-separated liquidity horizons (default: all defined)")

    run_p = sub.add_parser("run", help="one brute-vs-slider ES comparison")
    add_source_args(run_p)
    run_p.add_argument("--slider-tuple", default="1x*",
                       help="slide dimensions, e.g. '1,1,1', '1x20', '3,1x17' or '3,1x*'")
    run_p.add_argument("--diagnostic", action="store_true",
                       help="also compute the PCA-repriced series (full brute-force cost)")
    run_p.add_argument("--per-trade", action="store_true",
                       help="build one slider per trade instead of one for the portfolio")
    run_p.add_argument("--save-slider", default=None,
                       help="write the built orthogonal slider to this JSON path")
    run_p.add_argument("--out", required=True, help="output directory")

    sweep_p = sub.add_parser("sweep", help="grid of PCA dims x slider tuples")
    add_source_args(sweep_p)
    sweep_p.add_argument("--dims", required=True,
                         help="comma-separated total PCA dims, e.g. '3,5,10,20'")
    sweep_p.add_argument("--tuples", default="1x*;2,1x*;3,1x*",
                         help="semicolon-separated slider tuple patterns")
    sweep_p.add_argument("--out", required=True, help="output CSV path")

    back_p = sub.add_parser("backtest", help="rolling mean/variance ratio series")
    add_source_args(back_p)
    back_p.add_argument("--slider-tuple", default="1x*")
    back_p.add_argument("--window", type=int, default=250, help="rolling window length")
    back_p.add_argument("--out", required=True, help="output CSV path")

    demo_p = sub.add_parser("demo", help="write demo fixture files")
    demo_p.add_argument("--which", choices=["swaps", "swaptions"], required=True)
    demo_p.add_argument("--seed", type=int, default=0)
    demo_p.add_argument("--scenario-count", type=int, default=None)
    demo_p.add_argument("--out", required=True, help="output directory")
    return parser


class _Inputs:
    """Resolved run inputs, independent of synthetic vs file source."""

    def __init__(self, pricer, scenarios, base_shock, block_defs, source_doc,
                 default_pca_dims=None):
        self.pricer = pricer
        self.scenarios = scenarios
        self.base_shock = base_shock
        self.block_defs = block_defs  # list of (name, factor names, horizons)
        self.source_doc = source_doc
        self.default_pca_dims = default_pca_dims  # None: --pca-dims is required

    def block_spec(self, pca_dims) -> PcaBlockSpec:
        if len(pca_dims) != len(self.block_defs):
            raise ConfigurationError(
                f"{len(self.block_defs)} blocks defined, got {len(pca_dims)} PCA dims"
            )
        index = {n: i for i, n in enumerate(self.scenarios.factor_names)}
        blocks = []
        for (name, factors, _), k in zip(self.block_defs, pca_dims):
            blocks.append(
                PcaBlock(name=name, coord_indices=tuple(index[f] for f in factors), k=int(k))
            )
        return PcaBlockSpec(tuple(blocks))

    def horizon_map(self, names) -> dict[str, tuple[str, ...] | None]:
        available = {"10d"}
        for _, _, horizons in self.block_defs:
            available.update(horizons)
        out: dict[str, tuple[str, ...] | None] = {}
        for h in names:
            if h not in available:
                raise ConfigurationError(f"horizon {h!r} not defined (have {sorted(available)})")
            if h == "10d":
                out[h] = None
            else:
                out[h] = tuple(
                    f for name, factors, horizons in self.block_defs if h in horizons
                    for f in factors
                )
        return out

    def default_horizons(self) -> list[str]:
        seen = ["10d"]
        for _, _, horizons in self.block_defs:
            for h in horizons:
                if h not in seen:
                    seen.append(h)
        return seen


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad PCA dims {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise ConfigurationError(f"PCA dims must be positive integers, got {text!r}")
    return dims


def _load_inputs(args) -> _Inputs:
    if args.synthetic:
        setup = demo_by_name(args.synthetic, args.scenario_count)
        scen = generate_synthetic_history(setup.synthetic, args.seed)
        pricer = shocked_pricer(list(setup.portfolio), setup.market)
        if tuple(pricer.factor_names) != scen.factor_names:
            raise ConfigurationError("demo factor lists out of sync")
        block_defs = [(b.name, b.factor_names, b.horizons) for b in setup.synthetic.blocks]
        source = {
            "kind": "synthetic",
            "demo": args.synthetic,
            "seed": args.seed,
        }
        return _Inputs(
            pricer, scen, setup.base_shock(), block_defs, source, setup.default_pca_dims
        )

    missing = [n for n in ("portfolio", "market", "scenarios") if not getattr(args, n)]
    if missing:
        raise ConfigurationError(
            f"file-based runs need --portfolio/--market/--scenarios (missing: {missing}); "
            f"or use --synthetic"
        )
    market = load_market(args.market)
    portfolio = load_portfolio(args.portfolio)
    scen = read_scenarios(args.scenarios)
    pricer = shocked_pricer(portfolio, market)
    pricer_names = tuple(pricer.factor_names)
    if set(pricer_names) != set(scen.factor_names):
        raise ConfigurationError(
            "scenario factor names do not match the market's risk factors"
        )
    if pricer_names != scen.factor_names:
        # Reorder scenario columns into the pricer's factor order.
        order = [scen.factor_names.index(n) for n in pricer_names]
        scen = type(scen)(
            labels=scen.labels,
            shocks=scen.shocks[:, order],
            factor_names=pricer_names,
            horizon=scen.horizon,
        )
    if args.blocks:
        with open(args.blocks, encoding="utf-8") as fh:
            doc = json.load(fh)
        block_defs = []
        for b in doc["blocks"]:
            if "factors" in b:
                factors = tuple(b["factors"])
            elif "prefix" in b:
                factors = tuple(n for n in pricer_names if n.startswith(b["prefix"]))
            else:
                raise ConfigurationError(f"block {b.get('name')!r} needs 'factors' or 'prefix'")
            block_defs.append((b["name"], factors, tuple(b.get("horizons", ["10d"]))))
    else:
        block_defs = [("all", pricer_names, ("10d",))]
    source = {
        "kind": "files",
        "portfolio": str(args.portfolio),
        "market": str(args.market),
        "scenarios": str(args.scenarios),
    }
    if args.blocks:
        source["blocks"] = str(args.blocks)
    return _Inputs(pricer, scen, np.zeros(len(pricer_names)), block_defs, source)


def _pca_dims(args, inputs: _Inputs) -> tuple[int, ...]:
    if args.pca_dims:
        return _parse_dims(args.pca_dims)
    if inputs.default_pca_dims is None:
        raise ConfigurationError("--pca-dims is required for file-based runs")
    return inputs.default_pca_dims


def _horizon_names(args, inputs: _Inputs) -> list[str]:
    if args.horizons:
        return [h.strip() for h in args.horizons.split(",") if h.strip()]
    return inputs.default_horizons()


def _report_doc(inputs, result, dims, slide_dims, args) -> dict:
    return {
        "tool": "chebslider",
        "tool_version": __version__,
        "source": inputs.source_doc,
        "alpha": args.alpha,
        "points_per_dim": args.points,
        "pca_dims": list(dims),
        "slider_tuple": list(slide_dims),
        "scenario_count": inputs.scenarios.count,
        "base_value": result.base_value,
        "build_calls": result.build_calls,
        "horizons": {h: r.to_dict() for h, r in result.reports.items()},
    }


def cmd_run(args) -> int:
    inputs = _load_inputs(args)
    dims = _pca_dims(args, inputs)
    if args.per_trade and args.save_slider:
        raise ConfigurationError("--save-slider is not supported with --per-trade")
    slide_dims = parse_slider_tuple(args.slider_tuple, sum(dims))
    config = SliderConfig(slide_dims=slide_dims, points_per_dim=args.points)
    result = run_es_analysis(
        inputs.pricer,
        inputs.scenarios,
        inputs.base_shock,
        inputs.block_spec(dims),
        config,
        alpha=args.alpha,
        horizons=inputs.horizon_map(_horizon_names(args, inputs)),
        diagnostic=args.diagnostic,
        per_trade=args.per_trade,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(_report_doc(inputs, result, dims, slide_dims, args), fh, indent=2)
        fh.write("\n")
    for horizon, series in result.pnl.items():
        with open(out / f"pnl_{horizon}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            sources = ["brute"] + (["pca_repriced"] if "pca_repriced" in series else []) + ["slider"]
            writer.writerow(["label", *sources])
            columns = [series[s].values for s in sources]
            for i, label in enumerate(result.labels[horizon]):
                writer.writerow([label, *(repr(float(col[i])) for col in columns)])
    if args.save_slider:
        save_orthogonal_slider(result.slider, args.save_slider)
    for horizon, r in result.reports.items():
        print(
            f"{horizon}: es_brute={r.es_brute:.2f} es_slider={r.es_slider:.2f} "
            f"rel_err={r.relative_error:.4f} savings={r.savings:.4f} "
            f"corr={r.correlation:.4f} ks_p={r.ks_p_value:.4f}"
        )
    return 0


_SWEEP_COLUMNS = [
    "pca_total_dim", "pca_dims", "slider_tuple", "horizon",
    "es_brute", "es_slider", "relative_error", "savings",
    "correlation", "ks_statistic", "ks_p_value", "build_calls", "error",
]


def cmd_sweep(args) -> int:
    inputs = _load_inputs(args)
    totals = _parse_dims(args.dims)
    patterns = [p.strip() for p in args.tuples.split(";") if p.strip()]
    if not patterns:
        raise ConfigurationError("no slider tuple patterns given")
    n_blocks = len(inputs.block_defs)
    # Every cell prices the same scenarios, so brute force runs once; if it
    # fails, each cell that gets that far records the failure.
    brute, brute_error = None, ""
    try:
        brute = brute_pnl(
            inputs.pricer,
            inputs.scenarios,
            inputs.base_shock,
            inputs.horizon_map(_horizon_names(args, inputs)),
        )
    except ChebSliderError as exc:
        brute_error = f"{type(exc).__name__}: {exc}"
    rows = []
    for total in totals:
        for pattern in patterns:
            cell = {"pca_total_dim": total, "slider_tuple": pattern}
            try:
                if total % n_blocks != 0:
                    raise ParameterError(
                        f"total dim {total} not divisible across {n_blocks} blocks"
                    )
                dims = (total // n_blocks,) * n_blocks
                slide_dims = parse_slider_tuple(pattern, total)
                config = SliderConfig(slide_dims=slide_dims, points_per_dim=args.points)
                block_spec = inputs.block_spec(dims)
                if brute is None:
                    rows.append({**cell, "error": brute_error})
                    continue
                inputs.pricer.reset_counters()
                result = run_es_analysis(
                    inputs.pricer,
                    inputs.scenarios,
                    inputs.base_shock,
                    block_spec,
                    config,
                    alpha=args.alpha,
                    brute=brute,
                )
            except ChebSliderError as exc:
                rows.append({**cell, "error": f"{type(exc).__name__}: {exc}"})
                continue
            for horizon, r in result.reports.items():
                rows.append(
                    {
                        **cell,
                        "pca_dims": ",".join(str(d) for d in dims),
                        "slider_tuple": ",".join(str(d) for d in slide_dims),
                        "horizon": horizon,
                        "es_brute": repr(r.es_brute),
                        "es_slider": repr(r.es_slider),
                        "relative_error": repr(r.relative_error),
                        "savings": repr(r.savings),
                        "correlation": repr(r.correlation),
                        "ks_statistic": repr(r.ks_statistic),
                        "ks_p_value": repr(r.ks_p_value),
                        "build_calls": r.build_calls,
                        "error": "",
                    }
                )
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in _SWEEP_COLUMNS})
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_backtest(args) -> int:
    inputs = _load_inputs(args)
    dims = _pca_dims(args, inputs)
    if args.window < 1:
        raise ConfigurationError(f"window must be >= 1, got {args.window}")
    slide_dims = parse_slider_tuple(args.slider_tuple, sum(dims))
    config = SliderConfig(slide_dims=slide_dims, points_per_dim=args.points)
    result = run_es_analysis(
        inputs.pricer,
        inputs.scenarios,
        inputs.base_shock,
        inputs.block_spec(dims),
        config,
        alpha=args.alpha,
        horizons={"10d": None},
    )
    series = result.pnl["10d"]
    ratios = rolling_ratio_backtest(series["brute"], series["slider"], args.window)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    labels = result.labels["10d"]
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_start", "label", "mean_ratio", "mean_defined",
             "variance_ratio", "variance_defined"]
        )
        for i in range(len(ratios)):
            writer.writerow(
                [
                    i,
                    labels[i],
                    repr(float(ratios.mean_ratio[i])),
                    int(ratios.mean_defined[i]),
                    repr(float(ratios.variance_ratio[i])),
                    int(ratios.variance_defined[i]),
                ]
            )
    meta = {
        "window": ratios.window,
        "formula": ratios.formula,
        "series_length": len(ratios),
        "hypothetical": "brute",
        "risk_theoretical": "slider",
    }
    with open(out.with_suffix(out.suffix + ".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(ratios)} windows to {out}")
    return 0


def cmd_demo(args) -> int:
    setup = demo_by_name(args.which, args.scenario_count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_market(setup.market, out / "market.json")
    save_portfolio(list(setup.portfolio), out / "portfolio.json")
    scen = generate_synthetic_history(setup.synthetic, args.seed)
    write_scenarios(scen, out / "scenarios.csv")
    blocks_doc = {
        "version": 1,
        "blocks": [
            {
                "name": b.name,
                "factors": list(b.factor_names),
                "k": k,
                "horizons": list(b.horizons),
            }
            for b, k in zip(setup.synthetic.blocks, setup.default_pca_dims)
        ],
    }
    with open(out / "blocks.json", "w", encoding="utf-8") as fh:
        json.dump(blocks_doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote demo fixtures to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "backtest": cmd_backtest,
        "demo": cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except _USAGE_ERRORS as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except ChebSliderError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
