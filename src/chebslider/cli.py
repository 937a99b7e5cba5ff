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
from dataclasses import asdict, dataclass
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
from .orthopca import PcaBlockSpec, save_orthogonal_slider
from .pricers import load_market, load_portfolio, save_market, save_portfolio, shocked_pricer
from .riskengine import (
    BlockLayout,
    ScenarioSet,
    brute_pnl,
    es_tail_size,
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
    OSError,
    json.JSONDecodeError,
)


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, so that main reports them as JSON like any other."""

    def error(self, message):
        raise ArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                            "default: each block's 'k' in the blocks JSON (the demos give "
                            "it); ignored by sweep")
        p.add_argument("--points", type=int, default=5, help="Chebyshev points per slide dimension")
        p.add_argument("--alpha", type=float, default=0.975, help="ES confidence level")

    def add_horizons_arg(p):
        p.add_argument("--horizons", default=None,
                       help="comma-separated liquidity horizons (default: all defined)")

    run_p = sub.add_parser("run", help="one brute-vs-slider ES comparison")
    add_source_args(run_p)
    add_horizons_arg(run_p)
    run_p.add_argument("--slider-tuple", default="1x*",
                       help="slide dimensions, e.g. '1,1,1', '1x20', '3,1x17' or '3,1x*'")
    run_p.add_argument("--diagnostic", action="store_true",
                       help="also compute the PCA-repriced series (full brute-force cost)")
    run_p.add_argument("--save-slider", default=None,
                       help="write the built orthogonal slider to this JSON path")
    run_p.add_argument("--out", required=True, help="output directory")

    sweep_p = sub.add_parser("sweep", help="grid of PCA dims x slider tuples")
    add_source_args(sweep_p)
    add_horizons_arg(sweep_p)
    sweep_p.add_argument("--dims", required=True,
                         help="comma-separated total PCA dims, e.g. '3,5,10,20'")
    sweep_p.add_argument("--tuples", default="1x*;2,1x*;3,1x*",
                         help="semicolon-separated slider tuple patterns")
    sweep_p.add_argument("--out", required=True, help="output CSV path")

    back_p = sub.add_parser("backtest", help="rolling mean/variance ratio series (10d only)")
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


@dataclass(frozen=True)
class _Inputs:
    """Loaded run inputs, the same whether they come from a demo or from files."""

    pricer: object
    scenarios: ScenarioSet
    base_shock: np.ndarray
    layout: BlockLayout
    source_doc: dict


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad PCA dims {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise ConfigurationError(f"PCA dims must be positive integers, got {text!r}")
    return dims


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise ConfigurationError(f"{path}: {exc}") from None


def _load_inputs(args) -> _Inputs:
    """Load a demo or the input files, and check the options every command shares.

    Nothing here calls the pricer, so a bad input or option fails before
    any brute-force work.
    """
    if args.synthetic:
        setup = demo_by_name(args.synthetic, args.scenario_count)
        portfolio, market = list(setup.portfolio), setup.market
        scen = generate_synthetic_history(setup.synthetic, args.seed)
        blocks_doc, where = setup.blocks_doc(), f"{setup.name} demo"
        source = {"kind": "synthetic", "demo": args.synthetic, "seed": args.seed}
    else:
        files = {n: getattr(args, n) for n in ("portfolio", "market", "scenarios")}
        missing = [n for n, path in files.items() if not path]
        if missing:
            raise ConfigurationError(
                f"file-based runs need --portfolio/--market/--scenarios (missing: {missing}); "
                f"or use --synthetic"
            )
        market = load_market(args.market)
        portfolio = load_portfolio(args.portfolio)
        scen = read_scenarios(args.scenarios)
        source = {"kind": "files", **{n: str(path) for n, path in files.items()}}
        blocks_doc, where = None, "default blocks"
        if args.blocks:
            blocks_doc, where = _read_json(args.blocks), args.blocks
            source["blocks"] = str(args.blocks)
    pricer = shocked_pricer(portfolio, market)
    names = tuple(pricer.factor_names)
    if set(names) != set(scen.factor_names):
        raise ConfigurationError("scenario factor names do not match the market's risk factors")
    if names != scen.factor_names:
        # Reorder scenario columns into the pricer's factor order.
        order = [scen.factor_names.index(n) for n in names]
        scen = ScenarioSet(
            labels=scen.labels,
            shocks=scen.shocks[:, order],
            factor_names=names,
            horizon=scen.horizon,
        )
    if blocks_doc is None:  # one block of every factor, no default k
        blocks_doc = {"blocks": [{"name": "all", "factors": list(names)}]}
    layout = BlockLayout.from_doc(blocks_doc, names, where)
    es_tail_size(scen.count, args.alpha)  # checks alpha
    return _Inputs(pricer, scen, np.zeros(len(names)), layout, source)


def _output_path(path, directory: bool = False) -> Path:
    """Create the directory an output goes to, so an unusable path fails before pricing."""
    path = Path(path)
    (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    if not directory and path.is_dir():
        raise ConfigurationError(f"output path {path} is a directory")
    return path


def _pca_spec(args, inputs: _Inputs) -> PcaBlockSpec:
    dims = _parse_dims(args.pca_dims) if args.pca_dims else None
    return inputs.layout.pca_spec(dims, inputs.scenarios.count)


def _slider_config(args, pattern: str, spec: PcaBlockSpec) -> SliderConfig:
    return SliderConfig(parse_slider_tuple(pattern, spec.reduced_dim), points_per_dim=args.points)


def _horizon_map(args, inputs: _Inputs) -> dict[str, tuple[str, ...] | None]:
    if not args.horizons:
        return inputs.layout.horizon_map()
    return inputs.layout.horizon_map([h.strip() for h in args.horizons.split(",") if h.strip()])


def _report_doc(inputs, result, spec, config, args) -> dict:
    return {
        "tool": "chebslider",
        "tool_version": __version__,
        "source": inputs.source_doc,
        "alpha": args.alpha,
        "points_per_dim": args.points,
        "pca_dims": [b.k for b in spec.blocks],
        "slider_tuple": list(config.slide_dims),
        "scenario_count": inputs.scenarios.count,
        "base_value": result.base_value,
        "build_calls": result.build_calls,
        "horizons": {h: asdict(r) for h, r in result.reports.items()},
    }


def cmd_run(args) -> int:
    inputs = _load_inputs(args)
    spec = _pca_spec(args, inputs)
    config = _slider_config(args, args.slider_tuple, spec)
    out = _output_path(args.out, directory=True)
    if args.save_slider:
        _output_path(args.save_slider)
    brute = brute_pnl(
        inputs.pricer, inputs.scenarios, inputs.base_shock, _horizon_map(args, inputs)
    )
    result = run_es_analysis(
        inputs.pricer,
        inputs.scenarios,
        inputs.base_shock,
        spec,
        config,
        brute,
        alpha=args.alpha,
        diagnostic=args.diagnostic,
    )
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(_report_doc(inputs, result, spec, config, args), fh, indent=2)
        fh.write("\n")
    for horizon, series in result.pnl.items():
        with open(out / f"pnl_{horizon}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            sources = ["brute"] + (["pca_repriced"] if "pca_repriced" in series else []) + ["slider"]
            writer.writerow(["label", *sources])
            columns = [series[s] for s in sources]
            for i, label in enumerate(inputs.scenarios.labels):
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
    horizons = _horizon_map(args, inputs)
    n_blocks = len(inputs.layout.blocks)
    # Resolve every cell before any pricer call; a cell that fails records
    # its error instead of stopping the sweep.
    cells = []
    for total in totals:
        for pattern in patterns:
            cell = {"pca_total_dim": total, "slider_tuple": pattern}
            try:
                if total % n_blocks != 0:
                    raise ParameterError(
                        f"total dim {total} not divisible across {n_blocks} blocks"
                    )
                spec = inputs.layout.pca_spec(
                    (total // n_blocks,) * n_blocks, inputs.scenarios.count
                )
                cells.append((cell, spec, _slider_config(args, pattern, spec)))
            except ChebSliderError as exc:
                cells.append(({**cell, "error": f"{type(exc).__name__}: {exc}"}, None, None))
    out = _output_path(args.out)
    # Every cell prices the same scenarios, so brute force runs once; if it
    # fails, each cell records the failure.
    brute, brute_error = None, ""
    if any(spec is not None for _, spec, _ in cells):
        try:
            brute = brute_pnl(inputs.pricer, inputs.scenarios, inputs.base_shock, horizons)
        except ChebSliderError as exc:
            brute_error = f"{type(exc).__name__}: {exc}"
    rows = []
    for cell, spec, config in cells:
        if spec is None:  # the cell's own error
            rows.append(cell)
            continue
        if brute is None:
            rows.append({**cell, "error": brute_error})
            continue
        try:
            inputs.pricer.reset_counters()
            result = run_es_analysis(
                inputs.pricer,
                inputs.scenarios,
                inputs.base_shock,
                spec,
                config,
                brute,
                alpha=args.alpha,
            )
        except ChebSliderError as exc:
            rows.append({**cell, "error": f"{type(exc).__name__}: {exc}"})
            continue
        for horizon, r in result.reports.items():
            rows.append(
                {
                    **cell,
                    "pca_dims": ",".join(str(b.k) for b in spec.blocks),
                    "slider_tuple": ",".join(str(d) for d in config.slide_dims),
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
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in _SWEEP_COLUMNS})
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_backtest(args) -> int:
    inputs = _load_inputs(args)
    if not 1 <= args.window <= inputs.scenarios.count:
        raise ConfigurationError(f"window must be in 1..{inputs.scenarios.count}, got {args.window}")
    spec = _pca_spec(args, inputs)
    config = _slider_config(args, args.slider_tuple, spec)
    out = _output_path(args.out)
    meta_path = _output_path(out.with_suffix(out.suffix + ".meta.json"))
    brute = brute_pnl(inputs.pricer, inputs.scenarios, inputs.base_shock)
    result = run_es_analysis(
        inputs.pricer, inputs.scenarios, inputs.base_shock, spec, config, brute, alpha=args.alpha
    )
    series = result.pnl[inputs.scenarios.horizon]
    ratios = rolling_ratio_backtest(series["brute"], series["slider"], args.window)
    labels = inputs.scenarios.labels
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
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(ratios)} windows to {out}")
    return 0


def cmd_demo(args) -> int:
    setup = demo_by_name(args.which, args.scenario_count)
    out = _output_path(args.out, directory=True)
    save_market(setup.market, out / "market.json")
    save_portfolio(list(setup.portfolio), out / "portfolio.json")
    scen = generate_synthetic_history(setup.synthetic, args.seed)
    write_scenarios(scen, out / "scenarios.csv")
    with open(out / "blocks.json", "w", encoding="utf-8") as fh:
        json.dump(setup.blocks_doc(), fh, indent=2)
        fh.write("\n")
    print(f"wrote demo fixtures to {out}")
    return 0


def main(argv=None) -> int:
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "backtest": cmd_backtest,
        "demo": cmd_demo,
    }
    try:
        args = build_parser().parse_args(argv)
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
