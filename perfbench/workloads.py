"""Workload definitions, seeded input files and the benchmark's direct path.

Every workload is file-based at desk scale with 5 Chebyshev points per
slide dimension and alpha 0.975. The program under test only ever sees the
files written by ``write_fixtures``; the seed never reaches it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chebslider import (
    PcaBlock,
    PcaBlockSpec,
    SliderConfig,
    apply_liquidity_horizon,
    build_orthogonal_slider,
    eval_orthogonal_slider_many,
    generate_synthetic_history,
    parse_slider_tuple,
)
from chebslider.demo import demo_by_name
from chebslider.pricers import load_market, load_portfolio, save_market, save_portfolio, shocked_pricer
from chebslider.riskengine import read_scenarios, write_scenarios

POINTS = 5
ALPHA = 0.975
FRESH = "10d"  # the horizon on which every risk factor is shocked
REFERENCE = Path(__file__).resolve().parent / "reference.json"
RECORDED_SEEDS = 512  # reference.json holds the brute-force ES of input seeds 0-511


@dataclass(frozen=True)
class Workload:
    name: str
    book: str  # demo book: "swaps" or "swaptions"
    command: str  # CLI subcommand: "run" or "sweep"
    configs: tuple[tuple[tuple[int, ...], str], ...]  # (PCA dims, slider tuple) per slider
    horizons: tuple[str, ...]
    args: tuple[str, ...]  # workload-specific CLI arguments
    why: str

    def argv(self, files: dict[str, Path], out: Path) -> list[str]:
        target = out / "sweep.csv" if self.command == "sweep" else out
        return [
            self.command,
            "--portfolio", str(files["portfolio"]),
            "--market", str(files["market"]),
            "--scenarios", str(files["scenarios"]),
            "--blocks", str(files["blocks"]),
            "--points", str(POINTS),
            "--alpha", str(ALPHA),
            *self.args,
            "--out", str(target),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="swaps-1x3",
            book="swaps",
            command="run",
            configs=(((3,), "1x3"),),
            horizons=("10d",),
            args=("--pca-dims", "3", "--slider-tuple", "1x3"),
            # Brute force is ~95% of the operation; the slider is all 1-D
            # (16 build calls, sub-millisecond evaluation). Exercises the
            # pricer and the brute-force loop; bypasses multi-D tensors,
            # horizon reuse and a second PCA block.
            why="brute-force repricing dominates; all-1-D slider, one PCA block, 10d only",
        ),
        Workload(
            name="swaptions-3slide",
            book="swaptions",
            command="run",
            configs=(((10, 10), "3,1x17"),),
            horizons=("10d", "60d"),
            args=("--pca-dims", "10,10", "--slider-tuple", "3,1x17", "--horizons", "10d,60d"),
            # The 5x5x5 slide goes through the per-row loop of
            # eval_tensor_many (about a quarter of the operation); the 60d
            # horizon reuses the 10d slider at zero calls. Also covers vol
            # flooring, clamping and two PCA blocks (rates and vols).
            why="3-D slide evaluation and 60d horizon reuse; Black-76 book with two PCA blocks",
        ),
        Workload(
            name="swaps-sweep",
            book="swaps",
            command="sweep",
            configs=tuple(
                ((total,), pattern)
                for total in (3, 10)
                for pattern in ("1x*", "2,1x*", "3,1x*")
            ),
            horizons=("10d",),
            # sweep ignores --pca-dims, but file-based runs reject a missing
            # one (--pca-dims is required for file-based runs), so a dummy
            # value is passed; see README.md.
            args=("--dims", "3,10", "--tuples", "1x*;2,1x*;3,1x*", "--pca-dims", "3"),
            # Six cells share one scenario history, yet each reprices brute
            # force (about 88% of the operation): the workload where shared
            # brute force would show. Builds 1-D, 2-D and 3-D slides.
            why="six sweep cells reprice the same history; 1-D, 2-D and 3-D slides, CSV output",
        ),
    )
}


def write_fixtures(book: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write market, portfolio, scenarios and blocks files for one book and seed."""
    directory.mkdir(parents=True, exist_ok=True)
    setup = demo_by_name(book)
    files = {
        "market": directory / "market.json",
        "portfolio": directory / "portfolio.json",
        "scenarios": directory / "scenarios.csv",
        "blocks": directory / "blocks.json",
    }
    save_market(setup.market, files["market"])
    save_portfolio(list(setup.portfolio), files["portfolio"])
    write_scenarios(generate_synthetic_history(setup.synthetic, seed), files["scenarios"])
    # Same layout as `chebslider demo` writes.
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
    with open(files["blocks"], "w", encoding="utf-8") as fh:
        json.dump(blocks_doc, fh, indent=2)
        fh.write("\n")
    return files


@dataclass
class Inputs:
    scenarios: object
    pricer: object


def load_inputs(files: dict[str, Path]) -> Inputs:
    """The work `setup_s` times: load the input files and construct the pricer."""
    market = load_market(files["market"])
    portfolio = load_portfolio(files["portfolio"])
    scenarios = read_scenarios(files["scenarios"])
    return Inputs(scenarios=scenarios, pricer=shocked_pricer(portfolio, market))


def expected_build_calls(slide_dims) -> int:
    """1 + sum of slide mesh sizes, from the configuration alone."""
    return 1 + sum(POINTS**d for d in slide_dims)


@dataclass(frozen=True)
class Plan:
    """The workload's slider configurations and horizon shocks, resolved on its files."""

    specs: tuple[tuple[PcaBlockSpec, SliderConfig], ...]
    horizon_shocks: dict[str, np.ndarray]
    base_shock: np.ndarray

    @property
    def revaluations(self) -> int:
        """Scenario revaluations in one `eval_fresh` pass."""
        return len(self.specs) * self.horizon_shocks[FRESH].shape[0]


def read_blocks(files: dict[str, Path]) -> list[dict]:
    with open(files["blocks"], encoding="utf-8") as fh:
        return json.load(fh)["blocks"]


def horizon_shocks(blocks: list[dict], scenarios, base: np.ndarray, horizons) -> dict[str, np.ndarray]:
    """The scenario shocks of each horizon, as the CLI derives them from the blocks file."""
    shocks = {}
    for h in horizons:
        if h == scenarios.horizon:
            shocks[h] = scenarios.shocks
        else:
            shocked = [f for b in blocks if h in b["horizons"] for f in b["factors"]]
            shocks[h] = apply_liquidity_horizon(scenarios, shocked, base, h).shocks
    return shocks


def make_plan(w: Workload, files: dict[str, Path], scenarios) -> Plan:
    blocks = read_blocks(files)
    index = {n: i for i, n in enumerate(scenarios.factor_names)}
    specs = []
    for dims, pattern in w.configs:
        spec = PcaBlockSpec(
            tuple(
                PcaBlock(b["name"], tuple(index[f] for f in b["factors"]), k)
                for b, k in zip(blocks, dims)
            )
        )
        config = SliderConfig(parse_slider_tuple(pattern, sum(dims)), points_per_dim=POINTS)
        specs.append((spec, config))
    base = np.zeros(scenarios.n_factors)
    shocks = horizon_shocks(blocks, scenarios, base, w.horizons)
    return Plan(specs=tuple(specs), horizon_shocks=shocks, base_shock=base)


def build_all(plan: Plan, pricer, scenarios) -> list:
    """build_orthogonal_slider for each of the workload's configurations."""
    return [
        build_orthogonal_slider(pricer, scenarios.shocks, spec, config, plan.base_shock)
        for spec, config in plan.specs
    ]


def eval_fresh(plan: Plan, sliders) -> list[np.ndarray]:
    """eval_orthogonal_slider_many of every slider over the 10d shocks.

    Only the 10d shocks move every factor. On the 60d shocks the frozen rates
    coordinates sometimes project bitwise onto a Chebyshev node, which takes
    the exact-hit shortcut in barycentric evaluation: depending on the seed,
    the 60d pass of `swaptions-3slide` takes 0.14, 0.18 or 0.33 s where the
    10d pass takes 0.33 s.
    """
    return [eval_orthogonal_slider_many(s, plan.horizon_shocks[FRESH]) for s in sliders]


def input_seed(seed: int) -> int:
    """The input seed a benchmark seed stands for: any integer maps onto a recorded one."""
    return seed % RECORDED_SEEDS


def recorded_brute_es(book: str, seed: int) -> dict[str, float]:
    """Brute-force ES per horizon recorded in reference.json for an input seed."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["books"][book][str(seed)]


@dataclass
class Reference:
    """What a correct operation outputs on these inputs."""

    brute_es: dict[str, float]  # horizon -> brute-force ES, as recorded in reference.json
    slider_pnl: list[dict[str, np.ndarray]]  # per configuration, horizon -> slider P&L
    slider_values: list[dict[str, np.ndarray]]  # the same before subtracting the base value
    build_calls: list[int]  # per configuration


def compute_reference(plan: Plan, inputs: Inputs, brute_es: dict[str, float]) -> Reference:
    """The directly built and evaluated sliders, next to the recorded brute-force ES."""
    base_value = float(inputs.pricer(plan.base_shock))
    sliders = build_all(plan, inputs.pricer, inputs.scenarios)
    values = [
        {h: eval_orthogonal_slider_many(s, x) for h, x in plan.horizon_shocks.items()}
        for s in sliders
    ]
    return Reference(
        brute_es=brute_es,
        slider_pnl=[{h: v - base_value for h, v in per.items()} for per in values],
        slider_values=values,
        build_calls=[s.slider.build_call_count for s in sliders],
    )
