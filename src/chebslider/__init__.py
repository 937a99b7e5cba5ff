"""Orthogonal Chebyshev Sliders for fast scenario revaluation.

Multi-dimensional Chebyshev interpolation (stable barycentric evaluation),
slide-partitioned sliders, PCA dimension reduction, reference swap/swaption
pricers and an Expected Shortfall risk harness.
"""

from .cheb1d import (
    ChebyshevGrid,
    ChebyshevInterpolant1D,
    ClampCounter,
    Domain1D,
    ErrorBoundParams,
    build_interpolant,
    chebyshev_points,
    error_bound,
    eval_barycentric,
    eval_barycentric_many,
)
from .chebtensor import (
    ChebyshevMesh,
    ChebyshevTensor,
    HyperRectangle,
    build_mesh,
    build_tensor,
    eval_call_count,
    eval_tensor,
    eval_tensor_many,
)
from .errors import (
    ArgumentError,
    ChebSliderError,
    ConfigurationError,
    DomainError,
    MissingCurveError,
    ModelDomainError,
    ParameterError,
    SamplingError,
    UnknownFactorError,
)
from .orthopca import (
    OrthogonalSlider,
    PcaBlock,
    PcaBlockSpec,
    PcaModel,
    build_orthogonal_slider,
    eval_orthogonal_slider,
    eval_orthogonal_slider_many,
    fit_pca,
    load_orthogonal_slider,
    project,
    reconstruct,
    reconstruct_through,
    save_orthogonal_slider,
)
from .pricers import (
    Market,
    ShockedPortfolioPricer,
    SwapTrade,
    SwaptionTrade,
    VolSurface,
    ZeroCurve,
    market_risk_factors,
    par_swap_rate,
    price_swap,
    price_swaption_black,
    price_trade,
    shocked_pricer,
    swap_annuity,
)
from .riskengine import (
    BrutePnl,
    EsReport,
    RatioBacktestSeries,
    ScenarioSet,
    SyntheticBlock,
    SyntheticSpec,
    apply_liquidity_horizon,
    brute_pnl,
    correlation,
    es_tail_size,
    expected_shortfall,
    generate_synthetic_history,
    ks_two_sample,
    pnl_distribution,
    rolling_ratio_backtest,
    run_es_analysis,
    savings,
)
from .slider import (
    Slide,
    Slider,
    SliderConfig,
    build_slider,
    eval_slider,
    eval_slider_many,
    load_slider,
    parse_slider_tuple,
    save_slider,
)

__version__ = "0.1.0"
