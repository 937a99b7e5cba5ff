"""PCA reduction of risk-factor shocks and Orthogonal Chebyshev Sliders.

Shocks are reduced block by block (one PCA model per risk-factor block, e.g.
rates and volatilities); a Chebyshev Slider is then built for the composition
of the pricer with the inverse transform, over the hull of the projected
training shocks. Evaluating the slider on new shocks costs no pricer calls.
A saved one is the documents walk of OrthogonalSlider, which checks its
blocks against its models and its slider, loaded or built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cheb1d import ClampCounter, Domain1D
from .chebtensor import HyperRectangle
from .documents import read_document, write_document
from .errors import ArgumentError, ConfigurationError, ParameterError
from .slider import (
    Slider,
    SliderConfig,
    build_slider,
    eval_slider,
    eval_slider_many,
)

__all__ = [
    "PcaModel",
    "PcaBlock",
    "PcaBlockSpec",
    "OrthogonalSlider",
    "fit_pca",
    "project",
    "reconstruct",
    "build_orthogonal_slider",
    "eval_orthogonal_slider",
    "eval_orthogonal_slider_many",
    "reconstruct_through",
    "orthogonal_slider_to_dict",
    "orthogonal_slider_from_dict",
    "save_orthogonal_slider",
    "load_orthogonal_slider",
]


@dataclass(frozen=True)
class PcaModel:
    """Column means plus the top-k orthonormal component directions."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def zero_variance(self) -> bool:
        """The fitted data were constant: every explained variance is 0."""
        return not self.explained_variance.any()

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def n(self) -> int:
        return self.components.shape[1]


def fit_pca(data, k: int) -> PcaModel:
    """Fit a k-component PCA (centering only, no variance scaling).

    Components are the top right singular directions of the centered data,
    each signed so its largest-magnitude entry is positive. They come from
    the SVD of R in a QR factorisation of the centered data, which never
    forms the left singular vectors. Where LAPACK's ``dgesdd`` itself takes
    the QR path (s >= 11n/6 samples), that is the full SVD's arithmetic, so
    the components and variances are the same bits.
    """
    data = np.array(data, dtype=float)
    if data.ndim != 2:
        raise ArgumentError(f"data must be a 2-D matrix, got shape {data.shape}")
    return _fit_centring(data, k)


def _fit_centring(x: np.ndarray, k: int) -> PcaModel:
    """fit_pca on a 2-D float matrix that it may overwrite: x is left centered."""
    s, n = x.shape
    if s < 2:
        raise ParameterError(f"need at least 2 samples, got {s}")
    if not (1 <= k <= min(n, s)):
        raise ParameterError(f"k={k} outside 1..min(n={n}, s={s})")
    if not np.isfinite(x).all():
        raise ArgumentError("data must be finite")
    mean = x.mean(axis=0)
    x -= mean
    if not x.any():
        components, explained = np.eye(n)[:k], np.zeros(k)
    else:
        _, sv, vt = np.linalg.svd(np.linalg.qr(x, mode="r"), full_matrices=False)
        components = vt[:k].copy()
        for row in components:
            j = int(np.argmax(np.abs(row)))
            if row[j] < 0:
                row *= -1.0
        explained = (sv[:k] ** 2) / (s - 1)
    for a in (mean, components, explained):
        a.flags.writeable = False
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def project(m: PcaModel, x) -> np.ndarray:
    """Reduced coordinates of x (a vector, or a matrix of row vectors)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != m.n:
        raise ArgumentError(f"x has width {x.shape[-1]}, model expects {m.n}")
    return (x - m.mean) @ m.components.T


def reconstruct(m: PcaModel, y) -> np.ndarray:
    """Inverse transform back to the original coordinates: mean + components^T y."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != m.k:
        raise ArgumentError(f"y has width {y.shape[-1]}, model expects {m.k}")
    return y @ m.components + m.mean


@dataclass(frozen=True)
class PcaBlock:
    """A named, disjoint set of shock coordinates reduced to k dimensions."""

    name: str
    coord_indices: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coord_indices", tuple(int(i) for i in self.coord_indices))
        if not self.coord_indices:
            raise ConfigurationError(f"block {self.name!r} has no coordinates")
        if self.k < 1:
            raise ConfigurationError(f"block {self.name!r} needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class PcaBlockSpec:
    blocks: tuple[PcaBlock, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ConfigurationError("block spec needs at least one block")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate block names: {names}")
        seen: set[int] = set()
        for b in self.blocks:
            overlap = seen.intersection(b.coord_indices)
            if overlap:
                raise ConfigurationError(f"coordinate(s) {sorted(overlap)} appear in two blocks")
            seen.update(b.coord_indices)

    @property
    def reduced_dim(self) -> int:
        return sum(b.k for b in self.blocks)

    @property
    def input_dim(self) -> int:
        return sum(len(b.coord_indices) for b in self.blocks)

    def validate_cover(self, n: int) -> None:
        covered = sorted(i for b in self.blocks for i in b.coord_indices)
        if covered != list(range(n)):
            raise ConfigurationError(
                f"blocks must cover coordinates 0..{n - 1} exactly; got {covered}"
            )

    def offsets(self) -> list[int]:
        """Start of each block's slice in the concatenated reduced vector."""
        offs = [0]
        for b in self.blocks[:-1]:
            offs.append(offs[-1] + b.k)
        return offs


@dataclass(frozen=True)
class OrthogonalSlider:
    """A slider over PCA-reduced coordinates, one PCA model per block."""

    block_spec: PcaBlockSpec
    models: tuple[PcaModel, ...]
    slider: Slider
    base_shock: np.ndarray

    def __post_init__(self) -> None:
        spec = self.block_spec
        spec.validate_cover(spec.input_dim)
        if len(self.models) != len(spec.blocks):
            raise ArgumentError(f"{len(self.models)} PCA models for {len(spec.blocks)} blocks")
        for b, m in zip(spec.blocks, self.models):
            n = len(b.coord_indices)
            if m.components.shape != (b.k, n):
                raise ArgumentError(f"block {b.name!r}: components of shape {m.components.shape}, "
                                    f"expected (k={b.k}, {n} coordinates)")
            if m.mean.shape != (n,):
                raise ArgumentError(f"block {b.name!r}: mean of {m.mean.size} entries for {n} "
                                    f"coordinates")
        if spec.reduced_dim != self.slider.ndim:
            raise ArgumentError(f"blocks' k sum to {spec.reduced_dim}, the slider has "
                                f"{self.slider.ndim} coordinates")
        if self.base_shock.shape != (spec.input_dim,):
            raise ArgumentError(f"base shock of shape {self.base_shock.shape}, "
                                f"expected ({spec.input_dim},)")

    def project_full(self, shocks) -> np.ndarray:
        """Concatenated block projections of shocks (vector or row matrix)."""
        shocks = np.asarray(shocks, dtype=float)
        if shocks.shape[-1] != self.block_spec.input_dim:
            raise ArgumentError(
                f"shock width {shocks.shape[-1]}, expected {self.block_spec.input_dim}"
            )
        parts = []
        for b, m in zip(self.block_spec.blocks, self.models):
            x = shocks[..., list(b.coord_indices)]
            x -= m.mean  # the fancy index copied, so this leaves the caller's shocks alone
            parts.append(x @ m.components.T)
        return np.concatenate(parts, axis=-1)


def build_orthogonal_slider(
    pricer,
    shocks_10d,
    block_spec: PcaBlockSpec,
    config: SliderConfig,
    base_shock,
) -> OrthogonalSlider:
    """Fit per-block PCA on the 10-day shock history and build the slider.

    The slider domain per reduced coordinate is the [min, max] of the
    projected training shocks, padded by 1% of the range (and widened to
    include the projected base shock if necessary). The pivot is the
    projection of the base shock.
    """
    shocks = np.asarray(shocks_10d, dtype=float)
    if shocks.ndim != 2:
        raise ArgumentError(f"shock history must be 2-D, got shape {shocks.shape}")
    n = shocks.shape[1]
    block_spec.validate_cover(n)
    if config.total_dim != block_spec.reduced_dim:
        raise ConfigurationError(
            f"slider dimension {config.total_dim} != total PCA dimension "
            f"{block_spec.reduced_dim}"
        )
    base_shock = np.asarray(base_shock, dtype=float).copy()
    if base_shock.shape != (n,):
        raise ArgumentError(f"base shock of shape {base_shock.shape}, expected ({n},)")

    models: list[PcaModel] = []
    domains: list[Domain1D] = []
    pivot_parts: list[np.ndarray] = []
    for b in block_spec.blocks:
        cols = list(b.coord_indices)
        centered = shocks[:, cols]  # a fancy-index copy, centred in place by the fit
        model = _fit_centring(centered, b.k)
        scores = centered @ model.components.T
        base_scores = project(model, base_shock[cols])
        for c in range(b.k):
            lo = min(float(scores[:, c].min()), float(base_scores[c]))
            hi = max(float(scores[:, c].max()), float(base_scores[c]))
            span = hi - lo
            pad = 0.01 * span if span > 0 else max(1.0, abs(hi)) * 1e-9
            domains.append(Domain1D(lo - pad, hi + pad))
        models.append(model)
        pivot_parts.append(base_scores)
    pivot = np.concatenate(pivot_parts)

    # reconstruct() per block, resolved once: (columns, reduced slice, components, mean).
    resolved = [
        (np.array(b.coord_indices), slice(off, off + b.k), m.components, m.mean)
        for b, m, off in zip(block_spec.blocks, models, block_spec.offsets())
    ]

    def reduced_pricer(y):
        z = np.empty(n)
        for cols, sl, comps, mean in resolved:
            z[cols] = y[sl] @ comps + mean
        return pricer(z)

    slider = build_slider(reduced_pricer, HyperRectangle(tuple(domains)), pivot, config)
    base_shock.flags.writeable = False
    return OrthogonalSlider(
        block_spec=block_spec,
        models=tuple(models),
        slider=slider,
        base_shock=base_shock,
    )


def eval_orthogonal_slider(
    os_: OrthogonalSlider, shock, clamp_counter: ClampCounter | None = None
) -> float:
    """Project a full-dimensional shock block by block and evaluate the slider."""
    y = os_.project_full(np.asarray(shock, dtype=float).reshape(-1))
    return eval_slider(os_.slider, y, clamp_counter)


def eval_orthogonal_slider_many(
    os_: OrthogonalSlider, shocks, clamp_counter: ClampCounter | None = None
) -> np.ndarray:
    """Evaluate the slider on each row of a shock matrix (no pricer calls)."""
    shocks = np.asarray(shocks, dtype=float)
    if shocks.ndim != 2:
        raise ArgumentError(f"expected a matrix of shocks, got shape {shocks.shape}")
    return eval_slider_many(os_.slider, os_.project_full(shocks), clamp_counter)


def reconstruct_through(os_: OrthogonalSlider, shocks) -> np.ndarray:
    """Shocks mapped through reconstruct(project(.)) block by block.

    Pricing these with the reference pricer gives the PCA-repriced diagnostic
    series (full brute-force cost; used only in diagnostic mode).
    """
    shocks = np.asarray(shocks, dtype=float)
    out = np.empty_like(shocks, dtype=float)
    for b, m in zip(os_.block_spec.blocks, os_.models):
        cols = list(b.coord_indices)
        out[..., cols] = reconstruct(m, project(m, shocks[..., cols]))
    return out


def orthogonal_slider_to_dict(os_: OrthogonalSlider) -> dict:
    """The documents walk of the slider's fields, its plain slider nested; bit-exact in JSON."""
    return write_document(os_, "orthogonal_chebyshev_slider")


def orthogonal_slider_from_dict(doc: dict) -> OrthogonalSlider:
    """The slider an orthogonal_slider_to_dict document holds, checked as a build is."""
    return read_document(OrthogonalSlider, doc, "orthogonal_chebyshev_slider", "orthogonal slider")


def save_orthogonal_slider(os_: OrthogonalSlider, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(orthogonal_slider_to_dict(os_), fh)


def load_orthogonal_slider(path) -> OrthogonalSlider:
    with open(path, encoding="utf-8") as fh:
        return orthogonal_slider_from_dict(json.load(fh))
