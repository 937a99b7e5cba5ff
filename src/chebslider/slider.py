"""Chebyshev Sliders: additive collections of low-dimensional slides.

A slider partitions the input coordinates into slides, builds one Chebyshev
tensor per slide for the restriction of f through a pivot point z, and
evaluates as

    f(x) ~ v + sum_i (s_i(x restricted to slide i) - v),    v = f(z).

Slide domains are symmetrized around the pivot (covering the requested box),
so with an odd number of points per dimension the pivot coordinate is the
middle mesh node and the slider reproduces v at z exactly. A saved slider is
the documents walk of its dataclasses, and each type checks its own rules,
so a loaded slider passes the checks of a built one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheb1d import ChebyshevGrid, ClampCounter, chebyshev_points_centered
from .chebtensor import (
    ChebyshevMesh,
    ChebyshevTensor,
    HyperRectangle,
    build_tensor,
    eval_tensor,
    eval_tensor_many,
)
from .documents import read_document, write_document
from .errors import ArgumentError, ConfigurationError, SamplingError

__all__ = [
    "SliderConfig",
    "Slide",
    "Slider",
    "build_slider",
    "eval_slider",
    "eval_slider_many",
    "parse_slider_tuple",
    "slider_to_dict",
    "slider_from_dict",
]


@dataclass(frozen=True)
class SliderConfig:
    """Slide dimensions (their sum must equal the input dimension) and mesh sizes.

    points_per_dim is given as one count shared by every slide or as one
    count per slide, and stored per slide. permutation, when given, reorders
    the input coordinates before they are assigned to slides in blocks.
    """

    slide_dims: tuple[int, ...]
    points_per_dim: int | tuple[int, ...] = 5
    permutation: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "slide_dims", tuple(int(d) for d in self.slide_dims))
        if not self.slide_dims or any(d < 1 for d in self.slide_dims):
            raise ConfigurationError(f"slide dimensions must be positive, got {self.slide_dims}")
        n = len(self.slide_dims)
        if np.shape(self.points_per_dim) not in ((), (n,)):
            raise ConfigurationError(f"{np.size(self.points_per_dim)} point counts for {n} slides")
        pts = tuple(int(p) for p in np.broadcast_to(self.points_per_dim, n))
        if any(p < 1 for p in pts):
            raise ConfigurationError(f"points per dimension must be >= 1, got {pts}")
        object.__setattr__(self, "points_per_dim", pts)
        if self.permutation is not None:
            perm = tuple(int(i) for i in self.permutation)
            if sorted(perm) != list(range(self.total_dim)):
                raise ConfigurationError(
                    f"permutation must reorder 0..{self.total_dim - 1}, got {perm}"
                )
            object.__setattr__(self, "permutation", perm)

    @property
    def total_dim(self) -> int:
        return sum(self.slide_dims)


@dataclass(frozen=True)
class Slide:
    """One member of the partition: the coordinates it varies and its tensor."""

    coord_indices: tuple[int, ...]
    tensor: ChebyshevTensor

    def __post_init__(self) -> None:
        if len(self.coord_indices) != self.tensor.mesh.ndim:
            raise ArgumentError(
                f"a slide of {self.tensor.mesh.ndim} grids lists coordinates {self.coord_indices}"
            )


@dataclass(frozen=True)
class Slider:
    """A 1-D pivot inside the slides' box, f there, and slides covering 0..ndim-1, each once."""

    pivot: np.ndarray
    pivot_value: float
    slides: tuple[Slide, ...]

    def __post_init__(self) -> None:
        covered = sorted(j for sl in self.slides for j in sl.coord_indices)
        if self.pivot.ndim != 1 or covered != list(range(self.ndim)):
            raise ArgumentError(f"slide coordinates must be 0..{self.ndim - 1}, each once, got "
                                f"{covered}, for a pivot of shape {self.pivot.shape}")
        if not self.box.contains(self.pivot):
            raise ArgumentError(f"pivot {self.pivot.tolist()} lies outside the slides' box")

    @property
    def ndim(self) -> int:
        return len(self.pivot)

    @property
    def box(self) -> HyperRectangle:
        """The slides' domains by coordinate: the box the slider was built on."""
        dims = {j: g.domain for sl in self.slides
                for j, g in zip(sl.coord_indices, sl.tensor.mesh.grids)}
        return HyperRectangle(tuple(dims[j] for j in range(self.ndim)))

    @property
    def build_call_count(self) -> int:
        """Calls to f the build made: the pivot plus every slide's mesh."""
        return 1 + sum(sl.tensor.mesh.size for sl in self.slides)


def _tuple_int(token: str, text: str) -> int:
    if not token.strip().isdecimal() or int(token) < 1:
        raise ConfigurationError(f"slider tuple {text!r}: {token!r} is not a positive integer")
    return int(token)


def parse_slider_tuple(text: str, total_dim: int | None = None) -> tuple[int, ...]:
    """Parse a slide-dimension tuple such as "1,1,1", "1x20", "3,1x17" or "3,1x*".

    A trailing "x*" repeats the value until total_dim is reached (total_dim
    required in that case).
    """
    dims: list[int] = []
    tokens = [t.strip() for t in text.strip().strip("{}").split(",") if t.strip()]
    if not tokens:
        raise ConfigurationError(f"empty slider tuple: {text!r}")
    for pos, tok in enumerate(tokens):
        if "x" in tok:
            val_s, count_s = tok.split("x", 1)
            val = _tuple_int(val_s, text)
            if count_s == "*":
                if pos != len(tokens) - 1:
                    raise ConfigurationError(f"'x*' is only allowed in the last entry: {text!r}")
                if total_dim is None:
                    raise ConfigurationError("'x*' needs a known total dimension")
                remaining = total_dim - sum(dims)
                if remaining < 0 or remaining % val != 0:
                    raise ConfigurationError(
                        f"tuple {text!r} cannot fill dimension {total_dim}"
                    )
                dims.extend([val] * (remaining // val))
                continue
            dims.extend([val] * _tuple_int(count_s, text))
        else:
            dims.append(_tuple_int(tok, text))
    if total_dim is not None and sum(dims) != total_dim:
        raise ConfigurationError(
            f"tuple {text!r} sums to {sum(dims)}, expected {total_dim}"
        )
    return tuple(dims)


def _slide_partition(config: SliderConfig, n: int) -> list[tuple[int, ...]]:
    if config.total_dim != n:
        raise ConfigurationError(
            f"slide dimensions sum to {config.total_dim}, input dimension is {n}"
        )
    order = config.permutation if config.permutation is not None else tuple(range(n))
    parts: list[tuple[int, ...]] = []
    at = 0
    for d in config.slide_dims:
        parts.append(tuple(order[at : at + d]))
        at += d
    return parts


def build_slider(f, box: HyperRectangle, pivot, config: SliderConfig) -> Slider:
    """Build all slides of f through the pivot point.

    Costs exactly 1 + sum over slides of the slide's mesh size calls to f.
    """
    n = box.ndim
    pivot = np.asarray(pivot, dtype=float).copy()
    if pivot.shape != (n,):
        raise ArgumentError(f"pivot of shape {pivot.shape} for a {n}-dimensional box")
    if not box.contains(pivot):
        raise ArgumentError("pivot must lie inside the box")
    parts = _slide_partition(config, n)

    v = float(f(pivot.copy()))
    if not math.isfinite(v):
        raise SamplingError(f"f returned non-finite value {v!r} at the pivot")

    # Symmetric envelope of each requested interval around the pivot: the
    # pivot sits on the middle node whenever the point count is odd.
    grid_for: dict[int, ChebyshevGrid] = {}
    for coords, m in zip(parts, config.points_per_dim):
        for j in coords:
            d = box.dims[j]
            half = max(pivot[j] - d.lo, d.hi - pivot[j])
            grid_for[j] = chebyshev_points_centered(m - 1, float(pivot[j]), half)

    slides: list[Slide] = []
    for i, coords in enumerate(parts):
        mesh = ChebyshevMesh(tuple(grid_for[j] for j in coords))
        idx = np.asarray(coords, dtype=int)

        def restriction(y, _idx=idx):
            z = pivot.copy()
            z[_idx] = y
            return f(z)

        slides.append(Slide(coord_indices=coords, tensor=build_tensor(restriction, mesh)))

    pivot.flags.writeable = False
    return Slider(pivot=pivot, pivot_value=v, slides=tuple(slides))


def eval_slider(s: Slider, x, clamp_counter: ClampCounter | None = None) -> float:
    """Evaluate the slider at x: v plus the per-slide deviations from v."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.ndim,):
        raise ArgumentError(f"point of shape {x.shape} for a {s.ndim}-dimensional slider")
    v = s.pivot_value
    acc = v
    for slide in s.slides:
        acc += eval_tensor(slide.tensor, x[list(slide.coord_indices)], clamp_counter) - v
    return acc


def eval_slider_many(s: Slider, xs, clamp_counter: ClampCounter | None = None) -> np.ndarray:
    """Evaluate the slider at each row of xs, summing in eval_slider's order.

    Each slide goes through eval_tensor_many. Its 1-D slides repeat the
    scalar rule's arithmetic, so a slider whose slides are all 1-D equals
    eval_slider bit for bit; multi-dimensional slides may differ from it in
    the last bits.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != s.ndim:
        raise ArgumentError(f"expected points of shape (s, {s.ndim}), got {xs.shape}")
    v = s.pivot_value
    out = np.full(xs.shape[0], v)
    for slide in s.slides:
        out += eval_tensor_many(slide.tensor, xs[:, list(slide.coord_indices)], clamp_counter) - v
    return out


def slider_to_dict(s: Slider) -> dict:
    """The documents walk of the slider's fields; it round-trips through JSON bit for bit."""
    return write_document(s, "chebyshev_slider")


def slider_from_dict(doc: dict) -> Slider:
    """The slider a slider_to_dict document holds, checked as a build is."""
    return read_document(Slider, doc, "chebyshev_slider", "slider")
