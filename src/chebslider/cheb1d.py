"""One-dimensional Chebyshev grids and stable barycentric evaluation.

Nodes are the extreme points cos(j*pi/n) mapped onto an arbitrary interval
and stored in ascending order. Interpolants are kept in node-value form and
evaluated with the barycentric formula, whose weights for this node family
reduce to an alternating sign pattern with the two end weights halved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DomainError, ParameterError, SamplingError

__all__ = [
    "Domain1D",
    "ChebyshevGrid",
    "ChebyshevInterpolant1D",
    "ClampCounter",
    "chebyshev_points",
    "chebyshev_points_centered",
    "barycentric_eval",
    "barycentric_eval_many",
    "barycentric_basis",
    "build_interpolant",
    "eval_barycentric",
    "eval_barycentric_many",
]


@dataclass(frozen=True)
class Domain1D:
    """Closed interval [lo, hi] with lo < hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass
class ClampCounter:
    """Counts evaluations whose argument fell outside the fitted domain.

    Out-of-domain points are clamped to the nearest endpoint; callers that
    care pass a counter down and read it back after evaluating.
    """

    count: int = 0

    def record(self, n: int = 1) -> None:
        self.count += n


def _sign_weights(n: int) -> np.ndarray:
    # Barycentric weights for Chebyshev extreme points, up to a common factor
    # that cancels in the formula: alternating signs, halved at both ends.
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class ChebyshevGrid:
    """Chebyshev nodes in order from domain.lo to domain.hi, or one inside; they fix the weights."""

    domain: Domain1D
    nodes: np.ndarray
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)  # a read-only copy
        if nodes.ndim != 1 or nodes.size == 0:
            raise ArgumentError(f"nodes must be a non-empty 1-D array, got shape {nodes.shape}")
        xs, d = nodes.tolist(), self.domain
        ends = (xs[0], xs[-1]) == (d.lo, d.hi) if len(xs) > 1 else d.contains(xs[0])
        if not (ends and all(a <= b for a, b in zip(xs, xs[1:]))):
            raise ArgumentError(f"nodes {xs} do not ascend from {d.lo!r} to {d.hi!r}, "
                                f"nor are they one node inside")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", _sign_weights(nodes.size - 1))

    @property
    def size(self) -> int:
        return self.nodes.size


def _unit_points(n: int) -> np.ndarray:
    # sin form of cos(j*pi/n), ascending in j; exactly antisymmetric and
    # exactly zero at the midpoint for even n.
    j = np.arange(n + 1)
    return np.sin(np.pi * (2 * j - n) / (2 * n))


def chebyshev_points(n: int, domain: Domain1D) -> ChebyshevGrid:
    """Grid of the n+1 Chebyshev points of the interval, ascending.

    n = 0 degenerates to the single midpoint node.
    """
    if n < 0:
        raise ParameterError(f"degree must be non-negative, got {n}")
    if n == 0:
        nodes = np.array([domain.mid])
    else:
        nodes = domain.mid + 0.5 * domain.width * _unit_points(n)
        nodes[0] = domain.lo
        nodes[-1] = domain.hi
    return ChebyshevGrid(domain=domain, nodes=nodes)


def chebyshev_points_centered(n: int, center: float, halfwidth: float) -> ChebyshevGrid:
    """Grid on [center - halfwidth, center + halfwidth].

    Mapping is applied around `center` directly, so for even n the middle
    node equals `center` bit-exactly. Used by slide construction, where the
    pivot must be reproduced without interpolation error.
    """
    if n < 0:
        raise ParameterError(f"degree must be non-negative, got {n}")
    if not (math.isfinite(center) and math.isfinite(halfwidth)) or halfwidth <= 0.0:
        raise DomainError(f"invalid center/halfwidth: {center}, {halfwidth}")
    if n == 0:
        nodes = np.array([center])
        domain = Domain1D(float(center - halfwidth), float(center + halfwidth))
    else:
        nodes = center + halfwidth * _unit_points(n)
        domain = Domain1D(float(nodes[0]), float(nodes[-1]))
    return ChebyshevGrid(domain=domain, nodes=nodes)


@dataclass(frozen=True)
class ChebyshevInterpolant1D:
    """Function samples on a Chebyshev grid; evaluated by the barycentric formula."""

    grid: ChebyshevGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.size:
            raise ArgumentError(
                f"got {len(self.values)} values for a grid of {self.grid.size} nodes"
            )


def build_interpolant(f, grid: ChebyshevGrid) -> ChebyshevInterpolant1D:
    """Sample f once per node (exactly grid.size calls)."""
    values = np.empty(grid.size)
    for j, x in enumerate(grid.nodes):
        v = f(float(x))
        if not math.isfinite(v):
            raise SamplingError(f"f returned non-finite value {v!r} at node x={x!r}")
        values[j] = v
    values.flags.writeable = False
    return ChebyshevInterpolant1D(grid=grid, values=values)


def barycentric_eval(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray, x: float) -> float:
    """Barycentric formula at a scalar x; an exact node hit returns the stored value.

    The scalar reference rule, a plain loop over Python floats. If x sits so
    close to a node that 1/(x - node) overflows, the result is not finite
    and the nearest node's value is returned (an overflow guard, not an
    accuracy window), as in barycentric_eval_many.
    """
    num = den = 0.0
    for xi, wi, vi in zip(nodes.tolist(), weights.tolist(), values.tolist()):
        d = x - xi
        if d == 0.0:
            return vi
        q = wi / d
        num += q * vi
        den += q
    out = num / den if den else math.nan
    if not math.isfinite(out):
        return float(values[np.argmin(np.abs(x - nodes))])
    return out


def barycentric_eval_many(
    nodes: np.ndarray, weights: np.ndarray, values: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """barycentric_eval at every point of a 1-D array xs, bit for bit.

    The loop runs over the m nodes and repeats the scalar rule's IEEE
    operations in its order on whole arrays: q = w_j / (x - x_j), den += q,
    num += q * v_j, then num / den. An exact node hit makes that quotient
    non-finite, as does an overflow next to a node; such a point takes the
    nearest node's value, which for a hit is the stored one, as in
    barycentric_eval.
    """
    xs = np.asarray(xs, dtype=float)
    num, den, q = np.zeros(xs.shape), np.zeros(xs.shape), np.empty(xs.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for wj, xj, vj in zip(weights.tolist(), nodes.tolist(), values.tolist()):
            np.subtract(xs, xj, out=q)
            np.divide(wj, q, out=q)
            den += q
            q *= vj
            num += q
        out = np.divide(num, den, out=num)
    snap = np.flatnonzero(~np.isfinite(out))
    if snap.size:
        out[snap] = values[np.argmin(np.abs(xs[snap, None] - nodes), axis=1)]
    return out


def barycentric_basis(nodes: np.ndarray, weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(m, s) matrix of the Lagrange basis at each point: column i holds l_j(xs[i]).

    `values @ barycentric_basis(...)` is the interpolant at every point. Row j
    holds the terms q_j = w_j / (x - x_j) over all points, divided by their
    denominator. Each denominator adds the q_j in node order, barycentric_eval's
    order, so every entry equals the scalar rule's q_j / den bit for bit. A
    column whose denominator is not finite (an exact node hit, or 1/(x - node)
    overflowing next to a node) is one-hot at the nearest node, as in
    barycentric_eval, so node hits reproduce stored values bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    diff = xs - nodes[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = weights[:, None] / diff
        # Node by node, barycentric_eval's order: q.sum(axis=0) would add a
        # single point's terms (s == 1) pairwise.
        den = q[0].copy()
        for row in q[1:]:
            den += row
        q /= den
    snap = np.flatnonzero(~np.isfinite(den))
    if snap.size:
        q[:, snap] = 0.0
        q[np.argmin(np.abs(diff[:, snap]), axis=0), snap] = 1.0
    return q


def _clamp_coordinate(x: float, domain: Domain1D, clamp_counter: ClampCounter | None) -> float:
    if not math.isfinite(x):
        raise ArgumentError(f"evaluation point must be finite, got {x!r}")
    if x < domain.lo:
        if clamp_counter is not None:
            clamp_counter.record()
        return domain.lo
    if x > domain.hi:
        if clamp_counter is not None:
            clamp_counter.record()
        return domain.hi
    return x


def eval_barycentric(
    p: ChebyshevInterpolant1D, x: float, clamp_counter: ClampCounter | None = None
) -> float:
    """Evaluate the interpolant at x.

    Points outside the domain are clamped to the nearest endpoint; pass a
    ClampCounter to observe how often that happened.
    """
    x = _clamp_coordinate(float(x), p.grid.domain, clamp_counter)
    return barycentric_eval(p.grid.nodes, p.grid.weights, p.values, x)


def eval_barycentric_many(
    p: ChebyshevInterpolant1D, xs, clamp_counter: ClampCounter | None = None
) -> np.ndarray:
    """Evaluate the interpolant at an array of points, clamping out-of-domain ones."""
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ArgumentError("evaluation points must be finite")
    lo, hi = p.grid.domain.lo, p.grid.domain.hi
    clipped = np.clip(xs, lo, hi)
    if clamp_counter is not None:
        clamp_counter.record(int(np.count_nonzero(clipped != xs)))
    return barycentric_eval_many(p.grid.nodes, p.grid.weights, p.values, clipped)
