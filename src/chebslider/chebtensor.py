"""Multi-dimensional Chebyshev meshes over hyper-rectangles.

Two evaluation paths give the same tensor interpolant:

- eval_tensor, the scalar reference, collapses one dimension at a time,
  last dimension first. Each collapse runs the 1-D barycentric formula once
  per remaining fiber, so a (m1, ..., md) tensor costs
  m1*...*m_{d-1} + ... + m1 + 1 one-dimensional evaluations per point
  (eval_call_count).
- eval_tensor_many, the batch path, makes no scalar 1-D evaluations. It
  keeps the point axis last: the (s, d) points are copied once into a
  (d, s) array, one contiguous row per coordinate. A 1-D tensor goes
  through barycentric_eval_many, the scalar rule's arithmetic on whole
  arrays, and equals eval_tensor bit for bit. Higher dimensions build one
  node-major (m_k, s) barycentric basis per axis, whose denominators add
  the terms in the scalar rule's node order, and contract the value tensor
  with them, last axis first: one matmul into a (m_1*...*m_{d-1}, s) array,
  then one einsum per remaining axis. They may differ from eval_tensor in
  the last bits, because the collapse sums in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheb1d import (
    ChebyshevGrid,
    ClampCounter,
    Domain1D,
    _clamp_coordinate,
    barycentric_basis,
    barycentric_eval,
    barycentric_eval_many,
    chebyshev_points,
)
from .errors import ArgumentError, ConfigurationError, DomainError, ParameterError, SamplingError

__all__ = [
    "HyperRectangle",
    "ChebyshevMesh",
    "ChebyshevTensor",
    "build_mesh",
    "build_tensor",
    "eval_tensor",
    "eval_tensor_many",
    "eval_call_count",
]


@dataclass(frozen=True)
class HyperRectangle:
    """Cartesian product of 1-D closed intervals."""

    dims: tuple[Domain1D, ...]

    def __post_init__(self) -> None:
        if len(self.dims) == 0:
            raise DomainError("hyper-rectangle needs at least one dimension")
        object.__setattr__(self, "dims", tuple(self.dims))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def contains(self, x) -> bool:
        return all(d.contains(float(v)) for d, v in zip(self.dims, x))


@dataclass(frozen=True)
class ChebyshevMesh:
    """One Chebyshev grid per dimension; the mesh is their Cartesian product."""

    grids: tuple[ChebyshevGrid, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "grids", tuple(self.grids))
        if not self.grids:
            raise DomainError("mesh needs at least one grid")

    @property
    def ndim(self) -> int:
        return len(self.grids)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.grids)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class ChebyshevTensor:
    """Finite function samples on a Chebyshev mesh, stored row-major by multi-index."""

    mesh: ChebyshevMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        if tuple(self.values.shape) != self.mesh.shape:
            raise ArgumentError(
                f"values shape {self.values.shape} does not match mesh shape {self.mesh.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ArgumentError("tensor values must be finite")


def build_mesh(box: HyperRectangle, points_per_dim) -> ChebyshevMesh:
    """Mesh with the requested number of points in each dimension."""
    counts = [int(m) for m in points_per_dim]
    if len(counts) != box.ndim:
        raise ConfigurationError(
            f"{len(counts)} point counts for a {box.ndim}-dimensional box"
        )
    if any(m < 1 for m in counts):
        raise ParameterError(f"points per dimension must be >= 1, got {counts}")
    grids = tuple(chebyshev_points(m - 1, d) for m, d in zip(counts, box.dims))
    return ChebyshevMesh(grids=grids)


def build_tensor(f, mesh: ChebyshevMesh) -> ChebyshevTensor:
    """Sample f on every mesh node (exactly mesh.size calls), row-major order."""
    values = np.empty(mesh.shape)
    node_axes = [g.nodes for g in mesh.grids]
    point = np.empty(mesh.ndim)
    for idx in np.ndindex(*mesh.shape):
        for d, j in enumerate(idx):
            point[d] = node_axes[d][j]
        v = f(point.copy())
        if not math.isfinite(v):
            raise SamplingError(f"f returned non-finite value {v!r} at mesh index {idx}")
        values[idx] = v
    values.flags.writeable = False
    return ChebyshevTensor(mesh=mesh, values=values)


def eval_tensor(t: ChebyshevTensor, x, clamp_counter: ClampCounter | None = None) -> float:
    """Evaluate the tensor interpolant at a point by recursive 1-D reduction."""
    grids = t.mesh.grids
    d = len(grids)
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ArgumentError(f"point of dimension {x.shape} for a {d}-dimensional tensor")
    coords = [_clamp_coordinate(float(x[i]), grids[i].domain, clamp_counter) for i in range(d)]
    work = t.values
    for axis in range(d - 1, 0, -1):
        g = grids[axis]
        flat = work.reshape(-1, g.size)
        out = np.empty(flat.shape[0])
        for r in range(flat.shape[0]):
            out[r] = barycentric_eval(g.nodes, g.weights, flat[r], coords[axis])
        work = out.reshape(work.shape[:-1])
    g = grids[0]
    return barycentric_eval(g.nodes, g.weights, work.reshape(-1), coords[0])


def eval_tensor_many(
    t: ChebyshevTensor, xs, clamp_counter: ClampCounter | None = None
) -> np.ndarray:
    """Evaluate the tensor at each row of xs; equal to eval_tensor row by row.

    Coordinates outside the box are clamped (one count per clamped
    coordinate). One-dimensional tensors use barycentric_eval_many directly
    and match eval_tensor bit for bit. Higher dimensions contract the values
    with each axis's node-major barycentric basis, last axis first, keeping
    the point axis last; points on mesh nodes return the stored values bit
    for bit.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != t.mesh.ndim:
        raise ArgumentError(
            f"expected points of shape (s, {t.mesh.ndim}), got {xs.shape}"
        )
    if not np.isfinite(xs).all():
        raise ArgumentError("evaluation points must be finite")
    grids, shape = t.mesh.grids, t.mesh.shape
    lo = np.array([[g.domain.lo] for g in grids])
    hi = np.array([[g.domain.hi] for g in grids])
    # Point-last: row k holds coordinate k of every point, contiguous.
    pts = np.ascontiguousarray(xs.T)
    clipped = np.clip(pts, lo, hi)
    if clamp_counter is not None:
        clamp_counter.record(int(np.count_nonzero(clipped != pts)))
    if len(grids) == 1:
        g = grids[0]
        return barycentric_eval_many(g.nodes, g.weights, t.values, clipped[0])
    s = xs.shape[0]
    g = grids[-1]
    # work[p, i]: the values with the last axes already collapsed at point i.
    work = t.values.reshape(-1, g.size) @ barycentric_basis(g.nodes, g.weights, clipped[-1])
    for axis in range(len(grids) - 2, -1, -1):
        g = grids[axis]
        work = np.einsum(
            "pjs,js->ps",
            work.reshape(math.prod(shape[:axis]), g.size, s),
            barycentric_basis(g.nodes, g.weights, clipped[axis]),
        )
    return work.reshape(s)


def eval_call_count(dims) -> int:
    """Number of 1-D barycentric evaluations one eval_tensor call performs."""
    dims = [int(m) for m in dims]
    if not dims:
        raise ArgumentError("dims must be non-empty")
    if any(m < 1 for m in dims):
        raise ParameterError(f"points per dimension must be >= 1, got {dims}")
    count = 1
    prefix = 1
    for m in dims[:-1]:
        prefix *= m
        count += prefix
    return count
