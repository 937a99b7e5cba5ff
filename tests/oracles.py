"""Independent reference implementations used as test oracles.

Deliberately naive: direct product/sum formulas, subset enumeration and
quadrature. Nothing here shares code with the library's evaluation paths.
InstrumentedPricer counts the calls a test function receives.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


class InstrumentedPricer:
    """Wraps any shock -> value callable, counting calls."""

    def __init__(self, fn):
        self.fn = fn
        self.call_count = 0

    def __call__(self, x) -> float:
        self.call_count += 1
        return self.fn(x)


def lagrange_eval(nodes, values, x: float) -> float:
    """Direct Lagrange interpolation via the product formula."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    total = 0.0
    for i in range(nodes.size):
        term = values[i]
        for j in range(nodes.size):
            if j != i:
                term *= (x - nodes[j]) / (nodes[i] - nodes[j])
        total += term
    return total


def tensor_lagrange_eval(node_axes, values, point) -> float:
    """Tensor-product Lagrange polynomial by explicit nested sums."""
    values = np.asarray(values, dtype=float)
    weights = []
    for nodes, x in zip(node_axes, point):
        nodes = np.asarray(nodes, dtype=float)
        w = np.ones(nodes.size)
        for i in range(nodes.size):
            for j in range(nodes.size):
                if j != i:
                    w[i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
        weights.append(w)
    total = 0.0
    for idx in np.ndindex(*values.shape):
        term = values[idx]
        for d, i in enumerate(idx):
            term *= weights[d][i]
        total += term
    return total


def es_exhaustive(values, alpha: float) -> float:
    """ES by enumerating every subset of the tail size and taking the worst.

    The worst tail is the subset with the smallest P&L sum, found without
    sorting. Exponential cost; only for small samples.
    """
    values = list(map(float, values))
    s = len(values)
    t = max(1, math.ceil((1.0 - alpha) * s - 1e-9))
    worst_sum = min(sum(c) for c in combinations(values, t))
    return -worst_sum / t


def kolmogorov_sf_theta(lam: float) -> float:
    """Kolmogorov survival function via the dual (theta-function) series.

    Q(lam) = 1 - sqrt(2*pi)/lam * sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 lam^2)).
    Converges fast for small lam, complementing the standard series.
    """
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 200):
        term = math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * lam * lam))
        total += term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / lam * total))


def black_call_quadrature(forward: float, strike: float, vol: float, expiry: float) -> float:
    """Undiscounted Black payer value by quadrature over the lognormal density."""
    std = vol * math.sqrt(expiry)
    # E[max(F*exp(-std^2/2 + std*z) - K, 0)] under z ~ N(0,1)
    z = np.linspace(-12.0, 12.0, 200_001)
    rates = forward * np.exp(-0.5 * std * std + std * z)
    payoff = np.maximum(rates - strike, 0.0)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    y = payoff * density
    # The trapezoid rule written out: np.trapezoid needs numpy >= 2.0.
    return float(np.sum(np.diff(z) * (y[1:] + y[:-1]) / 2.0))
