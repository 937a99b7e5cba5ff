"""Chebyshev grids and barycentric evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebslider import (
    ArgumentError,
    ChebyshevGrid,
    ChebyshevInterpolant1D,
    ClampCounter,
    Domain1D,
    DomainError,
    ParameterError,
    SamplingError,
    build_interpolant,
    chebyshev_points,
    eval_barycentric,
    eval_barycentric_many,
)
from chebslider.cheb1d import (
    barycentric_basis,
    barycentric_eval,
    barycentric_eval_many,
    chebyshev_points_centered,
)

from .oracles import lagrange_eval

UNIT = Domain1D(-1.0, 1.0)


def bits(a):
    """The IEEE bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def _kernel_points(grid, rng):
    # Every node, both nextafter neighbours of each node (next to an exact
    # 0.0 node 1/(x - node) overflows) and random points in the domain.
    nodes = grid.nodes
    inside = rng.uniform(grid.domain.lo, grid.domain.hi, size=8)
    return np.concatenate(
        [nodes, np.nextafter(nodes, -math.inf), np.nextafter(nodes, math.inf), inside]
    )


def _scalar_basis_row(nodes, weights, x):
    # Row of l_j(x) as barycentric_eval orders it: q_j = w_j / (x - x_j),
    # den summed in node order, l_j = q_j / den; a hit or a non-finite den
    # is one-hot at the nearest node.
    qs, den = [], 0.0
    for xj, wj in zip(nodes.tolist(), weights.tolist()):
        d = x - xj
        if d == 0.0:
            den = math.inf
            break
        qs.append(wj / d)
        den += qs[-1]
    if not math.isfinite(den):
        return np.eye(len(nodes))[np.argmin(np.abs(x - nodes))]
    return np.array([q / den for q in qs])


class TestGrids:
    def test_n2_unit_nodes(self):
        g = chebyshev_points(2, UNIT)
        assert g.nodes.tolist() == [-1.0, 0.0, 1.0]

    def test_n1_endpoints_under_affine_map(self):
        g = chebyshev_points(1, Domain1D(0.0, 10.0))
        assert g.nodes.tolist() == [0.0, 10.0]

    def test_n4_unit_nodes(self):
        g = chebyshev_points(4, UNIT)
        expected = [-1.0, -math.cos(math.pi / 4), 0.0, math.cos(math.pi / 4), 1.0]
        assert np.allclose(g.nodes, expected, rtol=0, atol=1e-15)

    def test_nodes_ascending_and_endpoints_exact(self):
        for n in (1, 2, 3, 7, 16, 33):
            g = chebyshev_points(n, Domain1D(-2.5, 7.25))
            assert np.all(np.diff(g.nodes) > 0)
            assert g.nodes[0] == -2.5 and g.nodes[-1] == 7.25

    def test_node_symmetry_exact_on_unit(self):
        for n in (2, 5, 10, 21):
            g = chebyshev_points(n, UNIT)
            assert np.all(g.nodes == -g.nodes[::-1])

    def test_n0_single_midpoint(self):
        g = chebyshev_points(0, Domain1D(2.0, 4.0))
        assert g.nodes.tolist() == [3.0]

    def test_centered_grid_hits_center_exactly(self):
        c = 0.12345678901234567
        g = chebyshev_points_centered(4, c, 0.731)
        assert g.nodes[2] == c

    def test_invalid_domain(self):
        with pytest.raises(DomainError):
            Domain1D(1.0, 1.0)
        with pytest.raises(DomainError):
            Domain1D(2.0, -1.0)
        with pytest.raises(DomainError):
            Domain1D(0.0, math.inf)

    def test_negative_degree(self):
        with pytest.raises(ParameterError):
            chebyshev_points(-1, UNIT)

    @pytest.mark.parametrize(
        "nodes",
        [[1.0, 0.0, -1.0], [-1.0, math.nan, 1.0], [-1.0, 0.5, 0.0, 1.0], [-0.5, 0.0, 1.0], [2.0]],
        ids=["reversed", "nan", "not-ascending", "short-of-domain", "single-outside"],
    )
    def test_grid_rejects_nodes_its_docstring_rules_out(self, nodes):
        message = r"do not ascend from -1\.0 to 1\.0, nor are they one node inside"
        with pytest.raises(ArgumentError, match=message):
            ChebyshevGrid(UNIT, np.array(nodes))
        ChebyshevGrid(UNIT, np.array([0.25]))  # a single node anywhere inside


class TestInterpolant:
    def test_constant_function(self):
        g = chebyshev_points(6, UNIT)
        p = build_interpolant(lambda x: 7.0, g)
        assert np.all(p.values == 7.0)
        assert eval_barycentric(p, 0.321) == pytest.approx(7.0, abs=1e-14)

    def test_identity_values(self):
        g = chebyshev_points(2, UNIT)
        p = build_interpolant(lambda x: x, g)
        assert p.values.tolist() == [-1.0, 0.0, 1.0]

    def test_exp_values_direct(self):
        g = chebyshev_points(5, UNIT)
        p = build_interpolant(math.exp, g)
        assert p.values[0] == math.exp(g.nodes[0])
        assert p.values[-1] == math.exp(1.0)

    def test_exactly_n_plus_1_calls(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x

        build_interpolant(f, chebyshev_points(9, UNIT))
        assert len(calls) == 10

    def test_non_finite_sample_names_node(self):
        g = chebyshev_points(3, UNIT)

        def f(x):
            return math.nan if x > 0.4 else 1.0

        with pytest.raises(SamplingError, match="node"):
            build_interpolant(f, g)

    def test_value_length_mismatch(self):
        g = chebyshev_points(3, UNIT)
        with pytest.raises(ArgumentError):
            ChebyshevInterpolant1D(grid=g, values=np.zeros(3))


class TestBarycentricEval:
    def test_quadratic_reproduced(self):
        p = build_interpolant(lambda x: x * x, chebyshev_points(2, UNIT))
        assert eval_barycentric(p, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_node_hits_bit_exact(self):
        rng = np.random.default_rng(1)
        g = chebyshev_points(11, Domain1D(-3.0, 5.0))
        vals = rng.standard_normal(12)
        p = ChebyshevInterpolant1D(grid=g, values=vals)
        for j, x in enumerate(g.nodes):
            assert eval_barycentric(p, float(x)) == vals[j]

    def test_exp_near_machine_precision(self):
        p = build_interpolant(math.exp, chebyshev_points(14, UNIT))
        assert eval_barycentric(p, 0.3) == pytest.approx(math.exp(0.3), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 10, 20])
    def test_matches_direct_lagrange(self, n):
        rng = np.random.default_rng(n)
        g = chebyshev_points(n, Domain1D(-1.5, 2.0))
        vals = rng.standard_normal(n + 1)
        p = ChebyshevInterpolant1D(grid=g, values=vals)
        xs = rng.uniform(-1.5, 2.0, size=100)
        for x in xs:
            direct = lagrange_eval(g.nodes, vals, float(x))
            got = eval_barycentric(p, float(x))
            assert abs(got - direct) <= 1e-11 * (1 + abs(direct))

    def test_many_matches_scalar(self):
        rng = np.random.default_rng(5)
        p = build_interpolant(math.cos, chebyshev_points(12, Domain1D(0.0, 3.0)))
        xs = rng.uniform(0.0, 3.0, size=64)
        batch = eval_barycentric_many(p, xs)
        scalar = np.array([eval_barycentric(p, float(x)) for x in xs])
        # test_property_kernel_is_scalar_rule_bit_for_bit pins equal bits.
        assert np.allclose(batch, scalar, rtol=1e-14, atol=1e-14)
        # Both fallbacks: every exact node hit, and 1/(x - 0.0) overflowing
        # next to the 0.0 node; each returns a stored value in both paths.
        edges = np.append(p.grid.nodes, np.nextafter(0.0, 1.0))
        batch = eval_barycentric_many(p, edges)
        scalar = np.array([eval_barycentric(p, float(x)) for x in edges])
        assert np.array_equal(batch, scalar)
        assert np.array_equal(scalar, np.append(p.values, p.values[0]))

    @given(
        m=st.integers(1, 12),
        scale=st.sampled_from([1e-300, 1.0, 1e300]),
        centred=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_kernel_is_scalar_rule_bit_for_bit(self, m, scale, centred, seed):
        rng = np.random.default_rng(seed)
        if centred:  # odd m puts a node at exactly 0.0
            g = chebyshev_points_centered(m - 1, 0.0, rng.uniform(0.5, 3.0))
        else:
            lo = rng.uniform(-5.0, 5.0)
            g = chebyshev_points(m - 1, Domain1D(lo, lo + rng.uniform(0.1, 4.0)))
        values = scale * rng.standard_normal(m)
        xs = rng.permutation(_kernel_points(g, rng))
        scalar = np.array([barycentric_eval(g.nodes, g.weights, values, float(x)) for x in xs])
        batch = barycentric_eval_many(g.nodes, g.weights, values, xs)
        assert batch.shape == xs.shape
        assert np.array_equal(bits(batch), bits(scalar))

    def test_kernel_is_scalar_rule_on_many_points_and_on_none(self):
        g = chebyshev_points(6, UNIT)
        vals = np.random.default_rng(8).standard_normal(7)
        xs = np.concatenate([np.linspace(-1, 1, 40_001), g.nodes])
        scalar = np.array([barycentric_eval(g.nodes, g.weights, vals, float(x)) for x in xs])
        assert np.array_equal(bits(barycentric_eval_many(g.nodes, g.weights, vals, xs)), bits(scalar))
        assert barycentric_eval_many(g.nodes, g.weights, vals, np.empty(0)).shape == (0,)

    def test_many_handles_node_hits(self):
        g = chebyshev_points(6, UNIT)
        vals = np.arange(7.0)
        p = ChebyshevInterpolant1D(grid=g, values=vals)
        xs = np.concatenate([g.nodes, [0.123]])
        out = eval_barycentric_many(p, xs)
        assert np.array_equal(out[:7], vals)

    def test_basis_rows_interpolate_and_snap_at_nodes(self):
        g = chebyshev_points(6, UNIT)  # the middle node is exactly 0.0
        vals = np.random.default_rng(3).standard_normal(7)
        xs = np.concatenate([g.nodes, [np.nextafter(0.0, 1.0), -0.3, 0.77]])
        basis = barycentric_basis(g.nodes, g.weights, xs)  # node-major: one column per point
        assert basis.shape == (7, 10)
        assert np.array_equal(basis[:, :7], np.eye(7))
        # 1/(x - 0.0) overflows next to the zero node: one-hot there
        assert np.array_equal(basis[:, 7], np.eye(7)[3])
        assert np.allclose(basis.sum(axis=0), 1.0, rtol=0, atol=1e-15)
        p = ChebyshevInterpolant1D(grid=g, values=vals)
        assert np.allclose(vals @ basis, eval_barycentric_many(p, xs), rtol=1e-14, atol=1e-14)

    @given(
        m=st.integers(1, 16),
        centred=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_basis_rows_are_scalar_order_bit_for_bit(self, m, centred, seed):
        rng = np.random.default_rng(seed)
        if centred:  # odd m puts a node at exactly 0.0, whose neighbours overflow
            g = chebyshev_points_centered(m - 1, 0.0, rng.uniform(0.5, 3.0))
        else:
            lo = rng.uniform(-5.0, 5.0)
            g = chebyshev_points(m - 1, Domain1D(lo, lo + rng.uniform(0.1, 4.0)))
        xs = rng.permutation(_kernel_points(g, rng))
        # column i of the node-major basis is point i's scalar row
        expected = np.array([_scalar_basis_row(g.nodes, g.weights, float(x)) for x in xs]).T
        assert np.array_equal(bits(barycentric_basis(g.nodes, g.weights, xs)), bits(expected))
        # a single point too, whose denominator numpy would sum pairwise
        one = barycentric_basis(g.nodes, g.weights, xs[:1])
        assert np.array_equal(bits(one), bits(expected[:, :1]))

    def test_polynomial_reproduction_relative_1e12(self):
        rng = np.random.default_rng(10)
        for n in (3, 6, 11):
            coeffs = rng.uniform(-2, 2, size=n + 1)
            f = np.polynomial.Polynomial(coeffs)
            p = build_interpolant(f, chebyshev_points(n, UNIT))
            xs = np.linspace(-1, 1, 1000)
            exact = f(xs)
            got = eval_barycentric_many(p, xs)
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(got - exact)) <= 1e-12 * max(scale, 1.0)

    def test_geometric_convergence_runge(self):
        f = lambda x: 1.0 / (1.0 + 25.0 * x * x)
        xs = np.linspace(-1, 1, 2000)
        errs = {}
        for n in (20, 40):
            p = build_interpolant(f, chebyshev_points(n, UNIT))
            errs[n] = np.max(np.abs(eval_barycentric_many(p, xs) - f(xs)))
        assert errs[40] / errs[20] <= 0.05

    def test_scale_invariance(self):
        dom = Domain1D(3.0, 9.0)
        f = lambda x: math.sin(x) + 0.1 * x * x
        p_ab = build_interpolant(f, chebyshev_points(13, dom))
        from_unit = lambda u: dom.mid + 0.5 * dom.width * u
        p_unit = build_interpolant(lambda u: f(from_unit(u)), chebyshev_points(13, UNIT))
        us = np.linspace(-1, 1, 257)
        xs = from_unit(us)
        a = eval_barycentric_many(p_ab, xs)
        b = eval_barycentric_many(p_unit, us)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))

    def test_clamp_and_counter(self):
        p = build_interpolant(lambda x: x, chebyshev_points(4, UNIT))
        counter = ClampCounter()
        assert eval_barycentric(p, 2.0, counter) == 1.0
        assert eval_barycentric(p, -7.0, counter) == -1.0
        assert eval_barycentric(p, 0.5, counter) == pytest.approx(0.5)
        assert counter.count == 2

    def test_clamp_counter_batch(self):
        p = build_interpolant(lambda x: x, chebyshev_points(4, UNIT))
        counter = ClampCounter()
        out = eval_barycentric_many(p, [-2.0, 0.0, 3.0, 0.2], counter)
        assert counter.count == 2
        assert out[0] == -1.0 and out[2] == 1.0

    def test_non_finite_x_rejected(self):
        p = build_interpolant(lambda x: x, chebyshev_points(4, UNIT))
        with pytest.raises(ArgumentError):
            eval_barycentric(p, math.nan)
        with pytest.raises(ArgumentError):
            eval_barycentric_many(p, [0.1, math.inf])

    def test_n0_constant_everywhere(self):
        g = chebyshev_points(0, Domain1D(1.0, 3.0))
        p = build_interpolant(lambda x: 42.0, g)
        assert eval_barycentric(p, 2.9) == 42.0
        assert eval_barycentric(p, 2.0) == 42.0

    @given(
        coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        x=st.floats(-1, 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_polynomials_match_lagrange(self, coeffs, x):
        n = max(len(coeffs) - 1, 1)
        f = np.polynomial.Polynomial(coeffs)
        g = chebyshev_points(n, UNIT)
        p = build_interpolant(f, g)
        direct = lagrange_eval(g.nodes, p.values, x)
        got = eval_barycentric(p, x)
        assert got == pytest.approx(direct, rel=1e-9, abs=1e-9)


class TestErrorBound:
    def test_bound_actually_bounds_exp(self):
        # exp is entire; any rho > 1 gives a valid bound with M = max on the
        # Bernstein ellipse: |f - p_n| <= 4 M rho^-n / (rho - 1).
        rho = 3.0
        m_bound = math.exp(0.5 * (rho + 1.0 / rho))
        xs = np.linspace(-1, 1, 500)
        for n in (4, 8, 12):
            p = build_interpolant(math.exp, chebyshev_points(n, UNIT))
            err = np.max(np.abs(eval_barycentric_many(p, xs) - np.exp(xs)))
            assert err <= 4.0 * m_bound * rho ** (-n) / (rho - 1.0)
