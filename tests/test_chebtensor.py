"""Multi-dimensional Chebyshev meshes, scalar collapse and batch contraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chebslider.chebtensor as chebtensor
from chebslider import (
    ArgumentError,
    ConfigurationError,
    ClampCounter,
    Domain1D,
    DomainError,
    HyperRectangle,
    SamplingError,
    build_mesh,
    build_tensor,
    eval_call_count,
    eval_tensor,
    eval_tensor_many,
)

from .oracles import tensor_lagrange_eval

UNIT2 = HyperRectangle((Domain1D(-1, 1), Domain1D(-1, 1)))
UNIT3 = HyperRectangle((Domain1D(-1, 1), Domain1D(-1, 1), Domain1D(-1, 1)))


class TestMesh:
    def test_three_dims_ten_points_has_1000_nodes(self):
        mesh = build_mesh(UNIT3, [10, 10, 10])
        assert mesh.size == 1000
        assert mesh.shape == (10, 10, 10)

    def test_one_dim_mesh_is_the_grid(self):
        mesh = build_mesh(HyperRectangle((Domain1D(0, 2),)), [5])
        assert mesh.ndim == 1
        assert mesh.grids[0].size == 5
        assert mesh.grids[0].domain == Domain1D(0, 2)

    def test_cartesian_pairs(self):
        mesh = build_mesh(HyperRectangle((Domain1D(-1, 1), Domain1D(0, 4))), [4, 5])
        assert mesh.size == 20
        pts = {
            (float(mesh.grids[0].nodes[i]), float(mesh.grids[1].nodes[j]))
            for i in range(4)
            for j in range(5)
        }
        assert len(pts) == 20

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            build_mesh(UNIT2, [4])

    def test_empty_box_rejected(self):
        with pytest.raises(DomainError):
            HyperRectangle(())


class TestBuildTensor:
    def test_constant(self):
        mesh = build_mesh(UNIT2, [3, 4])
        t = build_tensor(lambda v: 2.5, mesh)
        assert np.all(t.values == 2.5)

    def test_additive_values_at_nodes(self):
        mesh = build_mesh(UNIT2, [3, 3])
        t = build_tensor(lambda v: v[0] + v[1], mesh)
        for i, x in enumerate(mesh.grids[0].nodes):
            for j, y in enumerate(mesh.grids[1].nodes):
                assert t.values[i, j] == x + y

    def test_monomial_values_direct(self):
        mesh = build_mesh(UNIT2, [5, 5])
        t = build_tensor(lambda v: v[0] ** 2 * v[1] ** 3, mesh)
        i, j = 1, 4
        x, y = mesh.grids[0].nodes[i], mesh.grids[1].nodes[j]
        assert t.values[i, j] == x**2 * y**3

    def test_exact_call_count(self):
        calls = []
        mesh = build_mesh(UNIT3, [3, 4, 2])
        build_tensor(lambda v: calls.append(1) or 0.0, mesh)
        assert len(calls) == 24

    def test_non_finite_sample_reports_index(self):
        mesh = build_mesh(UNIT2, [3, 3])

        def f(v):
            return math.inf if (v[0] > 0.5 and v[1] > 0.5) else 0.0

        with pytest.raises(SamplingError, match=r"\(2, 2\)"):
            build_tensor(f, mesh)


def _domain(data):
    # A symmetric domain with an odd point count has a node at exactly 0.0,
    # whose nextafter neighbours overflow 1/(x - node).
    if data.draw(st.booleans(), label="symmetric"):
        half = data.draw(st.floats(0.01, 100.0), label="half")
        return Domain1D(-half, half)
    lo = data.draw(st.floats(-100.0, 100.0), label="lo")
    return Domain1D(lo, lo + data.draw(st.floats(0.01, 100.0), label="width"))


def _coordinate(grid, kind, j, u):
    node = float(grid.nodes[j % grid.size])
    if kind == "box":  # u outside [0, 1] lands outside the domain
        return grid.domain.lo + u * grid.domain.width
    if kind == "node":
        return node
    return float(np.nextafter(node, -math.inf if kind == "below" else math.inf))


class TestEvalTensor:
    def test_bilinear_product(self):
        mesh = build_mesh(UNIT2, [3, 3])
        t = build_tensor(lambda v: v[0] * v[1], mesh)
        assert eval_tensor(t, [0.5, -0.5]) == pytest.approx(-0.25, abs=1e-14)

    def test_mesh_nodes_return_stored_values(self):
        mesh = build_mesh(UNIT2, [4, 5])
        rng = np.random.default_rng(0)
        t = chebtensor.ChebyshevTensor(mesh=mesh, values=rng.standard_normal((4, 5)))
        for i, x in enumerate(mesh.grids[0].nodes):
            for j, y in enumerate(mesh.grids[1].nodes):
                assert eval_tensor(t, [float(x), float(y)]) == t.values[i, j]

    def test_exp_3d(self):
        mesh = build_mesh(UNIT3, [10, 10, 10])
        t = build_tensor(lambda v: math.exp(v[0] + v[1] + v[2]), mesh)
        assert eval_tensor(t, [0.1, 0.2, 0.3]) == pytest.approx(math.exp(0.6), abs=1e-8)

    @pytest.mark.parametrize(
        "shape,box",
        [
            ((4,), HyperRectangle((Domain1D(-1, 2),))),
            ((3, 5), HyperRectangle((Domain1D(-1, 1), Domain1D(0, 2)))),
            ((4, 3, 5), HyperRectangle((Domain1D(-2, -1), Domain1D(0, 1), Domain1D(1, 4)))),
            ((6, 6, 6), UNIT3),
        ],
    )
    def test_matches_nested_sum_oracle(self, shape, box):
        rng = np.random.default_rng(sum(shape))
        mesh = build_mesh(box, list(shape))
        t = chebtensor.ChebyshevTensor(mesh=mesh, values=rng.standard_normal(shape))
        node_axes = [g.nodes for g in mesh.grids]
        for _ in range(100):
            pt = [rng.uniform(d.lo, d.hi) for d in box.dims]
            direct = tensor_lagrange_eval(node_axes, t.values, pt)
            got = eval_tensor(t, pt)
            assert abs(got - direct) <= 1e-10 * (1 + abs(direct))

    def test_polynomial_exactness_monomials(self):
        mesh = build_mesh(UNIT3, [3, 4, 2])
        rng = np.random.default_rng(3)
        for a, b, c in [(2, 3, 1), (0, 0, 0), (2, 0, 1), (1, 3, 0)]:
            t = build_tensor(lambda v: v[0] ** a * v[1] ** b * v[2] ** c, mesh)
            for _ in range(20):
                pt = rng.uniform(-1, 1, size=3)
                exact = pt[0] ** a * pt[1] ** b * pt[2] ** c
                assert eval_tensor(t, pt) == pytest.approx(exact, rel=1e-11, abs=1e-11)

    def test_dimension_order_consistency(self):
        # Collapsing dim 1 first is evaluating the transposed tensor at the
        # reversed point; the interpolant is unique, so values must agree.
        rng = np.random.default_rng(7)
        mesh = build_mesh(UNIT3, [4, 5, 3])
        vals = rng.standard_normal((4, 5, 3))
        t = chebtensor.ChebyshevTensor(mesh=mesh, values=vals)
        mesh_rev = chebtensor.ChebyshevMesh(tuple(reversed(mesh.grids)))
        t_rev = chebtensor.ChebyshevTensor(mesh=mesh_rev, values=vals.transpose(2, 1, 0).copy())
        for _ in range(50):
            pt = rng.uniform(-1, 1, size=3)
            a = eval_tensor(t, pt)
            b = eval_tensor(t_rev, pt[::-1])
            assert abs(a - b) <= 1e-11 * (1 + abs(a))

    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(11)
        for shape in [(5, 4), (1, 6), (3, 4, 2), (6, 1, 5), (2, 3, 2, 3)]:
            box = HyperRectangle(tuple(Domain1D(-1.0 - i, 2.0 + i) for i in range(len(shape))))
            mesh = build_mesh(box, list(shape))
            t = build_tensor(lambda v: math.sin(v[0]) * math.cos(v[-1]) + v[1] ** 2, mesh)
            # a quarter of the coordinates fall outside the box
            xs = np.array([[rng.uniform(d.lo - 0.25 * d.width, d.hi + 0.25 * d.width)
                            for d in box.dims] for _ in range(40)])
            batch_clamps, scalar_clamps = ClampCounter(), ClampCounter()
            batch = eval_tensor_many(t, xs, batch_clamps)
            scalar = np.array([eval_tensor(t, row, scalar_clamps) for row in xs])
            assert np.allclose(batch, scalar, rtol=1e-13, atol=1e-13), shape
            assert batch_clamps.count == scalar_clamps.count > 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_batch_matches_scalar(self, data):
        d = data.draw(st.integers(2, 4), label="d")
        shape = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d), label="shape")
        mesh = build_mesh(HyperRectangle(tuple(_domain(data) for _ in shape)), shape)
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e6]), label="scale")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        values = np.random.default_rng(seed).standard_normal(shape) * scale
        t = chebtensor.ChebyshevTensor(mesh=mesh, values=values)
        coordinate = st.tuples(
            st.sampled_from(["box", "node", "below", "above"]),
            st.integers(0, 5),
            st.floats(-0.5, 1.5),
        )
        rows = data.draw(
            st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=1, max_size=20),
            label="rows",
        )
        xs = np.array([[_coordinate(g, *c) for g, c in zip(mesh.grids, row)] for row in rows])
        batch_clamps, scalar_clamps = ClampCounter(), ClampCounter()
        batch = eval_tensor_many(t, xs, batch_clamps)
        scalar = np.array([eval_tensor(t, row, scalar_clamps) for row in xs])
        tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
        assert np.max(np.abs(batch - scalar)) <= tol
        assert batch_clamps.count == scalar_clamps.count
        # points whose coordinates are all mesh nodes return the stored values bit for bit
        idx = np.array([[data.draw(st.integers(0, m - 1)) for m in shape] for _ in range(5)])
        nodes = np.array([[g.nodes[j] for g, j in zip(mesh.grids, row)] for row in idx])
        assert np.array_equal(eval_tensor_many(t, nodes), values[tuple(idx.T)])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_one_dimensional_batch_is_scalar_bit_for_bit(self, data):
        m = data.draw(st.integers(1, 12), label="m")
        mesh = build_mesh(HyperRectangle((_domain(data),)), [m])
        scale = data.draw(st.sampled_from([1e-300, 1.0, 1e300]), label="scale")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        values = np.random.default_rng(seed).standard_normal(m) * scale
        t = chebtensor.ChebyshevTensor(mesh=mesh, values=values)
        coordinate = st.tuples(
            st.sampled_from(["box", "node", "below", "above"]),
            st.integers(0, 11),
            st.floats(-0.5, 1.5),
        )
        rows = data.draw(st.lists(coordinate, min_size=1, max_size=30), label="rows")
        xs = np.array([[_coordinate(mesh.grids[0], *c)] for c in rows])
        batch_clamps, scalar_clamps = ClampCounter(), ClampCounter()
        batch = eval_tensor_many(t, xs, batch_clamps)
        scalar = np.array([eval_tensor(t, row, scalar_clamps) for row in xs])
        assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))
        assert batch_clamps.count == scalar_clamps.count

    @pytest.mark.parametrize("shape", [(5, 5), (5, 5, 5), (3, 4, 2, 3)])
    def test_batch_bits_do_not_depend_on_point_layout(self, shape):
        rng = np.random.default_rng(len(shape))
        mesh = build_mesh(HyperRectangle(tuple(Domain1D(-1, 1) for _ in shape)), shape)
        t = chebtensor.ChebyshevTensor(mesh=mesh, values=rng.standard_normal(shape))
        wide = rng.uniform(-1.2, 1.2, size=(60, 2 * len(shape)))
        for xs in (np.asfortranarray(wide[:, : len(shape)]), wide[:, ::-2], wide[::3, 1::2]):
            assert not xs.flags.c_contiguous
            clamps, copy_clamps = ClampCounter(), ClampCounter()
            got = eval_tensor_many(t, xs, clamps)
            want = eval_tensor_many(t, np.ascontiguousarray(xs), copy_clamps)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert clamps.count == copy_clamps.count > 0
        assert eval_tensor_many(t, wide[:0, : len(shape)]).shape == (0,)

    @pytest.mark.parametrize("shape", [(9, 3), (2, 12), (3, 10, 2)])
    @pytest.mark.parametrize("s", [1, 25])
    def test_one_point_and_long_axes_match_scalar(self, shape, s):
        rng = np.random.default_rng(sum(shape) + s)
        mesh = build_mesh(HyperRectangle(tuple(Domain1D(-2, 3) for _ in shape)), shape)
        values = rng.standard_normal(shape)
        t = chebtensor.ChebyshevTensor(mesh=mesh, values=values)
        xs = rng.uniform(-2.5, 3.5, size=(s, len(shape)))
        long = int(np.argmax(shape))
        xs[-1, long] = mesh.grids[long].nodes[4]  # one coordinate on a node of the long axis
        batch = eval_tensor_many(t, xs)
        scalar = np.array([eval_tensor(t, row) for row in xs])
        assert batch.shape == (s,)
        assert np.max(np.abs(batch - scalar)) <= 1e-12 * np.max(np.abs(values))

    def test_clamping_inherited_per_dimension(self):
        mesh = build_mesh(UNIT2, [4, 4])
        t = build_tensor(lambda v: v[0] + v[1], mesh)
        counter = ClampCounter()
        got = eval_tensor(t, [2.0, 0.0], counter)
        assert got == pytest.approx(1.0, abs=1e-13)
        assert counter.count == 1

    def test_dimension_mismatch(self):
        mesh = build_mesh(UNIT2, [3, 3])
        t = build_tensor(lambda v: 0.0, mesh)
        with pytest.raises(ArgumentError):
            eval_tensor(t, [0.0, 0.0, 0.0])
        with pytest.raises(ArgumentError):
            eval_tensor_many(t, np.zeros((5, 3)))


class TestEvalCallCount:
    def test_paper_example_10_10_10(self):
        assert eval_call_count([10, 10, 10]) == 111

    def test_single_dimension(self):
        assert eval_call_count([7]) == 1

    def test_two_dims(self):
        assert eval_call_count([4, 5]) == 5

    def test_general_formula(self):
        assert eval_call_count([2, 3, 4, 5]) == 2 * 3 * 4 + 2 * 3 + 2 + 1

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            eval_call_count([])

    @pytest.mark.parametrize("dims", [[10, 10, 10], [4, 5], [7], [2, 3, 4], [5, 1, 2]])
    def test_instrumented_eval_matches_formula(self, dims, monkeypatch):
        calls = {"n": 0}
        real = chebtensor.barycentric_eval

        def counting(nodes, weights, values, x):
            calls["n"] += 1
            return real(nodes, weights, values, x)

        monkeypatch.setattr(chebtensor, "barycentric_eval", counting)
        box = HyperRectangle(tuple(Domain1D(-1, 1) for _ in dims))
        mesh = build_mesh(box, dims)
        t = build_tensor(lambda v: float(np.sum(v)), mesh)
        eval_tensor(t, [0.1] * len(dims))
        assert calls["n"] == eval_call_count(dims)

    def test_batch_eval_makes_no_scalar_calls(self, monkeypatch):
        calls = {"n": 0}
        real = chebtensor.barycentric_eval

        def counting(nodes, weights, values, x):
            calls["n"] += 1
            return real(nodes, weights, values, x)

        monkeypatch.setattr(chebtensor, "barycentric_eval", counting)
        mesh = build_mesh(UNIT3, [5, 5, 5])
        t = build_tensor(lambda v: float(np.sum(v)), mesh)
        xs = np.random.default_rng(2).uniform(-1.2, 1.2, size=(1000, 3))
        assert np.allclose(eval_tensor_many(t, xs), np.clip(xs, -1, 1).sum(axis=1), atol=1e-13)
        assert calls["n"] == 0
