"""Slider construction, additive pivot-anchored evaluation and serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebslider import (
    ArgumentError,
    ConfigurationError,
    ClampCounter,
    Domain1D,
    HyperRectangle,
    SliderConfig,
    build_slider,
    eval_slider,
    eval_slider_many,
    parse_slider_tuple,
)
from chebslider.slider import slider_from_dict, slider_to_dict

from .oracles import InstrumentedPricer


def unit_box(n):
    return HyperRectangle(tuple(Domain1D(-1.0, 1.0) for _ in range(n)))


def bits(a):
    """The IEEE bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def _probe_rows(s, rng, rows):
    """The pivot, then rows whose coordinates are slide nodes, their nextafter
    neighbours, points in the box or points up to 30% beyond it (clamped)."""
    grids = {j: g for sl in s.slides for j, g in zip(sl.coord_indices, sl.tensor.mesh.grids)}
    out = [np.array(s.pivot)]
    for _ in range(rows):
        row = np.empty(s.ndim)
        for j, g in grids.items():
            node = g.nodes[rng.integers(g.size)]
            lo, hi, w = g.domain.lo, g.domain.hi, g.domain.width
            row[j] = (
                node,
                np.nextafter(node, -math.inf),
                np.nextafter(node, math.inf),
                rng.uniform(lo, hi),
                rng.uniform(lo - 0.3 * w, hi + 0.3 * w),
            )[rng.integers(5)]
        out.append(row)
    return np.array(out)


def _mixed_slider():
    # 3-D, 2-D and 1-D slides; the 1-D ones have two node counts.
    def f(v):
        return float(np.exp(0.3 * v[0] - 0.2 * v[1]) * np.cos(v[2]) + v[3] * v[4] + np.sin(v[5:]).sum())

    box = HyperRectangle(tuple(Domain1D(-1.0, 1.5) for _ in range(8)))
    pivot = np.array([0.1, -0.2, 0.3, 0.0, 0.7, -0.5, 0.2, 0.4])
    config = SliderConfig((1, 3, 2, 1, 1), (5, 3, 5, 3, 5), permutation=(5, 0, 1, 2, 3, 4, 6, 7))
    return build_slider(f, box, pivot, config)


class TestSliderConfig:
    def test_tuple_sum(self):
        cfg = SliderConfig(slide_dims=(3, 1, 1), points_per_dim=5)
        assert cfg.total_dim == 5
        assert cfg.points_per_dim == (5, 5, 5)

    def test_per_slide_points(self):
        cfg = SliderConfig(slide_dims=(2, 1), points_per_dim=[7, 3])
        assert cfg.points_per_dim == (7, 3)

    def test_bad_dims(self):
        with pytest.raises(ConfigurationError):
            SliderConfig(slide_dims=(0, 1))
        with pytest.raises(ConfigurationError):
            SliderConfig(slide_dims=(1, 1), points_per_dim=(5,))

    def test_permutation_validated(self):
        with pytest.raises(ConfigurationError):
            SliderConfig(slide_dims=(1, 1), permutation=(0, 2))


class TestParseSliderTuple:
    def test_plain(self):
        assert parse_slider_tuple("1,1,1") == (1, 1, 1)

    def test_repeat(self):
        assert parse_slider_tuple("1x20") == (1,) * 20

    def test_mixed(self):
        assert parse_slider_tuple("3,1x17") == (3,) + (1,) * 17

    def test_fill(self):
        assert parse_slider_tuple("2,1x*", 20) == (2,) + (1,) * 18

    def test_fill_requires_total(self):
        with pytest.raises(ConfigurationError):
            parse_slider_tuple("1x*")

    def test_sum_checked(self):
        with pytest.raises(ConfigurationError):
            parse_slider_tuple("1x3", 5)

    def test_braces_accepted(self):
        assert parse_slider_tuple("{2,1,1}") == (2, 1, 1)

    @pytest.mark.parametrize("text", ["foo", "0x*", "1x0", "x3", "3x", "2,-1", "1.5"])
    def test_malformed_entries_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_slider_tuple(text, 3)


class TestBuildSlider:
    def test_call_count_ones_config(self):
        f = InstrumentedPricer(lambda v: float(np.sum(v)))
        s = build_slider(f, unit_box(20), np.zeros(20), SliderConfig((1,) * 20, 5))
        assert s.build_call_count == 1 + 20 * 5 == 101
        assert f.call_count == s.build_call_count

    def test_call_count_2_1_config(self):
        f = InstrumentedPricer(lambda v: float(np.sum(v)))
        s = build_slider(f, unit_box(20), np.zeros(20), SliderConfig((2,) + (1,) * 18, 5))
        assert s.build_call_count == 1 + 25 + 18 * 5 == 116
        assert f.call_count == 116

    def test_call_count_3_1_config(self):
        f = InstrumentedPricer(lambda v: float(np.sum(v)))
        s = build_slider(f, unit_box(20), np.zeros(20), SliderConfig((3,) + (1,) * 17, 5))
        assert s.build_call_count == 1 + 125 + 17 * 5 == 211

    def test_single_slide_is_full_mesh(self):
        f = InstrumentedPricer(lambda v: float(np.prod(v)))
        s = build_slider(f, unit_box(3), np.zeros(3), SliderConfig((3,), 10))
        assert s.build_call_count == 1 + 1000
        assert len(s.slides) == 1

    def test_slides_store_exact_restrictions(self):
        pivot = np.array([0.25, -0.5])
        f = lambda v: float(v[0] + v[1])
        s = build_slider(f, unit_box(2), pivot, SliderConfig((1, 1), 5))
        t0, t1 = s.slides[0].tensor, s.slides[1].tensor
        assert np.allclose(t0.values, t0.mesh.grids[0].nodes + pivot[1], atol=1e-15)
        assert np.allclose(t1.values, pivot[0] + t1.mesh.grids[0].nodes, atol=1e-15)

    def test_partition_covers_all_coordinates_once(self):
        s = build_slider(
            lambda v: 0.0, unit_box(7), np.zeros(7), SliderConfig((3, 2, 1, 1), 3)
        )
        seen = [j for slide in s.slides for j in slide.coord_indices]
        assert sorted(seen) == list(range(7))

    def test_permutation_respected(self):
        cfg = SliderConfig((2, 1), points_per_dim=3, permutation=(2, 0, 1))
        s = build_slider(lambda v: 0.0, unit_box(3), np.zeros(3), cfg)
        assert s.slides[0].coord_indices == (2, 0)
        assert s.slides[1].coord_indices == (1,)

    def test_pivot_must_be_inside(self):
        with pytest.raises(ArgumentError):
            build_slider(lambda v: 0.0, unit_box(2), [2.0, 0.0], SliderConfig((1, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            build_slider(lambda v: 0.0, unit_box(3), np.zeros(3), SliderConfig((1, 1)))

    def test_slide_domains_cover_requested_box(self):
        pivot = np.array([0.5, -0.25])
        box = HyperRectangle((Domain1D(-1.0, 2.0), Domain1D(-2.0, 1.0)))
        s = build_slider(lambda v: 0.0, box, pivot, SliderConfig((1, 1), 5))
        for j, d in enumerate(s.box.dims):
            assert d.lo <= box.dims[j].lo and d.hi >= box.dims[j].hi
            # symmetric around the pivot
            assert d.lo + d.hi == pytest.approx(2 * pivot[j], abs=1e-12)


class TestEvalSlider:
    def test_pivot_returns_pivot_value_exactly(self):
        pivot = np.array([0.1, -0.4, 0.7])
        f = lambda v: math.exp(v[0]) * math.cos(v[1]) + v[2] ** 3
        s = build_slider(f, unit_box(3), pivot, SliderConfig((1, 1, 1), 5))
        assert eval_slider(s, pivot) == s.pivot_value
        assert s.pivot_value == f(pivot)

    def test_additive_function_exact(self):
        f = lambda v: float(2.0 * v[0] + 3.0 * v[1])
        s = build_slider(f, unit_box(2), np.zeros(2), SliderConfig((1, 1), 5))
        assert eval_slider(s, [0.3, 0.4]) == pytest.approx(1.8, abs=1e-12)

    def test_cross_term_gap_documented(self):
        # A {1,1} slider cannot represent x*y: at (1,1) it returns 0, not 1.
        f = lambda v: float(v[0] * v[1])
        s = build_slider(f, unit_box(2), np.zeros(2), SliderConfig((1, 1), 5))
        assert eval_slider(s, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_config_refinement_two_coordinate_interaction(self):
        # f interacts only through the first two coordinates; grouping them
        # into one slide removes the error entirely.
        rng = np.random.default_rng(2)
        f = lambda v: float(v[0] * v[1] + np.sum(v[2:] ** 2))
        pivot = np.zeros(5)
        s_ones = build_slider(f, unit_box(5), pivot, SliderConfig((1,) * 5, 5))
        s_two = build_slider(f, unit_box(5), pivot, SliderConfig((2, 1, 1, 1), 5))
        pts = rng.uniform(-1, 1, size=(1000, 5))
        exact = pts[:, 0] * pts[:, 1] + np.sum(pts[:, 2:] ** 2, axis=1)
        err_ones = np.max(np.abs(eval_slider_many(s_ones, pts) - exact))
        err_two = np.max(np.abs(eval_slider_many(s_two, pts) - exact))
        assert err_two <= err_ones
        assert err_two <= 1e-10

    def test_eval_many_matches_scalar(self):
        f = lambda v: float(np.sin(v[0]) + v[1] * v[2])
        s = build_slider(f, unit_box(3), np.zeros(3), SliderConfig((2, 1), 4))
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(30, 3))
        batch = eval_slider_many(s, pts)
        scalar = np.array([eval_slider(s, p) for p in pts])
        assert np.allclose(batch, scalar, rtol=1e-13, atol=1e-13)

    def test_eval_many_matches_scalar_with_3d_slide(self):
        def f(v):
            return float(np.exp(0.3 * v[0] - 0.2 * v[1]) * np.cos(v[2]) + v[3] * v[4] + v[0] * v[4])

        box = HyperRectangle(tuple(Domain1D(-1.0, 1.5) for _ in range(5)))
        pivot = np.array([0.1, -0.2, 0.3, 0.0, 0.7])
        s = build_slider(f, box, pivot, SliderConfig(parse_slider_tuple("3,1x*", 5), 5))
        rng = np.random.default_rng(9)
        pts = np.vstack([pivot, rng.uniform(-1.5, 2.0, size=(200, 5))])
        batch_clamps, scalar_clamps = ClampCounter(), ClampCounter()
        batch = eval_slider_many(s, pts, batch_clamps)
        scalar = np.array([eval_slider(s, p, scalar_clamps) for p in pts])
        assert np.max(np.abs(batch - scalar)) <= 1e-12 * max(1.0, np.max(np.abs(scalar)))
        assert batch_clamps.count == scalar_clamps.count > 0
        assert batch[0] == scalar[0] == s.pivot_value

    @given(
        counts=st.lists(st.sampled_from([1, 3, 5, 7]), min_size=1, max_size=6),
        shuffle=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(counts=[3, 5, 5, 7], shuffle=True, seed=7)
    @settings(max_examples=60, deadline=None)
    def test_property_all_1d_batch_is_scalar_bit_for_bit(self, counts, shuffle, seed):
        n = len(counts)
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-2.0, 2.0, size=n)

        def f(v):
            return float(np.sum(np.sin(coeffs * v)) + v[0] * v[-1])

        lo = rng.uniform(-3.0, 1.0, size=n)
        box = HyperRectangle(tuple(Domain1D(a, a + w) for a, w in zip(lo, rng.uniform(0.5, 3.0, n))))
        pivot = np.array([rng.uniform(d.lo, d.hi) for d in box.dims])
        perm = tuple(int(i) for i in rng.permutation(n)) if shuffle else None
        s = build_slider(f, box, pivot, SliderConfig((1,) * n, tuple(counts), permutation=perm))
        pts = _probe_rows(s, rng, 40)
        batch_clamps, scalar_clamps = ClampCounter(), ClampCounter()
        batch = eval_slider_many(s, pts, batch_clamps)
        scalar = np.array([eval_slider(s, p, scalar_clamps) for p in pts])
        assert np.array_equal(bits(batch), bits(scalar))
        assert batch_clamps.count == scalar_clamps.count
        assert batch[0] == s.pivot_value

    def test_mixed_slider_matches_scalar_and_counts_clamps(self):
        s = _mixed_slider()
        pts = _probe_rows(s, np.random.default_rng(5), 300)
        batch_clamps, scalar_clamps = ClampCounter(), ClampCounter()
        batch = eval_slider_many(s, pts, batch_clamps)
        scalar = np.array([eval_slider(s, p, scalar_clamps) for p in pts])
        assert np.max(np.abs(batch - scalar)) <= 1e-12 * max(1.0, np.max(np.abs(scalar)))
        assert batch_clamps.count == scalar_clamps.count > 0
        assert batch[0] == scalar[0] == s.pivot_value

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_1d_coordinate_rejected(self, bad):
        s = _mixed_slider()
        pts = np.tile(s.pivot, (4, 1))
        pts[2, 5] = bad  # coordinate 5 is the first, 1-D slide
        with pytest.raises(ArgumentError, match="evaluation points must be finite"):
            eval_slider_many(s, pts)

    @pytest.mark.parametrize("tuple_", ["1x8", "3,1x*", "3,2,1x*"])
    def test_read_only_points_left_untouched(self, tuple_):
        f = lambda v: float(np.sum(np.sin(v)) + v[0] * v[1])
        s = build_slider(f, unit_box(8), np.zeros(8), SliderConfig(parse_slider_tuple(tuple_, 8), 5))
        pts = np.random.default_rng(1).uniform(-1.5, 1.5, size=(50, 8))  # clamps in place
        before = pts.copy()
        pts.flags.writeable = False
        counter = ClampCounter()
        eval_slider_many(s, pts, counter)
        assert counter.count > 0
        assert np.array_equal(bits(pts), bits(before))

    @pytest.mark.parametrize("tuple_", ["1x4", "2,1,1", "3,1", "1,3", "2,2"])
    def test_zero_rows_give_an_empty_result(self, tuple_):
        dims = parse_slider_tuple(tuple_, 4)
        points = (3, 5, 5, 3)[: len(dims)]  # 1-D slides of two node counts
        s = build_slider(lambda v: float(np.sum(v)), unit_box(4), np.zeros(4), SliderConfig(dims, points))
        assert eval_slider_many(s, np.empty((0, 4))).shape == (0,)

    def test_transient_memory_stays_small(self):
        # Transient arrays past glibc's trim threshold are handed back to the
        # OS after each call and faulted in again on the next, which shows up
        # as wall time in every repeated evaluation; this bounds what one call
        # allocates. The 1-D kernel's work arrays take 24 bytes per point
        # (numerator, denominator and one term), well under 4 * xs.nbytes.
        n = 20
        s = build_slider(lambda v: float(np.sum(np.cos(v))), unit_box(n), np.zeros(n),
                         SliderConfig((1,) * n, 5))
        xs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4000, n))
        clamped = np.arange(xs.size).reshape(xs.shape) % 6 == 0
        xs[clamped] = np.where(xs[clamped] < 0, -1.5, 1.5)
        counter = ClampCounter()
        tracemalloc.start()
        try:
            eval_slider_many(s, xs, counter)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counter.count == np.count_nonzero(clamped)
        assert peak <= 4 * xs.nbytes

    def test_clamping_counted(self):
        f = lambda v: float(v[0] + v[1])
        s = build_slider(f, unit_box(2), np.zeros(2), SliderConfig((1, 1), 5))
        counter = ClampCounter()
        eval_slider(s, [4.0, 0.0], counter)
        assert counter.count == 1

    def test_wrong_dimension(self):
        s = build_slider(lambda v: 0.0, unit_box(2), np.zeros(2), SliderConfig((1, 1)))
        with pytest.raises(ArgumentError):
            eval_slider(s, [0.0])

    @given(
        phi=st.lists(
            st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_additive_polynomials_exact(self, phi, seed):
        # f(x) = sum_i (a_i x_i^2 + b_i x_i + c_i) is reproduced by any
        # configuration with >= 3 points per dimension.
        n = len(phi)
        coeffs = np.asarray(phi)

        def f(v):
            return float(np.sum(coeffs[:, 0] * v**2 + coeffs[:, 1] * v + coeffs[:, 2]))

        rng = np.random.default_rng(seed)
        pivot = rng.uniform(-0.5, 0.5, size=n)
        dims = [1] * n
        if n >= 2:
            dims = [2] + [1] * (n - 2)
        s = build_slider(f, unit_box(n), pivot, SliderConfig(tuple(dims), 5))
        pts = rng.uniform(-1, 1, size=(20, n))
        exact = np.array([f(p) for p in pts])
        got = eval_slider_many(s, pts)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(got - exact)) <= 1e-11 * scale


def _json_round_trip(s):
    return slider_from_dict(json.loads(json.dumps(slider_to_dict(s))))


class TestSerialization:
    def _sample_slider(self):
        f = lambda v: float(np.exp(v[0]) + v[1] * v[2] - 0.5 * v[3] ** 2)
        box = HyperRectangle(
            (Domain1D(-1, 1), Domain1D(0, 2), Domain1D(-3, -1), Domain1D(0.5, 1.5))
        )
        pivot = np.array([0.2, 1.0, -2.0, 1.0])
        return build_slider(f, box, pivot, SliderConfig((2, 1, 1), 5))

    def test_round_trip_bit_exact(self):
        s = self._sample_slider()
        s2 = _json_round_trip(s)
        assert np.array_equal(s2.pivot, s.pivot)
        assert s2.pivot_value == s.pivot_value
        assert s2.build_call_count == s.build_call_count
        for a, b in zip(s.slides, s2.slides):
            assert a.coord_indices == b.coord_indices
            assert np.array_equal(a.tensor.values, b.tensor.values)
            for ga, gb in zip(a.tensor.mesh.grids, b.tensor.mesh.grids):
                assert np.array_equal(ga.nodes, gb.nodes)
                assert ga.domain == gb.domain

    def test_round_trip_evaluates_identically(self):
        s = self._sample_slider()
        s2 = _json_round_trip(s)
        rng = np.random.default_rng(9)
        pts = np.column_stack(
            [rng.uniform(d.lo, d.hi, size=25) for d in s.box.dims]
        )
        assert np.array_equal(eval_slider_many(s, pts), eval_slider_many(s2, pts))

    def test_degenerate_single_point_slide_round_trip(self):
        f = lambda v: float(v[0] + 10.0)
        s = build_slider(
            f, unit_box(2), np.zeros(2), SliderConfig((1, 1), points_per_dim=(5, 1))
        )
        s2 = _json_round_trip(s)
        assert eval_slider(s2, [0.5, 0.9]) == eval_slider(s, [0.5, 0.9])

    def test_rejects_wrong_kind(self):
        doc = slider_to_dict(self._sample_slider())
        doc["kind"] = "something_else"
        with pytest.raises(ArgumentError):
            slider_from_dict(doc)

    @pytest.mark.parametrize(
        "pivot_dim, coords, message",
        [
            (4, [[0, 1], [2], [4]], r"must be 0\.\.3, each once, got \[0, 1, 2, 4\]"),
            # if accepted, evaluation would count coordinate 2 twice
            (3, [[0, 1], [2], [2]], r"must be 0\.\.2, each once, got \[0, 1, 2, 2\]"),
            (3, [[0], [1], [2]], r"a slide of 2 grids lists coordinates \(0,\)"),
        ],
        ids=["out-of-range", "repeated", "fewer-than-grids"],
    )
    def test_rejects_coordinates_other_than_each_once(self, pivot_dim, coords, message):
        doc = slider_to_dict(self._sample_slider())
        doc["pivot"] = doc["pivot"][:pivot_dim]
        for sd, c in zip(doc["slides"], coords):
            sd["coord_indices"] = c
        with pytest.raises(ArgumentError, match=message):
            slider_from_dict(doc)

    # a nested list held one grid's nodes as a (1, 5) array and evaluated wrong
    @pytest.mark.parametrize("nodes, shape", [("nested", r"\(1, 5\)"), ("empty", r"\(0,\)")])
    def test_rejects_nodes_other_than_a_flat_list(self, nodes, shape):
        doc = slider_to_dict(self._sample_slider())
        grid = doc["slides"][1]["tensor"]["mesh"]["grids"][0]
        grid["nodes"] = [grid["nodes"]] if nodes == "nested" else []
        message = r"slides\[1\]: grids\[0\]: nodes must be a non-empty 1-D array, got shape "
        with pytest.raises(ArgumentError, match=message + shape):
            slider_from_dict(doc)

    def test_rejects_values_short_of_the_mesh(self):
        doc = slider_to_dict(self._sample_slider())
        doc["slides"][0]["tensor"]["values"].pop()
        message = r"slides\[0\]: values shape \(4, 5\) does not match mesh shape \(5, 5\)"
        with pytest.raises(ArgumentError, match=message):
            slider_from_dict(doc)

    def test_json_document_is_plain_data(self):
        doc = json.loads(json.dumps(slider_to_dict(self._sample_slider())))
        assert doc["schema_version"] == 2
        assert doc["kind"] == "chebyshev_slider"
        assert len(doc["slides"]) == 3
