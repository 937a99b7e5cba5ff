"""PCA models, block reduction and Orthogonal Chebyshev Sliders."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chebslider import (
    ArgumentError,
    ClampCounter,
    ConfigurationError,
    OrthogonalSlider,
    ParameterError,
    PcaBlock,
    PcaBlockSpec,
    SliderConfig,
    build_orthogonal_slider,
    eval_orthogonal_slider,
    eval_orthogonal_slider_many,
    fit_pca,
    generate_synthetic_history,
    load_orthogonal_slider,
    project,
    reconstruct,
    reconstruct_through,
    save_orthogonal_slider,
    shocked_pricer,
)
from chebslider.demo import swaps_demo, swaptions_demo
from chebslider.orthopca import orthogonal_slider_from_dict, orthogonal_slider_to_dict
from chebslider.riskengine import BlockLayout

from .oracles import InstrumentedPricer


def _full_svd_pca(data, k):
    """(mean, components, explained variance) from the full thin SVD, U included."""
    mean = data.mean(axis=0)
    _, sv, vt = np.linalg.svd(data - mean, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return mean, components, sv[:k] ** 2 / (len(data) - 1)


@st.composite
def _planted_history(draw):
    """(data, k): centered U diag(sigma) V^T with halving sigma, shifted by a mean row.

    Shapes: tall (s >= 11n/6, where dgesdd factors QR first), short (n <= s
    < 11n/6) and wide (s < n).
    """
    shape = draw(st.sampled_from(("tall", "short", "wide")))
    n = draw(st.integers(3, 10))
    if shape == "tall":
        s = draw(st.integers(11 * n // 6, 4 * n))
    elif shape == "short":
        s = draw(st.integers(n, 11 * n // 6 - 1))
    else:
        s = draw(st.integers(2, n - 1))
    rank = draw(st.integers(1, min(n, s - 1, 6)))
    k = draw(st.integers(1, rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Columns 1.. of this Q are orthonormal and orthogonal to the ones vector.
    u, _ = np.linalg.qr(np.hstack([np.ones((s, 1)), rng.standard_normal((s, rank))]))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    sigma = rng.uniform(0.1, 10.0) * 2.0 ** -np.arange(rank)
    return (u[:, 1:] * sigma) @ v.T + rng.standard_normal(n), k


@pytest.fixture(scope="module")
def demo_sliders():
    """Per demo book: (shocks, pricer, orthogonal slider) on the default PCA blocks.

    The swaps book gets a 1-D and a 2-D slide, the swaptions book a 3-D
    slide and seventeen 1-D slides.
    """
    out = {}
    for demo, slides in ((swaps_demo(), (1, 2)), (swaptions_demo(), (3,) + (1,) * 17)):
        shocks = generate_synthetic_history(demo.synthetic, 42).shocks
        layout = BlockLayout.from_doc(demo.blocks_doc(), demo.factor_names)
        pricer = shocked_pricer(list(demo.portfolio), demo.market)
        os_ = build_orthogonal_slider(
            pricer, shocks, layout.pca_spec(), SliderConfig(slides, 5), np.zeros(shocks.shape[1])
        )
        out[demo.name] = (shocks, pricer, os_)
    return out


class TestFitPca:
    def test_rank_one_line(self):
        t = np.linspace(-2, 2, 50)
        direction = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        data = np.outer(t, direction)
        m = fit_pca(data, 1)
        assert np.allclose(np.abs(m.components[0]), np.abs(direction), atol=1e-12)
        recon = reconstruct(m, project(m, data))
        assert np.max(np.abs(recon - data)) <= 1e-10

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 6))
        m = fit_pca(data, 6)
        x = rng.standard_normal(6)
        assert np.max(np.abs(reconstruct(m, project(m, x)) - x)) <= 1e-10

    def test_hand_svd_three_points(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        m = fit_pca(data, 1)
        assert np.allclose(m.mean, [1.0, 0.0])
        assert np.allclose(m.components, [[1.0, 0.0]], atol=1e-12)
        assert m.explained_variance[0] == pytest.approx(1.0)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 5))
        m = fit_pca(data, 5)
        for row in m.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((25, 8)) @ np.diag([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
        m = fit_pca(data, 6)
        gram = m.components @ m.components.T
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-10

    def test_explained_variance_sorted(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((100, 7))
        m = fit_pca(data, 7)
        assert np.all(np.diff(m.explained_variance) <= 1e-12)
        assert np.all(m.explained_variance >= 0)

    def test_reconstruction_mse_non_increasing_in_k(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((60, 10)) * np.linspace(3, 0.1, 10)
        prev = np.inf
        for k in range(1, 11):
            m = fit_pca(data, k)
            mse = float(np.mean((reconstruct(m, project(m, data)) - data) ** 2))
            assert mse <= prev + 1e-12
            prev = mse

    def test_k_bounds(self):
        data = np.zeros((3, 4))
        with pytest.raises(ParameterError):
            fit_pca(data, 4)  # k > s rank limit (min(n, s) = 3)
        with pytest.raises(ParameterError):
            fit_pca(data, 0)
        with pytest.raises(ParameterError):
            fit_pca(np.zeros((1, 4)), 1)

    @given(case=_planted_history())
    @settings(max_examples=80, deadline=None)
    def test_property_matches_full_svd(self, case):
        data, k = case
        m = fit_pca(data, k)
        mean, components, explained = _full_svd_pca(data, k)
        assert np.array_equal(m.mean, mean)
        assert np.all(np.abs(m.explained_variance - explained) <= 1e-12 * explained)
        assert np.max(np.abs(m.components - components)) <= 1e-10

    def test_full_svd_bits_on_demo_blocks(self, demo_sliders):
        # Tall blocks take dgesdd's own QR path, so every component is the same bits.
        for shocks, _, os_ in demo_sliders.values():
            for b in os_.block_spec.blocks:
                block = shocks[:, list(b.coord_indices)]
                n = block.shape[1]
                m = fit_pca(block, n)
                mean, components, explained = _full_svd_pca(block, n)
                assert np.array_equal(m.mean, mean)
                assert np.array_equal(m.components, components)
                assert np.array_equal(m.explained_variance, explained)

    def test_zero_variance_flagged(self):
        data = np.ones((5, 3)) * 2.7
        m = fit_pca(data, 2)
        assert m.zero_variance
        assert np.all(m.explained_variance == 0)
        assert np.allclose(m.components @ m.components.T, np.eye(2))

    @given(
        data=arrays(
            float,
            (12, 5),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        k=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_projection_idempotent(self, data, k):
        if not (data - data.mean(axis=0)).any():
            return
        m = fit_pca(data, k)
        y = project(m, data)
        y2 = project(m, reconstruct(m, y))
        assert np.max(np.abs(y2 - y)) <= 1e-10 * (1 + np.max(np.abs(y)))


class TestProjectReconstruct:
    def test_mean_projects_to_zero(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((20, 4))
        m = fit_pca(data, 3)
        assert np.max(np.abs(project(m, m.mean))) <= 1e-12

    def test_zero_reconstructs_to_mean(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((20, 4))
        m = fit_pca(data, 2)
        assert np.array_equal(reconstruct(m, np.zeros(2)), m.mean)

    def test_rank_one_projection_by_hand(self):
        t = np.linspace(-1, 1, 9)
        direction = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        data = np.outer(t, direction)
        m = fit_pca(data, 1)
        y = project(m, np.array([1.0, 1.0, 0.0]))
        assert y[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_projection_idempotent_1e12(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((30, 5))
        m = fit_pca(data, 3)
        y = project(m, data)
        y2 = project(m, reconstruct(m, y))
        assert np.max(np.abs(y2 - y)) <= 1e-12 * max(1.0, float(np.max(np.abs(y))))

    def test_length_mismatch(self):
        m = fit_pca(np.random.default_rng(7).standard_normal((10, 3)), 2)
        with pytest.raises(ArgumentError):
            project(m, np.zeros(4))
        with pytest.raises(ArgumentError):
            reconstruct(m, np.zeros(3))


class TestBlockSpec:
    def test_disjoint_required(self):
        with pytest.raises(ConfigurationError):
            PcaBlockSpec(
                (
                    PcaBlock("a", (0, 1), 1),
                    PcaBlock("b", (1, 2), 1),
                )
            )

    def test_cover_check(self):
        spec = PcaBlockSpec((PcaBlock("a", (0, 2), 1), PcaBlock("b", (1,), 1)))
        spec.validate_cover(3)
        with pytest.raises(ConfigurationError):
            spec.validate_cover(4)

    def test_reduced_dim_and_offsets(self):
        spec = PcaBlockSpec((PcaBlock("a", (0, 1, 2), 2), PcaBlock("b", (3, 4), 1)))
        assert spec.reduced_dim == 3
        assert spec.offsets() == [0, 2]


def _linear_pricer(weights):
    w = np.asarray(weights, dtype=float)
    return InstrumentedPricer(lambda shock: float(w @ shock + 1000.0))


def _correlated_history(rng, s, n, decay=0.6):
    lam = decay ** np.arange(n)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return rng.standard_normal((s, n)) * np.sqrt(lam) @ basis.T


class TestOrthogonalSlider:
    def test_build_cost_matches_savings_example(self):
        # One block, k=3, {1,1,1}, 5 points: 16 calls; on 3,131 scenarios
        # that is a 99.49% saving.
        rng = np.random.default_rng(8)
        shocks = _correlated_history(rng, 200, 12)
        pricer = _linear_pricer(rng.uniform(-1, 1, 12))
        spec = PcaBlockSpec((PcaBlock("all", tuple(range(12)), 3),))
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((1, 1, 1), 5), np.zeros(12)
        )
        assert pricer.call_count == 16
        assert os_.slider.build_call_count == 16
        assert 1 - 16 / 3131 == pytest.approx(0.9949, abs=5e-5)

    def test_two_blocks_concatenate_dimensions(self):
        rng = np.random.default_rng(9)
        shocks = np.hstack(
            [_correlated_history(rng, 150, 6), _correlated_history(rng, 150, 4)]
        )
        pricer = _linear_pricer(rng.uniform(-1, 1, 10))
        spec = PcaBlockSpec(
            (PcaBlock("rates", tuple(range(6)), 3), PcaBlock("vols", tuple(range(6, 10)), 2))
        )
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((1,) * 5, 5), np.zeros(10)
        )
        assert os_.block_spec.reduced_dim == 5
        assert os_.slider.ndim == 5

    def test_linear_pricer_lossless_pca_matches_brute(self):
        rng = np.random.default_rng(10)
        n = 7
        shocks = _correlated_history(rng, 300, n)
        w = rng.uniform(-2, 2, n)
        pricer = _linear_pricer(w)
        spec = PcaBlockSpec((PcaBlock("all", tuple(range(n)), n),))
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((1,) * n, 5), np.zeros(n)
        )
        brute = np.array([w @ row + 1000.0 for row in shocks])
        got = eval_orthogonal_slider_many(os_, shocks)
        assert np.max(np.abs(got - brute)) <= 1e-9 * np.max(np.abs(brute))

    def test_base_shock_evaluates_to_pivot_value(self):
        rng = np.random.default_rng(11)
        n = 5
        shocks = _correlated_history(rng, 100, n)
        pricer = InstrumentedPricer(lambda v: float(np.sin(v).sum()))
        spec = PcaBlockSpec((PcaBlock("all", tuple(range(n)), 3),))
        base = shocks[0]
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((1, 1, 1), 5), base
        )
        assert eval_orthogonal_slider(os_, base) == os_.slider.pivot_value

    def test_evaluation_needs_no_pricer_calls(self):
        rng = np.random.default_rng(12)
        n = 6
        shocks = _correlated_history(rng, 120, n)
        pricer = _linear_pricer(rng.uniform(-1, 1, n))
        spec = PcaBlockSpec((PcaBlock("all", tuple(range(n)), 4),))
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((1,) * 4, 5), np.zeros(n)
        )
        before = pricer.call_count
        eval_orthogonal_slider_many(os_, rng.standard_normal((500, n)) * 0.1)
        assert pricer.call_count == before

    def test_monotone_correlation_in_k(self):
        rng = np.random.default_rng(13)
        n = 8
        shocks = _correlated_history(rng, 400, n, decay=0.7)
        w = rng.uniform(-1, 1, n)
        brute = shocks @ w
        corrs = []
        for k in range(1, n + 1):
            m = fit_pca(shocks, k)
            repriced = reconstruct(m, project(m, shocks)) @ w
            corrs.append(float(np.corrcoef(brute, repriced)[0, 1]))
        assert all(b >= a - 1e-9 for a, b in zip(corrs, corrs[1:]))
        assert corrs[-1] == pytest.approx(1.0, abs=1e-10)

    def test_reconstruct_through_is_projection_composition(self):
        rng = np.random.default_rng(14)
        shocks = _correlated_history(rng, 60, 6)
        pricer = _linear_pricer(np.ones(6))
        spec = PcaBlockSpec(
            (PcaBlock("a", (0, 1, 2), 2), PcaBlock("b", (3, 4, 5), 2))
        )
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((1,) * 4, 5), np.zeros(6)
        )
        x = shocks[7]
        got = reconstruct_through(os_, x)
        for b, m in zip(spec.blocks, os_.models):
            cols = list(b.coord_indices)
            assert np.allclose(got[cols], reconstruct(m, project(m, x[cols])), atol=1e-14)

    def test_clamp_counter_flags_out_of_hull_projection(self):
        rng = np.random.default_rng(15)
        n = 4
        shocks = _correlated_history(rng, 80, n)
        pricer = _linear_pricer(np.ones(n))
        spec = PcaBlockSpec((PcaBlock("all", tuple(range(n)), 2),))
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((1, 1), 5), np.zeros(n)
        )
        counter = ClampCounter()
        eval_orthogonal_slider(os_, shocks.max(axis=0) * 50.0, counter)
        assert counter.count >= 1

    def test_config_dimension_mismatch(self):
        rng = np.random.default_rng(16)
        shocks = _correlated_history(rng, 50, 4)
        spec = PcaBlockSpec((PcaBlock("all", (0, 1, 2, 3), 2),))
        with pytest.raises(ConfigurationError):
            build_orthogonal_slider(
                _linear_pricer(np.ones(4)), shocks, spec,
                SliderConfig((1, 1, 1), 5), np.zeros(4),
            )

    def test_blocks_must_cover(self):
        rng = np.random.default_rng(17)
        shocks = _correlated_history(rng, 50, 4)
        spec = PcaBlockSpec((PcaBlock("partial", (0, 1), 2),))
        with pytest.raises(ConfigurationError):
            build_orthogonal_slider(
                _linear_pricer(np.ones(4)), shocks, spec,
                SliderConfig((1, 1), 5), np.zeros(4),
            )

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        n = 6
        shocks = _correlated_history(rng, 90, n)
        pricer = InstrumentedPricer(lambda v: float(np.sum(v**2) + v[0]))
        spec = PcaBlockSpec(
            (PcaBlock("a", (0, 1, 2), 2), PcaBlock("b", (3, 4, 5), 2))
        )
        os_ = build_orthogonal_slider(
            pricer, shocks, spec, SliderConfig((2, 1, 1), 5), np.zeros(n)
        )
        path = tmp_path / "oslider.json"
        save_orthogonal_slider(os_, path)
        os2 = load_orthogonal_slider(path)
        assert isinstance(os2, OrthogonalSlider)
        pts = rng.standard_normal((40, n)) * 0.2
        assert np.array_equal(
            eval_orthogonal_slider_many(os_, pts), eval_orthogonal_slider_many(os2, pts)
        )
        for m1, m2 in zip(os_.models, os2.models):
            assert np.array_equal(m1.components, m2.components)
            assert np.array_equal(m1.mean, m2.mean)

    @staticmethod
    def _saved_doc():
        rng = np.random.default_rng(18)
        spec = PcaBlockSpec((PcaBlock("a", (0, 1, 2), 2), PcaBlock("b", (3, 4, 5), 2)))
        os_ = build_orthogonal_slider(
            _linear_pricer(np.ones(6)), _correlated_history(rng, 90, 6), spec,
            SliderConfig((2, 1, 1), 5), np.zeros(6),
        )
        return json.loads(json.dumps(orthogonal_slider_to_dict(os_)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("k", r"block 'a': components of shape \(2, 3\), expected \(k=1, 3 coordinates\)"),
            ("mean", r"block 'b': mean of 2 entries for 3 coordinates"),
            # k and components agree, but the blocks no longer span the slider
            ("width", r"blocks' k sum to 3, the slider has 4 coordinates"),
            ("base", r"base shock of shape \(5,\), expected \(6,\)"),
        ],
    )
    def test_loader_rejects_copies_that_disagree(self, edit, message):
        doc = self._saved_doc()
        blocks, models = doc["block_spec"]["blocks"], doc["models"]
        if edit == "k":
            blocks[0]["k"] = 1
        elif edit == "mean":
            models[1]["mean"].pop()
        elif edit == "base":
            doc["base_shock"].pop()
        else:
            blocks[1]["k"] = 1
            models[1]["components"].pop()
        with pytest.raises(ArgumentError, match=message):
            orthogonal_slider_from_dict(doc)

    @pytest.mark.parametrize(
        "index, covered",
        [
            # if accepted, evaluation would read coordinate 0 twice and 1 never
            (0, r"\[0, 0, 2, 3, 4, 5\]"),
            (99, r"\[0, 2, 3, 4, 5, 99\]"),  # evaluation would fail on a bare IndexError
        ],
        ids=["repeated", "out-of-range"],
    )
    def test_loader_checks_the_builds_block_cover(self, index, covered):
        doc = self._saved_doc()
        doc["block_spec"]["blocks"][0]["coord_indices"][1] = index
        message = r"blocks must cover coordinates 0\.\.5 exactly; got " + covered
        with pytest.raises(ConfigurationError, match=message):
            orthogonal_slider_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("ragged components",
             r"^orthogonal slider document: models\[0\]: setting an array element with a sequence"),
            ("no mean", r"^orthogonal slider document: models\[1\]: missing key 'mean'$"),
            ("text node", r"^orthogonal slider document: slides\[1\]: grids\[0\]: "
             r"could not convert string to float: 'x'$"),
            ("no blocks", r"^orthogonal slider document: missing key 'blocks'$"),
            ("list document", r"^not an orthogonal slider document: kind=None$"),
        ],
        ids=["ragged-components", "no-mean", "text-node", "no-blocks", "list-document"],
    )
    def test_malformed_fields_raise_argument_error(self, edit, message):
        doc = self._saved_doc()
        if edit == "ragged components":
            doc["models"][0]["components"][1].pop()
        elif edit == "no mean":
            del doc["models"][1]["mean"]
        elif edit == "text node":
            doc["slider"]["slides"][1]["tensor"]["mesh"]["grids"][0]["nodes"][2] = "x"
        elif edit == "no blocks":
            del doc["block_spec"]["blocks"]
        else:
            doc = [doc]
        with pytest.raises(ArgumentError, match=message):
            orthogonal_slider_from_dict(doc)


class TestCallerArraysUntouched:
    @pytest.mark.parametrize("cols", [(0, 1, 2, 3, 4, 5), (4, 1, 5, 0, 3, 2)])
    def test_read_only_inputs_stay_bit_identical(self, cols):
        rng = np.random.default_rng(19)
        shocks = _correlated_history(rng, 80, 6)
        base = shocks[3].copy()
        for a in (shocks, base):
            a.flags.writeable = False
        before, base_before = shocks.copy(), base.copy()
        spec = PcaBlockSpec((PcaBlock("a", cols[:4], 2), PcaBlock("b", cols[4:], 1)))
        fit_pca(shocks, 3)
        fit_pca(shocks[:, :4], 2)
        os_ = build_orthogonal_slider(
            _linear_pricer(np.ones(6)), shocks, spec, SliderConfig((1, 1, 1), 5), base
        )
        eval_orthogonal_slider_many(os_, shocks)
        os_.project_full(shocks)
        os_.project_full(base)
        assert np.array_equal(shocks, before)
        assert np.array_equal(base, base_before)


class TestSameBitsAsReference:
    """The build and projection against the per-block project/reconstruct path."""

    @staticmethod
    def _reduced_shock(os_, y):
        # The reduced pricer's shock as reconstruct() gives it, block by block.
        z = np.empty(os_.block_spec.input_dim)
        for b, m, off in zip(os_.block_spec.blocks, os_.models, os_.block_spec.offsets()):
            z[list(b.coord_indices)] = reconstruct(m, y[off : off + b.k])
        return z

    @pytest.mark.parametrize("book", ["swaps", "swaptions"])
    def test_project_full_is_concatenated_project(self, demo_sliders, book):
        shocks, _, os_ = demo_sliders[book]
        for x in (shocks, shocks[5]):
            parts = [
                project(m, x[..., list(b.coord_indices)])
                for b, m in zip(os_.block_spec.blocks, os_.models)
            ]
            assert np.array_equal(os_.project_full(x), np.concatenate(parts, axis=-1))

    @pytest.mark.parametrize("book", ["swaps", "swaptions"])
    def test_slide_values_are_pricer_at_reconstructed_nodes(self, demo_sliders, book):
        _, pricer, os_ = demo_sliders[book]
        sl = os_.slider
        assert sl.pivot_value == pricer(self._reduced_shock(os_, sl.pivot))
        for slide in sl.slides:
            grids = slide.tensor.mesh.grids
            for idx in np.ndindex(*slide.tensor.mesh.shape):
                y = sl.pivot.copy()
                y[list(slide.coord_indices)] = [g.nodes[j] for g, j in zip(grids, idx)]
                assert slide.tensor.values[idx] == pricer(self._reduced_shock(os_, y))
