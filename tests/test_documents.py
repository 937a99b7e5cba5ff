"""The documents walk: every saved document follows its dataclasses."""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebslider import (
    ArgumentError,
    ConfigurationError,
    OrthogonalSlider,
    PcaBlock,
    PcaBlockSpec,
    SliderConfig,
    SwapTrade,
    SwaptionTrade,
    VolSurface,
    ZeroCurve,
    build_orthogonal_slider,
    eval_orthogonal_slider_many,
)
from chebslider import documents
from chebslider.orthopca import orthogonal_slider_from_dict, orthogonal_slider_to_dict
from chebslider.pricers import load_portfolio, save_portfolio
from chebslider.slider import slider_from_dict, slider_to_dict


def _reachable_annotations(*classes):
    """Every init field annotation reachable from the classes, through fields and tuple items."""
    seen, stack, out = set(), list(classes), []
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.init:
                out.append(hints[f.name])
                stack += [h for h in (hints[f.name], *typing.get_args(hints[f.name]))
                          if dataclasses.is_dataclass(h)]
    return out


def test_codec_has_a_rule_for_every_saved_annotation():
    hints = _reachable_annotations(OrthogonalSlider, SwapTrade, SwaptionTrade, ZeroCurve, VolSurface)
    assert {float, int, bool, str, np.ndarray, documents.CurveId} <= set(hints)
    def has_rule(hint):  # item_annotation raises TypeError for an annotation with no rule
        return (hint in documents.SCALARS or dataclasses.is_dataclass(hint)
                or has_rule(documents.item_annotation(hint)))

    assert all(has_rule(hint) for hint in hints)

    scratch = dataclasses.make_dataclass(
        "Scratch", [("x", float), ("curves", dict[str, float])], frozen=True
    )
    with pytest.raises(TypeError, match="no document rule for the annotation dict"):
        documents.to_dict(scratch(1.0, {}))
    with pytest.raises(TypeError, match="no document rule for the annotation dict"):
        documents.from_dict(scratch, {"x": 1.0, "curves": {}})


def _pricer(v):
    return float(np.sum(np.sin(v)) + 0.3 * v[0] * v[-1])


def _built(split, slide_dims, points, seed):
    """A built orthogonal slider over 3 factors, or 6 in two blocks, and its JSON document."""
    rng = np.random.default_rng(seed)
    rest = sum(slide_dims) - split  # block b's k, if any
    spec = PcaBlockSpec((PcaBlock("a", (0, 1, 2), split),
                         *([PcaBlock("b", (3, 4, 5), rest)] if rest else [])))
    n = spec.input_dim
    os_ = build_orthogonal_slider(
        _pricer, rng.standard_normal((40, n)) * 0.1, spec,
        SliderConfig(tuple(slide_dims), tuple(points)), np.zeros(n),
    )
    return os_, json.loads(json.dumps(orthogonal_slider_to_dict(os_)))


@st.composite
def _slider_layouts(draw):
    """(k of block a, slide dims, points per slide): 1-D to 3-D slides, 1 to 4 points."""
    slide_dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda d: sum(d) <= 6))
    split = draw(st.integers(max(1, sum(slide_dims) - 3), min(3, sum(slide_dims))))
    points = draw(st.lists(st.integers(1, 4), min_size=len(slide_dims), max_size=len(slide_dims)))
    return split, slide_dims, points


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(layout=_slider_layouts(), seed=st.integers(0, 2**16))
    @example(layout=(2, [3, 1], [1, 4]), seed=0)  # a one-point 3-D slide and two blocks
    @example(layout=(1, [1], [1]), seed=1)  # one constant slide
    def test_property_to_doc_from_doc_is_bit_exact(self, layout, seed):
        os_, doc = _built(*layout, seed)
        os2 = orthogonal_slider_from_dict(doc)
        assert orthogonal_slider_to_dict(os2) == doc  # floats round-trip through repr
        s, s2 = os_.slider, os2.slider
        assert np.array_equal(s2.pivot, s.pivot) and s2.pivot_value == s.pivot_value
        assert s2.build_call_count == s.build_call_count and s2.box == s.box
        for a, b in zip(s.slides, s2.slides):
            assert a.coord_indices == b.coord_indices
            assert np.array_equal(a.tensor.values, b.tensor.values)
            assert all(np.array_equal(ga.nodes, gb.nodes) and ga.domain == gb.domain
                       for ga, gb in zip(a.tensor.mesh.grids, b.tensor.mesh.grids))
        for m1, m2 in zip(os_.models, os2.models):
            assert np.array_equal(m1.components, m2.components)
            assert np.array_equal(m1.mean, m2.mean)
            assert np.array_equal(m1.explained_variance, m2.explained_variance)
        n = os_.block_spec.input_dim
        shocks = np.random.default_rng(seed).standard_normal((30, n)) * 0.2
        assert np.array_equal(
            eval_orthogonal_slider_many(os_, shocks), eval_orthogonal_slider_many(os2, shocks)
        )
        assert slider_to_dict(slider_from_dict(slider_to_dict(s))) == slider_to_dict(s)

    def test_derived_values_are_not_written(self):
        _, doc = _built(2, [1, 1, 1], [3, 1, 5], 0)
        assert list(doc) == ["schema_version", "kind", "block_spec", "models", "slider",
                             "base_shock"]
        assert list(doc["models"][0]) == ["mean", "components", "explained_variance"]
        assert list(doc["slider"]) == ["pivot", "pivot_value", "slides"]
        assert list(doc["slider"]["slides"][0]["tensor"]["mesh"]["grids"][0]) == ["domain", "nodes"]


def _swaption_book(tmp_path):
    swap = SwapTrade(1e6, 0.03, 7.0, 0.5, True, start=2.0)
    path = tmp_path / "portfolio.json"
    save_portfolio([SwaptionTrade(2.0, 0.03, True, swap)], path)
    return path


@pytest.mark.parametrize(
    "case, error, message",
    [
        # quoted numbers and booleans, as trade and market files reject them
        ("text pivot value", ArgumentError,
         r"^slider document: 'pivot_value' must be a number, got '7\.5'$"),
        ("boolean coordinate", ArgumentError,
         r"^slider document: slides\[0\]: 'coord_indices' must be an integer, got False$"),
        ("float coordinate", ArgumentError,
         r"^slider document: slides\[0\]: 'coord_indices' must be an integer, got 0\.0$"),
        ("fractional k", ArgumentError,
         r"^orthogonal slider document: blocks\[0\]: 'k' must be an integer, got 2\.5$"),
        # NaN loaded, then evaluated to NaN on every scenario
        ("nan value", ArgumentError, r"^slider document: slides\[1\]: tensor values must be finite$"),
        ("nan pivot value", ArgumentError,
         r"^slider document: 'pivot_value' must be a finite number, got nan$"),
        ("unknown key", ArgumentError,
         r"^slider document: slides\[2\]: unknown key 'extra' in tensor$"),
        ("v1 stored count", ArgumentError, r"^slider document: unknown key 'build_call_count'$"),
        # read as a swap before
        ("swaption underlying", ConfigurationError,
         r"portfolio\.json, trade 0: 'type' must be 'swap', got 'swaption' in underlying$"),
    ],
)
def test_malformed_document_raises_at_load(tmp_path, case, error, message):
    _, doc = _built(3, [1, 1, 2], [5, 3, 3], 1)
    sd = doc["slider"]
    if case == "text pivot value":
        sd["pivot_value"] = "7.5"
    elif case == "boolean coordinate":
        sd["slides"][0]["coord_indices"] = [False]
    elif case == "float coordinate":
        sd["slides"][0]["coord_indices"] = [0.0]
    elif case == "fractional k":
        doc["block_spec"]["blocks"][0]["k"] = 2.5
    elif case == "nan value":
        sd["slides"][1]["tensor"]["values"][1] = math.nan
    elif case == "nan pivot value":
        sd["pivot_value"] = math.nan
    elif case == "unknown key":
        sd["slides"][2]["tensor"]["extra"] = 1
    elif case == "v1 stored count":
        sd["build_call_count"] = 12
    else:
        path = _swaption_book(tmp_path)
        book = json.loads(path.read_text())
        book["trades"][0]["underlying"]["type"] = "swaption"
        path.write_text(json.dumps(book))
        with pytest.raises(error, match=message):
            load_portfolio(path)
        return
    doc = json.loads(json.dumps(doc))
    with pytest.raises(error, match=message):
        if case == "fractional k":
            orthogonal_slider_from_dict(doc)
        else:
            slider_from_dict({"schema_version": 2, "kind": "chebyshev_slider", **sd})


@pytest.mark.parametrize(
    "case, message",
    [
        ("reversed nodes", r"slides\[0\]: grids\[0\]: nodes \[\S+, .* do not ascend from "),
        ("widened domain",
         r"slides\[1\]: grids\[0\]: nodes .* do not ascend from -1000000000\.0 to 1000000000\.0"),
        ("pivot outside", r"pivot \[9\.0, .*\] lies outside the slides' box"),
    ],
)
def test_grid_and_pivot_rules_hold_at_load(case, message):
    _, doc = _built(2, [1, 1, 1], [5, 3, 3], 2)
    sd = doc["slider"]
    if case == "reversed nodes":
        grid = sd["slides"][0]["tensor"]["mesh"]["grids"][0]
        grid["nodes"].reverse()
    elif case == "widened domain":
        sd["slides"][1]["tensor"]["mesh"]["grids"][0]["domain"] = {"lo": -1e9, "hi": 1e9}
    else:
        sd["pivot"][0] = 9.0
    with pytest.raises(ArgumentError, match=message):
        orthogonal_slider_from_dict(doc)


def test_version_1_is_not_read():
    _, doc = _built(1, [1], [3], 3)
    doc["schema_version"] = 1
    with pytest.raises(ArgumentError, match=r"^unsupported schema_version 1$"):
        orthogonal_slider_from_dict(doc)
