"""Command-line interface: subcommands, files, exit codes, schema."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebslider import cli
from chebslider.cli import build_parser, main
from chebslider.errors import (
    ArgumentError,
    ChebSliderError,
    ConfigurationError,
    DomainError,
    MissingCurveError,
    ModelDomainError,
    ParameterError,
    SamplingError,
    UnknownFactorError,
)
from chebslider.demo import demo_by_name, swaps_demo
from chebslider.orthopca import eval_orthogonal_slider_many, load_orthogonal_slider
from chebslider.pricers import ShockedPortfolioPricer, save_portfolio
from chebslider.riskengine import EsReport, generate_synthetic_history


def run_cli(*args):
    return main(list(args))


def load_schema():
    with resources.files("chebslider").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


class TestRun:
    def test_synthetic_run_writes_valid_report(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--synthetic", "swaps", "--seed", "3", "--scenario-count", "300",
            "--pca-dims", "3", "--slider-tuple", "1x3", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, load_schema())
        r = report["horizons"]["10d"]
        assert r["relative_error"] <= 0.10
        assert r["savings"] >= 0.90
        assert report["build_calls"] == 16

    def test_pnl_csv_columns(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "run", "--synthetic", "swaps", "--seed", "3", "--scenario-count", "120",
            "--pca-dims", "3", "--diagnostic", "--out", str(out),
        )
        with open(out / "pnl_10d.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "brute", "pca_repriced", "slider"]
        assert len(rows) == 121

    def test_swaptions_two_horizons_reuse(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--synthetic", "swaptions", "--seed", "2", "--scenario-count", "250",
            "--pca-dims", "6,6", "--slider-tuple", "1x12",
            "--horizons", "10d,60d", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, load_schema())
        assert report["horizons"]["60d"]["incremental_calls"] == 0
        assert report["horizons"]["60d"]["savings"] == 1.0
        assert (out / "pnl_60d.csv").exists()

    def test_missing_portfolio_exits_2(self, capsys, tmp_path):
        code = run_cli(
            "run", "--portfolio", str(tmp_path / "nope.json"),
            "--market", str(tmp_path / "m.json"),
            "--scenarios", str(tmp_path / "s.csv"),
            "--pca-dims", "3", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_bad_tuple_exits_2(self, capsys, tmp_path):
        code = run_cli(
            "run", "--synthetic", "swaps", "--scenario-count", "50",
            "--pca-dims", "3", "--slider-tuple", "1x5", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"

    def test_save_slider_round_trip(self, tmp_path):
        out = tmp_path / "run"
        slider_path = tmp_path / "slider.json"
        run_cli(
            "run", "--synthetic", "swaps", "--seed", "1", "--scenario-count", "100",
            "--pca-dims", "3", "--save-slider", str(slider_path), "--out", str(out),
        )
        from chebslider import load_orthogonal_slider

        os_ = load_orthogonal_slider(slider_path)
        assert os_.block_spec.reduced_dim == 3

    def test_report_keys_are_the_schemas(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "run", "--synthetic", "swaptions", "--seed", "2", "--scenario-count", "250",
            "--pca-dims", "6,6", "--slider-tuple", "1x12", "--out", str(out),
        )
        report = json.loads((out / "report.json").read_text())
        schema = load_schema()
        horizon = schema["properties"]["horizons"]["additionalProperties"]
        fields = [f.name for f in dataclasses.fields(EsReport)]
        assert horizon["required"] == list(horizon["properties"]) == fields
        assert [list(r) for r in report["horizons"].values()] == [fields, fields]
        assert schema["required"] == list(schema["properties"]) == list(report)

    def test_determinism_byte_identical(self, tmp_path):
        args = [
            "run", "--synthetic", "swaps", "--seed", "11", "--scenario-count", "150",
            "--pca-dims", "3",
        ]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()
        assert (tmp_path / "a/pnl_10d.csv").read_bytes() == (tmp_path / "b/pnl_10d.csv").read_bytes()


class TestDemoAndFileMode:
    def test_demo_fixtures_feed_file_run(self, tmp_path):
        fixtures = tmp_path / "fix"
        assert run_cli(
            "demo", "--which", "swaps", "--seed", "5", "--scenario-count", "200",
            "--out", str(fixtures),
        ) == 0
        for name in ("market.json", "portfolio.json", "scenarios.csv", "blocks.json"):
            assert (fixtures / name).exists()
        out = tmp_path / "run"
        code = run_cli(
            "run",
            "--portfolio", str(fixtures / "portfolio.json"),
            "--market", str(fixtures / "market.json"),
            "--scenarios", str(fixtures / "scenarios.csv"),
            "--blocks", str(fixtures / "blocks.json"),
            "--pca-dims", "3", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["source"]["kind"] == "files"
        jsonschema.validate(report, load_schema())

    def test_file_mode_matches_synthetic_mode(self, tmp_path):
        for book, dims, horizons in (("swaps", "3", "10d"), ("swaptions", "4,4", "10d,60d")):
            fixtures = tmp_path / book
            run_cli("demo", "--which", book, "--seed", "5", "--scenario-count", "200",
                    "--out", str(fixtures))
            common = ["--pca-dims", dims, "--horizons", horizons]
            out_file = tmp_path / f"{book}_file"
            assert _file_run(fixtures, out_file, *common) == 0
            out_syn = tmp_path / f"{book}_syn"
            assert run_cli(
                "run", "--synthetic", book, "--seed", "5", "--scenario-count", "200",
                *common, "--out", str(out_syn),
            ) == 0
            a = json.loads((out_file / "report.json").read_text())
            b = json.loads((out_syn / "report.json").read_text())
            assert a.pop("source")["kind"] == "files" and b.pop("source")["kind"] == "synthetic"
            assert a == b
            for h in horizons.split(","):
                assert (out_file / f"pnl_{h}.csv").read_bytes() == (
                    out_syn / f"pnl_{h}.csv"
                ).read_bytes()

    def test_file_run_takes_k_from_blocks(self, tmp_path):
        fixtures = tmp_path / "fix"
        run_cli("demo", "--which", "swaps", "--seed", "5", "--scenario-count", "120",
                "--out", str(fixtures))
        assert json.loads((fixtures / "blocks.json").read_text())["blocks"][0]["k"] == 3
        assert _file_run(fixtures, tmp_path / "k") == 0
        assert _file_run(fixtures, tmp_path / "dims", "--pca-dims", "3") == 0
        assert (tmp_path / "k/report.json").read_bytes() == (
            tmp_path / "dims/report.json"
        ).read_bytes()

    def test_file_mode_requires_pca_dims(self, capsys, tmp_path):
        fixtures = tmp_path / "fix"
        run_cli("demo", "--which", "swaps", "--scenario-count", "60", "--out", str(fixtures))
        code = run_cli(
            "run",
            "--portfolio", str(fixtures / "portfolio.json"),
            "--market", str(fixtures / "market.json"),
            "--scenarios", str(fixtures / "scenarios.csv"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 2


def _file_run_argv(fixtures, out, *extra, scenarios=None, blocks=None):
    return [
        "run",
        "--portfolio", str(fixtures / "portfolio.json"),
        "--market", str(fixtures / "market.json"),
        "--scenarios", str(scenarios or fixtures / "scenarios.csv"),
        "--blocks", str(blocks or fixtures / "blocks.json"),
        *extra, "--out", str(out),
    ]


def _file_run(fixtures, out, *extra):
    return main(_file_run_argv(fixtures, out, *extra))


@pytest.fixture(scope="module")
def swaptions_files(tmp_path_factory):
    fixtures = tmp_path_factory.mktemp("swaptions")
    assert run_cli(
        "demo", "--which", "swaptions", "--seed", "1", "--scenario-count", "30",
        "--out", str(fixtures),
    ) == 0
    return fixtures


def _run_quietly(argv):
    """Exit code and stderr of one in-process CLI run; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture
def pricer_calls(monkeypatch):
    """Counts ShockedPortfolioPricer valuations made during the test."""
    calls = {"n": 0}
    call = ShockedPortfolioPricer.__call__

    def counted(self, shock):
        calls["n"] += 1
        return call(self, shock)

    monkeypatch.setattr(ShockedPortfolioPricer, "__call__", counted)
    return calls


def _one_json_error(stderr):
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return json.loads(lines[0])


_TEXT = st.text(st.characters(codec="utf-8"), max_size=8)


def _mutate_scenarios(data, text, factor_names):
    rows = [line.split(",") for line in text.splitlines()]
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    j = data.draw(st.integers(0, len(rows[i]) - 1), label="cell")
    op = data.draw(st.sampled_from(["drop cell", "insert text", "rename factor"]), label="csv")
    if op == "drop cell":
        del rows[i][j]
    elif op == "insert text":
        rows[i][j] = data.draw(_TEXT, label="text")
    else:
        rows[0][j] = data.draw(st.one_of(_TEXT, st.sampled_from(factor_names)), label="name")
    return "\n".join(",".join(r) for r in rows) + "\n"


def _mutate_blocks(data, doc, factor_names):
    op = data.draw(
        st.sampled_from(["remove key", "insert text", "rename factor", "corrupt JSON"]),
        label="json",
    )
    block = data.draw(st.sampled_from(doc["blocks"]), label="block")
    if op == "remove key":
        key = data.draw(st.sampled_from(sorted(block) + ["blocks"]), label="key")
        del (doc if key == "blocks" else block)[key]
    elif op == "insert text":
        block[data.draw(st.sampled_from(sorted(block)), label="key")] = data.draw(_TEXT)
    elif op == "rename factor":
        f = data.draw(st.integers(0, len(block["factors"]) - 1), label="factor")
        block["factors"][f] = data.draw(st.one_of(_TEXT, st.sampled_from(factor_names)))
    text = json.dumps(doc)
    if op == "corrupt JSON":
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(_TEXT, label="text") + text[at:]
    return text


class TestMalformedInputs:
    """Bad files and options end in one JSON error object on stderr, before any pricing."""

    @pytest.mark.parametrize(
        "case, message",
        [
            ("ragged row", "scenarios.csv, line 3: 40 cells, the header has 41"),
            ("extra cell", "scenarios.csv, line 3: 42 cells, the header has 41"),
            ("text cell", "scenarios.csv, line 4: could not convert string to float: 'abc'"),
            ("block without name", "blocks.json: block 0 needs a 'name' string"),
            ("unknown factor", "blocks.json: block 1 ('vols'): not risk factors: ['rate:nope:1']"),
            ("inf cell", "scenarios.csv, line 5: shock 'inf' for rate:discount:1 is not finite"),
            ("nan cell", "scenarios.csv, line 4: shock 'nan' for rate:discount:0.5 is not finite"),
            ("header only", "scenarios.csv: no scenario rows after the header"),
            ("repeated column", "scenarios.csv, line 1: the header names a column twice"),
            # the tag names an output file, pnl_<tag>.csv
            ("horizon tag",
             "blocks.json: block 1 ('vols'): horizon tag 'a/b' is not [A-Za-z0-9_-]+"),
            # a misspelt horizons would otherwise drop the 60d horizon silently
            ("misspelt key", "blocks.json: block 1 ('vols'): unknown key 'horizonz' "
             "(a block takes name, factors, prefix, k, horizons)"),
            # the factors list would win and the prefix be ignored
            ("prefix and factors",
             "blocks.json: block 1 ('vols'): takes 'factors' or 'prefix', not both"),
        ],
    )
    def test_malformed_file_exits_2(self, swaptions_files, tmp_path, pricer_calls, case, message):
        lines = (swaptions_files / "scenarios.csv").read_text().splitlines()
        doc = json.loads((swaptions_files / "blocks.json").read_text())
        if case == "ragged row":
            lines[2] = lines[2].rsplit(",", 1)[0]
        elif case == "extra cell":
            lines[2] += ",0.0"
        elif case == "text cell":
            lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
        elif case in ("inf cell", "nan cell"):
            # a blank line before the bad row, which the line number counts
            at, cell, value = (3, 2, "inf") if case == "inf cell" else (2, 1, "nan")
            cells = lines[at].split(",")
            cells[cell] = value
            lines[at:at + 1] = ["", ",".join(cells)]
        elif case == "header only":
            lines = lines[:1]
        elif case == "repeated column":
            names = lines[0].split(",")
            names[2] = names[1]
            lines[0] = ",".join(names)
        elif case == "block without name":
            del doc["blocks"][0]["name"]
        elif case == "horizon tag":
            doc["blocks"][1]["horizons"] = ["10d", "a/b"]
        elif case == "misspelt key":
            doc["blocks"][1]["horizonz"] = doc["blocks"][1].pop("horizons")
        elif case == "prefix and factors":
            doc["blocks"][1]["prefix"] = "vol:"
        else:
            doc["blocks"][1]["factors"][0] = "rate:nope:1"
        scenarios, blocks = tmp_path / "scenarios.csv", tmp_path / "blocks.json"
        scenarios.write_text("\n".join(lines) + "\n")
        blocks.write_text(json.dumps(doc))
        code, err = _run_quietly(
            _file_run_argv(swaptions_files, tmp_path / "o", scenarios=scenarios, blocks=blocks)
        )
        assert code == 2
        assert _one_json_error(err)["message"].endswith(message)
        assert pricer_calls["n"] == 0
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--alpha", "1.5", "--out", "{tmp}/o"],
            ["run", "--slider-tuple", "3,2x*", "--out", "{tmp}/o"],
            ["run", "--pca-dims", "3,30", "--out", "{tmp}/o"],
            ["backtest", "--pca-dims", "3", "--out", "{tmp}/r.csv"],
            ["backtest", "--window", "301", "--out", "{tmp}/r.csv"],
            # Spearman needs two points
            ["backtest", "--window", "1", "--out", "{tmp}/r.csv"],
            ["sweep", "--alpha", "1.5", "--dims", "4,20", "--tuples", "1x*;2,1x*",
             "--out", "{tmp}/s.csv"],
            # afile is a regular file, so no output can go below it
            ["run", "--out", "{tmp}/afile/sub"],
            ["run", "--out", "{tmp}/o", "--save-slider", "{tmp}/afile/s.json"],
            ["sweep", "--dims", "20", "--out", "{tmp}/afile/s.csv"],
            ["backtest", "--out", "{tmp}/afile/r.csv"],
            # backtest prices the 10-day horizon only
            ["backtest", "--horizons", "60d", "--out", "{tmp}/r.csv"],
            ["run", "--seed", "-1", "--out", "{tmp}/o"],
            ["demo", "--which", "swaps", "--seed", "-5", "--out", "{tmp}/o"],
            # 0 would otherwise fall back to the demo's default count
            ["run", "--scenario-count", "0", "--out", "{tmp}/o"],
            ["demo", "--which", "swaps", "--scenario-count", "0", "--out", "{tmp}/o"],
            # one node per slide makes every slide constant
            ["run", "--points", "1", "--out", "{tmp}/o"],
            ["sweep", "--points", "1", "--dims", "20", "--out", "{tmp}/s.csv"],
            ["backtest", "--points", "1", "--out", "{tmp}/r.csv"],
            # no output of backtest depends on alpha
            ["backtest", "--alpha", "0.5", "--out", "{tmp}/r.csv"],
        ],
        ids=["run-alpha", "run-tuple", "run-dims", "backtest-dims", "backtest-window",
             "backtest-window-1",
             "sweep-alpha", "run-out", "run-save-slider", "sweep-out", "backtest-out",
             "backtest-horizons", "run-seed", "demo-seed", "run-scenario-count",
             "demo-scenario-count", "run-points", "sweep-points",
             "backtest-points", "backtest-alpha"],
    )
    def test_bad_option_exits_2_before_any_pricer_call(self, tmp_path, pricer_calls, argv):
        (tmp_path / "afile").write_text("")
        source = ["--synthetic", "swaptions", "--scenario-count", "300"]
        if argv[0] == "demo":  # demo takes no input source
            source = []
        code, err = _run_quietly(
            [argv[0], *source, *(a.format(tmp=tmp_path) for a in argv[1:])]
        )
        assert code == 2
        _one_json_error(err)
        assert pricer_calls["n"] == 0
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [tmp_path / "afile"]

    @pytest.mark.parametrize("command, out", [("run", "o"), ("sweep", "o/s.csv")])
    def test_unknown_horizon_exits_2_before_making_the_output_directory(
        self, tmp_path, pricer_calls, command, out
    ):
        argv = [command, "--synthetic", "swaps", "--scenario-count", "100", "--horizons", "99d"]
        argv += ["--pca-dims", "3"] if command == "run" else ["--dims", "3"]
        code, err = _run_quietly([*argv, "--out", str(tmp_path / out)])
        assert code == 2
        assert _one_json_error(err)["message"].startswith("horizon '99d' not defined")
        assert pricer_calls["n"] == 0
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, source, message",
        [
            ("run", ["--synthetic", "swaps", "--scenario-count", "100", "--pca-dims", "3",
                     "--scenarios", "fx/scenarios.csv", "--blocks", "/nonexistent.json"],
             "--synthetic runs do not use --scenarios, --blocks"),
            ("sweep", ["--synthetic", "swaps", "--dims", "3", "--portfolio", "p.json",
                       "--market", "m.json"],
             "--synthetic runs do not use --portfolio, --market"),
            ("run", ["{files}", "--seed", "0"], "file-based runs do not use --seed"),
            ("backtest", ["{files}", "--scenario-count", "20", "--window", "20"],
             "file-based runs do not use --scenario-count"),
        ],
        ids=["synthetic-files", "synthetic-book", "files-seed", "files-scenario-count"],
    )
    def test_option_the_source_ignores_exits_2_before_any_pricer_call(
        self, swaptions_files, tmp_path, pricer_calls, command, source, message
    ):
        files = _file_run_argv(swaptions_files, tmp_path / "o")[1:-2]
        if source[0] == "{files}":
            source = [*files, *source[1:]]
        code, err = _run_quietly([command, *source, "--out", str(tmp_path / "o")])
        assert code == 2
        assert _one_json_error(err) == {"error": "ConfigurationError", "message": message}
        assert pricer_calls["n"] == 0
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--synthetic", "swaps", "--bogus", "1", "--out", "o"],
             "chebslider: unrecognized arguments: --bogus 1"),
            (["run", "--synthetic", "swaps", "--points", "abc", "--out", "o"],
             "chebslider run: argument --points: invalid int value: 'abc'"),
            (["run", "--synthetic", "swaps"],
             "chebslider run: the following arguments are required: --out"),
            ([], "chebslider: the following arguments are required: command"),
        ],
        ids=["unknown-option", "bad-int", "missing-out", "missing-command"],
    )
    def test_bad_command_line_is_one_json_error(self, pricer_calls, argv, message):
        code, err = _run_quietly(argv)
        assert code == 2
        assert _one_json_error(err) == {"error": "ArgumentError", "message": message}
        assert pricer_calls["n"] == 0

    @pytest.mark.parametrize(
        "case, message",
        [
            ("trade without notional", "portfolio.json, trade 0: missing key 'notional'"),
            ("text notional",
             "portfolio.json, trade 0: could not convert string to float: 'ten'"),
            ("curve without tenors", "market.json, curve 'forecast': missing key 'tenors'"),
            ("unknown trade type", "portfolio.json, trade 1: unknown trade type 'bond'"),
            ("text payer", "portfolio.json, trade 0: 'payer' must be true or false, got 'false'"),
            ("integer payer", "portfolio.json, trade 1: 'payer' must be true or false, got 1"),
            ("no trades", "portfolio.json: no trades"),
            ("infinite strike",
             "portfolio.json, trade 0: 'strike' must be a finite number, got inf"),
            ("list curve name",
             "portfolio.json, trade 0: 'discount_curve' must be a curve name, got ['discount']"),
            ("unknown curve", "MissingCurveError: trade 1: curve 'libor' not in market"),
            ("market without surface", "trade 0: swaption pricing needs a vol surface"),
            ("huge maturity", "portfolio.json, trade 0: swap term 1e+308y exceeds 100y"),
            ("million-year term",
             "portfolio.json, trade 0: swap term 999999.5y exceeds 100y"),
            ("no whole period",
             "portfolio.json, trade 0: maturity 0.500000001 is not a whole, positive "
             "number of 0.5y periods from start 0.5"),
            ("overflowing zero rate",
             "market.json, curve 'forecast': log discounts -zero_rate * tenor overflow"),
            ("infinite tenor",
             "market.json, curve 'forecast': tenors must be finite, positive and strictly "
             "increasing"),
            ("absurd zero rate",
             "market.json, curve 'forecast': zero rate -1e+300 exceeds 1 (100%) in magnitude"),
            # float() takes a JSON boolean or a numeric string, and a
            # misspelt optional key would leave its default in place
            ("boolean fixed rate",
             "portfolio.json, trade 0: 'fixed_rate' must be a number, got True"),
            ("numeric text notional",
             "portfolio.json, trade 1: 'notional' must be a number, got '1000000'"),
            ("boolean zero rate",
             "market.json, curve 'discount': 'zero_rates' must hold numbers, got True"),
            ("numeric text vol",
             "market.json, vol_surface: 'vols' must hold numbers, got '0.2'"),
            ("misspelt start",
             "portfolio.json, trade 0: unknown key 'strat' in underlying"),
            ("misspelt curve key",
             "portfolio.json, trade 1: unknown key 'discount_curv' in underlying"),
            ("unknown swaption key", "portfolio.json, trade 2: unknown key 'strikes'"),
        ],
    )
    def test_malformed_book_exits_2_before_any_pricer_call(
        self, swaptions_files, tmp_path, pricer_calls, case, message
    ):
        portfolio = json.loads((swaptions_files / "portfolio.json").read_text())
        market = json.loads((swaptions_files / "market.json").read_text())
        if case == "trade without notional":
            del portfolio["trades"][0]["underlying"]["notional"]
        elif case == "text notional":
            portfolio["trades"][0]["underlying"]["notional"] = "ten"
        elif case == "curve without tenors":
            del market["curves"]["forecast"]["tenors"]
        elif case == "text payer":
            portfolio["trades"][0]["payer"] = "false"
        elif case == "integer payer":
            portfolio["trades"][1]["underlying"]["payer"] = 1
        elif case == "no trades":
            portfolio["trades"] = []
        elif case == "infinite strike":
            portfolio["trades"][0]["strike"] = "inf"
        elif case == "list curve name":
            portfolio["trades"][0]["underlying"]["discount_curve"] = ["discount"]
        elif case == "unknown curve":
            portfolio["trades"][1]["underlying"]["forecast_curve"] = "libor"
        elif case == "market without surface":
            market["vol_surface"] = None
        elif case == "huge maturity":
            portfolio["trades"][0]["underlying"]["maturity"] = 1e308
        elif case == "million-year term":
            portfolio["trades"][0]["underlying"]["maturity"] = 1e6
        elif case == "no whole period":
            underlying = portfolio["trades"][0]["underlying"]
            underlying["maturity"] = underlying["start"] + 1e-9
        elif case == "overflowing zero rate":
            market["curves"]["forecast"]["zero_rates"][-1] = 1e308
        elif case == "infinite tenor":
            market["curves"]["forecast"]["tenors"][-1] = math.inf
        elif case == "absurd zero rate":  # -zero_rate * tenor stays finite
            market["curves"]["forecast"]["zero_rates"][-1] = -1e300
        elif case == "boolean fixed rate":
            portfolio["trades"][0]["underlying"]["fixed_rate"] = True
        elif case == "numeric text notional":
            portfolio["trades"][1]["underlying"]["notional"] = "1000000"
        elif case == "boolean zero rate":
            market["curves"]["discount"]["zero_rates"][0] = True
        elif case == "numeric text vol":
            market["vol_surface"]["vols"][1][0] = "0.2"
        elif case == "misspelt start":
            underlying = portfolio["trades"][0]["underlying"]
            underlying["strat"] = underlying.pop("start")
        elif case == "misspelt curve key":
            underlying = portfolio["trades"][1]["underlying"]
            underlying["discount_curv"] = underlying.pop("discount_curve")
        elif case == "unknown swaption key":
            portfolio["trades"][2]["strikes"] = portfolio["trades"][2]["strike"]
        else:
            portfolio["trades"][1]["type"] = "bond"
        (tmp_path / "portfolio.json").write_text(json.dumps(portfolio))
        (tmp_path / "market.json").write_text(json.dumps(market))
        argv = _file_run_argv(swaptions_files, tmp_path / "o")
        argv[argv.index("--portfolio") + 1] = str(tmp_path / "portfolio.json")
        argv[argv.index("--market") + 1] = str(tmp_path / "market.json")
        code, err = _run_quietly(argv)
        assert code == 2
        error = _one_json_error(err)
        assert f"{error['error']}: {error['message']}".endswith(message)
        assert pricer_calls["n"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--pca-dims", "3", "--out", "{tmp}/o"],
            ["backtest", "--pca-dims", "3", "--window", "2", "--out", "{tmp}/r.csv"],
        ],
        ids=["run", "backtest"],
    )
    def test_pca_dims_above_scenario_count_exit_2_before_any_pricer_call(
        self, tmp_path, pricer_calls, argv
    ):
        code, err = _run_quietly(
            [argv[0], "--synthetic", "swaps", "--scenario-count", "2",
             *(a.format(tmp=tmp_path) for a in argv[1:])]
        )
        assert code == 2
        assert _one_json_error(err)["message"] == (
            "block 'rates': k=3 needs at least 3 scenarios, got 2"
        )
        assert pricer_calls["n"] == 0

    def test_sweep_cells_with_pca_dims_above_scenario_count_are_error_rows(
        self, tmp_path, pricer_calls
    ):
        out = tmp_path / "s.csv"
        code, _ = _run_quietly(
            ["sweep", "--synthetic", "swaps", "--scenario-count", "2", "--dims", "3,10",
             "--tuples", "1x*", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == [
            f"ParameterError: block 'rates': k={k} needs at least {k} scenarios, got 2"
            for k in (3, 10)
        ]
        assert pricer_calls["n"] == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_fuzzed_inputs_fail_cleanly(self, swaptions_files, data):
        scenarios = (swaptions_files / "scenarios.csv").read_text()
        doc = json.loads((swaptions_files / "blocks.json").read_text())
        factor_names = scenarios.splitlines()[0].split(",")[1:]
        target = data.draw(st.sampled_from(["scenarios", "blocks", "both"]), label="target")
        if target != "blocks":
            scenarios = _mutate_scenarios(data, scenarios, factor_names)
        blocks = json.dumps(doc)
        if target != "scenarios":
            blocks = _mutate_blocks(data, doc, factor_names)
        # without --pca-dims the blocks' k applies, so a mutated k is exercised too
        dims = data.draw(st.sampled_from([["--pca-dims", "2,2"], []]), label="dims")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "scenarios.csv").write_text(scenarios, encoding="utf-8")
            (tmp / "blocks.json").write_text(blocks, encoding="utf-8")
            code, err = _run_quietly(
                _file_run_argv(
                    swaptions_files, tmp / "o", *dims,
                    scenarios=tmp / "scenarios.csv", blocks=tmp / "blocks.json",
                )
            )
        assert code in (0, 2, 3)
        if code:
            _one_json_error(err)


_EXIT_CODES = [
    (ArgumentError, 2),
    (ChebSliderError, 2),
    (ConfigurationError, 2),
    (DomainError, 2),
    (MissingCurveError, 2),
    (ParameterError, 2),
    (UnknownFactorError, 2),
    (OSError, 2),
    (ModelDomainError, 3),
    (SamplingError, 3),
]


@pytest.mark.parametrize("error, code", _EXIT_CODES, ids=lambda v: getattr(v, "__name__", v))
def test_main_maps_each_error_to_its_exit_code(monkeypatch, error, code):
    """3 for a numerical/model error, 2 for any other; the message is printed unquoted."""
    assert set(ChebSliderError.__subclasses__()) <= {e for e, _ in _EXIT_CODES}

    def fail(args):
        raise error("trade 0: curve 'libor' not in market")

    monkeypatch.setattr(cli, "cmd_demo", fail)
    got, err = _run_quietly(["demo", "--which", "swaps", "--out", "unused"])
    assert got == code
    assert _one_json_error(err) == {
        "error": error.__name__, "message": "trade 0: curve 'libor' not in market"
    }


class TestNonFiniteValuation:
    def test_exits_3_at_its_scenario(self, tmp_path, pricer_calls):
        fixtures = tmp_path / "fix"
        run_cli("demo", "--which", "swaps", "--scenario-count", "40", "--out", str(fixtures))
        scenarios = fixtures / "scenarios.csv"
        lines = scenarios.read_text().splitlines()
        # scenario 5 drops every zero rate by 40: discount factors overflow
        crash = ["crash"] + ["-40.0"] * (len(lines[0].split(",")) - 1)
        scenarios.write_text("\n".join([*lines[:6], ",".join(crash), *lines[6:]]) + "\n")
        sweep_out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning must not leak
            code, err = _run_quietly(_file_run_argv(fixtures, tmp_path / "o"))
            assert pricer_calls["n"] == 1 + 6  # base, then scenarios 0-5
            sweep_argv = _file_run_argv(fixtures, sweep_out, "--dims", "3", "--tuples", "1x*")
            sweep_code, _ = _run_quietly(["sweep", *sweep_argv[1:]])
        assert code == 3
        error = _one_json_error(err)
        assert error["error"] == "ModelDomainError"
        assert re.fullmatch(r"scenario 5: portfolio value \S+ is not finite", error["message"])
        assert sweep_code == 0
        assert [row["error"] for row in _rows(sweep_out)] == [
            f"ModelDomainError: {error['message']}"
        ]


def test_cli_imports_no_third_party_module_but_numpy():
    # The test extras (scipy, jsonschema, hypothesis) are installed wherever
    # the tests run, so an accidental import of one would pass every other
    # test. The baseline is what the interpreter loaded at startup, site
    # .pth files included.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import chebslider.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - sys.stdlib_module_names)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.split() == ["chebslider", "numpy"]


def _readme_commands():
    """Every `chebslider ...` command in the README's bash blocks, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["chebslider"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except ArgumentError:
            pytest.fail(f"README command does not parse: chebslider {shlex.join(argv)}")


def test_readme_commands_run(tmp_path, monkeypatch):
    # In order, from one directory: the file-based run reads what `demo` wrote.
    monkeypatch.chdir(tmp_path)
    for argv in _readme_commands():
        assert _run_quietly(argv) == (0, ""), f"chebslider {shlex.join(argv)}"


def test_readme_saved_slider_reloads_bit_for_bit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = next(a for a in _readme_commands() if "--save-slider" in a)
    assert _run_quietly(argv) == (0, "")
    path, out = (argv[argv.index(opt) + 1] for opt in ("--save-slider", "--out"))
    assert json.loads(Path(path).read_text())["schema_version"] == 2

    scenarios = generate_synthetic_history(
        demo_by_name(argv[argv.index("--synthetic") + 1]).synthetic,
        int(argv[argv.index("--seed") + 1]),
    )
    base = json.loads(Path(out, "report.json").read_text())["base_value"]
    with open(Path(out, "pnl_10d.csv"), newline="") as fh:
        saved = [float(row["slider"]) for row in csv.DictReader(fh)]
    reloaded = eval_orthogonal_slider_many(load_orthogonal_slider(path), scenarios.shocks)
    assert (reloaded - base).tolist() == saved


class TestSweep:
    def test_grid_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--synthetic", "swaps", "--seed", "4", "--scenario-count", "200",
            "--dims", "3,5", "--tuples", "1x*;2,1x*", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(row["error"] == "" for row in rows)
        assert {row["slider_tuple"] for row in rows} == {"1,1,1", "2,1", "1,1,1,1,1", "2,1,1,1"}

    def test_full_grid_twelve_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--synthetic", "swaps", "--seed", "4", "--scenario-count", "250",
            "--dims", "3,5,10,20", "--tuples", "1x*;2,1x*;3,1x*", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert all(row["error"] == "" for row in rows)

    def test_failed_cell_recorded_and_sweep_continues(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--synthetic", "swaps", "--seed", "4", "--scenario-count", "100",
            "--dims", "3,25", "--tuples", "1x*", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["error"] == ""
        assert "ParameterError" in rows[1]["error"]

    def test_single_cell_matches_run(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--synthetic", "swaps", "--seed", "9", "--scenario-count", "150",
            "--dims", "3", "--tuples", "1x*", "--out", str(out),
        )
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        run_out = tmp_path / "run"
        run_cli(
            "run", "--synthetic", "swaps", "--seed", "9", "--scenario-count", "150",
            "--pca-dims", "3", "--out", str(run_out),
        )
        report = json.loads((run_out / "report.json").read_text())["horizons"]["10d"]
        assert float(row["es_brute"]) == report["es_brute"]
        assert float(row["es_slider"]) == report["es_slider"]


def _file_sweep(fixtures, out, *extra):
    return run_cli(
        "sweep",
        "--portfolio", str(fixtures / "portfolio.json"),
        "--market", str(fixtures / "market.json"),
        "--scenarios", str(fixtures / "scenarios.csv"),
        "--blocks", str(fixtures / "blocks.json"),
        "--dims", "3", "--tuples", "1x*;2,1x*", *extra, "--out", str(out),
    )


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSweepInputsAndAccounting:
    def test_file_sweep_without_pca_dims(self, tmp_path):
        fixtures = tmp_path / "fix"
        run_cli("demo", "--which", "swaps", "--scenario-count", "60", "--out", str(fixtures))
        assert _file_sweep(fixtures, tmp_path / "a.csv") == 0
        # a given --pca-dims is still accepted, and ignored
        assert _file_sweep(fixtures, tmp_path / "b.csv", "--pca-dims", "7") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert all(row["error"] == "" for row in _rows(tmp_path / "a.csv"))

    def test_brute_force_priced_once_per_sweep(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        call = ShockedPortfolioPricer.__call__

        def counted(self, shock):
            calls["n"] += 1
            return call(self, shock)

        monkeypatch.setattr(ShockedPortfolioPricer, "__call__", counted)
        s = 80
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--synthetic", "swaps", "--seed", "4", "--scenario-count", str(s),
            "--dims", "3,5", "--tuples", "1x*;2,1x*;3,1x*", "--out", str(out),
        )
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 6 and all(row["error"] == "" for row in rows)
        assert calls["n"] == 1 + s + sum(int(row["build_calls"]) for row in rows)
        assert len({row["es_brute"] for row in rows}) == 1

    def test_failed_brute_force_fails_every_cell(self, tmp_path):
        fixtures = tmp_path / "fix"
        run_cli("demo", "--which", "swaptions", "--scenario-count", "40", "--out", str(fixtures))
        scenarios = fixtures / "scenarios.csv"
        lines = scenarios.read_text().splitlines()
        header = lines[0].split(",")
        # one scenario drops every zero rate by 5%: forward swap rates turn negative
        crash = ["crash"] + ["-0.05" if n.startswith("rate:") else "0.0" for n in header[1:]]
        scenarios.write_text("\n".join([*lines[:4], ",".join(crash), *lines[4:]]) + "\n")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep",
            "--portfolio", str(fixtures / "portfolio.json"),
            "--market", str(fixtures / "market.json"),
            "--scenarios", str(scenarios),
            "--blocks", str(fixtures / "blocks.json"),
            "--dims", "4,6,7", "--tuples", "1x*;2,1x*", "--out", str(out),
        )
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 6
        for row in rows:
            if row["pca_total_dim"] == "7":  # cell validation still comes first
                assert row["error"].startswith("ParameterError: total dim 7")
            else:
                assert row["error"].startswith("ModelDomainError: scenario 3: forward swap rate")


class TestBacktest:
    def test_series_length_and_meta(self, tmp_path):
        out = tmp_path / "pla.csv"
        code = run_cli(
            "backtest", "--synthetic", "swaps", "--seed", "6", "--scenario-count", "300",
            "--pca-dims", "3", "--window", "250", "--out", str(out),
        )
        assert code == 0
        rows = _rows(out)
        assert list(rows[0]) == ["window_start", "label", "spearman", "ks", "zone"]
        assert [(r["window_start"], r["label"]) for r in rows] == [
            (str(i), f"scn{i:05d}") for i in range(300 - 250 + 1)
        ]
        meta = json.loads((tmp_path / "pla.csv.meta.json").read_text())
        assert meta == {
            "window": 250,
            "series_length": 51,
            "hypothetical": "brute",
            "risk_theoretical": "slider",
            "green": {"spearman_above": 0.80, "ks_below": 0.09},
            "red": {"spearman_below": 0.70, "ks_above": 0.12},
            "zones": {"green": 51, "amber": 0, "red": 0},
        }

    @pytest.mark.parametrize(
        "book, dims, tuple_, zones",
        [
            ("swaps", "3", "1x3", {"green": 151, "amber": 0, "red": 0}),
            ("swaptions", "2,2", "1x4", {"green": 0, "amber": 0, "red": 151}),
            ("swaptions", "5,5", "1x10", {"green": 33, "amber": 118, "red": 0}),
        ],
        ids=["swaps-3", "swaptions-2,2", "swaptions-5,5"],
    )
    def test_zones_mark_truncated_sliders(self, tmp_path, book, dims, tuple_, zones):
        out = tmp_path / "pla.csv"
        code = run_cli(
            "backtest", "--synthetic", book, "--seed", "42", "--scenario-count", "400",
            "--pca-dims", dims, "--slider-tuple", tuple_, "--window", "250", "--out", str(out),
        )
        assert code == 0
        rows = _rows(out)
        assert {z: sum(r["zone"] == z for r in rows) for z in zones} == zones
        assert json.loads((tmp_path / "pla.csv.meta.json").read_text())["zones"] == zones
        for r in rows:
            rho, ks = float(r["spearman"]), float(r["ks"])
            green = rho > 0.80 and ks < 0.09
            red = rho < 0.70 or ks > 0.12
            assert r["zone"] == ("green" if green else "red" if red else "amber")

    def test_constant_pnl_has_no_spearman_and_is_red(self, tmp_path):
        fixtures = tmp_path / "fix"
        run_cli("demo", "--which", "swaps", "--scenario-count", "60", "--out", str(fixtures))
        portfolio = json.loads((fixtures / "portfolio.json").read_text())
        for trade in portfolio["trades"]:
            trade["notional"] = 0.0
        (fixtures / "portfolio.json").write_text(json.dumps(portfolio))
        out = tmp_path / "pla.csv"
        argv = _file_run_argv(fixtures, out, "--window", "50")
        assert main(["backtest", *argv[1:]]) == 0
        rows = _rows(out)
        assert len(rows) == 11
        assert all(r["spearman"] == "" and r["zone"] == "red" for r in rows)

    def test_window_zero_exits_2(self, capsys, tmp_path):
        code = run_cli(
            "backtest", "--synthetic", "swaps", "--scenario-count", "50",
            "--pca-dims", "3", "--window", "0", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2

    def test_window_longer_than_series_exits_2(self, tmp_path):
        code = run_cli(
            "backtest", "--synthetic", "swaps", "--scenario-count", "50",
            "--pca-dims", "3", "--window", "51", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


class TestUndefinedStatistics:
    """A horizon that freezes every factor the book reads has a constant brute P&L."""

    @pytest.fixture(scope="class")
    def swaps_on_swaptions_files(self, tmp_path_factory):
        fixtures = tmp_path_factory.mktemp("frozen")
        assert run_cli(
            "demo", "--which", "swaptions", "--scenario-count", "200", "--out", str(fixtures)
        ) == 0
        save_portfolio(list(swaps_demo().portfolio), fixtures / "portfolio.json")
        return fixtures

    def test_run_reports_null(self, swaps_on_swaptions_files, tmp_path, capsys):
        out = tmp_path / "o"
        assert _file_run(swaps_on_swaptions_files, out, "--pca-dims", "3,3") == 0
        text = (out / "report.json").read_text()
        report = json.loads(text, parse_constant=_reject_constant)
        jsonschema.validate(report, load_schema())
        frozen = report["horizons"]["60d"]
        assert frozen["es_brute"] == 0.0 and frozen["es_slider"] != 0.0
        assert frozen["correlation"] is None
        assert frozen["relative_error"] is None
        assert isinstance(report["horizons"]["10d"]["correlation"], float)
        stdout = capsys.readouterr().out
        assert "60d: " in stdout and "rel_err=n/a" in stdout and "corr=n/a" in stdout

    def test_sweep_writes_empty_cells(self, swaps_on_swaptions_files, tmp_path):
        out = tmp_path / "s.csv"
        assert _file_sweep(swaps_on_swaptions_files, out, "--dims", "6") == 0
        for row in _rows(out):
            assert row["error"] == ""
            empty = row["horizon"] == "60d"
            assert (row["correlation"] == "", row["relative_error"] == "") == (empty, empty)
