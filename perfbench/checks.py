"""Correctness checks on one operation's output files.

Each check returns a list of failure messages (empty when the operation is
correct) and the observations the end-to-end metrics are made from.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema

from chebslider import expected_shortfall

from workloads import ALPHA, Reference, Workload, expected_build_calls

ES_REL_TOL = 1e-9


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def pnl_rms_error(correlation: float) -> float:
    """RMS difference of slider and brute-force P&L, each standardised to mean 0 and std 1.

    For standardised vectors this is sqrt(2 (1 - correlation)). It averages
    over every scenario, so it varies far less between seeds than the ES
    error, which rests on the 2.5% tail alone.
    """
    return math.sqrt(2.0 * max(0.0, 1.0 - correlation))


WORST_PNL_RMS_ERROR = pnl_rms_error(-1.0)  # reported when no operation gave a value


def output_bytes(w: Workload, out: Path) -> dict[str, bytes]:
    """Every file the operation writes, for byte-for-byte comparison."""
    if w.command == "sweep":
        names = ["sweep.csv"]
    else:
        names = ["report.json", *(f"pnl_{h}.csv" for h in w.horizons)]
    return {n: (out / n).read_bytes() for n in names if (out / n).is_file()}


def check_run(w: Workload, out: Path, ref: Reference, schema: dict) -> tuple[list[str], dict]:
    failures: list[str] = []
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        failures.append(f"report.json fails report_schema.json: {exc.message}")
    want_build = expected_build_calls(report["slider_tuple"])
    if report["build_calls"] != want_build or ref.build_calls[0] != want_build:
        failures.append(
            f"build_calls {report['build_calls']} (direct build {ref.build_calls[0]}), "
            f"expected 1 + sum of mesh sizes = {want_build}"
        )
    clamps = 0
    for h in w.horizons:
        r = report["horizons"].get(h)
        if r is None:
            failures.append(f"report has no {h} horizon")
            continue
        clamps += r["clamped_evaluations"]
        if r["incremental_calls"] != 0:
            failures.append(f"{h}: incremental_calls {r['incremental_calls']} != 0")
        if r["build_calls"] != (want_build if h == "10d" else 0):
            failures.append(f"{h}: build_calls {r['build_calls']}")
        if _rel_diff(r["es_brute"], ref.brute_es[h]) > ES_REL_TOL:
            failures.append(f"{h}: es_brute {r['es_brute']!r} != reference {ref.brute_es[h]!r}")
        with open(out / f"pnl_{h}.csv", encoding="utf-8", newline="") as fh:
            slider = [float(row["slider"]) for row in csv.DictReader(fh)]
        if slider != ref.slider_pnl[0][h].tolist():
            failures.append(f"{h}: pnl slider column differs from eval_orthogonal_slider_many")
    horizons = report["horizons"].values()
    obs = {
        "build_calls": report["build_calls"],
        "cheb1d.clamps": clamps,
        "es_rel_error": max(r["relative_error"] for r in horizons),
        "pnl_rms_error": max(pnl_rms_error(r["correlation"]) for r in horizons),
    }
    return failures, obs


def check_sweep(w: Workload, out: Path, ref: Reference) -> tuple[list[str], dict]:
    failures: list[str] = []
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want_rows = len(w.configs) * len(w.horizons)
    if len(rows) != want_rows:
        failures.append(f"sweep wrote {len(rows)} rows, expected {want_rows}")
    build_calls = 0
    errors, rms_errors = [], []
    for i, row in enumerate(rows):
        if row["error"]:
            failures.append(f"sweep cell {row['pca_total_dim']}/{row['slider_tuple']}: {row['error']}")
            continue
        c = i // len(w.horizons)
        h = row["horizon"]
        want_build = expected_build_calls(int(d) for d in row["slider_tuple"].split(","))
        if h != "10d":
            want_build = 0
        elif ref.build_calls[c] != want_build:
            failures.append(f"cell {c}: direct build_calls {ref.build_calls[c]}, expected {want_build}")
        if int(row["build_calls"]) != want_build:
            failures.append(f"cell {c}: build_calls {row['build_calls']}, expected {want_build}")
        build_calls += int(row["build_calls"])
        if _rel_diff(float(row["es_brute"]), ref.brute_es[h]) > ES_REL_TOL:
            failures.append(f"cell {c} {h}: es_brute {row['es_brute']} != reference {ref.brute_es[h]!r}")
        es_direct = expected_shortfall(ref.slider_pnl[c][h], ALPHA)
        if float(row["es_slider"]) != es_direct:
            failures.append(f"cell {c} {h}: es_slider {row['es_slider']} != direct {es_direct!r}")
        errors.append(float(row["relative_error"]))
        rms_errors.append(pnl_rms_error(float(row["correlation"])))
    obs = {
        "build_calls": build_calls,
        "es_rel_error": max(errors, default=float("nan")),
        "pnl_rms_error": max(rms_errors, default=WORST_PNL_RMS_ERROR),
    }
    return failures, obs
