#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's quartiles and spread.

Run from the repository root, for example:

    python3 perfbench/spread.py --workload swaps-sweep --seeds 1-10 --seconds 30

Spread is (Q3 - Q1) / median over the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them. Each run's full result
line is appended to ``--log`` (default ``.perfbench/spread.jsonl``).
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def dump(doc: dict) -> str:
    """JSON with each metric's summary on one line."""
    text = json.dumps(doc, indent=1, allow_nan=False)
    return re.sub(r'\{\n\s+"unit"[^}]*\}', lambda m: " ".join(m.group(0).split()), text)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. '1-10' or '3,5,8'")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--log", default=".perfbench/spread.jsonl")
    p.add_argument("--baseline", help="merge this workload's summary into this JSON file")
    args = p.parse_args()
    here = Path(__file__).resolve().parent
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(here / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            failed += 1
            continue
        result = json.loads(lines[-1])
        env = json.loads(lines[0].partition(" ")[2])
        with open(args.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "wall_s": wall, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            failed += 1
            print(f"seed {seed}: incorrect ({result['failed']}/{result['attempted']} failed)",
                  file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else None
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:<30} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread if spread is None else round(spread, 4)}  (n={len(vals)})")
    if args.baseline and values and not failed:
        path = Path(args.baseline)
        doc = json.loads(path.read_text()) if path.is_file() else {}
        doc.setdefault("workloads", {}).setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "env": env,
            "metrics": summary,
        }
        path.write_text(dump(doc) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
