#!/usr/bin/env python3
"""Record the brute-force ES that the benchmark checks each seed's operations against.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py --seeds 0-511

For every book and seed it writes the input files, prices the base and every
scenario of every horizon the book's workloads use through scalar pricer
calls, and stores the brute-force ES in ``perfbench/reference.json``.
``run.py`` fails any operation whose brute-force ES differs from the
recorded value by more than 1e-9 relative. It maps every ``--seed`` onto
input seeds 0 to ``workloads.RECORDED_SEEDS - 1``, so record all of them.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from chebslider import expected_shortfall  # noqa: E402

import workloads  # noqa: E402
from spread import seed_list  # noqa: E402


def book_horizons() -> dict[str, tuple[str, ...]]:
    """Every horizon any workload of a book evaluates, per book."""
    books: dict[str, tuple[str, ...]] = {}
    for w in workloads.WORKLOADS.values():
        books[w.book] = tuple(dict.fromkeys(books.get(w.book, ()) + w.horizons))
    return books


def brute_es(book: str, horizons, seed: int) -> dict[str, float]:
    directory = ROOT / ".perfbench" / "record" / f"{book}-seed{seed}"
    files = workloads.write_fixtures(book, seed, directory)
    inputs = workloads.load_inputs(files)
    base = np.zeros(inputs.scenarios.n_factors)
    base_value = float(inputs.pricer(base))
    shocks = workloads.horizon_shocks(workloads.read_blocks(files), inputs.scenarios, base, horizons)
    shutil.rmtree(directory)
    return {
        h: expected_shortfall(np.array([inputs.pricer(row) for row in x]) - base_value, workloads.ALPHA)
        for h, x in shocks.items()
    }


def write_reference(recorded: dict[str, dict], path: Path) -> None:
    """One line per book and seed keeps the file diffable."""
    body = ",\n".join(
        f"  {json.dumps(book)}: {{\n"
        + ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(es)}"
            for seed, es in sorted(seeds.items(), key=lambda kv: int(kv[0]))
        )
        + "\n  }"
        for book, seeds in recorded.items()
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"books": {\n' + body + "\n}}\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-511")
    p.add_argument("--out", default=str(workloads.REFERENCE))
    args = p.parse_args()
    books = book_horizons()
    recorded: dict[str, dict] = {book: {} for book in books}
    for seed in seed_list(args.seeds):
        for book, horizons in books.items():
            recorded[book][str(seed)] = brute_es(book, horizons, seed)
        print(f"seed {seed} recorded", flush=True)
    write_reference(recorded, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
