#!/usr/bin/env python3
"""Desk-scale Expected Shortfall benchmark for chebslider.

Run from the repository root, for example:

    python3 perfbench/run.py --workload swaps-1x3 --seed 1 --seconds 30 --trace 0

The seed picks one of the recorded input seeds (see workloads.input_seed),
which generates the workload's input files. A closed loop then runs one
in-process ``chebslider`` CLI operation at a time, in this one process,
until ``--seconds`` have passed, and checks every operation's output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics. The last
line of standard output is one JSON object; README.md defines the metrics.
"""

import os
import sys

# Thread hygiene, before numpy is imported: single-threaded BLAS and no
# brute-force thread pool, so every run uses one core and one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CHEBSLIDER_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SETUP_REPS = 3  # setup_s samples per loop iteration
MIN_SAMPLE_S = 0.2  # build_s and reval_per_s repeat their work until this long
MIN_OPS = 3  # operations per run, even past --seconds
# Counts an untraced operation observes; each must repeat exactly.
PLAIN_COUNTS = ("build_calls", "pricer_calls", "pricers.floored_vols", "cheb1d.clamps")

END_TO_END = (
    ("analysis_s", "s"),
    ("build_s", "s"),
    ("reval_per_s", "scenarios/s"),
    ("build_calls", "count"),
    ("pricer_calls", "count"),
    ("pnl_rms_error", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "CHEBSLIDER_THREADS": "unset",
    }


def percentile_summary(values) -> dict:
    """Median, sample count, and the highest listed percentile with >= 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = sorted(values)[math.ceil(n * p / 100) - 1]  # nearest rank
            break
    return out


@contextlib.contextmanager
def pricer_probe(cli):
    """Count every pricer call and floored vol of one operation.

    Captures the pricer the CLI constructs and folds its counters into a
    tally whenever the sweep resets them between cells.
    """
    made = []
    tally = {"pricer_calls": 0, "pricers.floored_vols": 0}
    construct = cli.shocked_pricer

    def capture(portfolio, market):
        pricer = construct(portfolio, market)
        reset = pricer.reset_counters

        def counted_reset():
            tally["pricer_calls"] += pricer.call_count
            tally["pricers.floored_vols"] += pricer.floored_vol_count
            reset()

        pricer.reset_counters = counted_reset
        made.append(pricer)
        return pricer

    cli.shocked_pricer = capture
    try:
        yield tally
    finally:
        cli.shocked_pricer = construct
        for pricer in made:
            tally["pricer_calls"] += pricer.call_count
            tally["pricers.floored_vols"] += pricer.floored_vol_count


class Bench:
    def __init__(self, args, cb):
        import checks
        import workloads

        self.args = args
        self.input_seed = workloads.input_seed(args.seed)
        self.cb = cb
        self.checks = checks
        self.w = workloads.WORKLOADS[args.workload]
        self.workloads = workloads
        self.failed_ops: list[list[str]] = []
        self.first_outputs: dict[str, bytes] | None = None
        self.counts_seen: dict[str, int] = {}
        with open(Path(cb.__file__).parent / "report_schema.json", encoding="utf-8") as fh:
            self.schema = json.load(fh)

    def prepare(self, brute_es: dict[str, float]) -> None:
        """Write the inputs and compute what a correct operation outputs (untimed)."""
        wl = self.workloads
        self.files = wl.write_fixtures(
            self.w.book, self.input_seed, WORK / "fixtures" / f"{self.w.book}-seed{self.input_seed}"
        )
        inputs = wl.load_inputs(self.files)
        self.plan = wl.make_plan(self.w, self.files, inputs.scenarios)
        self.ref = wl.compute_reference(self.plan, inputs, brute_es)

    # -- direct path: setup, build and revaluation through the exported names

    def setup_sample(self) -> float:
        t = time.perf_counter()
        self.inputs = self.workloads.load_inputs(self.files)
        return time.perf_counter() - t

    def build_sample(self) -> float:
        passes, t = 0, time.perf_counter()
        while True:
            self.sliders = self.workloads.build_all(self.plan, self.inputs.pricer, self.inputs.scenarios)
            passes += 1
            elapsed = time.perf_counter() - t
            if elapsed >= MIN_SAMPLE_S:
                return elapsed / passes

    def reval_sample(self) -> tuple[float, list[str]]:
        passes, t = 0, time.perf_counter()
        while True:
            values = self.workloads.eval_fresh(self.plan, self.sliders)
            passes += 1
            elapsed = time.perf_counter() - t
            if elapsed >= MIN_SAMPLE_S:
                break
        problems = []
        for want, got in zip(self.ref.slider_values, values):
            if not (want[self.workloads.FRESH] == got).all():
                problems.append("direct slider evaluation differs between repeats")
        return passes * self.plan.revaluations / elapsed, problems

    # -- one CLI operation

    def operation(self, out: Path, tracer=None) -> tuple[float, list[str], dict]:
        """One in-process CLI call; returns wall seconds, failures and observations."""
        shutil.rmtree(out, ignore_errors=True)  # no output may survive from an earlier operation
        argv = self.w.argv(self.files, out)
        failures: list[str] = []
        sink = io.StringIO()
        installed = spans.installed(tracer, self.cb) if tracer else contextlib.nullcontext()
        with pricer_probe(self.cb.cli) as tally, installed:
            rec = tracer.enter("cli.main") if tracer else None
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cb.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # the loop must go on; the operation counts as failed
                code = "exception"
                failures.append(traceback.format_exc())
            elapsed = time.perf_counter() - t
            if rec is not None:
                tracer.exit(rec)
        if code != 0:
            failures.append(f"exit {code}: {sink.getvalue().strip()[-500:]}")
            return elapsed, failures, {}
        try:
            if self.w.command == "sweep":
                problems, obs = self.checks.check_sweep(self.w, out, self.ref)
            else:
                problems, obs = self.checks.check_run(self.w, out, self.ref, self.schema)
            outputs = self.checks.output_bytes(self.w, out)
        except Exception:  # missing or malformed output: the operation fails, the loop goes on
            failures.append(traceback.format_exc())
            return elapsed, failures, {}
        failures += problems
        obs.update(tally)
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            failures.append("outputs differ byte for byte from the run's first operation")
        return elapsed, failures, obs

    def record(self, failures: list[str], counts: dict) -> None:
        """Count the operation, failing it if a count differs from an earlier operation's."""
        for name, n in counts.items():
            if self.counts_seen.setdefault(name, n) != n:
                failures.append(f"{name} {n} differs from an earlier operation's {self.counts_seen[name]}")
        if failures:
            for f in failures:
                print(f"operation {len(self.failed_ops)} failed: {f}", file=sys.stderr)
        self.failed_ops.append(failures)

    # -- the two kinds of run

    def run_plain(self, deadline: float) -> tuple[dict, dict]:
        samples = {"analysis_s": [], "build_s": [], "reval_per_s": [], "setup_s": []}
        obs_last: dict = {}
        while True:
            for _ in range(SETUP_REPS):
                samples["setup_s"].append(self.setup_sample())
            samples["build_s"].append(self.build_sample())
            rate, problems = self.reval_sample()
            samples["reval_per_s"].append(rate)
            elapsed, failures, obs = self.operation(WORK / "ops" / self.w.name)
            samples["analysis_s"].append(elapsed)
            failures += problems
            self.record(failures, {k: obs[k] for k in PLAIN_COUNTS if k in obs})
            obs_last = obs or obs_last
            if time.perf_counter() >= deadline and len(self.failed_ops) >= MIN_OPS:
                break
        summaries = {k: percentile_summary(v) for k, v in samples.items()}
        self.samples = samples
        metrics = {k: s["median"] for k, s in summaries.items()}
        metrics["build_calls"] = obs_last.get("build_calls", 0)
        metrics["pricer_calls"] = obs_last.get("pricer_calls", 0)
        self.es_rel_error = obs_last.get("es_rel_error", float("nan"))
        metrics["pnl_rms_error"] = obs_last.get("pnl_rms_error", self.checks.WORST_PNL_RMS_ERROR)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, summaries

    def run_traced(self, deadline: float) -> tuple[dict, dict]:
        tracer = spans.Tracer()
        plain_s, traced_s, per_op = [], [], []
        while True:
            # Alternate which of the pair goes first, so order effects cancel.
            for traced in (False, True) if len(per_op) % 2 == 0 else (True, False):
                if not traced:
                    elapsed, failures, _ = self.operation(WORK / "ops" / self.w.name)
                    plain_s.append(elapsed)
                    self.record(failures, {})
                    continue
                tracer.op = len(self.failed_ops)
                out = WORK / "ops" / f"{self.w.name}-traced"
                elapsed, failures, obs = self.operation(out, tracer)
                traced_s.append(elapsed)
                m = spans.metrics_by_op(tracer)[tracer.op]
                if obs and m["pricers.calls"] != obs["pricer_calls"]:
                    failures.append(f"traced pricer calls {m['pricers.calls']} != counted {obs['pricer_calls']}")
                self.record(failures, {k: m[k] for k in spans.STABLE_COUNTS})
                per_op.append(m)
            if time.perf_counter() >= deadline and len(per_op) >= MIN_OPS:
                break
        tracer.write(WORK / f"spans-{self.w.name}-seed{self.args.seed}.csv")
        metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
        self.samples = {"analysis_s.untraced": plain_s, "analysis_s.traced": traced_s}
        summaries = {k: percentile_summary(v) for k, v in self.samples.items()}
        return metrics, summaries


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chebslider" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/chebslider not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import chebslider.cli  # noqa: F401  (loads every module the trace wraps)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cb = sys.modules["chebslider"]
    WORK.mkdir(exist_ok=True)
    bench = Bench(args, cb)
    bench.prepare(workloads.recorded_brute_es(bench.w.book, bench.input_seed))
    env = environment()
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        metrics, summaries = bench.run_traced(deadline)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        metrics, summaries = bench.run_plain(deadline)
        units = dict(END_TO_END)

    attempted = len(bench.failed_ops)
    failed = sum(1 for f in bench.failed_ops if f)
    correct = failed == 0
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} (inputs of seed {bench.input_seed}) "
          f"trace {args.trace}: {attempted} operations")
    for name, unit in units.items():
        extra = summaries.get(name)
        tail = f"  {json.dumps(extra)}" if extra else ""
        print(f"  {name:<30} {metrics[name]:.6g} {unit}{tail}")
    for name, s in summaries.items():
        if name not in units:
            print(f"  {name:<30} {json.dumps(s)}")
    if not args.trace:
        print(f"  {'es_rel_error':<30} {bench.es_rel_error:.6g} ratio")
        print(f"  {'failed_frac':<30} {failed / attempted:.6g} ratio")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": int(metrics[name]) if unit == "count" else metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"env": env, "args": vars(args), "summaries": summaries, "samples": bench.samples, **result},
            fh,
            indent=2,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
