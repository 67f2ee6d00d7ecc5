"""Benchmark of sosre: seeded workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload det_large --seed 1 --seconds 35 --trace 0

Run from anywhere; sosre is imported from the ``src`` directory next to this
one.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it list every metric by name with its unit, sample count and tail
percentile.  ``--report FILE`` also writes the full result, with the
environment block, as JSON.  See README.md in this directory.
"""

import os

# BLAS thread pools are sized when numpy loads, so pin them first.
PINNED_THREADS = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("det_large", "det_sweep", "brute_contract")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120


def set_up(name, seed, workdir):
    """Import sosre and generate the workload's inputs: (workload, inputs, s).

    The benchmark's own modules and mpmath are imported outside the clock.
    """
    t0 = time.perf_counter()
    import sosre.cli  # noqa: F401  (importing the package is part of set-up)
    t_import = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    t0 = time.perf_counter()
    inputs = wl.generate(workdir)
    return wl, inputs, t_import + time.perf_counter() - t0


def probe_setup(args):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def measure(wl, inputs, refs, seconds):
    """Passes until the next one would end after `seconds`; at least one."""
    passes, walls = [], []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(inputs, refs))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(walls) > t_end:
            return passes


def pass_seconds(passes):
    return [sum(op.seconds for op in ops) for ops in passes]


def best_pass_seconds(passes):
    """One pass's calls, each at the fastest time seen for its kind of call."""
    best = {}
    for ops in passes:
        for op in ops:
            best[op.kind] = min(best.get(op.kind, op.seconds), op.seconds)
    return sum(best[op.kind] for op in passes[0])


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads_pinned": {var: os.environ.get(var) for var in PINNED_THREADS},
    }


def metric(value, unit, samples=1, tail=None):
    return {"value": value, "unit": unit, "samples": samples,
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]}}


def run(args, workdir):
    """One benchmark run; returns the full report."""
    wl, inputs, setup_s = set_up(args.workload, args.seed, workdir)
    from sosre import IllConditionedWarning

    import spans
    import workloads

    if not Path(sys.modules["sosre"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"sosre was not imported from {SRC}")
    warnings.simplefilter("ignore", IllConditionedWarning)
    refs = wl.references(inputs)
    ops = list(wl.run_pass(inputs, refs))  # warm-up: checked, not timed
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    e2e, layers = {}, {}

    if not args.trace:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        passes = measure(wl, inputs, refs, args.seconds)
        measured = [op for p in passes for op in p]
        ops += measured
        e2e["setup_s"] = metric(statistics.median(setups), "s", len(setups))
        times = pass_seconds(passes)
        e2e["pass_min_s"] = metric(best_pass_seconds(passes), "s", len(times))
        med, n, tail = workloads.stats(times)
        e2e["pass_median_s"] = metric(med, "s", n, tail)
        report["pass_seconds"] = times
        for name, (value, unit, samples, tail) in wl.summary(measured).items():
            e2e[name] = metric(value, unit, samples, tail)
    else:
        untraced = measure(wl, inputs, refs, args.seconds / 3)
        tracer = spans.Tracer()
        tracer.install()
        try:
            wl.generate(workdir)
            setup_stats, tracer.stats = tracer.stats, spans.Stats()
            traced = measure(wl, inputs, refs, args.seconds * 2 / 3)
        finally:
            tracer.uninstall()
        for p in untraced + traced:
            ops += p
        per_pass = spans.layer_metrics(tracer.stats, len(traced), tracer.missing,
                                       spans.PASS_METRICS)
        per_setup = spans.layer_metrics(setup_stats, 1, tracer.missing, spans.SETUP_METRICS)
        for name, (value, unit) in per_pass.items():
            layers[name] = metric(value, unit, len(traced))
        for name, (value, unit) in per_setup.items():
            layers[name] = metric(value, unit)
        ratio = best_pass_seconds(traced) / best_pass_seconds(untraced)
        layers["trace_overhead_ratio"] = metric(ratio, "ratio", len(traced))
        report["missing_layers"] = tracer.missing
        report["by_size"] = {
            "det": spans.by_size(tracer.stats, len(traced), (
                "partition.z_determinant", "partition.det.guards",
                "partition.det.kernel", "partition.det.lu")),
            "brute": spans.by_size(tracer.stats, len(traced), (
                "partition.z_bruteforce", "chain_ops.b_operator")),
        }

    failed = [op for op in ops if op.error is not None]
    e2e["ops_failed_ratio"] = metric(len(failed) / len(ops), "ratio", len(ops))
    report.update(attempted=len(ops), failed=len(failed),
                  failures=[f"{op.kind}: {op.error}" for op in failed[:20]],
                  end_to_end=e2e, per_layer=layers)
    return report


def result_line(report, names):
    """The last output line: exactly the metrics named in BENCHMARK.json."""
    source = report["per_layer"] if report["trace"] else report["end_to_end"]
    metrics = {name: {"value": source[name]["value"], "unit": source[name]["unit"]}
               for name in names if name in source}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report):
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    for section in ("end_to_end", "per_layer"):
        for name, m in report[section].items():
            tail = m["tail"]
            tail = f"p{tail['percentile']}={tail['value']:.6g}" if tail else ""
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']:14s} n={m['samples']:<5d} {tail}")
    for name in report.get("missing_layers", []):
        print(f"  missing layer: {name}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print(f"  operations: {report['attempted']} attempted, {report['failed']} failed")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", default=None, help="also write the full result as JSON here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sosre" / "__init__.py").is_file():
        print(f"perfbench: no sosre sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up may write an input file; keep it inside the checkout.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed, workdir)[2]}))
            return 0
        report = run(args, workdir)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_table(report)
    print(json.dumps(result_line(report, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
