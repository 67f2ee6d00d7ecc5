"""Command-line interface: compute, verify, sweep.

Complex numbers cross the wire as two-element arrays [re, im], and a number
that is not finite (a Z past a double's range, a NaN rel_diff) as null.  JSON
goes to stdout (or --output), CSV has a header row and '.' decimals.  Exit
code 0 means every requested computation/check succeeded; 1 means a
verification failure; 2 means bad input or a singular evaluation.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import partition, verify
from .params import (
    ModelParams,
    ParseError,
    SosError,
    rel_diff,
    validate_params,
)


def _complex_from_wire(value, where):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ParseError(f"{where}: expected [re, im], got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None


def _float_to_wire(x):
    """x, or None where it is not finite: JSON has no inf or NaN."""
    x = float(x)
    return x if np.isfinite(x) else None


def _complex_to_wire(z):
    z = complex(z)
    return [_float_to_wire(z.real), _float_to_wire(z.imag)]


def load_model_params(path):
    """Read a ModelParams JSON file and enforce every instance invariant."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    except ValueError as e:  # undecodable bytes, or an integer past int's digit limit
        raise ParseError(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("eta", "zeta", "theta", "lambdas", "xis"):
        if key not in doc:
            raise ParseError(f"{path}: missing field {key!r}")
    for key in ("lambdas", "xis"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{path}: field {key!r} must be a list")
    p = ModelParams(
        eta=_complex_from_wire(doc["eta"], f"{path}: eta"),
        zeta=_complex_from_wire(doc["zeta"], f"{path}: zeta"),
        theta=_complex_from_wire(doc["theta"], f"{path}: theta"),
        lambdas=tuple(
            _complex_from_wire(v, f"{path}: lambdas[{i}]")
            for i, v in enumerate(doc["lambdas"])
        ),
        xis=tuple(
            _complex_from_wire(v, f"{path}: xis[{i}]")
            for i, v in enumerate(doc["xis"])
        ),
    )
    validate_params(p)
    return p


def dump_model_params(p):
    """Inverse of load_model_params (round-trips exactly)."""
    return json.dumps(
        {
            "eta": _complex_to_wire(p.eta),
            "zeta": _complex_to_wire(p.zeta),
            "theta": _complex_to_wire(p.theta),
            "lambdas": [_complex_to_wire(v) for v in p.lambdas],
            "xis": [_complex_to_wire(v) for v in p.xis],
        },
        indent=2,
    )


def _result_doc(r):
    doc = {
        "Z": _complex_to_wire(r.value),
        "method": r.method,
        "elapsed_ms": r.elapsed * 1000.0,
        "n": r.n,
    }
    if r.cond_hint is not None:
        doc["cond_hint"] = _float_to_wire(r.cond_hint)
    if r.log_value is not None:
        doc["log_Z"] = _complex_to_wire(r.log_value)
    return doc


def _emit(text, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        except OSError as e:
            raise ParseError(f"cannot write {output}: {e}") from None
    else:
        print(text)


def cmd_compute(p, method, output=None):
    """Evaluate Z by the requested route(s) and emit JSON."""
    results = []
    if method in ("det", "both"):
        results.append(partition.z_determinant(p))
    if method in ("brute", "both"):
        results.append(partition.z_bruteforce(p))
    if method == "both":
        doc = {
            "results": [_result_doc(r) for r in results],
            "rel_diff": _float_to_wire(rel_diff(results[0].value, results[1].value)),
        }
    else:
        doc = _result_doc(results[0])
    _emit(json.dumps(doc, indent=2, allow_nan=False), output)
    return 0


def cmd_verify(suite, seed, samples, max_n, output=None):
    """Run a verification suite; exit 0 only if every check passed."""
    n_values = verify.SuiteConfig.n_values
    if max_n is not None:
        n_values = tuple(n for n in n_values if n <= max_n)
        if not n_values:
            raise ParseError(f"--max-n {max_n} leaves no chain sizes to test")
    cfg = verify.SuiteConfig(seed=seed, samples_per_case=samples, n_values=n_values)
    report = verify.run_suite(suite, cfg)
    _emit(report.to_json(), output)
    return 0 if report.summary["failed"] == 0 else 1


def cmd_sweep(p, vary, start, stop, points, output=None):
    """Z by determinant along a straight-line grid in one lambda.

    `vary` is 1-based.  Every grid point gets a CSV row with its lambda and a
    status: `ok` with both Z columns; `skipped` where the point fails the
    genericity guards, and `nonfinite` where Z is past a double's range or
    NaN (at large real lambda), both with the Z columns empty.

    The grid is built, and checked finite, before anything is evaluated.
    `partition.z_sweep` then factors p's kernel once, and each point costs
    O(N): a guard over the entries that hold the varied lambda and the
    matrix determinant lemma.  A row may differ from `compute` at the same
    lambda in its last digits, within the point's error estimate; above
    N = 64, where `compute` takes no refinement step, also by `compute`'s
    own LU rounding, which the estimate leaves out.  A point whose lemma
    error is over `partition.SWEEP_ACCEPT_ERR`, or whose value is not
    finite, is computed exactly as `compute` does, and only such points
    warn IllConditionedWarning.
    """
    if not 1 <= vary <= p.n:
        raise ParseError(f"--vary must be in 1..{p.n}, got {vary}")
    if points < 1:
        raise ParseError("--points must be >= 1")
    if points == 1:
        grid = np.array([start])
    else:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                grid = start + (stop - start) * np.arange(points) / (points - 1)
        except MemoryError:
            raise ParseError(f"--points {points} is more grid points than memory holds") from None
    bad = (~np.isfinite(grid)).nonzero()[0]
    if bad.size:
        raise ParseError(f"grid point {bad[0]} (from 0) between --from and --to is "
                         f"not finite: {complex(grid[bad[0]])}")
    res = partition.z_sweep(p, vary - 1, grid)
    rows = ["lambda_re,lambda_im,z_re,z_im,status"]
    for v, z, skipped in zip(grid.tolist(), res.values.tolist(), res.skipped.tolist()):
        lam = f"{v.real:.17g},{v.imag:.17g}"
        if skipped:
            rows.append(f"{lam},,,skipped")
        elif cmath.isfinite(z):
            rows.append(f"{lam},{z.real:.17g},{z.imag:.17g},ok")
        else:
            rows.append(f"{lam},,,nonfinite")
    _emit("\n".join(rows), output)
    return 0


def _parse_complex_flag(text, flag):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"{flag} expects RE,IM, got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParseError(f"{flag} expects two floats, got {text!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(f"{flag} expects finite floats, got {text!r}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sosre",
        description="Reflecting-end SOS partition function: compute, verify, sweep.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate Z for a parameter file")
    c.add_argument("--config", required=True, help="ModelParams JSON file")
    c.add_argument("--method", choices=("det", "brute", "both"), default="det")
    c.add_argument("--output", default=None)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=verify.SUITE_NAMES, required=True)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--samples", type=int, default=25)
    v.add_argument("--max-n", type=int, default=None,
                   help="drop the default chain sizes (1, 2, 3) above this; "
                        "it adds no larger ones")
    v.add_argument("--output", default=None)

    s = sub.add_parser("sweep", help="Z along a grid in one lambda")
    s.add_argument("--config", required=True)
    s.add_argument("--vary", type=int, required=True, help="1-based lambda index")
    s.add_argument("--from", dest="start", required=True, metavar="RE,IM")
    s.add_argument("--to", dest="stop", required=True, metavar="RE,IM")
    s.add_argument("--points", type=int, required=True)
    s.add_argument("--output", default=None)
    return ap


def main(argv=None):
    """Run one subcommand; returns the exit code, also for argparse's usage
    errors (2) and --help (0), which it would otherwise raise."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "--from -0.3,0.1" as two flags; attach: "--from=-0.3,0.1"
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--from", "--to"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        if args.command == "compute":
            p = load_model_params(args.config)
            return cmd_compute(p, args.method, output=args.output)
        if args.command == "verify":
            if args.seed < 0:
                raise ParseError("--seed must be nonnegative")
            if args.samples < 1:
                raise ParseError("--samples must be >= 1")
            return cmd_verify(
                args.suite, args.seed, args.samples, args.max_n, output=args.output
            )
        if args.command == "sweep":
            p = load_model_params(args.config)
            start = _parse_complex_flag(args.start, "--from")
            stop = _parse_complex_flag(args.stop, "--to")
            return cmd_sweep(p, args.vary, start, stop, args.points, output=args.output)
        raise ParseError(f"unknown command {args.command!r}")
    except SosError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
