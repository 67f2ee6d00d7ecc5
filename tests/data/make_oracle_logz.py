"""Append to oracle_logz.json: 50-digit reference log Z for seeded
determinant instances, with the relative error `z_determinant` had on each.

    PYTHONPATH=src python3 tests/data/make_oracle_logz.py

Instances are default-sampler draws (`verify.sample_params` with
`SuiteConfig()`, generator seeded by (seed, N)) at N = 16 and 50 on seeds
1-12 and N = 100 on seeds 1-2.  The reference is `perfbench/oracle.py`'s
mpmath evaluation of the determinant formula (about 15 s at N = 100).
`parent_err` is the error of the `sosre` on the import path when a row is
written, and the accuracy test bounds later code by a multiple of it, so
rows already in the file are kept byte for byte and only missing instances
are computed and appended.  The first 14 rows (seeds 1-6, and N = 100) were
written with the determinant that took the sinh of every grid and pair
argument; the N = 16 and 50 rows on seeds 7-12 with the sinh^2 form and the
hand-written blocked LU that preceded LAPACK's.  Needs mpmath, which the
tests themselves do not.
"""

import json
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "perfbench"))

import oracle  # noqa: E402
from sosre import partition, verify  # noqa: E402
from sosre.params import IllConditionedWarning  # noqa: E402

CASES = ([(n, seed) for n in (16, 50) for seed in range(1, 7)] + [(100, 1), (100, 2)]
         + [(n, seed) for n in (16, 50) for seed in range(7, 13)])
FIXTURE = HERE / "oracle_logz.json"


def wire(z):
    return [z.real, z.imag]


def main():
    # one JSON row per line between the header line and the closing line
    rows = FIXTURE.read_text().splitlines()[1:-1] if FIXTURE.exists() else []
    rows = [r.removesuffix(",") for r in rows]
    done = {(r["n"], r["seed"]) for r in map(json.loads, rows)}
    for n, seed in CASES:
        if (n, seed) in done:
            continue
        p = verify.sample_params(
            verify.SuiteConfig(), n, np.random.default_rng(np.random.SeedSequence((seed, n))))
        ref = oracle.z_reference(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            log_value = partition.z_determinant(p).log_value
        with mpmath.workdps(oracle.DIGITS):
            log_ref = mpmath.log(ref)
            log_z = [mpmath.nstr(log_ref.real, oracle.DIGITS), mpmath.nstr(log_ref.imag, oracle.DIGITS)]
        err = oracle.rel_error_log(log_value, ref)
        rows.append(json.dumps({
            "n": n, "seed": seed, "eta": wire(p.eta), "zeta": wire(p.zeta),
            "theta": wire(p.theta), "lambdas": [wire(v) for v in p.lambdas],
            "xis": [wire(v) for v in p.xis], "log_z": log_z, "parent_err": err}))
        print(f"N={n} seed={seed} err={err:.2e}", file=sys.stderr)
    rows = ",\n".join(rows)
    FIXTURE.write_text(f'{{"digits": {oracle.DIGITS}, "instances": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
