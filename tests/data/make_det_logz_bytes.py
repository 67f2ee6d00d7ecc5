"""Write det_logz_bytes.json: digests of the exact bytes `z_determinant`
returns on seeded large-N draws, so a change to how the determinant's work
is laid out or scheduled can be held to the same bits.

    PYTHONPATH=src python3 tests/data/make_det_logz_bytes.py
    PYTHONPATH=src python3 tests/data/make_det_logz_bytes.py --cpus 1

With `--cpus K` it writes nothing and prints the rows as JSON, the
determinant seeing K CPUs (`partition._cpus`), so a test can run either
schedule.  Either way LAPACK runs on one thread: zgetrf's bits depend on
its thread count (at N = 101 and up the default two threads of a 2-vCPU
host round differently from one).

Instances are `verify.sample_params` draws at margins one tenth of the suite
defaults, `SAMPLER` (the benchmark's large-N sampler), generator seeded by
SeedSequence((seed, N)), at N = 65, 101, 200, 401 and 800 and seeds 1-3.
Each row keeps `params_sha256`, the sha256 of the draw's parameters as
complex128 (eta, zeta, theta, lambdas, xis), so that a changed sampler shows
as such, and `z_sha256`, the sha256 of `log_value` and `value` as complex128
followed by `cond_hint` as float64.  The file was written by the determinant
that ran all its work on the calling thread and took its LU's copy of the
kernel in `logdet_partial_pivot`; the bits depend on numpy's complex loops,
LAPACK's zgetrf and the platform's complex sinh, so the test reading them is
only as portable as those.  `lapack_sha256` is the sha256 of zgetrf's
factors of a fixed matrix, so that a test can tell a LAPACK that rounds
differently from a changed determinant.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from sosre import partition, verify  # noqa: E402
from sosre.params import IllConditionedWarning  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "det_logz_bytes.json"
SAMPLER = verify.SuiteConfig(guard_tol=0.01, ratio_guard_tol=0.035)
SIZES = (65, 101, 200, 401, 800)
SEEDS = (1, 2, 3)


def draw(n, seed):
    return verify.sample_params(SAMPLER, n, np.random.default_rng(np.random.SeedSequence((seed, n))))


def params_sha256(p):
    v = np.array([p.eta, p.zeta, p.theta, *p.lambdas, *p.xis], dtype=np.complex128)
    return hashlib.sha256(v.tobytes()).hexdigest()


def z_sha256(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        r = partition.z_determinant(p)
    raw = (np.complex128(r.log_value).tobytes() + np.complex128(r.value).tobytes()
           + np.float64(r.cond_hint).tobytes())
    return hashlib.sha256(raw).hexdigest()


def lapack_sha256():
    from scipy.linalg.lapack import zgetrf

    a = np.random.default_rng(0).standard_normal((2, 400, 400))
    lu, piv, _ = zgetrf(a[0] + 1j * a[1])
    return hashlib.sha256(lu.tobytes() + piv.tobytes()).hexdigest()


def main():
    if sys.argv[1:2] == ["--cpus"]:
        partition._cpus = lambda: int(sys.argv[2])
    rows = [json.dumps({"n": n, "seed": seed, "params_sha256": params_sha256(p),
                        "z_sha256": z_sha256(p)})
            for n in SIZES for seed in SEEDS for p in [draw(n, seed)]]
    doc = f'{{"lapack_sha256": "{lapack_sha256()}", "instances": [\n' + ",\n".join(rows) + "\n]}\n"
    if sys.argv[1:2] == ["--cpus"]:
        print(doc, end="")
    else:
        FIXTURE.write_text(doc)


if __name__ == "__main__":
    main()
