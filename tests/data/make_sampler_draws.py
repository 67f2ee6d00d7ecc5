"""Write sampler_draws.json: digests of the exact draws `verify.sample_params`
returns, so a change to the guards that screen its draws can be held to the
same draws, accepted and rejected alike.

    PYTHONPATH=src python3 tests/data/make_sampler_draws.py

`workloads` rows are the benchmark's inputs (perfbench/workloads.py) on
seeds 1-3: det_large's N = 50 draw at `SuiteConfig()` and its N = 200 and
800 draws at `LARGE` (its large-N sampler), det_sweep's N = 16 draw and
brute_contract's N = 4-8 draws, each generator seeded by
SeedSequence((seed, N)).  `calls` rows are `CALLS[N]` successive
`SuiteConfig()` calls at N on one generator seeded by SeedSequence((9, N)),
hashed together: a draw the sampler rejected moves every later one.  A
digest is the sha256 of each draw's parameters as complex128 (eta, zeta,
theta, lambdas, xis), draw after draw.  The file was written by the sampler
that screened each draw with the guards' unbounded margins; the draws
depend on numpy's generator and complex sinh, so the test reading them is
only as portable as those.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from sosre import verify

FIXTURE = Path(__file__).resolve().parent / "sampler_draws.json"
DEFAULT = verify.SuiteConfig()
LARGE = verify.SuiteConfig(guard_tol=0.01, ratio_guard_tol=0.035)
WORKLOADS = {"det_large": ((50, DEFAULT), (200, LARGE), (800, LARGE)),
             "det_sweep": ((16, DEFAULT),),
             "brute_contract": tuple((n, DEFAULT) for n in range(4, 9))}
SEEDS = (1, 2, 3)
CALLS = {**{n: 125 for n in range(1, 9)}, **{n: 4 for n in range(9, 17)}}


def digest(draws):
    h = hashlib.sha256()
    for p in draws:
        h.update(np.array([p.eta, p.zeta, p.theta, *p.lambdas, *p.xis], dtype=complex).tobytes())
    return h.hexdigest()


def rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def document():
    """The file's text."""
    rows = [{"workload": name, "n": n, "seed": seed,
             "sha256": digest([verify.sample_params(cfg, n, rng(seed, n))])}
            for name, inputs in WORKLOADS.items() for seed in SEEDS for n, cfg in inputs]
    calls = []
    for n, count in CALLS.items():
        g = rng(9, n)
        calls.append({"n": n, "calls": count,
                      "sha256": digest([verify.sample_params(DEFAULT, n, g) for _ in range(count)])})
    rows, calls = (",\n".join(map(json.dumps, rs)) for rs in (rows, calls))
    return f'{{"workloads": [\n{rows}\n],\n"calls": [\n{calls}\n]}}\n'


def main():
    FIXTURE.write_text(document())


if __name__ == "__main__":
    main()
