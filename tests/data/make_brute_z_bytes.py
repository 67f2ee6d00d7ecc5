"""Write brute_z_bytes.json: the exact bytes of `z_bruteforce` on seeded
default-sampler draws, so a change to the contraction's layout can be held
to the same bits.

    PYTHONPATH=src python3 tests/data/make_brute_z_bytes.py

Instances are `verify.sample_params` draws with `SuiteConfig()`, generator
seeded by SeedSequence((5, N, s)), at N = 1-8 and s = 0-7.  Each row keeps
the parameters (JSON floats round-trip exactly) and `z_hex`, the 16 bytes
of Z as a complex128 in hex.  The file was written by the contraction that
built one gather plan per double row and read its weights from a table
padded to 2 N^3 cells; the bits depend on numpy's complex loops and the
platform's complex sinh, so the test reading them is only as portable as
those.
"""

import json
from pathlib import Path

import numpy as np

from sosre import partition, verify

FIXTURE = Path(__file__).resolve().parent / "brute_z_bytes.json"


def wire(z):
    return [z.real, z.imag]


def main():
    rows = []
    for n in range(1, 9):
        for s in range(8):
            p = verify.sample_params(
                verify.SuiteConfig(), n, np.random.default_rng(np.random.SeedSequence((5, n, s))))
            z = np.complex128(partition.z_bruteforce(p).value)
            rows.append(json.dumps({
                "n": n, "seed": s, "eta": wire(p.eta), "zeta": wire(p.zeta),
                "theta": wire(p.theta), "lambdas": [wire(v) for v in p.lambdas],
                "xis": [wire(v) for v in p.xis], "z_hex": z.tobytes().hex()}))
    rows = ",\n".join(rows)
    FIXTURE.write_text(f'{{"instances": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
