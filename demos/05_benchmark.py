"""Scaling of the two evaluation routes: O(N^2 2^N) contraction vs O(N^3) determinant."""

import time
import warnings

import numpy as np

from sosre import partition, verify
from sosre.params import rel_diff

cfg = verify.SuiteConfig()

print("N    t_det_ms   t_brute_ms   rel_diff")
for n in range(1, 9):
    p = verify.sample_params(cfg, n, np.random.default_rng(500 + n))
    det = partition.z_determinant(p)
    brute = partition.z_bruteforce(p)
    print(f"{n:<4d} {det.elapsed * 1e3:<10.3f} {brute.elapsed * 1e3:<12.3f} "
          f"{rel_diff(det.value, brute.value):.1e}")

print("\ndeterminant only:")
for n in (16, 32, 64, 128, 200):
    t0 = time.perf_counter()
    p = verify.sample_params(cfg, n, np.random.default_rng(600 + n))
    t_sample = time.perf_counter() - t0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        det = partition.z_determinant(p)
    print(f"N={n:<4d} sample {t_sample * 1e3:7.1f} ms   evaluate {det.elapsed * 1e3:7.1f} ms   "
          f"log|Z| {det.log_value.real:9.1f}")
