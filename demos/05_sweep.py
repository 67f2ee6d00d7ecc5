"""Z along a line in one spectral parameter, as `sosre sweep` computes it:
one LU for the parameter file, then O(N) per point by the matrix
determinant lemma."""

import numpy as np

from sosre import ModelParams, partition
from sosre.params import rel_diff

# the README example; lambda_0 runs from xi_0 = 0.24 to 0.44
p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                lambdas=(0.31, 0.47), xis=(0.24, 0.11))
grid = np.linspace(0.24, 0.44, 11)
res = partition.z_sweep(p, 0, grid)

# the inputs are real, and so is Z; err is the point's estimated relative
# distance from z_determinant, and fallback marks a point computed by it
print("lambda_0  Z                       status   err      fallback")
for v, z, skipped, fallback, err in zip(grid, res.values, res.skipped, res.fallback, res.err):
    if skipped:
        print(f"{v:.2f}      {'-':23} skipped  -        -")
    else:
        print(f"{v:.2f}      {z.real:+.15e}  ok       {err:.1e}  {fallback}")

# at lambda_0 = xi_0 the kernel's lambda - xi entry vanishes, so the
# guards skip that point; every other point is one determinant lemma
assert res.skipped[0] and not res.skipped[1:].any()

# each ok row is the Z that z_determinant gives at that lambda_0
worst = max(rel_diff(res.values[k], partition.z_determinant(p.replace_lambda(0, grid[k])).value)
            for k in (1, 5, 10))
print(f"\nrows 1, 5 and 10 against z_determinant: rel diff {worst:.1e} at most")
assert worst <= 1e-12
