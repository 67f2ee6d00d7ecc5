"""Double-row monodromy blocks and the operator identities they satisfy."""

import numpy as np

from sosre import chain_ops, verify

cfg = verify.SuiteConfig()
rng = np.random.default_rng(2)
p = verify.sample_params(cfg, 2, rng)
lam1, lam2 = p.lambdas

T = chain_ops.double_row_full(lam1, p)
h = 1 << p.n
blocks = {"A": T[:h, :h], "B": T[:h, h:], "C": T[h:, :h], "D": T[h:, h:]}
mags = p.n - 2 * np.bitwise_count(np.arange(h)).astype(int)
print(f"N = {p.n}: each block is {h}x{h}")
print("grading residuals (A,D conserve, B lowers by 2, C raises by 2):")
for name, delta in (("A", 0), ("B", -2), ("C", +2), ("D", 0)):
    outside = mags[:, None] != mags[None, :] + delta
    print(f"  {name}:", np.max(np.abs(np.where(outside, blocks[name], 0.0))))

print("\noperator identities:")
print("  exchange algebra      :", chain_ops.check_exchange_algebra(lam1, lam2, p))
print("  double-row reflection :", chain_ops.check_double_row_reflection(lam1, lam2, p))
print("  B commutation         :", chain_ops.check_b_commutation(lam1, lam2, p))
print("  inverse identity      :", chain_ops.check_monodromy_inverse(lam1, p))

# the crossing identity needs the image point -lambda-eta to be generic too
pc = verify.sample_params(cfg, 2, rng, extra_guards=verify._crossing_extra(0))
print("  B crossing            :", chain_ops.check_b_crossing(pc.lambdas[0], pc))

factor = chain_ops.crossing_scalar(pc.lambdas[0], pc.theta, pc.eta, pc.zeta)
back = chain_ops.crossing_scalar(-pc.lambdas[0] - pc.eta, pc.theta, pc.eta, pc.zeta)
print("\ncrossing factor involution |f(l) f(-l-eta) - 1| =", abs(factor * back - 1.0))

print("\ninverse-identity scalar at N =", p.n, ":", chain_ops.gamma_hat(lam1, p))
