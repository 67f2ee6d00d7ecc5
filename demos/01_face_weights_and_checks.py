"""Face weights, the R and K matrices, and the weight-level identities."""

import numpy as np

from sosre import verify, weights

lam, theta, eta, zeta = 0.31 + 0.11j, 0.93, 0.57 - 0.08j, 1.07

w = weights.face_weights(lam, theta, eta)
print("face weights at lambda =", lam)
for name in ("a", "b_plus", "b_minus", "c_plus", "c_minus"):
    print(f"  {name:8s} = {getattr(w, name):.6f}")

R = weights.r_matrix(lam, theta, eta)
print("\nR zero pattern (X = structurally nonzero):")
for row in range(4):
    print("  " + " ".join("X" if R[row, col] != 0 else "." for col in range(4)))
print("ice rule residual           :", weights.ice_rule_residual(lam, theta, eta))
print("transposed ice rule residual:", weights.transposed_ice_rule_residual(lam, theta, eta))

K = weights.k_matrix(lam, theta, zeta)
print("\nK =", np.diag(K))
print("K(0) is the identity:", np.allclose(weights.k_matrix(0.0, theta, zeta), np.eye(2)))

print("\nseeded identity checks:")
cfg = verify.SuiteConfig()
rng = np.random.default_rng(1)
for _ in range(5):
    p = verify.sample_params(cfg, 2, rng)
    dybe = weights.check_dybe((p.lambdas[0], p.lambdas[1], p.eta / 3), p.theta, p.eta)
    unit = weights.check_unitarity(p.lambdas[0], p.theta, p.eta)
    refl = weights.check_reflection_equation(p.lambdas[0], p.lambdas[1], p.theta, p.eta, p.zeta)
    print(f"  dybe {dybe:.2e}  unitarity {unit:.2e}  reflection {refl:.2e}")
