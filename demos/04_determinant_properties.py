"""The six properties that pin down the partition function uniquely."""

import numpy as np

from sosre import chain_ops, partition, verify
from sosre.params import ModelParams, rel_diff

cfg = verify.SuiteConfig()
rng = np.random.default_rng(4)

# i/ii: symmetry under permutations of the lambdas and of the xis
p = verify.sample_params(cfg, 3, rng)
z0 = partition.z_determinant(p).value
perm = rng.permutation(3)
pl = ModelParams(p.eta, p.zeta, p.theta, tuple(p.lambdas[k] for k in perm), p.xis)
px = ModelParams(p.eta, p.zeta, p.theta, p.lambdas, tuple(p.xis[k] for k in perm))
print("lambda permutation:", rel_diff(partition.z_determinant(pl).value, z0))
print("xi permutation    :", rel_diff(partition.z_determinant(px).value, z0))

# iii: crossing, Z(-lambda_i - eta) = factor * Z(lambda_i)
pc = verify.sample_params(cfg, 3, rng, extra_guards=verify._crossing_extra(0))
q = pc.replace_lambda(0, -pc.lambdas[0] - pc.eta)
factor = chain_ops.crossing_scalar(pc.lambdas[0], pc.theta, pc.eta, pc.zeta)
print("crossing identity :", rel_diff(
    partition.z_determinant(q).value, factor * partition.z_determinant(pc).value))

# iv: recursions at the coincidences lambda_1 = xi_1 and lambda_N = -xi_1,
# against contraction and against the determinant at the same pinned point
plow = verify._sample_degenerate(
    cfg, 3, rng, pin=lambda p: (p.replace_lambda(0, p.xis[0]), {"lambda[0]-xi[0]"}))
rhs = partition.recursion_rhs(plow, partition.z_determinant(plow.drop_site(0)).value, "lower")
print("lower recursion   :", rel_diff(partition.z_bruteforce(plow).value, rhs))
print("  on the det      :", rel_diff(partition.z_determinant(plow).value, rhs))

pup = verify._sample_degenerate(
    cfg, 3, rng, pin=lambda p: (p.replace_lambda(2, -p.xis[0]), {"lambda[2]+xi[0]"}))
prev = ModelParams(pup.eta, pup.zeta, pup.theta, pup.lambdas[:-1], pup.xis[1:])
rhs = partition.recursion_rhs(pup, partition.z_determinant(prev).value, "upper")
print("upper recursion   :", rel_diff(partition.z_bruteforce(pup).value, rhs))
print("  on the det      :", rel_diff(partition.z_determinant(pup).value, rhs))

# v: normalized Z is a polynomial of degree <= 2N+2 in exp(2 lambda_i).
# The test fits the first 2N+3 circle nodes and predicts the last one.
pd = verify.sample_params(cfg, 2, rng)
print("degree bound      :", verify.degree_bound_residual(pd, 0, rng))

# vi: the N=1 value in closed form
p1 = verify.sample_params(cfg, 1, rng)
print("N=1 closed form   :", rel_diff(
    partition.z_determinant(p1).value,
    partition.z_n1_closed(p1.lambdas[0], p1.xis[0], p1.theta, p1.eta, p1.zeta)))
