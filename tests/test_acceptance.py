"""Acceptance gate: every advertised guarantee, one printed line each.

Each test evaluates one criterion at its stated tolerance and sample count,
prints `criterion NN PASS/FAIL <what>` to the terminal (bypassing capture),
and then asserts.
"""

import time
import warnings

import numpy as np
import pytest

from sosre import chain_ops, cli, partition, verify, weights
from sosre.params import CapExceeded, ModelParams, rel_diff

CFG = verify.SuiteConfig()


def draw(n, rng, extra=None):
    return verify.sample_params(CFG, n, rng, extra_guards=extra)


def report(capsys, num, ok, what):
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {what}")
    assert ok, f"criterion {num} failed: {what}"


def test_criterion_01_dybe(capsys):
    rng = np.random.default_rng(201)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        p = draw(3, rng)
        worst = max(worst, weights.check_dybe(p.lambdas, p.theta, p.eta))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(capsys, 1, ok,
           f"dybe 100 samples, worst {worst:.2e} < 1e-10, {elapsed:.2f}s < 5s")


def test_criterion_02_unitarity_reflection(capsys):
    rng = np.random.default_rng(202)
    worst_u = 0.0
    worst_r = 0.0
    for _ in range(100):
        p = draw(2, rng)
        worst_u = max(
            worst_u, weights.check_unitarity(p.lambdas[0], p.theta, p.eta)
        )
        worst_r = max(
            worst_r,
            weights.check_reflection_equation(
                p.lambdas[0], p.lambdas[1], p.theta, p.eta, p.zeta
            ),
        )
    ok = worst_u < 1e-12 and worst_r < 1e-11
    report(capsys, 2, ok,
           f"unitarity worst {worst_u:.2e} < 1e-12, "
           f"reflection worst {worst_r:.2e} < 1e-11 (100 each)")


def test_criterion_03_exchange_and_double_row(capsys):
    rng = np.random.default_rng(203)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(25):
            p = draw(max(n, 2), rng)
            q = p if n > 1 else ModelParams(p.eta, p.zeta, p.theta, p.lambdas[:1], p.xis[:1])
            worst = max(
                worst,
                chain_ops.check_exchange_algebra(p.lambdas[0], p.lambdas[1], q),
                chain_ops.check_double_row_reflection(p.lambdas[0], p.lambdas[1], q),
            )
    ok = worst < 1e-9
    report(capsys, 3, ok,
           f"exchange + double-row reflection N=1..3, 25 each, worst {worst:.2e} < 1e-9")


def test_criterion_04_b_commutation_and_crossing(capsys):
    rng = np.random.default_rng(204)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(25):
            p = draw(max(n, 2), rng)
            q = p if n > 1 else ModelParams(p.eta, p.zeta, p.theta, p.lambdas[:1], p.xis[:1])
            worst = max(
                worst, chain_ops.check_b_commutation(p.lambdas[0], p.lambdas[1], q)
            )
            pc = draw(n, rng, extra=verify._crossing_extra(0))
            worst = max(worst, chain_ops.check_b_crossing(pc.lambdas[0], pc))
    ok = worst < 1e-9
    report(capsys, 4, ok,
           f"B-commutation + B-crossing N=1..3, 25 each, worst {worst:.2e} < 1e-9")


def test_criterion_05_monodromy_inverse(capsys):
    rng = np.random.default_rng(205)
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            p = draw(n, rng)
            worst = max(
                worst, chain_ops.check_monodromy_inverse(p.lambdas[0], p)
            )
    ok = worst < 1e-10
    report(capsys, 5, ok,
           f"inverse identity N=1..4, 25 each, worst {worst:.2e} < 1e-10")


def test_criterion_06_determinant_vs_brute(capsys):
    rng = np.random.default_rng(206)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(50):
            p = draw(n, rng)
            zd = partition.z_determinant(p).value
            zb = partition.z_bruteforce(p).value
            worst = max(worst, rel_diff(zd, zb))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    report(capsys, 6, ok,
           f"determinant vs brute N=1..4, 50 per N, worst {worst:.2e} < 1e-9, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_07_m_form_equivalence(capsys):
    rng = np.random.default_rng(207)
    worst = 0.0
    entries = 0
    for n in (1, 2, 3, 4):
        for _ in range(4):
            p = draw(n, rng)
            ms = partition.m_matrix(p, partition.SUM_FORM)
            mp = partition.m_matrix(p, partition.PRODUCT_FORM)
            worst = max(
                worst, max(rel_diff(a, b) for a, b in zip(ms.ravel(), mp.ravel()))
            )
            entries += n * n
    ok = worst < 1e-11 and entries >= 100
    report(capsys, 7, ok,
           f"kernel entry forms, {entries} entries, worst {worst:.2e} < 1e-11")


def test_criterion_08_determinant_properties(capsys):
    rng = np.random.default_rng(208)
    z_det = lambda p: partition.z_determinant(p).value
    z_brute = lambda p: partition.z_bruteforce(p).value

    worst_perm = 0.0
    for n in (2, 3):
        for _ in range(5):
            p = draw(n, rng)
            perm = rng.permutation(n)
            pl = ModelParams(p.eta, p.zeta, p.theta,
                             tuple(p.lambdas[k] for k in perm), p.xis)
            px = ModelParams(p.eta, p.zeta, p.theta,
                             p.lambdas, tuple(p.xis[k] for k in perm))
            for z_of in (z_brute, z_det):
                z0 = z_of(p)
                worst_perm = max(worst_perm, rel_diff(z_of(pl), z0),
                                 rel_diff(z_of(px), z0))

    worst_cross_brute = 0.0
    worst_cross_det = 0.0
    for n in (1, 2, 3):
        for _ in range(5):
            p = draw(n, rng, extra=verify._crossing_extra(0))
            q = p.replace_lambda(0, -p.lambdas[0] - p.eta)
            factor = chain_ops.crossing_scalar(p.lambdas[0], p.theta, p.eta, p.zeta)
            worst_cross_brute = max(
                worst_cross_brute, rel_diff(z_brute(q), factor * z_brute(p)))
            worst_cross_det = max(
                worst_cross_det, rel_diff(z_det(q), factor * z_det(p)))

    worst_rec = 0.0
    for n in (1, 2, 3):
        for _ in range(5):
            plow = verify._sample_degenerate(
                CFG, n, rng,
                pin=lambda p: (p.replace_lambda(0, p.xis[0]), {"lambda[0]-xi[0]"}),
            )
            z_prev = 1.0 if n == 1 else z_det(plow.drop_site(0))
            worst_rec = max(worst_rec, rel_diff(
                z_brute(plow), partition.recursion_rhs(plow, z_prev, "lower")))
            pup = verify._sample_degenerate(
                CFG, n, rng,
                pin=lambda p: (p.replace_lambda(n - 1, -p.xis[0]),
                               {f"lambda[{n - 1}]+xi[0]"}),
            )
            if n == 1:
                z_prev = 1.0
            else:
                z_prev = z_det(ModelParams(
                    pup.eta, pup.zeta, pup.theta, pup.lambdas[:-1], pup.xis[1:]))
            worst_rec = max(worst_rec, rel_diff(
                z_brute(pup), partition.recursion_rhs(pup, z_prev, "upper")))

    worst_deg = 0.0
    for n in (1, 2, 3):
        p = draw(n, rng)
        for i in range(n):
            worst_deg = max(worst_deg, verify.degree_bound_residual(p, i, rng))

    worst_n1 = 0.0
    for _ in range(25):
        p = draw(1, rng)
        zc = partition.z_n1_closed(p.lambdas[0], p.xis[0], p.theta, p.eta, p.zeta)
        worst_n1 = max(worst_n1, rel_diff(z_brute(p), zc))

    ok = (worst_perm < 1e-10 and worst_cross_brute < 1e-9
          and worst_cross_det < 1e-10 and worst_rec < 1e-9
          and worst_deg < 1e-8 and worst_n1 < 1e-12)
    report(capsys, 8, ok,
           f"properties: perm {worst_perm:.2e} < 1e-10, "
           f"crossing {worst_cross_brute:.2e} < 1e-9 (det {worst_cross_det:.2e} < 1e-10), "
           f"recursions {worst_rec:.2e} < 1e-9, degree N<=3 {worst_deg:.2e} < 1e-8, "
           f"N=1 closed {worst_n1:.2e} < 1e-12")


def test_criterion_09_performance(capsys):
    rng = np.random.default_rng(209)
    p200 = draw(200, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = partition.z_determinant(p200)
    det_ok = res.elapsed < 1.0 and np.isfinite(res.log_value.real)

    cap_ok = True
    try:
        partition.z_bruteforce(draw(9, rng))
        cap_ok = False
    except CapExceeded:
        pass
    try:
        partition.z_bruteforce(draw(13, rng))
        cap_ok = False
    except CapExceeded:
        pass

    worst = 0.0
    for n in range(1, 8):
        p = draw(n, rng)
        worst = max(worst, rel_diff(
            partition.z_determinant(p).value, partition.z_bruteforce(p).value))
    agree_ok = worst < 1e-9

    ok = det_ok and cap_ok and agree_ok
    report(capsys, 9, ok,
           f"determinant N=200 in {res.elapsed * 1000:.0f}ms < 1s, cap enforced, "
           f"routes agree to {worst:.2e} up to N=7")


def test_criterion_10_reproducibility(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = cli.main(["verify", "--suite", "all", "--seed", "42",
                    "--output", str(out1)])
    rc2 = cli.main(["verify", "--suite", "all", "--seed", "42",
                    "--output", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    report(capsys, 10, ok,
           "verify --suite all --seed 42 twice: exit 0, bit-identical reports")
