import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sosre import chain_ops, params, partition, verify
from sosre.params import (
    CapExceeded,
    IllConditionedWarning,
    InvariantViolation,
    ModelParams,
    NearSingular,
    guard_tol_default,
    rel_diff,
)

CFG = verify.SuiteConfig()
sh = np.sinh


def draw(n, rng, extra=None):
    return verify.sample_params(CFG, n, rng, extra_guards=extra)


def test_result_metadata():
    rng = np.random.default_rng(70)
    p = draw(2, rng)
    rb = partition.z_bruteforce(p)
    rd = partition.z_determinant(p)
    assert rb.method == partition.METHOD_BRUTE and rb.n == 2
    assert rd.method == partition.METHOD_DETERMINANT and rd.n == 2
    assert rb.cond_hint is None and rb.log_value is None
    assert rd.cond_hint > 0 and rd.log_value is not None
    assert rb.elapsed >= 0 and rd.elapsed >= 0
    assert abs(np.exp(rd.log_value) - rd.value) <= 1e-12 * abs(rd.value)


def test_closed_form_n1_matches_brute():
    rng = np.random.default_rng(71)
    for _ in range(25):
        p = draw(1, rng)
        zb = partition.z_bruteforce(p).value
        zc = partition.z_n1_closed(p.lambdas[0], p.xis[0], p.theta, p.eta, p.zeta)
        assert rel_diff(zb, zc) < 1e-12


def test_single_site_coincidence_literals():
    # at lambda = +-xi one of the two terms dies and the survivor can be
    # written down directly; brute force must land on the same number
    rng = np.random.default_rng(72)
    for _ in range(10):
        p = draw(1, rng)
        lam, theta, eta, zeta = p.lambdas[0], p.theta, p.eta, p.zeta
        pref = sh(eta) * sh(theta - eta) / sh(theta) ** 2

        peq = ModelParams(eta, zeta, theta, (lam,), (lam,))
        want = pref * sh(zeta - lam) / sh(zeta + lam) * sh(2 * lam) * sh(theta)
        assert rel_diff(partition.z_bruteforce(peq).value, want) < 1e-12

        pop = ModelParams(eta, zeta, theta, (lam,), (-lam,))
        want = (
            pref * sh(theta + zeta - lam) / sh(theta + zeta + lam)
            * sh(2 * lam) * sh(theta)
        )
        assert rel_diff(partition.z_bruteforce(pop).value, want) < 1e-12


def test_determinant_n1_equals_closed_form():
    rng = np.random.default_rng(73)
    for _ in range(25):
        p = draw(1, rng)
        zd = partition.z_determinant(p).value
        zc = partition.z_n1_closed(p.lambdas[0], p.xis[0], p.theta, p.eta, p.zeta)
        assert rel_diff(zd, zc) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_matches_brute(n):
    rng = np.random.default_rng(74 + n)
    for _ in range(5):
        p = draw(n, rng)
        zd = partition.z_determinant(p).value
        zb = partition.z_bruteforce(p).value
        assert rel_diff(zd, zb) < 1e-9


def test_m_entry_forms_agree():
    rng = np.random.default_rng(80)
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(4):
            p = draw(n, rng)
            a = partition.m_matrix(p, form=partition.SUM_FORM)
            b = partition.m_matrix(p, form=partition.PRODUCT_FORM)
            for x, y in zip(a.ravel(), b.ravel()):
                assert rel_diff(x, y) < 1e-11
                checked += 1
    assert checked >= 100


def test_m_entry_product_form_zeros():
    rng = np.random.default_rng(82)
    p = draw(2, rng)
    pz = ModelParams(p.eta, p.zeta, p.theta, p.lambdas, (p.zeta, p.xis[1]))
    assert partition.m_matrix(pz, form=partition.PRODUCT_FORM)[0, 0] == 0.0
    pl = ModelParams(p.eta, p.zeta, p.theta, (0.0, p.lambdas[1]), p.xis)
    assert partition.m_matrix(pl, form=partition.PRODUCT_FORM)[0, 1] == 0.0


def test_m_entry_bad_form():
    rng = np.random.default_rng(83)
    p = draw(1, rng)
    with pytest.raises(ValueError):
        partition.m_matrix(p, form="neither")


def test_m_entry_guard():
    # the kernel has a pole where a grid factor vanishes, Z does not: the
    # determinant takes the entry into its row and agrees with contraction
    rng = np.random.default_rng(84)
    p = draw(2, rng)
    q = p.replace_lambda(0, p.xis[0] + 1e-9)
    with pytest.raises(NearSingular, match=r"lambda\[0\]-xi\[0\]"):
        partition.m_matrix(q)
    assert rel_diff(partition.z_determinant(q).value, partition.z_bruteforce(q).value) < 1e-10


def test_m_entry_theta_guard_sum_form_only():
    # only the sum form divides by sinh(theta)
    rng = np.random.default_rng(85)
    p = draw(2, rng)
    q = ModelParams(p.eta, p.zeta, 1e-9, p.lambdas, p.xis)
    assert np.all(np.isfinite(partition.m_matrix(q)))
    assert np.isfinite(partition.z_determinant(q).log_value)
    with pytest.raises(NearSingular, match=r"sinh\(theta\)"):
        partition.m_matrix(q, partition.SUM_FORM)


@pytest.mark.parametrize("method", ["brute", "det"])
def test_permutation_symmetry(method):
    # Z is symmetric under any permutation of the lambdas and of the xis
    rng = np.random.default_rng(85)
    z_of = (
        (lambda p: partition.z_bruteforce(p).value)
        if method == "brute"
        else (lambda p: partition.z_determinant(p).value)
    )
    for n in (2, 3):
        p = draw(n, rng)
        z0 = z_of(p)
        perm = rng.permutation(n)
        pl = ModelParams(
            p.eta, p.zeta, p.theta, tuple(p.lambdas[k] for k in perm), p.xis
        )
        px = ModelParams(
            p.eta, p.zeta, p.theta, p.lambdas, tuple(p.xis[k] for k in perm)
        )
        assert rel_diff(z_of(pl), z0) < 1e-10
        assert rel_diff(z_of(px), z0) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crossing_identity(n):
    rng = np.random.default_rng(88 + n)
    for _ in range(5):
        p = draw(n, rng, extra=verify._crossing_extra(0))
        q = p.replace_lambda(0, -p.lambdas[0] - p.eta)
        factor = chain_ops.crossing_scalar(p.lambdas[0], p.theta, p.eta, p.zeta)
        assert rel_diff(
            partition.z_bruteforce(q).value,
            factor * partition.z_bruteforce(p).value,
        ) < 1e-9
        assert rel_diff(
            partition.z_determinant(q).value,
            factor * partition.z_determinant(p).value,
        ) < 1e-10


def test_recursion_requires_exact_coincidence():
    rng = np.random.default_rng(92)
    p = draw(2, rng)
    with pytest.raises(InvariantViolation, match="lambda\\[0\\]"):
        partition.recursion_rhs(p, 1.0, "lower")
    with pytest.raises(InvariantViolation, match="lambda\\[N-1\\]"):
        partition.recursion_rhs(p, 1.0, "upper")


def test_recursion_rejects_an_unknown_side():
    p = draw(2, np.random.default_rng(92))
    with pytest.raises(ValueError, match="'middle'"):
        partition.recursion_rhs(p.replace_lambda(0, p.xis[0]), 1.0, "middle")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recursion_lower(n):
    rng = np.random.default_rng(93 + n)
    for _ in range(5):
        pdeg = verify._sample_degenerate(
            CFG, n, rng,
            pin=lambda p: (p.replace_lambda(0, p.xis[0]), {"lambda[0]-xi[0]"}),
        )
        z_prev = 1.0 if n == 1 else partition.z_determinant(pdeg.drop_site(0)).value
        zb = partition.z_bruteforce(pdeg).value
        assert rel_diff(zb, partition.recursion_rhs(pdeg, z_prev, "lower")) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recursion_upper(n):
    rng = np.random.default_rng(97 + n)
    for _ in range(5):
        pdeg = verify._sample_degenerate(
            CFG, n, rng,
            pin=lambda p: (
                p.replace_lambda(n - 1, -p.xis[0]),
                {f"lambda[{n - 1}]+xi[0]"},
            ),
        )
        if n == 1:
            z_prev = 1.0
        else:
            prev = ModelParams(
                pdeg.eta, pdeg.zeta, pdeg.theta, pdeg.lambdas[:-1], pdeg.xis[1:]
            )
            z_prev = partition.z_determinant(prev).value
        zb = partition.z_bruteforce(pdeg).value
        assert rel_diff(zb, partition.recursion_rhs(pdeg, z_prev, "upper")) < 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_degree_bound(n):
    rng = np.random.default_rng(101 + n)
    for _ in range(3):
        p = draw(n, rng)
        i = int(rng.integers(n))
        assert verify.degree_bound_residual(p, i, rng) < 1e-8


def test_degree_bound_detects_wrong_clearing_factor(monkeypatch):
    # substituting the height coupling into the second clearing factor,
    # sinh(theta + lambda_i) for sinh(zeta + lambda_i), does not cancel the
    # boundary pole, so the interpolation test must fail loudly
    def wrong(p, i, z):
        li = p.lambdas[i]
        return complex(np.exp((2 * p.n + 2) * np.sum(p.lambdas_array()))
                       * np.sinh(p.theta + p.zeta + li) * np.sinh(p.theta + li) * z)

    monkeypatch.setattr(partition, "normalized_z", wrong)
    rng = np.random.default_rng(104)
    p = draw(2, rng)
    res = verify.degree_bound_residual(p, 0, rng)
    assert res > 1e-3


def test_logdet_against_numpy():
    rng = np.random.default_rng(106)
    for n in (1, 2, 3, 5, 8, 13):
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        logdet, min_piv = partition.logdet_partial_pivot(mat)
        det = np.linalg.det(mat)
        assert rel_diff(np.exp(logdet), det) < 1e-10
        assert min_piv > 0


def test_logdet_permutation_and_singular():
    logdet, min_piv = partition.logdet_partial_pivot([[0.0, 1.0], [1.0, 0.0]])
    assert abs(np.exp(logdet) + 1.0) < 1e-15 and min_piv == 1.0
    logdet, min_piv = partition.logdet_partial_pivot([[1.0, 1.0], [1.0, 1.0]])
    assert logdet == complex(-np.inf) and min_piv == 0.0


def test_ill_conditioned_warning_fires(monkeypatch):
    # a double near-coincidence drives the smallest pivot under 1e-10; the
    # value really does lose digits there (vs brute: ~1e-4 relative)
    eps = 1e-7
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                    lambdas=(0.31, 0.31 + eps), xis=(0.24, 0.24 + eps))
    monkeypatch.setenv("SOS_GUARD_TOL", "1e-9")
    with pytest.warns(IllConditionedWarning):
        res = partition.z_determinant(p)
    assert res.cond_hint < partition.ILL_CONDITIONED_PIVOT
    assert np.isfinite(res.log_value.real)


def test_nan_pivot_warns():
    # at Re lambda_0 = 400 the kernel's entries overflow and its smallest
    # pivot is NaN, which must not pass for a well-conditioned one
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                    lambdas=(400.0, 0.47), xis=(0.24, 0.11))
    with np.errstate(all="ignore"), pytest.warns(IllConditionedWarning):
        res = partition.z_determinant(p)
    assert np.isnan(res.cond_hint)


@pytest.mark.parametrize("lambda_0", [177.5, 200.0, 400.0])
def test_determinant_emits_no_numpy_warnings(lambda_0):
    # the same example: past a double's range the factors are inf or NaN,
    # silently, as in contraction; only IllConditionedWarning reaches the caller
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                    lambdas=(lambda_0, 0.47), xis=(0.24, 0.11))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.simplefilter("always", IllConditionedWarning)
        partition.z_determinant(p)
    assert {w.category for w in caught} <= {IllConditionedWarning}


def test_well_conditioned_no_warning(monkeypatch):
    eps = 1e-6
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                    lambdas=(0.31, 0.31 + eps), xis=(0.24, 0.24 + eps))
    monkeypatch.setenv("SOS_GUARD_TOL", "1e-9")
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        res = partition.z_determinant(p)
    assert res.cond_hint >= partition.ILL_CONDITIONED_PIVOT


def test_default_guard_tolerance_rejects_the_near_coincidence():
    # the instance of test_ill_conditioned_warning_fires, at the default 1e-6
    eps = 1e-7
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                    lambdas=(0.31, 0.31 + eps), xis=(0.24, 0.24 + eps))
    with pytest.raises(NearSingular) as err:
        partition.z_determinant(p)
    assert str(err.value).startswith("denominator sinh(xi[1]-xi[0])")


def test_brute_force_cap():
    rng = np.random.default_rng(107)
    p9 = draw(9, rng)
    with pytest.raises(CapExceeded, match="needs N <= 8, got N = 9"):
        partition.z_bruteforce(p9)
    assert partition.z_bruteforce(draw(partition.BRUTE_CAP, rng)).n == 8
    p13 = draw(13, rng)
    with pytest.raises(CapExceeded):
        partition.z_bruteforce(p13)
    # verify's N = 11 draw: contraction came out 1.25 off a 50-digit value
    # there (the determinant 2.0e-14 off), so it is refused, not returned
    p11 = draw(11, np.random.default_rng(np.random.SeedSequence((42, 49, 0))))
    with pytest.raises(CapExceeded, match="needs N <= 8, got N = 11"):
        partition.z_bruteforce(p11)


def test_height_prefactor_guard():
    rng = np.random.default_rng(108)
    p = draw(2, rng)
    q = ModelParams(p.eta, p.zeta, -p.eta + 1e-9, p.lambdas, p.xis)
    with pytest.raises(NearSingular, match=r"theta\+1\*eta"):
        partition.z_determinant(q)


def test_height_prefactor_guard_runs_before_the_lu(monkeypatch):
    def lu(mat):
        raise AssertionError("LU ran before the height factor was guarded")

    monkeypatch.setattr(partition, "logdet_partial_pivot", lu)
    p = draw(3, np.random.default_rng(109))
    q = ModelParams(p.eta, p.zeta, -2 * p.eta + 1e-9, p.lambdas, p.xis)
    with pytest.raises(NearSingular) as err:
        partition.z_determinant(q)
    assert str(err.value).startswith("denominator sinh(theta+2*eta) has |sinh| = ")
    # at N = 200 on two threads: each guard raises its full evaluation's
    # message, before any LU, and leaves no work running on the worker; the
    # two grid cases through m_matrix, whose kernel has their poles
    futures = _two_cpus(monkeypatch)
    for k, (q, want) in enumerate(_threaded_guard_cases()):
        futures.clear()
        with pytest.raises(NearSingular) as err:
            (partition.m_matrix if k < 2 else partition.z_determinant)(q)
        assert str(err.value) == want
        assert futures and all(f.done() for f in futures)


def _threaded_guard_cases():
    """(instance, NearSingular message) at N = 200, whose grid rows and
    pairs the two threads share by halves: two lambda-xi entries at 0, one
    in each half of the rows (the first in row-major order is named), then
    the first half's at 1e-9 and the second's at 0; a xi pair in the first
    half of the pairs and a lambda pair in the second; the height factor."""
    p = draw(200, np.random.default_rng(220))
    lams, xis = list(p.lambdas), list(p.xis)
    both = lams[:10] + [xis[3]] + lams[11:150] + [xis[7]] + lams[151:]
    upper = both[:10] + [xis[3] + 1e-9j] + both[11:]
    xi_pair = xis[:120] + [xis[30] + 1e-9] + xis[121:]
    lam_pair = lams[:180] + [lams[150] + 1e-9] + lams[181:]
    cases = [_pin(p, lambdas=both), _pin(p, lambdas=upper), _pin(p, xis=xi_pair),
             _pin(p, lambdas=lam_pair)]
    out = [(q, _reference_guard_message(q)) for q in cases]
    assert [m.split(")")[0] for _, m in out] == [
        "denominator sinh(lambda[10]-xi[3]", "denominator sinh(lambda[150]-xi[7]",
        "denominator sinh(xi[120]-xi[30]", "denominator sinh(lambda[180]-lambda[150]"]
    q = ModelParams(p.eta, p.zeta, -3 * p.eta + 1e-9, p.lambdas, p.xis)
    s = abs(sh(q.theta + 3 * q.eta))
    tol = guard_tol_default()
    return out + [(q, f"denominator sinh(theta+3*eta) has |sinh| = {s:.3e} <= {tol:g}")]


class _Recording:
    """The worker pool, keeping every future it hands out."""

    def __init__(self, pool, futures):
        self.pool, self.futures = pool, futures

    def submit(self, *args):
        self.futures.append(self.pool.submit(*args))
        return self.futures[-1]


def _two_cpus(monkeypatch, cpus=2):
    """Make the determinant see `cpus` CPUs; returns the list its worker's
    futures are recorded in."""
    futures = []
    pool = partition._worker()
    monkeypatch.setattr(partition, "_cpus", lambda: cpus)
    monkeypatch.setattr(partition, "_worker", lambda: _Recording(pool, futures))
    return futures


def test_recursion_guard_label_matches_the_guard_table():
    pdeg = verify._sample_degenerate(
        CFG, 3, np.random.default_rng(110),
        pin=lambda p: (p.replace_lambda(0, p.xis[0]), {"lambda[0]-xi[0]"}),
    )
    q = ModelParams(pdeg.eta, pdeg.zeta, 2 * pdeg.eta + 1e-12, pdeg.lambdas, pdeg.xis)
    assert "theta-2*eta" in params.guard_violations(q)
    with pytest.raises(NearSingular) as err:
        partition.recursion_rhs(q, 1.0, "lower")
    assert str(err.value).startswith("denominator sinh(theta-2*eta) = ")


def test_brute_force_overflow_is_silent_and_not_finite():
    p = ModelParams(0.62, 1.05, 0.83, (90.1, 90.4 + 0.1j, 89.7 + 0.2j),
                    (0.24, 0.11, 0.37 + 0.1j))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        z = partition.z_bruteforce(p).value
    assert caught == []
    assert not np.isfinite(z)


def _loop_logdet(mat):
    """Unblocked elimination with partial pivoting on the modulus: the
    reference the LAPACK LU must agree with."""
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    logdet = 0.0 + 0.0j
    swaps = 0
    min_piv = np.inf
    for k in range(n):
        rel = int(np.argmax(np.abs(a[k:, k])))
        if rel:
            a[[k, k + rel], k:] = a[[k + rel, k], k:]
            swaps += 1
        piv = a[k, k]
        min_piv = min(min_piv, abs(piv))
        if abs(piv) == 0.0:
            return complex(-np.inf), 0.0
        logdet += np.log(piv)
        if k + 1 < n:
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / piv, a[k, k + 1 :])
    if swaps % 2:
        logdet += 1j * np.pi
    return complex(logdet), float(min_piv)


def _kernel_reference(p, form):
    """The two kernel formulas, every sinh evaluated where it appears."""
    L = p.lambdas_array()[:, None]
    X = p.xis_array()[None, :]
    theta, eta, zeta = p.theta, p.eta, p.zeta
    if form == partition.PRODUCT_FORM:
        return (
            sh(theta + zeta + X) / sh(theta + zeta + L)
            * sh(zeta - X) / sh(zeta + L)
            * sh(2 * L) * sh(eta)
            / (sh(L - X + eta) * sh(L + X + eta) * sh(L - X) * sh(L + X))
        )
    mp = (1 / sh(L - X + eta)) * (
        1 / sh(L + X) - sh(theta - eta) / (sh(theta) * sh(L + X + eta))
    )
    mm = (1 / sh(L + X + eta)) * (
        1 / sh(L - X) - sh(theta + eta) / (sh(theta) * sh(L - X + eta))
    )
    return (
        sh(theta + zeta - L) / sh(theta + zeta + L) * mp
        + sh(zeta - L) / sh(zeta + L) * mm
    )


def _reference_log_z(p):
    """log Z by the loop LU and a prefactor of complex logs of fresh sinh."""
    lam, xi = p.lambdas_array(), p.xis_array()
    L, X = lam[:, None], xi[None, :]
    iu, ju = np.triu_indices(p.n, 1)
    logdet, _ = _loop_logdet(_kernel_reference(p, partition.PRODUCT_FORM))
    grids = (L + X, L - X, L + X + p.eta, L - X + p.eta)
    pairs = (xi[ju] + xi[iu], xi[ju] - xi[iu], lam[ju] - lam[iu], lam[ju] + lam[iu] + p.eta)
    log_pref = (sum(np.sum(np.log(sh(a))) for a in grids)
                - sum(np.sum(np.log(sh(a))) for a in pairs))
    return logdet + log_pref + partition._height_prefactor_log(p.n, p.theta, p.eta)


def _gaussian(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
def test_blocked_logdet_against_loop_and_numpy(n):
    mat = _gaussian(n, 200 + n)
    logdet, min_piv = partition.logdet_partial_pivot(mat)
    ref_logdet, _ = _loop_logdet(mat)
    assert abs(np.exp(logdet - ref_logdet) - 1) < 1e-9
    assert min_piv > 0
    sign, logabs = np.linalg.slogdet(mat)
    assert abs(logdet.real - logabs) < 1e-9
    assert abs(np.exp(1j * logdet.imag) - sign) < 1e-9


def test_logdet_exactly_singular_no_warning():
    # block upper triangular: elimination of the first 64 columns leaves rows
    # 64.. untouched, and column 70 is zero there, so a pivot is exactly zero
    n = 130
    mat = _gaussian(n, 210)
    mat[64:, :64] = 0.0
    mat[64:, 70] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert partition.logdet_partial_pivot(mat) == (complex(-np.inf), 0.0)
    assert not caught


def test_logdet_rows_spanning_300_decades():
    n = 40
    scale = np.logspace(-150, 150, n)
    g = _gaussian(n, 212)
    logdet, min_piv = partition.logdet_partial_pivot(scale[:, None] * g)
    sign, logabs = np.linalg.slogdet(g)
    want = np.sum(np.log(scale)) + logabs
    assert np.isfinite(logdet.real) and 0 < min_piv < np.inf
    assert abs(logdet.real - want) < 1e-9
    assert abs(np.exp(1j * logdet.imag) - sign) < 1e-9


def test_logdet_cond_hint_is_the_unscaled_pivot():
    # rows spanning 16 decades and columns a factor 2, around a column
    # diagonally dominant core: no row swaps, scaled or not, so the smallest
    # pivot of plain elimination is what the scaled LU must report
    n = 30
    rng = np.random.default_rng(213)
    rows = np.logspace(-8, 8, n)
    cols = rng.uniform(1.0, 2.0, n)
    mat = rows[:, None] * (10 * n * np.eye(n) + _gaussian(n, 214)) * cols
    a = mat.astype(complex)
    pivots = []
    for k in range(n):
        pivots.append(abs(a[k, k]))
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k + 1 :])
    _, min_piv = partition.logdet_partial_pivot(mat)
    assert abs(min_piv - min(pivots)) <= 1e-12 * min(pivots)


def test_blocked_logdet_odd_permutation():
    n = 130
    perm = np.random.default_rng(211).permutation(n)
    if round(np.linalg.det(np.eye(n)[perm]).real) == 1:
        perm[[0, 1]] = perm[[1, 0]]
    logdet, min_piv = partition.logdet_partial_pivot(np.eye(n)[perm])
    assert abs(np.exp(logdet) + 1.0) < 1e-15 and min_piv == 1.0


def _exact_log_abs_det(mat):
    """log |det| of a real matrix's double entries, by rational elimination."""
    a = [[Fraction(float(x)) for x in row] for row in mat]
    n, det = len(a), Fraction(1)
    for k in range(n):
        r = next(i for i in range(k, n) if a[i][k])
        a[k], a[r] = a[r], a[k]
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    det = abs(det)
    return math.log(det.numerator) - math.log(det.denominator)


def test_logdet_refinement_leaves_only_the_entries_error(monkeypatch):
    # the 10 x 10 Hilbert matrix, kappa ~ 1e13: LAPACK's LU alone is off by
    # ~1e-4 in log |det|, the refined log det agrees with the exact
    # determinant of the same double entries
    n = 10
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n) + 1)
    want = _exact_log_abs_det(hilbert)
    assert abs(partition.logdet_partial_pivot(hilbert)[0].real - want) < 1e-9
    monkeypatch.setattr(partition, "REFINE_MAX_N", 0)
    assert abs(partition.logdet_partial_pivot(hilbert)[0].real - want) > 1e-6


def _reference_split(x, axis, bits):
    sigma = np.ldexp(0.75, np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1] + 53 - bits)
    hi = (x.real + sigma - sigma) + 1j * (x.imag + sigma - sigma)
    return hi, x - hi


def _reference_logdet(mat):
    """`logdet_partial_pivot` written out as first released: np.triu for
    the factors, the split on separate real and imaginary parts, the
    residual scattered back to a's row order and solved with zgetrs."""
    from scipy.linalg.lapack import zgetrf, zgetrs

    a = np.array(mat, dtype=complex, order="F")
    n = len(a)
    _, e_row = np.frexp(np.abs(a).max(axis=1))
    a *= np.ldexp(1.0, -e_row)[:, None]
    _, e_col = np.frexp(np.abs(a).max(axis=0))
    a *= np.ldexp(1.0, -e_col)
    refine = n <= partition.REFINE_MAX_N
    lu, piv, info = zgetrf(a, overwrite_a=not refine)
    if info > 0:
        return complex(-np.inf), 0.0
    order = list(range(n))
    swaps = 0
    for k, r in enumerate(piv.tolist()):
        if r != k:
            order[k], order[r] = order[r], order[k]
            swaps += 1
    order = np.array(order)
    d = np.diagonal(lu)
    mant, e_piv = np.frexp(np.abs(d))
    e = int(e_row.sum()) + int(e_col.sum()) + int(e_piv.sum()) - n
    logdet = complex(np.sum(np.log(2 * mant)) + e * np.log(2.0),
                     np.sum(np.angle(d)) + np.pi * (swaps % 2))
    if refine:
        bits = (52 - n.bit_length()) // 2
        u = np.triu(lu)
        l = lu - u
        np.fill_diagonal(l, 1.0)
        l_hi, l_lo = _reference_split(l, 1, bits)
        u_hi, u_lo = _reference_split(u, 0, bits)
        r = np.empty_like(a)
        r[order] = (a[order] - l_hi @ u_hi) - (l_hi @ u_lo + l_lo @ u)
        err, _ = zgetrs(lu, piv, r)
        sign, logabs = np.linalg.slogdet(np.eye(n) + err)
        logdet += complex(logabs, np.angle(sign))
    min_piv = np.ldexp(np.abs(d), e_row[order] + e_col).min()
    return complex(logdet), float(min_piv)


def _logdet_cases():
    for n in [*range(1, 65), 65, 100]:
        yield pytest.param(_gaussian(n, 300 + n), id=f"gaussian-{n}")
    # real entries: the imaginary parts of the split are all exact zeros
    yield pytest.param(1.0 / (np.arange(10)[:, None] + np.arange(10) + 1), id="hilbert-10")
    perm = np.random.default_rng(301).permutation(12)
    if round(np.linalg.det(np.eye(12)[perm])) == 1:
        perm[[0, 1]] = perm[[1, 0]]
    yield pytest.param(np.eye(12)[perm], id="odd-permutation-12")
    singular = _gaussian(20, 302)
    singular[:, 7] = 0.0
    yield pytest.param(singular, id="singular-20")
    # rows spanning 600 decades and a column scaled by 2^-60
    scaled = np.logspace(-300, 300, 30)[:, None] * _gaussian(30, 303)
    scaled[:, 3] *= 2.0 ** -60
    yield pytest.param(scaled, id="scaled-30")


@pytest.mark.parametrize("mat", _logdet_cases())
def test_logdet_matches_reference_bit_for_bit(mat):
    got, want = partition.logdet_partial_pivot(mat), _reference_logdet(mat)
    as_bytes = lambda r: (np.complex128(r[0]).tobytes(), np.float64(r[1]).tobytes())
    assert as_bytes(got) == as_bytes(want)


@pytest.mark.parametrize("form", [partition.SUM_FORM, partition.PRODUCT_FORM])
def test_m_matrix_bit_identical_to_kernel_formulas(form):
    # the sum form is the formula bit for bit; the product form divides by
    # differences of sinh^2 instead of four sinh grids, so it agrees entrywise
    # (1.1e-14 at most on these draws)
    rng = np.random.default_rng(212)
    for n in (1, 2, 5, 17, 50):
        p = draw(n, rng)
        got, want = partition.m_matrix(p, form), _kernel_reference(p, form)
        if form == partition.SUM_FORM:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def _pin(p, lambdas=None, xis=None):
    return ModelParams(p.eta, p.zeta, p.theta, lambdas or p.lambdas, xis or p.xis)


# each of the eight grid and pair families, driven to ~1e-9 at one entry
_FAMILY_CASES = {
    "lambda[0]-xi[2]": lambda p, L, X: _pin(p, lambdas=[X[2] + 1e-9] + L[1:]),
    "lambda[1]+xi[3]": lambda p, L, X: _pin(p, lambdas=L[:1] + [-X[3] + 1e-9] + L[2:]),
    "lambda[2]-xi[1]+eta": lambda p, L, X: _pin(p, lambdas=L[:2] + [X[1] - p.eta + 1e-9] + L[3:]),
    "lambda[3]+xi[0]+eta": lambda p, L, X: _pin(p, lambdas=L[:3] + [-X[0] - p.eta + 1e-9]),
    "xi[1]-xi[0]": lambda p, L, X: _pin(p, xis=X[:1] + [X[0] + 1e-9] + X[2:]),
    "xi[2]+xi[0]": lambda p, L, X: _pin(p, xis=X[:2] + [-X[0] + 1e-9] + X[3:]),
    "lambda[3]-lambda[1]": lambda p, L, X: _pin(p, lambdas=L[:3] + [L[1] + 1e-9]),
    "lambda[2]+lambda[0]+eta": lambda p, L, X: _pin(p, lambdas=L[:2] + [-L[0] - p.eta + 1e-9] + L[3:]),
}


@pytest.mark.parametrize("label", sorted(_FAMILY_CASES))
def test_determinant_guard_families_name_the_denominator(label):
    # the kernel names every family; the determinant names the pair
    # families and moves a grid entry into its row, agreeing with contraction
    p = draw(4, np.random.default_rng(213))
    q = _FAMILY_CASES[label](p, list(p.lambdas), list(p.xis))
    grid = re.match(r"lambda\[\d\][-+]xi", label)
    sum_kernel = lambda: partition.m_matrix(q, partition.SUM_FORM)
    for evaluate in (sum_kernel,) if grid else (sum_kernel, lambda: partition.z_determinant(q)):
        with pytest.raises(NearSingular) as err:
            evaluate()
        assert str(err.value).startswith(f"denominator sinh({label}) has |sinh| = ")
    if grid:
        assert rel_diff(partition.z_determinant(q).value, partition.z_bruteforce(q).value) < 1e-10


@pytest.mark.parametrize("n", [100, 200])
def test_determinant_pipeline_matches_loop_reference(n):
    # instances with cond_hint below 1e-8 are left out: there two LU
    # orderings need not agree (see ROADMAP item 3)
    checked = 0
    for seed in (1, 2, 3, 4):
        p = draw(n, np.random.default_rng(np.random.SeedSequence((seed, n))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            res = partition.z_determinant(p)
        if res.cond_hint < 1e-8:
            continue
        assert abs(np.exp(res.log_value - _reference_log_z(p)) - 1) < 1e-6
        checked += 1
    assert checked >= 3


# the determinant's guard order over the rows of the instance's guard_table, its
# pairs at sites (j, i)
_DET_GUARD_ORDER = ("lambda-xi", "lambda+xi", "lambda-xi+eta", "lambda+xi+eta",
                    "theta+zeta+lambda", "zeta+lambda", "xi-xi", "xi+xi",
                    "lambda-lambda", "lambda+lambda+eta")


def _reference_guard_message(p, order=_DET_GUARD_ORDER):
    """The NearSingular message of guarding every determinant denominator in
    full: np.sinh over each table row in `order`, the first row whose min is
    at or below the tolerance naming its first argmin; None when all pass.
    (sinh(theta), guarded by the sum form only, is left out: the instances
    below keep theta generic.)"""
    tol = guard_tol_default()
    iu, ju = np.triu_indices(p.n, 1)
    rows = {f.key: f for f in p.guard_table}
    for key in order:
        f = rows[key]
        args, name = f.args().ravel(), f.name
        if key in _DET_GUARD_ORDER[6:]:  # the pairs at sites (j, i)
            args, name = f.args(ju, iu), lambda k: f.name(k, ju, iu)
        mags = np.abs(sh(args))
        if mags.size and mags.min() <= tol:
            k = int(np.argmin(mags))
            return f"denominator sinh({name(k)}) has |sinh| = {mags[k]:.3e} <= {tol:g}"
    return None


# family -> (field, index, value) setting its argument at entry (i, j) to 0
# (pair families at j > i)
_ROOTS = {
    "lambda-xi": lambda p, i, j: ("lambdas", i, p.xis[j]),
    "lambda+xi": lambda p, i, j: ("lambdas", i, -p.xis[j]),
    "lambda-xi+eta": lambda p, i, j: ("lambdas", i, p.xis[j] - p.eta),
    "lambda+xi+eta": lambda p, i, j: ("lambdas", i, -p.xis[j] - p.eta),
    "theta+zeta+lambda": lambda p, i, j: ("lambdas", i, -p.theta - p.zeta),
    "zeta+lambda": lambda p, i, j: ("lambdas", i, -p.zeta),
    "xi-xi": lambda p, i, j: ("xis", j, p.xis[i]),
    "xi+xi": lambda p, i, j: ("xis", j, -p.xis[i]),
    "lambda-lambda": lambda p, i, j: ("lambdas", j, p.lambdas[i]),
    "lambda+lambda+eta": lambda p, i, j: ("lambdas", j, -p.lambdas[i] - p.eta),
}


def _pinned(p, key, d, i, j):
    """p with family `key`'s argument at entry (i, j) moved to about d."""
    field, k, root = _ROOTS[key](p, i, j)
    vals = list(getattr(p, field))
    vals[k] = root + d
    return dataclasses.replace(p, **{field: tuple(vals)})


def _guard_cases():
    """Every determinant family at 0, 1e-9 and just below and above the
    default tolerance (in a random direction), then pairs of violations: an
    earlier family just below the tolerance with a later one at 0, and two
    entries of one family at 0."""
    base = draw(5, np.random.default_rng(214))
    rng = np.random.default_rng(215)
    cases = []
    for key in _DET_GUARD_ORDER:
        for d in (0.0, 1e-9, 9.99e-7, 1.001e-6):
            i, j = sorted(rng.choice(5, 2, replace=False))
            cases.append(_pinned(base, key, d * np.exp(2j * np.pi * rng.random()), i, j))
    for first, later in zip(_DET_GUARD_ORDER, _DET_GUARD_ORDER[1:]):
        q = _pinned(base, later, 0.0, 1, 3)
        cases.append(_pinned(q, first, 9.99e-7, 0, 2))
    for key in _DET_GUARD_ORDER:
        cases.append(_pinned(_pinned(base, key, 0.0, 3, 4), key, 0.0, 0, 2))
    return cases


def test_determinant_guards_match_full_evaluation():
    # the prefiltered guards raise exactly what evaluating every family in
    # full would, or nothing: the determinant over every family but the four
    # grids, whose failing entries it moves, and the kernel over all of
    # them, the grids last
    named = set()
    det_order = _DET_GUARD_ORDER[4:]
    kernel_order = det_order + _DET_GUARD_ORDER[:4]
    runs = ((partition.z_determinant, det_order), (partition.m_matrix, kernel_order),
            (lambda q: partition.m_matrix(q, partition.SUM_FORM), kernel_order))
    for q in _guard_cases():
        for evaluate, order in runs:
            want = _reference_guard_message(q, order)
            got = None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                try:
                    evaluate(q)
                except NearSingular as err:
                    got = str(err)
            assert got == want
            if want is not None:
                named.add(re.sub(r"\[\d+\]", "", want.split("(")[1].split(")")[0]))
    assert named == set(_DET_GUARD_ORDER)


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_coincidences_match_contraction(n):
    # each grid family at 0 and 1e-9 at one entry, and every lambda_i =
    # xi_i: the determinant moves the entries into their rows, the kernel
    # still raises, and Z agrees with contraction, whose own error reaches
    # 1.6e-7 at N = 8
    rng = np.random.default_rng((231, n))
    base = draw(n, rng)
    cases = [dataclasses.replace(base, lambdas=base.xis)]
    for key in _DET_GUARD_ORDER[:4]:  # the grid families
        i, j = rng.integers(n, size=2)
        cases += [_pinned(base, key, d, i, j) for d in (0.0, 1e-9)]
    for q in cases:
        assert partition._det_guards(q)[3].size
        with pytest.raises(NearSingular):
            partition.m_matrix(q)
        zd, zb = partition.z_determinant(q).value, partition.z_bruteforce(q).value
        assert rel_diff(zd, zb) < (1e-10 if n <= 6 else 1e-6)


@pytest.mark.parametrize("n", [4, 16, 50])
def test_recursions_hold_on_the_determinant(n):
    # both recursions with the determinant on each side: at the coincidence
    # it moves the entry lambda_1 = xi_1 (or lambda_N = -xi_1) into its row
    rng = np.random.default_rng((232, n))
    for _ in range(3):
        p = draw(n, rng)
        low = p.replace_lambda(0, p.xis[0])
        up = p.replace_lambda(n - 1, -p.xis[0])
        prev = {"lower": low.drop_site(0),
                "upper": ModelParams(up.eta, up.zeta, up.theta, up.lambdas[:-1], up.xis[1:])}
        for side, q in (("lower", low), ("upper", up)):
            rhs = partition.recursion_rhs(q, partition.z_determinant(prev[side]).value, side)
            assert rel_diff(rhs, partition.z_determinant(q).value) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_two_rows_on_one_zero_grid_column_give_zero(n):
    # lambda_0 = xi_0 and lambda_1 = -xi_0 leave kernel rows 0 and 1 both
    # multiples of e_0, so Z = 0, as contraction gives it.  Where the LU
    # takes row 0 or 1 as the first pivot, it meets an exactly zero pivot
    # and the value is exactly 0; where it takes another row first, the
    # two rows are rounded apart and |Z| is rounding, here under 1e-15 of
    # Z with lambda_0 = xi_0 alone
    rng = np.random.default_rng((233, n))
    exact = 0
    for _ in range(5):
        one = draw(n, rng)
        one = one.replace_lambda(0, one.xis[0])
        q = one.replace_lambda(1, -one.xis[0])
        assert partition.z_bruteforce(q).value == 0
        with pytest.warns(IllConditionedWarning):
            r = partition.z_determinant(q)
        if r.cond_hint == 0:
            assert r.value == 0
            exact += 1
        assert abs(r.value) <= 1e-15 * abs(partition.z_determinant(one).value)
    assert exact >= 3


def test_a_zero_height_numerator_gives_zero_without_a_warning():
    # at theta = 2 eta the height factor's numerator sinh(theta - 2 eta) is
    # exactly 0: its log is -inf, silently, and Z is exactly 0
    p = draw(2, np.random.default_rng(5))
    q = ModelParams(p.eta, p.zeta, 2 * p.eta, p.lambdas, p.xis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = partition.z_determinant(q)
    assert r.value == 0 and r.log_value.real == -np.inf
    assert partition.z_bruteforce(q).value == 0


def test_log_value_does_not_depend_on_guard_tolerance(monkeypatch):
    # pins at 2e-3 pass both tolerances but fall under the prefilter's
    # threshold at 1e-3 only, so the two runs guard different entries
    base = draw(5, np.random.default_rng(216))
    cases = [base] + [_pinned(base, key, 2e-3, 1, 3) for key in _DET_GUARD_ORDER]
    flagged = {}
    inner = partition.require_all_nonsingular

    def counting(label_fn, values):
        flagged[tol] += np.size(values)
        return inner(label_fn, values)

    monkeypatch.setattr(partition, "require_all_nonsingular", counting)
    logs, guards = {}, {}
    for tol in ("1e-3", "1e-9"):
        monkeypatch.setenv("SOS_GUARD_TOL", tol)
        flagged[tol] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            logs[tol] = [partition.z_determinant(q).log_value for q in cases]
        guards[tol] = [partition._det_guards(q) for q in cases]
    assert logs["1e-3"] == logs["1e-9"]
    assert flagged["1e-3"] > flagged["1e-9"]
    for escalated, fast in zip(guards["1e-3"], guards["1e-9"]):
        assert [a.tobytes() for a in escalated] == [a.tobytes() for a in fast]


@pytest.mark.parametrize("n", [16, 50, 200])
def test_generic_guards_evaluate_only_the_boundary_rows(n, monkeypatch):
    # on generic draws no grid or pair entry is under its prefilter
    # threshold, so the guards evaluate theta+zeta+lambda and zeta+lambda
    # only: 2N arguments
    inner = partition.require_all_nonsingular
    sizes = []

    def counting(label_fn, values):
        sizes.append(np.size(values))
        return inner(label_fn, values)

    monkeypatch.setattr(partition, "require_all_nonsingular", counting)
    for seed in (1, 2, 3):
        sizes.clear()
        partition._det_guards(draw(n, np.random.default_rng((217, seed, n))))
        assert sizes == [n, n]


def test_a_near_xi_pair_is_guarded_only_at_its_entries(monkeypatch):
    # xi_1 2e-6 from xi_0 puts one P1 entry under its threshold: the guards
    # evaluate xi[1]-xi[0] and xi[1]+xi[0] there, with the 2N boundary and
    # N/2 height arguments, not the whole grid and pair table
    n = 200
    inner = partition.require_all_nonsingular
    sizes = []

    def counting(label_fn, values):
        sizes.append(np.size(values))
        return inner(label_fn, values)

    p = draw(n, np.random.default_rng(219))
    xis = list(p.xis)
    xis[1] = xis[0] + 2e-6
    monkeypatch.setattr(partition, "require_all_nonsingular", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        partition.z_determinant(dataclasses.replace(p, xis=tuple(xis)))
    assert sum(sizes) <= 2 * n + n // 2 + 4


def _reference_det_guards(p):
    """What `_det_guards` returns, written out: each square from its own
    np.sinh call, then D1 D2, P1 P2 and the boundary product (no guards),
    and no moved entry."""
    iu, ju = np.triu_indices(p.n, 1)
    lam, xi, eta = p.lambdas_array(), p.xis_array(), p.eta
    w, w_eta, y, q = (np.square(sh(v)) for v in (lam, lam + eta, xi, lam + eta / 2))
    grid = (w[:, None] - y) * (w_eta[:, None] - y)
    pairs = (y[ju] - y[iu]) * (q[ju] - q[iu])
    return grid, pairs, sh(p.theta + p.zeta + lam) * sh(p.zeta + lam), np.zeros(0, np.intp)


@pytest.mark.parametrize("shift", [0, 10, 200, 400])
def test_det_guards_match_reference_bit_for_bit(shift, monkeypatch):
    # past Re lambda ~ 177 the grid factor overflows and log_value reads NaN;
    # equality is of the bytes, so those cases compare too
    got, want = [], []
    runs = (got, partition._det_guards), (want, _reference_det_guards)
    for n in [*range(1, 17), 50, 200]:
        p = draw(n, np.random.default_rng((218, n)))
        p = dataclasses.replace(p, lambdas=tuple(v + shift for v in p.lambdas))
        for out, guards in runs:
            monkeypatch.setattr(partition, "_det_guards", guards)
            with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                out.append([a.tobytes() for a in guards(p)]
                           + [np.complex128(partition.z_determinant(p).log_value).tobytes()])
    assert got == want


def _schedule_cases(shift):
    """Draws at N = 65, 101 and 200 with every lambda moved by `shift`, and
    the N = 101 one with a grid entry moved in each half of the rows."""
    out = []
    for n in (65, 101, 200):
        p = draw(n, np.random.default_rng((218, n)))
        out.append(dataclasses.replace(p, lambdas=tuple(v + shift for v in p.lambdas)))
    lams, xis = list(out[1].lambdas), out[1].xis
    lams[20], lams[80] = xis[7] + 1e-9, -xis[9] - out[1].eta + 1e-9
    return out + [dataclasses.replace(out[1], lambdas=tuple(lams))]


@pytest.mark.parametrize("shift", [0, 10, 200, 400])
def test_schedules_match_bit_for_bit(shift, monkeypatch):
    # the calling thread alone and the calling thread with the worker give
    # the same guards' arrays, kernel and result, NaN bytes included
    runs = {}
    for cpus in (1, 2):
        futures = _two_cpus(monkeypatch, cpus)
        out = runs[cpus] = []
        for p in _schedule_cases(shift):
            with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                grid, pairs, boundary, moved = partition._det_guards(p)
                r = partition.z_determinant(p)
                out += [a.tobytes() for a in (grid, pairs, boundary, moved)]
                out.append(partition._m_matrix_entries(p, grid, boundary).tobytes("F"))
                out += [np.complex128(r.log_value).tobytes(), np.complex128(r.value).tobytes(),
                        np.float64(r.cond_hint).tobytes()]
        assert bool(futures) == (cpus == 2)
    assert runs[1] == runs[2]
    assert runs[1][-5] == np.array([20 * 101 + 7, 80 * 101 + 9]).tobytes()  # the moved entries


_DET_BYTES = Path(__file__).parent / "data" / "det_logz_bytes.json"


@pytest.mark.parametrize("cpus", [1, 2])
def test_determinant_bytes_match_fixture(cpus):
    # tests/data/make_det_logz_bytes.py wrote these digests with the
    # determinant that ran on the calling thread alone; both schedules give
    # them.  The script runs in its own process, to pin LAPACK to one thread
    proc = subprocess.run(
        [sys.executable, str(_DET_BYTES.parent / "make_det_logz_bytes.py"), "--cpus", str(cpus)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(partition.__file__).parents[1])})
    got, want = json.loads(proc.stdout), json.loads(_DET_BYTES.read_text())
    if got["lapack_sha256"] != want["lapack_sha256"]:
        pytest.skip("this LAPACK's zgetrf rounds differently from the one that wrote the file")
    assert got == want


@pytest.mark.parametrize("shift", [200, 400])
def test_worker_emits_no_numpy_warnings(shift, monkeypatch):
    # numpy's error state is per thread: the worker takes the caller's
    futures = _two_cpus(monkeypatch)
    p = draw(200, np.random.default_rng((218, 200)))
    p = dataclasses.replace(p, lambdas=tuple(v + shift for v in p.lambdas))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.simplefilter("always", IllConditionedWarning)
        partition.z_determinant(p)
    assert {w.category for w in caught} <= {IllConditionedWarning}
    assert futures


def test_worker_pool_is_made_once_per_process(monkeypatch):
    # a forked child has no copy of its parent's worker thread, so it
    # makes its own pool
    monkeypatch.setattr(partition, "_POOL", [None, None])
    pool = partition._worker()
    assert partition._worker() is pool
    monkeypatch.setattr(partition.os, "getpid", lambda: -1)
    child = partition._worker()
    assert child is not pool and partition._worker() is child
    pool.shutdown()
    child.shutdown()


_ORACLE = json.loads((Path(__file__).parent / "data" / "oracle_logz.json").read_text())
_TWO_PI = Fraction("6.2831853071795864769252867665590057683943387987502")


def _oracle_error(log_value, log_z):
    """|Z / Z_ref - 1| from a double or clongdouble log Z on any branch and
    the reference's decimal log, exact up to the final expm1."""
    exact = lambda x: Fraction(*np.longdouble(x).as_integer_ratio())
    d_re = exact(log_value.real) - Fraction(log_z[0])
    d_im = exact(log_value.imag) - Fraction(log_z[1])
    d_im -= round(d_im / _TWO_PI) * _TWO_PI
    return abs(np.expm1(complex(float(d_re), float(d_im))))


@pytest.mark.parametrize("case", _ORACLE["instances"], ids=lambda c: f"n{c['n']}-seed{c['seed']}")
def test_determinant_accuracy_against_oracle(case):
    # tests/data/make_oracle_logz.py wrote the 50-digit log Z and the error
    # of the determinant code of the day (parent_err; its docstring says
    # which code wrote which rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        log_value = partition.z_determinant(_oracle_params(case)).log_value
    assert _oracle_error(log_value, case["log_z"]) <= max(4 * case["parent_err"], 1e-13)


def _oracle_params(case):
    c = lambda v: complex(*v)
    return ModelParams(c(case["eta"]), c(case["zeta"]), c(case["theta"]),
                       [c(v) for v in case["lambdas"]], [c(v) for v in case["xis"]])


@pytest.mark.skipif(np.finfo(np.clongdouble).eps == np.finfo(float).eps,
                    reason="np.clongdouble is plain double on this platform")
@pytest.mark.parametrize("case", [c for c in _ORACLE["instances"] if c["n"] == 16 and c["seed"] <= 4],
                         ids=lambda c: f"n{c['n']}-seed{c['seed']}")
def test_clongdouble_contraction_beats_double_against_oracle(case):
    # contraction at N = 16 loses most of double's digits to cancellation;
    # the same programs on a clongdouble vector form their weights and K's in
    # it and come at least 100x closer to the 50-digit log Z (476x-10,579x
    # over the fixture's twelve N = 16 rows on an 80-bit x86-64 clongdouble)
    p = _oracle_params(case)
    errors = []
    for dtype in (np.complex128, np.clongdouble):
        e0 = np.zeros(1 << p.n, dtype)
        e0[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            z = chain_ops.apply_b_product(e0, p.lambdas, p)[-1]
        assert z.dtype == dtype
        errors.append(_oracle_error(np.log(z), case["log_z"]))
    assert errors[1] * 100 <= errors[0]


def _rejects(p):
    try:
        params.validate_params(p)
    except InvariantViolation:
        return True
    return False


def _lambda_pins(p, i, rng):
    """lambda_i on every guard family that holds it (zeta-lambda,
    theta+zeta-lambda, 2*lambda, the four lambda-xi grids, lambda_i +
    lambda_k + eta and its diagonal, lambda_i -+ lambda_k, zeta+lambda,
    theta+zeta+lambda), and just inside and outside the default tolerance
    of each, in a random direction."""
    eta, zeta, theta = p.eta, p.zeta, p.theta
    roots = [zeta, -zeta, theta + zeta, -theta - zeta, 0.0, -eta / 2]
    roots += [s * x + d for x in p.xis for s in (1, -1) for d in (0.0, -eta)]
    roots += [r for k, lam in enumerate(p.lambdas) if k != i for r in (lam, -lam, -lam - eta)]
    return [r + d * np.exp(2j * np.pi * rng.random())
            for r in roots for d in (0.0, 0.999e-6, 1.001e-6)]


def _sweep(p, i, values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        return partition.z_sweep(p, i, values)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 50])
def test_sweep_skips_exactly_what_validate_params_rejects(n):
    # also with every lambda moved right, where the sinh^2 bounds' cosh
    # factors grow and clear fewer entries, at a middle site (it has pairs
    # on both sides); there the points the guards pass fall back to
    # z_determinant, so the skips are taken from fails_at_lambda, which
    # z_sweep reports as they are
    rng = np.random.default_rng((301, n))
    drawn = draw(n, rng)
    for shift in (0.0, 5.0, 20.0):
        p = dataclasses.replace(drawn, lambdas=[v + shift for v in drawn.lambdas])
        params.validate_params(p)
        for i in sorted({0, n // 2, n - 1} if shift == 0.0 else {n // 2}):
            box = rng.uniform(-0.8, 0.8, 10) + 1j * rng.uniform(-0.8, 0.8, 10) + shift
            values = np.concatenate([box, _lambda_pins(p, i, rng)])
            want = [_rejects(p.replace_lambda(i, v)) for v in values]
            skipped = (_sweep(p, i, values).skipped if shift == 0.0
                       else params.fails_at_lambda(p, i, values)[0])
            assert skipped.tolist() == want
            assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 50])
def test_sweep_values_lie_within_their_estimate(n):
    # a line across the sampler's box; at N = 3 it spans more than one block
    rng = np.random.default_rng((302, n))
    p = draw(n, rng)
    points = partition.SWEEP_BLOCK + 22 if n == 3 else 40
    values = complex(-0.7, -0.4) + complex(1.4, 0.7) * np.arange(points) / (points - 1)
    for i in sorted({0, n - 1}):
        res = _sweep(p, i, values)
        assert not res.skipped.any()
        assert res.fallback.sum() <= points // 4
        for v, z, fallback, err in zip(values, res.values, res.fallback, res.err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                want = partition.z_determinant(p.replace_lambda(i, v)).value
            if fallback:
                assert z == want and np.isnan(err)
            else:
                assert rel_diff(z, want) <= err


@pytest.mark.parametrize("n", [1, 2, 3, 16, 50])
def test_sweep_rows_are_the_replaced_instances_factors(n):
    # what the lemma builds from fails_at_lambda's differences and boundary
    # factor is, bit for bit, what z_determinant's guards and kernel give
    # the instance with lambda_i replaced: its D1 D2 row, boundary entry,
    # pair factors that hold lambda_i and kernel row
    rng = np.random.default_rng((307, n))
    p = draw(n, rng)
    y = p.squares[0][3]
    a, b = params.site_pairs(n)
    for i in sorted({0, n // 2, n - 1}):
        values = rng.uniform(-0.8, 0.8, 20) + 1j * rng.uniform(-0.8, 0.8, 20)
        _, d, boundary = params.fails_at_lambda(p, i, values)
        holds = (a == i) | (b == i)
        grid = d[1] * d[0]
        pairs = (y[b] - y[a])[holds] * d[2][:, (a + b - i)[holds]]
        kernel = partition._m_matrix_entries(p, grid, boundary, values)
        for k, v in enumerate(values):
            q = p.replace_lambda(i, v)
            grid_q, pairs_q, boundary_q, _ = partition._det_guards(q)
            assert grid_q[i].tobytes() == grid[k].tobytes()
            assert boundary_q[i].tobytes() == boundary[k].tobytes()
            assert pairs_q[holds].tobytes() == pairs[k].tobytes()
            kernel_q = partition._m_matrix_entries(q, grid_q, boundary_q)
            assert kernel_q[i].tobytes() == kernel[k].tobytes()


def test_sweep_factors_the_base_once(monkeypatch):
    calls = {"logdet_partial_pivot": 0, "_det_guards": 0, "z_determinant": 0}
    for name in calls:
        inner = getattr(partition, name)

        def counting(*args, name=name, inner=inner, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(partition, name, counting)
    p = draw(16, np.random.default_rng(303))
    values = np.linspace(-0.5, 0.5, 300) + 0.1j
    res = partition.z_sweep(p, 5, values)
    assert not (res.fallback | res.skipped).any()
    assert calls == {"logdet_partial_pivot": 1, "_det_guards": 1, "z_determinant": 0}


def test_sweep_guards_default_box_points_by_their_bounds(monkeypatch):
    # every entry that holds lambda_i is cleared by a sinh^2 bound, so no
    # point takes fails_at_lambda's exact decision over the whole table
    rng = np.random.default_rng(306)
    p = draw(16, rng)
    values = rng.uniform(-0.8, 0.8, 300) + 1j * rng.uniform(-0.8, 0.8, 300)
    calls = []
    inner = params.guard_violations
    monkeypatch.setattr(params, "guard_violations", lambda *a: calls.append(a) or inner(*a))
    res = partition.z_sweep(p, 5, values)
    assert not res.skipped.any() and calls == []


def test_sweep_rejects_a_site_out_of_range():
    # a negative i would leave the pairs holding lambda_(N+i) out of Z
    p = draw(4, np.random.default_rng(305))
    for i in (-1, 4):
        with pytest.raises(ValueError, match=r"i must be in 0\.\.3, got " + str(i)):
            partition.z_sweep(p, i, [0.1])


def test_sweep_falls_back_where_the_base_is_not_usable(monkeypatch):
    # past Re lambda_0 ~ 177.75 the base kernel row underflows and its
    # smallest pivot is NaN: every point is then z_determinant's, and only
    # a point whose own matrix is ill-conditioned warns
    p = ModelParams(0.62, 1.05, 0.83, (400.0, 0.47), (0.24, 0.11))
    params.validate_params(p)
    values = [0.2, 0.3 + 0.1j, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = partition.z_sweep(p, 0, values)
    assert res.fallback.all() and np.isnan(res.err).all()
    assert res.values.tolist() == [partition.z_determinant(p.replace_lambda(0, v)).value
                                   for v in values]
    # a well-conditioned base at a raised pivot bound falls back the same way
    monkeypatch.setattr(partition, "ILL_CONDITIONED_PIVOT", np.inf)
    q = p.replace_lambda(0, 0.31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        res = partition.z_sweep(q, 0, values)
        want = [partition.z_determinant(q.replace_lambda(0, v)).value for v in values]
    assert res.fallback.all() and res.values.tolist() == want


def test_sweep_falls_back_at_a_base_with_a_moved_entry():
    # a base at lambda_0 = xi_0 has no lemma rows: every point is z_determinant's
    p = draw(4, np.random.default_rng(308))
    base = p.replace_lambda(0, p.xis[0])
    values = [0.2, 0.3 + 0.1j, -0.4j]
    res = partition.z_sweep(base, 2, values)
    assert res.fallback.all() and not res.skipped.any()
    assert res.values.tolist() == [partition.z_determinant(base.replace_lambda(2, v)).value
                                   for v in values]


def test_sweep_emits_no_numpy_warnings():
    # exact pins divide by zero in their kernel rows and prefactor logs
    rng = np.random.default_rng(304)
    p = draw(4, rng)
    values = np.concatenate([_lambda_pins(p, 1, rng), [300.0, -300.0 + 1j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", IllConditionedWarning)
        partition.z_sweep(p, 1, values)
