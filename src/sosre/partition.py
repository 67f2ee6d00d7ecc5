"""The partition function three ways: operator contraction, an N=1 closed
form, and a single N x N determinant; plus the scalar factors entering the
crossing and recursion identities and the polynomial normalization.

The determinant path works in log space throughout (the determinant itself
via the log of each pivot, the prefactor as a sum of log-sinh terms), so the
reported `log_value` stays finite even when the value over- or underflows a
double.  Since exp is 2*pi*i periodic, branch cuts in the individual logs do
not affect the exponentiated result.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import chain_ops
from .params import (
    CapExceeded,
    IllConditionedWarning,
    InvariantViolation,
    ModelParams,
    require_all_nonsingular,
    require_nonsingular,
)

sh = np.sinh

BRUTE_CAP_DEFAULT = 8
BRUTE_CAP_HARD_MAX = 12
ILL_CONDITIONED_PIVOT = 1e-10

SUM_FORM = "sum"
PRODUCT_FORM = "product"

METHOD_BRUTE = "brute-force"
METHOD_DETERMINANT = "determinant"
METHOD_CLOSED_N1 = "closed-form-n1"


@dataclass(frozen=True)
class PartitionResult:
    """One evaluation of Z.  `cond_hint` (smallest elimination pivot modulus)
    and `log_value` are populated by the determinant method only."""

    value: complex
    method: str
    elapsed: float
    n: int
    cond_hint: float | None = None
    log_value: complex | None = None


@dataclass(frozen=True)
class MMatrix:
    """The N x N kernel of the determinant formula, tagged with which of the
    two equivalent entry forms produced it."""

    entries: np.ndarray
    form_tag: str


def z_bruteforce(p, cap=BRUTE_CAP_DEFAULT, guard_tol=None):
    """Z as the all-down/all-up matrix element of the product of B operators.

    The product runs over the spectral parameters in order, rightmost factor
    applied first.  Each B is applied to the vector factor by factor, never
    multiplied out, so Z costs O(N^2 2^N); refuses N beyond `cap` (hard
    max 12).
    """
    effective_cap = min(int(cap), BRUTE_CAP_HARD_MAX)
    if p.n > effective_cap:
        raise CapExceeded(
            f"brute-force contraction needs N <= {effective_cap}, got N = {p.n}"
        )
    t0 = time.perf_counter()
    v = np.zeros(1 << p.n, dtype=complex)
    v[0] = 1.0
    for lam in reversed(p.lambdas):
        v = chain_ops.apply_b(v, lam, p, guard_tol)
    value = complex(v[-1])
    return PartitionResult(value, METHOD_BRUTE, time.perf_counter() - t0, p.n)


def z_n1_closed(lam, xi, theta, eta, zeta, guard_tol=None):
    """Closed form for a single-site chain: a sum of two boundary terms."""
    lam, xi, theta, eta, zeta = (complex(v) for v in (lam, xi, theta, eta, zeta))
    require_nonsingular("theta", theta, guard_tol)
    require_nonsingular("theta+zeta+lambda", theta + zeta + lam, guard_tol)
    require_nonsingular("zeta+lambda", zeta + lam, guard_tol)
    return complex(
        sh(eta) * sh(theta - eta) / sh(theta) ** 2
        * (
            sh(theta + zeta - lam) / sh(theta + zeta + lam)
            * sh(lam - xi) * sh(theta + lam + xi)
            + sh(zeta - lam) / sh(zeta + lam)
            * sh(lam + xi) * sh(theta - lam + xi)
        )
    )


def m_entry(i, j, p, form=PRODUCT_FORM, guard_tol=None):
    """Kernel entry M[i, j] (0-based indices into lambdas / xis): the 1 x 1
    kernel of lambda_i against xi_j, guarded by name.

    The sum form splits into two boundary-weighted terms; the product form is
    a single product of sinh ratios.  The two agree at generic points.
    """
    li = complex(p.lambdas[i])
    xj = complex(p.xis[j])
    theta, eta, zeta = p.theta, p.eta, p.zeta
    require_nonsingular("lambda_i-xi_j+eta", li - xj + eta, guard_tol)
    require_nonsingular("lambda_i+xi_j+eta", li + xj + eta, guard_tol)
    require_nonsingular("lambda_i-xi_j", li - xj, guard_tol)
    require_nonsingular("lambda_i+xi_j", li + xj, guard_tol)
    require_nonsingular("theta", theta, guard_tol)
    require_nonsingular("theta+zeta+lambda_i", theta + zeta + li, guard_tol)
    require_nonsingular("zeta+lambda_i", zeta + li, guard_tol)
    return complex(_m_matrix_entries(ModelParams(eta, zeta, theta, (li,), (xj,)), form)[0, 0])


def _m_matrix_entries(p, form):
    """Vectorised kernel matrix (no guards; callers guard first)."""
    L = p.lambdas_array()[:, None]
    X = p.xis_array()[None, :]
    theta, eta, zeta = p.theta, p.eta, p.zeta
    if form == PRODUCT_FORM:
        return (
            sh(theta + zeta + X) / sh(theta + zeta + L)
            * sh(zeta - X) / sh(zeta + L)
            * sh(2 * L) * sh(eta)
            / (sh(L - X + eta) * sh(L + X + eta) * sh(L - X) * sh(L + X))
        )
    if form == SUM_FORM:
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
    raise ValueError(f"form must be {SUM_FORM!r} or {PRODUCT_FORM!r}")


def m_matrix(p, form=PRODUCT_FORM, guard_tol=None):
    """Full kernel matrix with guards applied."""
    _det_guards(p, form, guard_tol)
    return MMatrix(_m_matrix_entries(p, form), form)


def logdet_partial_pivot(mat):
    """(log det, smallest pivot modulus) by Gaussian elimination with partial
    pivoting on the modulus.  Log accumulation keeps huge/tiny determinants
    representable; a row swap contributes i*pi to the log."""
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
        apiv = abs(piv)
        if apiv < min_piv:
            min_piv = apiv
        if apiv == 0.0:
            return complex(-np.inf), 0.0
        logdet += np.log(piv)
        if k + 1 < n:
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / piv, a[k, k + 1 :])
    if swaps % 2:
        logdet += 1j * np.pi
    return complex(logdet), float(min_piv)


def _height_prefactor_log(n, theta, eta, guard_tol=None):
    """Log of the scalar height factor in the determinant formula:
    (-1)^floor(n/2) times the product over m = n-1, n-3, ... (>= 0) of
    sinh(theta - (m+1) eta) / sinh(theta + m eta)."""
    log = 1j * np.pi * ((n // 2) % 2)
    for m in range(n - 1, -1, -2):
        require_nonsingular(f"theta+{m}*eta", theta + m * eta, guard_tol)
        log += np.log(sh(theta - (m + 1) * eta)) - np.log(sh(theta + m * eta))
    return log


def _det_guards(p, form, guard_tol):
    """Every denominator the determinant formula divides by, vectorised."""
    n = p.n
    lam = p.lambdas_array()
    xi = p.xis_array()
    L = lam[:, None]
    X = xi[None, :]
    require_all_nonsingular(
        lambda k: f"lambda[{k // n}]-xi[{k % n}]", L - X, guard_tol)
    require_all_nonsingular(
        lambda k: f"lambda[{k // n}]+xi[{k % n}]", L + X, guard_tol)
    require_all_nonsingular(
        lambda k: f"lambda[{k // n}]-xi[{k % n}]+eta", L - X + p.eta, guard_tol)
    require_all_nonsingular(
        lambda k: f"lambda[{k // n}]+xi[{k % n}]+eta", L + X + p.eta, guard_tol)
    require_all_nonsingular(
        lambda k: f"theta+zeta+lambda[{k}]", p.theta + p.zeta + lam, guard_tol)
    require_all_nonsingular(
        lambda k: f"zeta+lambda[{k}]", p.zeta + lam, guard_tol)
    if form == SUM_FORM:
        require_nonsingular("theta", p.theta, guard_tol)
    if n > 1:
        iu, ju = np.triu_indices(n, 1)
        require_all_nonsingular(
            lambda k: f"xi[{ju[k]}]-xi[{iu[k]}]", xi[ju] - xi[iu], guard_tol)
        require_all_nonsingular(
            lambda k: f"xi[{ju[k]}]+xi[{iu[k]}]", xi[ju] + xi[iu], guard_tol)
        require_all_nonsingular(
            lambda k: f"lambda[{ju[k]}]-lambda[{iu[k]}]", lam[ju] - lam[iu], guard_tol)
        require_all_nonsingular(
            lambda k: f"lambda[{ju[k]}]+lambda[{iu[k]}]+eta", lam[ju] + lam[iu] + p.eta, guard_tol)


def z_determinant(p, form=PRODUCT_FORM, guard_tol=None):
    """Z as a scalar prefactor times an N x N determinant; O(N^3).

    Warns IllConditionedWarning when the smallest elimination pivot drops
    below 1e-10, which at large N is expected: the kernel is Cauchy-like and
    its pivots decay geometrically, so trust `log_value` over `value` there.
    """
    t0 = time.perf_counter()
    n = p.n
    _det_guards(p, form, guard_tol)
    lam = p.lambdas_array()
    xi = p.xis_array()
    L = lam[:, None]
    X = xi[None, :]

    logdet, min_piv = logdet_partial_pivot(_m_matrix_entries(p, form))
    if min_piv < ILL_CONDITIONED_PIVOT:
        warnings.warn(
            f"smallest elimination pivot {min_piv:.2e}; determinant digits "
            "are in doubt (see cond_hint / log_value)",
            IllConditionedWarning,
            stacklevel=2,
        )

    log_pref = (
        np.sum(np.log(sh(L + X)))
        + np.sum(np.log(sh(L - X)))
        + np.sum(np.log(sh(L + X + p.eta)))
        + np.sum(np.log(sh(L - X + p.eta)))
    )
    if n > 1:
        iu, ju = np.triu_indices(n, 1)
        log_pref -= (
            np.sum(np.log(sh(xi[ju] + xi[iu])))
            + np.sum(np.log(sh(xi[ju] - xi[iu])))
            + np.sum(np.log(sh(lam[ju] - lam[iu])))
            + np.sum(np.log(sh(lam[ju] + lam[iu] + p.eta)))
        )

    log_value = logdet + log_pref + _height_prefactor_log(n, p.theta, p.eta, guard_tol)
    value = complex(np.exp(log_value))
    return PartitionResult(
        value,
        METHOD_DETERMINANT,
        time.perf_counter() - t0,
        n,
        cond_hint=min_piv,
        log_value=complex(log_value),
    )


def crossing_factor(lambda_i, p, guard_tol=None):
    """Scalar relating Z with lambda_i replaced by -lambda_i - eta to Z."""
    return complex(
        chain_ops.crossing_scalar(lambda_i, p.theta, p.eta, p.zeta, guard_tol)
    )


def recursion_rhs_lower(p, z_prev, guard_tol=None):
    """Right-hand side of the recursion at the coincidence lambda_1 = xi_1.

    `z_prev` is Z of the (N-1)-site instance on lambdas[1:], xis[1:]; the
    empty chain has Z = 1.
    """
    if p.lambdas[0] != p.xis[0]:
        raise InvariantViolation(
            "lower recursion needs lambda[0] == xi[0] exactly, got "
            f"{p.lambdas[0]} and {p.xis[0]}"
        )
    n = p.n
    theta, eta, zeta = p.theta, p.eta, p.zeta
    l1 = p.lambdas[0]
    require_nonsingular("zeta+lambda[0]", zeta + l1, guard_tol)
    val = sh(eta) * sh(zeta - l1) / sh(zeta + l1)
    for i in range(1, n + 1):
        require_nonsingular(
            f"theta+{n - 2 * i + 1}*eta", theta + (n - 2 * i + 1) * eta, guard_tol)
        val = val * sh(p.lambdas[i - 1] + p.xis[0]) \
            * sh(theta + (n - 2 * i) * eta) / sh(theta + (n - 2 * i + 1) * eta)
    for i in range(2, n + 1):
        val = val * sh(l1 - p.xis[i - 1] + eta) * sh(l1 + p.xis[i - 1] + eta) \
            * sh(p.lambdas[i - 1] - p.xis[0] + eta)
    return complex(val * z_prev)


def recursion_rhs_upper(p, z_prev, guard_tol=None):
    """Right-hand side of the recursion at the coincidence lambda_N = -xi_1.

    `z_prev` is Z of the (N-1)-site instance on lambdas[:-1], xis[1:].
    """
    if p.lambdas[-1] != -p.xis[0]:
        raise InvariantViolation(
            "upper recursion needs lambda[N-1] == -xi[0] exactly, got "
            f"{p.lambdas[-1]} and {-p.xis[0]}"
        )
    n = p.n
    theta, eta, zeta = p.theta, p.eta, p.zeta
    lN = p.lambdas[-1]
    require_nonsingular("theta+zeta+lambda[N-1]", theta + zeta + lN, guard_tol)
    val = sh(eta) * sh(theta + zeta - lN) / sh(theta + zeta + lN)
    for i in range(1, n + 1):
        require_nonsingular(
            f"theta+{n - 2 * i + 1}*eta", theta + (n - 2 * i + 1) * eta, guard_tol)
        val = val * sh(p.lambdas[i - 1] - p.xis[0]) \
            * sh(theta + (n - 2 * i) * eta) / sh(theta + (n - 2 * i + 1) * eta)
    for i in range(2, n + 1):
        val = val * sh(lN + p.xis[i - 1] + eta) * sh(lN - p.xis[i - 1] + eta) \
            * sh(p.lambdas[i - 2] + p.xis[0] + eta)
    return complex(val * z_prev)


def normalized_z(p, i, z, second_factor="zeta"):
    """Clear the poles and exponential growth out of Z as a function of
    lambda_i: multiply by exp((2N+2) sum(lambdas)) and the two boundary
    denominators.  The result is a polynomial of degree at most 2N+2 in
    exp(2 lambda_i).

    `second_factor` selects the coupling in the second clearing factor:
    "zeta" (default) uses sinh(zeta + lambda_i), which matches the actual
    boundary denominator and yields a polynomial; "theta" uses
    sinh(theta + lambda_i), kept for comparison -- it does not clear the
    pole, and the degree test fails with it.
    """
    if second_factor == "zeta":
        second = p.zeta
    elif second_factor == "theta":
        second = p.theta
    else:
        raise ValueError("second_factor must be 'zeta' or 'theta'")
    li = p.lambdas[i]
    return complex(
        np.exp((2 * p.n + 2) * np.sum(p.lambdas_array()))
        * sh(p.theta + p.zeta + li) * sh(second + li) * z
    )
