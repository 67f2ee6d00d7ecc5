"""The partition function three ways: operator contraction, an N=1 closed
form, and a single N x N determinant; plus the scalar factors entering the
crossing and recursion identities and the polynomial normalization.

The determinant path works in log space throughout (the determinant itself
via the log of each pivot, the prefactor as a sum of log|sinh| and arg sinh
terms), so the reported `log_value` stays finite even when the value over- or
underflows a double.  Since exp is 2*pi*i periodic, the branch of each
argument does not affect the exponentiated result.
"""

from __future__ import annotations

import operator
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import chain_ops
from .params import (
    CapExceeded,
    IllConditionedWarning,
    InvariantViolation,
    guard_families,
    require_all_nonsingular,
    require_nonsingular,
)

sh = np.sinh

BRUTE_CAP_DEFAULT = 8
BRUTE_CAP_HARD_MAX = 12
ILL_CONDITIONED_PIVOT = 1e-10
LU_PANEL = 64

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


def z_bruteforce(p, cap=BRUTE_CAP_DEFAULT):
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
        v = chain_ops.apply_b(v, lam, p)
    value = complex(v[-1])
    return PartitionResult(value, METHOD_BRUTE, time.perf_counter() - t0, p.n)


def z_n1_closed(lam, xi, theta, eta, zeta):
    """Closed form for a single-site chain: a sum of two boundary terms."""
    lam, xi, theta, eta, zeta = (complex(v) for v in (lam, xi, theta, eta, zeta))
    require_nonsingular("theta", theta)
    require_nonsingular("theta+zeta+lambda", theta + zeta + lam)
    require_nonsingular("zeta+lambda", zeta + lam)
    return complex(
        sh(eta) * sh(theta - eta) / sh(theta) ** 2
        * (
            sh(theta + zeta - lam) / sh(theta + zeta + lam)
            * sh(lam - xi) * sh(theta + lam + xi)
            + sh(zeta - lam) / sh(zeta + lam)
            * sh(lam + xi) * sh(theta - lam + xi)
        )
    )


def _m_matrix_entries(p, form, grids):
    """Vectorised kernel matrix from the sinh grids `_det_guards` returns
    (no guards; callers guard first)."""
    s_mx, s_px, s_mxe, s_pxe = grids
    L = p.lambdas_array()[:, None]
    X = p.xis_array()[None, :]
    theta, eta, zeta = p.theta, p.eta, p.zeta
    if form == PRODUCT_FORM:
        return (
            sh(theta + zeta + X) / sh(theta + zeta + L)
            * sh(zeta - X) / sh(zeta + L)
            * sh(2 * L) * sh(eta)
            / (s_mxe * s_pxe * s_mx * s_px)
        )
    if form == SUM_FORM:
        mp = (1 / s_mxe) * (1 / s_px - sh(theta - eta) / (sh(theta) * s_pxe))
        mm = (1 / s_pxe) * (1 / s_mx - sh(theta + eta) / (sh(theta) * s_mxe))
        return (
            sh(theta + zeta - L) / sh(theta + zeta + L) * mp
            + sh(zeta - L) / sh(zeta + L) * mm
        )
    raise ValueError(f"form must be {SUM_FORM!r} or {PRODUCT_FORM!r}")


def m_matrix(p, form=PRODUCT_FORM):
    """Full kernel matrix with guards applied."""
    return _m_matrix_entries(p, form, _det_guards(p, form)[0])


def logdet_partial_pivot(mat):
    """(log det, smallest pivot modulus) by blocked right-looking Gaussian
    elimination with partial pivoting on the modulus.  Each panel of LU_PANEL
    columns is eliminated column by column, multipliers stored in place; its
    row swaps then reach the trailing columns, its block row of U comes from a
    unit-lower triangular solve and the trailing update is one matmul.  For
    n <= LU_PANEL (one panel) the result is that of the unblocked loop, bit for
    bit.  Log accumulation keeps huge/tiny determinants representable; a row
    swap contributes i*pi to the log."""
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    logdet = 0.0 + 0.0j
    swaps = 0
    min_piv = np.inf
    for k0 in range(0, n, LU_PANEL):
        k1 = min(k0 + LU_PANEL, n)
        panel_swaps = []
        for k in range(k0, k1):
            rel = int(np.argmax(np.abs(a[k:, k])))
            if rel:
                a[[k, k + rel], k0:k1] = a[[k + rel, k], k0:k1]
                panel_swaps.append((k, k + rel))
            piv = a[k, k]
            apiv = abs(piv)
            if apiv < min_piv:
                min_piv = apiv
            if apiv == 0.0:
                return complex(-np.inf), 0.0
            logdet += np.log(piv)
            a[k + 1 :, k] /= piv
            a[k + 1 :, k + 1 : k1] -= np.outer(a[k + 1 :, k], a[k, k + 1 : k1])
        swaps += len(panel_swaps)
        if k1 < n:
            for k, r in panel_swaps:
                a[[k, r], k1:] = a[[r, k], k1:]
            for i in range(k0 + 1, k1):
                a[i, k1:] -= a[i, k0:i] @ a[k0:i, k1:]
            a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]
    if swaps % 2:
        logdet += 1j * np.pi
    return complex(logdet), float(min_piv)


def _height_prefactor_log(n, theta, eta):
    """Log of the scalar height factor in the determinant formula:
    (-1)^floor(n/2) times the product over m = n-1, n-3, ... (>= 0) of
    sinh(theta - (m+1) eta) / sinh(theta + m eta)."""
    log = 1j * np.pi * ((n // 2) % 2)
    for m in range(n - 1, -1, -2):
        require_nonsingular(f"theta+{m}*eta", theta + m * eta)
        log += np.log(sh(theta - (m + 1) * eta)) - np.log(sh(theta + m * eta))
    return log


def _det_guards(p, form):
    """Guard every denominator the determinant formula divides by, in this
    order: the four N x N grids at lambda_i -+ xi_j (+eta), theta+zeta+lambda,
    zeta+lambda, sinh(theta) for the sum form only, then over i < j the pairs
    xi_j -+ xi_i, lambda_j - lambda_i and lambda_j + lambda_i + eta (the
    lower triangle of that grid).  All but sinh(theta), whose label is not
    the table's theta+0*eta, are rows of `guard_families(p, (j, i))`.
    Returns the sinh of the grids and of the four pair vectors, each
    evaluated once."""
    n = p.n
    iu, ju = np.triu_indices(n, 1)
    fams = {key: (args, name) for _, key, args, name in guard_families(p, (ju, iu))}

    def guard(key, flat=None):
        # pop: each argument array is released as soon as it is guarded
        args, name = fams.pop(key)
        if flat is None:
            return require_all_nonsingular(name, args)
        return require_all_nonsingular(lambda k: name(flat[k]), args.ravel()[flat])

    grids = tuple(guard(key) for key in ("lambda-xi", "lambda+xi", "lambda-xi+eta", "lambda+xi+eta"))
    guard("theta+zeta+lambda")
    guard("zeta+lambda")
    if form == SUM_FORM:
        require_nonsingular("theta", p.theta)
    pairs = tuple(guard(key) for key in ("xi-xi", "xi+xi", "lambda-lambda"))
    return grids, pairs + (guard("lambda+lambda+eta", ju * n + iu),)


def _log_sinh_sum(sinhs):
    """Sum of log s over the arrays `sinhs`, as sum log|s| + i sum arg s."""
    return complex(sum(np.sum(np.log(np.abs(s))) for s in sinhs),
                   sum(np.sum(np.angle(s)) for s in sinhs))


def z_determinant(p):
    """Z as a scalar prefactor times an N x N determinant; O(N^3).

    Every sinh is evaluated once, in `_det_guards`, and feeds both the
    kernel (product form; the sum form loses digits) and the log prefactor;
    `cond_hint` is the smallest pivot modulus of the blocked LU.  Warns
    IllConditionedWarning when it drops below 1e-10, which at large N is
    expected: the kernel is Cauchy-like and its pivots decay geometrically, so
    trust `log_value` over `value` there.  Below about 1e-12 the value has no
    reliable digits (LU orderings disagree widely).
    """
    t0 = time.perf_counter()
    n = p.n
    grids, pairs = _det_guards(p, PRODUCT_FORM)
    logdet, min_piv = logdet_partial_pivot(_m_matrix_entries(p, PRODUCT_FORM, grids))
    if min_piv < ILL_CONDITIONED_PIVOT:
        warnings.warn(
            f"smallest elimination pivot {min_piv:.2e}; determinant digits "
            "are in doubt (see cond_hint / log_value)",
            IllConditionedWarning,
            stacklevel=2,
        )

    log_pref = _log_sinh_sum(grids) - _log_sinh_sum(pairs)
    log_value = logdet + log_pref + _height_prefactor_log(n, p.theta, p.eta)
    value = complex(np.exp(log_value))
    return PartitionResult(
        value,
        METHOD_DETERMINANT,
        time.perf_counter() - t0,
        n,
        cond_hint=min_piv,
        log_value=complex(log_value),
    )


def crossing_factor(lambda_i, p):
    """Scalar relating Z with lambda_i replaced by -lambda_i - eta to Z."""
    return complex(
        chain_ops.crossing_scalar(lambda_i, p.theta, p.eta, p.zeta)
    )


def _recursion_rhs(p, z_prev, side):
    """Right-hand side of the recursion at a coincidence: side "lower" pins
    lambda_1 = xi_1, "upper" pins lambda_N = -xi_1.  The upper product is the
    lower one with every xi negated, factor for factor in the same order."""
    lower = side == "lower"
    k, name, c, cname = (0, "lambda[0]", p.zeta, "zeta") if lower else (
        -1, "lambda[N-1]", p.theta + p.zeta, "theta+zeta")
    flip = operator.pos if lower else operator.neg
    x = flip(p.xis[0])
    lp = p.lambdas[k]
    if lp != x:
        raise InvariantViolation(
            f"{side} recursion needs {name} == {'' if lower else '-'}xi[0] exactly, "
            f"got {lp} and {x}"
        )
    n = p.n
    theta, eta = p.theta, p.eta
    require_nonsingular(f"{cname}+{name}", c + lp)
    val = sh(eta) * sh(c - lp) / sh(c + lp)
    for i in range(1, n + 1):
        require_nonsingular(
            f"theta+{n - 2 * i + 1}*eta", theta + (n - 2 * i + 1) * eta)
        val = val * sh(p.lambdas[i - 1] + x) \
            * sh(theta + (n - 2 * i) * eta) / sh(theta + (n - 2 * i + 1) * eta)
    others = p.lambdas[1:] if lower else p.lambdas[:-1]
    for xi_i, lam_i in zip(p.xis[1:], others):
        y = flip(xi_i)
        val = val * sh(lp - y + eta) * sh(lp + y + eta) * sh(lam_i - x + eta)
    return complex(val * z_prev)


def recursion_rhs_lower(p, z_prev):
    """Recursion right-hand side at lambda_1 = xi_1; `z_prev` is Z on
    lambdas[1:], xis[1:] (the empty chain has Z = 1)."""
    return _recursion_rhs(p, z_prev, "lower")


def recursion_rhs_upper(p, z_prev):
    """Recursion right-hand side at lambda_N = -xi_1; `z_prev` is Z on
    lambdas[:-1], xis[1:]."""
    return _recursion_rhs(p, z_prev, "upper")


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
