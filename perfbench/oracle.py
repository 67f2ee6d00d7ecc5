"""50-digit mpmath evaluation of Z from the double inputs of an instance.

This is the determinant formula written out independently of the package:
height factor times the sinh prefactor times det M, with M in its product
form.  mpmath numbers have an unbounded exponent, so Z is formed directly and
compared with the package's result in log space, where a double cannot over-
or underflow.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 50


def z_reference(p):
    """Z of a ModelParams instance, as an mpmath complex at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        sh = mpmath.sinh
        eta, zeta, theta = (mpmath.mpc(v) for v in (p.eta, p.zeta, p.theta))
        lam = [mpmath.mpc(v) for v in p.lambdas]
        xi = [mpmath.mpc(v) for v in p.xis]
        n = len(lam)
        m = mpmath.matrix(n, n)
        pref = mpmath.mpc(1)
        for i in range(n):
            li = lam[i]
            row = sh(2 * li) * sh(eta) / (sh(theta + zeta + li) * sh(zeta + li))
            for j in range(n):
                xj = xi[j]
                a, b = sh(li - xj), sh(li + xj)
                ae, be = sh(li - xj + eta), sh(li + xj + eta)
                m[i, j] = row * sh(theta + zeta + xj) * sh(zeta - xj) / (ae * be * a * b)
                pref *= a * b * ae * be
        for i in range(n):
            for j in range(i + 1, n):
                pref /= (
                    sh(xi[j] + xi[i]) * sh(xi[j] - xi[i])
                    * sh(lam[j] - lam[i]) * sh(lam[j] + lam[i] + eta)
                )
        height = mpmath.mpc(-1 if (n // 2) % 2 else 1)
        for k in range(n - 1, -1, -2):
            height *= sh(theta - (k + 1) * eta) / sh(theta + k * eta)
        return +(height * pref * mpmath.det(m))


def rel_error_log(log_z, ref):
    """|Z/ref - 1| for a Z given by its complex log (any branch)."""
    with mpmath.workdps(DIGITS):
        d = mpmath.mpc(log_z) - mpmath.log(ref)
        two_pi = 2 * mpmath.pi
        d = mpmath.mpc(d.real, d.imag - two_pi * mpmath.nint(d.imag / two_pi))
        return float(abs(mpmath.expm1(d)))


def rel_error(z, ref):
    """|z - ref| / |ref| for a double complex z."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpc(z) - ref) / abs(ref))


def digits(rel):
    """-log10 of a relative error; an exact match reads as 17 digits."""
    return -math.log10(max(rel, 1e-17))
