"""Face weights, the dynamical R-matrix, the boundary K-matrix, and direct
numerical checks of the identities that define them.

Basis conventions, fixed once and used everywhere: spin up sorts before spin
down, tensor factors are ordered with the auxiliary space first, and in
multi-site spaces site 1 is the slowest-varying index.  A height (dynamical)
shift ``theta - eta*m`` is always resolved blockwise: ``m`` is the total spin
of the shift set read off each basis state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import require_nonsingular

sh = np.sinh


@dataclass(frozen=True)
class FaceWeightSet:
    """The six nonzero face weights at one (lambda, theta); `a` serves both
    all-up and all-down corners, so five distinct values."""

    a: complex
    b_plus: complex
    b_minus: complex
    c_plus: complex
    c_minus: complex


def _b_weight(lam, theta, eta):
    return sh(lam) * sh(theta - eta) / sh(theta)


def _c_weight(lam, theta, eta):
    return sh(eta) * sh(theta - lam) / sh(theta)


def face_weights(lam, theta, eta):
    """Statistical weights at spectral parameter `lam` and height `theta`.

    The minus weights are the plus weights at reflected height, literally the
    same code path, so b_minus(lam, theta) == b_plus(lam, -theta) bit-exactly.
    """
    lam, theta, eta = complex(lam), complex(theta), complex(eta)
    require_nonsingular("theta", theta)
    return FaceWeightSet(
        a=sh(lam + eta),
        b_plus=_b_weight(lam, theta, eta),
        b_minus=_b_weight(lam, -theta, eta),
        c_plus=_c_weight(lam, theta, eta),
        c_minus=_c_weight(lam, -theta, eta),
    )


def r_matrix(lam, theta, eta):
    """4x4 R-matrix on aux (x) site in the basis (++, +-, -+, --).

    Rows are outgoing indices, columns incoming.  Only the six conserved-spin
    entries are populated; the other ten stay exactly zero (ice rule).
    """
    w = face_weights(lam, theta, eta)
    R = np.zeros((4, 4), dtype=complex)
    R[0, 0] = w.a
    R[1, 1] = w.b_plus
    R[1, 2] = w.c_plus
    R[2, 1] = w.c_minus
    R[2, 2] = w.b_minus
    R[3, 3] = w.a
    return R


def k_matrix(lam, theta, zeta):
    """Diagonal 2x2 boundary matrix; K(0) is the identity."""
    lam, theta, zeta = complex(lam), complex(theta), complex(zeta)
    require_nonsingular("theta+zeta+lambda", theta + zeta + lam)
    require_nonsingular("zeta+lambda", zeta + lam)
    return np.diag(
        [
            sh(theta + zeta - lam) / sh(theta + zeta + lam),
            sh(zeta - lam) / sh(zeta + lam),
        ]
    )


# Bit layout: tensor position pos of n is bit n-1-pos of a basis index, so
# position 0 varies slowest.  Every chain operator is built on the pair
# kernel below.

SWAP_4 = np.zeros((4, 4))
SWAP_4[0, 0] = SWAP_4[1, 2] = SWAP_4[2, 1] = SWAP_4[3, 3] = 1.0


def apply_pair(x, n, pos_a, pos_b, shift, lam, theta, eta):
    """Apply R(lam; theta - eta*m) on tensor positions (pos_a, pos_b) of n
    two-level spaces, identity elsewhere, to the leading axis of `x` (length
    2^n; any trailing axes are carried along, so `x` may be a stack of
    columns).  `m` is the total spin over the positions in `shift`, read off
    each basis state, so the operator is block diagonal in the shift-set
    magnetization.
    """
    if set(shift) & {pos_a, pos_b}:
        raise ValueError(f"shift {tuple(shift)} overlaps the R legs ({pos_a}, {pos_b})")
    rest = x.shape[1:]
    s = len(shift)
    # the weights of R at each reachable height, highest m (all up) first
    fs = [face_weights(lam, theta - eta * m, eta) for m in range(s, -s - 1, -2)]
    w = np.array([(f.a, f.b_plus, f.c_plus, f.c_minus, f.b_minus) for f in fs])
    # down spins in the shift set, per basis state of the other n - 2 positions
    others = [k for k in range(n) if k not in (pos_a, pos_b)]
    mask = sum(1 << (n - 3 - others.index(k)) for k in shift)
    down = np.bitwise_count(np.arange(1 << (n - 2)) & mask)
    a, b_plus, c_plus, c_minus, b_minus = w[down].T.reshape((5,) + (2,) * (n - 2) + (1,) * len(rest))
    # views with the R legs in front: [spin at pos_a, spin at pos_b, others..., rest...]
    t = np.moveaxis(np.reshape(x, (2,) * n + rest), (pos_a, pos_b), (0, 1))
    out = np.empty(x.shape, dtype=np.result_type(x, complex))
    o = np.moveaxis(out.reshape((2,) * n + rest), (pos_a, pos_b), (0, 1))
    o[0, 0] = a * t[0, 0]
    o[1, 1] = a * t[1, 1]
    o[0, 1] = b_plus * t[0, 1] + c_plus * t[1, 0]
    o[1, 0] = c_minus * t[0, 1] + b_minus * t[1, 0]
    return out


def embed_pair(n, pos_a, pos_b, shift, lam, theta, eta):
    """`apply_pair` as an explicit 2^n matrix."""
    return apply_pair(np.eye(1 << n), n, pos_a, pos_b, shift, lam, theta, eta)


def ice_rule_residual(lam, theta, eta):
    """Max |entry| of [R, sz(x)Id + Id(x)sz]; zero structurally."""
    R = r_matrix(lam, theta, eta)
    M = np.diag([2.0, 0.0, 0.0, -2.0])
    return float(np.max(np.abs(R @ M - M @ R)))


def transposed_ice_rule_residual(lam, theta, eta):
    """Max |entry| of [R^{t1}, sz(x)Id - Id(x)sz] where t1 is the partial
    transpose in the first space; zero structurally."""
    R = r_matrix(lam, theta, eta)
    Rt1 = R.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    M = np.diag([0.0, 2.0, -2.0, 0.0])
    return float(np.max(np.abs(Rt1 @ M - M @ Rt1)))


def check_dybe(lambdas, theta, eta):
    """Dynamical Yang-Baxter equation on three spaces: the max |entry| of
    lhs - rhs, as a float.

    Each R carries a height shifted by the spin of the spectating space on
    one side of the equation and is unshifted on the other.
    """
    l1, l2, l3 = (complex(v) for v in lambdas)
    lhs = (
        embed_pair(3, 0, 1, (2,), l1 - l2, theta, eta)
        @ embed_pair(3, 0, 2, (), l1 - l3, theta, eta)
        @ embed_pair(3, 1, 2, (0,), l2 - l3, theta, eta)
    )
    rhs = (
        embed_pair(3, 1, 2, (), l2 - l3, theta, eta)
        @ embed_pair(3, 0, 2, (1,), l1 - l3, theta, eta)
        @ embed_pair(3, 0, 1, (), l1 - l2, theta, eta)
    )
    return float(np.max(np.abs(lhs - rhs)))


def check_unitarity(lam, theta, eta):
    """R12(lam) R21(-lam) must equal -sinh(lam-eta) sinh(lam+eta) times the
    identity, with R21 the swap conjugate of R12; returns the max |entry| of
    the difference, as a float."""
    lam, theta, eta = complex(lam), complex(theta), complex(eta)
    R12 = r_matrix(lam, theta, eta)
    R21 = SWAP_4 @ r_matrix(-lam, theta, eta) @ SWAP_4
    return float(np.max(np.abs(R12 @ R21 + sh(lam - eta) * sh(lam + eta) * np.eye(4))))


def check_reflection_equation(l1, l2, theta, eta, zeta):
    """Boundary reflection equation on two spaces with K in space 1 or 2:
    the max |entry| of lhs - rhs, as a float."""
    l1, l2 = complex(l1), complex(l2)
    K1 = np.kron(k_matrix(l1, theta, zeta), np.eye(2))
    K2 = np.kron(np.eye(2), k_matrix(l2, theta, zeta))
    R12 = lambda x: embed_pair(2, 0, 1, (), x, theta, eta)
    R21 = lambda x: embed_pair(2, 1, 0, (), x, theta, eta)
    lhs = R12(l1 - l2) @ K1 @ R21(l1 + l2) @ K2
    rhs = K2 @ R12(l1 + l2) @ K1 @ R21(l1 - l2)
    return float(np.max(np.abs(lhs - rhs)))
