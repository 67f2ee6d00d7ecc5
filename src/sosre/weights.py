"""Face weights, the dynamical R-matrix, the boundary K-matrix, the kernel
that applies R factors to arrays with weights from an unpadded table, and
direct numerical checks of the identities.  All weights come from one
formula, `_cell_weights`, and every K from one, `k_diagonals`; both work
in the precision of their spectral parameters, guards in double.

Basis conventions, fixed once and used everywhere: spin up sorts before spin
down, tensor factors are ordered with the auxiliary space first, and in
multi-site spaces site 1 is the slowest-varying index.  A height (dynamical)
shift ``theta - eta*m`` is always resolved blockwise: ``m`` is the total spin
of the shift set read off each basis state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import guard_tol_default, require_nonsingular

sh = np.sinh


@dataclass(frozen=True)
class FaceWeightSet:
    """The six nonzero face weights at one (lambda, theta), or arrays of them
    over a table; `a` serves both all-up and all-down corners, so five."""

    a: complex
    b_plus: complex
    b_minus: complex
    c_plus: complex
    c_minus: complex


def _cell_weights(lam, theta, eta, cells, theta_64):
    """The one copy of the weight formulas: the five weights, in the field
    order of `FaceWeightSet`, at the cells (lam[i], theta[j]), (i, j) =
    `cells`, of 1-d `lam` and `theta`, one flat array each.  sinh(lam) and
    sinh(lam + eta) are taken once per lam, the four height sinh once per
    theta and only sinh(+-theta - lam) once per cell, all products and
    quotients in numpy's array loops, so a cell's bits depend on its point
    only.  The minus weights are the plus weights at reflected height by the
    same code path.  The weights are in the dtype of `lam` and `theta`; the
    "theta" guard decides on `theta_64`, the same heights formed in double,
    and raises at the first failing cell."""
    at_lam, at_theta = cells
    for j in at_theta[(np.abs(sh(theta_64)) <= guard_tol_default())[at_theta]]:
        require_nonsingular("theta", theta_64[j])
    sh_theta = sh(theta)
    lam_c, sh_lam, a = (v.take(at_lam) for v in (lam, sh(lam), sh(lam + eta)))
    plus, minus, sh_plus_eta, sh_minus_eta, sh_plus, sh_minus = (v.take(at_theta) for v in (
        theta, -theta, sh(theta - eta), sh(-theta - eta), sh_theta, sh(-theta)))
    sh_eta = sh(eta)
    return (a, sh_lam * sh_plus_eta / sh_plus, sh_lam * sh_minus_eta / sh_minus,
            sh_eta * sh(plus - lam_c) / sh_plus, sh_eta * sh(minus - lam_c) / sh_minus)


def face_weights(lam, theta, eta):
    """Statistical weights at spectral parameter `lam` and height `theta`,
    which broadcast; each weight has their common shape (a scalar for
    scalars), and `eta` is one number.  Every entry has the bits of the
    scalar call at its point; the guard names the first failing height in
    flat order."""
    lam, theta = (np.asarray(v, dtype=complex) for v in (lam, theta))
    at = np.broadcast_arrays(*(np.arange(v.size).reshape(v.shape) for v in (lam, theta)))
    w = _cell_weights(lam.ravel(), theta.ravel(), np.asarray(eta, dtype=complex),
                      [v.ravel() for v in at], theta.ravel())
    return FaceWeightSet(*(v.reshape(at[0].shape)[()] for v in w))


def r_matrix(lam, theta, eta):
    """4x4 R-matrix on aux (x) site in the basis (++, +-, -+, --).

    Rows are outgoing indices, columns incoming.  Only the six conserved-spin
    entries are populated; the other ten stay exactly zero (ice rule).
    """
    w = face_weights(lam, theta, eta)
    return np.array([[w.a, 0, 0, 0], [0, w.b_plus, w.c_plus, 0],
                     [0, w.c_minus, w.b_minus, 0], [0, 0, 0, w.a]], dtype=complex)


def k_matrix(lam, theta, zeta):
    """Diagonal 2x2 boundary matrix, a row of `k_diagonals`; K(0) is the identity."""
    return np.diag(k_diagonals([lam], theta, zeta)[0])


def k_diagonals(lams, theta, zeta):
    """The one copy of the K formula: the diagonals of `k_matrix` at each
    of `lams`, one row each, in the precision of `lams` (complex at least).
    The guard decides in double at every precision and raises at the first
    failing lam, its theta+zeta+lambda before its zeta+lambda."""
    lams = np.asarray(lams)
    dtype = np.promote_types(lams.dtype, complex)
    col, shifts = lams.astype(dtype)[:, None], np.array([theta, zeta], dtype)
    shifts[0] += shifts[1]  # theta + zeta, zeta
    arg = lams.astype(complex)[:, None] + [complex(theta) + complex(zeta), complex(zeta)]
    for k in np.flatnonzero(np.abs(sh(arg)) <= guard_tol_default())[:1]:  # in double
        require_nonsingular(("theta+zeta+lambda", "zeta+lambda")[k % 2], arg.flat[k])
    return sh(shifts - col) / sh(col + shifts)


# Bit layout: tensor position pos of n is bit n-1-pos of a basis index, so
# position 0 varies slowest.  Every chain operator is built on the pair
# kernel below.

SWAP_4 = np.zeros((4, 4))
SWAP_4[0, 0] = SWAP_4[1, 2] = SWAP_4[2, 1] = SWAP_4[3, 3] = 1.0


def _pair_gather(n, pos_a, pos_b, shift, sector=None):
    """How `run_steps` reads one factor; depends on the layout only.

    The factor acts on the basis states of n positions, or, given a
    `sector`, on those with `sector` down spins in increasing order (R
    conserves the number of down spins, so a sector maps into itself).
    Weight r of (a, b_plus, c_plus, c_minus, b_minus) at d down spins in the
    shift set sits at 5 d + r of a factor's flat weights.  `keep` is, per
    state, the index of the weight that keeps both leg spins (a, b_plus or
    b_minus); `states` are the states whose leg spins differ, `partner` each
    one with its legs swapped, and `flip` the index of the c_plus (legs
    (pos_a, pos_b) = (up, down)) or c_minus weight that feeds it from its
    partner.  States are positions in the sector's list.
    """
    if set(shift) & {pos_a, pos_b}:
        raise ValueError(f"shift {shift} overlaps the R legs ({pos_a}, {pos_b})")
    basis = np.arange(1 << n)
    if sector is not None:
        basis = basis[np.bitwise_count(basis) == sector]
    bit = lambda pos: 1 << (n - 1 - pos)
    down_a, down_b = ((basis >> (n - 1 - pos)) & 1 for pos in (pos_a, pos_b))
    d = 5 * np.bitwise_count(basis & sum(map(bit, shift)))
    by_legs = np.array([[0, 1], [4, 0]])  # a, b_plus, b_minus by (spin at pos_a, at pos_b)
    keep = d + by_legs[down_a, down_b]
    states = (down_a != down_b).nonzero()[0]
    partner = np.searchsorted(basis, basis[states] ^ (bit(pos_a) | bit(pos_b)))
    flip = d[states] + 2 + down_a[states]
    return keep, states, partner, flip


@lru_cache(maxsize=256)
def gather_plan(n, layouts, sector=None, at=0, width=None):
    """How `run_steps` reads factors with layouts (pos_a, pos_b, shift) on n
    positions, or on the states of a sector, from a `weight_table` whose
    cells from `at` on are theirs, `width` cells in all (by default, theirs
    alone); cached per argument set.  Returns (index, steps): the factors'
    `_pair_gather` keep indices, then their flip indices, each moved to its
    factor's cells, and per factor its `states`, `partner` and the slices
    of the taken weights that are its keep and flip weights.  The index
    arrays are read-only."""
    gathers = [_pair_gather(n, *f, sector) for f in layouts]
    sizes = [len(shift) + 1 for _, _, shift in layouts]
    starts, width = at + np.cumsum([0] + sizes[:-1]), width or sum(sizes)
    keep, states, partner, flip = ([g[i] for g in gathers] for i in range(4))
    # weight r at cell d of a factor: 5 d + r in its own weights, r * width + start + d in the table
    index = np.concatenate([v % 5 * width + v // 5 + start
                            for parts in (keep, flip) for v, start in zip(parts, starts)])
    lengths = [len(v) for v in keep + flip]
    cut = [slice(end - size, end) for size, end in zip(lengths, np.cumsum(lengths).tolist())]
    steps = tuple(zip(states, partner, cut[:len(keep)], cut[len(keep):]))
    for v in (index, *states, *partner):
        v.flags.writeable = False  # shared by every caller
    return index, steps


@lru_cache(maxsize=64)
def _table_cells(sizes):
    """Per cell of `weight_table` its factor, the distinct heights m of
    theta - eta*m, and per cell the index of its height among them, as
    read-only arrays."""
    sizes = np.array(sizes)
    factor = np.repeat(np.arange(len(sizes)), sizes + 1)
    d = np.arange(len(factor)) - np.repeat(np.cumsum(sizes + 1) - sizes - 1, sizes + 1)
    heights, at = np.unique(sizes[factor] - 2 * d, return_inverse=True)
    for v in (factor, heights, at):
        v.flags.writeable = False  # shared by every caller
    return factor, heights, at


def weight_table(sizes, lams, theta, eta):
    """The weights of R factors with shift sets of `sizes` sites and
    spectral parameters `lams`, as one flat array: a, b_plus, c_plus,
    c_minus and b_minus, each over all cells.  Factor f has the s + 1 cells
    d = 0..s, s = sizes[f], at height theta - eta*(s - 2d) for d down spins
    in its shift set, after the cells of the factors before it; the guard
    raises at the first failing height the factors would meet one by one,
    in double; the table is in the precision of `lams` (complex at least)."""
    factor, heights, at = _table_cells(tuple(sizes))
    dtype = np.promote_types(np.asarray(lams).dtype, complex)
    lams, theta_x, eta_x = (np.asarray(v, dtype) for v in (lams, theta, eta))
    w = _cell_weights(lams, theta_x - eta_x * heights, eta_x, (factor, at), theta - eta * heights)
    return np.concatenate((w[0], w[1], w[3], w[4], w[2]))


def run_steps(t, w, steps):
    """Apply the R factors of `steps`, part of a `gather_plan`, to the
    leading axis of `t`, the first of them first; `w` is what the plan's
    index takes from its table."""
    for states, partner, keep, flip in steps:
        out = w[keep] * t
        out[states] += w[flip] * t.take(partner, axis=0)
        t = out
    return t


def apply_pairs(x, n, factors, theta, eta):
    """Apply R factors to the leading axis of `x` (one entry per basis state
    of n positions; any trailing axes are carried along, so `x` may be a
    stack of columns), the first of them first.  Factor (pos_a, pos_b,
    shift, lam) is R(lam; theta - eta*m) on tensor positions (pos_a,
    pos_b), identity elsewhere; `m` is the total spin over the positions in
    `shift`, read off each basis state, so the factor is block diagonal in
    the shift-set magnetization."""
    table = weight_table([len(f[2]) for f in factors], [f[3] for f in factors], theta, eta)
    index, steps = gather_plan(n, tuple((a, b, tuple(shift)) for a, b, shift, _ in factors))
    # a vector stays 1-D: numpy indexes it several times faster than a column
    t = x.reshape(x.shape[0], -1) if x.ndim > 1 else x
    w = table.take(index).reshape((-1,) + (1,) * (t.ndim - 1))  # per state, on every column
    return run_steps(t, w, steps).reshape(x.shape)


def embed_pair(n, pos_a, pos_b, shift, lam, theta, eta):
    """The one factor (pos_a, pos_b, shift, lam) of `apply_pairs` as an
    explicit 2^n matrix."""
    return apply_pairs(np.eye(1 << n), n, [(pos_a, pos_b, shift, lam)], theta, eta)


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
