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


def face_weights(lam, theta, eta):
    """Statistical weights at spectral parameter `lam` and height `theta`.

    The arguments broadcast; each weight has their common shape (a scalar
    for scalars).  Each sinh is taken on its own operand's shape: sinh(lam)
    and sinh(lam + eta) once per lam, the four height sinh (theta, -theta,
    +-theta - eta) once per theta, and only sinh(+-theta - lam) once per
    table cell.  The products and quotients come from numpy's array loops on
    flat operands, so a table entry has the bits of the scalar call at its
    point (numpy's scalar complex multiply can differ in the last bit).  The
    "theta" guard raises at the first failing height in flat order.

    The minus weights are the plus weights at reflected height, literally the
    same code path, so b_minus(lam, theta) == b_plus(lam, -theta) bit-exactly.
    """
    lam, theta, eta = (np.asarray(v, dtype=complex) for v in (lam, theta, eta))
    shape = np.broadcast(lam, theta, eta).shape
    flat = lambda v: np.full(shape, v).ravel()
    sh_theta = sh(theta)
    for t in np.ravel(theta)[np.ravel(np.abs(sh_theta) <= guard_tol_default())]:
        require_nonsingular("theta", t)
    sh_lam, sh_eta, sh_plus, sh_minus = (flat(v) for v in (sh(lam), sh(eta), sh_theta, sh(-theta)))
    b = lambda t, sh_t: sh_lam * flat(sh(t - eta)) / sh_t
    c = lambda t, sh_t: sh_eta * flat(sh(t - lam)) / sh_t
    w = (flat(sh(lam + eta)), b(theta, sh_plus), b(-theta, sh_minus),
         c(theta, sh_plus), c(-theta, sh_minus))
    return FaceWeightSet(*(v.reshape(shape)[()] for v in w))


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
    return np.diag(
        [
            sh(theta + zeta - lam) / require_nonsingular("theta+zeta+lambda", theta + zeta + lam),
            sh(zeta - lam) / require_nonsingular("zeta+lambda", zeta + lam),
        ]
    )


# Bit layout: tensor position pos of n is bit n-1-pos of a basis index, so
# position 0 varies slowest.  Every chain operator is built on the pair
# kernel below.

SWAP_4 = np.zeros((4, 4))
SWAP_4[0, 0] = SWAP_4[1, 2] = SWAP_4[2, 1] = SWAP_4[3, 3] = 1.0


def _pair_gather(n, pos_a, pos_b, shift, sector=None):
    """How `apply_table` reads one factor; depends on the layout only.

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
def gather_plan(n, layouts, width, sector=None):
    """How `apply_table` reads factors with layouts (pos_a, pos_b, shift) on
    n positions, or on the states of a sector, from a weight table `width`
    entries wide; cached per argument set.  Returns (keep, flip, steps):
    the factors' `_pair_gather` keep and flip indices moved to each
    factor's row of the flattened table and joined, and per factor its
    `states`, `partner` and the slice of `flip` that is its own.  The index
    arrays are read-only."""
    gathers = [_pair_gather(n, *f, sector) for f in layouts]
    ends = np.cumsum([len(states) for _, states, _, _ in gathers]).tolist()
    keep = np.concatenate([keep + f * width for f, (keep, *_) in enumerate(gathers)])
    flip = np.concatenate([flip + f * width for f, (*_, flip) in enumerate(gathers)])
    steps = tuple((states, partner, lo, hi) for (_, states, partner, _), lo, hi
                  in zip(gathers, [0] + ends, ends))
    for v in (keep, flip, *(a for step in steps for a in step[:2])):
        v.flags.writeable = False  # shared by every caller
    return keep, flip, steps


@lru_cache(maxsize=64)
def _table_layout(sizes):
    """How `weight_table` lays out factors whose shift sets have `sizes`
    sites: grouped by size, the groups in the order the factors first meet
    them.  Returns `rows`, the factor at each (group, slot), short groups
    padded with their first factor; `heights`, the m of theta - eta*m at
    each (group, d), d = 0..max(sizes) down spins in the shift set, past s
    repeating d = s; and the (group, slot) arrays of the factors.  The
    arrays are read-only."""
    kinds = list(dict.fromkeys(sizes))
    groups = [[f for f, s in enumerate(sizes) if s == k] for k in kinds]
    rows = np.array([g + g[:1] * (max(map(len, groups)) - len(g)) for g in groups])
    where = {f: (i, j) for i, g in enumerate(groups) for j, f in enumerate(g)}
    s = np.array(kinds)[:, None]
    heights = s - 2 * np.minimum(np.arange(s.max() + 1), s)
    group, slot = np.array([where[f] for f in range(len(sizes))]).T
    for v in (rows, heights, group, slot):
        v.flags.writeable = False  # shared by every caller
    return rows, heights, (group, slot)


def weight_table(sizes, lams, theta, eta):
    """The weights of R factors with shift sets of `sizes` sites and
    spectral parameters `lams`, one row per factor; row f, column d holds
    factor f at height theta - eta*(s - 2d), s = sizes[f], d down spins in
    its shift set (columns past s repeat d = s, unread).

    They come from one `face_weights` call on a table of the factors
    grouped by shift-set size times their heights, so sinh(lam) is taken
    once per factor, the height sinh once per (size, d) and only
    sinh(+-theta - lam) per cell.  The groups come in the order the factors
    first meet them, and a group's factors all read the same heights, so the
    guard raises at the first failing height the factors would meet one by
    one."""
    rows, heights, at = _table_layout(tuple(sizes))
    fw = face_weights(np.asarray(lams, dtype=complex)[rows, None],
                      (theta - eta * heights)[:, None], eta)
    table = np.stack((fw.a, fw.b_plus, fw.c_plus, fw.c_minus, fw.b_minus), axis=-1)
    return table[at].reshape(len(sizes), -1)


def apply_table(x, plan, table):
    """Apply R factors to the leading axis of `x` (one entry per state of
    the plan's space; any trailing axes are carried along, so `x` may be a
    stack of columns), the first of them first: `plan` is their
    `gather_plan` and `table` their weights (`weight_table`), one row per
    factor.  Factor (pos_a, pos_b, shift, lam) is R(lam; theta - eta*m) on
    tensor positions (pos_a, pos_b), identity elsewhere; `m` is the total
    spin over the positions in `shift`, read off each basis state, so the
    factor is block diagonal in the shift-set magnetization."""
    # a vector stays 1-D: numpy indexes it several times faster than a column
    t = x.reshape(x.shape[0], -1) if x.ndim > 1 else x
    col = (1,) * (t.ndim - 1)  # a weight per state, on every column
    keep, flip, steps = plan
    keep = table.take(keep).reshape((len(steps), -1) + col)
    flip = table.take(flip).reshape((-1,) + col)
    for w, (states, partner, lo, hi) in zip(keep, steps):
        out = w * t
        out[states] += flip[lo:hi] * t.take(partner, axis=0)
        t = out
    return t.reshape(x.shape)


def apply_pairs(x, n, factors, theta, eta):
    """`apply_table` on the full space of n positions with the factors' own
    weight table."""
    table = weight_table([len(f[2]) for f in factors], [f[3] for f in factors], theta, eta)
    layouts = tuple((a, b, tuple(shift)) for a, b, shift, _ in factors)
    return apply_table(x, gather_plan(n, layouts, table.shape[1]), table)


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
