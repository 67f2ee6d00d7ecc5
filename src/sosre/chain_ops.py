"""Monodromy operators on the open chain and their algebra checks.

Operators live on aux (x) chain with the auxiliary space as the slowest
tensor factor; chain site i sits at tensor position i.  Products follow
print order: the leftmost factor is applied last.

No operator is multiplied out: an array is carried factor by factor
(`weights.run_steps`) with the weights of all factors read from one
`weights.weight_table`, and an explicit matrix is an application to an
identity.  A product of B operators (`apply_b_product`, used by
`partition.z_bruteforce`, `b_operator` and the commutation check; in the
precision of its input, guards in double) runs one cached program per
(N, number of B's, start sector): every R and K keeps
the number of down spins on aux (x) chain, so from the all-up state the
k-th B acts on the C(N+1, k) states with k down spins, and a Z costs
O(N 2^N) arithmetic, one weight table, one K pass and two takes per B.
The double-row monodromy bulk @ K @ hat acts in this order: the return
path, site 1 first (R(lam + xi_k) with legs (site, aux)), then K on the
auxiliary space, then the bulk, site N first (R(lam - xi_k) with legs
(aux, site)).  Every factor at site k is height-shifted by the spins of the
sites after k.  B(lam) sends a chain vector into the aux-down half and
keeps the aux-up half of the image.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import weights
from .params import NearSingular, require_nonsingular

sh = np.sinh


def _bulk_layout(n, aux, n_sites, extra=()):
    """The bulk monodromy R(aux, site 1) ... R(aux, site N) as factor
    layouts (pos_a, pos_b, shift) in application order, site N first.  The
    chain sites are the last N of n tensor positions; each factor is
    height-shifted by the spins of the later sites plus the `extra`
    positions.  Its spectral arguments are lam - xi_k."""
    sites = range(n - n_sites, n)
    return tuple((aux, sites[k], tuple(sites[k + 1:]) + extra) for k in reversed(range(n_sites)))


def _hat_layout(n, aux, n_sites):
    """The return-path monodromy: legs swapped, site 1 first, spectral
    arguments lam + xi_k, same shift rule."""
    sites = range(n - n_sites, n)
    return tuple((sites[k], aux, tuple(sites[k + 1:])) for k in range(n_sites))


def _apply_bulk(x, aux, lam, p, extra=()):
    """Apply the bulk monodromy to the leading axis of `x`."""
    n = x.shape[0].bit_length() - 1
    factors = [(*f, lam - xi) for f, xi in zip(_bulk_layout(n, aux, p.n, extra), p.xis[::-1])]
    return weights.apply_pairs(x, n, factors, p.theta, p.eta)


def _apply_hat(x, aux, lam, p):
    """Apply the return-path monodromy to the leading axis of `x`."""
    n = x.shape[0].bit_length() - 1
    factors = [(*f, lam + xi) for f, xi in zip(_hat_layout(n, aux, p.n), p.xis)]
    return weights.apply_pairs(x, n, factors, p.theta, p.eta)


def _apply_double_row(x, aux, lam, p):
    """Apply the double-row monodromy bulk @ K @ hat to the leading axis of
    `x`; K is guarded before the heights."""
    k = weights.k_diagonals([lam], p.theta, p.zeta)[0]
    x = _apply_hat(x, aux, lam, p)
    x = (x.reshape((1 << aux, 2, -1)) * k[:, None]).reshape(x.shape)
    return _apply_bulk(x, aux, lam, p)


def _b_weights(lams, p, dtype):
    """The weights of B's at `lams`, in application order and in `dtype`:
    the `weights.weight_table` of their double rows, return path then bulk
    for each, and their K diagonals, two per B, from one K pass.  A failing
    guard raises what applying the B's one by one raises first: K of the
    first B, then the heights (they do not depend on lambda), then the later
    K's."""
    col, xis = np.array(lams, dtype)[:, None], np.array(p.xis, dtype)
    spectral = np.concatenate((col + xis, col - xis[::-1]), axis=1).ravel()
    sizes = (*range(p.n - 1, -1, -1), *range(p.n)) * len(lams)  # shift sets: return path, bulk
    try:
        ks = weights.k_diagonals(col[:, 0], p.theta, p.zeta)
    except NearSingular:
        weights.k_matrix(col[0, 0], p.theta, p.zeta)
        weights.weight_table(sizes, spectral, p.theta, p.eta)
        raise
    return weights.weight_table(sizes, spectral, p.theta, p.eta), ks.ravel()


@functools.lru_cache(maxsize=128)
def _b_program(n_sites, n_b, k):
    """How `apply_b_product` carries chain sector k through n_b B's on N =
    n_sites sites: the chain states with k and with k + n_b down spins, in
    increasing order, and per B, the j-th acting on the states of aux (x)
    chain with k + j down spins: its aux-up state count (they come first),
    the index of its R weights in the table of `_b_weights` and of each
    state's K entry among the K diagonals, and its return-path and bulk
    steps (the `weights.gather_plan` of its double row).  Built once per
    argument set; the arrays are read-only."""
    n = n_sites + 1
    basis = np.arange(1 << n_sites)
    rows = [basis[np.bitwise_count(basis) == j] for j in (k, k + n_b)]
    double_row = _hat_layout(n, 0, n_sites) + _bulk_layout(n, 0, n_sites)
    cells = sum(len(shift) + 1 for *_, shift in double_row)  # its share of the table
    blocks = []
    for i, j in enumerate(range(k + 1, k + n_b + 1)):
        index, steps = weights.gather_plan(n, double_row, j, i * cells, n_b * cells)
        up = math.comb(n_sites, j)
        k_at = np.repeat((2 * i, 2 * i + 1), (up, math.comb(n, j) - up))
        blocks.append((up, index, k_at, steps[:n_sites], steps[n_sites:]))
    for v in (*rows, *(block[2] for block in blocks)):
        v.flags.writeable = False  # shared by every caller
    return rows, tuple(blocks)


def apply_b_product(v, lams, p):
    """B(lams[0]) ... B(lams[-1]) applied to the leading axis of `v` (length
    2^N), the rightmost first: each B sends its input into the aux-down half
    of aux (x) chain and keeps the aux-up half of its double-row image.

    B adds one down spin to the chain and every R and K keeps the number of
    down spins on aux (x) chain, so the rows of `v` with k down spins are
    carried on their own by `_b_program`: the j-th B acts on the C(N+1, k+j)
    states with k + j down spins, whose aux-up states (chain sector k + j)
    come first and aux-down states (chain sector k + j - 1) after.  Each B
    takes its R weights and its K's with one take each.  Output rows that
    no input row reaches are zero.  The weights, K's and arithmetic are in
    the precision of `v` (complex at least); the guards decide in double."""
    dtype = np.promote_types(v.dtype, complex)
    table, ks = _b_weights(lams[::-1], p, dtype)
    col = (1,) * (v.ndim - 1)  # a weight per state, on every column
    out = np.zeros(v.shape, dtype)
    for k in range(p.n + 1 - len(lams)):
        (rows_in, rows_out), blocks = _b_program(p.n, len(lams), k)
        x = v[rows_in]
        for up, index, k_at, hat, bulk in blocks:
            w, k_state = (a.take(i).reshape((-1,) + col) for a, i in ((table, index), (ks, k_at)))
            t = np.zeros((len(k_state),) + x.shape[1:], dtype)
            t[up:] = x
            t = weights.run_steps(t, w, hat) * k_state
            x = weights.run_steps(t, w, bulk)[:up]
        out[rows_out] = x
    return out


def double_row_full(lam, p):
    """Double-row monodromy: bulk, boundary K on the auxiliary space, return path."""
    return _apply_double_row(np.eye(2 << p.n), 0, lam, p)


def b_operator(lam, p):
    """The creation-like block of the double-row monodromy (lowers chain
    magnetization by 2), as an explicit 2^N matrix."""
    return apply_b_product(np.eye(1 << p.n), [lam], p)


def gamma_hat(lam, p):
    """Scalar in the inverse identity: hat(T)(lam) T(-lam) = gamma_hat * Id."""
    lam = complex(lam)
    val = (-1.0 + 0.0j) ** p.n
    for x in p.xis:
        val = val * sh(lam + x - p.eta) * sh(lam + x + p.eta)
    return complex(val)


def crossing_scalar(lam, theta, eta, zeta):
    """Proportionality factor relating the B operator at -lam-eta to the one
    at lam.  The overall sign is -1 for every chain length."""
    lam, theta, eta, zeta = complex(lam), complex(theta), complex(eta), complex(zeta)
    return -(
        sh(2 * (lam + eta)) * sh(lam + zeta) * sh(lam + zeta + theta)
    ) / (require_nonsingular("2*lambda", 2 * lam)
         * require_nonsingular("lambda-zeta+eta", lam - zeta + eta)
         * require_nonsingular("lambda-theta-zeta+eta", lam - theta - zeta + eta))


def check_exchange_algebra(l1, l2, p):
    """Exchange relation of two bulk monodromies on a two-auxiliary carrier:
    the max |entry| of lhs - rhs, as a float.

    On the left the second monodromy is height-shifted by the first auxiliary
    spin; on the right the roles swap, and the intertwining R carries the
    total chain spin on the left only.
    """
    l1, l2 = complex(l1), complex(l2)
    n = p.n + 2
    R12 = lambda x, shift: weights.apply_pairs(x, n, [(0, 1, shift, l1 - l2)], p.theta, p.eta)
    T1 = lambda x, extra: _apply_bulk(x, 0, l1, p, extra)
    T2 = lambda x, extra: _apply_bulk(x, 1, l2, p, extra)
    eye = np.eye(1 << n)
    lhs = R12(T1(T2(eye, (0,)), ()), tuple(range(2, n)))
    rhs = T2(T1(R12(eye, ()), (1,)), ())
    return float(np.max(np.abs(lhs - rhs)))


def check_double_row_reflection(l1, l2, p):
    """Reflection equation for two double-row monodromies on a two-auxiliary
    carrier; all four intertwining R factors carry the total chain spin.
    Returns the max |entry| of lhs - rhs, as a float."""
    l1, l2 = complex(l1), complex(l2)
    n = p.n + 2
    sites = tuple(range(2, n))
    R = lambda x, a, b, lam: weights.apply_pairs(x, n, [(a, b, sites, lam)], p.theta, p.eta)
    D1 = lambda x: _apply_double_row(x, 0, l1, p)
    D2 = lambda x: _apply_double_row(x, 1, l2, p)
    eye = np.eye(1 << n)
    lhs = R(D1(R(D2(eye), 1, 0, l1 + l2)), 0, 1, l1 - l2)
    rhs = D2(R(D1(R(eye, 1, 0, l1 - l2)), 0, 1, l1 + l2))
    return float(np.max(np.abs(lhs - rhs)))


def check_b_commutation(l1, l2, p):
    """B operators at different spectral parameters commute: the max |entry|
    of B(l1) B(l2) - B(l2) B(l1), as a float."""
    eye = np.eye(1 << p.n)
    return float(np.max(np.abs(apply_b_product(eye, (l1, l2), p)
                                - apply_b_product(eye, (l2, l1), p))))


def check_monodromy_inverse(lam, p):
    """hat(T)(lam) T(-lam) is gamma_hat(lam) times the identity: the max
    |entry| of the difference, as a float."""
    lam = complex(lam)
    prod = _apply_hat(_apply_bulk(np.eye(2 << p.n), 0, -lam, p), 0, lam, p)
    return float(np.max(np.abs(prod - gamma_hat(lam, p) * np.eye(2 << p.n))))


def check_b_crossing(lam, p):
    """B(-lam-eta) equals crossing_scalar(lam) times B(lam): the max |entry|
    of the difference, as a float."""
    lam = complex(lam)
    factor = crossing_scalar(lam, p.theta, p.eta, p.zeta)
    Bc = b_operator(-lam - p.eta, p)
    B = b_operator(lam, p)
    return float(np.max(np.abs(Bc - factor * B)))
