"""The partition function three ways: operator contraction, an N=1 closed
form, and a single N x N determinant; plus the right-hand sides of the
recursion identities and the polynomial normalization.

The determinant path works in log space throughout (the determinant itself
via the log of each pivot, the prefactor as a sum of log|D| and arg D over
its grid and pair factors D), so `log_value` can be finite where the value
over- or underflows a double.  It is finite only while those factors and
the kernel's entries are: the grid factor D1 D2 grows like exp(4 Re lambda),
so at large real parts it overflows, a kernel row underflows to zero and
the real part of `log_value` is NaN (the README example with lambda_0
varied: finite up to Re lambda_0 = 177.5, NaN from 177.75), without a numpy
warning; IllConditionedWarning reports the NaN pivot.  Since exp is
2*pi*i periodic, the branch of each argument does not affect the
exponentiated result.  The grid and pair factors pair up as differences of
sinh^2 of the O(N) inputs, so the route costs O(N) transcendentals, O(N^2)
arithmetic and the O(N^3) LU.
"""

from __future__ import annotations

import operator
import os
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import chain_ops
from .params import (
    FACTORS,
    CapExceeded,
    IllConditionedWarning,
    InvariantViolation,
    fails_at_lambda,
    guard_tol_default,
    prefilter_threshold,
    require_all_nonsingular,
    require_nonsingular,
    site_pairs,
)

sh = np.sinh

# Largest N `z_bruteforce` contracts: the range its agreement with the
# determinant is tested over.  Its worst error over 300 default draws per N
# was 1.6e-7 at N = 8 and 2.5e-3 at N = 11
BRUTE_CAP = 8
ILL_CONDITIONED_PIVOT = 1e-10
# `z_sweep` keeps a point's matrix-determinant-lemma value while its error
# estimate is at most this; above it the point is computed by z_determinant
SWEEP_ACCEPT_ERR = 1e-11
# Grid points `z_sweep` evaluates per numpy call: its memory is
# O(SWEEP_BLOCK * N + N^2) however many points there are
SWEEP_BLOCK = 128
# Largest N whose log det gets a refinement step (`logdet_partial_pivot`):
# three matrix products, a solve and a second LU, ~0.4 ms at N = 50 on top
# of LAPACK's ~0.1 ms LU; its flops are ~13 LUs', which at N = 800 is ~0.4 s
REFINE_MAX_N = 64
_LOG_2 = float(np.log(2.0))
_UNIT_ROUNDOFF = 2.0 ** -53

SUM_FORM = "sum"
PRODUCT_FORM = "product"

METHOD_BRUTE = "brute-force"
METHOD_DETERMINANT = "determinant"


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


def z_bruteforce(p):
    """Z as the all-down/all-up matrix element of the product of B operators.

    The product runs over the spectral parameters in order, rightmost factor
    applied first, on a complex128 vector (`chain_ops.apply_b_product`: the
    k-th B acts only on the C(N+1, k) states with k down spins, so Z costs
    O(N 2^N) arithmetic).  Refuses N above `BRUTE_CAP`, past which its
    digits are untested.
    """
    if p.n > BRUTE_CAP:
        raise CapExceeded(f"brute-force contraction needs N <= {BRUTE_CAP}, got N = {p.n}")
    t0 = time.perf_counter()
    v = np.zeros(1 << p.n, dtype=complex)
    v[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # past a double's range: inf, NaN
        v = chain_ops.apply_b_product(v, p.lambdas, p)
    value = complex(v[-1])
    return PartitionResult(value, METHOD_BRUTE, time.perf_counter() - t0, p.n)


def z_n1_closed(lam, xi, theta, eta, zeta):
    """Closed form for a single-site chain: a sum of two boundary terms."""
    lam, xi, theta, eta, zeta = (complex(v) for v in (lam, xi, theta, eta, zeta))
    return complex(
        sh(eta) * sh(theta - eta) / require_nonsingular("theta", theta) ** 2
        * (
            sh(theta + zeta - lam) / require_nonsingular("theta+zeta+lambda", theta + zeta + lam)
            * sh(lam - xi) * sh(theta + lam + xi)
            + sh(zeta - lam) / require_nonsingular("zeta+lambda", zeta + lam)
            * sh(lam + xi) * sh(theta - lam + xi)
        )
    )


def _m_matrix_entries(p, grid, boundary, lam=None):
    """Product-form kernel r_i c_j / (D1 D2)_ij from what `_det_guards`
    returns (no guards; callers guard first), in Fortran order, as LAPACK
    factors it: `grid` is D1 D2, and
    r = sinh(2 lambda) sinh(eta) / (sinh(theta+zeta+lambda) sinh(zeta+lambda))
    takes its denominator from `boundary`; c = sinh(theta+zeta+xi) sinh(zeta-xi)
    and sinh(eta) are `ModelParams.kernel_columns`.  The rows are at p's
    lambdas, or at `lam` where given, formed by `_by_halves`."""
    lam = p.lambdas_array() if lam is None else lam
    s_eta, col = p.kernel_columns
    row = sh(2 * lam) * s_eta / boundary
    out = np.empty(grid.shape, complex, order="F")

    def rows(s):
        m = np.outer(row[s], col)
        m /= grid[s]
        out[s] = m

    _by_halves(p.n, rows, len(grid))
    return out


def m_matrix(p, form=PRODUCT_FORM):
    """Full kernel matrix with guards applied: `_det_guards`' families, then
    the grid families at the entries it moves, which are the kernel's poles.
    The sum form, kept as a cross-check of the product form, evaluates its
    own sinh grids and guards sinh(theta) after the kernel's guards."""
    if form not in (SUM_FORM, PRODUCT_FORM):
        raise ValueError(f"form must be {SUM_FORM!r} or {PRODUCT_FORM!r}")
    grid, _, boundary, moved = _det_guards(p)
    for key in FACTORS[1] + FACTORS[0] if moved.size else ():
        _guard(p, key, *np.divmod(moved, p.n))
    if form == PRODUCT_FORM:
        return _m_matrix_entries(p, grid, boundary)
    theta, eta, zeta = p.theta, p.eta, p.zeta
    s_theta = require_nonsingular("theta", theta)
    L = p.lambdas_array()[:, None]
    X = p.xis_array()[None, :]
    s_mx, s_px, s_mxe, s_pxe = sh(L - X), sh(L + X), sh(L - X + eta), sh(L + X + eta)
    mp = (1 / s_mxe) * (1 / s_px - sh(theta - eta) / (s_theta * s_pxe))
    mm = (1 / s_pxe) * (1 / s_mx - sh(theta + eta) / (s_theta * s_mxe))
    return (
        sh(theta + zeta - L) / sh(theta + zeta + L) * mp
        + sh(zeta - L) / sh(zeta + L) * mm
    )


def _split(x, axis, bits):
    """x = hi + lo, the real and imaginary parts of hi rounded to multiples of
    2^(e - bits), 2^e above the largest modulus along `axis` (sigma + x - sigma,
    Rump's extraction, on a float view of x's parts).  A product of such row
    and column parts over an inner dimension n with 2n * 4^bits <= 2^53
    rounds nothing."""
    _, e = np.frexp(np.maximum.reduce(np.abs(x), axis, keepdims=True)[..., None])
    sigma = np.ldexp(0.75 * 2.0 ** (53 - bits), e)
    hi = ((x[..., None].view(float) + sigma) - sigma).view(complex)[..., 0]
    return hi, x - hi


def _split_bits(n):
    """Bits of `_split`'s leading parts for products over an inner
    dimension n: 2n * 4^bits <= 2^53."""
    return (52 - n.bit_length()) // 2


@lru_cache(maxsize=8)
def _refine_constants(n):
    """(strictly lower mask, complex identity, identity pivots) for n x n,
    read-only, built once per n."""
    out = np.tri(n, k=-1, dtype=bool), np.eye(n, dtype=complex), np.arange(n, dtype=np.int32)
    for v in out:
        v.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _lapack():
    """scipy's zgetrf and zgetrs, imported on the first call, so importing
    sosre does not load scipy."""
    from scipy.linalg.lapack import zgetrf, zgetrs

    return zgetrf, zgetrs


def _lu_log_error(a, lu, order):
    """log det(a) - log det(L U) for a's LU factors, as log det(I + E) with
    E = (L U)^-1 R and R = a[order] - L U.  L U is formed without rounding
    its leading part: L by rows and U by columns are split so that the
    product of their leading parts is exact and the other three products are
    small (Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 2012), so R is
    accurate where a product rounded in double would be all rounding.  I + E
    is close to I, and its determinant in double is good to about N ulps.
    R is passed in a's pivoted row order, so the solve takes identity
    pivots."""
    n = len(a)
    bits = _split_bits(n)
    lower, eye, no_swaps = _refine_constants(n)
    u = np.where(lower, 0, lu)
    l_hi, l_lo = _split(np.where(lower, lu, eye), 1, bits)
    u_hi, u_lo = _split(u, 0, bits)
    r = (a[order] - l_hi @ u_hi) - (l_hi @ u_lo + l_lo @ u)
    _, zgetrs = _lapack()
    e, _ = zgetrs(lu, no_swaps, r)
    sign, logabs = np.linalg.slogdet(eye + e)
    return complex(logabs, np.arctan2(sign.imag, sign.real))


class LUFactors(NamedTuple):
    """The LU that `logdet_partial_pivot` computed: the scaled matrix `a`
    = 2^-e_row[:, None] * mat * 2^-e_col, and zgetrf's `lu` and `piv` of
    it, for solves against a (zgetrs)."""

    a: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    e_row: np.ndarray
    e_col: np.ndarray


def logdet_partial_pivot(mat, *, factors=False):
    """(log det, smallest pivot modulus) by LAPACK's LU with partial pivoting
    (zgetrf), after scaling rows and then columns by powers of two so that
    each one's largest modulus lies in [1/2, 1), as zgeequ/zgesvx do.  The
    scaling rounds nothing (short of entries 2^1021 below their row's
    largest) and its log is exact.  Each scaled pivot times its row's and
    column's power of two is the pivot of unscaled elimination in the same
    row order, exactly, so the smallest pivot is in the matrix's own units.
    Log accumulation keeps huge/tiny determinants representable; a row swap
    contributes i*pi to the log.  An exactly zero pivot gives (-inf, 0.0).

    Up to N = REFINE_MAX_N the LU's own rounding is then taken out of the log
    by one refinement step with a residual formed without rounding (see
    `_lu_log_error`), so what is left is the error of the entries; beyond,
    that step would cost several times the LU.

    With `factors` the LU is returned too, as a third item `LUFactors`
    (None when a pivot is exactly zero), and the refinement step is taken
    at every N: a caller that keeps the factors solves against them many
    times, so the step's cost is shared."""
    mat = np.asarray(mat, dtype=complex)
    n = len(mat)
    _, e_row = np.frexp(np.maximum.reduce(np.abs(mat), 1))
    a = np.multiply(mat, np.ldexp(1.0, -e_row)[:, None], order="F")
    _, e_col = np.frexp(np.maximum.reduce(np.abs(a), 0))
    a *= np.ldexp(1.0, -e_col)
    refine = factors or n <= REFINE_MAX_N
    zgetrf, _ = _lapack()
    lu, piv, info = zgetrf(a, overwrite_a=not refine)
    if info > 0:  # pivot number `info` is exactly zero
        return (complex(-np.inf), 0.0) + ((None,) if factors else ())
    order = list(range(n))
    swaps = 0
    for k, r in enumerate(piv.tolist()):
        if r != k:
            order[k], order[r] = order[r], order[k]
            swaps += 1
    order = np.array(order)
    d = lu.diagonal()
    d_abs = np.abs(d)
    # log|pivot| as the log of a mantissa in [1, 2) plus a power of two, so
    # that the powers of two of the scaling and of the pivots add exactly
    mant, e_piv = np.frexp(d_abs)
    e = sum(int(np.add.reduce(v)) for v in (e_row, e_col, e_piv)) - n
    logdet = complex(np.add.reduce(np.log(2 * mant)) + e * _LOG_2,
                     np.add.reduce(np.arctan2(d.imag, d.real)) + np.pi * (swaps % 2))
    if refine:
        logdet += _lu_log_error(a, lu, order)
    min_piv = np.ldexp(d_abs, e_row[order] + e_col).min()
    if factors:
        return complex(logdet), float(min_piv), LUFactors(a, lu, piv, e_row, e_col)
    return complex(logdet), float(min_piv)


def _height_prefactor_log(n, theta, eta):
    """Log of the scalar height factor in the determinant formula:
    (-1)^floor(n/2) times the product over m = n-1, n-3, ... (>= 0) of
    sinh(theta - (m+1) eta) / sinh(theta + m eta), guarded in one call."""
    ms = np.arange(n - 1, -1, -2)
    den = require_all_nonsingular(lambda k: f"theta{ms[k]:+d}*eta", theta + ms * eta)
    log = 1j * np.pi * ((n // 2) % 2)
    with np.errstate(divide="ignore"):  # a numerator at 0: its log is -inf, and Z is 0
        logs = zip(np.log(sh(theta - (ms + 1) * eta)).tolist(), np.log(den).tolist())
    for num_log, den_log in logs:
        log += num_log - den_log
    return log


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_POOL = [None, None]  # (pid, executor) of `_worker`


def _worker():
    """The one-thread executor of `_in_two`, created on first use and again
    in a forked child, which has no copy of its parent's thread."""
    if _POOL[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _POOL[:] = os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="sosre")
    return _POOL[1]


def _run_under(err, task):
    """task() under np.errstate(**err): numpy's error state is per thread."""
    with np.errstate(**err):
        return task()


def _two_threads(n):
    """Whether an N-site instance's O(N^2) work is shared with a worker
    thread: above REFINE_MAX_N sites, when the process may run on more than
    one CPU.  Below it the hand-offs cost more than the halved work saves:
    on a 2-vCPU host, N = 50 took 1.2 ms on two threads against 0.9 ms on
    one, N = 800 55 against 77 ms."""
    return n > REFINE_MAX_N and _cpus() > 1


def _in_two(n, first, second):
    """(first(), second()): with `_two_threads(n)`, `first` runs on the
    worker thread under the caller's np.errstate while `second` runs here
    (numpy's ufuncs and LAPACK release the GIL, so the two overlap); else
    both run here, first then second.  Either way both have finished when
    it returns or raises."""
    if not _two_threads(n):
        return first(), second()
    future = _worker().submit(_run_under, np.geterr(), first)
    try:
        out = second()
    except BaseException:
        future.exception()  # waits for `first`
        raise
    return future.result(), out


def _by_halves(n, task, *lengths):
    """[task(*spans)] over slices covering range(m) for each m in `lengths`:
    with `_two_threads(n)` two calls, the first halves on the worker and
    the second halves here (`_in_two`), else one call over them whole."""
    if not _two_threads(n):
        return [task(*(slice(0, m) for m in lengths))]
    return list(_in_two(n, lambda: task(*(slice(0, m // 2) for m in lengths)),
                        lambda: task(*(slice(m // 2, m) for m in lengths))))


def _under(d, lim, offset=0):
    """Flat indices of d's entries whose modulus is not above `lim` (a NaN
    among them), plus `offset`."""
    mag = np.abs(d)
    if np.minimum.reduce(mag, None, initial=np.inf) > lim:  # NaN propagates
        return _NO_SITES
    return (~(mag > lim)).ravel().nonzero()[0] + offset


_NO_SITES = np.zeros(0, np.intp)


def _guard(p, key, *sites):
    """`require_all_nonsingular` on p's guard row `key`, in full or at `sites`."""
    f = next(f for f in p.guard_table if f.key == key)
    return require_all_nonsingular(lambda k: f.name(k, *sites), f.args(*sites))


def _det_guards(p):
    """Guard the boundary denominators of the product-form kernel and the
    pair factors (`_height_prefactor_log` guards the height factor's), in
    this order: theta+zeta+lambda, zeta+lambda, then over i < j the pairs
    xi_j -+ xi_i, lambda_j - lambda_i and lambda_j + lambda_i + eta, each a
    row of the instance's `guard_table`, the pair rows at sites (j, i).
    The four N x N grids at lambda_i -+ xi_j (+eta), where Z has no pole,
    raise nothing: the flat indices i N + j where a factor's |sinh| is at
    or under the tolerance are returned, ascending, as moved (see
    `z_determinant`).

    The grid and pair factors pair up as differences of the O(N) squares
    of `ModelParams.squares`:
    D1 = sinh^2 lambda_i - sinh^2 xi_j = sinh(lambda_i-xi_j) sinh(lambda_i+xi_j),
    D2 the same at lambda+eta, P1 = sinh^2 xi_j - sinh^2 xi_i and
    P2 = sinh^2(lambda_j+eta/2) - sinh^2(lambda_i+eta/2).  Every failing
    entry of a grid or pair row has its |D| or |P| at or under
    `params.prefilter_threshold` at that difference's own cosh bound, so
    the two rows each difference factors (`params.FACTORS`) are evaluated
    only at its entries under it, and not at all while none is: NearSingular
    and the moved entries are what evaluating every row in full would give.
    Returns D1 D2, P1 P2, sinh(theta+zeta+lambda) sinh(zeta+lambda), which
    do not depend on which entries were evaluated, and the moved entries.

    The differences, their screens and products are formed by
    `_by_halves`: grid rows [0, N/2) and the first half of the pairs on the
    worker thread, the rest here, when it shares the work.  The guards
    decide here, in the order above, on the screened entries of the halves
    joined in row-major order, before anything else runs."""
    n = p.n
    iu, ju = site_pairs(n)
    (w_eta, w, q, y), c, mod, _ = p.squares
    tol = guard_tol_default()
    lim = [prefilter_threshold(cg, tol, mod) for cg in c]
    grid, pairs = np.empty((n, n), complex), np.empty(len(iu), complex)

    def part(rows, ks):
        # D1 and D2 at grid rows `rows`, then P1 and P2 at pairs `ks`, each
        # screened; D1 D2 and P1 P2 into the joined arrays
        d1, d2 = w[rows, None] - y, w_eta[rows, None] - y
        near = [_under(d1, lim[1], rows.start * n), _under(d2, lim[0], rows.start * n)]
        np.multiply(d1, d2, out=grid[rows])
        del d1, d2
        a, b = iu[ks], ju[ks]
        p1, p2 = y.take(b) - y.take(a), q.take(b) - q.take(a)
        np.multiply(p1, p2, out=pairs[ks])
        return near + [_under(p1, lim[4], ks.start), _under(p2, lim[2], ks.start)]

    sites = _by_halves(n, part, n, len(iu))
    d1_at, d2_at, p1_at, p2_at = sites[0] if len(sites) == 1 else map(np.concatenate, zip(*sites))
    fams = {f.key: f for f in p.guard_table}
    moved = [ks[np.abs(sh(fams[key].args(*np.divmod(ks, n)))) <= tol]
             for g, ks in ((1, d1_at), (0, d2_at)) if ks.size for key in FACTORS[g]]
    moved = np.unique(np.concatenate(moved)) if moved else _NO_SITES
    boundary = _guard(p, "theta+zeta+lambda") * _guard(p, "zeta+lambda")
    for g, ks in ((4, p1_at), (2, p2_at)):
        for key in FACTORS[g] if ks.size else ():
            _guard(p, key, ju[ks], iu[ks])
    return grid, pairs, boundary, moved


def _log_sum(v, axis=None):
    """Sum of log v over `axis` (all of v by default), as log|.| and arg:
    np.log on complex arrays is ~15x slower than these two real passes;
    np.add.reduce and np.arctan2 are what np.sum and np.angle run, without
    their Python wrappers."""
    re, im = (np.add.reduce(t, axis) for t in (np.log(np.abs(v)), np.arctan2(v.imag, v.real)))
    if axis is None:
        return complex(re, im)
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _log_abs_sum(v):
    """Sum of |log| over v's entries, real and imaginary parts."""
    return float(np.add.reduce(np.abs(np.log(np.abs(v))), None)
                 + np.add.reduce(np.abs(np.arctan2(v.imag, v.real)), None))


def z_determinant(p):
    """Z as a scalar prefactor times an N x N determinant; O(N^3).

    `_det_guards` returns the grid and pair factors as differences of sinh^2
    (O(N) sinh calls); they feed both the product-form kernel (the sum form
    loses digits) and the log prefactor.  A vanishing grid factor G_ij is a
    pole of the kernel and a zero of the prefactor, not of Z: at each entry
    `_det_guards` moves, G_ij is 1 in the grid both read and multiplies row
    i's other kernel entries, an exact row scaling of the same determinant,
    so Z is computed at the recursions' coincidences; where none moves, the
    bits are the plain formula's.  `cond_hint` is the smallest pivot
    modulus of LAPACK's LU, in the kernel's own units (see
    `logdet_partial_pivot`).  Warns IllConditionedWarning when it drops
    below 1e-10, which at large N is expected: the kernel is Cauchy-like and
    its pivots decay geometrically, so trust `log_value` over `value` there.
    Below about 1e-12 the value has no reliable digits (LU orderings disagree
    widely).

    Above REFINE_MAX_N sites, when the process may run on more than one CPU,
    the O(N^2) work is shared with one worker thread (`_in_two`): the
    guards' differences and products and the kernel in two halves of rows
    (`_by_halves`), and the log sums of the grid and pair factors beside
    the LU, which runs here after every guard has decided.  Each entry and
    each sum is formed by the same operations in the same memory order on
    either schedule, so the result is bit-identical; there is no setting.
    From N = 100 the bits also depend on how many threads OpenBLAS gives
    zgetrf (one and two round differently), so a result is reproducible
    across hosts only with OPENBLAS_NUM_THREADS fixed.
    """
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # past a double's range: inf, NaN
        n = p.n
        grid, pairs, boundary, moved = _det_guards(p)
        log_height = _height_prefactor_log(n, p.theta, p.eta)  # guards: before the LU
        factors = grid.take(moved)
        grid.put(moved, 1.0)
        kernel = _m_matrix_entries(p, grid, boundary)
        for k, g in zip(moved.tolist(), factors.tolist()):
            kernel[k // n, np.arange(n) != k % n] *= g
        log_factors, (logdet, min_piv) = _in_two(
            n, lambda: _log_sum(grid) - _log_sum(pairs), lambda: logdet_partial_pivot(kernel))
        if not min_piv >= ILL_CONDITIONED_PIVOT:  # a NaN pivot warns too
            warnings.warn(
                f"smallest elimination pivot {min_piv:.2e}; determinant digits "
                "are in doubt (see cond_hint / log_value)",
                IllConditionedWarning,
                stacklevel=2,
            )

        log_value = logdet + log_factors + log_height
        value = complex(np.exp(log_value))
    return PartitionResult(
        value,
        METHOD_DETERMINANT,
        time.perf_counter() - t0,
        n,
        cond_hint=min_piv,
        log_value=complex(log_value),
    )


class SweepResult(NamedTuple):
    """Z at the points of a sweep (`z_sweep`), one entry each: `values`
    (NaN where skipped), `skipped` (the point fails `validate_params`),
    `fallback` (computed by z_determinant) and `err`, a batch point's
    estimated relative distance from z_determinant's value (NaN on the
    other points)."""

    values: np.ndarray
    skipped: np.ndarray
    fallback: np.ndarray
    err: np.ndarray


def _unit_solve(lu, i):
    """(x, eps): x = a^-1 e_i as a column, against `LUFactors` of a, with two
    refinement steps whose residuals leave the leading part of a x unrounded
    (`_split`, as in `_lu_log_error`), so x converges to about an ulp; eps is
    the relative size of the last correction."""
    _, zgetrs = _lapack()
    n = len(lu.a)
    bits = _split_bits(n)
    a_hi, a_lo = _split(lu.a, 1, bits)
    e = np.zeros((n, 1), complex)
    e[i] = 1.0
    x, _ = zgetrs(lu.lu, lu.piv, e)
    for _ in range(2):
        x_hi, x_lo = _split(x, 0, bits)
        dx, _ = zgetrs(lu.lu, lu.piv, (e - a_hi @ x_hi) - (a_hi @ x_lo + a_lo @ x))
        x += dx
    return x, float(np.abs(dx).max() / np.abs(x).max())


def _lemma_rows(p, i):
    """log Z at p with lambda_i moved, by the matrix determinant lemma: a
    function rows(v, d, boundary) of lambda_i values v and what
    `params.fails_at_lambda` returns for them, giving (log Z, lemma error,
    sum error) per value, or None when the base has a moved grid entry
    (`_det_guards`) or its LU's smallest pivot is under
    ILL_CONDITIONED_PIVOT or NaN.  Call it under np.errstate.

    With a the scaled kernel of `logdet_partial_pivot` and x = a^-1 e_i
    (`_unit_solve`), det a' = det a (row' . x) where row' is the new row i
    of a: the new kernel row times the base's column scaling and a power of
    two of its own.  The dot product forms the products of `_split`'s
    leading parts unrounded.  The lemma error is rho (eps_x + 2u): rho =
    sum|row' o x| / |row' . x| is the dot product's cancellation, eps_x
    the relative size of x's last correction and 2u the rounding of x and
    of the dot product (its remainder products round 2^-bits less and are
    left out).  The new rows of D1 D2 (d[1] d[0]), of the pair factors
    (d[2] at each pair's other site) and of the kernel are z_determinant's
    bit for bit; the sum error is 2u times the moduli of the terms log Z
    sums, for the rounding of those sums in this route and in
    z_determinant's."""
    n = p.n
    grid, pairs, boundary, moved = _det_guards(p)
    log_height = _height_prefactor_log(n, p.theta, p.eta)
    if moved.size:
        return None
    logdet, min_piv, lu = logdet_partial_pivot(_m_matrix_entries(p, grid, boundary),
                                               factors=True)
    if not min_piv >= ILL_CONDITIONED_PIVOT:
        return None
    x, eps_x = _unit_solve(lu, i)
    bits = _split_bits(n)
    x_hi, x_lo = _split(x, 0, bits)
    abs_x = np.abs(x)
    col_scale = np.ldexp(1.0, -lu.e_col)
    a, b = site_pairs(n)
    holds = (a == i) | (b == i)
    a, b = a[holds], b[holds]
    y = p.squares[0][3]
    p1 = y[b] - y[a]
    # log Z less its terms that hold lambda_i: the prefactor's other grid
    # rows and pairs, and log det M less row i's power of two
    log_rest = (logdet - lu.e_row[i] * _LOG_2 + log_height
                + _log_sum(np.delete(grid, i, 0)) - _log_sum(pairs[~holds]))
    summed = (_log_abs_sum(grid) + _log_abs_sum(pairs)
              + sum(abs(t.real) + abs(t.imag) for t in (logdet, log_height)))

    def rows(v, d, boundary):
        g = d[1] * d[0]
        # in C order: the matrix products below may round by layout
        m = np.multiply(_m_matrix_entries(p, g, boundary, v), col_scale, order="C")
        _, e = np.frexp(np.maximum.reduce(np.abs(m), 1))
        m *= np.ldexp(1.0, -e)[:, None]
        m_hi, m_lo = _split(m, 1, bits)
        dot = (m_hi @ x_hi + (m_hi @ x_lo + m_lo @ x))[:, 0]
        lemma_err = (np.abs(m) @ abs_x)[:, 0] / np.abs(dot) * (eps_x + 2 * _UNIT_ROUNDOFF)
        log_z = (log_rest + e * _LOG_2 + np.log(dot) + _log_sum(g, 1)
                 - _log_sum(p1 * d[2][:, a + b - i], 1))
        sum_err = 2 * _UNIT_ROUNDOFF * (summed + np.abs(log_z.real) + np.abs(log_z.imag))
        return log_z, lemma_err, sum_err

    return rows


def z_sweep(p, i, values):
    """Z at p with lambda_i (0 <= i < N) set to each of `values`, for a p
    that passes `validate_params`, as a `SweepResult`.

    The base p is guarded and its kernel factored once.  Moving lambda_i
    changes row i of the kernel and of D1 D2, the pair factors that hold
    lambda_i and one boundary factor, so per point the guards look only at
    the entries that hold lambda_i (`params.fails_at_lambda`: the decision
    `validate_params` makes there, from O(1) sinh per point) and Z follows
    from the matrix determinant lemma (`_lemma_rows`, on the differences
    the guard evaluated): O(N) per point, in numpy calls over blocks of
    SWEEP_BLOCK points.  A point's `err` is its lemma error plus its sum
    error.  A point whose lemma error exceeds SWEEP_ACCEPT_ERR or whose
    value is not finite, or every point when the base has a moved grid
    entry or an ill-conditioned LU, is computed by z_determinant, which
    warns as it does alone."""
    i = operator.index(i)
    if not 0 <= i < p.n:
        raise ValueError(f"i must be in 0..{p.n - 1}, got {i}")
    values = np.asarray(values, dtype=complex).ravel()
    count = len(values)
    out = SweepResult(np.full(count, complex(np.nan, np.nan)), np.zeros(count, bool),
                      np.zeros(count, bool), np.full(count, np.nan))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = _lemma_rows(p, i)
        for start in range(0, count, SWEEP_BLOCK):
            block = slice(start, min(start + SWEEP_BLOCK, count))
            v = values[block]
            skip, d, boundary = fails_at_lambda(p, i, v)
            ok = np.zeros(len(v), bool)
            if rows is not None:
                log_z, lemma_err, sum_err = rows(v, d, boundary)
                z = np.exp(log_z)
                ok = ~skip & (lemma_err <= SWEEP_ACCEPT_ERR) & np.isfinite(log_z) & np.isfinite(z)
                out.values[block][ok] = z[ok]
                out.err[block][ok] = (lemma_err + sum_err)[ok]
            out.skipped[block] = skip
            for k in (~(skip | ok)).nonzero()[0] + start:
                out.fallback[k] = True
                out.values[k] = z_determinant(p.replace_lambda(i, values[k])).value
    return out


def recursion_rhs(p, z_prev, side):
    """Right-hand side of the recursion at a coincidence: side "lower" pins
    lambda_1 = xi_1 and `z_prev` is Z on lambdas[1:], xis[1:]; "upper" pins
    lambda_N = -xi_1 and `z_prev` is Z on lambdas[:-1], xis[1:] (the empty
    chain has Z = 1).  The upper product is the lower one with every xi
    negated, factor for factor in the same order."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
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
    val = sh(eta) * sh(c - lp) / require_nonsingular(f"{cname}+{name}", c + lp)
    for i in range(1, n + 1):
        m = n - 2 * i + 1
        val = val * sh(p.lambdas[i - 1] + x) * sh(theta + (m - 1) * eta) \
            / require_nonsingular(f"theta{m:+d}*eta", theta + m * eta)
    others = p.lambdas[1:] if lower else p.lambdas[:-1]
    for xi_i, lam_i in zip(p.xis[1:], others):
        y = flip(xi_i)
        val = val * sh(lp - y + eta) * sh(lp + y + eta) * sh(lam_i - x + eta)
    return complex(val * z_prev)


def normalized_z(p, i, z):
    """Clear the poles and exponential growth out of Z as a function of
    lambda_i: multiply by exp((2N+2) sum(lambdas)) and the two boundary
    denominators sinh(theta + zeta + lambda_i) and sinh(zeta + lambda_i).
    The result is a polynomial of degree at most 2N+2 in exp(2 lambda_i)."""
    li = p.lambdas[i]
    return complex(
        np.exp((2 * p.n + 2) * np.sum(p.lambdas_array()))
        * sh(p.theta + p.zeta + li) * sh(p.zeta + li) * z
    )
