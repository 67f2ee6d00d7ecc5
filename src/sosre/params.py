"""Parameter container, genericity guards, and shared error types.

Every quantity in the model is a ratio of hyperbolic sines, so the only way
an evaluation can go wrong is a sinh in a denominator getting too close to
zero.  This module owns the list of arguments that can appear in those
denominators, `guard_families`, over arrays with any batch axes (one
instance or many), and provides the guard checks everything else relies on.

The N x N grid and pair rows of that list pair up into products
sinh(x-y) sinh(x+y) = sinh^2 x - sinh^2 y = D of the four O(N) squares of
`sinh_squares`.  Since |sinh z| <= cosh(Re z), a factor at or below a
tolerance t forces |D| under `prefilter_threshold`, about
t cosh(|Re x| + |Re y|).  So every guard answers at a stated tolerance,
and evaluates np.sinh at a grid or pair entry only where the bound at that
tolerance cannot clear the |D| that holds it as a factor (`_scan`): the
guard checks (`guard_hits`, so `guard_violations` and `validate_params`)
return what evaluating every entry would, and the margins
(`min_guard_margins`) are exact at or below their tolerance, which is all
the sampler compares with its floors.  The determinant (`partition`) bounds
its own differences only as a gate to `require_no_hits`, which reads them.

The entries a bound cannot clear are few, about one per site: `_scan`
finds them from the dense N x N grids of the five differences, faster at
small N, or from `_SORTED_SCAN_N` sites on by a sort on one projected
axis (`_near`): ~0.5-0.7 against ~1 ms at N = 200, and no 80 MB grids at 800.
"""

from __future__ import annotations

import cmath
import os
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

DEFAULT_GUARD_TOL = 1e-6
GUARD_ENV_VAR = "SOS_GUARD_TOL"

# Smallest magnitude admitted in relative-difference denominators, so that
# rel_diff(0, 0) == 0 instead of raising.
REL_FLOOR = 1e-300

# Relative slack of the sinh^2 prefilter thresholds (`prefilter_threshold`):
# far above the few ulps that np.sinh, the squares and the differences round
# by.  A Python float, so that scalar thresholds are Python arithmetic.
_PREFILTER_SLACK = 256 * float(np.finfo(float).eps)


class SosError(Exception):
    """Base class for everything raised on purpose by this package."""


class InvariantViolation(SosError):
    """A parameter set breaks a structural or genericity requirement."""


class NearSingular(SosError):
    """A single evaluation would divide by a sinh below the guard tolerance."""


class CapExceeded(SosError):
    """A brute-force contraction was requested beyond the allowed chain size."""


class ParseError(SosError):
    """A config file or CLI value could not be interpreted."""


class SamplingExhausted(SosError):
    """Rejection sampling failed to find a generic point in the allotted tries."""


class IllConditionedWarning(UserWarning):
    """The determinant evaluation hit a pivot small enough to distrust."""


def guard_tol_default():
    """Guard tolerance from the environment, or the built-in default."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD_TOL
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(f"{GUARD_ENV_VAR} must be a float, got {raw!r}") from None
    if not np.isfinite(val) or val <= 0:
        raise ParseError(f"{GUARD_ENV_VAR} must be finite and positive, got {raw!r}")
    return val


def rel_diff(a, b):
    """|a - b| scaled by the larger magnitude (floored away from zero)."""
    return abs(a - b) / max(abs(a), abs(b), REL_FLOOR)


def _as_complex_tuple(values, what):
    try:
        out = tuple(complex(v) for v in values)
    except TypeError:
        raise InvariantViolation(f"{what} must be a sequence of numbers") from None
    if not all(map(cmath.isfinite, out)):
        raise InvariantViolation(f"{what} entries must be finite")
    return out


@dataclass(frozen=True)
class ModelParams:
    """One instance of the model: couplings plus spectral and inhomogeneity lists.

    ``lambdas`` and ``xis`` must have the same length N >= 1.  Construction
    checks only structure; genericity (no sinh denominator near zero) is
    checked separately by :func:`validate_params`, because several identities
    are *stated* at non-generic points (e.g. the recursions pin lambda_1 to
    xi_1 exactly).

    The O(N) data every guard and determinant call reads (the parameter
    arrays, `squares`, `kernel_columns` and `guard_table`) is computed on
    first use and kept on the instance, read-only; equality, hashing and
    `dataclasses.replace` see the fields only.
    """

    eta: complex
    zeta: complex
    theta: complex
    lambdas: tuple
    xis: tuple

    def __post_init__(self):
        for name in ("eta", "zeta", "theta"):
            v = complex(getattr(self, name))
            if not cmath.isfinite(v):
                raise InvariantViolation(f"{name} must be finite")
            object.__setattr__(self, name, v)
        lams = _as_complex_tuple(self.lambdas, "lambdas")
        xis = _as_complex_tuple(self.xis, "xis")
        if len(lams) == 0:
            raise InvariantViolation("need at least one spectral parameter")
        if len(lams) != len(xis):
            raise InvariantViolation(
                f"lambdas and xis must have equal length, got {len(lams)} and {len(xis)}"
            )
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "xis", xis)

    def __getstate__(self):
        # the fields only: the cached data is rebuilt on use, and the guard
        # table's closures do not pickle
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n(self):
        return len(self.lambdas)

    @cached_property
    def _lambdas_xis(self):
        v = np.array(self.lambdas + self.xis, dtype=complex)
        v.flags.writeable = False
        return v

    def lambdas_array(self):
        """The lambdas as a read-only complex array."""
        return self._lambdas_xis[: self.n]

    def xis_array(self):
        """The xis as a read-only complex array."""
        return self._lambdas_xis[self.n :]

    @cached_property
    def squares(self):
        """`sinh_squares` of this instance, (sq, c, mod, r): its arrays sq
        and r read-only, its cosh bounds c a tuple.  Past a double's range a
        square is inf, without a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            sq, c, mod, r = sinh_squares(self)
        sq.flags.writeable = r.flags.writeable = False
        return sq, tuple(c), mod, r

    @cached_property
    def kernel_columns(self):
        """(sinh(eta), sinh(theta+zeta+xi) sinh(zeta-xi)): the parts of the
        determinant's product-form kernel that no lambda enters, the second
        read-only."""
        xi = self.xis_array()
        with np.errstate(over="ignore", invalid="ignore"):
            col = np.sinh(self.theta + self.zeta + xi) * np.sinh(self.zeta - xi)
        col.flags.writeable = False
        return np.sinh(self.eta), col

    @cached_property
    def guard_table(self):
        """`guard_families` of this instance, as a tuple."""
        return tuple(guard_families(self.eta, self.zeta, self.theta,
                                    self.lambdas_array(), self.xis_array()))

    def replace_lambda(self, i, value):
        """New instance with lambda_i swapped out."""
        lams = list(self.lambdas)
        lams[i] = complex(value)
        return ModelParams(self.eta, self.zeta, self.theta, tuple(lams), self.xis)

    def drop_site(self, i):
        """New instance with lambda_i and xi_i removed (N decreases by one)."""
        lams = self.lambdas[:i] + self.lambdas[i + 1 :]
        xis = self.xis[:i] + self.xis[i + 1 :]
        return ModelParams(self.eta, self.zeta, self.theta, lams, xis)


GENERIC = "generic"
RATIO = "ratio"


class GuardFamily(NamedTuple):
    """One row of the guard table: the arguments of one family of sinh
    denominators.

    `args()` evaluates every argument of the family over the table's batch
    axes, O(N) entries or an N x N grid (entry [i, j] at lambda_i, xi_j or
    lambda_i, lambda_j); nothing is evaluated before it is called.
    `args(*sites)` evaluates it at site arrays, bit for bit what the full
    row holds there: entries [k] of an O(N) row, [i[k], j[k]] of a grid, or
    the pair rows' arithmetic at the pairs (i[k], j[k]).  For one instance,
    `name(k)` labels flat entry k of `args()`, `name(k, *sites)` of `args(*sites)`.
    """

    tier: str
    key: str
    args: Callable
    name: Callable


@lru_cache(maxsize=8)
def site_pairs(n):
    """Site pairs (a, b) with a < b, in row-major order: np.triu_indices(n, 1)
    as read-only arrays, built once per n."""
    pairs = np.triu_indices(n, 1)
    for v in pairs:
        v.flags.writeable = False
    return pairs


def guard_families(eta, zeta, theta, lam, xi):
    """Every sinh denominator of the model, declared once: `GuardFamily` rows
    in guard order, each a closure over its own arithmetic.

    The couplings are scalars or arrays shaped (..., 1), lam and xi arrays
    shaped (..., N), so every row broadcasts over the leading batch axes;
    with none it is the table of one instance (`ModelParams.guard_table`).
    Pair rows run over the pairs (a[k], b[k]) of `site_pairs`, a < b, which
    are built only when a pair row is called without sites.  RATIO rows sit
    under the large coupling-dependent ratios (factors like sinh(theta +
    k eta) in denominators with sizeable numerators), so the sampler keeps
    them further from zero than the GENERIC rows.
    """
    n = lam.shape[-1]
    ks = np.arange(-(n + 2), n + 3)
    eta_grid = np.asarray(eta)[..., None]  # the coupling over a grid's two site axes

    def one(tier, key, f, v, label=None):  # entry k is f(v[..., k])
        label = label or (lambda k: f"{key}[{k}]")
        return GuardFamily(tier, key, lambda *k: f(v.take(k[0], -1) if k else v),
                           lambda m, *k: label(k[0][m] if k else m))

    def grid(key, f, col, label):  # entry [i, j] is f(lambda_i, col_j, eta)
        return GuardFamily(GENERIC, key,
                           lambda i=None, j=None: f(lam[..., None], col[..., None, :], eta_grid)
                           if i is None else f(lam.take(i, -1), col.take(j, -1), eta),
                           lambda k, i=None, j=None: label.format(k // n, k % n)
                           if i is None else label.format(i[k], j[k]))

    def pair(key, f, v, label):  # pair k is f(v[a[k]], v[b[k]]), (a, b) = site_pairs(n)
        return GuardFamily(GENERIC, key,
                           lambda *ij: f(*(v.take(s, -1) for s in ij or site_pairs(n))),
                           lambda k, *ij: label.format(*(s[k] for s in ij or site_pairs(n))))

    minus, plus = (lambda u, v: u - v), (lambda u, v: u + v)
    return [
        one(GENERIC, "zeta-lambda", lambda v: zeta - v, lam),
        one(GENERIC, "theta+zeta-lambda", lambda v: theta + zeta - v, lam),
        one(GENERIC, "2*lambda", lambda v: 2.0 * v, lam),
        grid("lambda-xi", lambda u, v, e: u - v, xi, "lambda[{}]-xi[{}]"),
        grid("lambda+xi", lambda u, v, e: u + v, xi, "lambda[{}]+xi[{}]"),
        grid("lambda-xi+eta", lambda u, v, e: u - v + e, xi, "lambda[{}]-xi[{}]+eta"),
        grid("lambda+xi+eta", lambda u, v, e: u + v + e, xi, "lambda[{}]+xi[{}]+eta"),
        grid("lambda+lambda+eta", lambda u, v, e: u + v + e, lam, "lambda[{}]+lambda[{}]+eta"),
        pair("lambda-lambda", minus, lam, "lambda[{}]-lambda[{}]"),
        pair("lambda+lambda", plus, lam, "lambda[{}]+lambda[{}]"),
        pair("xi-xi", minus, xi, "xi[{}]-xi[{}]"),
        pair("xi+xi", plus, xi, "xi[{}]+xi[{}]"),
        one(RATIO, "theta%+d*eta", lambda k: theta + k * eta, ks,
            lambda k: f"theta{ks[k]:+d}*eta"),
        one(RATIO, "zeta+lambda", lambda v: zeta + v, lam),
        one(RATIO, "theta+zeta+lambda", lambda v: theta + zeta + v, lam),
    ]


def prefilter_threshold(c, tol, mod):
    """Bound on |D| for D = sinh(x-y) sinh(x+y) = sinh^2 x - sinh^2 y,
    computed from the squares, at any entry where either factor has
    |sinh| <= tol: c is at least cosh(|Re x| + |Re y|), which bounds each
    factor since |sinh z| <= cosh(Re z), and `mod` at least |x| + |y|.  The
    slack term covers the rounding of np.sinh, the squares, their difference
    and the guard arguments.  An entry whose |D| is above it cannot fail."""
    return c * tol * (1 + _PREFILTER_SLACK) + _PREFILTER_SLACK * c * c * (2 + mod)


# The sinh^2 differences that clear the grid and pair rows (see `_scan`):
# entry [i, j] of difference g is sq[_MINUEND[g], i] - sq[_SUBTRAHEND[g], j]
# over the squares sq = (w_eta, w, q, y) of `sinh_squares`, and FACTORS[g]
# names the two rows whose sinh at [i, j] it is the product of:
#   w_eta_i - y_j = sinh(lambda_i-xi_j+eta) sinh(lambda_i+xi_j+eta),
#   w_i - y_j = sinh(lambda_i-xi_j) sinh(lambda_i+xi_j),
#   q_i - q_j = sinh(lambda_i-lambda_j) sinh(lambda_i+lambda_j+eta),
#   w_i - w_j = sinh(lambda_i-lambda_j) sinh(lambda_i+lambda_j),
#   y_i - y_j = sinh(xi_i-xi_j) sinh(xi_i+xi_j),
# a pair row at the pairs [i, j], i < j.  `_CLEARED` maps each grid and pair
# row to the difference that clears it in `_scan`, entry for entry: the
# last that holds it, so w_i - w_j for lambda-lambda.
_MINUEND, _SUBTRAHEND = np.array([0, 1, 2, 1, 3]), np.array([3, 3, 2, 1, 3])
FACTORS = (("lambda-xi+eta", "lambda+xi+eta"), ("lambda-xi", "lambda+xi"),
           ("lambda-lambda", "lambda+lambda+eta"), ("lambda-lambda", "lambda+lambda"),
           ("xi-xi", "xi+xi"))
_CLEARED = {key: g for g, keys in enumerate(FACTORS) for key in keys}

# From this many sites on, where it starts to win, `_scan` takes the sites
# from the one-axis search (`_sorted_sites`), not the dense grids.  Warm
# medians on default draws, shared 2-vCPU host, one BLAS thread, grids /
# search: at the sampler's floor 0.32 / 0.30-0.33 ms at N = 112, 0.39 / 0.32
# at 120, 0.99 / 0.46 at 200; at 1e-6 0.21-0.25 / 0.21-0.24 ms at N = 96.
_SORTED_SCAN_N = 120

# `_near`'s direction: neither an axis nor a diagonal, which real or fixed-Im
# parameters line the squares up along (Im lambda = pi/4 puts every
# sinh^2 lambda on Re = -1/2), so no such line projects to one point.
_AXIS = cmath.exp(1j)


def sinh_squares(p):
    """The O(N) squares under the grid and pair rows, (sq, c, mod, r): sq
    is the 4 x N array (w_eta, w, q, y) = sinh^2 of (lambda+eta, lambda,
    lambda+eta/2, xi), r the largest |Re| of each row's arguments, c the
    bounds cosh(r[_MINUEND] + r[_SUBTRAHEND]) of the five differences and
    mod a bound on their |x| + |y|, for `prefilter_threshold`.  Uncached,
    opening no np.errstate: callers read the cached `ModelParams.squares`."""
    n = p.n
    lam_xi = p._lambdas_xis
    lam, xi, eta = lam_xi[:n], lam_xi[n:], p.eta
    x = np.concatenate([lam + eta, lam, lam + eta / 2, xi]).reshape(4, n)
    r = np.abs(x.real).max(1)
    c = np.cosh(r[_MINUEND] + r[_SUBTRAHEND]).tolist()
    return np.square(np.sinh(x)), c, 2 * float(np.abs(lam_xi).max()) + abs(eta), r


def _dense_sites(squares, tol):
    """The sites (i, j) of each difference g of `_MINUEND` and `_SUBTRAHEND`,
    in row-major order, where |D| is not above `prefilter_threshold(c[g],
    tol, mod)` for the `ModelParams.squares` (sq, c, mod, r), from the dense
    N x N grids of all five differences.  Call it under np.errstate."""
    sq, c, mod, _ = squares
    d = np.abs(sq.take(_MINUEND, 0)[:, :, None] - sq.take(_SUBTRAHEND, 0)[:, None, :])
    keep = ~(d > np.array([prefilter_threshold(cg, tol, mod) for cg in c])[:, None, None])
    return [np.divmod(np.flatnonzero(v), sq.shape[1]) for v in keep]


def _near(a, b, t):
    """(k, d): the flat indices k = i N + j, ascending, of the entries where
    |a_i - b_j| may be at or below t, and d = |a_i - b_j| there, bit for bit
    what the dense grid holds; None where the search would take more than a
    quarter of the N^2 entries (past Re lambda ~ 12 the thresholds pass the
    squares' spread) or cannot run: t not finite or padded to no width, or
    a value not finite (a square past Re ~ 355, where the thresholds are
    above 1e290 and take nearly every entry anyway).

    Each a_i takes the b_j whose projections onto u = `_AXIS` lie within h
    of its own, b's sorted once: |Re((a_i - b_j) conj(u))| <= |a_i - b_j|,
    and h is t padded by `_PREFILTER_SLACK` for the rounding of a_i - b_j,
    of the projections and of the window's bounds, a few ulps of scale."""
    n = a.size
    scale = np.abs(np.concatenate([a, b]).view(float)).max()  # NaN if any value is
    h = (t + _PREFILTER_SLACK * scale) * (1 + _PREFILTER_SLACK)
    if not (0 < h and scale + 2 * h < np.inf):
        return None
    ka, kb = (v.real * _AXIS.real + v.imag * _AXIS.imag for v in (a, b))
    order = np.argsort(kb)
    lo, hi = np.searchsorted(kb[order], np.stack([ka - h, ka + h]))
    count = hi - lo
    total = int(count.sum())
    if 4 * total > n * n:
        return None
    at = np.arange(total) + np.repeat(lo - np.cumsum(count) + count, count)
    k = np.repeat(np.arange(0, n * n, n), count) + order[at]
    k.sort()
    return k, np.abs(a[k // n] - b[k % n])


def _sorted_sites(squares, tol):
    """`_dense_sites`, bit for bit, from the one-axis search (`_near`) of
    each difference at its threshold, keeping the candidates whose |D| is
    not above it.  Where a search declines, the dense grids decide."""
    sq, c, mod, _ = squares
    lims = [prefilter_threshold(cg, tol, mod) for cg in c]
    near = []
    for m, s, lim in zip(_MINUEND.tolist(), _SUBTRAHEND.tolist(), lims):
        near.append(_near(sq[m], sq[s], lim))
        if near[-1] is None:
            return _dense_sites(squares, tol)
    return [np.divmod(k[~(d > lim)], sq.shape[1]) for (k, d), lim in zip(near, lims)]


def _scan(p, tol):
    """|sinh| of the guard table, with each grid and pair row evaluated only
    where its own sinh^2 difference (`_CLEARED`) cannot clear it: (mags,
    rows, bounds).  Row r of `rows` is (t, family, sites) for the table's
    row t, its values mags[bounds[r]:bounds[r + 1]] = |sinh(family.args(
    *sites))|: the whole row when `sites` is (), else the row's entries at
    the site arrays (i, j), in row-major order (i < j in a pair row).  The
    O(N) rows come first, in table order; a grid or pair row with no entry
    to evaluate is left out.

    The squares of `ModelParams.squares` give the differences D of
    `_MINUEND` and `_SUBTRAHEND`.  An entry is evaluated unless its |D| is
    above `prefilter_threshold` at generic tolerance `tol` (a NaN |D| or
    threshold keeps it), so every entry at or below `tol` is, and an entry
    left out is above it.  Past a double's range a value is inf, without a
    warning.  The sites come from `_dense_sites` below `_SORTED_SCAN_N` sites
    and from `_sorted_sites` from it on, the same sites either way."""
    rows, args, grid_pair = [], [], []
    for t, f in enumerate(p.guard_table):
        if f.key in _CLEARED:
            grid_pair.append((t, f, _CLEARED[f.key]))
        else:
            rows.append((t, f, ()))
            args.append(f.args())
    sizes = [v.size for v in args]
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(np.sinh(np.concatenate(args)))
        sites = (_dense_sites if p.n < _SORTED_SCAN_N else _sorted_sites)(p.squares, tol)
        sites[3:] = [(i[i < j], j[i < j]) for i, j in sites[3:]]  # the pairs, i < j
        grid_pair = [(t, f, sites[g]) for t, f, g in grid_pair if sites[g][0].size]
        if grid_pair:
            mags = np.concatenate([mags, np.abs(np.sinh(np.concatenate(
                [f.args(*ij) for _, f, ij in grid_pair])))])
    rows += grid_pair
    sizes += [ij[0].size for _, _, ij in grid_pair]
    return mags, rows, [0, *accumulate(sizes)]


def min_guard_margins(p, tol):
    """(generic_min, ratio_min): smallest |sinh| over each family tier, the
    generic one at generic tolerance `tol`.

    For rejection sampling, which compares them with its floors: no labels
    are materialised, and the grid and pair rows are evaluated only where a
    sinh^2 bound at `tol` cannot clear them (`_scan`).  ratio_min is exact;
    generic_min is exact when it is at or below `tol`, and otherwise some
    value above `tol`, so ``generic_min <= tol`` decides as evaluating every
    entry would.  A row holding a NaN is left out, as min(low, np.min(row))
    would leave it.
    """
    mags, rows, bounds = _scan(p, tol)
    low = {GENERIC: np.inf, RATIO: np.inf}
    for (_, f, _), v in zip(rows, np.minimum.reduceat(mags, bounds[:-1]).tolist()):
        low[f.tier] = min(low[f.tier], v)
    return float(low[GENERIC]), float(low[RATIO])


def guard_hits(p, tol, ratio_tol=None):
    """The guard table's entries at or below tolerance, `tol` in GENERIC
    rows and `ratio_tol` (default `tol`) in RATIO rows, from one `_scan`:
    {key: (family, sites, mags)} for each row with one, sites (k,) in an
    O(N) row and (i, j) in a grid or pair row, so ``family.name(m, *sites)``
    names entry m, and mags their |sinh|, in row-major order."""
    rtol = tol if ratio_tol is None else ratio_tol
    mags, rows, bounds = _scan(p, tol)
    hits = {}
    if not np.minimum.reduce(mags) > max(tol, rtol):  # a NaN min: row by row
        for (_, f, sites), lo, hi in zip(rows, bounds, bounds[1:]):
            v = mags[lo:hi]
            k = (v <= (tol if f.tier == GENERIC else rtol)).nonzero()[0]
            if k.size:
                hits[f.key] = f, tuple(s[k] for s in sites) or (k,), v[k]
    return hits


def require_no_hits(p, keys, cut=None):
    """`guard_hits` of p at the guard tolerance, after raising NearSingular
    as evaluating its rows `keys` in this order would, at the first smallest
    |sinh| of the first that holds an entry; ``cut[key](*sites)`` cuts a row
    to the entries a caller divides by (a mask, or indices in its order)."""
    tol = guard_tol_default()
    hits = guard_hits(p, tol)
    for f, sites, mags in (hits[key] for key in keys if key in hits):
        k = cut[f.key](*sites) if cut and f.key in cut else slice(None)
        sites, mags = tuple(s[k] for s in sites), mags[k]
        if mags.size:
            m = int(np.argmin(mags))
            raise NearSingular(f"denominator sinh({f.name(m, *sites)}) has |sinh| = "
                               f"{mags[m]:.3e} <= {tol:g}")
    return hits


def guard_violations(p, guard_tol=None, ratio_guard_tol=None, skip=()):
    """Labels of guard arguments whose |sinh| is at or below tolerance, row
    by row in table order and by flat index within a row (`guard_hits`).

    ``ratio_guard_tol`` defaults to ``guard_tol``.  ``skip`` is a collection of
    labels to ignore, for identities stated at deliberate coincidences.
    """
    hits = guard_hits(p, guard_tol_default() if guard_tol is None else guard_tol, ratio_guard_tol)
    labels = [f.name(m, *hits[f.key][1]) for f in p.guard_table if f.key in hits
              for m in range(hits[f.key][2].size)]
    return [label for label in labels if label not in skip]


def validate_params(p):
    """Raise InvariantViolation naming every guard argument that fails."""
    tol = guard_tol_default()
    bad = guard_violations(p, tol)
    if bad:
        raise InvariantViolation(
            "parameters are non-generic (|sinh| <= "
            f"{tol:g}) at: " + ", ".join(sorted(bad))
        )


def fails_at_lambda(p, i, values):
    """For each value v, whether `validate_params` rejects p with lambda_i
    set to v, for a p that passes it, and what deciding it evaluated:
    (fails, d, sinh(theta+zeta+v) sinh(zeta+v)).  The O(1) entries that
    hold lambda_i (the O(1) rows and lambda+lambda+eta's diagonal) are read
    from the one-site table of the points and xi_i; the grid and pair ones
    are cleared as `_scan` clears them, each by its own difference, in d:
    the first four differences of `_MINUEND` and `_SUBTRAHEND`, the point's
    squares of (v+eta, v, v+eta/2) less the base's, bounded at the point's
    own |Re|.  d[2] is q_v - q_j, the pair factor or, at j < i, its
    negation; d[2:, :, i] is infinite and clears.  A point that no O(1) entry
    rejects, with an entry that no bound clears or a NaN difference, gets
    `guard_hits` on p with lambda_i = v; a NaN entry fails nothing."""
    tol = guard_tol_default()
    v = np.asarray(values, dtype=complex)
    sq, _, mod, r = p.squares
    base = sq.take(_SUBTRAHEND[:4], 0)[:, None, :]
    base[2:, :, i] = np.inf
    table = guard_families(p.eta, p.zeta, p.theta, v[:, None], p.xis_array()[i : i + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        rows = {f.key: f.args().reshape(-1) for f in table if "lambda" in f.key
                and (f.key not in _CLEARED or f.key == "lambda+lambda+eta")}
        # the O(1) entries, then the arguments of the point's three squares
        x = np.concatenate([*rows.values(), v + p.eta, v, v + p.eta / 2])
        x = x.reshape(len(rows) + 3, -1)
        s = np.sinh(x)
        fails = (np.abs(s[:-3]) <= tol).any(0)
        c = np.cosh(np.abs(x[-3:].real)[_MINUEND[:4]] + r[_SUBTRAHEND[:4], None])
        lim = prefilter_threshold(c, tol, np.maximum(mod, 2 * np.abs(v) + abs(p.eta)))
        sq_v = np.square(s[-3:])
        d = sq_v[_MINUEND[:4], :, None] - base
        cleared = (np.abs(d) > lim[:, :, None]).all((0, 2))
    for k in (~fails & ~cleared).nonzero()[0]:
        fails[k] = bool(guard_hits(p.replace_lambda(i, v[k]), tol))
    at = dict(zip(rows, s))
    return fails, d, at["theta+zeta+lambda"] * at["zeta+lambda"]


def require_nonsingular(label, value):
    """Guard a single denominator argument; raise NearSingular naming it.
    Returns sinh(value), so the caller divides by the value it checked."""
    tol = guard_tol_default()
    s = np.sinh(complex(value))
    if abs(s) <= tol:
        raise NearSingular(
            f"denominator sinh({label}) = {s:.3e} has |sinh| <= {tol:g}"
        )
    return s
