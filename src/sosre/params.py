"""Parameter container, genericity guards, and shared error types.

Every quantity in the model is a ratio of hyperbolic sines, so the only way
an evaluation can go wrong is a sinh in a denominator getting too close to
zero.  This module owns the list of arguments that can appear in those
denominators and provides the guard checks everything else relies on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

DEFAULT_GUARD_TOL = 1e-6
GUARD_ENV_VAR = "SOS_GUARD_TOL"

# Smallest magnitude admitted in relative-difference denominators, so that
# rel_diff(0, 0) == 0 instead of raising.
REL_FLOOR = 1e-300


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
    if not all(np.isfinite(v.real) and np.isfinite(v.imag) for v in out):
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
    """

    eta: complex
    zeta: complex
    theta: complex
    lambdas: tuple
    xis: tuple

    def __post_init__(self):
        for name in ("eta", "zeta", "theta"):
            v = complex(getattr(self, name))
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
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

    @property
    def n(self):
        return len(self.lambdas)

    def lambdas_array(self):
        return np.array(self.lambdas, dtype=complex)

    def xis_array(self):
        return np.array(self.xis, dtype=complex)

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

    `args()` evaluates every argument of the family, a 1-D array or an N x N
    grid (entry [i, j] at lambda_i, xi_j or lambda_i, lambda_j); nothing is
    evaluated before it is called.  `name(k)` labels flat entry k.
    """

    tier: str
    key: str
    args: Callable
    name: Callable


def guard_families(p, pair_order=None):
    """Every sinh denominator of the model, declared once: `GuardFamily` rows
    in guard order, each a closure over its own arithmetic.

    Pair rows run over (a[k], b[k]) for `pair_order` = (a, b), by default
    i < j.  RATIO rows sit under the large coupling-dependent ratios (factors
    like sinh(theta + k eta) in denominators with sizeable numerators), so
    the sampler keeps them further from zero than the GENERIC rows.
    """
    lam = p.lambdas_array()
    xi = p.xis_array()
    n = p.n
    eta, zeta, theta = p.eta, p.zeta, p.theta
    L = lam[:, None]
    X = xi[None, :]
    # i < j in row-major order: np.triu_indices(n, 1), ~3x cheaper at small n
    a, b = np.nonzero(~np.tri(n, dtype=bool)) if pair_order is None else pair_order
    ks = np.arange(-(n + 2), n + 3)
    one = lambda f: lambda k: f.format(k)
    grid = lambda f: lambda k: f.format(k // n, k % n)
    pair = lambda f: lambda k: f.format(a[k], b[k])
    return [
        GuardFamily(GENERIC, "zeta-lambda", lambda: zeta - lam, one("zeta-lambda[{}]")),
        GuardFamily(GENERIC, "theta+zeta-lambda", lambda: theta + zeta - lam,
                    one("theta+zeta-lambda[{}]")),
        GuardFamily(GENERIC, "2*lambda", lambda: 2.0 * lam, one("2*lambda[{}]")),
        GuardFamily(GENERIC, "lambda-xi", lambda: L - X, grid("lambda[{}]-xi[{}]")),
        GuardFamily(GENERIC, "lambda+xi", lambda: L + X, grid("lambda[{}]+xi[{}]")),
        GuardFamily(GENERIC, "lambda-xi+eta", lambda: L - X + eta, grid("lambda[{}]-xi[{}]+eta")),
        GuardFamily(GENERIC, "lambda+xi+eta", lambda: L + X + eta, grid("lambda[{}]+xi[{}]+eta")),
        GuardFamily(GENERIC, "lambda+lambda+eta", lambda: L + lam + eta,
                    grid("lambda[{}]+lambda[{}]+eta")),
        GuardFamily(GENERIC, "lambda-lambda", lambda: lam[a] - lam[b], pair("lambda[{}]-lambda[{}]")),
        GuardFamily(GENERIC, "lambda+lambda", lambda: lam[a] + lam[b], pair("lambda[{}]+lambda[{}]")),
        GuardFamily(GENERIC, "xi-xi", lambda: xi[a] - xi[b], pair("xi[{}]-xi[{}]")),
        GuardFamily(GENERIC, "xi+xi", lambda: xi[a] + xi[b], pair("xi[{}]+xi[{}]")),
        GuardFamily(RATIO, "theta%+d*eta", lambda: theta + ks * eta,
                    lambda k: f"theta{ks[k]:+d}*eta"),
        GuardFamily(RATIO, "zeta+lambda", lambda: zeta + lam, one("zeta+lambda[{}]")),
        GuardFamily(RATIO, "theta+zeta+lambda", lambda: theta + zeta + lam,
                    one("theta+zeta+lambda[{}]")),
    ]


def min_guard_margins(p):
    """(generic_min, ratio_min): smallest |sinh| over each family tier.

    Fast path for rejection sampling; no labels are materialised.
    """
    low = {GENERIC: np.inf, RATIO: np.inf}
    for f in guard_families(p):
        low[f.tier] = min(low[f.tier], np.abs(np.sinh(f.args())).min(initial=np.inf))
    return float(low[GENERIC]), float(low[RATIO])


def guard_violations(p, guard_tol=None, ratio_guard_tol=None, skip=()):
    """Labels of guard arguments whose |sinh| is at or below tolerance.

    ``ratio_guard_tol`` defaults to ``guard_tol``.  ``skip`` is a collection of
    labels to ignore, for identities stated at deliberate coincidences.
    """
    tol = guard_tol_default() if guard_tol is None else guard_tol
    rtol = tol if ratio_guard_tol is None else ratio_guard_tol
    out = []
    for f in guard_families(p):
        t = tol if f.tier == GENERIC else rtol
        for k in np.flatnonzero(np.abs(np.sinh(f.args())) <= t):
            label = f.name(int(k))
            if label not in skip:
                out.append(label)
    return out


def validate_params(p):
    """Raise InvariantViolation naming every guard argument that fails."""
    tol = guard_tol_default()
    bad = guard_violations(p, tol)
    if bad:
        raise InvariantViolation(
            "parameters are non-generic (|sinh| <= "
            f"{tol:g}) at: " + ", ".join(sorted(bad))
        )


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


def require_all_nonsingular(label_fn, values):
    """Vectorised guard: values is an ndarray, label_fn maps flat index to name.
    Returns sinh(values), so a caller that needs them evaluates them once."""
    tol = guard_tol_default()
    s = np.sinh(np.asarray(values, dtype=complex))
    mags = np.abs(s)
    if mags.size and mags.min() <= tol:
        k = int(np.argmin(mags.ravel()))
        raise NearSingular(
            f"denominator sinh({label_fn(k)}) has |sinh| = {mags.ravel()[k]:.3e} <= {tol:g}"
        )
    return s
