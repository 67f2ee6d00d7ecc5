"""Seeded randomized verification: guarded parameter sampling, identity
suites over every module, and reproducible structured reports.

Sampling strategy: parameters are drawn uniformly from a complex box and
rejection-resampled until every guard denominator family clears a margin;
after a rejection, draws are screened in batches on the guard table's O(N)
rows, evaluated over the batch, before the exact check, with the draws of
one check per draw.  Two margin tiers are used -- denominators under the
large boundary/height ratios get a wider berth than the generic families --
because residual tails of the operator identities scale with inverse powers
of these margins.  Each case draws from its own generator seeded by (seed,
case index, attempt), so reports are bit-identical across runs and
insensitive to case reordering.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass

import numpy as np

from . import chain_ops, params, partition, weights
from .params import (
    ModelParams,
    NearSingular,
    SamplingExhausted,
    guard_violations,
    min_guard_margins,
    rel_diff,
)

SUITE_NAMES = ("weights", "algebra", "partition", "all")

# The sampler's box, ((re_lo, re_hi), (im_lo, im_hi)), for every parameter.
DOMAIN = ((-0.8, 0.8), (-0.8, 0.8))
# Rejection draws before the sampler gives up with SamplingExhausted.
MAX_ATTEMPTS = 5000
# Most uniforms one batch of attempts draws in `sample_params`.
_BATCH_DOUBLES = 1 << 14
# Radius of the circle in w = exp(2 lambda_i) that holds the degree test's nodes.
_NODE_RADIUS = 1.25

# The largest N each chain-size suite runs.  algebra: its checks build dense
# operators on the chain and two auxiliary spaces, 4x the memory and time per
# step in N (157 MB peak at N = 8; at N = 12 np.eye(2**14) alone is 2 GiB).
# partition: the fixed `CASES` tolerances hold on correct code at N <= 5 on
# seeds 42 and 1-4, and fail at N = 6 on seed 4 (see CHANGES.md); it is also
# below contraction's limit, `partition.BRUTE_CAP`.
_MAX_N = {"algebra": 9, "partition": 5}

# Sampler margins relax beyond this chain size (the number of guarded
# argument pairs grows ~N^2, so fixed margins would reject every draw).
_MARGIN_PIVOT_N = 6


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for a verification run; each case's tolerance is fixed in `CASES`.

    `n_values` (nonempty, integers >= 1) are the chain sizes to test;
    `seed` and `samples_per_case` are integers too.
    `guard_tol` is the sampler margin on |sinh| for the generic denominator
    families and `ratio_guard_tol` the wider margin for the boundary/height
    ratio denominators; both are finite and > 0, and shrink as 6/N beyond
    N=6 to keep rejection sampling feasible.  `ratio_guard_tol` is at least
    `guard_tol`: the crossing cases' numerators sinh(zeta+lambda_i) and
    sinh(theta+zeta+lambda_i) are RATIO rows, and must clear the generic
    margin too.
    The `CASES` tolerances are fixed, set for the default N <= 3, so a suite
    refuses sizes above `_MAX_N` before any case runs: the partition suite
    N > 5, where contraction's rounding fails them on correct code (2 of 275
    cases at N = 6, seed 4, the lambda permutation by contraction), until an
    error estimate per Z (ROADMAP items 3 and 6) bounds each comparison; the
    algebra suite N > 9, where its dense operators outgrow memory.
    """

    seed: int = 42
    n_values: tuple = (1, 2, 3)
    samples_per_case: int = 25
    guard_tol: float = 0.10
    ratio_guard_tol: float = 0.35

    def __post_init__(self):
        for name in ("samples_per_case", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.samples_per_case < 1:
            raise ValueError("samples_per_case must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        try:
            n_values = tuple(map(operator.index, self.n_values))
        except TypeError:
            raise ValueError("n_values entries must be integers") from None
        object.__setattr__(self, "n_values", n_values)
        if not n_values or min(n_values) < 1:
            raise ValueError("n_values must be a nonempty tuple of integers >= 1")
        for name in ("guard_tol", "ratio_guard_tol"):
            tol = getattr(self, name)
            if not (np.isfinite(tol) and tol > 0):  # else the sampler accepts every draw
                raise ValueError(f"{name} must be finite and > 0, got {tol!r}")
        if self.ratio_guard_tol < self.guard_tol:  # the crossing numerators are RATIO rows
            raise ValueError(f"ratio_guard_tol must be >= guard_tol, got "
                             f"{self.ratio_guard_tol!r} < {self.guard_tol!r}")

    def margins(self, n):
        scale = min(1.0, _MARGIN_PIVOT_N / n)
        return self.guard_tol * scale, self.ratio_guard_tol * scale


def _screen(vals, n, floors):
    """Indices, ascending, of the candidates `vals` (K x (2n+3): eta, zeta,
    theta, lambdas, xis) that the guard table's O(N) rows do not reject.
    Those rows, the ones no sinh^2 difference clears, come from
    `params.guard_families` over the K candidates, a batch axis; a row
    rejects only below its tier's floor (`floors`, generic then ratio) less
    a relative `_PREFILTER_SLACK`, so that no last-bit difference from the
    exact check's loops rejects a draw."""
    table = params.guard_families(vals[:, :1], vals[:, 1:2], vals[:, 2:3],
                                  vals[:, 3:3 + n], vals[:, 3 + n:])
    rows = [f for f in table if f.key not in params._CLEARED]
    args = [f.args() for f in rows]
    low = np.repeat([floors[f.tier == params.RATIO] for f in rows], [a.shape[1] for a in args])
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(np.sinh(np.concatenate(args, axis=1)))
    return (~(mags < low * (1 - params._PREFILTER_SLACK)).any(1)).nonzero()[0].tolist()


def sample_params(cfg, n, rng_state, extra_guards=None):
    """Draw a generic ModelParams with N = n from the box `DOMAIN`.

    Every guard family must clear `cfg.margins(n)`.  `extra_guards` maps a
    candidate instance to extra arguments whose sinh must also clear the
    generic margin (used for checks that evaluate at derived points such as
    -lambda-eta).  Deterministic given the generator state; raises
    SamplingExhausted after `MAX_ATTEMPTS` rejected draws.

    Each attempt draws 2n+3 real parts, then 2n+3 imaginary parts.  After a
    rejection, the next K = 2, 4, 8, ... attempts (at most `_BATCH_DOUBLES`
    uniforms) are drawn in one call and `_screen`ed; the survivors take the
    exact check in draw order, and once one is kept the generator is set
    back and exactly the attempts up to it drawn again: every call returns,
    and leaves the generator, as one draw and one check per attempt would.
    """
    (re_lo, re_hi), (im_lo, im_hi) = DOMAIN
    floors = gen_floor, ratio_floor = cfg.margins(n)
    m = 2 * n + 3

    def draw(k):
        if k == 1:
            v = rng_state.uniform(re_lo, re_hi, m) + 1j * rng_state.uniform(im_lo, im_hi, m)
            return v[None]
        v = rng_state.uniform([[re_lo], [im_lo]], [[re_hi], [im_hi]], (k, 2, m))
        return v[:, 0] + 1j * v[:, 1]

    drawn, k = 0, 1
    while drawn < MAX_ATTEMPTS:
        state = rng_state.bit_generator.state if k > 1 else None
        vals = draw(k)
        for s in _screen(vals, n, floors) if drawn else (0,):
            v = vals[s]
            p = ModelParams(v[0], v[1], v[2], tuple(v[3 : 3 + n]), tuple(v[3 + n :]))
            gen_min, ratio_min = min_guard_margins(p, gen_floor)
            if gen_min <= gen_floor or ratio_min <= ratio_floor:
                continue
            if extra_guards is not None:
                extra = np.asarray(extra_guards(p), dtype=complex)
                if np.abs(np.sinh(extra)).min() <= gen_floor:
                    continue
            if s + 1 < k:
                rng_state.bit_generator.state = state
                draw(s + 1)
            return p
        drawn += k
        k = min(2 * k, MAX_ATTEMPTS - drawn, max(1, _BATCH_DOUBLES // (2 * m)))
    raise SamplingExhausted(
        f"no generic point with N={n} in {MAX_ATTEMPTS} draws "
        f"(margins {gen_floor:g}/{ratio_floor:g}; box {DOMAIN})"
    )


def _crossing_extra(i):
    """Extra guard arguments for checks that evaluate at -lambda_i - eta:
    the 2*lambda, zeta+lambda and theta+zeta+lambda entries at site i of
    the image instance's guard table, the boundary denominators there and,
    up to sign, the crossing scalar's numerator sinh(2 (lambda_i + eta))
    and its two denominators besides sinh(2 lambda_i).  Its numerators at
    zeta + lambda_i and theta + zeta + lambda_i are the instance's own RATIO
    rows, held above the generic margin (`ratio_guard_tol` >= `guard_tol`)."""

    def extra(p):
        q = p.replace_lambda(i, -p.lambdas[i] - p.eta)
        return np.concatenate([f.args([i]) for f in q.guard_table
                               if f.key in ("2*lambda", "zeta+lambda", "theta+zeta+lambda")])

    return extra


def _sample_degenerate(cfg, n, rng, pin):
    """Sample, apply the exact coincidence `pin`, and keep only instances
    whose remaining guard families are still generic."""
    gen_floor, ratio_floor = cfg.margins(n)
    for _ in range(MAX_ATTEMPTS):
        p = sample_params(cfg, n, rng)
        pdeg, skip = pin(p)
        bad = guard_violations(
            pdeg, guard_tol=gen_floor, ratio_guard_tol=ratio_floor, skip=skip
        )
        if not bad:
            return pdeg
    raise SamplingExhausted(f"no usable degenerate instance with N={n}")


def degree_bound_residual(p, i, rng):
    """Interpolate-and-predict test of the polynomial degree bound.

    Z, normalized by `normalized_z`, must be a polynomial of degree at most
    2N+2 in w = exp(2 lambda_i).  Evaluate at 2N+4 nodes on the circle
    |w| = _NODE_RADIUS (random rotation), fit a degree-(2N+2) polynomial through
    the first 2N+3 nodes, and return the relative prediction error at the last.
    A rotation is redrawn while a node has a guard entry with |sinh| <= 1e-3,
    from one evaluation of the guard table over the nodes, (2N+4) (5N^2 +
    2N(N-1) + 7N + 5) complex entries (~1 MB at N = 16).  Relative to one
    node's value, over values that span decades as N grows, the residual
    fails on correct code from N = 16 (2.0e-8 and 1.2e-7; ROADMAP item 19).
    """
    deg, count = 2 * p.n + 2, 2 * p.n + 4
    for _ in range(100):
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        ws = _NODE_RADIUS * np.exp(1j * (phi0 + 2.0 * np.pi * np.arange(count) / count))
        # one instance per node, lambda_i at log(w) / 2
        lam = np.where(np.arange(p.n) == i, np.log(ws)[:, None] / 2.0, p.lambdas_array())
        table = params.guard_families(p.eta, p.zeta, p.theta, lam, p.xis_array())
        if any((np.abs(np.sinh(f.args())) <= 1e-3).any() for f in table):
            continue
        ys = np.array([partition.normalized_z(q, i, partition.z_determinant(q).value)
                       for q in (p.replace_lambda(i, v) for v in lam[:, i])])
        vander = np.vander(ws[:-1], deg + 1, increasing=True)
        coeffs = np.linalg.solve(vander, ys[:-1])
        pred = np.polyval(coeffs[::-1], ws[-1])
        return rel_diff(pred, ys[-1])
    raise SamplingExhausted("no generic interpolation nodes found")


@dataclass(frozen=True)
class CheckReport:
    """One verified case: its max-entry residual judged against a tolerance.
    `n` is the chain size (0 for weight-level cases)."""

    name: str
    n: int
    residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: tuple
    summary: dict

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


def _trimmed(p, n):
    """First n lambda/xi pairs of a larger sampled instance (guards of the
    sub-instance are a subset of the full instance's, so it stays generic)."""
    if p.n == n:
        return p
    return ModelParams(p.eta, p.zeta, p.theta, p.lambdas[:n], p.xis[:n])


def _roll(seq):
    return seq[1:] + seq[:1]


# ---------------------------------------------------------------------------
# Case runners.  Each takes (cfg, n, rng) and returns the residual.


def _run_dybe(cfg, n, rng):
    p = sample_params(cfg, 3, rng)
    return weights.check_dybe(p.lambdas, p.theta, p.eta)


def _single_site_runner(check):
    """Runner for a check of R at one spectral parameter."""

    def run(cfg, n, rng):
        p = sample_params(cfg, 1, rng)
        return check(p.lambdas[0], p.theta, p.eta)

    return run


def _run_reflection(cfg, n, rng):
    p = sample_params(cfg, 2, rng)
    return weights.check_reflection_equation(
        p.lambdas[0], p.lambdas[1], p.theta, p.eta, p.zeta
    )


def _chain_pair_runner(check):
    """Runner for a chain identity at two spectral parameters."""

    def run(cfg, n, rng):
        p = sample_params(cfg, max(n, 2), rng)
        return check(p.lambdas[0], p.lambdas[1], _trimmed(p, n))

    return run


def _run_monodromy_inverse(cfg, n, rng):
    p = sample_params(cfg, n, rng)
    return chain_ops.check_monodromy_inverse(p.lambdas[0], p)


def _run_b_crossing(cfg, n, rng):
    p = sample_params(cfg, n, rng, extra_guards=_crossing_extra(0))
    return chain_ops.check_b_crossing(p.lambdas[0], p)


def _run_closed_form_n1(cfg, n, rng):
    p = sample_params(cfg, 1, rng)
    zb = partition.z_bruteforce(p).value
    zc = partition.z_n1_closed(p.lambdas[0], p.xis[0], p.theta, p.eta, p.zeta)
    return rel_diff(zb, zc)


def _run_det_vs_brute(cfg, n, rng):
    p = sample_params(cfg, n, rng)
    zd = partition.z_determinant(p).value
    zb = partition.z_bruteforce(p).value
    return rel_diff(zd, zb)


def _run_m_form_equivalence(cfg, n, rng):
    p = sample_params(cfg, n, rng)
    ms = partition.m_matrix(p, partition.SUM_FORM)
    mp = partition.m_matrix(p, partition.PRODUCT_FORM)
    return max(rel_diff(a, b) for a, b in zip(ms.ravel(), mp.ravel()))


def _z(method):
    """Z by one route: "brute" (contraction) or "det" (determinant)."""
    z = partition.z_bruteforce if method == "brute" else partition.z_determinant
    return lambda p: z(p).value


def _perm_runner(attr, method):
    def run(cfg, n, rng):
        p = sample_params(cfg, n, rng)
        if attr == "lambdas":
            q = ModelParams(p.eta, p.zeta, p.theta, _roll(p.lambdas), p.xis)
        else:
            q = ModelParams(p.eta, p.zeta, p.theta, p.lambdas, _roll(p.xis))
        z = _z(method)
        return rel_diff(z(p), z(q))

    return run


def _crossing_runner(method):
    def run(cfg, n, rng):
        i = int(rng.integers(n))
        p = sample_params(cfg, n, rng, extra_guards=_crossing_extra(i))
        q = p.replace_lambda(i, -p.lambdas[i] - p.eta)
        factor = chain_ops.crossing_scalar(p.lambdas[i], p.theta, p.eta, p.zeta)
        z = _z(method)
        za, zb = z(p), z(q)
        return rel_diff(zb, factor * za)

    return run


def _recursion_runner(side):
    """Runner comparing contraction with the recursion right-hand side at the
    pinned point lambda[0] = xi[0] ("lower") or lambda[N-1] = -xi[0] ("upper")."""
    lower = side == "lower"

    def pin(p):
        if lower:
            return p.replace_lambda(0, p.xis[0]), {"lambda[0]-xi[0]"}
        return p.replace_lambda(p.n - 1, -p.xis[0]), {f"lambda[{p.n - 1}]+xi[0]"}

    def run(cfg, n, rng):
        pdeg = _sample_degenerate(cfg, n, rng, pin)
        z_prev = 1.0
        if n > 1:
            lambdas = pdeg.lambdas[1:] if lower else pdeg.lambdas[:-1]
            prev = ModelParams(pdeg.eta, pdeg.zeta, pdeg.theta, lambdas, pdeg.xis[1:])
            z_prev = partition.z_determinant(prev).value
        zb = partition.z_bruteforce(pdeg).value
        return rel_diff(zb, partition.recursion_rhs(pdeg, z_prev, side))

    return run


def _run_degree_bound(cfg, n, rng):
    i = int(rng.integers(n))
    p = sample_params(cfg, n, rng)
    return degree_bound_residual(p, i, rng)


# Chain sizes a case runs at, as a function of the configured n_values.
_WEIGHT_LEVEL = lambda ns: (0,)  # chain-size independent, recorded as n = 0
_EVERY_N = lambda ns: ns
_N1_ONLY = lambda ns: (1,) if 1 in ns else ()
_N_GE_2 = lambda ns: tuple(n for n in ns if n >= 2)

# Every verify case, once: (suite, name, tolerance, sizes, runner), in plan
# order.  The plan index seeds each case, so this order is part of the report.
CASES = (
    ("weights", "dybe", 1e-10, _WEIGHT_LEVEL, _run_dybe),
    ("weights", "unitarity", 1e-12, _WEIGHT_LEVEL, _single_site_runner(weights.check_unitarity)),
    ("weights", "reflection_equation", 1e-11, _WEIGHT_LEVEL, _run_reflection),
    ("weights", "ice_rule", 0.0, _WEIGHT_LEVEL, _single_site_runner(weights.ice_rule_residual)),
    ("weights", "ice_rule_transposed", 0.0, _WEIGHT_LEVEL,
     _single_site_runner(weights.transposed_ice_rule_residual)),
    ("algebra", "exchange_algebra", 1e-9, _EVERY_N,
     _chain_pair_runner(chain_ops.check_exchange_algebra)),
    ("algebra", "double_row_reflection", 1e-9, _EVERY_N,
     _chain_pair_runner(chain_ops.check_double_row_reflection)),
    ("algebra", "b_commutation", 1e-10, _EVERY_N, _chain_pair_runner(chain_ops.check_b_commutation)),
    ("algebra", "monodromy_inverse", 1e-10, _EVERY_N, _run_monodromy_inverse),
    ("algebra", "b_crossing", 1e-9, _EVERY_N, _run_b_crossing),
    ("partition", "closed_form_n1", 1e-12, _N1_ONLY, _run_closed_form_n1),
    ("partition", "det_vs_brute", 1e-9, _EVERY_N, _run_det_vs_brute),
    ("partition", "m_form_equivalence", 1e-11, _EVERY_N, _run_m_form_equivalence),
    ("partition", "lambda_permutation_brute", 1e-10, _N_GE_2, _perm_runner("lambdas", "brute")),
    ("partition", "lambda_permutation_det", 1e-10, _N_GE_2, _perm_runner("lambdas", "det")),
    ("partition", "xi_permutation_brute", 1e-10, _N_GE_2, _perm_runner("xis", "brute")),
    ("partition", "xi_permutation_det", 1e-10, _N_GE_2, _perm_runner("xis", "det")),
    ("partition", "crossing_brute", 1e-9, _EVERY_N, _crossing_runner("brute")),
    ("partition", "crossing_det", 1e-10, _EVERY_N, _crossing_runner("det")),
    ("partition", "recursion_lower", 1e-9, _EVERY_N, _recursion_runner("lower")),
    ("partition", "recursion_upper", 1e-9, _EVERY_N, _recursion_runner("upper")),
    ("partition", "degree_bound", 1e-8, _EVERY_N, _run_degree_bound),
)


def _case_plan(name, cfg):
    """Ordered (case_name, n, tol, runner) entries for a suite, read from
    `CASES`, one per sample; ValueError for a size above a suite's `_MAX_N`.
    Algebra cases are planned size-major (every case at one n, then the next
    n); weights and partition cases case-major.  Weight-level cases are
    chain-size independent and recorded with n = 0."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    n_max = max(cfg.n_values)
    plan = []
    for suite in ("weights", "algebra", "partition"):
        if name not in (suite, "all"):
            continue
        if n_max > _MAX_N.get(suite, n_max):
            raise ValueError(f"{suite} suite: needs N <= {_MAX_N[suite]}, got N = {n_max}")
        rows = [(case, tol, sizes(cfg.n_values), runner)
                for s, case, tol, sizes, runner in CASES if s == suite]
        if suite == "algebra":
            order = [(n, row) for n in cfg.n_values for row in rows if n in row[2]]
        else:
            order = [(n, row) for row in rows for n in row[2]]
        for n, (case, tol, _, runner) in order:
            plan.extend([(case, n, tol, runner)] * cfg.samples_per_case)
    return plan


def run_suite(name, cfg=None):
    """Run one named suite (or "all"); never aborts on a failed check.

    NearSingular raised inside a case triggers a reseeded retry and counts
    as skipped; a case that keeps hitting singular points is recorded as
    failed with an infinite residual rather than silently dropped.
    """
    if cfg is None:
        cfg = SuiteConfig()
    cases = []
    skipped = 0
    for idx, (case_name, n, tol, runner) in enumerate(_case_plan(name, cfg)):
        residual = float("inf")
        for attempt in range(8):
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, idx, attempt))
            )
            try:
                residual = float(runner(cfg, n, rng))
                break
            except NearSingular:
                skipped += 1
        cases.append(CheckReport(case_name, n, residual, tol, residual <= tol))
    summary = {
        "passed": sum(1 for c in cases if c.passed),
        "failed": sum(1 for c in cases if not c.passed),
        "skipped": skipped,
    }
    return SuiteReport(suite=name, seed=cfg.seed, cases=tuple(cases), summary=summary)
