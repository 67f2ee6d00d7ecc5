"""Seeded randomized verification: guarded parameter sampling, identity
suites over every module, and reproducible structured reports.

Sampling strategy: parameters are drawn uniformly from a complex box and
rejection-resampled until every guard denominator family clears a margin.
Two margin tiers are used -- denominators under the large boundary/height
ratios get a wider berth than the generic families -- because residual tails
of the operator identities scale with inverse powers of these margins.  Each
case draws from its own generator seeded by (seed, case index, attempt), so
reports are bit-identical across runs and insensitive to case reordering.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import chain_ops, partition, weights
from .params import (
    ModelParams,
    NearSingular,
    SamplingExhausted,
    guard_violations,
    min_guard_margins,
    rel_diff,
)

DEFAULT_TOLERANCES = {
    "dybe": 1e-10,
    "unitarity": 1e-12,
    "reflection_equation": 1e-11,
    "ice_rule": 0.0,
    "ice_rule_transposed": 0.0,
    "exchange_algebra": 1e-9,
    "double_row_reflection": 1e-9,
    "b_commutation": 1e-10,
    "monodromy_inverse": 1e-10,
    "b_crossing": 1e-9,
    "closed_form_n1": 1e-12,
    "det_vs_brute": 1e-9,
    "m_form_equivalence": 1e-11,
    "lambda_permutation_brute": 1e-10,
    "lambda_permutation_det": 1e-10,
    "xi_permutation_brute": 1e-10,
    "xi_permutation_det": 1e-10,
    "crossing_brute": 1e-9,
    "crossing_det": 1e-10,
    "recursion_lower": 1e-9,
    "recursion_upper": 1e-9,
    "degree_bound": 1e-8,
}

SUITE_NAMES = ("weights", "algebra", "partition", "all")

# Sampler margins relax beyond this chain size (the number of guarded
# argument pairs grows ~N^2, so fixed margins would reject every draw).
_MARGIN_PIVOT_N = 6


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for a verification run.

    `guard_tol` is the sampler margin on |sinh| for the generic denominator
    families and `ratio_guard_tol` the wider margin for the boundary/height
    ratio denominators; both shrink as 6/N beyond N=6 to keep rejection
    sampling feasible.  `tolerances` entries override DEFAULT_TOLERANCES.
    """

    seed: int = 42
    n_values: tuple = (1, 2, 3)
    samples_per_case: int = 25
    tolerances: dict = field(default_factory=dict)
    guard_tol: float = 0.10
    ratio_guard_tol: float = 0.35
    domain: tuple = ((-0.8, 0.8), (-0.8, 0.8))
    max_attempts: int = 5000

    def __post_init__(self):
        if self.samples_per_case < 1:
            raise ValueError("samples_per_case must be >= 1")
        if any(t < 0 for t in self.tolerances.values()):
            raise ValueError("tolerances must be nonnegative")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if any(n < 1 for n in self.n_values):
            raise ValueError("n_values entries must be >= 1")

    def tol(self, name):
        if name in self.tolerances:
            return self.tolerances[name]
        return DEFAULT_TOLERANCES[name]

    def margins(self, n):
        scale = min(1.0, _MARGIN_PIVOT_N / n)
        return self.guard_tol * scale, self.ratio_guard_tol * scale


def sample_params(cfg, n, rng_state, extra_guards=None):
    """Draw a generic ModelParams with N = n from the configured box.

    `extra_guards` maps a candidate instance to extra arguments whose sinh
    must also clear the generic margin (used for checks that evaluate at
    derived points such as -lambda-eta).  Deterministic given the generator
    state; raises SamplingExhausted when the box and margins are incompatible.
    """
    (re_lo, re_hi), (im_lo, im_hi) = cfg.domain
    gen_floor, ratio_floor = cfg.margins(n)
    for _ in range(cfg.max_attempts):
        vals = rng_state.uniform(re_lo, re_hi, 2 * n + 3) + 1j * rng_state.uniform(
            im_lo, im_hi, 2 * n + 3
        )
        p = ModelParams(
            eta=vals[0],
            zeta=vals[1],
            theta=vals[2],
            lambdas=tuple(vals[3 : 3 + n]),
            xis=tuple(vals[3 + n :]),
        )
        gen_min, ratio_min = min_guard_margins(p)
        if gen_min <= gen_floor or ratio_min <= ratio_floor:
            continue
        if extra_guards is not None:
            extra = np.asarray(extra_guards(p), dtype=complex)
            if np.abs(np.sinh(extra)).min() <= gen_floor:
                continue
        return p
    raise SamplingExhausted(
        f"no generic point with N={n} in {cfg.max_attempts} draws "
        f"(margins {gen_floor:g}/{ratio_floor:g}; box {cfg.domain})"
    )


def _crossing_extra(i):
    """Extra guard arguments for checks that evaluate at -lambda_i - eta:
    the crossing-scalar denominators, its numerators (the compared values
    must not be spuriously tiny), and the boundary denominators at the
    image point."""

    def extra(p):
        l = p.lambdas[i]
        return [
            2 * (l + p.eta),
            l - p.zeta + p.eta,
            l - p.theta - p.zeta + p.eta,
            l + p.zeta,
            l + p.zeta + p.theta,
            p.zeta - l - p.eta,
            p.theta + p.zeta - l - p.eta,
        ]

    return extra


def _sample_degenerate(cfg, n, rng, pin):
    """Sample, apply the exact coincidence `pin`, and keep only instances
    whose remaining guard families are still generic."""
    gen_floor, ratio_floor = cfg.margins(n)
    for _ in range(cfg.max_attempts):
        p = sample_params(cfg, n, rng)
        pdeg, skip = pin(p)
        bad = guard_violations(
            pdeg, guard_tol=gen_floor, ratio_guard_tol=ratio_floor, skip=skip
        )
        if not bad:
            return pdeg
    raise SamplingExhausted(f"no usable degenerate instance with N={n}")


def degree_bound_residual(p, i, rng, second_factor="zeta", radius=1.25):
    """Interpolate-and-predict test of the polynomial degree bound.

    Z, normalized by `normalized_z`, must be a polynomial of degree at most
    2N+2 in w = exp(2 lambda_i).  Evaluate at 2N+4 nodes on a circle |w| =
    radius (random rotation), fit a degree-(2N+2) polynomial through the
    first 2N+3 nodes, and return the relative prediction error at the last.
    """
    deg = 2 * p.n + 2
    count = deg + 2
    for _ in range(100):
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        ws = radius * np.exp(1j * (phi0 + 2.0 * np.pi * np.arange(count) / count))
        nodes = [p.replace_lambda(i, np.log(w) / 2.0) for w in ws]
        if any(min(min_guard_margins(q)) <= 1e-3 for q in nodes):
            continue
        ys = np.array(
            [
                partition.normalized_z(
                    q, i, partition.z_determinant(q).value, second_factor
                )
                for q in nodes
            ]
        )
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
    elapsed: float
    config: SuiteConfig

    def to_json(self):
        doc = {
            "suite": self.suite,
            "seed": self.seed,
            "cases": [asdict(c) for c in self.cases],
            "summary": self.summary,
        }
        return json.dumps(doc, indent=2)


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
        factor = partition.crossing_factor(p.lambdas[i], p)
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
        rhs = partition.recursion_rhs_lower if lower else partition.recursion_rhs_upper
        return rel_diff(zb, rhs(pdeg, z_prev))

    return run


def _run_degree_bound(cfg, n, rng):
    i = int(rng.integers(n))
    p = sample_params(cfg, n, rng)
    return degree_bound_residual(p, i, rng)


_WEIGHTS_CASES = (
    ("dybe", _run_dybe),
    ("unitarity", _single_site_runner(weights.check_unitarity)),
    ("reflection_equation", _run_reflection),
    ("ice_rule", _single_site_runner(weights.ice_rule_residual)),
    ("ice_rule_transposed", _single_site_runner(weights.transposed_ice_rule_residual)),
)

_ALGEBRA_CASES = (
    ("exchange_algebra", _chain_pair_runner(chain_ops.check_exchange_algebra)),
    ("double_row_reflection", _chain_pair_runner(chain_ops.check_double_row_reflection)),
    ("b_commutation", _chain_pair_runner(chain_ops.check_b_commutation)),
    ("monodromy_inverse", _run_monodromy_inverse),
    ("b_crossing", _run_b_crossing),
)

_PARTITION_CASES = (
    ("closed_form_n1", _run_closed_form_n1),
    ("det_vs_brute", _run_det_vs_brute),
    ("m_form_equivalence", _run_m_form_equivalence),
    ("lambda_permutation_brute", _perm_runner("lambdas", "brute")),
    ("lambda_permutation_det", _perm_runner("lambdas", "det")),
    ("xi_permutation_brute", _perm_runner("xis", "brute")),
    ("xi_permutation_det", _perm_runner("xis", "det")),
    ("crossing_brute", _crossing_runner("brute")),
    ("crossing_det", _crossing_runner("det")),
    ("recursion_lower", _recursion_runner("lower")),
    ("recursion_upper", _recursion_runner("upper")),
    ("degree_bound", _run_degree_bound),
)


def _case_plan(name, cfg):
    """Ordered (case_name, n, runner) triples for a suite.  Weight-level
    cases are chain-size independent and recorded with n = 0."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    plan = []
    if name in ("weights", "all"):
        for case, runner in _WEIGHTS_CASES:
            for _ in range(cfg.samples_per_case):
                plan.append((case, 0, runner))
    if name in ("algebra", "all"):
        for n in cfg.n_values:
            for case, runner in _ALGEBRA_CASES:
                for _ in range(cfg.samples_per_case):
                    plan.append((case, n, runner))
    if name in ("partition", "all"):
        for case, runner in _PARTITION_CASES:
            if case == "closed_form_n1":
                if 1 in cfg.n_values:
                    for _ in range(cfg.samples_per_case):
                        plan.append((case, 1, runner))
                continue
            for n in cfg.n_values:
                if n == 1 and "_permutation_" in case:
                    continue
                for _ in range(cfg.samples_per_case):
                    plan.append((case, n, runner))
    return plan


def run_suite(name, cfg=None):
    """Run one named suite (or "all"); never aborts on a failed check.

    NearSingular raised inside a case triggers a reseeded retry and counts
    as skipped; a case that keeps hitting singular points is recorded as
    failed with an infinite residual rather than silently dropped.
    """
    if cfg is None:
        cfg = SuiteConfig()
    plan = _case_plan(name, cfg)
    t0 = time.perf_counter()
    cases = []
    skipped = 0
    for idx, (case_name, n, runner) in enumerate(plan):
        tol = float(cfg.tol(case_name))
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
    return SuiteReport(
        suite=name,
        seed=cfg.seed,
        cases=tuple(cases),
        summary=summary,
        elapsed=time.perf_counter() - t0,
        config=cfg,
    )
