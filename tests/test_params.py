import dataclasses
import inspect
import pickle
import warnings

import numpy as np
import pytest

from sosre import chain_ops, params, partition, verify, weights
from sosre.params import (
    InvariantViolation,
    ModelParams,
    NearSingular,
    ParseError,
    guard_tol_default,
    guard_violations,
    min_guard_margins,
    rel_diff,
    require_all_nonsingular,
    require_nonsingular,
    site_pairs,
    validate_params,
)


def test_model_params_coercion():
    p = ModelParams(eta=1, zeta=0.5, theta=2, lambdas=[0.3, 1], xis=(0.2, 0.4))
    assert p.n == 2
    assert isinstance(p.lambdas, tuple) and p.lambdas[1] == 1 + 0j
    assert p.eta == 1 + 0j
    assert p.lambdas_array().dtype == complex


def test_model_params_structural_errors():
    with pytest.raises(InvariantViolation, match="at least one"):
        ModelParams(0.7, 1.1, 0.9, (), ())
    with pytest.raises(InvariantViolation, match="equal length"):
        ModelParams(0.7, 1.1, 0.9, (0.3,), (0.2, 0.4))
    with pytest.raises(InvariantViolation, match="finite"):
        ModelParams(np.nan, 1.1, 0.9, (0.3,), (0.2,))
    with pytest.raises(InvariantViolation, match="finite"):
        ModelParams(0.7, 1.1, 0.9, (np.inf,), (0.2,))
    with pytest.raises(InvariantViolation, match="sequence of numbers"):
        ModelParams(0.7, 1.1, 0.9, 0.3, (0.2,))


_FIELDS = {"eta": 0.7, "zeta": 1.1, "theta": 0.9, "lambdas": (0.3, 0.5), "xis": (0.2, 0.4)}


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", sorted(_FIELDS))
def test_model_params_nonfinite_entries(field, bad, part):
    # the second entry of lambdas and xis
    value = complex(bad, 0.4) if part == "real" else complex(0.4, bad)
    fields = dict(_FIELDS)
    fields[field] = (fields[field][0], value) if isinstance(fields[field], tuple) else value
    with pytest.raises(InvariantViolation, match="finite"):
        ModelParams(**fields)


def _squares_bytes(p):
    sq, c, mod, r = p.squares
    return sq.tobytes(), c, mod, r.tobytes()


def test_cached_instance_data(monkeypatch):
    p = ModelParams(**_FIELDS)
    for v in (p.lambdas_array(), p.xis_array(), p.squares[0]):
        with pytest.raises(ValueError, match="read-only"):
            v[...] = 0
    assert isinstance(p.guard_table, tuple) and p.guard_table is p.guard_table
    # derived instances compute their own data, not the cache they came from
    fresh = lambda q: ModelParams(q.eta, q.zeta, q.theta, q.lambdas, q.xis)
    for q in (p.replace_lambda(1, 0.6), p.drop_site(0),
              dataclasses.replace(p, eta=0.65), dataclasses.replace(p, xis=(0.25, 0.4))):
        assert _squares_bytes(q) == _squares_bytes(fresh(q)) != _squares_bytes(p)
        assert np.array_equal(q.lambdas_array(), np.array(q.lambdas))
    # equality and hashing see the fields only
    warm, cold = p, fresh(p)
    assert warm == cold and hash(warm) == hash(cold)
    assert "squares" in vars(warm) and "squares" not in vars(cold)
    assert pickle.loads(pickle.dumps(warm)) == warm
    # compute's path, load_model_params (validate_params) then z_determinant
    # on the same instance, computes the squares and the guard table once
    calls = {"sinh_squares": 0, "guard_families": 0}
    for name in calls:
        inner = getattr(params, name)

        def counting(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(params, name, counting)
    q = p.replace_lambda(0, 0.35)
    validate_params(q)
    partition.z_determinant(q)
    assert calls == {"sinh_squares": 1, "guard_families": 1}


def test_replace_and_drop():
    p = ModelParams(0.7, 1.1, 0.9, (0.3, 0.5), (0.2, 0.4))
    q = p.replace_lambda(1, 0.6)
    assert q.lambdas == (0.3 + 0j, 0.6 + 0j) and q.xis == p.xis
    assert p.lambdas[1] == 0.5 + 0j  # original untouched
    r = p.drop_site(0)
    assert r.n == 1 and r.lambdas == (0.5 + 0j,) and r.xis == (0.4 + 0j,)


def test_rel_diff():
    assert rel_diff(0.0, 0.0) == 0.0
    assert rel_diff(1.0, 1.0) == 0.0
    assert abs(rel_diff(1e300, 2e300) - 0.5) < 1e-15
    assert abs(rel_diff(1e-300, 2e-300) - 0.5) < 1e-15
    assert rel_diff(1 + 1j, 1 + 1j) == 0.0


def test_guard_tol_env(monkeypatch):
    monkeypatch.delenv(params.GUARD_ENV_VAR, raising=False)
    assert guard_tol_default() == params.DEFAULT_GUARD_TOL
    monkeypatch.setenv(params.GUARD_ENV_VAR, "1e-3")
    assert guard_tol_default() == 1e-3
    monkeypatch.setenv(params.GUARD_ENV_VAR, "lots")
    with pytest.raises(ParseError):
        guard_tol_default()
    monkeypatch.setenv(params.GUARD_ENV_VAR, "-1")
    with pytest.raises(ParseError):
        guard_tol_default()
    monkeypatch.setenv(params.GUARD_ENV_VAR, "inf")
    with pytest.raises(ParseError):
        guard_tol_default()


def test_validate_params_names_offenders():
    p = ModelParams(0.7, 1.1, 0.9, (-1.1, 0.5), (0.2, 0.4))
    with pytest.raises(InvariantViolation, match=r"zeta\+lambda\[0\]"):
        validate_params(p)
    q = ModelParams(0.7, 1.1, 1e-9, (0.3, 0.5), (0.2, 0.4))
    with pytest.raises(InvariantViolation, match=r"theta\+0\*eta"):
        validate_params(q)
    r = ModelParams(0.7, 1.1, 0.9, (0.3, 0.3), (0.2, 0.4))
    with pytest.raises(InvariantViolation, match=r"lambda\[0\]-lambda\[1\]"):
        validate_params(r)


def test_guard_violations_skip():
    p = ModelParams(0.7, 1.1, 0.9, (0.2, 0.5), (0.2, 0.4))
    bad = guard_violations(p)
    assert "lambda[0]-xi[0]" in bad
    assert "lambda[0]-xi[0]" not in guard_violations(p, skip={"lambda[0]-xi[0]"})


def test_min_guard_margins_consistent():
    rng = np.random.default_rng(110)
    p = verify.sample_params(verify.SuiteConfig(), 3, rng)
    gen, rat = min_guard_margins(p, 1.0)
    assert 0 < gen <= 1.0 and rat > 0  # at or below the tolerance: exact
    # any tolerance below both margins admits the point
    assert guard_violations(p, guard_tol=gen * 0.99, ratio_guard_tol=rat * 0.99) == []
    assert len(guard_violations(p, guard_tol=gen * 1.01, ratio_guard_tol=rat * 1.01)) >= 1
    # below the generic margin only its side of the tolerance is known
    low, rat_low = min_guard_margins(p, gen * 0.99)
    assert low > gen * 0.99 and rat_low == rat


def test_no_per_call_guard_tolerance():
    # evaluations read the one tolerance, SOS_GUARD_TOL, at each guard; only
    # guard_violations, which the sampler drives with its margins, takes one
    for module in (params, weights, chain_ops, partition):
        public = [fn for name, fn in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__ and name != "guard_violations"]
        assert public
        for fn in public:
            assert "guard_tol" not in inspect.signature(fn).parameters, f"{module.__name__}.{fn.__name__}"
    assert list(inspect.signature(validate_params).parameters) == ["p"]
    assert list(inspect.signature(partition.z_determinant).parameters) == ["p"]


def test_require_nonsingular():
    require_nonsingular("anything", 0.5)
    with pytest.raises(NearSingular, match="2\\*lambda"):
        require_nonsingular("2*lambda", 1e-9)
    with pytest.raises(NearSingular, match="family\\[3\\]"):
        require_all_nonsingular(
            lambda k: f"family[{k}]", np.array([1.0, 0.5, 0.25, 1e-12])
        )
    require_all_nonsingular(lambda k: "none", np.array([]))


def test_require_nonsingular_returns_the_sinh_it_checked(monkeypatch):
    monkeypatch.delenv("SOS_GUARD_TOL", raising=False)
    for value in (0.5, 1, 0.3 - 1.2j, np.complex128(-2.1 + 0.4j), np.float64(1e-5)):
        s = require_nonsingular("x", value)
        want = np.sinh(complex(value))
        assert type(s) is type(want) is np.complex128
        assert s.tobytes() == want.tobytes()
    with pytest.raises(NearSingular) as err:
        require_nonsingular("theta-2*eta", 1e-9 - 1e-13j)
    assert str(err.value) == "denominator sinh(theta-2*eta) = 1.000e-09-1.000e-13j has |sinh| <= 1e-06"


def _with(p, lam=None, xi=None, theta=None):
    # p with lambda_i / xi_i given as (i, value) replaced, or a new theta
    lams, xis = list(p.lambdas), list(p.xis)
    if lam is not None:
        lams[lam[0]] = lam[1]
    if xi is not None:
        xis[xi[0]] = xi[1]
    return ModelParams(p.eta, p.zeta, p.theta if theta is None else theta, lams, xis)


# one entry of every guard family pinned to ~1e-9: (tier, label, pin)
_PINS = [
    ("generic", "zeta-lambda[1]", lambda p, d: _with(p, lam=(1, p.zeta - d))),
    ("generic", "theta+zeta-lambda[2]", lambda p, d: _with(p, lam=(2, p.theta + p.zeta - d))),
    ("generic", "2*lambda[0]", lambda p, d: _with(p, lam=(0, d / 2))),
    ("generic", "lambda[2]-xi[1]", lambda p, d: _with(p, lam=(2, p.xis[1] + d))),
    ("generic", "lambda[1]+xi[2]", lambda p, d: _with(p, lam=(1, -p.xis[2] + d))),
    ("generic", "lambda[0]-xi[2]+eta", lambda p, d: _with(p, lam=(0, p.xis[2] - p.eta + d))),
    ("generic", "lambda[2]+xi[0]+eta", lambda p, d: _with(p, lam=(2, -p.xis[0] - p.eta + d))),
    ("generic", "lambda[1]+lambda[1]+eta", lambda p, d: _with(p, lam=(1, (d - p.eta) / 2))),
    ("generic", "lambda[0]-lambda[2]", lambda p, d: _with(p, lam=(0, p.lambdas[2] + d))),
    ("generic", "lambda[1]+lambda[2]", lambda p, d: _with(p, lam=(1, -p.lambdas[2] + d))),
    ("generic", "xi[0]-xi[1]", lambda p, d: _with(p, xi=(0, p.xis[1] + d))),
    ("generic", "xi[1]+xi[2]", lambda p, d: _with(p, xi=(1, -p.xis[2] + d))),
    ("ratio", "theta-2*eta", lambda p, d: _with(p, theta=2 * p.eta + d)),
    ("ratio", "zeta+lambda[2]", lambda p, d: _with(p, lam=(2, -p.zeta + d))),
    ("ratio", "theta+zeta+lambda[0]", lambda p, d: _with(p, lam=(0, -p.theta - p.zeta + d))),
]


def test_pins_cover_every_family():
    p = verify.sample_params(verify.SuiteConfig(), 3, np.random.default_rng(111))
    rows = params.guard_families(p)
    assert len(rows) == len(_PINS) == 15
    assert [tier for tier, *_ in rows] == [tier for tier, _, _ in _PINS]


@pytest.mark.parametrize("tier,label,pin", _PINS, ids=[label for _, label, _ in _PINS])
def test_every_guard_family_is_named(tier, label, pin):
    p = verify.sample_params(verify.SuiteConfig(), 3, np.random.default_rng(111))
    validate_params(p)
    q = pin(p, 1e-9)
    with pytest.raises(InvariantViolation) as err:
        validate_params(q)
    assert str(err.value).endswith(f" at: {label}")
    # the pin is seen only through the tolerance of its own tier
    own, other = (1e-6, 1e-12) if tier == params.GENERIC else (1e-12, 1e-6)
    assert guard_violations(q, guard_tol=own, ratio_guard_tol=other) == [label]
    assert guard_violations(q, guard_tol=other, ratio_guard_tol=own) == []


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_site_pairs_are_shared_and_read_only(n):
    a, b = site_pairs(n)
    want_a, want_b = np.triu_indices(n, 1)
    assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
    assert site_pairs(n)[0] is a
    for v in (a, b):
        with pytest.raises(ValueError, match="read-only"):
            v[...] = 0


def _reference_min_guard_margins(p, tol=None):
    # every row evaluated in full: the exact margins, which meet
    # `min_guard_margins`' contract at any generic tolerance `tol`, so the
    # reference can stand in for it
    low = {params.GENERIC: np.inf, params.RATIO: np.inf}
    for f in params.guard_families(p):
        low[f.tier] = min(low[f.tier], np.abs(np.sinh(f.args())).min(initial=np.inf))
    return float(low[params.GENERIC]), float(low[params.RATIO])


def _reference_guard_violations(p, guard_tol=None, ratio_guard_tol=None, skip=()):
    # every row evaluated in full: the labels before the sinh^2 prefilter
    tol = guard_tol_default() if guard_tol is None else guard_tol
    rtol = tol if ratio_guard_tol is None else ratio_guard_tol
    out = []
    for f in params.guard_families(p):
        t = tol if f.tier == params.GENERIC else rtol
        for k in np.flatnonzero(np.abs(np.sinh(f.args())) <= t):
            label = f.name(int(k))
            if label not in skip:
                out.append(label)
    return out


def _assert_margins_contract(p, tols, want):
    # `min_guard_margins` at each generic tolerance against the exact
    # margins `want`: the ratio margin exact, the generic one exact at or
    # below the tolerance and above it otherwise
    for tol in tols:
        gen, rat = min_guard_margins(p, tol)
        assert rat == want[1]
        assert gen == want[0] if want[0] <= tol else gen > tol


def _assert_matches_full_evaluation(p):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_min_guard_margins(p)
        refs = {tols: _reference_guard_violations(p, *tols)
                for tols in ((None, None), (0.1, 0.35), (1e-3, None), want)}
    # at the margin itself, and just under it, the answer flips
    _assert_margins_contract(p, (guard_tol_default(), 1e-3, 0.1, want[0],
                                 np.nextafter(want[0], 0)), want)
    for tols, labels in refs.items():
        assert guard_violations(p, *tols) == labels
        skip = set(labels[::2])
        assert guard_violations(p, *tols, skip=skip) == [l for l in labels if l not in skip]


def _draw(rng, n, scale=1.0, shift=0.0):
    # uniform over the sampler's box times `scale`, every lambda moved by `shift`
    v = scale * (rng.uniform(-0.8, 0.8, 2 * n + 3) + 1j * rng.uniform(-0.8, 0.8, 2 * n + 3))
    return ModelParams(v[0], v[1], v[2], tuple(v[3:3 + n] + shift), tuple(v[3 + n:]))


_BOXES = {"default": (1.0, 0.0), "4x": (4.0, 0.0), "i*pi": (1.0, 1j * np.pi),
          "re-lambda-300": (1.0, 300.0)}


@pytest.mark.parametrize("box", sorted(_BOXES))
@pytest.mark.parametrize("n", [*range(1, 13), 50, 200, 400])
def test_guard_margins_match_full_evaluation(n, box, monkeypatch):
    monkeypatch.delenv(params.GUARD_ENV_VAR, raising=False)
    rng = np.random.default_rng([n, sorted(_BOXES).index(box)])
    for _ in range(4 if n <= 12 else 1):
        _assert_matches_full_evaluation(_draw(rng, n, *_BOXES[box]))


# one entry of every grid and pair row pinned to delta: (label, pin)
_PAIR_PINS = [
    ("lambda[2]-xi[1]", lambda p, d: _with(p, lam=(2, p.xis[1] + d))),
    ("lambda[1]+xi[2]", lambda p, d: _with(p, lam=(1, -p.xis[2] + d))),
    ("lambda[0]-xi[2]+eta", lambda p, d: _with(p, lam=(0, p.xis[2] - p.eta + d))),
    ("lambda[2]+xi[0]+eta", lambda p, d: _with(p, lam=(2, -p.xis[0] - p.eta + d))),
    ("lambda[1]+lambda[1]+eta", lambda p, d: _with(p, lam=(1, -p.eta / 2 + d))),
    ("lambda[0]+lambda[2]+eta", lambda p, d: _with(p, lam=(2, -p.lambdas[0] - p.eta + d))),
    ("lambda[0]-lambda[2]", lambda p, d: _with(p, lam=(0, p.lambdas[2] + d))),
    ("lambda[1]+lambda[2]", lambda p, d: _with(p, lam=(1, -p.lambdas[2] + d))),
    ("xi[0]-xi[1]", lambda p, d: _with(p, xi=(0, p.xis[1] + d))),
    ("xi[1]+xi[2]", lambda p, d: _with(p, xi=(1, -p.xis[2] + d))),
]


@pytest.mark.parametrize("delta", [0.0, 1e-9, 9.99e-7, 1.001e-6])
@pytest.mark.parametrize("label,pin", _PAIR_PINS, ids=[label for label, _ in _PAIR_PINS])
def test_guard_margins_match_full_evaluation_at_pins(label, pin, delta, monkeypatch):
    monkeypatch.delenv(params.GUARD_ENV_VAR, raising=False)
    for seed in (112, 113):
        p = verify.sample_params(verify.SuiteConfig(), 4, np.random.default_rng(seed))
        q = pin(p, delta)
        _assert_matches_full_evaluation(q)
        if delta <= 1e-9:  # the pin is seen
            assert label in guard_violations(q)


# each grid and pair row's own sinh^2 difference, the one that holds its
# argument as a factor: (minuend, subtrahend) rows of the squares
# (w_eta, w, q, y) = sinh^2 of (lambda+eta, lambda, lambda+eta/2, xi)
_OWN_DIFFERENCE = {"lambda-xi": (1, 3), "lambda+xi": (1, 3), "lambda-xi+eta": (0, 3),
                   "lambda+xi+eta": (0, 3), "lambda+lambda+eta": (2, 2),
                   "lambda-lambda": (1, 1), "lambda+lambda": (1, 1),
                   "xi-xi": (3, 3), "xi+xi": (3, 3)}


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
@pytest.mark.parametrize("n", [16, 200, 400])
def test_scan_evaluates_each_row_where_its_own_difference_keeps_it(n, tol):
    p = verify.sample_params(verify.SuiteConfig(), n, np.random.default_rng((7, n)))
    sq, c, mod, _ = p.squares
    diffs = list(zip(params._MINUEND.tolist(), params._SUBTRAHEND.tolist()))
    d = {ms: np.abs(sq[ms[0]][:, None] - sq[ms[1]]) for ms in diffs}
    a, b = np.triu_indices(n, 1)
    want = {}
    for key, ms in _OWN_DIFFERENCE.items():
        keep = ~(d[ms] > params.prefilter_threshold(c[diffs.index(ms)], tol, mod))
        i, j = keep.nonzero()
        if key in ("lambda-lambda", "lambda+lambda", "xi-xi", "xi+xi"):
            k = keep[a, b].nonzero()[0]
            i, j = a[k], b[k]
        if i.size:
            want[key] = list(zip(i.tolist(), j.tolist()))
    _, rows, _ = params._scan(p, tol)
    got = {f.key: list(zip(*(v.tolist() for v in sites))) for _, f, sites in rows if sites}
    assert got == want


@pytest.mark.parametrize("lambda_0", [200.0, 400.0])
def test_guard_functions_raise_no_numpy_warnings(lambda_0, monkeypatch):
    # the README example with lambda_0 varied: sinh^2 overflows from Re ~ 355
    # and sinh from Re ~ 710, to inf and without a warning
    monkeypatch.delenv(params.GUARD_ENV_VAR, raising=False)
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83, lambdas=(lambda_0, 0.47), xis=(0.24, 0.11))
    with np.errstate(over="ignore"):
        margins, labels = _reference_min_guard_margins(p), _reference_guard_violations(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_params(p)
        assert guard_violations(p) == labels
        _assert_margins_contract(p, (guard_tol_default(), margins[0]), margins)


def test_sampler_draws_match_full_evaluation(monkeypatch):
    # det_large's inputs at N = 50 and 200, seed 1, and N = 800, seeds 1 and
    # 2 (perfbench/workloads.py): the draws the sampler keeps with every row
    # evaluated in full
    large = verify.SuiteConfig(guard_tol=0.01, ratio_guard_tol=0.035)
    configs = {(1, 50): verify.SuiteConfig(), (1, 200): large, (1, 800): large, (2, 800): large}
    rng = lambda seed, n: np.random.default_rng(np.random.SeedSequence((seed, n)))
    draw = lambda: {k: verify.sample_params(cfg, k[1], rng(*k)) for k, cfg in configs.items()}
    got = draw()
    monkeypatch.setattr(verify, "min_guard_margins", _reference_min_guard_margins)
    assert got == draw()


# the sampler at the suite's margins and at the benchmark's large-N ones
_SAMPLERS = (verify.SuiteConfig(), verify.SuiteConfig(guard_tol=0.01, ratio_guard_tol=0.035))


def _assert_decides_as_guard_violations(p, cfg):
    # the sampler's test, the margins at its own generic floor against its
    # floors, rejects p exactly when guard_violations at those floors names
    # an argument; returns whether it does
    gen_floor, ratio_floor = cfg.margins(p.n)
    gen, rat = min_guard_margins(p, gen_floor)
    rejected = gen <= gen_floor or rat <= ratio_floor
    assert rejected == bool(guard_violations(p, gen_floor, ratio_floor))
    return rejected


@pytest.mark.parametrize("n", [*range(1, 9), 16, 50, 200, 800])
def test_margins_decide_as_guard_violations_on_raw_draws(n):
    # raw draws from the sampler's box, the ones it rejects included
    rng = np.random.default_rng((17, n))
    draws = [_draw(rng, n) for _ in range(40 if n <= 16 else 3)]
    rejected = [_assert_decides_as_guard_violations(p, cfg) for p in draws for cfg in _SAMPLERS]
    assert any(rejected)
    if n <= 16:
        assert not all(rejected)


# sorted-side instances at N = 400: a raw draw, each pair pin at each
# distance, lambda_0 at Re 200 (finite squares), 360 (an infinite square)
# and 400 (infinite thresholds too), and every lambda moved by +15, where
# the sinh^2 bounds clear nothing
_SORTED_N = 400
_SORTED_CASES = {
    "draw": lambda p: p,
    **{f"{label}@{delta:g}": lambda p, pin=pin, delta=delta: pin(p, delta)
       for label, pin in _PAIR_PINS for delta in (0.0, 1e-9, 9.99e-7, 1.001e-6)},
    **{f"lambda_0={v:g}": lambda p, v=v: p.replace_lambda(0, v) for v in (200.0, 360.0, 400.0)},
    "lambda+15": lambda p: dataclasses.replace(p, lambdas=tuple(np.add(p.lambdas, 15.0))),
}


@pytest.mark.parametrize("case", sorted(_SORTED_CASES))
def test_sorted_and_dense_searches_find_the_same_sites(case, monkeypatch):
    assert _SORTED_N >= params._SORTED_SCAN_N
    monkeypatch.delenv(params.GUARD_ENV_VAR, raising=False)
    p = _SORTED_CASES[case](_draw(np.random.default_rng(5), _SORTED_N))
    with np.errstate(over="ignore", invalid="ignore"):
        for tol in (1e-6, 1e-3, 0.1):
            dense = params._dense_sites(p.squares, tol)
            found = params._sorted_sites(p.squares, tol)
            assert len(dense) == len(found) == len(params.FACTORS)
            for (i, j), (i2, j2) in zip(dense, found):
                assert i.tolist() == i2.tolist() and j.tolist() == j2.tolist()
    for cfg in _SAMPLERS:
        _assert_decides_as_guard_violations(p, cfg)
    if case.startswith("lambda_0"):  # the public functions warn of no overflow
        _assert_matches_full_evaluation(p)


@pytest.mark.parametrize("angle", [0, 1, 2, 3])
def test_range_search_finds_entries_at_its_threshold(angle):
    # a_i = b_j + s along an axis, and the threshold t exactly the computed
    # |a_i - b_j|: the search must find the entry although a_i and b_j round
    rng = np.random.default_rng(angle)
    n = 400
    b = 4 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    j = rng.permutation(n)
    a = b[j] + 1j**angle * rng.uniform(1e-3, 2e-3, n)
    d = np.abs(a - b[j])
    for i in range(0, n, 7):
        k, found = params._near(a, b, float(d[i]))
        assert i * n + j[i] in k.tolist()
        want = np.flatnonzero(~(np.abs(a[:, None] - b) > d[i]))
        assert set(want.tolist()) <= set(k.tolist())
        assert found.tolist() == np.abs(a[k // n] - b[k % n]).tolist()
    for v in (np.inf, np.nan, complex(0, np.nan)):  # a value not finite: every entry
        assert params._near(a, np.append(b[1:], v), 1e-3) is None
        assert params._near(np.append(a[1:], v), b, 1e-3) is None


def test_guard_table_change_reaches_every_reader(monkeypatch):
    # a zeta-lambda row with a root at v_star, where the model's own table
    # has none: the sweep's guard decides by the table's rows, as
    # validate_params does, and the crossing sampler's extra arguments are
    # the image instance's own table entries
    table = params.guard_families
    v_star, v_ok, i = complex(0.41, -0.27), complex(-0.33, 0.52), 3

    def patched(p):
        lam = p.lambdas_array()
        return [f._replace(args=lambda v=lam: v - v_star) if f.key == "zeta-lambda" else f
                for f in table(p)]

    monkeypatch.setattr(params, "guard_families", patched)
    p = verify.sample_params(verify.SuiteConfig(), 8, np.random.default_rng(31))
    validate_params(p)
    with monkeypatch.context() as m:
        m.setattr(params, "guard_families", table)
        assert min(min_guard_margins(p.replace_lambda(i, v_star), 0.05)) > 0.05
    want = [bool(guard_violations(p.replace_lambda(i, v))) for v in (v_star, v_ok)]
    assert want == [True, False]
    assert params.fails_at_lambda(p, i, [v_star, v_ok])[0].tolist() == want
    q = p.replace_lambda(i, -p.lambdas[i] - p.eta)
    image = [f.args()[i] for f in q.guard_table
             if f.key in ("2*lambda", "zeta+lambda", "theta+zeta+lambda")]
    extra = verify._crossing_extra(i)(p)
    assert np.abs(np.sinh(extra)).tolist() == np.abs(np.sinh(image)).tolist()
