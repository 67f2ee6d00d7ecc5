import json

import numpy as np
import pytest

from sosre import chain_ops, partition, verify, weights
from sosre.params import NearSingular, SamplingExhausted, min_guard_margins


def small_cfg(**kw):
    kw.setdefault("seed", 42)
    kw.setdefault("n_values", (1, 2))
    kw.setdefault("samples_per_case", 2)
    return verify.SuiteConfig(**kw)


def test_sample_params_deterministic():
    cfg = verify.SuiteConfig()
    a = verify.sample_params(cfg, 2, np.random.default_rng(42))
    b = verify.sample_params(cfg, 2, np.random.default_rng(42))
    assert a == b
    c = verify.sample_params(cfg, 2, np.random.default_rng(43))
    assert a != c


def test_sample_params_respects_margins():
    cfg = verify.SuiteConfig()
    rng = np.random.default_rng(7)
    for n in (1, 3, 8):
        p = verify.sample_params(cfg, n, rng)
        gen_floor, ratio_floor = cfg.margins(n)
        gen, rat = min_guard_margins(p)
        assert gen > gen_floor and rat > ratio_floor
        (re_lo, re_hi), (im_lo, im_hi) = verify.DOMAIN
        for v in (p.eta, p.zeta, p.theta) + p.lambdas + p.xis:
            assert re_lo <= v.real <= re_hi and im_lo <= v.imag <= im_hi


def test_sample_params_extra_guards():
    cfg = verify.SuiteConfig()
    rng = np.random.default_rng(8)
    extra = verify._crossing_extra(0)
    for _ in range(10):
        p = verify.sample_params(cfg, 2, rng, extra_guards=extra)
        gen_floor, _ = cfg.margins(2)
        assert min(abs(np.sinh(v)) for v in extra(p)) > gen_floor


def test_sampling_exhausted(monkeypatch):
    monkeypatch.setattr(verify, "MAX_ATTEMPTS", 40)
    cfg = verify.SuiteConfig(guard_tol=50.0, ratio_guard_tol=50.0)
    with pytest.raises(SamplingExhausted, match="N=2"):
        verify.sample_params(cfg, 2, np.random.default_rng(0))


def test_margin_scaling():
    cfg = verify.SuiteConfig()
    assert cfg.margins(3) == (cfg.guard_tol, cfg.ratio_guard_tol)
    g12, r12 = cfg.margins(12)
    assert abs(g12 - cfg.guard_tol / 2) < 1e-15
    assert abs(r12 - cfg.ratio_guard_tol / 2) < 1e-15


def test_suite_config_validation():
    for bad in (0, 1.5):
        with pytest.raises(ValueError, match="samples_per_case"):
            verify.SuiteConfig(samples_per_case=bad)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            verify.SuiteConfig(seed=bad)
    for bad in ((0,), (-1,), (1, 2, 0), (), (1.5,), (1.7, 2.2)):
        with pytest.raises(ValueError, match="n_values"):
            verify.SuiteConfig(n_values=bad)
    for name in ("guard_tol", "ratio_guard_tol"):
        for bad in (float("nan"), -1.0, 0.0, float("inf")):
            with pytest.raises(ValueError, match=name):
                verify.SuiteConfig(**{name: bad})
    # the crossing numerators are RATIO rows: under a ratio margin below the
    # generic one they would clear only the ratio floor
    with pytest.raises(ValueError, match="ratio_guard_tol must be >= guard_tol"):
        verify.SuiteConfig(guard_tol=0.3, ratio_guard_tol=0.05)
    assert verify.SuiteConfig(guard_tol=0.2, ratio_guard_tol=0.2).margins(1) == (0.2, 0.2)


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("everything")
    # the partition suite's size limit is checked before any case runs
    for name in ("partition", "all"):
        with pytest.raises(ValueError, match="partition suite: needs N <= 5, got N = 9"):
            verify.run_suite(name, verify.SuiteConfig(n_values=(9,), samples_per_case=1))
    for name in ("weights", "algebra"):
        assert verify._case_plan(name, verify.SuiteConfig(n_values=(9,)))


def test_suite_size_limits_refuse_before_any_case_runs(monkeypatch):
    # above a suite's limit nothing runs, not even the cases at sizes it takes
    def forbidden(*a, **k):
        raise AssertionError("a case ran")

    monkeypatch.setattr(verify, "sample_params", forbidden)
    for name, n, limit in (("algebra", 10, 9), ("partition", 6, 5), ("all", 6, 5)):
        suite = "partition" if name == "all" else name
        with pytest.raises(ValueError, match=f"{suite} suite: needs N <= {limit}, got N = {n}"):
            verify.run_suite(name, verify.SuiteConfig(n_values=(1, n), samples_per_case=1))
    assert verify._case_plan("algebra", verify.SuiteConfig(n_values=(9,)))
    assert verify._case_plan("partition", verify.SuiteConfig(n_values=(5,)))
    assert verify._case_plan("weights", verify.SuiteConfig(n_values=(50,)))


def _crossing_extra_seven(i):
    # the crossing guard's arguments as seven hand-written formulas
    def extra(p):
        l = p.lambdas[i]
        return [2 * (l + p.eta), l - p.zeta + p.eta, l - p.theta - p.zeta + p.eta, l + p.zeta,
                l + p.zeta + p.theta, p.zeta - l - p.eta, p.theta + p.zeta - l - p.eta]

    return extra


def test_crossing_guard_decides_as_the_seven_argument_list():
    # the three table rows at -lambda_i - eta accept exactly the candidates
    # the seven formulas accept: two of those are the rows negated, and two
    # are the instance's RATIO rows, held by ratio_guard_tol >= guard_tol
    cfg = verify.SuiteConfig()
    assert cfg.ratio_guard_tol >= cfg.guard_tol
    decisions = []
    for n in range(1, 6):
        gen_floor, _ = cfg.margins(n)
        for seed in range(120):
            rng = np.random.default_rng((seed, n))
            i = int(rng.integers(n))
            new, old = verify._crossing_extra(i), _crossing_extra_seven(i)

            def both(p):
                decisions.append([float(np.abs(np.sinh(np.asarray(f(p), complex))).min()) > gen_floor
                                  for f in (new, old)])
                return new(p)

            verify.sample_params(cfg, n, rng, extra_guards=both)
    assert all(a == b for a, b in decisions)
    assert sum(not a for a, _ in decisions) >= 5


def test_weights_suite_never_builds_chain_operators(monkeypatch):
    def forbidden(*a, **k):
        raise AssertionError("weight-level suite reached into chain operators")

    for name in (
        "_apply_bulk", "_apply_hat", "double_row_full", "b_operator", "gamma_hat",
        "crossing_scalar", "check_exchange_algebra",
        "check_double_row_reflection", "check_b_commutation",
        "check_monodromy_inverse", "check_b_crossing",
    ):
        monkeypatch.setattr(chain_ops, name, forbidden)
    report = verify.run_suite("weights", small_cfg())
    assert report.summary["failed"] == 0
    assert {c.name for c in report.cases} == {
        "dybe", "unitarity", "reflection_equation", "ice_rule",
        "ice_rule_transposed",
    }


def test_all_suite_passes_small():
    report = verify.run_suite("all", small_cfg())
    assert report.summary["failed"] == 0
    assert report.summary["passed"] == len(report.cases)
    names = {c.name for c in report.cases}
    assert names == {row[1] for row in verify.CASES}
    # weight-level cases carry no chain size; permutation cases need n >= 2
    for c in report.cases:
        if c.name in ("dybe", "unitarity", "reflection_equation", "ice_rule",
                      "ice_rule_transposed"):
            assert c.n == 0
        if "_permutation_" in c.name:
            assert c.n >= 2


def test_plan_order_is_pinned():
    # the plan index seeds every case, so this order is part of the report
    report = verify.run_suite(
        "all", verify.SuiteConfig(n_values=(1, 2, 3), samples_per_case=1)
    )
    algebra = [("exchange_algebra", 1e-9), ("double_row_reflection", 1e-9),
               ("b_commutation", 1e-10), ("monodromy_inverse", 1e-10),
               ("b_crossing", 1e-9)]
    expected = [
        ("dybe", 0, 1e-10), ("unitarity", 0, 1e-12), ("reflection_equation", 0, 1e-11),
        ("ice_rule", 0, 0.0), ("ice_rule_transposed", 0, 0.0),
        *[(name, 1, tol) for name, tol in algebra],
        *[(name, 2, tol) for name, tol in algebra],
        *[(name, 3, tol) for name, tol in algebra],
        ("closed_form_n1", 1, 1e-12),
        ("det_vs_brute", 1, 1e-9), ("det_vs_brute", 2, 1e-9), ("det_vs_brute", 3, 1e-9),
        ("m_form_equivalence", 1, 1e-11), ("m_form_equivalence", 2, 1e-11),
        ("m_form_equivalence", 3, 1e-11),
        ("lambda_permutation_brute", 2, 1e-10), ("lambda_permutation_brute", 3, 1e-10),
        ("lambda_permutation_det", 2, 1e-10), ("lambda_permutation_det", 3, 1e-10),
        ("xi_permutation_brute", 2, 1e-10), ("xi_permutation_brute", 3, 1e-10),
        ("xi_permutation_det", 2, 1e-10), ("xi_permutation_det", 3, 1e-10),
        ("crossing_brute", 1, 1e-9), ("crossing_brute", 2, 1e-9), ("crossing_brute", 3, 1e-9),
        ("crossing_det", 1, 1e-10), ("crossing_det", 2, 1e-10), ("crossing_det", 3, 1e-10),
        ("recursion_lower", 1, 1e-9), ("recursion_lower", 2, 1e-9),
        ("recursion_lower", 3, 1e-9),
        ("recursion_upper", 1, 1e-9), ("recursion_upper", 2, 1e-9),
        ("recursion_upper", 3, 1e-9),
        ("degree_bound", 1, 1e-8), ("degree_bound", 2, 1e-8), ("degree_bound", 3, 1e-8),
    ]
    assert [(c.name, c.n, c.tol) for c in report.cases] == expected


def test_corrupted_weight_is_detected(monkeypatch):
    # flip the sign of one vertex weight in the one kernel every weight
    # comes from: every identity that exercises it must fail, and the
    # report must still be produced
    original = weights._cell_weights

    def crooked(*args):
        a, b_plus, b_minus, c_plus, c_minus = original(*args)
        return a, b_plus, b_minus, -c_plus, c_minus

    monkeypatch.setattr(weights, "_cell_weights", crooked)
    report = verify.run_suite("all", small_cfg())
    failed = {c.name for c in report.cases if not c.passed}
    assert "dybe" in failed
    assert "det_vs_brute" in failed
    assert report.summary["failed"] > 0
    # the kernel-form comparison never touches vertex weights
    assert all(c.passed for c in report.cases if c.name == "m_form_equivalence")


def test_near_singular_retries_count_as_skipped(monkeypatch):
    def always_singular(p):
        raise NearSingular("synthetic")

    monkeypatch.setattr(partition, "z_bruteforce", always_singular)
    cfg = verify.SuiteConfig(seed=1, n_values=(2,), samples_per_case=1)
    report = verify.run_suite("partition", cfg)
    by_name = {c.name: c for c in report.cases}
    assert not by_name["det_vs_brute"].passed
    assert by_name["det_vs_brute"].residual == float("inf")
    assert report.summary["skipped"] >= 8
    # determinant-only cases are unaffected
    assert by_name["m_form_equivalence"].passed
    assert by_name["crossing_det"].passed


def test_report_json_schema():
    report = verify.run_suite("weights", small_cfg(samples_per_case=1))
    doc = json.loads(report.to_json())
    assert sorted(doc.keys()) == ["cases", "seed", "suite", "summary"]
    assert doc["suite"] == "weights" and doc["seed"] == 42
    assert sorted(doc["summary"].keys()) == ["failed", "passed", "skipped"]
    for case in doc["cases"]:
        assert sorted(case.keys()) == ["n", "name", "passed", "residual", "tol"]
        assert isinstance(case["n"], int)
        assert isinstance(case["passed"], bool)
        assert case["passed"] == (case["residual"] <= case["tol"])


def test_report_reproducible():
    a = verify.run_suite("all", small_cfg()).to_json()
    b = verify.run_suite("all", small_cfg()).to_json()
    assert a == b
    c = verify.run_suite("all", small_cfg(seed=43)).to_json()
    assert a != c
