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
    cfg = verify.SuiteConfig(guard_tol=50.0)
    with pytest.raises(SamplingExhausted, match="N=2"):
        verify.sample_params(cfg, 2, np.random.default_rng(0))


def test_margin_scaling():
    cfg = verify.SuiteConfig()
    assert cfg.margins(3) == (cfg.guard_tol, cfg.ratio_guard_tol)
    g12, r12 = cfg.margins(12)
    assert abs(g12 - cfg.guard_tol / 2) < 1e-15
    assert abs(r12 - cfg.ratio_guard_tol / 2) < 1e-15


def test_suite_config_validation():
    with pytest.raises(ValueError):
        verify.SuiteConfig(samples_per_case=0)
    with pytest.raises(ValueError, match="seed"):
        verify.SuiteConfig(seed=-1)
    for bad in ((0,), (-1,), (1, 2, 0), (), (1.5,), (1.7, 2.2)):
        with pytest.raises(ValueError, match="n_values"):
            verify.SuiteConfig(n_values=bad)


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("everything")


def test_weights_suite_never_builds_chain_operators(monkeypatch):
    def forbidden(*a, **k):
        raise AssertionError("weight-level suite reached into chain operators")

    for name in (
        "bulk_full", "hat_monodromy", "double_row_full", "b_operator", "gamma_hat",
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
    # flip the sign of one vertex weight: every identity that exercises it
    # must fail, and the report must still be produced
    original = weights.face_weights

    def crooked(lam, theta, eta):
        w = original(lam, theta, eta)
        return weights.FaceWeightSet(w.a, w.b_plus, w.b_minus, -w.c_plus, w.c_minus)

    monkeypatch.setattr(weights, "face_weights", crooked)
    report = verify.run_suite("all", small_cfg())
    failed = {c.name for c in report.cases if not c.passed}
    assert "dybe" in failed
    assert "det_vs_brute" in failed
    assert report.summary["failed"] > 0
    # the kernel-form comparison never touches vertex weights
    assert all(c.passed for c in report.cases if c.name == "m_form_equivalence")


def test_near_singular_retries_count_as_skipped(monkeypatch):
    def always_singular(p, cap=8):
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
