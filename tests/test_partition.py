import warnings

import numpy as np
import pytest

from sosre import partition, verify
from sosre.params import (
    CapExceeded,
    IllConditionedWarning,
    InvariantViolation,
    ModelParams,
    NearSingular,
    rel_diff,
)

CFG = verify.SuiteConfig()
sh = np.sinh


def draw(n, rng, extra=None):
    return verify.sample_params(CFG, n, rng, extra_guards=extra)


def test_result_metadata():
    rng = np.random.default_rng(70)
    p = draw(2, rng)
    rb = partition.z_bruteforce(p)
    rd = partition.z_determinant(p)
    assert rb.method == partition.METHOD_BRUTE and rb.n == 2
    assert rd.method == partition.METHOD_DETERMINANT and rd.n == 2
    assert rb.cond_hint is None and rb.log_value is None
    assert rd.cond_hint > 0 and rd.log_value is not None
    assert rb.elapsed >= 0 and rd.elapsed >= 0
    assert abs(np.exp(rd.log_value) - rd.value) <= 1e-12 * abs(rd.value)


def test_closed_form_n1_matches_brute():
    rng = np.random.default_rng(71)
    for _ in range(25):
        p = draw(1, rng)
        zb = partition.z_bruteforce(p).value
        zc = partition.z_n1_closed(p.lambdas[0], p.xis[0], p.theta, p.eta, p.zeta)
        assert rel_diff(zb, zc) < 1e-12


def test_single_site_coincidence_literals():
    # at lambda = +-xi one of the two terms dies and the survivor can be
    # written down directly; brute force must land on the same number
    rng = np.random.default_rng(72)
    for _ in range(10):
        p = draw(1, rng)
        lam, theta, eta, zeta = p.lambdas[0], p.theta, p.eta, p.zeta
        pref = sh(eta) * sh(theta - eta) / sh(theta) ** 2

        peq = ModelParams(eta, zeta, theta, (lam,), (lam,))
        want = pref * sh(zeta - lam) / sh(zeta + lam) * sh(2 * lam) * sh(theta)
        assert rel_diff(partition.z_bruteforce(peq).value, want) < 1e-12

        pop = ModelParams(eta, zeta, theta, (lam,), (-lam,))
        want = (
            pref * sh(theta + zeta - lam) / sh(theta + zeta + lam)
            * sh(2 * lam) * sh(theta)
        )
        assert rel_diff(partition.z_bruteforce(pop).value, want) < 1e-12


def test_determinant_n1_equals_closed_form():
    rng = np.random.default_rng(73)
    for _ in range(25):
        p = draw(1, rng)
        zd = partition.z_determinant(p).value
        zc = partition.z_n1_closed(p.lambdas[0], p.xis[0], p.theta, p.eta, p.zeta)
        assert rel_diff(zd, zc) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_matches_brute(n):
    rng = np.random.default_rng(74 + n)
    for _ in range(5):
        p = draw(n, rng)
        zd = partition.z_determinant(p).value
        zb = partition.z_bruteforce(p).value
        assert rel_diff(zd, zb) < 1e-9


def test_determinant_form_choice_irrelevant():
    rng = np.random.default_rng(79)
    p = draw(3, rng)
    zp = partition.z_determinant(p, form=partition.PRODUCT_FORM).value
    zs = partition.z_determinant(p, form=partition.SUM_FORM).value
    assert rel_diff(zp, zs) < 1e-11


def test_m_entry_forms_agree():
    rng = np.random.default_rng(80)
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(4):
            p = draw(n, rng)
            for i in range(n):
                for j in range(n):
                    a = partition.m_entry(i, j, p, form=partition.SUM_FORM)
                    b = partition.m_entry(i, j, p, form=partition.PRODUCT_FORM)
                    assert rel_diff(a, b) < 1e-11
                    checked += 1
    assert checked >= 100


def test_m_entry_matches_matrix():
    rng = np.random.default_rng(81)
    p = draw(3, rng)
    for form in (partition.SUM_FORM, partition.PRODUCT_FORM):
        M = partition.m_matrix(p, form)
        assert M.form_tag == form
        for i in range(3):
            for j in range(3):
                # vectorised and scalar paths differ only in complex-division
                # rounding
                assert rel_diff(M.entries[i, j], partition.m_entry(i, j, p, form=form)) < 5e-15


def test_m_entry_product_form_zeros():
    rng = np.random.default_rng(82)
    p = draw(2, rng)
    pz = ModelParams(p.eta, p.zeta, p.theta, p.lambdas, (p.zeta, p.xis[1]))
    assert partition.m_entry(0, 0, pz, form=partition.PRODUCT_FORM) == 0.0
    pl = ModelParams(p.eta, p.zeta, p.theta, (0.0, p.lambdas[1]), p.xis)
    assert partition.m_entry(0, 1, pl, form=partition.PRODUCT_FORM) == 0.0


def test_m_entry_bad_form():
    rng = np.random.default_rng(83)
    p = draw(1, rng)
    with pytest.raises(ValueError):
        partition.m_entry(0, 0, p, form="neither")
    with pytest.raises(ValueError):
        partition.m_matrix(p, form="neither")


def test_m_entry_guard():
    rng = np.random.default_rng(84)
    p = draw(2, rng)
    q = p.replace_lambda(0, p.xis[0] + 1e-9)
    with pytest.raises(NearSingular, match="lambda_i-xi_j"):
        partition.m_entry(0, 0, q)
    with pytest.raises(NearSingular, match=r"lambda\[0\]-xi\[0\]"):
        partition.z_determinant(q)


@pytest.mark.parametrize("method", ["brute", "det"])
def test_permutation_symmetry(method):
    # Z is symmetric under any permutation of the lambdas and of the xis
    rng = np.random.default_rng(85)
    z_of = (
        (lambda p: partition.z_bruteforce(p).value)
        if method == "brute"
        else (lambda p: partition.z_determinant(p).value)
    )
    for n in (2, 3):
        p = draw(n, rng)
        z0 = z_of(p)
        perm = rng.permutation(n)
        pl = ModelParams(
            p.eta, p.zeta, p.theta, tuple(p.lambdas[k] for k in perm), p.xis
        )
        px = ModelParams(
            p.eta, p.zeta, p.theta, p.lambdas, tuple(p.xis[k] for k in perm)
        )
        assert rel_diff(z_of(pl), z0) < 1e-10
        assert rel_diff(z_of(px), z0) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crossing_identity(n):
    rng = np.random.default_rng(88 + n)
    for _ in range(5):
        p = draw(n, rng, extra=verify._crossing_extra(0))
        q = p.replace_lambda(0, -p.lambdas[0] - p.eta)
        factor = partition.crossing_factor(p.lambdas[0], p)
        assert rel_diff(
            partition.z_bruteforce(q).value,
            factor * partition.z_bruteforce(p).value,
        ) < 1e-9
        assert rel_diff(
            partition.z_determinant(q).value,
            factor * partition.z_determinant(p).value,
        ) < 1e-10


def test_recursion_requires_exact_coincidence():
    rng = np.random.default_rng(92)
    p = draw(2, rng)
    with pytest.raises(InvariantViolation, match="lambda\\[0\\]"):
        partition.recursion_rhs_lower(p, 1.0)
    with pytest.raises(InvariantViolation, match="lambda\\[N-1\\]"):
        partition.recursion_rhs_upper(p, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recursion_lower(n):
    rng = np.random.default_rng(93 + n)
    for _ in range(5):
        pdeg = verify._sample_degenerate(
            CFG, n, rng,
            pin=lambda p: (p.replace_lambda(0, p.xis[0]), {"lambda[0]-xi[0]"}),
        )
        z_prev = 1.0 if n == 1 else partition.z_determinant(pdeg.drop_site(0)).value
        zb = partition.z_bruteforce(pdeg).value
        assert rel_diff(zb, partition.recursion_rhs_lower(pdeg, z_prev)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recursion_upper(n):
    rng = np.random.default_rng(97 + n)
    for _ in range(5):
        pdeg = verify._sample_degenerate(
            CFG, n, rng,
            pin=lambda p: (
                p.replace_lambda(n - 1, -p.xis[0]),
                {f"lambda[{n - 1}]+xi[0]"},
            ),
        )
        if n == 1:
            z_prev = 1.0
        else:
            prev = ModelParams(
                pdeg.eta, pdeg.zeta, pdeg.theta, pdeg.lambdas[:-1], pdeg.xis[1:]
            )
            z_prev = partition.z_determinant(prev).value
        zb = partition.z_bruteforce(pdeg).value
        assert rel_diff(zb, partition.recursion_rhs_upper(pdeg, z_prev)) < 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_degree_bound(n):
    rng = np.random.default_rng(101 + n)
    for _ in range(3):
        p = draw(n, rng)
        i = int(rng.integers(n))
        assert verify.degree_bound_residual(p, i, rng) < 1e-8


def test_degree_bound_detects_wrong_clearing_factor():
    # substituting the height coupling into the second clearing factor does
    # not cancel the boundary pole, so the interpolation test must fail loudly
    rng = np.random.default_rng(104)
    p = draw(2, rng)
    res = verify.degree_bound_residual(p, 0, rng, second_factor="theta")
    assert res > 1e-3


def test_normalized_z_bad_flag():
    rng = np.random.default_rng(105)
    p = draw(1, rng)
    with pytest.raises(ValueError):
        partition.normalized_z(p, 0, 1.0, second_factor="xi")


def test_logdet_against_numpy():
    rng = np.random.default_rng(106)
    for n in (1, 2, 3, 5, 8, 13):
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        logdet, min_piv = partition.logdet_partial_pivot(mat)
        det = np.linalg.det(mat)
        assert rel_diff(np.exp(logdet), det) < 1e-10
        assert min_piv > 0


def test_logdet_permutation_and_singular():
    logdet, min_piv = partition.logdet_partial_pivot([[0.0, 1.0], [1.0, 0.0]])
    assert abs(np.exp(logdet) + 1.0) < 1e-15 and min_piv == 1.0
    logdet, min_piv = partition.logdet_partial_pivot([[1.0, 1.0], [1.0, 1.0]])
    assert logdet == complex(-np.inf) and min_piv == 0.0


def test_ill_conditioned_warning_fires():
    # a double near-coincidence drives the smallest pivot under 1e-10; the
    # value really does lose digits there (vs brute: ~1e-4 relative)
    eps = 1e-7
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                    lambdas=(0.31, 0.31 + eps), xis=(0.24, 0.24 + eps))
    with pytest.warns(IllConditionedWarning):
        res = partition.z_determinant(p, guard_tol=1e-9)
    assert res.cond_hint < partition.ILL_CONDITIONED_PIVOT
    assert np.isfinite(res.log_value.real)


def test_well_conditioned_no_warning():
    eps = 1e-6
    p = ModelParams(eta=0.62, zeta=1.05, theta=0.83,
                    lambdas=(0.31, 0.31 + eps), xis=(0.24, 0.24 + eps))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        res = partition.z_determinant(p, guard_tol=1e-9)
    assert res.cond_hint >= partition.ILL_CONDITIONED_PIVOT


def test_brute_force_cap():
    rng = np.random.default_rng(107)
    p9 = draw(9, rng)
    with pytest.raises(CapExceeded):
        partition.z_bruteforce(p9)
    p5 = draw(5, rng)
    with pytest.raises(CapExceeded):
        partition.z_bruteforce(p5, cap=4)
    assert partition.z_bruteforce(p5, cap=5).n == 5
    p13 = draw(13, rng)
    with pytest.raises(CapExceeded):
        partition.z_bruteforce(p13, cap=99)


def test_height_prefactor_guard():
    rng = np.random.default_rng(108)
    p = draw(2, rng)
    q = ModelParams(p.eta, p.zeta, -p.eta + 1e-9, p.lambdas, p.xis)
    with pytest.raises(NearSingular, match=r"theta\+1\*eta"):
        partition.z_determinant(q)


@pytest.mark.parametrize("n", [10, 12])
def test_brute_force_beyond_default_cap_agrees_with_determinant(n):
    # contraction loses digits with N: the worst seen at N = 12 was ~1e-8
    for seed in (1, 2, 3):
        p = draw(n, np.random.default_rng(np.random.SeedSequence((seed, n))))
        zb = partition.z_bruteforce(p, cap=12).value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            zd = partition.z_determinant(p).value
        assert rel_diff(zb, zd) < 1e-6
