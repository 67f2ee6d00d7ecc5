import cmath
import decimal
from fractions import Fraction

import numpy as np
import pytest

from sosre import verify, weights
from sosre.params import NearSingular

CFG = verify.SuiteConfig()


def draw(n, rng):
    return verify.sample_params(CFG, n, rng)


def test_face_weights_direct_oracle():
    # independent scalar evaluation with cmath, fixed real point plus random
    # complex ones
    rng = np.random.default_rng(101)
    points = [(0.3, 1.1, 0.7)]
    for _ in range(20):
        p = draw(1, rng)
        points.append((p.lambdas[0], p.theta, p.eta))
    for lam, theta, eta in points:
        w = weights.face_weights(lam, theta, eta)
        sh = cmath.sinh
        assert abs(w.a - sh(lam + eta)) < 1e-14
        assert abs(w.b_plus - sh(lam) * sh(theta - eta) / sh(theta)) < 1e-14
        assert abs(w.b_minus - sh(lam) * sh(theta + eta) / sh(theta)) < 1e-14
        assert abs(w.c_plus - sh(eta) * sh(theta - lam) / sh(theta)) < 1e-14
        assert abs(w.c_minus - sh(eta) * sh(theta + lam) / sh(theta)) < 1e-14


def test_face_weights_lambda_zero():
    w = weights.face_weights(0.0, 1.1, 0.7)
    assert w.b_plus == 0.0 and w.b_minus == 0.0
    assert abs(w.a - np.sinh(0.7)) < 1e-15
    assert abs(w.c_plus - np.sinh(0.7)) < 1e-15


def test_face_weights_lambda_equals_theta():
    w = weights.face_weights(1.1, 1.1, 0.7)
    assert w.c_plus == 0.0


def test_face_weights_theta_reflection_same_code_path():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = draw(1, rng)
        lam, theta, eta = p.lambdas[0], p.theta, p.eta
        w = weights.face_weights(lam, theta, eta)
        wref = weights.face_weights(lam, -theta, eta)
        assert w.b_minus == wref.b_plus
        assert w.c_minus == wref.c_plus


def test_face_weights_guard():
    with pytest.raises(NearSingular, match="theta"):
        weights.face_weights(0.3, 1e-9, 0.7)


def fields(w):
    return (w.a, w.b_plus, w.b_minus, w.c_plus, w.c_minus)


def test_face_weights_broadcast_is_the_scalar_call():
    # every entry of a table has the bits of the scalar call at its point,
    # whatever the table's shape (including the one-entry 2-d ones); scalar
    # input returns scalars, and r_matrix places exactly those values
    rng = np.random.default_rng(102)
    p = draw(1, rng)
    lams = p.lambdas[0] + rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))
    heights = p.theta - p.eta * np.arange(4, -5, -1)
    for lam, theta in ((p.lambdas[0], heights), (lams, heights), (lams, heights[:, None].T),
                       (lams[:1], heights[:1, None]), (lams[:1], heights[:1]),
                       (lams, np.tile(heights, (5, 1)))):
        table = fields(weights.face_weights(lam, theta, p.eta))
        shape = np.broadcast_shapes(np.shape(lam), np.shape(theta))
        for v in table:
            assert v.shape == shape
        for idx in np.ndindex(shape):
            one = weights.face_weights(np.broadcast_to(lam, shape)[idx],
                                       np.broadcast_to(theta, shape)[idx], p.eta)
            assert all(np.isscalar(v) for v in fields(one))
            assert [v[idx] for v in table] == list(fields(one)), (shape, idx)
            R = weights.r_matrix(np.broadcast_to(lam, shape)[idx],
                                 np.broadcast_to(theta, shape)[idx], p.eta)
            assert (R[0, 0], R[1, 1], R[2, 2], R[1, 2], R[2, 1]) == fields(one)


def test_face_weights_table_guard_names_the_first_failing_height():
    rng = np.random.default_rng(103)
    p = draw(1, rng)
    heights = p.theta - p.eta * np.arange(3, -4, -1)
    bad = heights.copy()
    bad[4] = 1e-9
    with pytest.raises(NearSingular) as scalar:
        weights.face_weights(p.lambdas[0], bad[4], p.eta)
    with pytest.raises(NearSingular) as table:
        weights.face_weights(p.lambdas[0], bad, p.eta)
    assert str(table.value) == str(scalar.value)
    # two failing heights: the first in flat order is named, not the smaller
    bad[5] = 1e-10
    with pytest.raises(NearSingular) as table:
        weights.face_weights(np.full((2, 1), p.lambdas[0]), bad, p.eta)
    assert str(table.value) == str(scalar.value)


@pytest.mark.parametrize("sizes", [(2, 1, 0, 0, 1, 2) * 3, (1, 0, 3, 1, 1, 2)])
def test_weight_table_cells_are_the_scalar_call(sizes):
    # a double row's shift-set sizes over three lambdas, and sizes that
    # repeat unevenly: every cell run_steps reads has the bits of the
    # scalar call at its (lambda, height); factor f's s + 1 cells follow
    # those of the factors before it, in each of the five weights' blocks
    rng = np.random.default_rng(104)
    p = draw(1, rng)
    lams = rng.normal(size=len(sizes)) + 1j * rng.normal(size=len(sizes))
    table = weights.weight_table(sizes, lams, p.theta, p.eta).reshape(5, -1)
    cell = 0
    for f, (s, lam) in enumerate(zip(sizes, lams)):
        for d in range(s + 1):
            w = weights.face_weights(lam, p.theta - p.eta * (s - 2 * d), p.eta)
            want = np.array([w.a, w.b_plus, w.c_plus, w.c_minus, w.b_minus])
            assert table[:, cell].tobytes() == want.tobytes(), (f, d)
            cell += 1
    assert table.shape[1] == cell


def test_weight_table_guard_names_the_first_height_in_factor_order():
    # eta = i pi/2 and theta near 0: every even height fails, sinh(theta -
    # eta m) reading about +-1e-12 by the sign of (-1)^(m/2); the table
    # names the height the factors would meet first one by one (m = 2, the
    # first height of the second factor), not the lowest, highest or
    # smallest-size one
    sizes, lams = (1, 2, 0, 3), [0.3 + 0.1j] * 4
    theta, eta = 1e-12 + 0j, 0.5j * np.pi
    with pytest.raises(NearSingular) as table:
        weights.weight_table(sizes, lams, theta, eta)
    with pytest.raises(NearSingular) as one_by_one:
        for s, lam in zip(sizes, lams):
            for d in range(s + 1):
                weights.face_weights(lam, theta - eta * (s - 2 * d), eta)
    assert str(table.value) == str(one_by_one.value)
    with pytest.raises(NearSingular) as m2:
        weights.face_weights(lams[0], theta - 2 * eta, eta)
    assert str(table.value) == str(m2.value)
    with pytest.raises(NearSingular) as m0:
        weights.face_weights(lams[0], theta, eta)
    assert str(table.value) != str(m0.value)


def test_r_matrix_layout():
    w = weights.face_weights(0.3, 1.1, 0.7)
    R = weights.r_matrix(0.3, 1.1, 0.7)
    assert R[0, 0] == w.a and R[3, 3] == w.a
    assert R[1, 1] == w.b_plus and R[2, 2] == w.b_minus
    assert R[1, 2] == w.c_plus and R[2, 1] == w.c_minus


def test_r_matrix_zero_spectral_is_permutation():
    R = weights.r_matrix(0.0, 1.1, 0.7)
    assert np.allclose(R, np.sinh(0.7) * weights.SWAP_4, rtol=1e-14, atol=0)


def test_ice_rule_structural():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = draw(1, rng)
        R = weights.r_matrix(p.lambdas[0], p.theta, p.eta)
        # the ten non-conserving entries are never written at all
        conserved = {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}
        for r in range(4):
            for c in range(4):
                if (r, c) not in conserved:
                    assert R[r, c] == 0.0
        assert weights.ice_rule_residual(p.lambdas[0], p.theta, p.eta) == 0.0
        assert weights.transposed_ice_rule_residual(p.lambdas[0], p.theta, p.eta) == 0.0


def test_k_matrix_values():
    rng = np.random.default_rng(4)
    p = draw(1, rng)
    lam, theta, zeta = p.lambdas[0], p.theta, p.zeta
    K = weights.k_matrix(lam, theta, zeta)
    sh = np.sinh
    assert K[0, 1] == 0.0 and K[1, 0] == 0.0
    assert abs(K[0, 0] - sh(theta + zeta - lam) / sh(theta + zeta + lam)) < 1e-15
    assert abs(K[1, 1] - sh(zeta - lam) / sh(zeta + lam)) < 1e-15


def _scalar_k(lam, theta, zeta):
    # K as one scalar evaluation per entry, in Python complex: the bits
    # k_matrix had before it became a row of k_diagonals
    lam, theta, zeta = complex(lam), complex(theta), complex(zeta)
    sh = np.sinh
    return np.diag([sh(theta + zeta - lam) / sh(theta + zeta + lam), sh(zeta - lam) / sh(zeta + lam)])


def test_k_matrix_special_points():
    theta, zeta = 0.9, 1.1
    assert np.allclose(weights.k_matrix(0.0, theta, zeta), np.eye(2), rtol=1e-14, atol=0)
    assert weights.k_matrix(zeta, theta, zeta)[1, 1] == 0.0
    assert weights.k_matrix(theta + zeta, theta, zeta)[0, 0] == 0.0
    # real and integer arguments work in complex128, not in their own dtype
    for args in ((0.0, 0.9 + 0.1j, 1.1), (0, 1, 1), (0.3, theta, zeta)):
        K = weights.k_matrix(*args)
        assert K.dtype == np.complex128
        assert K.tobytes() == _scalar_k(*args).tobytes()
    k = weights.k_diagonals(np.array([0.3]), theta, zeta)
    assert k.dtype == np.complex128
    assert k.tobytes() == _scalar_k(0.3, theta, zeta).diagonal().tobytes()


def _sinh_exact(x):
    # sinh of an exact real at 40 digits, as a Fraction
    with decimal.localcontext(decimal.Context(prec=40)):
        x = decimal.Decimal(x.numerator) / x.denominator
        return Fraction((x.exp() - (-x).exp()) / 2)


@pytest.mark.skipif(np.finfo(np.clongdouble).eps == np.finfo(float).eps,
                    reason="np.clongdouble is plain double on this platform")
def test_k_and_heights_are_formed_in_the_input_precision():
    # theta + zeta + lambda and the height theta - 3 eta are 1e-5 (the guard
    # passes): formed in double, the rounding of theta + zeta and of 3 eta
    # leaves ~11 digits of the weight that divides by their sinh; formed in
    # clongdouble from the same double inputs they are exact, and it keeps ~19
    theta, zeta = 0.9, 1.1
    lam = -(theta + zeta) + 1e-5
    ex = lambda *v: sum(map(Fraction, v))
    want = _sinh_exact(ex(theta, zeta, -lam)) / _sinh_exact(ex(theta, zeta, lam))
    eta, lam_h = 0.62, 0.35
    theta_h = 3 * eta + 1e-5  # b_plus at height theta_h - 3 eta: cell 0 of factor size 3
    height = ex(theta_h, -3 * Fraction(eta))
    want_h = _sinh_exact(ex(lam_h)) * _sinh_exact(height - ex(eta)) / _sinh_exact(height)
    errors = []
    for dtype in (np.complex128, np.clongdouble):
        k = weights.k_diagonals(np.array([lam], dtype), theta, zeta)[0, 0]
        b_plus = weights.weight_table([3], np.array([lam_h], dtype), theta_h, eta)[4]
        assert k.dtype == b_plus.dtype == dtype
        errors.append([abs(Fraction(*np.longdouble(got.real).as_integer_ratio()) / ref - 1)
                       for got, ref in ((k, want), (b_plus, want_h))])
    assert all(wide * 1000 <= narrow for narrow, wide in zip(*errors))


def test_height_guard_decides_on_the_double_heights(monkeypatch):
    # formed in 80 bits and rounded, this height is an ulp above the double
    # theta - 3 eta; at a tolerance of exactly its |sinh| in double, both
    # dtypes must still refuse it, with complex128's message
    theta, eta = 1.878544350724238, 0.626175
    monkeypatch.setenv("SOS_GUARD_TOL", repr(float(abs(np.sinh(complex(theta - 3 * eta))))))
    messages = []
    for dtype in (np.complex128, np.clongdouble):
        with pytest.raises(NearSingular, match=r"sinh\(theta\)") as err:
            weights.weight_table([3], np.array([0.35], dtype), theta, eta)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_k_matrix_guard_names_denominator():
    with pytest.raises(NearSingular, match=r"zeta\+lambda"):
        weights.k_matrix(-1.1 + 1e-9, 0.9, 1.1)
    with pytest.raises(NearSingular, match=r"theta\+zeta\+lambda"):
        weights.k_matrix(-2.0 + 1e-9, 0.9, 1.1)



@pytest.mark.parametrize("n", range(1, 13))
def test_k_diagonals_are_k_matrix_bytes(n):
    # the one vectorised pass over a draw's lambdas, and over lambdas spread
    # wider, has the bits of k_matrix and of the scalar formula at each
    rng = np.random.default_rng(np.random.SeedSequence((105, n)))
    for _ in range(5):
        p = draw(n, rng)
        lams = np.concatenate((p.lambdas, 3 * (rng.normal(size=n) + 1j * rng.normal(size=n))))
        got = weights.k_diagonals(lams, p.theta, p.zeta)
        want = np.array([weights.k_matrix(lam, p.theta, p.zeta).diagonal() for lam in lams])
        assert got.tobytes() == want.tobytes()
        scalar = np.array([_scalar_k(lam, p.theta, p.zeta).diagonal() for lam in lams])
        assert got.tobytes() == scalar.tobytes()


def test_k_diagonals_guard_is_the_first_failing_lambda():
    # two failing lambdas: the first in order raises, not the more singular
    lams = [0.3, -1.1 + 1e-9, -2.0 + 1e-10]
    with pytest.raises(NearSingular) as one_by_one:
        for lam in lams:
            weights.k_matrix(lam, 0.9, 1.1)
    with pytest.raises(NearSingular) as vectorised:
        weights.k_diagonals(lams, 0.9, 1.1)
    assert str(vectorised.value) == str(one_by_one.value)
    assert "sinh(zeta+lambda)" in str(vectorised.value)

def test_dybe_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = draw(3, rng)
        assert weights.check_dybe(p.lambdas, p.theta, p.eta) < 1e-10


def test_dybe_degenerate_spectral_points():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = draw(3, rng)
        lams = (p.lambdas[0], p.lambdas[0], p.lambdas[2])
        assert weights.check_dybe(lams, p.theta, p.eta) < 1e-10


def test_dybe_eta_zero():
    # with no height step the equation degenerates but must still balance
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = draw(3, rng)
        assert weights.check_dybe(p.lambdas, p.theta, 0.0) < 1e-10


def test_unitarity_random():
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = draw(1, rng)
        assert weights.check_unitarity(p.lambdas[0], p.theta, p.eta) < 1e-12


def test_unitarity_special_points():
    theta, eta = 1.3 + 0.2j, 0.6 - 0.1j
    assert weights.check_unitarity(0.0, theta, eta) < 1e-12
    # at lambda = eta the scalar vanishes, so the product must be ~0
    assert weights.check_unitarity(eta, theta, eta) < 1e-12


def test_reflection_equation_random():
    rng = np.random.default_rng(15)
    for _ in range(100):
        p = draw(2, rng)
        res = weights.check_reflection_equation(
            p.lambdas[0], p.lambdas[1], p.theta, p.eta, p.zeta
        )
        assert res < 1e-11


def test_reflection_equation_degenerate_points():
    rng = np.random.default_rng(16)
    p = draw(2, rng)
    l1 = p.lambdas[0]
    assert weights.check_reflection_equation(l1, l1, p.theta, p.eta, p.zeta) < 1e-11
    # K(0) is the identity
    assert weights.check_reflection_equation(l1, 0.0, p.theta, p.eta, p.zeta) < 1e-11


def loop_embed_pair(n, pos_a, pos_b, shift, lam, theta, eta):
    # entry-by-entry reference: column by column, read m off the column and
    # scatter the R column into the rows that differ only at (pos_a, pos_b)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    bit = lambda state, pos: (state >> (n - 1 - pos)) & 1
    for col in range(1 << n):
        m = sum(1 - 2 * bit(col, k) for k in shift)
        R = weights.r_matrix(lam, theta - eta * m, eta)
        base = col & ~((1 << (n - 1 - pos_a)) | (1 << (n - 1 - pos_b)))
        for ra in (0, 1):
            for rb in (0, 1):
                row = base | (ra << (n - 1 - pos_a)) | (rb << (n - 1 - pos_b))
                out[row, col] = R[2 * ra + rb, 2 * bit(col, pos_a) + bit(col, pos_b)]
    return out


def embedding_patterns():
    """Every (n, pos_a, pos_b, shift) the package embeds an R with."""
    pats = [(3, 0, 1, (2,)), (3, 0, 2, ()), (3, 1, 2, (0,)), (3, 1, 2, ()),
            (3, 0, 2, (1,)), (3, 0, 1, ()), (2, 0, 1, ()), (2, 1, 0, ())]
    for n_sites in (1, 2, 3):
        n = n_sites + 1  # one auxiliary space, bulk and return-path factors
        for site in range(1, n):
            later = tuple(range(site + 1, n))
            pats += [(n, 0, site, later), (n, site, 0, later)]
        n = n_sites + 2  # two auxiliary spaces: exchange and reflection carriers
        sites = tuple(range(2, n))
        for k, site in enumerate(sites):
            later = sites[k + 1 :]
            pats += [(n, aux, site, later + extra)
                     for aux, extra in ((0, ()), (0, (1,)), (1, ()), (1, (0,)))]
            pats += [(n, site, 0, later), (n, site, 1, later)]
        pats += [(n, 0, 1, sites), (n, 1, 0, sites), (n, 0, 1, ())]
    return pats


def test_apply_pair_on_identity_is_the_loop_embedding():
    rng = np.random.default_rng(18)
    p = draw(1, rng)
    lam, theta, eta = p.lambdas[0], p.theta, p.eta
    for n, a, b, shift in embedding_patterns():
        want = loop_embed_pair(n, a, b, shift, lam, theta, eta)
        got = weights.apply_pairs(np.eye(1 << n), n, [(a, b, shift, lam)], theta, eta)
        assert np.array_equal(got, want), (n, a, b, shift)
        assert np.array_equal(weights.embed_pair(n, a, b, shift, lam, theta, eta), want)


def test_apply_pair_columns_and_vectors_agree():
    rng = np.random.default_rng(19)
    p = draw(1, rng)
    x = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    factor = (2, 0, (3, 1), p.lambdas[0])
    apply = lambda v: weights.apply_pairs(v, 4, [factor], p.theta, p.eta)
    stacked = apply(x)
    for j in range(3):
        assert np.array_equal(apply(x[:, j]), stacked[:, j])
    dense = weights.embed_pair(4, *factor, p.theta, p.eta)
    assert np.max(np.abs(stacked - dense @ x)) <= 1e-14 * np.max(np.abs(stacked))
    assert apply(x[:, :0]).shape == (16, 0)


def test_apply_pair_rejects_shift_on_its_legs():
    with pytest.raises(ValueError, match="overlaps"):
        weights.apply_pairs(np.eye(8), 3, [(0, 1, (1, 2), 0.3)], 1.1, 0.7)
    with pytest.raises(ValueError, match="overlaps"):
        weights.embed_pair(3, 2, 0, (0,), 0.3, 1.1, 0.7)
