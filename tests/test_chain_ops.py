import json
import time
from pathlib import Path

import numpy as np
import pytest

from sosre import chain_ops, partition, verify, weights
from sosre.params import CapExceeded, ModelParams, NearSingular

CFG = verify.SuiteConfig()


def draw(n, rng, extra=None):
    return verify.sample_params(CFG, n, rng, extra_guards=extra)


def _e0(n, dtype=complex):
    # the all-up chain state, the vector z_bruteforce starts from
    e0 = np.zeros(1 << n, dtype)
    e0[0] = 1.0
    return e0


def site_r(i, x, p, n, aux_second=False):
    # R coupling the auxiliary space (position 0) with chain site i, height
    # shifted by the spins of the sites after i: the factor layout of the
    # bulk monodromy
    legs = (i, 0) if aux_second else (0, i)
    return weights.embed_pair(n + 1, *legs, tuple(range(i + 1, n + 1)), x, p.theta, p.eta)


def test_embed_site_r_single_site_is_r_matrix():
    rng = np.random.default_rng(21)
    p = draw(1, rng)
    x = p.lambdas[0] - p.xis[0]
    op = site_r(1, x, p, n=1)
    assert np.array_equal(op, weights.r_matrix(x, p.theta, p.eta))


def test_embed_site_r_aux_second_swaps_legs():
    rng = np.random.default_rng(22)
    p = draw(1, rng)
    x = p.lambdas[0]
    op = site_r(1, x, p, n=1, aux_second=True)
    R = weights.r_matrix(x, p.theta, p.eta)
    assert np.array_equal(op, weights.SWAP_4 @ R @ weights.SWAP_4)


def test_embed_site_r_height_shift_blocks():
    # on a 2-site chain the factor at site 1 sees theta -+ eta depending on
    # the spin of site 2
    rng = np.random.default_rng(23)
    p = draw(2, rng)
    x = p.lambdas[0]
    op = site_r(1, x, p, n=2)
    up = np.diag([1.0, 0.0])
    down = np.diag([0.0, 1.0])
    expected = np.kron(weights.r_matrix(x, p.theta - p.eta, p.eta), up) + np.kron(
        weights.r_matrix(x, p.theta + p.eta, p.eta), down
    )
    assert np.array_equal(op, expected)


def test_bulk_monodromy_single_site_blocks():
    rng = np.random.default_rng(25)
    p = draw(1, rng)
    lam = p.lambdas[0]
    w = weights.face_weights(lam - p.xis[0], p.theta, p.eta)
    T = chain_ops._apply_bulk(np.eye(4), 0, lam, p)
    A, B = T[:2, :2], T[:2, 2:]
    # acting on |up>: the diagonal block is the a-weight, the creation block
    # flips the site with the c_plus weight
    assert A[0, 0] == w.a
    assert B[1, 0] == w.c_plus
    assert B[0, 0] == 0.0 and B[0, 1] == 0.0 and B[1, 1] == 0.0


def test_hat_monodromy_single_site():
    rng = np.random.default_rng(26)
    p = draw(1, rng)
    lam = p.lambdas[0]
    op = chain_ops._apply_hat(np.eye(4), 0, lam, p)
    R = weights.r_matrix(lam + p.xis[0], p.theta, p.eta)
    assert np.array_equal(op, weights.SWAP_4 @ R @ weights.SWAP_4)


def grading_residual(op, delta):
    # max |entry| outside chain-magnetization change `delta` (row minus column)
    n = op.shape[0].bit_length() - 1
    mags = n - 2 * np.bitwise_count(np.arange(op.shape[0])).astype(np.int64)
    return np.max(np.abs(np.where(mags[:, None] != mags[None, :] + delta, op, 0.0)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grading_structure(n):
    rng = np.random.default_rng(30 + n)
    p = draw(n, rng)
    lam = p.lambdas[0]
    assert grading_residual(chain_ops._apply_bulk(np.eye(2 << n), 0, lam, p), 0) == 0.0
    T = chain_ops.double_row_full(lam, p)
    assert grading_residual(T, 0) == 0.0
    h = 1 << n
    A, B, C, D = T[:h, :h], T[:h, h:], T[h:, :h], T[h:, h:]
    assert grading_residual(A, 0) == 0.0
    assert grading_residual(D, 0) == 0.0
    assert grading_residual(B, -2) == 0.0
    assert grading_residual(C, +2) == 0.0
    # C strictly raises, so it annihilates on the left of the all-down state
    assert np.all(C[h - 1, :] == 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_exchange_algebra(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(10):
        p = draw(max(n, 2), rng)
        q = p if n > 1 else ModelParams(p.eta, p.zeta, p.theta, p.lambdas[:1], p.xis[:1])
        res = chain_ops.check_exchange_algebra(p.lambdas[0], p.lambdas[1], q)
        assert res < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_double_row_reflection(n):
    rng = np.random.default_rng(44 + n)
    for _ in range(10):
        p = draw(max(n, 2), rng)
        q = p if n > 1 else ModelParams(p.eta, p.zeta, p.theta, p.lambdas[:1], p.xis[:1])
        res = chain_ops.check_double_row_reflection(p.lambdas[0], p.lambdas[1], q)
        assert res < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_b_commutation(n):
    rng = np.random.default_rng(48 + n)
    for _ in range(10):
        p = draw(max(n, 2), rng)
        q = p if n > 1 else ModelParams(p.eta, p.zeta, p.theta, p.lambdas[:1], p.xis[:1])
        res = chain_ops.check_b_commutation(p.lambdas[0], p.lambdas[1], q)
        assert res < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monodromy_inverse(n):
    rng = np.random.default_rng(52 + n)
    for _ in range(10):
        p = draw(n, rng)
        res = chain_ops.check_monodromy_inverse(p.lambdas[0], p)
        assert res < 1e-10


def test_monodromy_inverse_coincident_inhomogeneities():
    rng = np.random.default_rng(57)
    p = draw(2, rng)
    q = ModelParams(p.eta, p.zeta, p.theta, p.lambdas, (p.xis[0], p.xis[0]))
    assert chain_ops.check_monodromy_inverse(q.lambdas[0], q) < 1e-10


def test_gamma_hat_value():
    rng = np.random.default_rng(58)
    p = draw(3, rng)
    lam = p.lambdas[0]
    want = (-1.0) ** 3
    for x in p.xis:
        want = want * np.sinh(lam + x - p.eta) * np.sinh(lam + x + p.eta)
    assert abs(chain_ops.gamma_hat(lam, p) - want) < 1e-14 * abs(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_b_crossing(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        p = draw(n, rng, extra=verify._crossing_extra(0))
        res = chain_ops.check_b_crossing(p.lambdas[0], p)
        assert res < 1e-9


def test_crossing_scalar_involution():
    # applying the crossing map twice returns to the start, so the two
    # factors must multiply to one
    rng = np.random.default_rng(64)
    for _ in range(25):
        p = draw(1, rng, extra=verify._crossing_extra(0))
        lam = p.lambdas[0]
        f1 = chain_ops.crossing_scalar(lam, p.theta, p.eta, p.zeta)
        f2 = chain_ops.crossing_scalar(-lam - p.eta, p.theta, p.eta, p.zeta)
        assert abs(f1 * f2 - 1.0) < 1e-11


def test_crossing_scalar_guards():
    with pytest.raises(Exception, match=r"2\*lambda"):
        chain_ops.crossing_scalar(1e-9, 0.9, 0.7, 1.1)


def dense_b(lam, p):
    # B as the explicit product bulk @ K @ hat of embedded factors, K built first
    n = p.n + 1
    E = lambda a, b, k, x: weights.embed_pair(n, a, b, tuple(range(k + 2, n)), x, p.theta, p.eta)
    K = np.kron(weights.k_matrix(lam, p.theta, p.zeta), np.eye(1 << p.n))
    T = np.eye(1 << n, dtype=complex)
    for k in range(p.n):
        T = T @ E(0, k + 1, k, lam - p.xis[k])
    T = T @ K
    for k in range(p.n - 1, -1, -1):
        T = T @ E(k + 1, 0, k, lam + p.xis[k])
    h = 1 << p.n
    return T[:h, h:]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrix_free_b_matches_dense_product(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(3):
        p = draw(n, rng)
        lam = p.lambdas[0]
        want = dense_b(lam, p)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(chain_ops.b_operator(lam, p) - want)) <= 1e-13 * scale
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        got = chain_ops.apply_b_product(v, [lam], p)
        assert np.max(np.abs(got - want @ v)) <= 1e-13 * np.max(np.abs(got))


def test_b_guard_message_matches_dense_build():
    # theta = 2 eta (up to 1e-9): the height m = 2 is reachable from N = 3
    rng = np.random.default_rng(76)
    p = draw(3, rng)
    q = ModelParams(p.eta, p.zeta, 2 * p.eta + 1e-9, p.lambdas, p.xis)
    with pytest.raises(NearSingular) as dense:
        dense_b(q.lambdas[-1], q)
    with pytest.raises(NearSingular) as free:
        partition.z_bruteforce(q)
    assert "sinh(theta)" in str(free.value)
    assert str(free.value) == str(dense.value)
    # with K singular as well, K's guard comes first
    r = q.replace_lambda(q.n - 1, -q.zeta + 1e-9)
    with pytest.raises(NearSingular) as dense:
        dense_b(r.lambdas[-1], r)
    with pytest.raises(NearSingular) as free:
        partition.z_bruteforce(r)
    assert "sinh(zeta+lambda)" in str(free.value)
    assert str(free.value) == str(dense.value)


@pytest.mark.parametrize("theta_eta", [
    # m = 1 has the other parity than N - 1 = 2: only the second hat factor
    # (shift set of one site) meets it
    (lambda eta: eta + 1e-9, lambda eta: eta),
    # eta = 1e-6: m = 0 fails with |sinh| 6e-7 and is met first (first hat
    # factor, heights m = 2, 0, -2); m = 1 fails with a smaller |sinh| 4e-7,
    # so neither the argmin nor the highest failing m is the one raised
    (lambda eta: 0.6e-6, lambda eta: 1e-6),
])
def test_b_guard_order_is_application_order(theta_eta):
    theta, eta = theta_eta
    p = draw(3, np.random.default_rng(77))
    q = ModelParams(eta(p.eta), p.zeta, theta(p.eta), p.lambdas, p.xis)
    with pytest.raises(NearSingular) as dense:
        dense_b(q.lambdas[-1], q)
    with pytest.raises(NearSingular) as free:
        partition.z_bruteforce(q)
    assert "sinh(theta)" in str(free.value)
    assert str(free.value) == str(dense.value)
    with pytest.raises(NearSingular) as op:
        chain_ops.b_operator(q.lambdas[-1], q)
    assert str(op.value) == str(dense.value)
    for dtype in (np.complex128, np.clongdouble):  # the guards decide in double
        with pytest.raises(NearSingular) as wide:
            chain_ops.apply_b_product(_e0(q.n, dtype), q.lambdas, q)
        assert str(wide.value) == str(dense.value)


def test_exchange_guard_reaches_the_extra_shift():
    # theta = N eta (up to 1e-9): among the monodromies only T2 of the left
    # side, whose site-1 factor also counts the first auxiliary spin, meets
    # m = N; it is applied first, so its factor raises
    rng = np.random.default_rng(78)
    p = draw(2, rng)
    q = ModelParams(p.eta, p.zeta, 2 * p.eta + 1e-9, p.lambdas, p.xis)
    n = q.n + 2
    eye = np.eye(1 << n)
    chain_ops._apply_bulk(eye, 0, q.lambdas[0], q)
    chain_ops._apply_bulk(eye, 1, q.lambdas[1], q)
    with pytest.raises(NearSingular) as dense:
        weights.embed_pair(n, 1, 3, (0,), q.lambdas[1] - q.xis[1], q.theta, q.eta)
        weights.embed_pair(n, 1, 2, (3, 0), q.lambdas[1] - q.xis[0], q.theta, q.eta)
    with pytest.raises(NearSingular) as free:
        chain_ops.check_exchange_algebra(q.lambdas[0], q.lambdas[1], q)
    assert "sinh(theta)" in str(free.value)
    assert str(free.value) == str(dense.value)


def embedded_product(n, factors, p):
    """Explicit product of `embed_pair` matrices, `factors` given as
    (pos_a, pos_b, shift, lam) in print order (the leftmost applied last)."""
    out = np.eye(1 << n, dtype=complex)
    for a, b, shift, lam in factors:
        out = out @ weights.embed_pair(n, a, b, shift, lam, p.theta, p.eta)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_monodromies_match_embedded_products(n):
    rng = np.random.default_rng(80 + n)
    p = draw(n, rng)
    lam = p.lambdas[0]
    close = lambda got, want: np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # carriers: one auxiliary space, or two with the other one in the shift set
    for aux, extra, width in ((0, (), n + 1), (0, (1,), n + 2), (1, (0,), n + 2)):
        first = width - n
        later = lambda k: tuple(range(first + k + 1, width))
        bulk = [(aux, first + k, later(k) + extra, lam - p.xis[k]) for k in range(n)]
        got = chain_ops._apply_bulk(np.eye(1 << width), aux, lam, p, extra)
        assert close(got, embedded_product(width, bulk, p)), (aux, extra)
    later = lambda k: tuple(range(k + 2, n + 1))
    hat = [(k + 1, 0, later(k), lam + p.xis[k]) for k in range(n - 1, -1, -1)]
    want_hat = embedded_product(n + 1, hat, p)
    assert close(chain_ops._apply_hat(np.eye(2 << n), 0, lam, p), want_hat)
    bulk = [(0, k + 1, later(k), lam - p.xis[k]) for k in range(n)]
    K = np.kron(weights.k_matrix(lam, p.theta, p.zeta), np.eye(1 << n))
    want = embedded_product(n + 1, bulk, p) @ K @ want_hat
    assert close(chain_ops._apply_double_row(np.eye(2 << n), 0, lam, p), want)


def _reference_table(factors, theta, eta):
    # the weight table as one face_weights call on its (factor, d) cells,
    # each cell at its own height theta - eta*(s - 2d)
    s = np.array([len(shift) for _, _, shift, _ in factors])
    m = s[:, None] - 2 * np.minimum(np.arange(s.max() + 1), s[:, None])
    fw = weights.face_weights(np.array([[lam] for *_, lam in factors], dtype=complex),
                              theta - eta * m, eta)
    table = np.stack((fw.a, fw.b_plus, fw.c_plus, fw.c_minus, fw.b_minus), axis=-1)
    return table.reshape(len(factors), -1)


def _reference_apply_pairs(x, n, factors, theta, eta):
    # the strided kernel before the gather layout: the same weight table,
    # each factor as ~8 numpy updates on views split at its legs
    for (pos_a, pos_b, shift, _), w in zip(factors, _reference_table(factors, theta, eta)):
        lo, hi = sorted((pos_a, pos_b))
        shape = (1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1))
        others = [k for k in range(n) if k not in (pos_a, pos_b)]
        mask = sum(1 << (n - 3 - others.index(k)) for k in shift)
        d = 5 * np.bitwise_count(np.arange(1 << (n - 2)) & mask)
        d = d.reshape(shape[0], 1, shape[2], 1, shape[4], 1)
        by_legs = np.array([[0, 1], [4, 0]])
        keep = d + (by_legs if pos_a < pos_b else by_legs.T)[:, None, :, None, None]
        flip = np.stack((d[:, 0, :, 0] + 2, d[:, 0, :, 0] + 3))
        at = lambda i, j: (slice(None), i, slice(None), j)
        up_down, down_up = (at(0, 1), at(1, 0)) if pos_a < pos_b else (at(1, 0), at(0, 1))
        t = x.reshape(shape + (x.size >> n,))
        out = w[keep] * t
        c_plus, c_minus = w[flip]
        out[up_down] += c_plus * t[down_up]
        out[down_up] += c_minus * t[up_down]
        x = out.reshape(x.shape)
    return x


def _reference_apply_b(v, lam, p):
    # B(lam) with one weight table per monodromy: K, then the return path,
    # then the bulk, each path guarded and applied on its own
    n, h = p.n + 1, v.shape[0]
    x = np.zeros((2 * h,) + v.shape[1:], dtype=complex)
    x[h:] = v
    k = weights.k_matrix(lam, p.theta, p.zeta).diagonal()
    sites = range(1, n)
    hat = [(sites[j], 0, tuple(sites[j + 1:]), lam + p.xis[j]) for j in range(p.n)]
    bulk = [(0, sites[j], tuple(sites[j + 1:]), lam - p.xis[j]) for j in reversed(range(p.n))]
    x = _reference_apply_pairs(x, n, hat, p.theta, p.eta)
    x = (x.reshape((1, 2, -1)) * k[:, None]).reshape(x.shape)
    return _reference_apply_pairs(x, n, bulk, p.theta, p.eta)[:h]


def _reference_z_bruteforce(p):
    # one B at a time, lambda_N first
    v = np.zeros(1 << p.n, dtype=complex)
    v[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in reversed(p.lambdas):
            v = _reference_apply_b(v, lam, p)
    return complex(v[-1])


def _reference_gather_apply(x, n, factors, table):
    # the full-space gather loop: every factor over all 2^n basis states
    t = x.reshape(1 << n, x.size >> n) if x.ndim > 1 else x
    col = (slice(None), None)[:t.ndim]
    for (pos_a, pos_b, shift, _), w in zip(factors, table):
        keep, states, partner, flip = weights._pair_gather(n, pos_a, pos_b, tuple(shift))
        out = w.take(keep)[col] * t
        out[states] += w.take(flip)[col] * t.take(partner, axis=0)
        t = out
    return t.reshape(x.shape)


def _reference_b_product(v, lams, p):
    # B(lams[0]) ... B(lams[-1]) v on the full space of aux (x) chain, the
    # weights of all double rows from one cell table; K(lams[-1]) guarded
    # before the table, each later K when its B is applied
    n, h = p.n + 1, v.shape[0]
    sites = range(1, n)
    rows = [([(sites[j], 0, tuple(sites[j + 1:]), lam + p.xis[j]) for j in range(p.n)],
             [(0, sites[j], tuple(sites[j + 1:]), lam - p.xis[j]) for j in reversed(range(p.n))])
            for lam in lams[::-1]]
    k = weights.k_matrix(lams[-1], p.theta, p.zeta).diagonal()
    table = _reference_table([f for hat, bulk in rows for f in hat + bulk], p.theta, p.eta)
    x = np.zeros((2 * h,) + v.shape[1:], dtype=complex)
    for i, (lam, (hat, bulk)) in enumerate(zip(lams[::-1], rows)):
        if i:
            k = weights.k_matrix(lam, p.theta, p.zeta).diagonal()
        w = table[2 * p.n * i:]
        x[h:] = v
        y = _reference_gather_apply(x, n, hat, w[:p.n])
        y = (y.reshape((1, 2, -1)) * k[:, None]).reshape(y.shape)
        v = _reference_gather_apply(y, n, bulk, w[p.n:])[:h]
    return v


def _contract(p):
    # Z by the sector B product, also above partition.BRUTE_CAP
    e0 = np.zeros(1 << p.n, dtype=complex)
    e0[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return chain_ops.apply_b_product(e0, p.lambdas, p)[-1]


@pytest.mark.parametrize("n", [*range(1, 10), 10, 12])
def test_contraction_bit_identical_to_reference(n):
    # against one B at a time on views, and against the full-space product
    # from one table, whose B's act on all 2^(N+1) states, to the last bit;
    # z_bruteforce is the same product up to its cap and refuses past it
    rng = np.random.default_rng(np.random.SeedSequence((90, n)))
    e0 = np.zeros(1 << n, dtype=complex)
    e0[0] = 1.0
    for _ in range(3 if n < 10 else 1):
        p = draw(n, rng)
        z = _contract(p)
        assert z == _reference_z_bruteforce(p)
        with np.errstate(over="ignore", invalid="ignore"):
            full = _reference_b_product(e0, p.lambdas, p)[-1]
        assert z.tobytes() == full.tobytes()
        if n <= partition.BRUTE_CAP:
            assert np.complex128(partition.z_bruteforce(p).value).tobytes() == z.tobytes()
        else:
            with pytest.raises(CapExceeded):
                partition.z_bruteforce(p)



_BRUTE_Z = json.loads((Path(__file__).parent / "data" / "brute_z_bytes.json").read_text())


@pytest.mark.parametrize("case", _BRUTE_Z["instances"], ids=lambda c: f"n{c['n']}-seed{c['seed']}")
def test_z_bruteforce_bytes_match_fixture(case):
    # tests/data/make_brute_z_bytes.py wrote these bytes with the contraction
    # that built one plan per double row; they pin Z without the reference
    # helpers above, which share _pair_gather and k_matrix with the library
    c = lambda v: complex(*v)
    p = ModelParams(c(case["eta"]), c(case["zeta"]), c(case["theta"]),
                    [c(v) for v in case["lambdas"]], [c(v) for v in case["xis"]])
    assert np.complex128(partition.z_bruteforce(p).value).tobytes().hex() == case["z_hex"]

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b_product_is_successive_b(n):
    rng = np.random.default_rng(91 + n)
    p = draw(n, rng)
    lams = p.lambdas + (0.3 - 0.2j,)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    cols = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    for x in (v, cols):
        want = x
        for lam in reversed(lams):
            want = chain_ops.apply_b_product(want, [lam], p)
        assert np.array_equal(chain_ops.apply_b_product(x, lams, p), want)
        assert np.array_equal(chain_ops.apply_b_product(x, [lams[0]], p),
                              _reference_apply_b(x, lams[0], p))
    assert np.array_equal(chain_ops.b_operator(lams[0], p),
                          _reference_apply_b(np.eye(1 << n), lams[0], p))


@pytest.mark.parametrize("theta_singular", [False, True])
def test_b_guard_at_a_later_k_matches_reference(theta_singular):
    # K(lambda_1) singular: its B is applied last, after the whole weight
    # table is built; with theta = 2 eta as well, the heights raise first
    p = draw(3, np.random.default_rng(92))
    theta = 2 * p.eta + 1e-9 if theta_singular else p.theta
    q = ModelParams(p.eta, p.zeta, theta, p.lambdas, p.xis).replace_lambda(0, -p.zeta + 1e-9)
    with pytest.raises(NearSingular) as ref:
        _reference_z_bruteforce(q)
    with pytest.raises(NearSingular) as free:
        partition.z_bruteforce(q)
    assert str(free.value) == str(ref.value)
    assert ("sinh(theta)" if theta_singular else "sinh(zeta+lambda)") in str(free.value)
    for dtype in (np.complex128, np.clongdouble):  # the guards decide in double
        with pytest.raises(NearSingular) as wide:
            chain_ops.apply_b_product(_e0(q.n, dtype), q.lambdas, q)
        assert str(wide.value) == str(ref.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sector_b_product_matches_full_space_on_blocks(n):
    # identity and a dense probe block, through one, two and N B's: every
    # entry equal to the full-space product, the unreached rows zero
    rng = np.random.default_rng(94 + n)
    p = draw(n, rng)
    probe = rng.normal(size=(1 << n, 5)) + 1j * rng.normal(size=(1 << n, 5))
    for lams in (p.lambdas[:1], (p.lambdas[0], 0.3 - 0.2j), p.lambdas):
        for x in (np.eye(1 << n), probe):
            assert np.array_equal(chain_ops.apply_b_product(x, lams, p),
                                  _reference_b_product(x, lams, p))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_b_operator_maps_each_sector_to_the_next(n):
    # B adds one down spin: B[r, c] is exactly zero unless row r has one
    # more down spin than column c, and no such block is all zero
    p = draw(n, np.random.default_rng(99 + n))
    B = chain_ops.b_operator(p.lambdas[0], p)
    downs = np.bitwise_count(np.arange(1 << n)).astype(int)
    reached = downs[:, None] == downs[None, :] + 1
    assert np.all(B[~reached] == 0.0)
    for k in range(n):
        assert np.any(B[np.ix_(downs == k + 1, downs == k)] != 0.0)


def test_contraction_at_the_hard_cap_matches_the_determinant():
    # the sector B product at N = 12 on a sampled instance: agreement within
    # 1e-8 (1.1e-9 recorded when this test was written), and the warm calls
    # reuse the sector plans the first call built
    p = draw(12, np.random.default_rng(np.random.SeedSequence((95, 12))))
    chain_ops._b_program.cache_clear()
    weights.gather_plan.cache_clear()
    t0 = time.perf_counter()
    z = _contract(p)
    cold = time.perf_counter() - t0
    want = partition.z_determinant(p).value
    assert abs(z - want) <= 1e-8 * abs(want)
    built = chain_ops._b_program.cache_info().misses
    warm = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert _contract(p) == z
        warm.append(time.perf_counter() - t0)
    assert chain_ops._b_program.cache_info().misses == built
    assert min(warm) <= cold
