"""Cohomology complexes: literal differentials, window stabilization,
cocycles."""

import hashlib
import json
import random
from functools import partial

import numpy as np
import pytest

from phigamma import complexes
from phigamma.complexes import (
    certify_d_squared,
    cohomology,
    delta_project,
    explicit_cocycle,
    geometric_gamma_sum,
    herr_complex,
    semidirect_gamma_complex,
    _assemble,
    _delta_actions,
    _divisor_report,
    _herr_pair,
    _kernel_of,
    _matmul_mod,
    _operator_matrix,
    _out_depth,
    _power_and_sum,
    _subquotient,
    _tail_floor,
    _window_data,
    _window_dims,
    build_ring_window,
    ring_gamma,
    ring_window,
    RING_PHI,
)
from phigamma.errors import InvariantError, PrecisionError
from phigamma.modules import (identity_matrix, make_module, mat_inverse,
                              mat_map, mat_mul, tate_twist)
from phigamma.normfield import _LRU_SIZE
from phigamma.tatesen import decompletion_compare
from phigamma.wittside import ArithLiftElement
from phigamma import zmodlin
from phigamma.zmodlin import (ZModMatrix, _eliminate, image_length,
                              kernel_generators)
from test_zmodlin import _reference_smith

P = 3
CHI = 1 + P
SCHEDULE = (8, 16, 32)


def trivial(s=1, prec=200, p=P):
    I = identity_matrix(p, s, 1, prec)
    return make_module(p, s, I, [("gamma", I, 1 + p)])


def random_lift(rng, prec=40, lo=-5, hi=20):
    coeffs = {n: rng.randrange(P) for n in range(lo, hi)}
    return ArithLiftElement(P, 1, coeffs, prec)


# -- cone structure ----------------------------------------------------------


def _window_vector(x, b, top):
    return np.array([x.coeffs.get(n, 0) for n in range(-b, top)])


def test_cone_reproduces_standard_differentials():
    # the window d0 and d1 of the trivial module, on the coefficients of
    # random lifts in [-b, top), give the literal differentials of the lifts
    # below pi^top: ((1 - phi)x, (1 - gamma)x) and (1 - gamma)a - (1 - phi)y
    D = trivial()
    top, b = _tail_floor(D), 5
    bo = _out_depth(D, b)
    d0, e0, k0, d1, e1 = _herr_pair(D, b, bo, top)
    rng = random.Random(41)
    for _ in range(10):
        x, a, y = (random_lift(rng, lo=-b, hi=top) for _ in range(3))
        want = np.zeros(2 * (bo + top), dtype=np.int64)
        for slot, v in enumerate((x - x.frobenius(), x - x.gamma(CHI))):
            want[slot * (bo + top):(slot + 1) * (bo + top)] = \
                _window_vector(v, bo, top) % P
        got = _by_exponent((d0 @ _window_vector(x, b, top) % P)[:, None],
                           e0, k0, bo, top, 2)
        assert np.array_equal(got[:, 0], want)
        v = (a - a.gamma(CHI)) - (y - y.frobenius())
        got = d1 @ np.concatenate([_window_vector(a, b, top),
                                   _window_vector(y, b, top)]) % P
        assert np.array_equal(
            _by_exponent(got[:, None], e1, _components(e1), bo, top, 1)[:, 0],
            _window_vector(v, bo, top) % P)


def test_constants_are_zero_cocycles():
    # d0(c) = (c - phi(c), c - gamma(c)) on the trivial module
    c = ArithLiftElement.constant(P, 1, 2, 40)
    assert (c - c.frobenius()).is_zero()
    assert (c - c.gamma(CHI)).is_zero()


def test_d_squared_vanishes_on_random_vectors():
    # phi gamma = gamma phi on random lifts: on the trivial module d1(d0 x)
    # = (1 - gamma)(1 - phi)x - (1 - phi)(1 - gamma)x = phi(gamma(x)) -
    # gamma(phi(x))
    rng = random.Random(43)
    for _ in range(30):
        x = random_lift(rng)
        a, b = x - x.frobenius(), x - x.gamma(CHI)
        assert ((a - a.gamma(CHI)) - (b - b.frobenius())).is_zero()


def test_herr_complex_refuses_a_relative_module():
    I = identity_matrix(P, 1, 1, 24)
    D = make_module(P, 1, I, [("gamma_tilde", I, 1), ("gamma", I, CHI)],
                    relative=True)
    with pytest.raises(ValueError, match="herr_complex expects a "
                       "non-relative module; use --complex semidirect"):
        herr_complex(D)
    with pytest.raises(ValueError, match="unknown mode"):
        herr_complex(trivial(), "semidirect")


def test_d_squared_certified_on_window():
    assert certify_d_squared(herr_complex(trivial(), "delta"), 8)
    assert certify_d_squared(herr_complex(trivial(), "free"), 8)


# -- window columns and exact products --------------------------------------


def column_dicts(p, s, ring, bot, top):
    """ring(pi^n) for n in [-bot, top), cut at pi^top, as {exponent: coeff},
    read off a window whose output reaches phi(pi^-bot)'s least term."""
    deep = p * bot + (p - 1) * (s - 1)
    R = build_ring_window(p, s, ring, bot, deep, top)
    return {n: {int(m) - deep: int(R[m, n + bot])
                for m in np.flatnonzero(R[:, n + bot])}
            for n in range(-bot, top)}


def element_column(p, s, ring, n, top, prec):
    x = ArithLiftElement.pi_power(p, s, n, prec)
    y = x.frobenius() if ring == RING_PHI else x.gamma(ring[1])
    return {m: c for m, c in y.coeffs.items() if m < top}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_gamma_columns_match_element_gamma(p, s):
    bot, top = 6, 10
    omega2 = pow(2, p**99, p**100)  # Teichmuller residue of 2 mod p^100
    for ring in (ring_gamma(1 + p), ring_gamma(-1), ring_gamma(omega2)):
        cols = column_dicts(p, s, ring, bot, top)
        for n in range(-bot, top):
            # the element path keeps every coefficient below pi^top at this
            # precision
            assert cols[n] == element_column(p, s, ring, n, top,
                                             top + p * bot + 40), (ring, n)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_phi_columns_match_element_frobenius(p):
    bot, top = 6, 10
    cols = column_dicts(p, 1, RING_PHI, bot, top)
    for n in range(-bot, top):
        assert cols[n] == element_column(p, 1, RING_PHI, n, top, top + 40)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("s", [2, 3, 6])
def test_phi_columns_are_exact_inverses(p, s):
    # phi(pi^n) phi(pi^-n) = 1; top > p n keeps phi(pi^n) untruncated
    bot = 6
    top = p * bot + 1
    cols = column_dicts(p, s, RING_PHI, bot, top)
    for n in range(1, bot + 1):
        prod = {}
        for i, a in cols[n].items():
            for j, b in cols[-n].items():
                prod[i + j] = (prod.get(i + j, 0) + a * b) % p**s
        assert {k: c for k, c in prod.items() if c} == {0: 1}, n


def fresh_window(p, s, ring, bot_in, bot_out, top):
    """The window matrix entry by entry from the columns of a fresh build
    deep enough to hold every image."""
    R = np.zeros((bot_out + top, bot_in + top), dtype=np.int64)
    for n, col in column_dicts(p, s, ring, bot_in, top).items():
        for m, c in col.items():
            if m >= -bot_out:
                R[m + bot_out, n + bot_in] = c
    return R


@pytest.mark.parametrize("p, s", [(3, 1), (5, 2), (3, 3), (7, 2)])
def test_ring_window_corners_deepen_each_side(p, s):
    """Requests that deepen only the input side, only the output side, both,
    or neither are read off one kept window per (p, s, ring, top), rebuilt as
    deep as every request so far."""
    omega2 = pow(2, p ** 99, p ** 100)
    top = 7
    steps = [(4, 6), (9, 6), (9, 20), (2, 3), (12, 8), (5, 30), (0, 0)]
    for ring in (RING_PHI, ring_gamma(1 + p), ring_gamma(-1),
                 ring_gamma(omega2)):
        complexes._WINDOWS.clear()
        deepest = [0, 0]
        for bot_in, bot_out in steps:
            R = ring_window(p, s, ring, bot_in, bot_out, top)
            assert not R.flags.writeable
            assert np.array_equal(R, fresh_window(p, s, ring, bot_in,
                                                  bot_out, top)), (ring,
                                                                   bot_in)
            deepest = [max(deepest[0], bot_in), max(deepest[1], bot_out)]
            assert list(complexes._WINDOWS) == [(p, s, ring, top)]
            assert list(complexes._WINDOWS[p, s, ring, top][:2]) == deepest


def test_ring_window_cache_is_bounded():
    complexes._WINDOWS.clear()
    exponents = [a for a in range(1, 30) if a % 3]
    for a in exponents:
        ring_window(3, 2, ring_gamma(a), 5, 5, 4)
        assert len(complexes._WINDOWS) <= _LRU_SIZE
    # the most recently used windows are the ones kept
    assert [key[2] for key in complexes._WINDOWS] == [
        ring_gamma(a) for a in exponents[-_LRU_SIZE:]]


def test_matmul_mod_matches_object_product():
    rng = np.random.default_rng(61)
    # q = 31^5: (q-1)^2 * 40 > 2^53, so the inner dimension 40 is split;
    # q = 7^10 and 2^31 - 1: (q-1)^2 >= 2^53 takes int64 slices
    for q, shape in ((3, (7, 5, 9)), (7**6, (30, 200, 20)),
                     (31**5, (6, 40, 4)), (7**10, (5, 8, 3)),
                     (2**31 - 1, (3, 9, 2)), (7**6, (3, 0, 2))):
        m, k, n = shape
        A = rng.integers(0, q, size=(m, k))
        B = rng.integers(0, q, size=(k, n))
        for X, Y in ((A, B), (np.full_like(A, q - 1), np.full_like(B, q - 1))):
            want = (X.astype(object) @ Y.astype(object)) % q
            got = _matmul_mod(X, Y, q)
            assert got.dtype == np.int64
            assert np.array_equal(got, want.astype(np.int64)), q
    # (q-1)^2 >= 2^63 is refused, as by ZModMatrix
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        _matmul_mod(one, one, 7**12)




def test_delta_projector_is_idempotent_on_vectors():
    D = trivial()
    proj = delta_project(D, 12, 12)
    rng = np.random.default_rng(53)
    v = rng.integers(0, P, size=proj.matrix.shape[1])
    once = proj.matrix @ v % P
    assert np.array_equal(proj.matrix @ once % P, once)
    # the fixed basis is pointwise fixed
    assert np.array_equal(proj.matrix @ proj.basis % P, proj.basis % P)


def test_delta_projector_twisted_character():
    D = tate_twist(trivial(), 1)
    proj = delta_project(D, 12, 12)
    assert proj.exponent == 1
    # pi is an eigenvector pattern, the constant 1 is not fixed under omega
    e0 = np.zeros(proj.matrix.shape[1], dtype=np.int64)
    e0[12] = 1  # the constant slot of the window [-12, 12)
    assert not np.array_equal(proj.matrix @ e0 % P, e0)


# (p, s), a generator g of (Z/p)^x, and the twists n and windows checked
DELTA_CELLS = [(3, 1, 2), (3, 2, 2), (5, 1, 2), (5, 2, 2), (7, 1, 3)]
DELTA_WINDOWS = [(4, 1), (9, 3)]


def _direct_delta_action(D, u, bot, top):
    """omega(u)^e * gamma_omega(u) on the window, built on its own."""
    p, s = D.p, D.s
    M = s + (top + p * bot) // (p - 1) + 6
    a = pow(u, p ** (M - 1), p ** M)
    ring = ring_gamma(-1) if u == p - 1 else ring_gamma(a)
    scalar = pow(a, D.delta_character_exponent, p ** s)
    # a square window keeps every row
    return _operator_matrix(D, ring, identity_matrix(p, s, D.rank, top), bot,
                            bot, top, np.ones(bot + top, dtype=bool)) \
        * scalar % p ** s


@pytest.mark.parametrize("p, s, g", DELTA_CELLS)
def test_delta_actions_are_generator_powers(p, s, g):
    q = p ** s
    for n in (0, 1, p - 2):
        D = tate_twist(trivial(s, p=p), n)
        for bot, top in DELTA_WINDOWS:
            _, acts = _delta_actions(D, bot, top)
            assert len(acts) == p - 1
            for i, A in enumerate(acts):
                want = _direct_delta_action(D, pow(g, i, p), bot, top)
                assert np.array_equal(A, want), (n, bot, i)
            # act_g^(p-1) = I exactly on the window
            eye = np.eye(len(acts[1]), dtype=np.int64)
            assert np.array_equal(_matmul_mod(acts[-1], acts[1], q), eye)


@pytest.mark.parametrize("p, s, g", DELTA_CELLS)
def test_delta_basis_is_a_basis_of_the_fixed_part(p, s, g):
    q = p ** s
    for n in range(p - 1):
        D = tate_twist(trivial(s, p=p), n)
        for bot, top in DELTA_WINDOWS:
            proj = delta_project(D, bot, top)
            X = proj.basis
            # the reference: the kernel of the stacked (act_u - I), u in Delta
            eye = np.eye(X.shape[0], dtype=np.int64)
            stack = np.vstack([(_direct_delta_action(D, u, bot, top) - eye)
                               % q for u in range(1, p)])
            K = kernel_generators(ZModMatrix(p, s, stack)).entries
            lengths = {image_length(ZModMatrix(p, s, M))
                       for M in (X, K, np.hstack([X, K]))}
            assert lengths == {s * X.shape[1]}, (n, bot)
            # unit pivots only, as many as the rank of E
            assert _eliminate(X.copy(), p, s) == [0] * X.shape[1]
            assert image_length(ZModMatrix(p, s, proj.matrix)) \
                == s * X.shape[1]


@pytest.mark.parametrize("p, s", [(5, 1), (5, 2), (7, 1), (7, 3)])
def test_delta_actions_of_two_depths_share_one_window(p, s):
    """The omega residue does not depend on the depth, so the Delta actions
    of a shallow and a deep window are a corner and its extension, read off
    one ring_window entry."""
    top = 3
    for n in (0, 1):
        D = tate_twist(trivial(s, p=p), n)
        complexes._WINDOWS.clear()
        _, shallow = _delta_actions(D, 4, top)
        _, deep = _delta_actions(D, 11, top)
        for small, big in zip(shallow, deep):
            assert np.array_equal(big[7:, 7:], small)
        assert len(complexes._WINDOWS) == 1
        (_, _, ring, _), = complexes._WINDOWS
        # one omega residue, the least mod p^(s + 63)
        assert ring[0] == "gamma" and 0 < ring[1] < p ** (s + 63)


# -- window cohomology -------------------------------------------------------


def test_trivial_module_base_field_dims():
    rep = cohomology(herr_complex(trivial(), "delta"), SCHEDULE)
    assert rep.dims == (1, 2, 0)
    assert rep.euler == -1
    assert rep.verdict == "stable"
    assert rep.profiles == ((3,), (3, 3), ())


def test_first_twist_dims():
    D = tate_twist(trivial(), 1)
    rep = cohomology(herr_complex(D, "delta"), SCHEDULE)
    assert rep.dims == (0, 2, 1)
    assert rep.euler == -1
    assert rep.verdict == "stable"


def test_torsion_free_mode_dims():
    rep = cohomology(herr_complex(trivial(), "free"), SCHEDULE)
    assert rep.dims == (1, 4, 1)
    assert rep.euler == -2
    assert rep.verdict == "stable"


def test_second_twist_report_is_byte_identical():
    # chi^2 = 16 = 1 mod 3 and the prime-to-p exponent moves by 2 = 0 mod 2
    base = cohomology(herr_complex(trivial(), "delta"), SCHEDULE)
    twisted = cohomology(herr_complex(tate_twist(trivial(), 2), "delta"),
                         SCHEDULE)
    assert twisted.to_json() == base.to_json()
    assert twisted.to_csv() == base.to_csv()


def test_square_level_lengths_and_profile():
    rep = cohomology(herr_complex(trivial(s=2), "delta"), SCHEDULE)
    assert rep.dims == (2, 4, 0)
    assert rep.profiles[1] == (9, 9)
    assert rep.verdict == "stable"


def test_stabilization_trace_is_recorded():
    rep = cohomology(herr_complex(trivial(), "delta"), SCHEDULE)
    assert [w for w, _ in rep.trace] == list(SCHEDULE)
    assert all(d == rep.dims for _, d in rep.trace)


@pytest.mark.parametrize("p, s, mode, schedule, dims", [
    (5, 2, "delta", (8, 16, 32), (2, 4, 0)),
    (3, 3, "delta", (8, 16, 32), (3, 6, 0)),
    # H^2 of the free mode is H^0(Z/9(1)) over Q_3(zeta_3): mu_3, length 1
    (3, 2, "free", (16, 32, 64), (2, 7, 1)),
])
def test_trivial_closed_form_lengths(p, s, mode, schedule, dims):
    # Euler characteristic -s [K:Q_p]; H^0 = Z/p^s, H^2 dual to H^0(Z/p^s(1))
    rep = cohomology(herr_complex(trivial(s, p=p), mode), schedule)
    assert rep.dims == dims
    assert rep.euler == -s * (1 if mode == "delta" else p - 1)
    assert rep.verdict == "stable"


# Cells past the benchmark's s <= 2, where the pivot search runs at positive
# valuations on large windows.  Each twist is built as bench/worker.py builds
# it (Phi = 1, gamma = 1 + p, entries certified to pi^600), and the dims and
# profiles of every window are pinned.
@pytest.mark.parametrize("p, s, n, mode, schedule, dims, profiles", [
    (7, 6, 1, "free", (48, 96), (1, 43, 6),
     ((7,), (7,) + (117649,) * 7, (117649,))),
    (5, 5, 1, "delta", (32, 64), (0, 10, 5), ((), (3125, 3125), (3125,))),
    (7, 3, 2, "delta", (32, 64), (0, 3, 0), ((), (343,), ())),
])
def test_deep_herr_windows_pinned(p, s, n, mode, schedule, dims, profiles):
    T = herr_complex(tate_twist(trivial(s, prec=600, p=p), n), mode)
    bases = {}
    for b in schedule:
        assert _window_dims(T, b, bases) == (dims, profiles)


def test_deep_free_window_reads_its_top_degree():
    # Z/7^6(0) in free mode: kernel columns scaled by p^(s - v) and left
    # unreduced made one (257 x 1026)(1026 x 337) product of the depth-256
    # window exceed float64's exact integers, and the window read h2 = 0
    T = herr_complex(tate_twist(trivial(6, prec=600, p=7), 0), "free")
    rep = cohomology(T, (64, 128, 256))
    assert rep.verdict == "stable"
    assert [dims for _, dims in rep.trace] == [(6, 43, 1)] * 3


@pytest.mark.parametrize("p, s, n, mode", [(3, 3, 1, "delta"),
                                           (3, 6, 0, "free"),
                                           (3, 6, 1, "free")])
def test_window_products_take_canonical_operands(p, s, n, mode, monkeypatch):
    # _matmul_mod is exact only on entries in [0, q)
    def checked(A, B, q):
        for M in (A, B):
            assert not M.size or (M.min() >= 0 and M.max() < q)
        return _matmul_mod(A, B, q)

    monkeypatch.setattr(complexes, "_matmul_mod", checked)
    T = herr_complex(tate_twist(trivial(s, prec=600, p=p), n), mode)
    assert cohomology(T, (16, 32, 64)).verdict == "stable"


@pytest.mark.parametrize("schedule", [(5, 6, 10), (64, 32)])
@pytest.mark.parametrize("mode", ["delta", "free"])
def test_window_dims_shared_cache_matches_fresh(mode, schedule):
    # one cache across a schedule that is not doubling, or decreasing, gives
    # every window the dims and profiles of a cache of its own; it holds one
    # assembled depth, the deepest any window read
    T = herr_complex(tate_twist(trivial(2, prec=600), 1), mode)
    cache = {}
    for b in schedule:
        assert _window_dims(T, b, cache) == _window_dims(T, b, {})
    assert list(cache) == [2 * max(schedule)]


def _series_module(prec, p=P):
    # the trivial module in the basis u = 1 + pi + pi^5: series entries
    one = ArithLiftElement.one(p, 1, prec)
    u = (one + ArithLiftElement.pi_power(p, 1, 1, prec)
         + ArithLiftElement.pi_power(p, 1, 5, prec))
    return make_module(p, 1, [[u.frobenius() * u.inverse()]],
                       [("gamma", [[u.gamma(1 + p) * u.inverse()]], 1 + p)])


def _twist(p, s, rank=1):
    I = identity_matrix(p, s, rank, 600)
    return tate_twist(make_module(p, s, I, [("gamma", I, 1 + p)]), 1)


def _trivial_plus_twist(p):
    # Z/p(0) + Z/p(1), a rank-2 sum that the free mode models
    I = identity_matrix(p, 1, 2, 600)
    G = identity_matrix(p, 1, 2, 600)
    G[1][1] = G[1][1].scale(1 + p)
    return make_module(p, 1, I, [("gamma", G, 1 + p)])


CORNER_CASES = [
    pytest.param(partial(_twist, p, s), mode, id=f"Z/{p}^{s}(1)-{mode}")
    for p, s in ((3, 1), (3, 3), (5, 2), (7, 1), (7, 3))
    for mode in ("delta", "free")
] + [
    pytest.param(partial(_twist, 3, 2, 2), "delta", id="Z/3^2(1)^2-delta"),
    pytest.param(partial(_trivial_plus_twist, 5), "free",
                 id="Z/5(0)+Z/5(1)-free"),
    pytest.param(partial(_series_module, 400), "free", id="u-basis-free"),
]


def _by_exponent(M, e, k, depth, top, n):
    """The rows of M in the dense layout of n components of [-depth, top):
    row i goes to k[i] * (depth + top) + e[i] + depth; rows left out are 0."""
    out = np.zeros((n * (depth + top), M.shape[1]), dtype=M.dtype)
    out[k * (depth + top) + e + depth] = M
    return out


def _components(e):
    # the rows of a component run up in exponent, each to pi^(top - 1)
    return np.concatenate([[0], np.cumsum(np.diff(e) <= 0)])


def _constant(M):
    return all(x.coeffs.keys() <= {0} for row in M for x in row)


def _literal_operators(D, b, bo, top):
    """Every row of the Herr operators A = 1 - Phi*phi and B = 1 - G*gamma
    from [-b, top) to [-bo, top), in the layout of _by_exponent: I - Phi (x)
    R_phi and I - G (x) R_gamma for constant entries, R a fresh ring window;
    for series entries, column by column from ArithLiftElement arithmetic,
    x - M*act(x) on x = pi^n in each component."""
    p, s, r, q = D.p, D.s, D.rank, D.p ** D.s
    g = D.generator("gamma")
    terms = ((D.phi, RING_PHI, lambda x: x.frobenius()),
             (g.matrix, ring_gamma(g.exponent), lambda x: x.gamma(g.exponent)))
    h, w = bo + top, b + top
    out = []
    for M, ring, act in terms:
        if _constant(M):
            C = np.array([[x.coeffs.get(0, 0) for x in row] for row in M])
            R = build_ring_window(p, s, ring, b, bo, top)
            one = np.eye(h, w, k=b - bo, dtype=np.int64)
            out.append((np.kron(np.eye(r, dtype=np.int64), one)
                        - np.kron(C, R)) % q)
            continue
        X = np.zeros((r * h, r * w), dtype=np.int64)
        for n in range(-b, top):
            y = act(ArithLiftElement.pi_power(p, s, n, top + p * b + 40))
            for i in range(r):
                for j in range(r):
                    v = M[i][j] * y
                    assert v.prec_num >= top
                    for m, c in v.coeffs.items():
                        assert m >= -bo
                        if m < top:
                            X[i * h + m + bo, j * w + n + b] -= c
            for j in range(r):
                X[j * h + n + bo, j * w + n + b] += 1
        out.append(X % q)
    return out


@pytest.mark.parametrize("module, mode", CORNER_CASES)
def test_window_builds_leave_out_only_zero_rows(module, mode):
    # d0 = (A; B) and d1 = (B, -A), laid out by exponent, equal the literal
    # operators row for row: a build keeps every row of exponent at least
    # -bot_in and leaves out only rows that are zero there; series entries
    # keep all
    D = module()
    r, q = D.rank, D.p ** D.s
    top = _tail_floor(D)
    series = not all(_constant(M) for M in (D.phi,
                                            D.generator("gamma").matrix))
    for b in (top, 5, 12):
        bo = _out_depth(D, b)
        A, B = _literal_operators(D, b, bo, top)
        d0, e0, k0, d1, e1 = _herr_pair(D, b, bo, top)
        assert d0.shape[0] == len(e0) == len(k0) and d1.shape[0] == len(e1)
        assert np.count_nonzero(e0 >= -b) == 2 * r * (b + top)
        assert np.count_nonzero(e1 >= -b) == r * (b + top)
        assert np.array_equal(_by_exponent(d0, e0, k0, bo, top, 2 * r),
                              np.vstack([A, B]))
        assert np.array_equal(
            _by_exponent(d1, e1, _components(e1), bo, top, r),
            np.hstack([B, -A % q]))
        # the u-basis module keeps every row; the others leave some out
        assert (len(e0) == 2 * r * (bo + top)) == series


@pytest.mark.parametrize("module, mode", CORNER_CASES)
def test_window_data_corners_match_fresh_builds(module, mode):
    # every depth read off one assembled depth equals its own assembly, bit
    # for bit once both are laid out by exponent: X, d0 X and d1 diag(X, X),
    # and the raw d0 and d1 that the d^2 certificate reads
    D = module()
    T = herr_complex(D, mode)
    top = _tail_floor(D)
    r = D.rank
    # deep enough to hold the certificate's pair at depth 5
    deep = max(24, _out_depth(D, 5))
    (d0, e0, k0, d1), data = _assemble(T, deep, top)
    cache = {deep: data}
    for b in (top, 5, 8, 12, deep):
        got, want = _window_data(T, b, top, cache), _window_data(T, b, top, {})
        assert (got[0] is None) == (want[0] is None) == (mode == "free")
        assert want[0] is None or (got[0].dtype == want[0].dtype
                                   and np.array_equal(got[0], want[0]))
        bo = _out_depth(D, b)
        # d0 has two output slots, d1 one
        for (g, ge), (w, we), n in ((got[1:3], want[1:3], 2 * r),
                                    (got[3:5], want[3:5], r)):
            assert g.dtype == w.dtype and np.count_nonzero(we >= -b) == \
                np.count_nonzero(ge >= -b) == n * (b + top)
            assert np.array_equal(
                _by_exponent(g, ge, _components(ge), bo, top, n),
                _by_exponent(w, we, _components(we), bo, top, n))
    assert list(cache) == [deep]
    # the certificate's pair at depth b: d0 from b into bo, d1 from bo on
    *_, d1_raw, e1 = _herr_pair(D, deep, _out_depth(D, deep), top)
    assert np.array_equal(d1_raw, d1)
    k1 = _components(e1)
    win = np.tile(np.arange(-deep, top), r)
    for b in (top, 5):
        bo = _out_depth(D, b)
        bo2 = _out_depth(D, bo)
        rows = e0 >= -bo
        assert np.array_equal(
            _by_exponent(d0[np.ix_(rows, win >= -b)], e0[rows], k0[rows],
                         bo, top, 2 * r),
            _by_exponent(*_herr_pair(D, b, bo, top)[:3], bo, top, 2 * r))
        rows = e1 >= -bo2
        fresh, fresh_e = _herr_pair(D, bo, bo2, top)[3:]
        assert np.array_equal(
            _by_exponent(d1[np.ix_(rows, np.tile(win, 2) >= -bo)], e1[rows],
                         k1[rows], bo2, top, r),
            _by_exponent(fresh, fresh_e, _components(fresh_e), bo2, top, r))


# sha256 of d0, e0, k0, d1, e1 and X (b"None" in free mode) of _assemble at
# depths 5 and 12, each array's dtype and shape before its bytes, recorded
# before d0 and d1 were read off the two Herr operators
ASSEMBLY_DIGESTS = {
    ("Z/3^1(1)-delta", 5):
        "a6cf9c888685123e0bcaadb4ea630316e096525a01faad694a145b998db65a57",
    ("Z/3^1(1)-delta", 12):
        "9a787a6c3c29ccf0d95c0bc5cbc6dc7d4ea9f6fc789a6c9c15ce0e106ba7df03",
    ("Z/3^1(1)-free", 5):
        "4ceb85837e2277eb560870b8294c9fb4b0e12e7014e678c3e454cdcc1f0d4af3",
    ("Z/3^1(1)-free", 12):
        "b55e37941f84a4460bd3c86f91ef68abe4bd0a0c8968e8325c17d81067c60c3c",
    ("Z/3^3(1)-delta", 5):
        "6a1ed92bf37a32e3e1dce31d62ff10ec83aec99823429090a6c88b6cb900bb55",
    ("Z/3^3(1)-delta", 12):
        "725535216ab73cf39d830ac4a95d9b1dc9184db373bf7a6294b261cc7c58736c",
    ("Z/3^3(1)-free", 5):
        "1fc110b430b076796a7893d3f46965ae9a7af835798608391a505477ab5fdc25",
    ("Z/3^3(1)-free", 12):
        "36f28ae1cced10a4c8a6a7b0654e6b180f0d80bd6812ea3b5b354fbd7478ffcc",
    ("Z/5^2(1)-delta", 5):
        "74802974d3c9d58cd64630bab0fd1f632c32febfef0fbdad0de170b261b73c44",
    ("Z/5^2(1)-delta", 12):
        "57f970ee594b806d17e197ae7d9ca9567fdafa25e5f6d04fd72ff4876f3462ab",
    ("Z/5^2(1)-free", 5):
        "a2ed858940c934601c2ef02cd5ec452c14f4161fb66dfeb64075829f29ae5f62",
    ("Z/5^2(1)-free", 12):
        "07d565db7f86ee68668695863ae95f329a79ade1fbf629ac533bc75193823f53",
    ("Z/7^1(1)-delta", 5):
        "e53c7076368faccc3fe9d2c6a13b05940b90183568bcf598ee6cbac021e32e75",
    ("Z/7^1(1)-delta", 12):
        "52dee01fe1ec23077b52449c7590accafb93dbb1d7e4863e72c59ae0b0ea8f4b",
    ("Z/7^1(1)-free", 5):
        "63601f247c44afc113b3c21465fe1385711cd43ef4466002e54e49a9d9d5e704",
    ("Z/7^1(1)-free", 12):
        "2175f0fa122f7c501d88cf8f8199a19cc2793034d737bd3670ce9fbb58e31fea",
    ("Z/7^3(1)-delta", 5):
        "bedd03ea3504ba38d8d8d2a0f9a64205fba9e515612addcd82e157242da2c40d",
    ("Z/7^3(1)-delta", 12):
        "779a16f6ed9662db1f760619a3601a481e4f28028e2283d7acbe470a7355b70d",
    ("Z/7^3(1)-free", 5):
        "c56801065b38a69b7fddf3664e340b9fccce2ab6818d80295d141f49598b6d4a",
    ("Z/7^3(1)-free", 12):
        "2341a0cf91669e694e1ef6f747a0e8b2517b173895a79b9dfd48ff7f1ccaf86b",
    ("Z/3^2(1)^2-delta", 5):
        "2f12a102230fd619400d925e84c4594356cb5e43f6f75b6a96942ba789a8a7d7",
    ("Z/3^2(1)^2-delta", 12):
        "a9581d8cada6078592ec742a5ff776d67a06671110c82d727a5d96914bcbc542",
    ("Z/5(0)+Z/5(1)-free", 5):
        "ba4c7f5660fecaf28eddc74c54ac370fd61e7adaa1a39c3c34e44a18c11ca085",
    ("Z/5(0)+Z/5(1)-free", 12):
        "ebef1b6f704d468bc308bf363a14171b03539e462c517ba4e23b453d666847c7",
    ("u-basis-free", 5):
        "7e4232b48989f876e22e819785926e1608b6921410896a433e4906b93a63f26b",
    ("u-basis-free", 12):
        "10acf5e11125407b172f422201bc4a47662353c839c86fe1ef726cda8941d342",
}


@pytest.mark.parametrize("module, mode", CORNER_CASES)
def test_assembly_arrays_are_pinned(module, mode, request):
    T = herr_complex(module(), mode)
    top = _tail_floor(T.module)
    case = request.node.callspec.id
    for b in (5, 12):
        (d0, e0, k0, d1), (_, X, _, _, _, e1) = _assemble(T, b, top)
        h = hashlib.sha256()
        for a in (d0, e0, k0, d1, e1, X):
            if a is None:
                h.update(b"None")
            else:
                h.update(f"{a.dtype}{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == ASSEMBLY_DIGESTS[case, b], (case, b)


@pytest.mark.parametrize("prec, need", [(90, 91), (95, 97)])
def test_deepest_assembly_reports_the_first_failing_step(prec, need):
    # the schedule is assembled at depth 64 at once, which needs entries
    # certified to about pi^385; when that fails, the error is the one the
    # certificate or the first short depth raises, not the deepest one
    T = herr_complex(_series_module(prec), "free")
    with pytest.raises(PrecisionError,
                       match=rf"certified to pi\^{need}, got pi\^{prec}$"):
        cohomology(T, (8, 16, 32))


def test_deepest_assembly_answers_past_the_certified_need():
    rep = cohomology(herr_complex(_series_module(200), "free"), (8, 16, 32))
    assert (rep.dims, rep.verdict) == ((1, 4, 1), "stable")


def test_series_entry_report_pinned():
    # the u-basis module is the one whose window builds keep every row (its
    # entries are series); its report bytes were recorded when every build
    # kept every row
    rep = cohomology(herr_complex(_series_module(200), "free"), (8, 16, 32))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
        "732b838036a1d08b83f76acf8d275df5af1e3ab25b6817d8d1798bfe9d6f6c0e"


def test_certificate_reads_the_deepest_build(monkeypatch):
    # at (8, 9, 10) the certificate's d1 starts at _out_depth(8) = 30, past
    # twice the deepest depth: the one build is made at 30, and the
    # certificate reads both its matrices off it.  When that build raises,
    # the certificate runs on its own and raises what it always raised
    built = []
    one_minus = complexes._one_minus

    def counted(D, term, bot_in, bot_out, top):
        built.append((term[0][0], bot_in))
        return one_minus(D, term, bot_in, bot_out, top)

    monkeypatch.setattr(complexes, "_one_minus", counted)
    T = herr_complex(_series_module(100), "free")
    assert _out_depth(T.module, 8) == 30
    rep = cohomology(T, (8, 9, 10))
    assert rep.trace == tuple((b, (1, 4, 1)) for b in (8, 9, 10))
    # 1 - phi and 1 - gamma, each built once
    assert rep.verdict == "stable" and built == [("phi", 30), ("gamma", 30)]
    built.clear()
    with pytest.raises(PrecisionError,
                       match=r"certified to pi\^91, got pi\^80$"):
        cohomology(herr_complex(_series_module(80), "free"), (8, 9, 10))
    # the deepest build fails at 1 - phi; the certificate's d0 is built at
    # 8, and its d1 at 30 builds 1 - gamma first
    assert built == [("phi", 30), ("phi", 8), ("gamma", 8), ("gamma", 30),
                     ("phi", 30)]


@pytest.mark.parametrize("mode", ["delta", "free"])
def test_d_squared_certified_at_p7_s4(mode):
    assert certify_d_squared(herr_complex(trivial(4, p=7), mode), 8)


def test_report_serialization_round_trip():
    rep = cohomology(herr_complex(trivial(), "delta"), SCHEDULE)
    doc = json.loads(rep.to_json())
    assert doc["dims"] == [1, 2, 0]
    assert doc["verdict"] == "stable"
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "degree,length,profile"
    assert lines[1] == "0,1,3"
    assert lines[2] == "1,2,3|3"


def test_window_beyond_certified_entries_raises():
    pi = ArithLiftElement.pi_power(P, 1, 1, 16)
    u = ArithLiftElement.one(P, 1, 16) + pi
    D = make_module(P, 1, [[u.frobenius() * u.inverse()]],
                    [("gamma", [[u.gamma(CHI) * u.inverse()]], CHI)])
    with pytest.raises(PrecisionError):
        cohomology(herr_complex(D, "delta"), (32,) * 3)


def test_series_entries_past_their_certified_terms_raise():
    # the trivial module in the basis u = 1 + pi + pi^5, entries certified
    # to pi^40: a depth-b window reads entry terms up to about pi^(6b), so
    # these schedules gave (1, 4, 0) at depth 32, or "d^2 != 0"
    prec = 40
    one = ArithLiftElement.one(P, 1, prec)
    u = (one + ArithLiftElement.pi_power(P, 1, 1, prec)
         + ArithLiftElement.pi_power(P, 1, 5, prec))
    D = make_module(P, 1, [[u.frobenius() * u.inverse()]],
                    [("gamma", [[u.gamma(CHI) * u.inverse()]], CHI)])
    for schedule, need in (((8, 16, 32), 91), ((16, 32), 49)):
        with pytest.raises(PrecisionError,
                           match=rf"certified to pi\^{need}, got pi\^40"):
            cohomology(herr_complex(D, "free"), schedule)


def test_basis_change_leaves_dims_invariant():
    # trivial module written in the basis u: same cohomology.  The
    # Delta-averaged mode is out of scope here (Delta would act through a
    # nonscalar matrix in this basis), so compare in the free mode.  Phi and
    # gamma have series entries here, and a window row needs their terms up
    # to pi^(top + output depth), past the window top
    pi = ArithLiftElement.pi_power(P, 1, 1, 220)
    one = ArithLiftElement.one(P, 1, 220)
    for u in (one + pi, one + pi + ArithLiftElement.pi_power(P, 1, 5, 220),
              (one - pi).inverse()):
        D = make_module(P, 1, [[u.frobenius() * u.inverse()]],
                        [("gamma", [[u.gamma(CHI) * u.inverse()]], CHI)])
        rep = cohomology(herr_complex(D, "free"), SCHEDULE)
        assert rep.dims == (1, 4, 1), u
        assert rep.verdict == "stable", u


@pytest.mark.parametrize("k", [-1, -2, -3, -4, -6])
def test_negative_power_basis_leaves_dims_invariant(k):
    # the trivial module in the basis pi^k e: Phi = phi(pi^k)/pi^k has
    # valuation 2k < 0; it shifts image terms up to pi^(top - 2k) back into
    # the window, so the image must reach that far, and it carries images
    # -2k further down, so the output window must too.  At k = -1 the window
    # top is 2, where phi's H = pi^2 mod 3 truncates to zero
    b = ArithLiftElement.pi_power(P, 1, k, 400)
    binv = b.inverse()
    D = make_module(P, 1, [[b.frobenius() * binv]],
                    [("gamma", [[b.gamma(CHI) * binv]], CHI)])
    schedule = (16, 32, 64)
    for mode in ("free", "delta"):
        assert certify_d_squared(herr_complex(D, mode), 16)
    want = cohomology(herr_complex(trivial(), "free"), schedule)
    rep = cohomology(herr_complex(D, "free"), schedule)
    assert (rep.dims, rep.profiles, rep.verdict) == \
        (want.dims, want.profiles, "stable")
    # Delta acts on this basis through the series gamma_delta(pi^k)/pi^k,
    # which delta mode does not model (it averages a scalar character):
    # it may refuse, but never answers wrongly
    want = cohomology(herr_complex(trivial(), "delta"), schedule)
    try:
        rep = cohomology(herr_complex(D, "delta"), schedule)
    except InvariantError:
        return
    assert (rep.dims, rep.profiles) == (want.dims, want.profiles)


def test_rank_two_basis_change_leaves_dims_invariant():
    # Z/3 + Z/3 in the basis U, with Phi = U^-1 phi(U), G = U^-1 gamma(U):
    # off-diagonal series entries, same cohomology (2, 8, 2) in free mode
    pi = ArithLiftElement.pi_power(P, 1, 1, 220)
    one = ArithLiftElement.one(P, 1, 220)
    U = [[one + pi, pi], [ArithLiftElement.zero(P, 1, 220), one]]
    Ui = mat_inverse(U)
    D = make_module(P, 1, mat_mul(Ui, mat_map(U, lambda x: x.frobenius())),
                    [("gamma", mat_mul(Ui, mat_map(U, lambda x: x.gamma(CHI))),
                      CHI)])
    rep = cohomology(herr_complex(D, "free"), SCHEDULE)
    assert rep.dims == (2, 8, 2)
    assert rep.verdict == "stable"


# -- semidirect (relative) complexes -----------------------------------------


def upper(rng, rank, square_zero=False):
    N = np.zeros((rank, rank), dtype=np.int64)
    for i in range(rank):
        for j in range(i + 1, rank):
            if square_zero and j - i < rank - 1 and rank > 2:
                continue
            N[i, j] = rng.randrange(P)
    return N


def relative_fixture(rng, rank=3, square_zero=False, prec=24):
    N = upper(rng, rank, square_zero)
    I = np.eye(rank, dtype=np.int64)
    poly = lambda: (rng.choice([1, 2]) * I
                    + sum(rng.randrange(P) * np.linalg.matrix_power(N, k)
                          for k in range(1, rank))) % P

    def lift(A):
        return [[ArithLiftElement.constant(P, 1, int(c), prec) for c in row]
                for row in A]

    Gt = (I + N) % P
    return make_module(P, 1, lift(poly()),
                       [("gamma_tilde", lift(Gt), 1),
                        ("gamma", lift(poly()), CHI)],
                       relative=True)


def test_semidirect_trivial_dims_and_zero_differentials():
    I = identity_matrix(P, 1, 1, 24)
    D = make_module(P, 1, I, [("gamma_tilde", I, 1), ("gamma", I, CHI)],
                    relative=True)
    T = semidirect_gamma_complex(D)
    assert len(T.diffs) == 2
    for M in T.diffs:
        assert M.dtype == np.int64 and not (M % P).any()
    rep = cohomology(T)
    assert rep.dims == (1, 2, 1)
    assert rep.profiles == ((3,), (3, 3), (3,))


def test_semidirect_random_fixtures_square_to_zero():
    rng = random.Random(59)
    for _ in range(5):
        T = semidirect_gamma_complex(relative_fixture(rng))
        d0, d1 = T.diffs
        for _ in range(20):
            v = np.array([rng.randrange(P) for _ in range(T.module.rank)])
            assert not (d1 @ (d0 @ v % P) % P).any()


def test_power_and_sum_match_the_term_by_term_sum():
    # gamma~^chi and sum_{i<chi} gamma~^i by binary splitting, against chi
    # products one by one
    rng = np.random.default_rng(83)
    for q, rank in ((3, 2), (9, 3), (27, 2), (49, 3), (5**6, 2)):
        G = rng.integers(0, q, (rank, rank))
        power = np.eye(rank, dtype=object)
        total = np.zeros((rank, rank), dtype=object)
        for chi in range(41):
            got = _power_and_sum(G, chi, q)
            assert all(M.dtype == np.int64 for M in got)
            assert np.array_equal(got[0], power % q), (q, chi)
            assert np.array_equal(got[1], total % q), (q, chi)
            total = total + power
            power = power.dot(G.astype(object)) % q


def _unipotent_relative_module(chi, s=2):
    # gamma~ = [[1, 1], [0, 1]] and gamma = diag(chi, 1) mod 3^s satisfy
    # gamma gamma~ = gamma~^chi gamma, as gamma~^chi = [[1, chi], [0, 1]]
    q = P ** s

    def const(rows):
        return [[ArithLiftElement.constant(P, s, c, 24) for c in row]
                for row in rows]

    return make_module(P, s, identity_matrix(P, s, 2, 24),
                       [("gamma_tilde", const([[1, 1], [0, 1]]), 1),
                        ("gamma", const([[chi % q, 0], [0, 1]]), chi)],
                       relative=True)


@pytest.mark.parametrize("chi", [4, 3000001, 10**18 + 9])
def test_semidirect_large_exponent_matches_the_closed_form(chi):
    # d1 = (gamma - q, 1 - gamma~^chi) with q = sum_{i<chi} gamma~^i =
    # [[chi, chi(chi - 1)/2], [0, chi]]
    q = P ** 2
    T = semidirect_gamma_complex(_unipotent_relative_module(chi))
    d0, d1 = T.diffs
    Gg = np.array([[chi % q, 0], [0, 1]])
    geometric = np.array([[chi, chi * (chi - 1) // 2], [0, chi]],
                         dtype=object) % q
    power = np.array([[1, chi], [0, 1]], dtype=object) % q
    assert np.array_equal(d0, np.array([[0, 1], [0, 0], [chi % q - 1, 0],
                                        [0, 0]]) % q)
    assert np.array_equal(d1[:, :2], (Gg - geometric) % q)
    assert np.array_equal(d1[:, 2:], (np.eye(2, dtype=int) - power) % q)


@pytest.mark.parametrize("chi", [-2, -1])
def test_semidirect_refuses_a_nonpositive_exponent(chi):
    with pytest.raises(ValueError, match=rf"chi = {chi}$"):
        semidirect_gamma_complex(_unipotent_relative_module(chi))


def test_subquotient_escape_names_its_degree():
    # span(B) is not inside span(Z), of length 2: the caller's message is
    # raised
    Z = np.array([[1], [0]], dtype=np.int64)
    B = np.array([[0], [1]], dtype=np.int64)
    with pytest.raises(InvariantError, match="escape the window"):
        _subquotient(Z, 2, B, P, 2, "coboundaries escape the window")
    assert _subquotient(Z, 2, 3 * Z, P, 2, "") == (1, (3,))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_window_helpers_at_s1_match_the_smith_path(p):
    # at s = 1 zmodlin reads the packed F_p echelon; the reference Smith
    # form's ranks give the same lengths and profiles, every divisor p
    def rank(M):
        return int(np.count_nonzero(_reference_smith(p, 1, M)[0]))

    rng = np.random.default_rng(10 + p)
    for rows, cols in ((9, 5), (5, 9), (30, 18), (18, 30), (40, 40)):
        A = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols))
                                                 < 0.2)
        A[rng.integers(0, rows, 3)] = 0
        A[:, -1] = (A[:, 0] + 2 * A[:, 1]) % p
        r = rank(A)
        for n in (cols, rows):
            assert _divisor_report(A, p, 1, n) == (n - r, (p,) * (n - r))
        K, length = _kernel_of(A, p, 1)
        assert length == cols - r == K.shape[1]
        assert K.min(initial=0) >= 0 and K.max(initial=0) < p
        assert not _matmul_mod(A, K, p).any()
        assert rank(K) == length
        # span(Z)/span(B) for B inside span(Z), of a lower rank
        Z = A[:, :cols // 2 + 1]
        C = rng.integers(0, p, (Z.shape[1], 7))
        C[:, 4:] = C[:, :3]
        B = _matmul_mod(Z, C, p)
        zlen, h = rank(Z), rank(Z) - rank(B)
        assert _subquotient(Z, zlen, B, p, 1, "") == (h, (p,) * h)
        assert _subquotient(Z, zlen, B[:, :0], p, 1, "") == (zlen,
                                                             (p,) * zlen)


@pytest.mark.parametrize("p", [3, 5])
def test_packed_subquotient_escape_raises_the_callers_message(p):
    Z = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64)
    B = np.array([[1], [1], [1]], dtype=np.int64)
    with pytest.raises(InvariantError, match="^coboundaries escape here$"):
        _subquotient(Z, 2, B, p, 1, "coboundaries escape here")
    inside = np.array([[1], [1], [0]], dtype=np.int64)
    assert _subquotient(Z, 2, inside, p, 1, "") == (1, (p,))


def test_s1_windows_run_no_smith_elimination(monkeypatch):
    # the s = 1 Herr windows and decompletion read every kernel, rank and
    # subquotient off the packed F_p echelon; s = 2 keeps the Smith path
    calls = [0]
    eliminate = zmodlin._eliminate

    def counted(*args, **kwargs):
        calls[0] += 1
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(zmodlin, "_eliminate", counted)
    D = tate_twist(trivial(prec=600), 1)
    for mode, dims in (("delta", (0, 2, 1)), ("free", (1, 4, 1))):
        rep = cohomology(herr_complex(D, mode), SCHEDULE)
        assert (rep.dims, rep.verdict) == (dims, "stable")
    assert decompletion_compare(D, 1)["equal"]
    assert calls[0] == 0
    rep = cohomology(herr_complex(tate_twist(trivial(2, prec=600), 1),
                                  "delta"), SCHEDULE)
    assert rep.verdict == "stable" and calls[0] > 0


def test_semidirect_broken_relation_rejected():
    rng = random.Random(61)
    D = relative_fixture(rng)
    q = P
    # overwrite gamma with a matrix that breaks the defining relation
    bad = [[ArithLiftElement.constant(P, 1, 1 if i <= j else 1, 24)
            for j in range(D.rank)] for i in range(D.rank)]
    gens = tuple(
        g if g.tag != "gamma" else type(g)(g.tag, tuple(map(tuple, bad)),
                                           g.exponent)
        for g in D.generators)
    D_bad = type(D)(D.p, D.s, D.rank, D.phi, gens, True,
                    D.delta_character_exponent)
    with pytest.raises(InvariantError):
        semidirect_gamma_complex(D_bad)


def _echelon_fp(A, p):
    """Reduced row echelon over F_p; returns (reduced matrix, pivot
    columns)."""
    M = A.copy() % p
    rows, cols = M.shape
    piv, r = [], 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + nz[0]
        if k != r:
            M[[r, k]] = M[[k, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        hit = M[:, c] != 0
        hit[r] = False
        if hit.any():
            M[hit] = (M[hit] - np.outer(M[hit, c], M[r])) % p
        piv.append(c)
        r += 1
    return M, piv


def _kernel_fp(A, p):
    """Kernel basis over F_p from the reduced row echelon form; kept here so
    that the oracle below does not share the Smith kernel under test."""
    R, piv = _echelon_fp(A, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in piv]
    K = np.zeros((cols, len(free)), dtype=np.int64)
    for i, fc in enumerate(free):
        K[fc, i] = 1
        for r, pc in enumerate(piv):
            K[pc, i] = (-R[r, fc]) % p
    return K


def _bar_h01(A, B, p):
    """H^0, H^1 of the elementary abelian square <A, B> acting on (F_p)^r,
    assuming the norm of each generator vanishes on the module."""
    r = A.shape[0]
    I = np.eye(r, dtype=np.int64)
    d0 = np.vstack([(A - I) % p, (B - I) % p])
    h0 = r - len(_echelon_fp(d0, p)[1])
    # crossed homs (x, y): (B - 1)x = (A - 1)y, modulo principal ones
    Z = _kernel_fp(np.hstack([(B - I) % p, (-(A - I)) % p]), p)
    h1 = (len(_echelon_fp(Z.T, p)[1])
          - len(_echelon_fp(d0.T, p)[1]))
    return h0, h1


def test_semidirect_matches_finite_quotient_oracle():
    rng = random.Random(67)
    checked = 0
    for rank in (2, 2, 3) * 4:
        D = relative_fixture(rng, rank=rank, square_zero=True)
        q = P
        mats = {g.tag: np.array(
            [[x.coeffs.get(0, 0) % q for x in row] for row in g.matrix],
            dtype=np.int64) for g in D.generators}
        A, B = mats["gamma_tilde"], mats["gamma"]
        norm = lambda M: sum(np.linalg.matrix_power(M, i)
                             for i in range(P)) % P
        if norm(A).any() or norm(B).any():
            continue  # oracle only valid when inflation is an isomorphism
        rep = cohomology(semidirect_gamma_complex(D))
        assert rep.dims[:2] == _bar_h01(A, B, P)
        if ((A - np.eye(rank, dtype=np.int64)) % P).any():
            checked += 1  # a case whose d0 is nonzero
    # the norm filter drops about half the draws; enough must remain
    assert checked >= 3


# -- explicit cocycles -------------------------------------------------------


def test_geometric_sum_is_a_twisted_geometric_series():
    rng = random.Random(71)
    T = herr_complex(trivial(), "delta")
    pi = ArithLiftElement.pi_power(P, 1, 1, 40)
    y = pi.reduce_mod_p()
    assert (geometric_gamma_sum(y, 1, CHI) - y).is_zero()
    for _ in range(10):
        a, b = rng.randrange(0, 30), rng.randrange(0, 30)
        lhs = geometric_gamma_sum(y, a + b, CHI)
        rhs = (geometric_gamma_sum(y, a, CHI)
               + geometric_gamma_sum(y, b, CHI).gamma(CHI ** a))
        assert (lhs - rhs).is_zero()


def test_cocycle_identity_on_sampled_pairs():
    T = herr_complex(trivial(), "delta")
    one = ArithLiftElement.one(P, 1, 40)
    zero = ArithLiftElement.zero(P, 1, 40)
    data = explicit_cocycle(T, (one, zero),
                            [(0, 1), (1, 0), (1, 1), (2, 2), (3, 1)])
    assert data.identity_checked
    assert data.obstruction == 1
    assert not data.vanishes  # the tower translation sees the constant


def test_coboundary_pair_gives_zero_table():
    T = herr_complex(trivial(), "delta")
    rng = random.Random(73)
    for _ in range(5):
        w = random_lift(rng, lo=0, hi=12)
        x = w - w.frobenius()
        y = w - w.gamma(CHI)
        data = explicit_cocycle(T, (x, y), [(1, 0), (2, 1), (0, 2)])
        assert data.identity_checked
        assert data.vanishes


def test_non_cocycle_pair_is_rejected():
    T = herr_complex(trivial(), "delta")
    pi = ArithLiftElement.pi_power(P, 1, 1, 40)
    zero = ArithLiftElement.zero(P, 1, 40)
    with pytest.raises(InvariantError):
        explicit_cocycle(T, (pi, zero), [(1, 0)])
