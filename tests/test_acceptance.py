"""Acceptance gate: one pass/fail line per criterion, full run well under
ten minutes."""

import functools
import random
import time
from fractions import Fraction

import numpy as np

from phigamma.artinschreier import (
    rho_constant,
    solve_as_general,
    solve_phi_minus_one,
)
from phigamma.complexes import (
    cohomology,
    explicit_cocycle,
    herr_complex,
    semidirect_gamma_complex,
)
from phigamma.homotopy import (
    ChainComplexZ,
    ChainMap,
    DoubleComplex,
    Tower,
    cone_sequence,
    les_check,
    spectral_E_pages,
    tower_lim_lim1,
)
from phigamma.modules import (
    identity_matrix,
    make_module,
    module_to_json,
    tate_twist,
)
from phigamma.normfield import NormFieldElement
from phigamma.tatesen import (
    CyclotomicElement,
    cyclotomic_trace,
    decompletion_compare,
    invert_one_minus_gamma,
    tau_projection,
)
from phigamma.wittside import (
    ArithLiftElement,
    WittVector,
    ghost_check,
    teichmuller,
    w_r_valuation,
    witt_mul,
    witt_sub,
)
from phigamma.zmodlin import ZModMatrix, kernel_generators

P = 3
CHI = 1 + P


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException:
                print(f"criterion {num:2d}: FAIL - {desc}")
                raise
            extra = f" ({detail})" if detail else ""
            print(f"criterion {num:2d}: PASS - {desc}{extra}")
        return wrapper
    return deco


def trivial(s=1, prec=600):
    I = identity_matrix(P, s, 1, prec)
    return make_module(P, s, I, [("gamma", I, CHI)])


# -- 1-4: Herr cohomology targets --------------------------------------------


@criterion(1, "trivial F_3 Herr dims (1,2,0), Euler -1, stable 32->64->128, "
              "under 60 s")
def test_criterion_01_trivial_herr():
    t0 = time.monotonic()
    rep = cohomology(herr_complex(trivial(), "delta"), (32, 64, 128))
    elapsed = time.monotonic() - t0
    assert rep.dims == (1, 2, 0)
    assert rep.euler == -1
    assert rep.verdict == "stable"
    assert all(dims == [1, 2, 0] or tuple(dims) == (1, 2, 0)
               for _, dims in rep.trace)
    assert elapsed < 60
    return f"{elapsed:.1f} s"


@criterion(2, "D(F_3(1)) dims (0,2,1), Euler -1")
def test_criterion_02_twist_one():
    rep = cohomology(herr_complex(tate_twist(trivial(), 1), "delta"),
                     (16, 32, 64))
    assert rep.dims == (0, 2, 1)
    assert rep.euler == -1
    assert rep.verdict == "stable"


@criterion(3, "trivial F_3 torsion-free-Gamma dims (1,4,1), Euler -2")
def test_criterion_03_free_mode():
    rep = cohomology(herr_complex(trivial(), "free"), (16, 32, 64))
    assert rep.dims == (1, 4, 1)
    assert rep.euler == -2
    assert rep.verdict == "stable"


@criterion(4, "D(F_3(2)) matrix data and report byte-identical to trivial "
              "at s = 1")
def test_criterion_04_twist_literality():
    D = trivial()
    D2 = tate_twist(D, 2)
    assert module_to_json(D2) == module_to_json(D)
    rep = cohomology(herr_complex(D, "delta"), (16, 32, 64))
    rep2 = cohomology(herr_complex(D2, "delta"), (16, 32, 64))
    assert rep2.to_json() == rep.to_json()
    assert rep2.to_csv() == rep.to_csv()


# -- 5: relative semidirect complex ------------------------------------------


def _relative_fixture(rng, rank=3):
    N = np.zeros((rank, rank), dtype=np.int64)
    for i in range(rank):
        for j in range(i + 1, rank):
            N[i, j] = rng.randrange(P)
    I = np.eye(rank, dtype=np.int64)
    poly = lambda: (rng.choice([1, 2]) * I
                    + sum(rng.randrange(P) * np.linalg.matrix_power(N, k)
                          for k in range(1, rank))) % P
    lift = lambda A: [[ArithLiftElement.constant(P, 1, int(c), 24)
                       for c in row] for row in A]
    return make_module(P, 1, lift(poly()),
                       [("gamma_tilde", lift((I + N) % P), 1),
                        ("gamma", lift(poly()), CHI)],
                       relative=True)


@criterion(5, "semidirect complex: trivial dims (1,2,1) with zero "
              "differentials; d^2 = 0 on 100 random vectors over 5 modules")
def test_criterion_05_semidirect():
    I = identity_matrix(P, 1, 1, 24)
    D = make_module(P, 1, I, [("gamma_tilde", I, 1), ("gamma", I, CHI)],
                    relative=True)
    T = semidirect_gamma_complex(D)
    for M in T.diffs:
        assert not (M % P).any()
    rep = cohomology(T)
    assert rep.dims == (1, 2, 1)
    rng = random.Random(59)
    for _ in range(5):
        T = semidirect_gamma_complex(_relative_fixture(rng))
        d0, d1 = T.diffs
        for _ in range(20):
            v = np.array([rng.randrange(P) for _ in range(T.module.rank)])
            assert not (d1 @ (d0 @ v % P) % P).any()


# -- 6-7: Artin-Schreier solvers ---------------------------------------------


def _random_unit_tail(rng, p, m, v_num, prec_num, n_terms=3):
    coeffs = {v_num: rng.randint(1, p - 1)}
    for _ in range(n_terms):
        coeffs.setdefault(rng.randint(v_num + 1, prec_num - 1),
                          rng.randint(1, p - 1))
    return NormFieldElement(p, m, coeffs, prec_num)


@criterion(6, "valuation law v(a) = v(b)/p for v(b) <= 0 on 100 random "
              "inputs, depth <= 2")
def test_criterion_06_valuation_law():
    rng = random.Random(47)
    for i in range(100):
        m = rng.randint(0, 1)
        q = P ** m
        v_num = rng.randint(-3 * q, 3 * q)
        b = _random_unit_tail(rng, P, m, v_num, 14 * q)
        v = Fraction(v_num, q)
        sol = solve_as_general(b)
        assert sol.depth <= 1
        want = v if v >= 0 else v / P
        assert sol.valuation == want, (i, v)


def _random_plant(rng, s, prec=14, lo=0):
    comps = [NormFieldElement(P, 0,
                              {rng.randint(lo, prec - 1): rng.randint(1, 2)
                               for _ in range(3)}, prec)
             for _ in range(s)]
    return WittVector(P, s, comps)


def _phi_minus_one(z):
    return witt_sub(z.frobenius(), z)


@criterion(7, "(phi-1)-solver: kernel = Z/p^s constants on 50 samples; "
              "w_r radius dilates r -> pr on 20 samples")
def test_criterion_07_phi_minus_one():
    rng = random.Random(61)
    for _ in range(50):
        w = _random_plant(rng, s=2)
        z = _phi_minus_one(w)
        y = solve_phi_minus_one(z).value
        assert _phi_minus_one(y).agrees_with(z)
        # the two solutions w and y differ by the constant that the
        # normalization reads off
        d = witt_sub(y, w)
        assert _phi_minus_one(d).agrees_with(WittVector.zero(P, 2, 14))
        c = rho_constant(d)
        assert witt_sub(d, WittVector.from_constant(P, 2, c, 14)).agrees_with(
            WittVector.zero(P, 2, 14))
    for _ in range(20):
        w = _random_plant(rng, s=3, lo=1)
        z = _phi_minus_one(w)
        y = solve_phi_minus_one(z).value
        r = Fraction(1)
        assert w_r_valuation(z, [r]).w_r[r] is not None
        assert w_r_valuation(y, [P * r]).w_r[P * r] is not None


# -- 8: Witt kernel ----------------------------------------------------------


def _random_nf(rng, lo=-3, width=16, allow_zero=True):
    coeffs = {}
    for _ in range(rng.randint(0 if allow_zero else 1, 4)):
        coeffs[rng.randint(lo, width - 1)] = rng.randint(1, P - 1)
    return NormFieldElement(P, 0, coeffs, width)


@criterion(8, "ghost_check on 100 random pairs at s = 3, t = 2; "
              "Teichmuller multiplicative on 100 pairs")
def test_criterion_08_witt_kernel():
    rng = random.Random(17)
    for _ in range(100):
        x = WittVector(P, 3, [_random_nf(rng, lo=0) for _ in range(3)])
        y = WittVector(P, 3, [_random_nf(rng, lo=0) for _ in range(3)])
        report = ghost_check(x, y, t=2)
        assert report["passed"]
    for _ in range(100):
        a = _random_nf(rng, allow_zero=False)
        b = _random_nf(rng, allow_zero=False)
        prod = witt_mul(teichmuller(a, 3), teichmuller(b, 3))
        assert prod.components[0].agrees_with(a * b)
        assert prod.components[1].is_zero()
        assert prod.components[2].is_zero()


# -- 9: Tate-Sen certificates ------------------------------------------------


@criterion(9, "TS2(a) exact, TS2(b) c2 = 0 on 200 samples, TS3 inversion "
              "residual zero-on-window on 50 samples, tau_1(zeta_9) = 0")
def test_criterion_09_tate_sen():
    rng = random.Random(5)
    # TS2(a): the projection is an exact idempotent fixing the level ring
    level_elt = NormFieldElement(P, 2, {0: 1, 9: 2, 18: 1}, 40)
    assert tau_projection(level_elt, 0, 0).coeffs == level_elt.coeffs
    # TS2(b): dropping coefficients never lowers the valuation (c2 = 0)
    for _ in range(200):
        coeffs = {rng.randint(-6, 18): rng.randint(1, 2) for _ in range(5)}
        z = NormFieldElement(P, rng.choice([1, 2]), coeffs, 40)
        t = tau_projection(z, rng.choice([0, 1]), 0)
        if not t.is_zero():
            assert t.valuation() >= z.valuation()
    # TS3: inversion of 1 - gamma off the level grid, residual certified
    # on the window; the measured loss c3 is reported
    c3 = Fraction(0)
    for _ in range(50):
        support = rng.sample([x for x in range(-4, 12) if x % 3], 4)
        z = NormFieldElement(P, 1, {q: rng.randint(1, 2) for q in support},
                             60)
        y = invert_one_minus_gamma(z, 0)
        back = y - y.gamma(CHI)
        diff = z - back
        assert all(c % P == 0 for e, c in diff.coeffs.items() if e % 3)
        if not y.is_zero():
            c3 = max(c3, z.valuation() - y.valuation())
    # cyclotomic normalized trace kills zeta_9 at p = 3
    z9 = CyclotomicElement.zeta(P, 2, 2)
    assert cyclotomic_trace(z9, 1).is_zero()
    return f"measured c3 = {c3}"


# -- 10: decompletion --------------------------------------------------------


@criterion(10, "decompletion: paired stabilized dims equal in degrees 0, 1 "
               "for the trivial module and D(F_3(1))")
def test_criterion_10_decompletion():
    D = trivial(prec=60)
    r = decompletion_compare(D, 1)
    assert r["equal"]
    assert r["degrees"] == {0: (1, 1), 1: (2, 2)}
    r = decompletion_compare(tate_twist(D, 1), 1)
    assert r["equal"]
    assert r["degrees"] == {0: (0, 0), 1: (2, 2)}


# -- 11: homological engine --------------------------------------------------


def _rand_mat(rng, rows, cols, q=9):
    e = np.array([[rng.randrange(q) for _ in range(cols)]
                  for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
    return ZModMatrix(P, 2, e)


def _rand_complex(rng, ranks0):
    ranks = {i: r for i, r in enumerate(ranks0)}
    diffs = {}
    prev = None
    for i in range(len(ranks0) - 1):
        if prev is None:
            d = _rand_mat(rng, ranks0[i + 1], ranks0[i])
        else:
            ann = kernel_generators(prev.transpose())
            if ann.cols:
                R = _rand_mat(rng, ranks0[i + 1], ann.cols)
                prod = (R.entries.astype(object)
                        @ ann.transpose().entries.astype(object)) % 9
                d = ZModMatrix(P, 2, prod.astype(np.int64))
            else:
                d = ZModMatrix.zeros(P, 2, ranks0[i + 1], ranks0[i])
        diffs[i] = d
        prev = d
    return ChainComplexZ(P, 2, ranks, diffs)


def _tensor_dc(Xc, Yc):
    ranks, dh, dv = {}, {}, {}
    for pp in Xc.ranks:
        for qq in Yc.ranks:
            ranks[(pp, qq)] = Xc.rank(pp) * Yc.rank(qq)
    for (pp, qq) in ranks:
        if Xc.rank(pp + 1):
            dh[(pp, qq)] = ZModMatrix(P, 2, np.kron(
                Xc.diff(pp).entries,
                np.eye(Yc.rank(qq), dtype=np.int64)) % 9)
        if Yc.rank(qq + 1):
            dv[(pp, qq)] = ZModMatrix(P, 2, ((-1) ** pp * np.kron(
                np.eye(Xc.rank(pp), dtype=np.int64),
                Yc.diff(qq).entries)) % 9)
    return DoubleComplex(P, 2, ranks, dh, dv)


@criterion(11, "cone LES exact for 10 random maps over Z/9; E_infinity = "
               "total cohomology for 10 random 3x3 grids; lim^1 = 0 for "
               "10 random towers")
def test_criterion_11_homological_engine():
    rng = random.Random(11)
    for _ in range(10):
        X = _rand_complex(rng, [rng.randint(1, 3) for _ in range(3)])
        Y = _rand_complex(rng, [rng.randint(1, 3) for _ in range(3)])
        g = {n: _rand_mat(rng, Y.rank(n - 1), X.rank(n)) for n in range(4)}
        blocks = {n: Y.diff(n - 1) @ g[n] + g[n + 1] @ X.diff(n)
                  for n in range(3)}
        res = les_check(cone_sequence(ChainMap(X, Y, blocks)))
        assert res["exact"], res["first_failure"]
    for _ in range(10):
        X = _rand_complex(rng, [rng.randint(1, 2) for _ in range(3)])
        Y = _rand_complex(rng, [rng.randint(1, 2) for _ in range(3)])
        _, abutment = spectral_E_pages(_tensor_dc(X, Y))
        assert abutment["equal"], abutment["degrees"]
    for _ in range(10):
        n = rng.randint(1, 4)
        ranks = [rng.randint(1, 3) for _ in range(n)]
        if n >= 2:
            ranks[-1] = ranks[-2]
        maps = [_rand_mat(rng, ranks[i], ranks[i + 1]) for i in range(n - 1)]
        tail = rng.choice(["constant", "zero"])
        _, lim1 = tower_lim_lim1(Tower(P, 2, ranks, maps, tail))
        assert lim1.is_zero()


# -- 12: explicit cocycles ---------------------------------------------------


@criterion(12, "cocycle identity on >= 50 sampled pairs across 5 certified "
               "1-cocycles; coboundary inputs vanish")
def test_criterion_12_explicit_cocycle():
    T = herr_complex(trivial(prec=60), "delta")
    rng = random.Random(73)
    samples = [(0, 1), (1, 0), (1, 1), (2, 2)]
    pairs_checked = 0
    one = ArithLiftElement.one(P, 1, 40)
    zero = ArithLiftElement.zero(P, 1, 40)
    data = explicit_cocycle(T, (one, zero), samples)
    assert data.identity_checked
    assert not data.vanishes
    pairs_checked += len(samples) ** 2
    for _ in range(4):
        w = ArithLiftElement(P, 1, {n: rng.randrange(P) for n in range(12)},
                             40)
        x = w - w.frobenius()
        y = w - w.gamma(CHI)
        data = explicit_cocycle(T, (x, y), samples)
        assert data.identity_checked
        assert data.vanishes  # coboundary input gives the zero table
        pairs_checked += len(samples) ** 2
    assert pairs_checked >= 50
    return f"{pairs_checked} pairs"
