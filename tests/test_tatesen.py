"""Trace projections, cyclotomic traces, witness search, gamma-inversion,
window decomposition, and the cross-level cohomology comparison."""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from phigamma.cli import main

from phigamma.errors import InvariantError, SizeLimitError
from phigamma.modules import identity_matrix, make_module, tate_twist
from phigamma.normfield import (NormFieldElement, RelativeNormElement,
                                _LRU_SIZE)
from phigamma.wittside import ArithLiftElement
from phigamma.zmodlin import FpSystem
import phigamma.complexes as complexes
import phigamma.tatesen as tatesen
from phigamma.tatesen import (
    CyclotomicElement,
    cyclotomic_trace,
    decompletion_compare,
    decompose_element,
    _ts1_traces,
    _ts3_system,
    galois_trace,
    invert_one_minus_gamma,
    tate_sen_certificate,
    tau_projection,
    ts1_witness_search,
)

P = 3
CHI = 4


def random_element(rng, level, prec=40, lo=-6, hi=18):
    coeffs = {rng.randint(lo, hi): rng.randint(1, P - 1) for _ in range(5)}
    return NormFieldElement(P, level, coeffs, prec)


def random_relative(rng, mx=1, level=2, prec=40):
    parts = {j: random_element(rng, level, prec)
             for j in rng.sample(range(-4, 9), 3)}
    return RelativeNormElement(P, mx, parts)


# -- projection basics -------------------------------------------------------


def test_tau_idempotent_and_bounded_on_samples():
    rng = random.Random(5)
    for _ in range(200):
        z = random_element(rng, rng.choice([1, 2]))
        m = rng.choice([0, 1])
        t = tau_projection(z, m, 0)
        again = tau_projection(t, m, 0)
        assert again.coeffs == t.coeffs
        # c2 = 0: dropping coefficients cannot lower the valuation
        if not t.is_zero():
            assert t.valuation() >= z.valuation()


def test_tau_identity_on_level_elements():
    z = NormFieldElement(P, 2, {0: 1, 9: 2, 18: 1}, 40)  # level-0 content
    assert tau_projection(z, 0, 0).coeffs == z.coeffs


def test_tau_kills_deeper_generator():
    z = NormFieldElement(P, 1, {1: 1}, 12)  # pi^(1/3)
    assert tau_projection(z, 0, 0).is_zero()


def test_tau_commutes_with_frobenius_shift():
    rng = random.Random(11)
    for _ in range(50):
        z = random_element(rng, 2)
        m = rng.choice([0, 1])
        lhs = tau_projection(z, m + 1, 0).frobenius()
        rhs = tau_projection(z.frobenius(), m, 0)
        assert (lhs - rhs).is_zero()


def test_tau_tau_commutation():
    rng = random.Random(13)
    for _ in range(50):
        z = random_relative(rng)
        for mi, mj, di, dj in ((0, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 1)):
            ab = tau_projection(tau_projection(z, mi, di), mj, dj)
            ba = tau_projection(tau_projection(z, mj, dj), mi, di)
            diff = ab - ba
            assert all(c.is_zero() for c in diff.parts.values())


def test_direction1_tau_commutes_with_gamma_tilde():
    rng = random.Random(17)
    for _ in range(30):
        z = random_relative(rng)
        lhs = tau_projection(z, 0, 1).gamma_tilde(3)
        rhs = tau_projection(z.gamma_tilde(3), 0, 1)
        diff = lhs - rhs
        assert all(c.is_zero() for c in diff.parts.values())


def test_trace_operator_handle():
    z = NormFieldElement(P, 1, {1: 1, 3: 2}, 12)
    assert tau_projection(z, 0, 0).coeffs == {3: 2}


# -- cyclotomic number side --------------------------------------------------


def test_cyclotomic_trace_of_zeta9_vanishes():
    z9 = CyclotomicElement.zeta(3, 2, 2)
    assert cyclotomic_trace(z9, 1).is_zero()


def test_cyclotomic_trace_identity_on_level():
    one = CyclotomicElement.one(3, 2, 2)
    assert cyclotomic_trace(one, 1) == CyclotomicElement.one(3, 2, 1)


def test_cyclotomic_trace_of_zeta9_cubed():
    z9 = CyclotomicElement.zeta(3, 2, 2)
    cube = z9 * z9 * z9
    assert cyclotomic_trace(cube, 1) == CyclotomicElement.zeta(3, 2, 1)


def test_galois_trace_of_one_is_p():
    one = CyclotomicElement.one(3, 3, 2)
    assert galois_trace(one, 1) == one.scale(3)


def test_cyclotomic_trace_linearity_over_level():
    rng = random.Random(23)
    for _ in range(30):
        x = CyclotomicElement(3, 2, 2,
                              {rng.randrange(6): rng.randrange(9)
                               for _ in range(3)})
        lam = CyclotomicElement(3, 2, 1, {rng.randrange(2): rng.randrange(9)})
        lhs = cyclotomic_trace(lam.at_level(2) * x, 1)
        rhs = lam * cyclotomic_trace(x, 1)
        assert lhs == rhs


# -- TS1 witness search ------------------------------------------------------


def test_ts1_level1_witness():
    w = ts1_witness_search(3, 1, 1, Fraction(1))
    assert w.found
    assert w.exponent == 2
    assert w.valuation == Fraction(-2, 3)
    assert w.trace_constant % 3 != 0


def test_ts1_level2_witness():
    w = ts1_witness_search(3, 1, 2, Fraction(1))
    assert w.found
    assert w.valuation == Fraction(-8, 9)
    # the one-step different is constant along the tower, so the best
    # witness valuation worsens with the level in this family
    assert w.valuation < Fraction(-2, 3)


def test_ts1_unreachable_target_reports_family():
    w = ts1_witness_search(3, 1, 1, Fraction(1, 2))
    assert not w.found
    assert w.family == "(zeta-1)^k / p^j"
    assert w.searched == 12


def test_ts1_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        ts1_witness_search(3, 1, 1, Fraction(0))


def test_ts1_search_is_kept_and_frozen():
    ts1_witness_search.cache_clear()
    w = ts1_witness_search(5, 1, 1, Fraction(1))
    assert ts1_witness_search(5, 1, 1, Fraction(1)) is w
    assert ts1_witness_search.cache_info().hits == 1
    with pytest.raises(AttributeError):
        w.valuation = Fraction(0)
    # a refused target is not kept
    for _ in range(2):
        with pytest.raises(ValueError):
            ts1_witness_search(5, 1, 1, Fraction(0))
    assert ts1_witness_search.cache_info().currsize == 1


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_ts1_array_trace_matches_galois_trace(p, n):
    s_work = n + 6
    zm1 = (CyclotomicElement.zeta(p, s_work, n + 1)
           - CyclotomicElement.one(p, s_work, n + 1))
    power = CyclotomicElement.one(p, s_work, n + 1)
    count = 2 * (p - 1) * p**n
    traces = list(_ts1_traces(p, n, p**s_work, count))
    assert len(traces) == count
    for tr in traces:
        assert tr.shape == ((p - 1) * p**n,)
        want = galois_trace(power, n).normalize().coeffs
        assert {e: int(v) for e, v in enumerate(tr) if v} == want
        power = power * zm1


def test_ts1_traces_refuse_int64_overflow():
    with pytest.raises(ValueError):
        next(_ts1_traces(3, 1, 3**40, 1))


# -- TS3 inversion -----------------------------------------------------------


def test_invert_direction0_monomial():
    z = NormFieldElement(P, 1, {1: 1}, 40)
    y = invert_one_minus_gamma(z, 0)
    back = y - y.gamma(CHI)
    diff = z - back
    assert all(c % P == 0 for e, c in diff.coeffs.items() if e % 3)


def test_invert_direction0_plant_and_recover():
    rng = random.Random(7)
    for _ in range(10):
        K = rng.choice([1, 2])
        m = rng.choice([0, K - 1])
        f = P ** (K - m)
        support = rng.sample([x for x in range(-4, 12) if x % f], 4)
        w0 = NormFieldElement(P, K, {q: rng.randint(1, 2) for q in support},
                              60)
        a_res = pow(CHI, P ** m, P ** 14)
        zz = w0 - w0.gamma(a_res)
        zz = NormFieldElement(P, K, {e: c for e, c in zz.coeffs.items()
                                     if e % f}, zz.prec_num)
        yy = invert_one_minus_gamma(zz, m)
        diff = yy - w0
        # recovery is exact on the complement (the kernel is the level part)
        assert not [q for q, c in diff.coeffs.items() if c % P and q % f]


def test_invert_direction0_rejects_level_input():
    z = NormFieldElement(P, 1, {3: 1}, 40)  # pi itself: level-0 content
    with pytest.raises(InvariantError):
        invert_one_minus_gamma(z, 0)


def test_invert_direction0_zero():
    z = NormFieldElement(P, 1, {}, 40)
    assert invert_one_minus_gamma(z, 0).is_zero()


def test_invert_reads_its_direction_from_its_input():
    # a norm-field element is inverted along gamma, a relative one along
    # gamma~; anything else is refused
    with pytest.raises(ValueError, match="not ArithLiftElement"):
        invert_one_minus_gamma(ArithLiftElement.pi_power(P, 1, 1, 40), 0)


def test_invert_direction1_diagonal():
    rng = random.Random(31)
    for _ in range(10):
        parts = {j: random_element(rng, 2, prec=40, lo=-3, hi=9)
                 for j in rng.sample([1, 2, 4, 5, 7], 3)}
        z = RelativeNormElement(P, 1, parts)
        y = invert_one_minus_gamma(z, 0)
        back = z - (y - y.gamma_tilde(1))
        assert all(c.is_zero() for c in back.parts.values())


def test_invert_direction1_rejects_level_input():
    z = RelativeNormElement(P, 1, {3: NormFieldElement(P, 1, {1: 1}, 12)})
    with pytest.raises(InvariantError):
        invert_one_minus_gamma(z, 0)


# -- the TS3 window solve against Gauss-Jordan --------------------------------


def gauss_jordan_solve(A, b, p):
    """Reference: the reduced row echelon of [A | b] with pivots taken
    greedily from the left, free unknowns 0; None if b's column is a
    pivot."""
    M = np.hstack([A, b.reshape(-1, 1)]) % p
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
    if A.shape[1] in piv:
        return None
    x = np.zeros(A.shape[1], dtype=np.int64)
    for r, col in enumerate(piv):
        x[col] = M[r, -1]
    return x


def _solve_fp(A, b, p):
    """A x = b by FpSystem.solve, b given by row."""
    return FpSystem(A, p).solve(dict(enumerate(b.tolist())))


def _same_solution(A, b, p, got):
    """Whether A x = b has a solution, after checking that got is the
    Gauss-Jordan one, and None if there is none."""
    want = gauss_jordan_solve(A, b, p)
    assert (got is None) == (want is None)
    assert want is None or (got.dtype == np.int64
                            and np.array_equal(got, want))
    return want is not None


class _CheckedSystem:
    """A TS3 system whose every solve is checked against the dense A."""

    def __init__(self, system, A):
        self.system, self.A = system, A

    def solve(self, b):
        rhs = np.zeros(len(self.A), dtype=np.int64)
        rhs[list(b)] = list(b.values())
        x = self.system.solve(b)
        _same_solution(self.A, rhs % self.system.p, self.system.p, x)
        return x


@pytest.mark.parametrize("p, seed", [(3, 1), (5, 2), (7, 3)])
def test_solve_fp_on_ts3_systems(p, seed, monkeypatch):
    # every system is the dense gamma - 1 off the grid, strictly lower
    # triangular, and every solve equals the dense reference
    seen = []
    build = tatesen._ts3_system

    def checked(q, a_res, f, lo_y, hi_rows):
        support, system = build(q, a_res, f, lo_y, hi_rows)
        off = np.array(support) - lo_y
        A = (complexes.build_ring_window(
            q, 1, complexes.ring_gamma(a_res), -lo_y, -lo_y,
            hi_rows)[np.ix_(off, off)] - np.eye(len(off), dtype=np.int64)) % q
        assert system == FpSystem(A, q)
        assert not np.triu(A).any()
        seen.append(A.shape)
        return support, _CheckedSystem(system, A)

    monkeypatch.setattr(tatesen, "_ts3_system", checked)
    for m in (0, 1) if p == 3 else (0,):
        tate_sen_certificate(p, m, 6, seed)
    assert len(seen) >= 6


def _dense_ts3_system(p, K, a_res, f, lo_y, hi_rows):
    """gamma - 1 off the grid of multiples of f on [lo_y, hi_rows) at grid
    level K, from element gamma, one column per support exponent."""
    support = [n for n in range(lo_y, hi_rows) if n % f]
    A = np.zeros((len(support), len(support)), dtype=np.int64)
    for j, n in enumerate(support):
        x = NormFieldElement(p, K, {n: 1}, hi_rows)
        img = (x.gamma(a_res) - x).coeffs
        A[:, j] = [img.get(e, 0) % p for e in support]
    return support, A


@pytest.mark.parametrize("p, m, K", [(3, 0, 1), (3, 1, 2), (5, 0, 1),
                                     (7, 0, 1)])
def test_ts3_system_corners_match_fresh_packings(p, m, K, monkeypatch):
    # a shallow system, a deeper one (rebuilt), then corners of the deeper
    monkeypatch.setattr(tatesen, "_SYSTEMS", {})
    rng = random.Random(p + m)
    f = p ** (K - m)
    a_res, hi_rows = pow(1 + p, p ** m, p ** 14), 4 * f + 3
    for lo_y in (-2 * f, -5 * f - 1, -5 * f + 1, -2 * f + 2, 1):
        support, system = _ts3_system(p, a_res, f, lo_y, hi_rows)
        with monkeypatch.context() as fresh:
            fresh.setattr(tatesen, "_SYSTEMS", {})
            assert (support, system) == _ts3_system(p, a_res, f, lo_y,
                                                    hi_rows)
        want_support, A = _dense_ts3_system(p, K, a_res, f, lo_y, hi_rows)
        assert support == want_support
        assert system == FpSystem(A, p)
        for _ in range(3):
            b = A @ np.array([rng.randrange(p) for _ in support]) % p
            if rng.random() < 0.5:
                b[rng.randrange(len(b))] += 1
            _same_solution(A, b % p, p,
                           system.solve(dict(enumerate(b.tolist()))))
    assert [v[0] for v in tatesen._SYSTEMS.values()] == [-5 * f - 1]


def test_ts3_system_failed_rebuild_keeps_its_entry(monkeypatch):
    # a bound between the dense bytes of [-10, 12)^2 and [-16, 12)^2 (16
    # per entry) refuses the deeper rebuild
    monkeypatch.setattr(tatesen, "_SYSTEMS", {})
    monkeypatch.setattr(complexes, "MAX_WINDOW_BYTES", 16 * 25**2)
    kept = _ts3_system(3, 4, 3, -10, 12)
    with pytest.raises(SizeLimitError):
        _ts3_system(3, 4, 3, -16, 12)
    with monkeypatch.context() as fresh:
        fresh.setattr(tatesen, "_SYSTEMS", {})
        with pytest.raises(SizeLimitError):
            _ts3_system(3, 4, 3, -16, 12)
    assert tatesen._SYSTEMS[(3, 4, 3, 12)][0] == -10
    assert _ts3_system(3, 4, 3, -10, 12) == kept
    # one system per key, the least recently used dropped past the bound
    for top in range(13, 13 + _LRU_SIZE):
        _ts3_system(3, 4, 3, -4, top)
    assert len(tatesen._SYSTEMS) == _LRU_SIZE
    assert (3, 4, 3, 12) not in tatesen._SYSTEMS


def test_ts3_report_keeps_no_dense_window(monkeypatch):
    # the packed system serves every later sample, so the gamma window it is
    # packed from takes no slot of the ring_window cache
    monkeypatch.setattr(tatesen, "_SYSTEMS", {})
    monkeypatch.setattr(complexes, "_WINDOWS", {})
    built = []
    build = tatesen.build_ring_window

    def recorded(p, s, ring, bot_in, bot_out, top):
        built.append((p, s, ring, top))
        return build(p, s, ring, bot_in, bot_out, top)

    monkeypatch.setattr(tatesen, "build_ring_window", recorded)
    tate_sen_certificate(3, 1, 3, 7)
    assert built
    assert not set(built) & set(complexes._WINDOWS)


def _random_system(rng, p, n_rows, n_cols, lower):
    """A sparse random matrix, strictly lower triangular if asked, with some
    columns zero and some plus combinations of earlier ones (dependent
    columns); b in the column span, half the time moved in one entry."""
    A = np.zeros((n_rows, n_cols), dtype=np.int64)
    for c in range(n_cols):
        top = c + 1 if lower else 0
        if top < n_rows and rng.random() < 0.85:
            rows = rng.sample(range(top, n_rows),
                              rng.randint(1, min(4, n_rows - top)))
            A[rows, c] = [rng.randrange(1, p) for _ in rows]
        if c and rng.random() < 0.2:
            for j in rng.sample(range(c), min(c, 2)):
                if not lower or not A[:c + 1, j].any():
                    A[:, c] = (A[:, c] + rng.randrange(p) * A[:, j]) % p
    x = np.array([rng.randrange(p) for _ in range(n_cols)], dtype=np.int64)
    b = A @ x % p
    if rng.random() < 0.5:
        b[rng.randrange(n_rows)] += rng.randrange(1, p)
    return A, b % p


@pytest.mark.parametrize("p", [3, 5, 7, 17, 4093])
def test_solve_fp_matches_gauss_jordan_on_random_systems(p):
    rng = random.Random(p)
    consistent = 0
    for trial in range(60):
        lower = trial % 3 != 0
        n = rng.randint(1, 40)
        A, b = _random_system(rng, p, n, n if lower else rng.randint(1, 40),
                              lower)
        consistent += _same_solution(A, b, p, _solve_fp(A, b, p))
    assert 0 < consistent < 60
    A, b = np.zeros((3, 0), dtype=np.int64), np.array([0, 1, 0])
    assert _same_solution(A, b, p, _solve_fp(A, b, p)) is False
    A, b = np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    assert _same_solution(A, b, p, _solve_fp(A, b, p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fp_system_corners_solve_as_dense_corners(p):
    # square strictly lower triangular systems, as TS3 builds them, read at
    # corners t > 0, with consistent and inconsistent right-hand sides
    rng = random.Random(10 + p)
    consistent = inconsistent = 0
    for _ in range(20):
        n = rng.randint(2, 30)
        A = _random_system(rng, p, n, n, True)[0]
        system = FpSystem(A, p)
        for t in sorted({0, 1, rng.randrange(1, n)}):
            corner = system.corner(t)
            assert corner == FpSystem(A[t:, t:], p)
            B = A[t:, t:]
            for _ in range(2):
                b = B @ np.array([rng.randrange(p) for _ in B.T]) % p
                if rng.random() < 0.5:
                    b[rng.randrange(n - t)] += rng.randrange(1, p)
                b %= p
                got = corner.solve({r: int(v) for r, v in enumerate(b) if v})
                if _same_solution(B, b, p, got):
                    consistent += 1
                else:
                    inconsistent += 1
    assert consistent and inconsistent


def test_solve_fp_rejects_primes_past_its_lanes():
    with pytest.raises(ValueError):
        _solve_fp(np.eye(2, dtype=np.int64), np.ones(2, dtype=np.int64), 8191)


# -- decomposition -----------------------------------------------------------


def test_decompose_element_sums_back():
    rng = random.Random(37)
    for _ in range(20):
        z = random_relative(rng)
        a, b, c = decompose_element(z, rng.choice([0, 1]))
        diff = (a + b + c) - z
        assert all(x.is_zero() for x in diff.parts.values())


def test_decompose_element_components_disjoint():
    z = RelativeNormElement(
        P, 1, {0: NormFieldElement(P, 1, {3: 1, 1: 2}, 12),
               1: NormFieldElement(P, 1, {3: 1}, 12)})
    lvl, arith, geo = decompose_element(z, 0)
    assert lvl.parts[0].coeffs == {3: 1}
    assert arith.parts[0].coeffs == {1: 2}
    assert set(geo.parts) == {1}


def test_geometric_component_gamma_tilde_stable():
    z = RelativeNormElement(
        P, 1, {1: NormFieldElement(P, 1, {0: 1}, 30),
               3: NormFieldElement(P, 1, {0: 2}, 30)})
    _, _, geo = decompose_element(z, 0)
    moved = geo.gamma_tilde(1)
    assert tau_projection(moved, 0, 1).parts.keys() == set()


# -- decompletion comparison -------------------------------------------------


def trivial_module():
    I = identity_matrix(P, 1, 1, 60)
    return make_module(P, 1, I, [("gamma", I, CHI)])


def test_decompletion_trivial_pairs_equal():
    r = decompletion_compare(trivial_module(), 1)
    assert r["equal"]
    assert r["degrees"] == {0: (1, 1), 1: (2, 2)}


def test_decompletion_twist_pairs_equal():
    r = decompletion_compare(tate_twist(trivial_module(), 1), 1)
    assert r["equal"]
    assert r["degrees"] == {0: (0, 0), 1: (2, 2)}


@pytest.mark.parametrize("p, level, n, dims", [
    (5, 1, 0, {0: (1, 1), 1: (2, 2)}),
    (5, 1, 3, {0: (0, 0), 1: (1, 1)}),
    (3, 2, 1, {0: (0, 0), 1: (2, 2)}),
])
def test_decompletion_closed_form_dims(p, level, n, dims):
    # Z/p(n) over Q_p: h0 = [n = 0 mod p-1], h2 = [n = 1 mod p-1], and
    # h1 = 1 + h0 + h2 by the Euler characteristic
    I = identity_matrix(p, 1, 1, 60)
    D = tate_twist(make_module(p, 1, I, [("gamma", I, 1 + p)]), n)
    r = decompletion_compare(D, level)
    assert r["equal"]
    assert r["degrees"] == dims


@pytest.mark.parametrize("p, level, n, h", [
    (3, 1, 0, (1, 2)), (3, 1, 1, (0, 2)), (3, 1, 3, (0, 2)),
    (5, 1, 0, (1, 2)), (5, 1, 1, (0, 2)), (5, 1, 3, (0, 1)),
    (3, 2, 0, (1, 2)), (3, 2, 1, (0, 2)), (3, 2, 3, (0, 2)),
])
def test_decompletion_output_pinned(p, level, n, h):
    # the whole comparison, both stabilization traces included, pinned to
    # the output of the separate level-grid engine that cohomology replaced
    I = identity_matrix(p, 1, 1, 60)
    D = tate_twist(make_module(p, 1, I, [("gamma", I, 1 + p)]), n)
    r = decompletion_compare(D, level)
    trace = (h,) * 3
    assert r == {"degrees": {0: (h[0], h[0]), 1: (h[1], h[1])},
                 "equal": True, "trace_level_0": trace,
                 "trace_level_m": trace}
    json.dumps(r)  # plain ints only: the bench digests these bytes


def test_decompletion_builds_each_side_once(monkeypatch):
    # each side assembles its raw pair once, deep enough for the d^2 = 0
    # certificate at its least depth to read its matrices off it
    built = []
    block = complexes._block_matrix

    def counted(D, blocks, bot_in, bot_out, top):
        built.append(bot_in)
        return block(D, blocks, bot_in, bot_out, top)

    monkeypatch.setattr(complexes, "_block_matrix", counted)
    r = decompletion_compare(tate_twist(trivial_module(), 1), 1)
    assert r["degrees"] == {0: (0, 0), 1: (2, 2)}
    assert built == [21, 21, 60, 60]


def test_decompletion_matches_engine_report():
    from phigamma.complexes import cohomology, herr_complex
    rep = cohomology(herr_complex(trivial_module()), schedule=(16, 32, 64))
    r = decompletion_compare(trivial_module(), 1)
    assert (rep.dims[0], rep.dims[1]) == \
        (r["degrees"][0][0], r["degrees"][1][0])


def test_decompletion_rejects_higher_rank():
    I = identity_matrix(P, 1, 2, 60)
    D2 = make_module(P, 1, I, [("gamma", I, CHI)])
    with pytest.raises(ValueError):
        decompletion_compare(D2, 1)


# -- certificate -------------------------------------------------------------


def test_certificate_contents_and_determinism():
    c1 = tate_sen_certificate(3, 0, 10, 99)
    c2 = tate_sen_certificate(3, 0, 10, 99)
    assert c1.to_json() == c2.to_json()
    doc = json.loads(c1.to_json())
    assert doc["format"] == "tate-sen-certificate"
    assert doc["c2"] == "0"
    assert doc["c1_witness_valuation"] == "-2/3"
    assert Fraction(doc["c3"]) >= 0
    assert Fraction(doc["c4"]) > 0


# -- report bytes ------------------------------------------------------------


@pytest.mark.parametrize("p, digest", [
    (3, "db85722631eed56c8678329ec74852dda5c9fe22efcfe138ddc45142df5d988c"),
    (5, "f9fbbacf16f2a0df7acc4da9820aa034c921dbd933c518e144e001b518a5ae33"),
    (7, "8fba2cb6e1337daed12675de883ae476c8d162e6bf29f649393beeeefdaa1240"),
])
def test_ts_report_bytes_pinned(p, digest):
    # recorded with the dict element path, before the dense one replaced it
    res = CliRunner().invoke(main, ["ts-report", "--prime", str(p), "--level",
                                    "0", "--samples", "3", "--seed", "7"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_ts_report_level_one_bytes_pinned():
    # recorded with the dense Gauss-Jordan solve and one gamma window per
    # sample, before the corner cache and the column reduction replaced them
    res = CliRunner().invoke(main, ["ts-report", "--prime", "3", "--level",
                                    "1", "--samples", "3", "--seed", "7"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == \
        "ac1835c33873d337a5db7503b48f146beda3823eb0d077b7496e9857e26dc323"


def test_ts_report_level_two_bytes_pinned():
    # recorded with one element-gamma convolution per exponent step, before
    # the baby-step/giant-step evaluation replaced it
    res = CliRunner().invoke(main, ["ts-report", "--prime", "3", "--level",
                                    "2", "--samples", "1", "--seed", "7"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == \
        "6b4f65293950dcf4d37e40c050501fe93f90da5cd2d594717b777ac4f223a218"
