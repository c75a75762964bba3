"""Truncated Laurent model: ring laws, valuations, Frobenius/Gamma actions."""

from fractions import Fraction
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from phigamma import complexes, normfield, tatesen
from phigamma.complexes import ring_gamma, ring_window
from phigamma.errors import PrecisionError
from phigamma.normfield import (
    NormFieldElement,
    RelativeNormElement,
    adjoin_as_root,
    binomial_table_mod_ps,
    flat_normalization,
    format_element,
    parse_element,
    power_rows,
)

PREC = 24


def random_element(draw, p=3, m=0, allow_zero=True):
    lo, hi = -6 * p**m, PREC * p**m
    n_terms = draw(st.integers(0 if allow_zero else 1, 5))
    coeffs = {}
    for _ in range(n_terms):
        n = draw(st.integers(lo, hi - 1))
        c = draw(st.integers(1, p - 1))
        coeffs[n] = c
    return NormFieldElement(p, m, coeffs, hi)


elements = st.builds(lambda d: d, st.integers())  # placeholder, replaced below


@st.composite
def norm_elements(draw, p=3, m=0, allow_zero=True):
    return random_element(draw, p, m, allow_zero)


@settings(max_examples=200, deadline=None)
@given(norm_elements(), norm_elements(), norm_elements())
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    lhs = x * (y + z)
    rhs = x * y + x * z
    assert lhs.agrees_with(rhs)
    assert (x * y).agrees_with(y * x)
    m1 = (x * y) * z
    m2 = x * (y * z)
    assert m1.agrees_with(m2)


@settings(max_examples=60, deadline=None)
@given(norm_elements(m=1), st.integers(1, 6))
def test_pow_certifies_like_repeated_products(x, k):
    product = x
    for _ in range(k - 1):
        product = product * x
    assert x ** k == product
    assert x ** 0 == NormFieldElement.one(3, 10**12, 1)


@settings(max_examples=100, deadline=None)
@given(norm_elements(allow_zero=False), norm_elements(allow_zero=False))
def test_valuation_multiplicative(x, y):
    prod = x * y
    if not prod.is_zero():
        assert prod.valuation() == x.valuation() + y.valuation()


@settings(max_examples=100, deadline=None)
@given(norm_elements(), norm_elements())
def test_valuation_ultrametric(x, y):
    s = x + y
    vx, vy = x.valuation(), y.valuation()
    if vx is None or vy is None or s.is_zero():
        return
    assert s.valuation() >= min(vx, vy)
    if vx != vy:
        assert s.valuation() == min(vx, vy)


def test_frobenius_monomials():
    pi = NormFieldElement.pi_power(3, 1, 12)
    assert pi.frobenius() == NormFieldElement.pi_power(3, 3, 36)
    one_plus = NormFieldElement.from_terms(3, {Fraction(0): 1, Fraction(1): 1}, 12)
    fr = one_plus.frobenius()
    assert fr.terms() == {Fraction(0): 1, Fraction(3): 1}


@settings(max_examples=100, deadline=None)
@given(norm_elements(allow_zero=False))
def test_frobenius_scales_valuation(x):
    assert x.frobenius().valuation() == 3 * x.valuation()


def test_gamma_identity_and_explicit():
    pi = NormFieldElement.pi_power(3, 1, 16)
    assert pi.gamma(1) == pi
    g = pi.gamma(4)
    assert g.terms() == {Fraction(1): 1, Fraction(3): 1, Fraction(4): 1}


def test_gamma_matches_sympy_expansion():
    # independent oracle: expand (1+T)^a - 1 over GF(p) with sympy
    T = sympy.symbols("T")
    for p, a in [(3, 4), (5, 6), (7, 8)]:
        expanded = sympy.Poly(sympy.expand((1 + T) ** a - 1), T)
        want = {Fraction(k): int(c) % p
                for k, c in zip(expanded.monoms(), expanded.coeffs())
                for k in [k[0]]
                if int(c) % p}
        pi = NormFieldElement.pi_power(p, 1, a + 4)
        assert pi.gamma(a).terms() == want


@settings(max_examples=100, deadline=None)
@given(norm_elements(allow_zero=False))
def test_gamma_preserves_valuation(x):
    assert x.gamma(4).valuation() == x.valuation()


@settings(max_examples=60, deadline=None)
@given(norm_elements())
def test_frobenius_gamma_commute(x):
    a = 4
    lhs = x.gamma(a).frobenius()
    rhs = x.frobenius().gamma(a)
    assert lhs.agrees_with(rhs)


def test_v_e_reports():
    assert NormFieldElement.zero(3, 10).valuation() is None
    pi = NormFieldElement.pi_power(3, 1, 10)
    assert pi.valuation() == Fraction(1)
    x = parse_element("pi^-2 + pi^-1", 3, 10)
    assert x.valuation() == Fraction(-2)


def test_flat_normalization():
    assert flat_normalization(Fraction(1), 3) == Fraction(3, 2)
    assert flat_normalization(Fraction(0), 3) == 0
    assert flat_normalization(Fraction(2), 3) == 3
    assert flat_normalization(Fraction(4), 5) == 5


def test_raise_perfection_round_trip():
    pi = NormFieldElement.pi_power(3, 1, 9)
    up = pi.p_th_root()
    assert up.m == 1
    # Frobenius recovers the regridded original
    assert up.frobenius() == pi.at_level(1)
    x = parse_element("pi^2 + 2*pi^5", 3, 9)
    twice = x.p_th_root().p_th_root()
    back = twice.frobenius().frobenius()
    assert back == x.at_level(2)


def test_parser_round_trip_examples():
    for text in ["0", "2", "pi^4", "pi^-2 + 2*pi^(1/3) + pi^4",
                 "2*pi^-5 + 1 + pi^(7/9)"]:
        x = parse_element(text, 3, 30)
        assert format_element(x) == text or parse_element(format_element(x), 3, 30) == x


@settings(max_examples=100, deadline=None)
@given(norm_elements(m=1))
def test_printer_parser_bit_exact(x):
    assert parse_element(format_element(x), x.p, x.prec) == x


def test_adjoin_rejects_trivial():
    with pytest.raises(ValueError):
        adjoin_as_root(NormFieldElement.zero(3, 5))
    with pytest.raises(ValueError):
        adjoin_as_root(NormFieldElement.pi_power(3, 2, 5))


def test_adjoin_theta_valuation():
    u = NormFieldElement.pi_power(3, -1, 8)
    ext = adjoin_as_root(u)
    th = ext.theta(8)
    assert th.valuation() == Fraction(-1, 3)
    # theta^p - theta - u reduces to zero
    assert (th * th * th - th - ext.embed(u)).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.integers(-6, -1), st.integers(1, 2))
def test_adjoin_defining_relation_random(vnum, c):
    u = NormFieldElement(3, 0, {vnum: c, vnum + 1: 1}, 8)
    ext = adjoin_as_root(u)
    th = ext.theta(8)
    assert (th * th * th - th - ext.embed(u)).is_zero()


def test_depth_budget():
    # one layer over the norm field, whose elements print depth 1 (the
    # solve-as report prints this repr)
    ext = adjoin_as_root(NormFieldElement.pi_power(3, -2, 8))
    th = ext.theta(8)
    assert all(isinstance(c, NormFieldElement) for c in th.coords)
    assert repr(th) == ("ASExtensionElement(depth=1, [<0 + O(pi^8)>, "
                        "<1 + O(pi^8)>, <0 + O(pi^8)>])")


def test_relative_gamma_tilde_and_commutation():
    p = 3
    pi = NormFieldElement.pi_power(p, 1, 14)
    one = NormFieldElement.one(p, 14)

    def monomial(j):
        return RelativeNormElement.from_terms(p, {Fraction(j): one})

    x = monomial(1)
    gt = x.gamma_tilde()
    # gamma-tilde(x) = (1+pi) x
    want = RelativeNormElement.from_terms(p, {Fraction(1): one + pi})
    assert gt == want

    # gamma gamma-tilde gamma^{-1} = gamma-tilde^chi on monomials x^j
    chi = 4
    a_inv = pow(chi, -1, p**6)
    for j in [1, 2, 3]:
        xj = monomial(j)
        lhs = xj.gamma(a_inv).gamma_tilde().gamma(chi)
        rhs = xj.gamma_tilde(power=chi)
        # compare on the common window
        for key in set(lhs.parts) | set(rhs.parts):
            assert lhs.parts[key].agrees_with(rhs.parts[key])


def test_relative_gamma_tilde_fractional_monomial():
    p = 3
    one = NormFieldElement.one(p, 6)
    x13 = RelativeNormElement.from_terms(p, {Fraction(1, 3): one})
    gt = x13.gamma_tilde()
    # multiplier is (1 + pi^(1/3))
    coeff = gt.parts[1]
    assert coeff.terms() == {Fraction(0): 1, Fraction(1, 3): 1}


def test_relative_from_terms_rejects_off_grid_exponent():
    one = NormFieldElement.one(3, 6)
    with pytest.raises(ValueError):
        RelativeNormElement.from_terms(3, {Fraction(1, 6): one})


def test_from_terms_rejects_denominator_prime_to_p():
    with pytest.raises(ValueError):
        NormFieldElement.from_terms(3, {Fraction(1, 25): 1}, 24)
    with pytest.raises(ValueError):
        NormFieldElement.pi_power(5, Fraction(2, 15), 24)
    x = NormFieldElement.from_terms(5, {Fraction(1, 25): 1, Fraction(-2): 3}, 4)
    assert x.m == 2 and x.terms() == {Fraction(-2): 3, Fraction(1, 25): 1}


# -- gamma window matrices ---------------------------------------------------
#
# binomial_mod_p and gamma_matrix are the earlier s = 1 path, kept verbatim:
# Lucas' theorem per coefficient, and one window matrix per call.  The
# window matrices now come from complexes.ring_window at s = 1.


def binomial_mod_p(a: int, k: int, p: int, mod_power: int) -> int:
    """C(a, k) mod p via Lucas, for a given as a residue mod p^mod_power.

    Valid only when k < p^mod_power: higher k would see digits of a that the
    residue does not determine.
    """
    if k < 0:
        return 0
    if k >= p**mod_power:
        raise PrecisionError(
            f"binomial C(a, {k}) needs the exponent mod p^{mod_power} and more"
        )
    a %= p**mod_power
    result = 1
    while k:
        ad, kd = a % p, k % p
        if kd > ad:
            return 0
        result = (result * math.comb(ad, kd)) % p
        a //= p
        k //= p
    return result


def gamma_matrix(p: int, a: int, mod_power: int, dom_lo: int, dom_hi: int,
                 row_lo: int, row_hi: int) -> np.ndarray:
    """Matrix of gamma_a, t |-> G = (1+t)^a - 1, on a monomial window.

    Entry [n - row_lo, q - dom_lo] is the exact coefficient of t^n in G^q for
    q in [dom_lo, dom_hi) and n in [row_lo, row_hi).  The formula is the same
    at every grid level m, with t = pi^(1/p^m), so the level enters only
    through the window, counted in grid steps.  Writing G = t*U, the
    columns t^q * U^q come from one table of U (from binomial_mod_p, so a
    window needing C(a, k) with k >= p^mod_power raises PrecisionError) and
    its powers mod p from power_rows.
    """
    if a % p == 0:
        raise ValueError("gamma exponent must be a p-adic unit")
    A = np.zeros((max(row_hi - row_lo, 0), max(dom_hi - dom_lo, 0)),
                 dtype=np.int64)
    # column q only reaches rows n < row_hi, i.e. U^q below t^(row_hi - q)
    L = row_hi - dom_lo
    if not A.size or L <= 0:
        return A
    U = np.array([binomial_mod_p(a, k, p, mod_power) for k in range(1, L + 1)],
                 dtype=np.int64)
    powers = power_rows(U, p, dom_lo, dom_hi, end=row_hi)
    for q in range(dom_lo, dom_hi):
        lo, hi = max(row_lo, q), min(row_hi, q + L)
        if lo < hi:
            A[lo - row_lo:hi - row_lo, q - dom_lo] = powers[q - dom_lo,
                                                            lo - q:hi - q]
    return A


def gamma_window(p, a, dom_lo, dom_hi, row_lo, row_hi):
    """The gamma_matrix window, read off ring_window at s = 1."""
    top = max(dom_hi, row_hi)
    R = ring_window(p, 1, ring_gamma(a), -dom_lo, -row_lo, top)
    return R[:row_hi - row_lo, :dom_hi - dom_lo]


def square_window(p, a, lo, hi):
    """gamma on [lo, hi)^2, as tatesen.invert_one_minus_gamma reads it."""
    return ring_window(p, 1, ring_gamma(a), -lo, -lo, hi)


def element_gamma_matrix(p, m, a, dom_lo, dom_hi, row_lo, row_hi):
    """Reference: gamma applied to each monomial t^q as an element."""
    A = np.zeros((row_hi - row_lo, dom_hi - dom_lo), dtype=np.int64)
    for j, q in enumerate(range(dom_lo, dom_hi)):
        img = NormFieldElement(p, m, {q: 1}, row_hi + 1).gamma(a)
        for n, c in img.coeffs.items():
            if row_lo <= n < row_hi:
                A[n - row_lo, j] = c
    return A


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_gamma_matrix_matches_element_gamma(p, m):
    omega2 = pow(2, p**11, p**12)  # Teichmuller residue of 2 mod p^12
    windows = [(2, 9, 0, 14),       # positive exponents only
               (-9, -2, -14, 0),    # negative exponents only
               (-6, 6, -10, 8),     # straddling 0
               (-4, 3, 1, 5)]       # rows cut off the low columns
    for a in (1 + p, -1, omega2):
        for w in windows:
            assert np.array_equal(gamma_window(p, a, *w),
                                  element_gamma_matrix(p, m, a, *w))
            assert np.array_equal(gamma_window(p, a, *w),
                                  gamma_matrix(p, a, 12, *w))


def test_gamma_matrix_binomial_precision():
    # rows up to t^11 from t^0 read C(4, k) for k up to 12 > 3^2
    assert np.array_equal(gamma_window(3, 4, 0, 5, 0, 12),
                          gamma_matrix(3, 4, 12, 0, 5, 0, 12))
    assert gamma_window(3, 4, 0, 5, 0, 8).shape == (8, 5)
    with pytest.raises(ValueError):
        gamma_window(3, 6, 0, 5, 0, 8)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma_corner_is_the_gamma_matrix_window(p):
    complexes._WINDOWS.clear()
    a = pow(1 + p, p, p**14)
    hi = 6 * p + 5
    # lows going down widen the kept window, lows going up read its corners
    for lo in (-p, 2, -3 * p - 1, 0, -3 * p - 1, hi - 1, hi, -2, 7):
        A = square_window(p, a, lo, hi)
        assert not A.flags.writeable
        assert np.array_equal(A, gamma_matrix(p, a, 14, lo, hi, lo, hi))
    kept = complexes._WINDOWS[(p, 1, ring_gamma(a), hi)]
    assert kept[:2] == (3 * p + 1, 3 * p + 1)
    # equal to a fresh build
    complexes._WINDOWS.clear()
    assert np.array_equal(square_window(p, a, 2, hi),
                          kept[2][3 * p + 3:, 3 * p + 3:])
    # another top is another window
    assert np.array_equal(square_window(p, a, -4, hi - 3),
                          gamma_matrix(p, a, 14, -4, hi - 3, -4, hi - 3))


def test_gamma_corner_binomial_precision():
    # [lo, 9) reads C(4, k) for k <= 9 - lo, past k = 9 from lo = 0 on
    complexes._WINDOWS.clear()
    assert np.array_equal(square_window(3, 4, 1, 9),
                          gamma_matrix(3, 4, 2, 1, 9, 1, 9))
    assert np.array_equal(square_window(3, 4, 0, 9),
                          gamma_matrix(3, 4, 12, 0, 9, 0, 9))
    assert np.array_equal(square_window(3, 4, 3, 9),
                          gamma_matrix(3, 4, 2, 3, 9, 3, 9))
    with pytest.raises(ValueError):
        square_window(3, 6, 0, 9)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_ring_window_is_gamma_matrix_on_ts3_windows(p, m):
    """Square windows [lo, hi)^2 as invert_one_minus_gamma reads them, at
    a = (1+p)^(p^m) and at its residues mod p^2 and p^3, each read as an
    integer exponent: equal to the reference, with widths around p^2 and
    p^3 too."""
    f = p ** (m + 1)
    for mod_power in (14, 3, 2):
        a = pow(1 + p, p**m, p**mod_power)
        widths = ((f + 2, 2 * f + 1) if mod_power == 14 else
                  (p**mod_power - 1, p**mod_power, p**mod_power + 1))
        for lo in (-f - p, 0, f + 1):
            for width in widths:
                hi = lo + width
                assert np.array_equal(square_window(p, a, lo, hi),
                                      gamma_matrix(p, a, 14, lo, hi, lo, hi)
                                      ), (mod_power, lo, width)


# -- the binomial precision rule ---------------------------------------------


def _log_floor(k, p):
    e = 0
    while p ** (e + 1) <= k:
        e += 1
    return e


def test_binomial_residue_rule():
    """C(a + t p^M, k) = C(a, k) mod p^s at M = s + floor(log_p k), and at
    k = p^e not at M - 1: C(p^(M-1), p^e) has p-valuation s - 1."""
    rng = random.Random(1997)
    for p in (2, 3, 5, 7):
        for s in range(1, 7):
            q = p**s
            for k in [rng.randint(1, 400) for _ in range(24)] + [1, p, p * p]:
                M = s + _log_floor(k, p)
                for _ in range(3):
                    a, t = rng.randrange(p**(M + 3)), rng.randint(1, p**4)
                    assert math.comb(a + t * p**M, k) % q \
                        == math.comb(a, k) % q, (p, s, k, a, t)
                e = _log_floor(k, p)
                assert math.comb(p**(s + e - 1), p**e) % q  # nonzero
                assert math.comb(0, p**e) == 0


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 4])
def test_binomial_table_takes_the_least_residue(p, s):
    """The residue of a mod p^(s + floor(log_p L)) gives the table of a."""
    a = pow(2, p**40, p**41)
    for L in (1, p - 1, p, p * p + 3, 2 * p**3):
        M = s + _log_floor(L, p)
        exact = binomial_table_mod_ps(a, L, p, s)
        assert np.array_equal(binomial_table_mod_ps(a % p**M, L, p, s), exact)


def _comb(a, k):
    """C(a, k) for any integer a: (-1)^k C(k - a - 1, k) when a < 0."""
    return math.comb(a, k) if a >= 0 else (-1) ** k * math.comb(k - a - 1, k)


def test_binomial_table_reads_the_exponent_mod_p_s_plus_63():
    """a + t p^(s+63) gives the table of a, for a and t of either sign, and
    that table is C(a, k) mod p^s."""
    rng = random.Random(2963)
    for p in (3, 5, 7):
        for s in range(1, 7):
            q, M = p**s, s + 63
            for a in (-1, -1 - p, -rng.randrange(p**70), 1 + p,
                      rng.randrange(p**70)):
                L = rng.randint(1, 3 * p**2)
                table = binomial_table_mod_ps(a, L, p, s)
                assert list(table) == [_comb(a, k) % q
                                       for k in range(1, L + 1)], (p, s, a)
                for t in (1, -1, rng.randint(2, p**8), -rng.randint(2, p**8)):
                    assert np.array_equal(
                        binomial_table_mod_ps(a + t * p**M, L, p, s), table
                    ), (p, s, a, t)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_ts3_gamma_reads_its_exponent_mod_p64(p, m):
    """gamma^(p^m) on a TS3 window and as element gamma: the exact exponent
    (1 + p)^(p^m), the one TS3 residue and the integers congruent to it mod
    p^64 give the same build_ring_window and the same element gamma."""
    rng = random.Random(64 * p + m)
    residue = tatesen._ts3_exponent(p, m)
    assert residue == (1 + p) ** (p**m) % p**64
    exponents = ((1 + p) ** (p**m), residue, residue - p**64,
                 residue + rng.randint(2, p**8) * p**64)
    K = m + 1
    f = p ** (K - m)
    lo, hi = -2 * f - 1, 4 * f + 3
    windows, images = [], []
    x = NormFieldElement(p, K, {rng.randrange(lo, hi): rng.randrange(1, p)
                                for _ in range(4)}, hi)
    for a in exponents:
        windows.append(complexes.build_ring_window(p, 1, ring_gamma(a), -lo,
                                                   -lo, hi))
        normfield._GENERATORS.clear()
        images.append(x.gamma(a))
    assert all(np.array_equal(w, windows[0]) for w in windows)
    assert all(_same(y, images[0]) for y in images)
    assert _same(images[0], dict_gamma(x, exponents[0], 14))


def _comb_gen_power(p, mx, e, c):
    """c * (1 + pi^(1/p^mx))^e with its binomials from math.comb."""
    level = max(c.m, mx)
    cc = c.at_level(level)
    width = cc.prec_num - min(min(cc.coeffs, default=0), 0)
    step = p ** (level - mx)
    n = width // step + 2
    factor = NormFieldElement(p, level, {k * step: _comb(e, k)
                                         for k in range(n)},
                              max(cc.prec_num, n * step))
    return cc * factor


def test_one_plus_gen_power_matches_comb_for_negative_exponents():
    rng = random.Random(3011)
    for p in (3, 5, 7):
        for _ in range(6):
            mx, m = rng.randint(0, 2), rng.randint(0, 2)
            f = p**m
            c = NormFieldElement(p, m, {rng.randrange(-3 * f, 6 * f):
                                        rng.randrange(1, p)
                                        for _ in range(3)},
                                 rng.randrange(6, 12) * f)
            for e in (-1, -p, -rng.randrange(2, p**4), rng.randrange(p**4)):
                assert _same(normfield._one_plus_gen_power(p, mx, e, c),
                             _comb_gen_power(p, mx, e, c)), (p, mx, e)


def test_power_rows_cut_rows_at_end():
    rng = random.Random(36)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        q = p ** rng.randint(1, 3)
        U = np.array([rng.randrange(q) for _ in range(rng.randint(1, 30))],
                     dtype=np.int64)
        U[0] = rng.choice([u for u in range(1, q) if u % p])
        lo = rng.randint(-12, 8)
        hi = lo + rng.randint(0, 25)
        end = rng.randint(lo - 2, hi + len(U) + 2)
        full, cut = power_rows(U, q, lo, hi), power_rows(U, q, lo, hi, end)
        for n in range(lo, hi):
            w = max(min(len(U), end - n), 0)
            assert np.array_equal(cut[n - lo, :w], full[n - lo, :w])
            assert not cut[n - lo, w:].any()


def reference_power_rows(U, q, lo, hi, end=None):
    """power_rows by full-length dense convolutions: U^n for n >= 0 from U^0
    upward, U^-1 by back-substitution on Python integers, then its powers
    downward, each row then cut to its first end - n terms."""
    L = len(U)
    u = [int(c) for c in U]

    def mul(a, b):
        return np.convolve(a, b)[:L] % q

    power = {0: np.eye(1, L, dtype=np.int64)[0]}
    for n in range(1, max(hi, 1)):
        power[n] = mul(power[n - 1], u)
    if lo < 0:
        inv = [pow(u[0], -1, q)] + [0] * (L - 1)
        for k in range(1, L):
            inv[k] = -inv[0] * sum(u[i] * inv[k - i]
                                   for i in range(1, k + 1)) % q
        for n in range(-1, lo - 1, -1):
            power[n] = mul(power[n + 1], inv)
    rows = np.zeros((max(hi - lo, 0), L), dtype=np.int64)
    for n in range(lo, hi):
        w = L if end is None else max(min(L, end - n), 0)
        rows[n - lo, :w] = power[n][:w]
    return rows


def test_power_rows_match_repeated_products():
    """Short U (gamma_(1+p), phi's H), short U^-1 (gamma_-1), Lucas-sparse
    U and dense U; lo < 0 (but for H, which is not a unit), hi on both
    sides of 0, end set and unset."""
    from phigamma.wittside import binomial_table_mod_ps
    rng = random.Random(137)
    negative = ((-9, -2), (-9, 1), (-6, 7), (-1, 12))
    cases = []
    for p in (3, 5, 7):
        for s in (1, 2, 3):
            q, L = p**s, rng.randint(8, 40)
            a = pow(1 + p, p**2, p**14)
            H = [math.comb(p, k) % q for k in range(1, p + 1)] + [0] * L
            dense = [rng.randrange(q) for _ in range(L)]
            dense[0] = rng.choice([u for u in range(1, q) if u % p])
            cases += [(q, binomial_table_mod_ps(1 + p, L, p, s), negative),
                      (q, np.array(H[:L], dtype=np.int64), ((0, 12), (3, 9))),
                      (q, binomial_table_mod_ps(-1, L, p, s), negative),
                      (q, binomial_table_mod_ps(a, L, p, s), negative),
                      (q, np.array(dense, dtype=np.int64), negative)]
    for q, U, windows in cases:
        for lo, hi in windows:
            for end in (None, rng.randint(hi - 3, hi + len(U))):
                assert np.array_equal(power_rows(U, q, lo, hi, end),
                                      reference_power_rows(U, q, lo, hi,
                                                           end))


def test_power_rows_of_a_vanishing_U():
    """phi's H = ((1+pi)^p - 1)/pi is pi^(p-1) mod p, so at s = 1 a width
    below p truncates it to zeros: every row past U^0 is zero."""
    for p in (3, 5, 7):
        H = np.array([math.comb(p, k) % p for k in range(1, p + 1)],
                     dtype=np.int64)
        for L in range(1, p):
            U = H[:L]
            assert not U.any()
            for lo, hi in ((0, 1), (0, 5), (1, 4), (2, 6)):
                for end in (None, hi, hi + L - 1):
                    assert np.array_equal(power_rows(U, p, lo, hi, end),
                                          reference_power_rows(U, p, lo, hi,
                                                               end))


def _steps_by_terms(U):
    """Whether power_rows walks U upward by its nonzero terms."""
    trimmed = len(np.trim_zeros(U, "b"))
    return np.count_nonzero(U) * normfield._SPARSE_TERM <= trimmed**2


def test_power_rows_sparse_steps_match_dense_convolutions():
    """Lucas-sparse U at s = 1, wide enough for the step by nonzero terms,
    with lo < 0 and end cuts; phi's monomial H at s = 1 and a wide
    monomial; a dense U at s = 2, which keeps the convolution."""
    rng = random.Random(271)
    cases = []
    for p, sparse in ((3, ((pow(4, 9, 3**14), 200), (pow(4, 27, 3**14), 100),
                           (pow(4, 27, 3**14), 260))),
                      (5, ((pow(6, 5, 5**14), 200), (1 + 5**3, 230))),
                      (7, ((1 + 7**3, 360), (1 + 2 * 7 + 7**3, 400)))):
        negative = ((-9, 4), (-3, 20), (-1, 1), (0, 15), (5, 12))
        for a, L in sparse:
            U = binomial_table_mod_ps(a, L, p, 1)
            assert _steps_by_terms(U), (p, a, L)
            cases.append((p, U, negative))
        L = rng.randint(60, 200)
        H = np.array([math.comb(p, k) % p for k in range(1, p + 1)]
                     + [0] * L, dtype=np.int64)[:L]
        monomial = np.zeros(L, dtype=np.int64)
        monomial[50] = p - 1
        assert _steps_by_terms(monomial)
        cases += [(p, H, ((0, 12), (3, 9))), (p, monomial, ((0, 6), (1, 4)))]
        dense = binomial_table_mod_ps(1 + p, rng.randint(60, 200), p, 2)
        assert not _steps_by_terms(dense)
        cases.append((p * p, dense, negative))
    for q, U, windows in cases:
        for lo, hi in windows:
            for end in (None, hi, rng.randint(lo, hi + len(U))):
                assert np.array_equal(power_rows(U, q, lo, hi, end),
                                      reference_power_rows(U, q, lo, hi, end))


# -- dense inverse against the dict back-substitution --------------------------


def dict_inverse(x):
    """Reference inverse: the dict back-substitution the dense one replaced."""
    if not x.coeffs:
        raise ZeroDivisionError("inverting the zero element")
    v = min(x.coeffs)
    c = x.coeffs[v]
    width = x.prec_num - v
    cinv = pow(c, -1, x.p)
    u = {n - v: cc * cinv % x.p for n, cc in x.coeffs.items()}
    inv = {0: 1}
    for k in range(1, width):
        acc = 0
        for j, cj in inv.items():
            ujk = u.get(k - j, 0)
            if ujk:
                acc += cj * ujk
        if acc % x.p:
            inv[k] = (-acc) % x.p
    coeffs = {k - v: cc * cinv % x.p for k, cc in inv.items()}
    return NormFieldElement(x.p, x.m, coeffs, width - v)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dense_inverse_matches_dict_back_substitution(p):
    rng = random.Random(37 * p)
    for _ in range(60):
        m = rng.randint(0, 2)
        coeffs = {rng.randrange(-20, 40): rng.randrange(p)
                  for _ in range(rng.randrange(0, 8))}
        x = NormFieldElement(p, m, coeffs, rng.randrange(-12, 60))
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        y, want = x.inverse(), dict_inverse(x)
        assert (y.coeffs, y.prec_num, y.m) == (want.coeffs, want.prec_num,
                                               want.m)


# -- dense element gamma against the dict substitution ------------------------


def _mul_window(a, b, prec_num):
    """Reference product truncated to a window: the old dict double loop."""
    coeffs = {}
    for n1, c1 in a.coeffs.items():
        for n2, c2 in b.coeffs.items():
            if n1 + n2 < prec_num:
                coeffs[n1 + n2] = (coeffs.get(n1 + n2, 0) + c1 * c2) % a.p
    return NormFieldElement(a.p, a.m, coeffs, prec_num)


def _pow_window(x, k, prec_num):
    result = NormFieldElement(x.p, x.m, {0: 1}, prec_num)
    base = x
    while k:
        if k & 1:
            result = _mul_window(result, base, prec_num)
        k >>= 1
        if k:
            base = _mul_window(base, base, prec_num)
    return result


def dict_substitute(x, G):
    """Reference t |-> G: iterated dict powers of G and of G^-1."""
    if not x.coeffs:
        return x
    prec, p = x.prec_num, x.p
    out = NormFieldElement(p, x.m, {}, prec)
    exps = sorted(x.coeffs)
    pos = [n for n in exps if n >= 0]
    neg = [n for n in exps if n < 0]
    if pos:
        power, last = _pow_window(G, pos[0], prec), pos[0]
        for n in pos:
            if n != last:
                power = _mul_window(power, _pow_window(G, n - last, prec), prec)
                last = n
            out = out + power.scale(x.coeffs[n]).truncate_to_num(prec)
    if neg:
        work = prec - 2 * neg[0] + 2
        Ginv = dict_inverse(G)
        power, last = _pow_window(Ginv, -neg[-1], work), neg[-1]
        for n in reversed(neg):
            if n != last:
                power = _mul_window(power, _pow_window(Ginv, last - n, work), work)
                last = n
            out = out + power.scale(x.coeffs[n]).truncate_to_num(prec)
    return NormFieldElement(p, x.m, out.coeffs, prec)


def dict_gamma(x, a, mod_power):
    """Reference element gamma: the dense path's dict predecessor."""
    if a % x.p == 0:
        raise ValueError("gamma exponent must be a p-adic unit")
    if not x.coeffs:
        return x
    # x(G) on the window reads G/t to its first W = prec - min(lo, 0) terms
    width = x.prec_num - min(min(x.coeffs), 0)
    G = NormFieldElement(x.p, x.m, {k: binomial_mod_p(a, k, x.p, mod_power)
                                    for k in range(1, width + 1)}, width + 1)
    return dict_substitute(x, G)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_dense_gamma_matches_dict_substitution(p, m):
    rng = random.Random(1000 * p + m)
    f = p**m
    for _ in range(12):
        coeffs = {rng.randrange(-4 * f, 12 * f): rng.randrange(1, p)
                  for _ in range(rng.randrange(1, 6))}
        x = NormFieldElement(p, m, coeffs, rng.randrange(2, 14) * f)
        a = rng.choice([1 + p, -1, 2, pow(2, p**5, p**6)])
        # a reference reading a mod p^mod_power covers the windows it can
        mod_power = rng.choice([1, 2, 3, 6])
        if x.prec_num - min(min(x.coeffs, default=0), 0) >= p**mod_power:
            mod_power = 14
        assert _same(x.gamma(a), dict_gamma(x, a, mod_power))


def test_gamma_refuses_int64_overflow():
    # (p - 1)^2 times the window must stay below 2^63 for int64 products
    with pytest.raises(ValueError, match="int64"):
        NormFieldElement(2**31 - 1, 0, {1: 1}, 10).gamma(2)


# -- baby-step/giant-step evaluator and its generator cache -------------------


def _same(y, want):
    return (y.coeffs, y.prec_num, y.m) == (want.coeffs, want.prec_num, want.m)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma_negative_and_single_term_inputs(p):
    rng = random.Random(2000 + p)
    a = rng.choice([1 + p, -1, 2])
    for m in (0, 1, 2):
        f = p**m
        for _ in range(4):
            # only negative exponents; the window ends below or above 0
            hi = rng.randrange(-6 * f, 0)
            coeffs = {rng.randrange(-8 * f, hi): rng.randrange(1, p)
                      for _ in range(rng.randrange(1, 5))}
            coeffs[hi] = 1
            x = NormFieldElement(p, m, coeffs, rng.randrange(hi + 1, 3 * f))
            assert _same(x.gamma(a), dict_gamma(x, a, 12))
        for n in (-3 * f - 1, -1, 0, 1, 5 * f):
            x = NormFieldElement(p, m, {n: p - 1}, n + rng.randrange(1, 4 * f))
            assert _same(x.gamma(a), dict_gamma(x, a, 12))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_gamma_wide_spans_match_dict_substitution(m):
    # spans of a few hundred grid steps: k = ceil(sqrt(N + 1)) baby steps
    # and several giant steps, with and without a negative part
    rng = random.Random(3000 + m)
    for p in (3, 5, 7):
        f = p**m
        span = rng.randrange(150, 320)
        lo = rng.choice([-rng.randrange(1, 2 * f + 2), rng.randrange(0, 9)])
        coeffs = {rng.randrange(lo, lo + span): rng.randrange(1, p)
                  for _ in range(4)}
        coeffs[lo] = 1
        x = NormFieldElement(p, m, coeffs, lo + span)
        a = pow(1 + p, p ** rng.randrange(0, 3), p**14)
        assert _same(x.gamma(a), dict_gamma(x, a, 14))


def _random_window(rng, p, m, W):
    """An element whose window reads W = prec - min(lo, 0) terms of G/t."""
    base = -rng.randrange(0, W)
    prec = W + base
    coeffs = {rng.randrange(base, prec): rng.randrange(1, p)
              for _ in range(rng.randrange(1, 6))}
    if base < 0:
        coeffs[base] = 1
    return NormFieldElement(p, m, coeffs, prec)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma_tables_serve_rising_and_falling_widths(p):
    # one generator: a wider window rebuilds its tables at twice the kept
    # width or more, a narrower one reads a prefix of them, and a deeper
    # negative part adds squarings at the kept width
    rng = random.Random(4000 + p)
    a = pow(1 + p, p, p**14)
    key = (p, a)
    normfield._GENERATORS.clear()
    kept = 0
    for W in (12, 30, 31, 90, 40, 7, 200, 65, 3, 201, 450, 20):
        x = _random_window(rng, p, rng.randint(0, 1), W)
        assert _same(x.gamma(a), dict_gamma(x, a, 14))
        if W > kept:
            kept = max(W, 2 * kept)
        baby, giant, squares = normfield._GENERATORS[key]
        assert baby.shape == (2 * math.isqrt(kept) + 1, kept)
        assert len(giant) == kept and len(squares[-1]) == kept
        assert len(squares) >= (-min(min(x.coeffs), 0)).bit_length()


def test_gamma_tables_of_interleaved_generators():
    # more generators than the LRU keeps, visited in turn with rising and
    # falling widths: evicted tables are rebuilt, kept ones are read
    rng = random.Random(4100)
    p = 5
    exponents = [a for a in range(2, 40) if a % p][:normfield._LRU_SIZE + 3]
    normfield._GENERATORS.clear()
    for W in (20, 70, 35, 120, 9):
        rng.shuffle(exponents)
        for a in exponents:
            x = _random_window(rng, p, rng.randint(0, 2), W)
            assert _same(x.gamma(a), dict_gamma(x, a, 14))
            assert len(normfield._GENERATORS) <= normfield._LRU_SIZE
    assert len(normfield._GENERATORS) == normfield._LRU_SIZE


def test_gamma_cache_order_does_not_change_results():
    p = 5
    a = pow(1 + p, p, p**14)
    narrow = NormFieldElement(p, 1, {-3: 1, 4: 2, 60: 3}, 70)
    middle = NormFieldElement(p, 1, {-5: 1, 50: 2}, 100)
    wide = NormFieldElement(p, 1, {-30: 4, -2: 1, 100: 2, 200: 1}, 260)
    narrow2 = NormFieldElement(p, 1, {-7: 2, 9: 1}, 30)
    cases = [narrow, wide, narrow2, narrow, middle, wide, narrow2, wide,
             narrow]
    cold = []
    for x in cases:
        normfield._GENERATORS.clear()
        cold.append(x.gamma(a))
    normfield._GENERATORS.clear()
    warm = [x.gamma(a) for x in cases]
    assert all(_same(w, c) for w, c in zip(warm, cold))
    assert _same(cold[0], dict_gamma(narrow, a, 14))
    assert _same(cold[4], dict_gamma(middle, a, 14))


def test_gamma_cache_growth_stays_within_int64():
    # (p - 1)^2 * 33 >= 2^63: doubling 20 kept terms to 40 would overflow
    # the inverse's int64 sums, where a cold cache asks for 25 terms only
    p = 536870909
    narrow = NormFieldElement(p, 0, {3: 1}, 20)
    wide = NormFieldElement(p, 0, {3: 1, 7: 5}, 25)
    normfield._GENERATORS.clear()
    cold = wide.gamma(2)
    normfield._GENERATORS.clear()
    narrow.gamma(2)
    warm = wide.gamma(2)
    assert _same(warm, cold) and _same(cold, dict_gamma(wide, 2, 3))


def test_lru_store_keeps_the_most_recently_used():
    table = {}
    for key in range(normfield._LRU_SIZE):
        assert normfield._lru_store(table, key, -key) == -key
    normfield._lru_store(table, 0, 7)  # a hit moves its key to the end
    normfield._lru_store(table, "new", 1)
    assert list(table) == [*range(2, normfield._LRU_SIZE), 0, "new"]
    assert table[0] == 7 and len(table) == normfield._LRU_SIZE


def test_gamma_cache_is_bounded_and_read_only():
    normfield._GENERATORS.clear()
    x = NormFieldElement(7, 0, {-2: 1, 5: 3}, 12)
    for a in range(1, 15):
        if a % 7:
            x.gamma(a)
            assert len(normfield._GENERATORS) <= normfield._LRU_SIZE
    assert len(normfield._GENERATORS) == normfield._LRU_SIZE
    for baby, giant, squares in normfield._GENERATORS.values():
        for table in (baby, giant, *squares):
            assert not table.flags.writeable
            assert table.shape[-1] == baby.shape[1]


def test_element_gamma_shares_nothing_with_the_window_matrices(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("element gamma reached a window-matrix helper")

    monkeypatch.setattr(normfield, "power_rows", unused)
    monkeypatch.setattr(complexes, "power_rows", unused)
    monkeypatch.setattr(complexes, "ring_window", unused)
    monkeypatch.setattr(complexes, "build_ring_window", unused)
    normfield._GENERATORS.clear()
    x = NormFieldElement(5, 1, {-4: 2, 0: 1, 17: 3}, 30)
    a = pow(6, 5, 5**14)
    assert _same(x.gamma(a), dict_gamma(x, a, 14))
