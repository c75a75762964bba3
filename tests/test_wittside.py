"""Arithmetic-lift and Witt-coordinate models of the lift ring mod p^s."""

import math
import random
from fractions import Fraction

import pytest

from phigamma.normfield import NormFieldElement, parse_element
from phigamma.wittside import (
    ArithLiftElement,
    WeakNeighborhood,
    WittVector,
    binomial_table_mod_ps,
    ghost_check,
    pi_witt,
    teichmuller,
    v_le_n,
    w_r_valuation,
    weak_membership,
    _ZSeries,
    _ghost_components,
    _headroom,
    witt_add,
    witt_mul,
    witt_neg,
)

PREC = 16


def random_nf(rng, p=3, m=0, lo=-3, width=PREC, allow_zero=True):
    coeffs = {}
    for _ in range(rng.randint(0 if allow_zero else 1, 4)):
        coeffs[rng.randint(lo * p**m, width * p**m - 1)] = rng.randint(1, p - 1)
    return NormFieldElement(p, m, coeffs, width * p**m)


def random_witt(rng, p=3, s=3, lo=0):
    return WittVector(p, s, [random_nf(rng, p, 0, lo) for _ in range(s)])


# -- binomial tables ---------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 4])
def test_binomial_table_matches_comb(p, s):
    q = p**s
    L = 3 * p**2
    omega2 = pow(2, p**59, p**60)
    for a in (1 + p, -1, -7, 2, omega2, 10**40 + 1):
        want = [math.comb(a, k) % q if a >= 0
                else (-1) ** k * math.comb(k - a - 1, k) % q
                for k in range(1, L + 1)]
        assert list(binomial_table_mod_ps(a, L, p, s)) == want
        assert list(binomial_table_mod_ps(a % p**60, L, p, s)) == [
            math.comb(a % p**60, k) % q for k in range(1, L + 1)]


# -- arithmetic-lift model --------------------------------------------------


def test_arith_phi_explicit():
    pi = ArithLiftElement.pi_power(3, 2, 1, 12)
    fr = pi.frobenius()
    # (1+pi)^3 - 1 = 3 pi + 3 pi^2 + pi^3
    assert fr.coeffs == {1: 3, 2: 3, 3: 1}
    assert fr.reduce_mod_p().terms() == {Fraction(3): 1}


def test_arith_gamma_explicit():
    pi = ArithLiftElement.pi_power(3, 2, 1, 12)
    g = pi.gamma(4)
    # (1+pi)^4 - 1 = 4 pi + 6 pi^2 + 4 pi^3 + pi^4
    assert g.coeffs == {1: 4, 2: 6, 3: 4, 4: 1}


def test_arith_gamma_identity():
    x = ArithLiftElement(3, 2, {-2: 5, 0: 1, 3: 8}, 12)
    assert x.gamma(1).agrees_with(x)


def test_arith_inverse_and_negative_powers():
    x = ArithLiftElement(3, 3, {0: 3, 1: 1}, 14)  # p + pi: unit of the model
    xi = x.inverse()
    one = ArithLiftElement.one(3, 3, xi.prec_num)
    assert (x * xi).agrees_with(one)


def test_arith_phi_gamma_commute():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = {rng.randint(-3, 9): rng.randint(1, 8) for _ in range(3)}
        x = ArithLiftElement(3, 2, coeffs, 14)
        a = 4
        lhs = x.frobenius().gamma(a)
        rhs = x.gamma(a).frobenius()
        assert lhs.agrees_with(rhs)


def test_reduction_intertwines_actions():
    rng = random.Random(6)
    for _ in range(30):
        coeffs = {rng.randint(-2, 10): rng.randint(1, 8) for _ in range(3)}
        x = ArithLiftElement(3, 2, coeffs, 16)
        assert x.frobenius().reduce_mod_p().agrees_with(x.reduce_mod_p().frobenius())
        assert x.gamma(4).reduce_mod_p().agrees_with(x.reduce_mod_p().gamma(4))


def test_reduction_is_ring_hom():
    rng = random.Random(7)
    for _ in range(30):
        x = ArithLiftElement(3, 2, {rng.randint(-2, 8): rng.randint(1, 8)
                                    for _ in range(3)}, 14)
        y = ArithLiftElement(3, 2, {rng.randint(-2, 8): rng.randint(1, 8)
                                    for _ in range(3)}, 14)
        assert (x * y).reduce_mod_p().agrees_with(x.reduce_mod_p() * y.reduce_mod_p())
        assert (x + y).reduce_mod_p().agrees_with(x.reduce_mod_p() + y.reduce_mod_p())


# -- the shared series core ---------------------------------------------------


def random_lift(rng, p, s, lo):
    """Series mod p^s from pi^lo on, with a unit leading coefficient."""
    prec = lo + rng.randint(4, 14)
    coeffs = {lo: rng.choice([c for c in range(1, p**s) if c % p])}
    for _ in range(rng.randint(0, 4)):
        coeffs[rng.randint(lo + 1, prec - 1)] = rng.randrange(p**s)
    return ArithLiftElement(p, s, coeffs, prec)


def repeated_product(x, k):
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_lift_operations_reduce_to_norm_field(p, s):
    rng = random.Random(100 * p + s)
    for _ in range(20):
        x = random_lift(rng, p, s, rng.randint(-6, 4))
        y = random_lift(rng, p, s, rng.randint(-6, 4))
        xr, yr = x.reduce_mod_p(), y.reduce_mod_p()
        assert (x + y).reduce_mod_p() == xr + yr
        assert (x - y).reduce_mod_p() == xr - yr
        assert (-x).reduce_mod_p() == -xr
        assert (x * y).reduce_mod_p() == xr * yr
        for k in range(5):
            assert (x ** k).reduce_mod_p() == xr ** k


def test_pow_certifies_like_repeated_products():
    x = ArithLiftElement(3, 2, {-5: 1, 0: 2}, 10)
    assert (x * x).prec_num == 5
    assert x ** 2 == x * x
    rng = random.Random(11)
    for p, s in [(3, 1), (3, 2), (5, 3), (7, 2)]:
        for _ in range(6):
            x = random_lift(rng, p, s, rng.randint(-6, 4))
            z = _ZSeries(p, rng.randint(0, 1), x.coeffs, x.prec_num, 2 * s + 2)
            for k in range(1, 7):
                assert x ** k == repeated_product(x, k)
                assert z ** k == repeated_product(z, k)


def test_mixed_lift_rings_raise():
    x = ArithLiftElement(3, 2, {0: 1}, 8)
    for y in (ArithLiftElement(3, 3, {0: 1}, 8), ArithLiftElement(5, 2, {0: 1}, 8)):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y


# -- Witt coordinates -------------------------------------------------------


def test_teichmuller_trivial_cases():
    p = 3
    zero = teichmuller(NormFieldElement.zero(p, 10), 2)
    assert zero.is_zero()
    one = teichmuller(NormFieldElement.one(p, 10), 2)
    assert witt_mul(one, one).agrees_with(one)


def test_teichmuller_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        a = random_nf(rng, allow_zero=False)
        b = random_nf(rng, allow_zero=False)
        prod = witt_mul(teichmuller(a, 3), teichmuller(b, 3))
        assert prod.components[0].agrees_with(a * b)
        assert prod.components[1].is_zero()
        assert prod.components[2].is_zero()


def test_three_ones_carry():
    one = teichmuller(NormFieldElement.one(3, 10), 2)
    x = witt_add(witt_add(one, one), one)
    assert x.components[0].is_zero()
    # the carry digit is a unit
    assert x.components[1].terms() == {Fraction(0): 1}


@pytest.mark.parametrize("p,s", [(3, 2), (3, 3), (5, 2)])
def test_from_constant_matches_repeated_addition(p, s):
    one = teichmuller(NormFieldElement.one(p, 6), s)
    expected = WittVector.zero(p, s, 6)
    for c in range(p**s):
        assert WittVector.from_constant(p, s, c, 6) == expected
        expected = witt_add(expected, one)
    assert WittVector.from_constant(p, s, p**s, 6) == WittVector.zero(p, s, 6)
    assert WittVector.from_constant(p, s, -1, 6) == witt_neg(one)


def test_unit_laws_and_associativity():
    rng = random.Random(13)
    one = teichmuller(NormFieldElement.one(3, PREC), 3)
    zero = WittVector.zero(3, 3, PREC)
    for _ in range(25):
        x, y, z = (random_witt(rng) for _ in range(3))
        assert witt_add(x, zero).agrees_with(x)
        assert witt_mul(x, one).agrees_with(x)
        assert witt_add(witt_add(x, y), z).agrees_with(witt_add(x, witt_add(y, z)))
        assert witt_mul(witt_mul(x, y), z).agrees_with(witt_mul(x, witt_mul(y, z)))
        assert witt_mul(x, witt_add(y, z)).agrees_with(
            witt_add(witt_mul(x, y), witt_mul(x, z)))
        assert witt_add(x, witt_neg(x)).is_zero()


def test_ghost_check_random_pairs():
    rng = random.Random(17)
    for _ in range(100):
        x, y = random_witt(rng), random_witt(rng)
        report = ghost_check(x, y, t=2)
        assert report["passed"]
        assert report["verified_p_powers"] == [1, 2, 3]


def test_ghost_check_zero_and_teichmuller():
    zero = WittVector.zero(3, 3, 10)
    assert ghost_check(zero, zero)["passed"]
    a = parse_element("pi^1 + 2*pi^3", 3, 12)
    b = parse_element("2 + pi^2", 3, 12)
    assert ghost_check(teichmuller(a, 3), teichmuller(b, 3))["passed"]


def test_witt_frobenius_componentwise_and_valuation():
    rng = random.Random(19)
    for _ in range(50):
        z = random_witt(rng, lo=-2)
        fz = z.frobenius()
        for c, fc in zip(z.components, fz.components):
            assert fc == c.frobenius()
        v, _ = v_le_n(z, 2)
        fv, _ = v_le_n(fz, 2)
        if v is not None:
            assert fv == 3 * v


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ghost_of_frobenius_is_sigma_of_ghost(p):
    # the canonical lifts commute with Frobenius, so ghost_i(phi v) =
    # sigma(ghost_i(v)) holds exactly, coefficients and precision alike
    rng = random.Random(600 + p)
    for _ in range(40):
        s, m = rng.randint(1, 6), rng.randint(0, 2)
        v = WittVector(p, s, [random_nf(rng, p, m, lo=rng.choice((-3, 1)),
                                        width=rng.randint(2, 10))
                              for _ in range(s)])
        ghosts = _ghost_components(v, m, _headroom(s))
        assert _ghost_components(v.frobenius(), m, _headroom(s)) == \
            [g.sigma() for g in ghosts]


def test_witt_gamma_preserves_v_le_n():
    rng = random.Random(23)
    for _ in range(50):
        z = random_witt(rng, lo=-2)
        gz = z.gamma(4)
        assert v_le_n(gz, 2)[0] == v_le_n(z, 2)[0]


def test_v_le_n_ultrametric_and_pi():
    pbar = teichmuller(NormFieldElement.pi_power(3, 1, 10), 3)
    assert v_le_n(pbar, 2)[0] == 1
    rng = random.Random(29)
    for _ in range(50):
        x, y = random_witt(rng), random_witt(rng)
        vx, vy = v_le_n(x, 2)[0], v_le_n(y, 2)[0]
        if vx is None or vy is None:
            continue
        vs = v_le_n(witt_add(x, y), 2)[0]
        if vs is not None:
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_w_r_of_p_is_one():
    p_elt = WittVector.from_constant(3, 3, 3, 10)
    report = w_r_valuation(p_elt, [Fraction(1, 2), Fraction(1), Fraction(2)])
    for r, w in report.w_r.items():
        assert w == 1


def test_w_r_of_zero_flagged():
    zero = WittVector.zero(3, 2, 8)
    report = w_r_valuation(zero, [Fraction(1)])
    assert report.w_r[Fraction(1)] is None
    assert report.precision_limited


def test_w_r_of_pi_lower_bound():
    pw = pi_witt(3, 3, 14)
    for r in [Fraction(1, 2), Fraction(1), Fraction(3, 2)]:
        report = w_r_valuation(pw, [r])
        assert report.w_r[r] >= Fraction(3, 2) * r  # p r/(p-1) at p = 3


def test_weak_membership_examples():
    p_sq = WittVector.from_constant(3, 3, 9, 12)
    assert weak_membership(p_sq, WeakNeighborhood(2, 5))
    tp = teichmuller(NormFieldElement.pi_power(3, 1, 12), 3)
    assert weak_membership(tp, WeakNeighborhood(0, 1))
    assert weak_membership(tp, WeakNeighborhood(1, 1))
    assert not weak_membership(tp, WeakNeighborhood(1, 2))


def test_weak_membership_stable_under_window_growth():
    rng = random.Random(31)
    for _ in range(10):
        comps_small = []
        comps_big = []
        for _ in range(2):
            coeffs = {rng.randint(0, 7): rng.randint(1, 2) for _ in range(2)}
            comps_small.append(NormFieldElement(3, 0, coeffs, 10))
            comps_big.append(NormFieldElement(3, 0, coeffs, 20))
        U = WeakNeighborhood(2, rng.randint(1, 3))
        small = weak_membership(WittVector(3, 2, comps_small), U)
        big = weak_membership(WittVector(3, 2, comps_big), U)
        assert small == big
