"""The Artin-Schreier and Witt solvers against their earlier forms.

The reference functions below are the earlier implementations, kept
verbatim: the Frobenius of a layer element expanded through layer products
of (theta + u)^j, the ghost maps that raise every component to its p-th
powers, zero or not, the Artin-Schreier solver that peeled and telescoped
NormFieldElement objects, and the (phi - 1) solver that recursed one Witt
length at a time, taking the defect r = z - (phi - 1)Y0 in two Witt
subtractions.  On seeded inputs (p in {3, 5, 7}, layers over the norm field,
Witt lengths 1..6, zero components, negative exponents, grid levels 0..2,
level budgets 0..4) the current layer Frobenius, ghost maps and
Artin-Schreier solver give the same values, reports and exception text, and
at least the same precision.

The Artin-Schreier solver now inverts sigma - 1 through the series core's
solve_sigma_minus_one, the routine of the ghost solve below, at q = p.  On
a window P > 0 it matches the reference byte for byte.  On a window P <= 0
the reference gave each peeled monomial the window P, so its p-th power
carried p*P < P; the routine keeps the window and drops a term whose p-th
root lies past it.  Those answers differ (see the pinned case below).

The current (phi - 1) solver works in ghost coordinates instead: ghost_i of
phi(y) is sigma(ghost_i(y)) exactly, with sigma: t |-> t^p, so each ghost
component solves sigma(g_i) - g_i = ghost_i(z) on its own, and Dwork's lemma
makes the g_i a ghost vector.  The recursion lost a factor of p of precision
per level (its certificates fell below the input's valuation) and refused
solvable inputs with negative exponents, so it is not matched byte for
byte.  Against it the current solver raises the same DepthExceededError and
InvariantError text, agrees in value on the overlap of the two windows,
certifies no smaller a window, and answers with a vanishing residual where
the reference raised PrecisionError.
"""

import json
import random
from fractions import Fraction

import pytest

from phigamma import wittside
from phigamma.errors import (DepthExceededError, InvariantError,
                             PrecisionError)
from phigamma.artinschreier import (ASSolution, rho_constant,
                                    solve_as_general, solve_phi_minus_one,
                                    _check_residual_base, _phi_minus_one)
from phigamma.normfield import (ASExtension, ASExtensionElement,
                                NormFieldElement, _grid_level,
                                adjoin_as_root)
from phigamma.wittside import (WittVector, _ZSeries, _ghost, _headroom,
                               _unghost, teichmuller, v_le_n, witt_add,
                               witt_sub)


# -- the earlier implementations ---------------------------------------------


def reference_frobenius(self):
    """theta^p = theta + u turns Frobenius into a coordinate shuffle.

    (sum c_j theta^j)^p = sum c_j^p (theta+u)^j, expanded and refolded.
    """
    ext = self.ext
    frob_coords = [c.frobenius() for c in self.coords]
    theta_plus_u = ext.theta(self.prec)  # theta
    theta_plus_u = ASExtensionElement(
        ext,
        [theta_plus_u.coords[0] + ext.u] + theta_plus_u.coords[1:])
    result = ext.embed(frob_coords[0])
    power = None
    for j in range(1, ext.p):
        power = theta_plus_u if power is None else power * theta_plus_u
        result = result + power * ext.embed(frob_coords[j])
    return result


def reference_solve_as_positive(b: NormFieldElement) -> ASSolution:
    """Solve a^p - a = b for v_E(b) > 0, in the same ring.

    The Hensel iteration from a0 = -b telescopes to a = -(b + b^p + ...);
    the sum is finite because the valuations p^k v_E(b) escape the window.
    """
    if b.is_zero():
        zero = NormFieldElement.zero(b.p, b.prec, b.m)
        return ASSolution(zero, 0, b.prec, None, None)
    v = b.valuation()
    if v <= 0:
        raise ValueError("positive solver needs v_E(b) > 0")
    a = NormFieldElement.zero(b.p, b.prec, b.m)
    t = b
    while not t.is_zero() and t.valuation() < b.prec:
        a = a - t.truncate_to_num(b.prec_num)
        t = t.frobenius()
    window = _check_residual_base(a, b)
    return ASSolution(a, 0, window, v, a.valuation())


def reference_split_by_sign(work: NormFieldElement):
    """Split into (exponent <= 0 part, exponent > 0 part)."""
    lo = {n: c for n, c in work.coeffs.items() if n <= 0}
    hi = {n: c for n, c in work.coeffs.items() if n > 0}
    return (NormFieldElement(work.p, work.m, lo, work.prec_num),
            NormFieldElement(work.p, work.m, hi, work.prec_num))


def reference_solve_as_general(b: NormFieldElement, depth_budget: int = 2,
                               level_budget: int = 4) -> ASSolution:
    """Solve a^p - a = b, allowing perfection raises and one extension layer.

    Leading monomials with negative exponent are peeled from the most
    negative upward: c*pi^n is the image of c*pi^(n/p), which is added to
    the answer, moving the defect to exponent n/p.  Peeling stops when the
    grid would pass level_budget levels above the input; the surviving
    nonpositive part (if any) defines the Artin-Schreier layer.
    """
    if depth_budget < 0:
        raise ValueError(f"depth budget must be nonnegative, got {depth_budget}")
    p = b.p
    if b.is_zero():
        zero = NormFieldElement.zero(p, b.prec, b.m)
        return ASSolution(zero, 0, b.prec, None, None)
    v_in = b.valuation()
    level_cap = b.m + level_budget
    a = NormFieldElement.zero(p, b.prec, b.m)
    work = b
    while True:
        v = work.valuation()
        if v is None or v >= 0:
            break
        target = v / p
        if _grid_level(target, p) > level_cap:
            break
        c = work.terms()[v]
        # c is its own p-th root in F_p, so t^p recovers the leading term
        lvl = max(_grid_level(target, p), work.m)
        scale = p**lvl
        t = NormFieldElement(p, lvl, {int(target * scale): c},
                             int(work.prec * scale))
        a = a + t
        work = work - (t.frobenius() - t)
    obstruction, positive = reference_split_by_sign(work)
    if not positive.is_zero():
        a = a + reference_solve_as_positive(positive).value
    if obstruction.is_zero():
        window = _check_residual_base(a, b)
        return ASSolution(a, 0, window, v_in, a.valuation())
    if depth_budget == 0:
        raise DepthExceededError(
            "solution requires an extension layer but the budget is 0")
    ext = adjoin_as_root(obstruction)
    value = ext.embed(a) + ext.theta(a.prec)
    residual = value.frobenius() - value - ext.embed(b)
    if not residual.is_zero():
        raise InvariantError("extension-layer residual is nonzero")
    return ASSolution(value, 1, residual.prec, v_in, value.valuation())


def reference_solve_components(p, comps, level_budget):
    sol0 = reference_solve_as_general(comps[0], depth_budget=0,
                                      level_budget=level_budget)
    y0 = sol0.value
    if len(comps) == 1:
        return [y0]
    s_cur = len(comps)
    Y0 = teichmuller(y0, s_cur)
    r = witt_sub(WittVector(p, s_cur, comps), _phi_minus_one(Y0))
    if not r.components[0].is_zero():
        raise PrecisionError("component-0 defect did not cancel on the window")
    # r = p*w, and multiplication by p shifts p-th powers up one slot
    w = [c.p_th_root() for c in r.components[1:]]
    u = reference_solve_components(p, w, level_budget)
    # p * (u_0, ..., u_{s-2}) = (0, u_0^p, ..., u_{s-2}^p) over a perfect base
    lifted = [NormFieldElement.zero(p, u[0].prec, u[0].m)] \
        + [ui.frobenius() for ui in u]
    return witt_add(Y0, WittVector(p, s_cur, lifted)).components


def reference_solve_phi_minus_one(z, level_budget=4):
    """The earlier solve_phi_minus_one: reference_solve_components, then the
    rho_constant fold and the residual check."""
    p, s = z.p, z.s
    prec = min(c.prec for c in z.components)
    if z.is_zero():
        y = WittVector.zero(p, s, prec)
        return ASSolution(y, 0, prec, None, None)
    comps = reference_solve_components(p, list(z.components), level_budget)
    y = WittVector(p, s, comps)
    c = rho_constant(y)
    if c:
        y = witt_sub(y, WittVector.from_constant(p, s, c, prec))
    back = _phi_minus_one(y)
    if not back.agrees_with(z):
        raise InvariantError("(phi-1) residual is nonzero on the window")
    window = min(a.prec for a in back.components)
    v_in, _ = v_le_n(z, s - 1)
    v_out, _ = v_le_n(y, s - 1)
    return ASSolution(y, 0, window, v_in, v_out)


def reference_ghost(lifts, p):
    """w_i = sum_j p^j x_j^(p^(i-j)), each x_j^(p^k) as (x_j^(p^(k-1)))^p."""
    ghosts, powers = [], []
    for x in lifts:
        powers = [z ** p for z in powers] + [x]
        acc = powers[0]
        for j in range(1, len(powers)):
            acc = acc + powers[j].scale(p**j)
        ghosts.append(acc)
    return ghosts


def reference_unghost(ghosts, p):
    """Coordinates from ghost components by exact divisions, inverse of _ghost."""
    comps, powers = [], []
    for i, w in enumerate(ghosts):
        powers = [z ** p for z in powers]
        t = w
        for j, z in enumerate(powers):
            t = t - z.scale(p**j)
        comps.append(t.exact_div_p_power(i))
        powers.append(comps[-1])
    return comps


def with_references(monkeypatch, frobenius=False, ghosts=False):
    """Swap the chosen earlier implementations in for the current ones."""
    if frobenius:
        monkeypatch.setattr(ASExtensionElement, "frobenius",
                            reference_frobenius)
    if ghosts:
        monkeypatch.setattr(wittside, "_ghost", reference_ghost)
        monkeypatch.setattr(wittside, "_unghost", reference_unghost)


def outcome(fn, *args, **kwargs):
    """fn's value, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed: see the asserts
        return type(exc).__name__, str(exc)


# -- seeded inputs -------------------------------------------------------------


def random_element(rng, p, prec, m=None, zero_chance=0.25, lo=-12):
    """A norm-field element on a level-m grid, certified to pi^prec, zero
    with the given chance, else with a few exponents in [lo, prec)."""
    m = rng.choice((0, 0, 1)) if m is None else m
    q = p**m
    if rng.random() < zero_chance:
        return NormFieldElement(p, m, {}, prec * q)
    coeffs = {rng.randint(lo * q, prec * q - 1): rng.randint(1, p - 1)
              for _ in range(rng.randint(1, 4))}
    return NormFieldElement(p, m, coeffs, prec * q)


def random_layer(rng, p):
    v = rng.randint(-2 * p, 0)
    u = NormFieldElement(p, 0, {v: rng.randint(1, p - 1),
                                v + rng.randint(1, 6): 1},
                         rng.randint(6, 14))
    return ASExtension(u)


def random_layer_element(rng, ext):
    p = ext.p
    coords = [random_element(rng, p, rng.randint(4, 14)) for _ in range(p)]
    return ASExtensionElement(ext, coords)


# -- the layer Frobenius -----------------------------------------------------


# every layer lies over the norm field: depth is 1
@pytest.mark.parametrize("p, depth, cases", [
    (3, 1, 40), (5, 1, 25), (7, 1, 15),
])
def test_layer_frobenius_matches_product_expansion(p, depth, cases,
                                                   monkeypatch):
    rng = random.Random(100 * p + depth)
    for _ in range(cases):
        x = random_layer_element(rng, random_layer(rng, p))
        new = x.frobenius()
        with monkeypatch.context() as mp:
            with_references(mp, frobenius=True)
            old = x.frobenius()
        pairs = list(zip(new.coords, old.coords))
        assert len(pairs) == p
        for a, b in pairs:
            assert a.agrees_with(b)
            assert a.prec >= b.prec


@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_as_reports_match_product_expansion(p, monkeypatch):
    rng = random.Random(200 + p)
    for _ in range(40):
        terms = {Fraction(rng.randint(-3 * p, 4), rng.choice((1, 1, p))):
                 rng.randint(1, p - 1) for _ in range(rng.randint(1, 4))}
        b = NormFieldElement.from_terms(p, terms, rng.randint(4, 30))
        kwargs = {"depth_budget": rng.randint(0, 2),
                  "level_budget": rng.randint(1, 4)}
        new = outcome(solve_as_general, b, **kwargs)
        with monkeypatch.context() as mp:
            with_references(mp, frobenius=True)
            old = outcome(solve_as_general, b, **kwargs)
        if isinstance(new, tuple):
            assert new == old
        else:
            assert json.dumps(new.to_json()) == json.dumps(old.to_json())


def report(result):
    """The report bytes, value repr and certificate of a solver result, or
    the type and text of what it raised."""
    if isinstance(result, tuple):
        return result
    return (json.dumps(result.to_json(), sort_keys=True), repr(result.value),
            str(result.certified_prec))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_as_matches_object_level_reference(p):
    # positive windows, grid levels 0..2, level budgets 0..4, depth budgets
    # 0..2: the same reports, values, certificates and exception text
    rng = random.Random(250 + p)
    for _ in range(150):
        m = rng.randint(0, 2)
        q = p**m
        prec = rng.randint(1, 30)
        coeffs = {rng.randint(-4 * p * q, prec * q - 1): rng.randint(1, p - 1)
                  for _ in range(rng.randint(1, 5))}
        b = NormFieldElement(p, m, coeffs, prec * q)
        kwargs = {"depth_budget": rng.randint(0, 2),
                  "level_budget": rng.randint(0, 4)}
        assert report(outcome(solve_as_general, b, **kwargs)) == \
            report(outcome(reference_solve_as_general, b, **kwargs))


def test_solve_as_on_a_nonpositive_window_keeps_the_window():
    # pi^-12 + O(pi^-1): the reference certified pi^-4 to pi^-9 only; the
    # peel keeps the window, so pi^(-4/3) joins the answer, certified to
    # pi^-3
    b = NormFieldElement(3, 0, {-12: 1}, -1)
    assert report(solve_as_general(b)) == (
        '{"certificate_window": "-3", "depth": 0, "solution": '
        '"pi^-4 + pi^(-4/3)", "valuation": ["-4"]}',
        "<pi^-4 + pi^(-4/3) + O(pi^-1)>", "-3")
    assert report(reference_solve_as_general(b))[2] == "-9"
    # 2*pi^-8 + O(pi^-4) on the level-0 grid: pi^(-8/3) lies past the
    # window, so the term is dropped and 0 answers; the reference asked for
    # an extension layer
    b = NormFieldElement(3, 0, {-8: 2}, -4)
    budgets = {"depth_budget": 0, "level_budget": 0}
    assert report(solve_as_general(b, **budgets)) == (
        '{"certificate_window": "-12", "depth": 0, "solution": "0", '
        '"valuation": ["None"]}', "<0 + O(pi^-4)>", "-12")
    assert outcome(reference_solve_as_general, b, **budgets) == (
        "DepthExceededError",
        "solution requires an extension layer but the budget is 0")


# -- the ghost maps ------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ghost_maps_match_full_powers(p):
    rng = random.Random(300 + p)
    for _ in range(30):
        s = rng.randint(1, 6)
        m = rng.randint(0, 1)
        lifts = [_ZSeries.lift(random_element(rng, p, rng.randint(2, 10), m,
                                              zero_chance=0.4),
                               _headroom(s)) for _ in range(s)]
        ghosts = _ghost(lifts, p)
        assert ghosts == reference_ghost(lifts, p)
        assert [g.m for g in ghosts] == [m] * s
        assert _unghost(ghosts, p) == reference_unghost(ghosts, p)
        # a perturbed ghost vector fails an exact division, or not, alike
        k = rng.randrange(s)
        bumped = list(ghosts)
        bumped[k] = bumped[k] + _ZSeries(p, m, {0: p ** rng.randint(0, k)},
                                         bumped[k].prec_num, _headroom(s))
        assert outcome(_unghost, bumped, p) == \
            outcome(reference_unghost, bumped, p)


# -- the (phi - 1) solver ----------------------------------------------------


def random_witt(rng, p, s, prec):
    return [random_element(rng, p, prec, zero_chance=0.3, lo=-2 * p)
            for _ in range(s)]


def assert_no_worse(new, old, z):
    """The four checks of the current (phi - 1) solver against the reference
    (see the module docstring)."""
    if isinstance(old, tuple) and old[0] != "PrecisionError":
        assert new == old
        return
    assert not isinstance(new, tuple), new
    if isinstance(old, tuple):
        assert _phi_minus_one(new.value).agrees_with(z)
    else:
        assert new.value.agrees_with(old.value)
        assert new.certified_prec >= old.certified_prec
        for a, b in zip(new.value.components, old.value.components):
            assert a.prec >= b.prec


@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_components_match_two_subtractions(p):
    rng = random.Random(400 + p)
    for _ in range(12):
        s = rng.randint(1, 6 if p == 3 else 4)
        z = WittVector(p, s, random_witt(rng, p, s, rng.randint(6, 16)))
        budget = rng.randint(1, 4)
        assert_no_worse(outcome(solve_phi_minus_one, z, level_budget=budget),
                        outcome(reference_solve_phi_minus_one, z,
                                level_budget=budget), z)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_phi1_reports_match_references(p, monkeypatch):
    rng = random.Random(500 + p)
    for _ in range(8):
        s = rng.randint(1, 6 if p == 3 else 4)
        z = WittVector(p, s, random_witt(rng, p, s, rng.randint(6, 16)))
        budget = rng.randint(1, 4)
        new = outcome(solve_phi_minus_one, z, level_budget=budget)
        with monkeypatch.context() as mp:
            with_references(mp, frobenius=True, ghosts=True)
            old = outcome(reference_solve_phi_minus_one, z,
                          level_budget=budget)
        assert_no_worse(new, old, z)
