"""Solvers for x^p - x = b and (phi - 1)y = z, with exact residual checks.

Three layers of the same problem.  In the characteristic-p Laurent model a
right-hand side of positive valuation is handled by the telescoping Hensel
sum a = -(b + b^p + b^{p^2} + ...).  Negative exponents are peeled one
leading monomial at a time: c*pi^n is killed by adding its p-th root
c*pi^(n/p) to the answer, raising the perfection level as needed; whatever
survives the level budget is pushed into a single Artin-Schreier layer
theta^p - theta = u.

On Witt vectors, (phi - 1) is solved in ghost coordinates.  With the
coefficientwise lifts of _ghost_components, ghost_i(phi y) = sigma(ghost_i
(y)) holds exactly, sigma: t |-> t^p on the integer cover.  So (phi - 1)y =
z splits into one equation sigma(g_i) - g_i = h_i per ghost component, h =
ghost(z), each read mod p^(i+1), where ghost component i is pinned down; it
is solved like x^p - x = b, by the peel and the telescoping sum.  Since h_i
= sigma(h_(i-1)) mod p^i and each solution is unique, g_i = sigma(g_(i-1))
mod p^i, so the g_i are a ghost vector by Dwork's lemma (Hazewinkel,
"Witt vectors. Part 1", Handbook of Algebra 6, 2009), and one _unghost
recovers y.  The residual is then checked through Witt components.

Solutions of (phi - 1)y = z are unique up to W_s(F_p) = Z/p^s.  The chosen
representative is the one whose top ghost component has zero constant
coefficient; this functional is additive (the ghost map is a ring map and
coefficient extraction is linear), so the resulting splitting sigma is a
genuine group-theoretic right inverse.  The ghost solve gives every g_i
zero constant coefficient, so it lands on that representative directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthExceededError, InvariantError, PrecisionError
from .normfield import (NormFieldElement, _grid_level, adjoin_as_root,
                        format_element, frobenius_e)
from .wittside import (WittVector, _from_ghosts, _ghost_components,
                       _headroom, _ZSeries, v_le_n, witt_sub)

__all__ = [
    "ASSolution",
    "SplitterState",
    "solve_as_positive",
    "solve_as_general",
    "solve_phi_minus_one",
    "sigma_split",
    "rho_constant",
]


@dataclass
class ASSolution:
    """A solver result together with its exactness certificate."""

    value: object
    depth: int
    certified_prec: Fraction
    input_valuation: Fraction | None
    valuation: Fraction | None

    def to_json(self) -> dict:
        if isinstance(self.value, NormFieldElement):
            sol = format_element(self.value)
        elif isinstance(self.value, WittVector):
            sol = [format_element(c) for c in self.value.components]
        else:
            sol = repr(self.value)
        return {
            "solution": sol,
            "depth": self.depth,
            "valuation": [str(self.valuation)],
            "certificate_window": str(self.certified_prec),
        }


@dataclass(frozen=True)
class SplitterState:
    """Configuration of the right splitting sigma of phi - 1."""

    normalization_rule: str = "top-ghost-constant-coefficient"
    depth_budget: int = 0
    level_budget: int = 4


def _check_residual_base(a: NormFieldElement, b: NormFieldElement) -> Fraction:
    r = frobenius_e(a) - a - b
    if not r.is_zero():
        raise InvariantError("solver produced a nonzero residual")
    return r.prec


def solve_as_positive(b: NormFieldElement) -> ASSolution:
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
        a = a - t.truncate(b.prec)
        t = frobenius_e(t)
    window = _check_residual_base(a, b)
    return ASSolution(a, 0, window, v, a.valuation())


def _split_by_sign(work: NormFieldElement):
    """Split into (exponent <= 0 part, exponent > 0 part)."""
    lo = {n: c for n, c in work.coeffs.items() if n <= 0}
    hi = {n: c for n, c in work.coeffs.items() if n > 0}
    return (NormFieldElement(work.p, work.m, lo, work.prec_num),
            NormFieldElement(work.p, work.m, hi, work.prec_num))


def solve_as_general(b: NormFieldElement, depth_budget: int = 2,
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
        work = work - (frobenius_e(t) - t)
    obstruction, positive = _split_by_sign(work)
    if not positive.is_zero():
        a = a + solve_as_positive(positive).value
    if obstruction.is_zero():
        window = _check_residual_base(a, b)
        return ASSolution(a, 0, window, v_in, a.valuation())
    if depth_budget == 0:
        raise DepthExceededError(
            "solution requires an extension layer but the budget is 0")
    ext = adjoin_as_root(obstruction, d_max=depth_budget)
    value = ext.embed(a) + ext.theta(a.prec)
    residual = value.frobenius() - value - ext.embed(b)
    if not residual.is_zero():
        raise InvariantError("extension-layer residual is nonzero")
    return ASSolution(value, ext.depth, residual.prec, v_in, value.valuation())


# ---------------------------------------------------------------------------
# (phi - 1) on Witt vectors


def _phi_minus_one(z: WittVector) -> WittVector:
    return witt_sub(z.frobenius(), z)


def _solve_ghost_component(h: _ZSeries, i: int,
                           level_cap: int) -> _ZSeries:
    """The g with sigma(g) - g = h mod p^(i+1) and no constant term.

    Ghost component i of a Witt vector is pinned down mod p^(i+1) only, so
    h is read there.  Nonpositive terms are peeled from the most negative
    upward: c*t^n is sigma of c*t^(n/p), which joins g and moves the defect
    to exponent n/p, on a finer grid when needed, as solve_as_general does;
    a term whose n/p lies past the window is not certified and is dropped.
    What is left is positive, and g takes -(h + sigma(h) + sigma^2(h) + ...)
    up to the window.  DepthExceededError when a nonpositive remainder
    survives level_cap: the solution then needs an extension layer.
    """
    p, m, prec = h.p, h.m, h.prec_num
    q = p ** (i + 1)
    rem = {n: c % q for n, c in h.coeffs.items() if c % q}
    peeled: dict[int, int] = {}
    while rem and (n := min(rem)) < 0:
        if n >= p * prec:
            del rem[n]
            continue
        if n % p:
            if m == level_cap:
                break
            m, prec = m + 1, prec * p
            rem = {k * p: c for k, c in rem.items()}
            peeled = {k * p: c for k, c in peeled.items()}
            continue
        c, t = rem.pop(n), n // p
        peeled[t] = peeled.get(t, 0) + c
        rem[t] = (rem.get(t, 0) + c) % q
        if not rem[t]:
            del rem[t]
    if rem and min(rem) <= 0:
        raise DepthExceededError(
            "solution requires an extension layer but the budget is 0")
    g = _ZSeries(p, m, peeled, prec, i + 1)
    tail = _ZSeries(p, m, rem, prec, i + 1)
    while tail.coeffs:
        g = g - tail
        tail = tail.sigma().truncate_to_num(prec)
    return _ZSeries(p, m, g.coeffs, prec, h.s)


def rho_constant(z: WittVector) -> int:
    """Constant coefficient of the top ghost component, an element of Z/p^s.

    The ghost map is a ring homomorphism and is independent of the choice of
    coefficient lifts modulo p^s, so this functional is additive; on the
    constants W_s(F_p) it restricts to the canonical bijection with Z/p^s.
    """
    p, s = z.p, z.s
    m = max(c.m for c in z.components)
    gh = _ghost_components(z, m, s)[s - 1]
    if gh.prec_num <= 0:
        raise PrecisionError("window too small to certify the ghost constant")
    return gh.coeffs.get(0, 0) % p**s


def solve_phi_minus_one(z: WittVector, level_budget: int = 4) -> ASSolution:
    """Solve (phi - 1)y = z in W_s, normalized so rho_constant(y) = 0.

    One ghost round trip: each ghost component of z is solved on its own,
    and the solutions are read back as Witt components.  The ghost solves
    must stay inside the perfection tower (depth 0); an instance that needs
    an extension layer raises DepthExceededError rather than returning an
    approximation.
    """
    p, s = z.p, z.s
    prec = min(c.prec for c in z.components)
    if z.is_zero():
        y = WittVector.zero(p, s, prec)
        return ASSolution(y, 0, prec, None, None)
    m = max(c.m for c in z.components)
    g = [_solve_ghost_component(h, i, m + level_budget)
         for i, h in enumerate(_ghost_components(z, m, _headroom(s)))]
    top = max(gi.m for gi in g)
    y = _from_ghosts(p, s, [gi.at_level(top) for gi in g])
    back = _phi_minus_one(y)
    if not back.agrees_with(z):
        raise InvariantError("(phi-1) residual is nonzero on the window")
    window = min(a.prec for a in back.components)
    v_in, _ = v_le_n(z, s - 1)
    v_out, _ = v_le_n(y, s - 1)
    return ASSolution(y, 0, window, v_in, v_out)


def sigma_split(z: WittVector, state: SplitterState | None = None) -> WittVector:
    """The right splitting sigma: the unique preimage with rho_constant 0."""
    state = state or SplitterState()
    sol = solve_phi_minus_one(z, level_budget=state.level_budget)
    return sol.value
