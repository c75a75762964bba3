"""Solvers for x^p - x = b and (phi - 1)y = z, with exact residual checks.

One routine, two moduli.  Both equations are sigma(g) - g = h with sigma:
t |-> t^p, solved by _Series.solve_sigma_minus_one: nonpositive terms are
peeled (c*t^n is sigma of c*t^(n/p)), refining the perfection level as
needed, and the positive rest telescopes to -(h + sigma(h) + ...).  Over
F_p, x^p is sigma, so x^p - x = b is the case q = p; what the level budget
leaves unpeeled defines one Artin-Schreier layer theta^p - theta = u.

On Witt vectors, ghost_i(phi y) = sigma(ghost_i(y)) holds exactly for the
coefficientwise lifts of _ghost_components, so (phi - 1)y = z splits into
one equation per ghost component h_i = ghost_i(z), read mod p^(i+1), where
ghost component i is pinned down.  Since h_i = sigma(h_(i-1)) mod p^i and
each solution is unique, g_i = sigma(g_(i-1)) mod p^i, so the g_i are a
ghost vector by Dwork's lemma (Hazewinkel, "Witt vectors. Part 1", Handbook
of Algebra 6, 2009), and one _unghost recovers y.  The residual is then
checked through Witt components.

Solutions of (phi - 1)y = z are unique up to W_s(F_p) = Z/p^s.  The chosen
representative is the one whose top ghost component has zero constant
coefficient; this functional is additive (the ghost map is a ring map and
coefficient extraction is linear), so z |-> solve_phi_minus_one(z).value is
the splitting sigma, a genuine group-theoretic right inverse of phi - 1.
The ghost solve gives every g_i zero constant coefficient, so it lands on
that representative directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthExceededError, InvariantError, PrecisionError
from .normfield import NormFieldElement, adjoin_as_root, format_element
from .wittside import (WittVector, _from_ghosts, _ghost_components,
                       _headroom, v_le_n, witt_sub)

__all__ = [
    "ASSolution",
    "solve_as_general",
    "solve_phi_minus_one",
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


def _check_residual_base(a: NormFieldElement, b: NormFieldElement) -> Fraction:
    r = a.frobenius() - a - b
    if not r.is_zero():
        raise InvariantError("solver produced a nonzero residual")
    return r.prec


def solve_as_general(b: NormFieldElement, depth_budget: int = 2,
                     level_budget: int = 4) -> ASSolution:
    """Solve a^p - a = b, allowing perfection raises and one extension layer.

    sigma - 1 is inverted mod p (_Series.solve_sigma_minus_one) with the
    grid allowed level_budget levels above the input; the nonpositive part
    it leaves (if any) defines the Artin-Schreier layer over the norm
    field.  The answer needs at most that one layer, so depth_budget 0
    refuses it and every positive budget allows it.  For v_E(b) > 0 the sum
    -(b + b^p + ...) answers in the norm field itself.
    """
    if depth_budget < 0:
        raise ValueError(f"depth budget must be nonnegative, got {depth_budget}")
    if b.is_zero():
        zero = NormFieldElement.zero(b.p, b.prec, b.m)
        return ASSolution(zero, 0, b.prec, None, None)
    v_in = b.valuation()
    a, obstruction = b.solve_sigma_minus_one(b.p, b.m + level_budget)
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


# ---------------------------------------------------------------------------
# (phi - 1) on Witt vectors


def _phi_minus_one(z: WittVector) -> WittVector:
    return witt_sub(z.frobenius(), z)


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
    g = []
    for i, h in enumerate(_ghost_components(z, m, _headroom(s))):
        # ghost component i is pinned down mod p^(i+1) only
        gi, rest = h.solve_sigma_minus_one(p ** (i + 1), m + level_budget)
        if not rest.is_zero():
            raise DepthExceededError(
                "solution requires an extension layer but the budget is 0")
        g.append(gi)
    top = max(gi.m for gi in g)
    y = _from_ghosts(p, s, [gi.at_level(top) for gi in g])
    back = _phi_minus_one(y)
    if not back.agrees_with(z):
        raise InvariantError("(phi-1) residual is nonzero on the window")
    window = min(a.prec for a in back.components)
    v_in, _ = v_le_n(z, s - 1)
    v_out, _ = v_le_n(y, s - 1)
    return ASSolution(y, 0, window, v_in, v_out)
