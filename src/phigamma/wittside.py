"""Two finite models of the mixed-characteristic lift ring modulo p^s.

Both rest on the series core normfield._Series, which holds the one copy of
the truncated ring operations.

ArithLiftElement: truncated Laurent series over Z/p^s in a variable pi (the
core at m = 0) with Frobenius pi |-> (1+pi)^p - 1 and Gamma-action
pi |-> (1+pi)^a - 1.  This is the fast model used by the cohomology engine;
reducing mod p recovers the characteristic-p Laurent model.

WittVector: genuine length-s Witt coordinates over norm-field elements.
Sums, differences and products are evaluated exactly by lifting the
coordinates to integer-coefficient truncated Laurent series (_ZSeries, the
core with a p-power headroom modulus), passing to ghost components,
operating there, and recovering coordinates by the successive exact
divisions that Witt integrality guarantees: one ghost round trip per
operation.  This sidesteps the blowup of materializing universal Witt
polynomials at larger s while computing the same values.

Also here: the truncated valuations v_E^{<=N}, the overconvergence gauge
w_r(z) = inf_k (r v_E(z_k) + k), and weak-topology neighborhoods
U_{n,h} = p^n A + pi^h A^+ with a decision procedure through Witt division.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError
from .normfield import (NormFieldElement, _Series, binomial_table_mod_ps,
                        flat_normalization)

__all__ = [
    "ArithLiftElement",
    "WittVector",
    "ValuationReport",
    "WeakNeighborhood",
    "teichmuller",
    "witt_add",
    "witt_mul",
    "witt_neg",
    "witt_sub",
    "witt_inverse",
    "ghost_check",
    "v_le_n",
    "w_r_valuation",
    "weak_membership",
    "pi_witt",
]


# ---------------------------------------------------------------------------
# arithmetic-lift model


class ArithLiftElement(_Series):
    """Truncated Laurent series over Z/p^s in pi (integer exponent grid): the
    series core at m = 0."""

    __slots__ = ()

    def __init__(self, p: int, s: int, coeffs: dict[int, int], prec_num: int):
        _Series.__init__(self, p, 0, s, coeffs, prec_num)

    @property
    def modulus(self) -> int:
        return self.p**self.s

    @classmethod
    def zero(cls, p: int, s: int, prec: int) -> "ArithLiftElement":
        return cls(p, s, {}, prec)

    @classmethod
    def one(cls, p: int, s: int, prec: int) -> "ArithLiftElement":
        return cls(p, s, {0: 1}, prec)

    @classmethod
    def constant(cls, p: int, s: int, c: int, prec: int) -> "ArithLiftElement":
        return cls(p, s, {0: c}, prec)

    @classmethod
    def pi_power(cls, p: int, s: int, n: int, prec: int, coeff: int = 1) -> "ArithLiftElement":
        return cls(p, s, {n: coeff}, prec)

    @classmethod
    def lift(cls, x: NormFieldElement, s: int) -> "ArithLiftElement":
        """Coefficientwise canonical lift of a level-0 norm-field element."""
        if x.m != 0:
            raise ValueError("only level-0 elements lift to the pi-model")
        return cls(x.p, s, x.coeffs, x.prec_num)

    def reduce_power(self, s2: int) -> "ArithLiftElement":
        if s2 > self.s:
            raise ValueError("cannot increase the coefficient modulus")
        return ArithLiftElement(self.p, s2, self.coeffs, self.prec_num)

    def valuation_pi(self) -> int | None:
        """pi-adic valuation of the mod-p reduction (None if it vanishes)."""
        red = [n for n, c in self.coeffs.items() if c % self.p]
        return min(red) if red else None

    def inverse(self) -> "ArithLiftElement":
        """Newton iteration from the inverse of the mod-p reduction.

        Requires the reduction to be nonzero (then the element is a unit of
        the p-complete Laurent model).
        """
        v = self.valuation_pi()
        if v is None:
            raise ZeroDivisionError("element is divisible by p; not a unit")
        red = self.reduce_mod_p()
        y = ArithLiftElement.lift(red.inverse(), self.s)
        two = ArithLiftElement.constant(self.p, self.s, 2, y.prec_num)
        steps = max(1, math.ceil(math.log2(self.s)) + 1) if self.s > 1 else 0
        for _ in range(steps):
            y = y * (two.truncate_to_num(y.prec_num) - self * y)
        return y

    def substitute(self, G: "ArithLiftElement") -> "ArithLiftElement":
        """Evaluate at pi |-> G for G with unit-times-pi-power leading shape."""
        if not self.coeffs:
            return self
        prec = self.prec_num
        exps = sorted(self.coeffs)
        result = ArithLiftElement(self.p, self.s, {}, prec)
        pos = [n for n in exps if n >= 0]
        neg = [n for n in exps if n < 0]
        if pos:
            power = G ** pos[0]
            last = pos[0]
            for n in pos:
                if n != last:
                    power = power * G ** (n - last)
                    last = n
                result = result + power.scale(self.coeffs[n]).truncate_to_num(prec)
        if neg:
            Ginv = G.inverse()
            power = Ginv ** (-neg[-1])
            last = neg[-1]
            for n in reversed(neg):
                if n != last:
                    power = power * Ginv ** (last - n)
                    last = n
                result = result + power.scale(self.coeffs[n]).truncate_to_num(prec)
        return result.truncate_to_num(prec)

    def one_plus_pi_power(self, a: int, width: int) -> "ArithLiftElement":
        """(1+pi)^a - 1 to pi^width."""
        table = binomial_table_mod_ps(a, max(width - 1, 0), self.p, self.s)
        coeffs = {k: int(c) for k, c in enumerate(table, start=1) if c}
        return ArithLiftElement(self.p, self.s, coeffs, width)

    def frobenius(self) -> "ArithLiftElement":
        """pi |-> (1+pi)^p - 1, the canonical Frobenius lift."""
        if not self.coeffs:
            return self
        G = self.one_plus_pi_power(self.p, self._subst_width())
        return self.substitute(G)

    def gamma(self, a: int) -> "ArithLiftElement":
        """pi |-> (1+pi)^a - 1 for a unit exponent a."""
        if a % self.p == 0:
            raise ValueError("gamma exponent must be a p-adic unit")
        if not self.coeffs:
            return self
        G = self.one_plus_pi_power(a, self._subst_width())
        return self.substitute(G)

    def _subst_width(self) -> int:
        lo = min(min(self.coeffs), 0)
        return self.prec_num - 2 * lo + 2 * self.s + 2

    def __repr__(self):
        items = " + ".join(f"{c}*pi^{n}" for n, c in sorted(self.coeffs.items()))
        return f"<{items or 0} + O(pi^{self.prec_num}) mod {self.p}^{self.s}>"


# ---------------------------------------------------------------------------
# integer-coefficient series: the torsion-free cover used for ghost arithmetic


class _ZSeries(_Series):
    """Truncated Laurent series with integer coefficients on a 1/p^m grid: the
    series core with s a headroom exponent.

    Coefficients are kept reduced modulo the large p-power p^s; all retained
    coefficients are exact there, so the exact divisions of the ghost
    recovery are well-defined.
    """

    __slots__ = ()

    def __init__(self, p, m, coeffs, prec_num, headroom):
        _Series.__init__(self, p, m, headroom, coeffs, prec_num)

    @classmethod
    def lift(cls, x: NormFieldElement, headroom: int) -> "_ZSeries":
        return cls(x.p, x.m, x.coeffs, x.prec_num, headroom)

    def _unify(self, other):
        # _unghost subtracts p^j-scaled terms of lower headroom on purpose:
        # the result keeps the left operand's headroom
        return self, other

    def exact_div_p_power(self, k: int) -> "_ZSeries":
        pk = self.p**k
        coeffs = {}
        for n, c in self.coeffs.items():
            # representatives live mod p^headroom; divisibility is tested there
            if c % pk:
                raise PrecisionError(
                    "ghost recovery hit a non-divisible coefficient; "
                    "increase the window or headroom")
            coeffs[n] = c // pk
        return _ZSeries(self.p, self.m, coeffs, self.prec_num, self.s - k)


# ---------------------------------------------------------------------------
# Witt coordinates


class WittVector:
    """Length-s Witt vector with norm-field components (a_0, ..., a_{s-1})."""

    __slots__ = ("p", "s", "components")

    def __init__(self, p: int, s: int, components):
        components = list(components)
        if len(components) != s:
            raise ValueError("component count must equal s")
        self.p = p
        self.s = s
        self.components = components

    @classmethod
    def zero(cls, p: int, s: int, prec: Fraction | int) -> "WittVector":
        return cls(p, s, [NormFieldElement.zero(p, prec) for _ in range(s)])

    @classmethod
    def from_constant(cls, p: int, s: int, c: int, prec: Fraction | int) -> "WittVector":
        """Image of the integer c: its ghost components are (c, ..., c)."""
        g = _ZSeries.lift(NormFieldElement.one(p, prec), _headroom(s))
        return _from_ghosts(p, s, [g.scale(c % p**s)] * s)

    def _check(self, other: "WittVector") -> None:
        if self.p != other.p or self.s != other.s:
            raise ValueError("mixed Witt rings")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def reduce_mod_p(self) -> NormFieldElement:
        return self.components[0]

    def frobenius(self) -> "WittVector":
        return WittVector(self.p, self.s,
                          [c.frobenius() for c in self.components])

    def gamma(self, a: int) -> "WittVector":
        return WittVector(self.p, self.s,
                          [c.gamma(a) for c in self.components])

    def __eq__(self, other) -> bool:
        return (isinstance(other, WittVector)
                and (self.p, self.s) == (other.p, other.s)
                and all(a == b for a, b in zip(self.components, other.components)))

    def agrees_with(self, other: "WittVector") -> bool:
        return all(a.agrees_with(b)
                   for a, b in zip(self.components, other.components))

    def __repr__(self):
        return f"WittVector({self.components!r})"


def teichmuller(a: NormFieldElement, s: int) -> WittVector:
    comps = [a] + [NormFieldElement.zero(a.p, a.prec, a.m) for _ in range(s - 1)]
    return WittVector(a.p, s, comps)


def _common_level(vectors: list[WittVector]) -> int:
    return max(c.m for v in vectors for c in v.components)


def _headroom(s: int) -> int:
    return 2 * s + 2


def _pth_power(z: _ZSeries, p: int) -> _ZSeries:
    """z^p; a zero needs no product: it stays zero, at p times its precision."""
    return z ** p if z.coeffs else z._new({}, z.prec_num * p)


def _ghost(lifts: list[_ZSeries], p: int) -> list[_ZSeries]:
    """w_i = sum_j p^j x_j^(p^(i-j)), each x_j^(p^k) as (x_j^(p^(k-1)))^p.

    A zero power adds nothing but its precision, so it only truncates.
    """
    ghosts, powers = [], []
    for x in lifts:
        powers = [_pth_power(z, p) for z in powers] + [x]
        acc = powers[0]
        for j in range(1, len(powers)):
            z = powers[j]
            acc = (acc + z.scale(p**j) if z.coeffs
                   else acc.truncate_to_num(z.prec_num))
        ghosts.append(acc)
    return ghosts


def _unghost(ghosts: list[_ZSeries], p: int) -> list[_ZSeries]:
    """Coordinates from ghost components by exact divisions, inverse of _ghost.

    As there, a zero power only truncates.
    """
    comps, powers = [], []
    for i, w in enumerate(ghosts):
        powers = [_pth_power(z, p) for z in powers]
        t = w
        for j, z in enumerate(powers):
            t = (t - z.scale(p**j) if z.coeffs
                 else t.truncate_to_num(z.prec_num))
        comps.append(t.exact_div_p_power(i))
        powers.append(comps[-1])
    return comps


def _ghost_components(v: WittVector, m: int, headroom: int) -> list[_ZSeries]:
    """Ghost components of v, its components lifted to the level-m cover."""
    return _ghost([_ZSeries.lift(c.at_level(m), headroom)
                   for c in v.components], v.p)


def _from_ghosts(p: int, s: int, ghosts: list[_ZSeries]) -> WittVector:
    return WittVector(p, s, [c.reduce_mod_p() for c in _unghost(ghosts, p)])


def _witt_ghost_op(op, *vectors: WittVector) -> WittVector:
    """Apply op componentwise on ghost components: one round trip."""
    x = vectors[0]
    for y in vectors[1:]:
        x._check(y)
    p, s = x.p, x.s
    m = _common_level(vectors)
    ghosts = [_ghost_components(v, m, _headroom(s)) for v in vectors]
    return _from_ghosts(p, s, [op(*g) for g in zip(*ghosts)])


def witt_add(x: WittVector, y: WittVector) -> WittVector:
    return _witt_ghost_op(operator.add, x, y)


def witt_mul(x: WittVector, y: WittVector) -> WittVector:
    return _witt_ghost_op(operator.mul, x, y)


def witt_neg(x: WittVector) -> WittVector:
    return _witt_ghost_op(operator.neg, x)


def witt_sub(x: WittVector, y: WittVector) -> WittVector:
    return _witt_ghost_op(operator.sub, x, y)


def witt_inverse(x: WittVector) -> WittVector:
    """Newton inversion; needs an invertible (nonzero) leading component."""
    a0 = x.components[0]
    if a0.is_zero():
        raise ZeroDivisionError("leading Witt component vanishes on the window")
    y = teichmuller(a0.inverse(), x.s)
    steps = max(1, math.ceil(math.log2(max(x.s, 2))) + 1)
    prec = min(comp.prec for comp in y.components)
    two = WittVector.from_constant(x.p, x.s, 2, prec)
    for _ in range(steps):
        y = witt_mul(y, witt_sub(two, witt_mul(x, y)))
    return y


def ghost_check(x: WittVector, y: WittVector, t: int = 2) -> dict:
    """Verify the ghost-component homomorphism law through integral lifts.

    Components are lifted to integer series with headroom p^(s+t); the law
    for the i-th ghost holds mod p^(i+1) regardless of lift choices, and that
    is the precision certified per index.
    """
    p, s = x.p, x.s
    m = _common_level([x, y])
    headroom = s + t
    gx, gy, gs, gm = (_ghost_components(v, m, headroom)
                      for v in (x, y, witt_add(x, y), witt_mul(x, y)))
    verified = []
    ok = True
    for i in range(s):
        mod = p ** min(i + 1, headroom)
        add_diff = gs[i] - (gx[i] + gy[i])
        mul_diff = gm[i] - (gx[i] * gy[i])
        cut = min(add_diff.prec_num, mul_diff.prec_num)
        good = all(c % mod == 0 for n, c in add_diff.coeffs.items() if n < cut) \
            and all(c % mod == 0 for n, c in mul_diff.coeffs.items() if n < cut)
        ok = ok and good
        verified.append(min(i + 1, headroom))
    return {"passed": ok, "verified_p_powers": verified}


def v_le_n(z: WittVector, N: int) -> tuple[Fraction | None, bool]:
    """v_E^{<=N}: infimum of component valuations up to index N."""
    best = None
    limited = False
    for k in range(min(N + 1, z.s)):
        v = z.components[k].valuation()
        if v is None:
            limited = True
        elif best is None or v < best:
            best = v
    return best, limited or best is None


@dataclass
class ValuationReport:
    v_le: dict[int, Fraction | None]
    w_r: dict[Fraction, Fraction | None]
    overconvergence_radius: Fraction | None
    precision_limited: bool = False


@dataclass(frozen=True)
class WeakNeighborhood:
    n: int
    h: int


def w_r_valuation(z: WittVector, radii, N: int | None = None) -> ValuationReport:
    """Report of v_E^{<=N} and w_r(z) = inf_k (r v_E(z_k) + k) over the window."""
    if N is None:
        N = z.s - 1
    v_le = {}
    limited = False
    for k in range(N + 1):
        v, flag = v_le_n(z, k)
        v_le[k] = v
        limited = limited or flag
    w_r: dict[Fraction, Fraction | None] = {}
    best_radius = None
    for r in radii:
        r = Fraction(r)
        vals = []
        any_unknown = False
        for k in range(z.s):
            v = z.components[k].valuation()
            if v is None:
                any_unknown = True
                continue
            # w_r reads component valuations on the p-normalized scale
            vals.append(r * flat_normalization(v, z.p) + k)
        w_r[r] = min(vals) if vals else None
        limited = limited or any_unknown
        if vals and (best_radius is None or r > best_radius):
            best_radius = r
    return ValuationReport(v_le, w_r, best_radius, limited)


def pi_witt(p: int, s: int, prec: Fraction | int) -> WittVector:
    """pi = [eps] - 1 in Witt coordinates, eps = 1 + pi-bar."""
    prec = math.floor(prec)
    eps = NormFieldElement.from_terms(p, {Fraction(0): 1, Fraction(1): 1}, prec)
    one = NormFieldElement.one(p, prec)
    return witt_sub(teichmuller(eps, s), teichmuller(one, s))


def weak_membership(z: WittVector, U: WeakNeighborhood) -> bool:
    """Decide z in p^n A + pi^h A^+ from Witt coordinates.

    Modulo p^n the neighborhood is pi^h W_n(E^+); dividing by pi^h (Witt
    division via Newton inversion) reduces the test to nonnegativity of the
    first n component valuations.
    """
    if U.n == 0:
        return True
    if U.n > z.s:
        raise PrecisionError("neighborhood finer than the stored length")
    prec = min(c.prec for c in z.components)
    if prec <= U.h:
        raise PrecisionError("window does not dominate the pi-power h")
    pw = pi_witt(z.p, z.s, prec + 2 * U.h + 2)
    inv = witt_inverse(pw)
    w = z
    for _ in range(U.h):
        w = witt_mul(w, inv)
    for k in range(U.n):
        v = w.components[k].valuation()
        if v is not None and v < 0:
            return False
    return True
