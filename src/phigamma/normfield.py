"""Truncated Laurent-series model of the characteristic-p norm field.

One series core, _Series, holds the ring operations of every truncated
Laurent model in the package: finite combinations of powers of a uniformizer
``pi`` with exponents on the grid (1/p^m)Z ("perfection level" m) and
coefficients mod p^s, together with a precision bound: an element is known
exactly below its precision exponent and unknown above it.  The norm field
is its case s = 1 (NormFieldElement); wittside adds the pi-lift mod p^s
(m = 0) and the integer ghost cover.  The valuation v_E reads off the least
exponent carrying a nonzero coefficient.

The two semilinear actions are the Frobenius (the p-power map, which scales
exponents and precision by p) and the Gamma-action a |-> substitution
pi |-> (1+pi)^a - 1, which preserves valuations.  At level m the action is
applied to the level-m generator t = pi^(1/p^m) as t |-> (1+t)^a - 1; the
uniqueness of p-th roots in characteristic p makes this consistent across
levels.

Element gamma evaluates a series at G = (1+t)^a - 1 from tables kept per
generator (_generator_tables); complexes.ring_window builds the same action
as window matrices from power_rows.  The two paths share only
binomial_table_mod_ps, so each can check the other.  Every (1+t)^a of the
package comes from that table, which reads the exponent a as any integer
congruent to it mod p^(s + 63): that residue fixes every binomial a window
can index, so neither path refuses a window for want of exponent digits.

Relative elements adjoin a second variable x (with its own fractional
exponent grid); the geometric generator acts by x |-> (1+pi)x and the
arithmetic generator fixes x.

An Artin-Schreier layer theta^p - theta = u (with v_E(u) <= 0) is modeled
by coordinate vectors of length p over the norm field.  The solvers adjoin
at most one layer, so layers are never stacked.
"""

from __future__ import annotations

from fractions import Fraction
import math
import re

import numpy as np

from .errors import PrecisionError

__all__ = [
    "NormFieldElement",
    "RelativeNormElement",
    "ASExtension",
    "ASExtensionElement",
    "flat_normalization",
    "adjoin_as_root",
    "parse_element",
    "format_element",
    "binomial_table_mod_ps",
    "power_rows",
]

INFINITY = Fraction(10**12)  # sentinel ordering value for the zero element


# a Gamma exponent is read mod p^(s + _EXPONENT_MARGIN) (binomial_table_mod_ps)
_EXPONENT_MARGIN = 63


def binomial_table_mod_ps(a: int, L: int, p: int, s: int) -> np.ndarray:
    """[C(a, k) mod p^s for k = 1..L].

    A Gamma exponent a is read as any integer congruent to it mod p^M, M =
    s + _EXPONENT_MARGIN = s + 63, and reduced to its least residue here.
    That residue pins every C(a, k) mod p^s that an int64 window can index:
    in C(a + p^M t, k) = sum_j C(p^M t, j) C(a, k - j) each j >= 1 term is
    divisible by p^(M - floor(log_p j)) (Kummer), which is p^s or more for
    every k < 2^63 <= p^63.  One pass of C(a, k) = C(a, k-1) (a-k+1)/k,
    keeping the unit part mod p^s and the p-valuation apart, so a residue
    of hundreds of digits costs O(L) small operations.
    """
    q = p**s
    a %= p ** (s + _EXPONENT_MARGIN)
    out = np.zeros(max(L, 0), dtype=np.int64)
    unit, val = 1, 0
    for k in range(1, L + 1):
        num = a - k + 1
        if num == 0:
            break   # 0 <= a < k: C(a, k) and every later entry vanish
        while num % p == 0:
            num //= p
            val += 1
        den = k
        while den % p == 0:
            den //= p
            val -= 1
        unit = unit * (num % q) * pow(den, -1, q) % q
        if val < s:
            out[k - 1] = unit * p**val % q
    return out


class _Series:
    """Truncated Laurent series mod p^s on the exponent grid (1/p^m)Z.

    The one set of ring operations under the three series models: the norm
    field (s = 1), the pi-lift (m = 0) and the integer ghost cover (s =
    headroom).  Exponents are integer numerators over p^m; ``prec_num`` is
    the exclusive upper bound of the certified window on the same grid.
    Coefficients are kept reduced mod p^s and nonzero.

    sigma: t |-> t^p scales exponents and precision by p and keeps the
    coefficients.  Over F_p it is the Frobenius x |-> x^p; on the ghost
    cover it is the ghost side of the Witt Frobenius.  solve_sigma_minus_one
    inverts sigma - 1 mod q, for both Artin-Schreier solvers.
    """

    __slots__ = ("p", "m", "s", "coeffs", "prec_num")

    def __init__(self, p: int, m: int, s: int, coeffs: dict[int, int],
                 prec_num: int):
        self.p = p
        self.m = m
        self.s = s
        self.prec_num = prec_num
        q = p**s
        self.coeffs = {n: c % q for n, c in coeffs.items()
                       if c % q and n < prec_num}

    def _new(self, coeffs: dict[int, int], prec_num: int, m: int | None = None):
        """Element of the same model and ring, optionally on another grid."""
        x = object.__new__(type(self))
        _Series.__init__(x, self.p, self.m if m is None else m, self.s,
                         coeffs, prec_num)
        return x

    def at_level(self, m2: int):
        """Value-preserving re-indexing onto the finer grid of level m2 >= m."""
        if m2 < self.m:
            raise ValueError("cannot coarsen the exponent grid")
        f = self.p ** (m2 - self.m)
        return self._new({n * f: c for n, c in self.coeffs.items()},
                         self.prec_num * f, m2)

    def _unify(self, other: "_Series"):
        """Both operands on one grid; ValueError across coefficient rings."""
        if self.p != other.p or self.s != other.s:
            raise ValueError("mixed coefficient rings")
        if self.m == other.m:
            return self, other
        m = max(self.m, other.m)
        return self.at_level(m), other.at_level(m)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        a, b = self._unify(other)
        coeffs = dict(a.coeffs)
        for n, c in b.coeffs.items():
            coeffs[n] = coeffs.get(n, 0) + c
        return a._new(coeffs, min(a.prec_num, b.prec_num))

    def __neg__(self):
        return self._new({n: -c for n, c in self.coeffs.items()}, self.prec_num)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._unify(other)
        # precision: lo1 + hi2 and lo2 + hi1, with lo = hi for a zero element
        lo_a = min(a.coeffs) if a.coeffs else a.prec_num
        lo_b = min(b.coeffs) if b.coeffs else b.prec_num
        prec = min(lo_a + b.prec_num, lo_b + a.prec_num)
        coeffs: dict[int, int] = {}
        for n1, c1 in a.coeffs.items():
            for n2, c2 in b.coeffs.items():
                n = n1 + n2
                if n < prec:
                    coeffs[n] = coeffs.get(n, 0) + c1 * c2
        return a._new(coeffs, prec)

    def scale(self, c: int):
        return self._new({n: c * v for n, v in self.coeffs.items()},
                         self.prec_num)

    def truncate_to_num(self, prec_num: int):
        return self._new(self.coeffs, min(prec_num, self.prec_num))

    def __pow__(self, k: int):
        """Square-and-multiply from the exact one, so that for a unit
        leading coefficient x**k certifies as far as the k-1 products
        x*x*...*x."""
        if k < 0:
            return self.inverse() ** (-k)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            return self._new({0: 1}, int(INFINITY) * self.p**self.m)
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if (self.p, self.s) != (other.p, other.s):
            return False
        a, b = self._unify(other)
        return a.coeffs == b.coeffs and a.prec_num == b.prec_num

    def agrees_with(self, other) -> bool:
        """Equality on the overlap of the two certified windows."""
        a, b = self._unify(other)
        cut = min(a.prec_num, b.prec_num)
        return ({n: c for n, c in a.coeffs.items() if n < cut}
                == {n: c for n, c in b.coeffs.items() if n < cut})

    def reduce_mod_p(self) -> "NormFieldElement":
        return NormFieldElement(self.p, self.m, self.coeffs, self.prec_num)

    def sigma(self):
        """t |-> t^p: exponents and precision scale by p, coefficients stay."""
        p = self.p
        return self._new({n * p: c for n, c in self.coeffs.items()},
                         self.prec_num * p)

    def solve_sigma_minus_one(self, q: int, level_cap: int):
        """(g, r): g with sigma(g) - g = self - r mod q and no constant term,
        and r the nonpositive part that g cannot absorb.

        Nonpositive terms are peeled from the most negative upward: c*t^n is
        sigma of c*t^(n/p), which joins g and moves the defect to exponent
        n/p, on a grid refined one level at a time up to level_cap; a term
        whose n/p lies past the window is not certified and is dropped.  The
        constant term and whatever the level cap stops stay in r.  The
        positive rest h gives g its part -(h + sigma(h) + sigma^2(h) + ...)
        up to the window.  g and r share the window and the final grid.
        """
        p, m, prec = self.p, self.m, self.prec_num
        rem = {n: c % q for n, c in self.coeffs.items() if c % q}
        g: dict[int, int] = {}
        while rem and (n := min(rem)) < 0:
            if n >= p * prec:
                del rem[n]
                continue
            if n % p:
                if m >= level_cap:
                    break
                m, prec = m + 1, prec * p
                rem = {k * p: c for k, c in rem.items()}
                g = {k * p: c for k, c in g.items()}
                continue
            c, t = rem.pop(n), n // p
            g[t] = g.get(t, 0) + c
            rem[t] = (rem.get(t, 0) + c) % q
            if not rem[t]:
                del rem[t]
        tail = {n: c for n, c in rem.items() if n > 0}
        while tail:
            for n, c in tail.items():
                g[n] = g.get(n, 0) - c
            tail = {n * p: c for n, c in tail.items() if n * p < prec}
        return (self._new({n: c % q for n, c in g.items()}, prec, m),
                self._new({n: c for n, c in rem.items() if n <= 0}, prec, m))


class NormFieldElement(_Series):
    """Truncated Laurent series over F_p on the exponent grid (1/p^m)Z: the
    series core at s = 1."""

    __slots__ = ()

    def __init__(self, p: int, m: int, coeffs: dict[int, int], prec_num: int):
        _Series.__init__(self, p, m, 1, coeffs, prec_num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: Fraction | int, m: int = 0) -> "NormFieldElement":
        return cls(p, m, {}, _to_grid(prec, p, m))

    @classmethod
    def one(cls, p: int, prec: Fraction | int, m: int = 0) -> "NormFieldElement":
        return cls(p, m, {0: 1}, _to_grid(prec, p, m))

    @classmethod
    def constant(cls, p: int, c: int, prec: Fraction | int, m: int = 0) -> "NormFieldElement":
        return cls(p, m, {0: c}, _to_grid(prec, p, m))

    @classmethod
    def pi_power(cls, p: int, exponent: Fraction | int, prec: Fraction | int,
                 coeff: int = 1) -> "NormFieldElement":
        e = Fraction(exponent)
        m = _grid_level(e, p)
        return cls(p, m, {int(e * p**m): coeff}, _to_grid(prec, p, m))

    @classmethod
    def from_terms(cls, p: int, terms: dict[Fraction, int],
                   prec: Fraction | int) -> "NormFieldElement":
        m = max((_grid_level(e, p) for e in terms), default=0)
        return cls(p, m, {int(Fraction(e) * p**m): c for e, c in terms.items()},
                   _to_grid(prec, p, m))

    # -- structure ----------------------------------------------------------

    @property
    def prec(self) -> Fraction:
        return Fraction(self.prec_num, self.p**self.m)

    def terms(self) -> dict[Fraction, int]:
        q = self.p**self.m
        return {Fraction(n, q): c for n, c in sorted(self.coeffs.items())}

    def valuation(self) -> Fraction | None:
        """Least exponent with nonzero coefficient; None for the zero element."""
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.p**self.m)

    def try_lower_level(self) -> "NormFieldElement":
        """Drop to the coarsest grid that still carries every exponent."""
        x = self
        while x.m > 0 and all(n % x.p == 0 for n in x.coeffs) and x.prec_num % x.p == 0:
            x = NormFieldElement(x.p, x.m - 1,
                                 {n // x.p: c for n, c in x.coeffs.items()},
                                 x.prec_num // x.p)
        return x

    def truncate(self, prec: Fraction | int) -> "NormFieldElement":
        n = _to_grid(prec, self.p, self.m)
        if n > self.prec_num:
            raise PrecisionError("cannot extend a certified window")
        return NormFieldElement(self.p, self.m, self.coeffs, n)

    def inverse(self) -> "NormFieldElement":
        """Multiplicative inverse; requires a nonzero element.

        Writing x = c*t^v*(1 + h) with v(h) > 0, inverts the unit part by
        back-substitution on a dense int64 vector: one dot product mod p
        per certified term.  Result precision: prec - 2*v relative shift.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverting the zero element")
        p, v = self.p, min(self.coeffs)
        width = self.prec_num - v  # number of certified grid steps in the unit
        if (p - 1) ** 2 * width >= 2**63:
            raise ValueError("window too wide for int64 products mod p")
        cinv = pow(self.coeffs[v], -1, p)
        # unit part u[k] = coeff at v + k, normalized so u[0] = 1, reversed
        # so that term k reads a contiguous slice against inv[:k]
        rev = _dense(self, v, self.prec_num)[::-1] * cinv % p
        inv = np.zeros(width, dtype=np.int64)
        inv[0] = 1
        for k in range(1, width):
            inv[k] = -int(np.dot(rev[width - 1 - k:width - 1], inv[:k])) % p
        inv = inv * cinv % p
        return NormFieldElement(p, self.m, {int(k) - v: int(inv[k])
                                            for k in np.flatnonzero(inv)},
                                width - v)

    def __hash__(self):
        a = self.try_lower_level()
        return hash((a.p, a.m, tuple(sorted(a.coeffs.items())), a.prec_num))

    # -- semilinear actions -------------------------------------------------

    # x |-> x^p is sigma over F_p
    frobenius = _Series.sigma

    def p_th_root(self) -> "NormFieldElement":
        """Unique p-th root, formed on the refined grid of level m+1."""
        return NormFieldElement(self.p, self.m + 1, dict(self.coeffs),
                                self.prec_num)

    def gamma(self, a: int) -> "NormFieldElement":
        """Substitution t |-> G = (1+t)^a - 1 on the level-m generator t.

        ``a`` is a p-adic unit, read mod p^64 (binomial_table_mod_ps).  The
        output window equals the input window.  With u = G/t, base = min(lo,
        0) and W = prec - base, x(G) = t^base u^base P(G) for P(y) = sum c_n
        y^(n - base) of degree N < W, evaluated mod t^W by baby and giant
        steps (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973): one int64
        product of the coefficient table with G^0..G^(k-1), and Horner's
        rule in G^k;
        u^base multiplies in the squarings u^-(2^i) that the bits of -base
        select.  These tables depend on the generator only, and come from
        _generator_tables on their first W terms.  Calls neither
        complexes.ring_window nor power_rows, which it rechecks.
        """
        if a % self.p == 0:
            raise ValueError("gamma exponent must be a p-adic unit")
        if not self.coeffs:
            return self
        p, prec, base = self.p, self.prec_num, min(min(self.coeffs), 0)
        W, N = prec - base, max(self.coeffs) - base
        if (p - 1) ** 2 * (prec - 2 * base + 2) >= 2**63:
            raise ValueError("window too wide for int64 products mod p")
        baby, giant, squares = _generator_tables(p, a, W, -base)
        # a low degree reads the first N + 1 baby steps and no giant step
        k = min(len(baby), N + 1)
        J = -(-(N + 1) // k)
        table = np.zeros(J * k, dtype=np.int64)
        table[[n - base for n in self.coeffs]] = list(self.coeffs.values())
        rows = table.reshape(J, k) @ baby[:k, :W] % p
        acc = rows[J - 1]
        for r in range(J - 2, -1, -1):
            acc = (np.convolve(acc, giant[:W])[:W] + rows[r]) % p
        for i in range((-base).bit_length()):
            if -base >> i & 1:
                acc = np.convolve(acc, squares[i][:W])[:W] % p
        return NormFieldElement(p, self.m, {int(n) + base: int(acc[n])
                                            for n in np.flatnonzero(acc)}, prec)

    def __repr__(self):
        return f"<{format_element(self)} + O(pi^{self.prec})>"


def _grid_level(e: Fraction | int, p: int) -> int:
    """Least level m with e on the grid (1/p^m)Z.

    ValueError when the denominator of e is not a power of p: no level holds
    such an exponent.
    """
    den, m = Fraction(e).denominator, 0
    while den % p == 0:
        den //= p
        m += 1
    if den != 1:
        raise ValueError(f"exponent {e} lies on no (1/{p}^m)Z grid")
    return m


def _to_grid(prec: Fraction | int, p: int, m: int) -> int:
    f = Fraction(prec) * p**m
    if f.denominator != 1:
        raise ValueError(f"precision {prec} not on the level-{m} grid")
    return int(f)


def _dense(x: NormFieldElement, lo: int, hi: int) -> np.ndarray:
    """Coefficients of x on the exponents [lo, hi) as an int64 vector."""
    out = np.zeros(max(hi - lo, 0), dtype=np.int64)
    for n, c in x.coeffs.items():
        if lo <= n < hi:
            out[n - lo] = c
    return out


# entries kept by each least-recently-used table of the package: the
# generator units here, complexes' ring windows and tatesen's TS3 systems
_LRU_SIZE = 8


def _lru_store(table: dict, key, value):
    """Store value under key as the most recently used entry of table,
    dropping the least recently used past _LRU_SIZE; returns value."""
    table.pop(key, None)
    table[key] = value
    if len(table) > _LRU_SIZE:
        del table[next(iter(table))]
    return value


# multiply-adds of a dense truncated convolution that cost as much as one
# term of a sparse product, a shifted vector product (about 2 us against
# 0.5 ns per multiply-add, numpy 2.4 on a 2-vCPU VM); power_rows and
# _generator_tables each step by the nonzero terms of a series when these
# cost less than the convolution
_SPARSE_TERM = 2048

# element gamma's tables by (p, a mod p^64): (baby, giant, squares), see
# _generator_tables
_GENERATORS: dict = {}


def _generator_tables(p: int, a: int, width: int, exponent: int) -> tuple:
    """(baby, giant, squares) for G = (1+t)^a - 1 mod p, read-only, on their
    first width terms or more: baby[i] = G^i for i < k, giant = G^k and
    squares[i] = u^-(2^i), u = G/t, for 2^i <= exponent or more.

    k is 2 isqrt(n) + 1 for the table width n, so a call reads a prefix of
    the tables, which hold O(n^1.5) entries and n per squaring.  Each baby
    step is a product by G, taken term by term when G is Lucas-sparse.  One
    entry is kept per key, the least recently used dropped past _LRU_SIZE;
    a narrow one is rebuilt at twice its width or more, up to the terms
    that inverse() can sum in int64.  The squares grow by one squaring at
    the kept width when a call needs another bit.
    """
    key = (p, a % p ** (1 + _EXPONENT_MARGIN))
    kept = _GENERATORS.get(key)
    if kept is None or kept[0].shape[1] < width:
        old = kept[0].shape[1] if kept else 0
        n = min(max(width, 2 * old), (2**63 - 1) // (p - 1) ** 2)
        u = binomial_table_mod_ps(a, n, p, 1)
        G = np.concatenate(([0], u[:n - 1]))
        terms = np.flatnonzero(G)

        def times_G(x):
            # element gamma's own product: it shares no step with power_rows,
            # which it rechecks
            if len(terms) * _SPARSE_TERM > n * n:
                return np.convolve(x, G)[:n] % p
            out = np.zeros(n, dtype=np.int64)
            for j in terms:
                out[j:] += G[j] * x[:n - j]
            return out % p

        baby = np.zeros((2 * math.isqrt(n) + 1, n), dtype=np.int64)
        baby[0, 0] = 1
        for i in range(1, len(baby)):
            baby[i] = times_G(baby[i - 1])
        giant = times_G(baby[-1])
        inverse = _dense(NormFieldElement(p, 0, {j + 1: int(c)
                                                 for j, c in enumerate(u)},
                                          n + 1).inverse(), -1, n - 1)
        for table in (baby, giant, inverse):
            table.setflags(write=False)
        kept = (baby, giant, [inverse])
    squares = kept[2]
    while len(squares) < exponent.bit_length():
        square = np.convolve(squares[-1], squares[-1])[:len(squares[0])] % p
        square.setflags(write=False)
        squares.append(square)
    return _lru_store(_GENERATORS, key, kept)


def power_rows(U: np.ndarray, modulus: int, lo: int, hi: int,
               end: int | None = None) -> np.ndarray:
    """Row n - lo holds U^n mod modulus for n in [lo, hi), cut to len(U)
    and, given end, to its first end - n terms; the rest of a row is 0.

    U is a power series, constant term first.  Rows come from one truncated
    product each, by U or, for n < 0, by the back-substituted U^-1 (which
    needs U[0] to be a unit mod modulus), each trimmed of its trailing
    zeros.  When U is the shorter of the two (gamma_(1+p), phi's H), the
    rows walk upward from U^lo, a square-and-multiply power of U^-1;
    otherwise (gamma_-1) they walk upward from U^0 and downward from U^-1.
    Upward rows shorten with n, so each product stops at the next row's
    cut; a row walked downward needs its whole predecessor.

    An upward step is a convolution by U, or, when U is sparse, a sum over
    its nonzero terms c*t^j of c times the row shifted by j.  Over F_p,
    (1+t)^a - 1 has a t^k term only where every base-p digit of k is at
    most that of a (Lucas), so at s = 1 a wide gamma table takes the sparse
    step; mod p^s, s > 1, U is dense.  A term costs about as much as
    _SPARSE_TERM multiply-adds of a convolution, which costs len(U)^2 of
    them: the sparse step is taken when its terms cost less.  int64 sums
    are exact while (modulus - 1)^2 * len(U) < 2^63.
    """
    L = len(U)
    assert (modulus - 1) ** 2 * L < 2**63, "power_rows would overflow int64"

    def cut(n: int) -> int:
        return L if end is None else max(min(L, end - n), 0)

    rows = np.zeros((max(hi - lo, 0), L), dtype=np.int64)
    if hi <= lo or not cut(lo):
        return rows
    up = np.trim_zeros(U, "b")
    start, V = 0, np.zeros(L, dtype=np.int64)
    V[0] = 1
    if lo < 0:
        Uinv = np.zeros(L, dtype=np.int64)
        c = pow(int(U[0]), -1, modulus)
        Uinv[0] = c
        for k in range(1, L):
            Uinv[k] = -c * int(np.dot(up[1:k + 1],
                                      Uinv[k - 1::-1][:len(up) - 1])) % modulus
        down = np.trim_zeros(Uinv, "b")
        if len(up) <= len(down):
            start, V = lo, _series_power(Uinv, -lo, cut(lo), modulus)
        else:
            W = Uinv
            for n in range(-1, lo - 1, -1):
                if n < hi:
                    w = cut(n)
                    rows[n - lo, :w] = W[:w]
                if n > lo:
                    W = np.convolve(W, down)[:L] % modulus
    terms = [(int(j), int(up[j])) for j in np.flatnonzero(up)]
    sparse = len(terms) * _SPARSE_TERM <= len(up) ** 2
    for n in range(start, hi):
        if n >= lo:
            w = cut(n)
            rows[n - lo, :w] = V[:w]
        w = cut(n + 1)
        if n + 1 >= hi or not w or not up.size:
            # an all-zero U leaves every row past U^0 zero
            break
        if sparse:
            step = np.zeros(w, dtype=np.int64)
            for j, c in terms:
                if j >= w:
                    break
                step[j:] += c * V[:w - j]
            V = step % modulus
        else:
            V = np.convolve(V[:w], up[:w])[:w] % modulus
    return rows


def _series_power(X: np.ndarray, k: int, w: int, modulus: int) -> np.ndarray:
    """X^k mod (t^w, modulus) for k >= 1 and w >= 1, by square-and-multiply
    on truncated convolutions."""
    X, out = X[:w], None
    while True:
        if k & 1:
            out = X if out is None else np.convolve(out, X)[:w] % modulus
        k >>= 1
        if not k:
            return out
        X = np.convolve(X, X)[:w] % modulus


def flat_normalization(v: Fraction, p: int) -> Fraction:
    """Rescale a pi-normalized valuation to the p-normalized scale."""
    return Fraction(v) * Fraction(p, p - 1)


# -- Artin-Schreier layers --------------------------------------------------


class ASExtension:
    """Extension layer theta^p - theta = u over the norm field."""

    __slots__ = ("p", "u")

    def __init__(self, u: NormFieldElement):
        self.p = u.p
        self.u = u

    def theta_valuation(self) -> Fraction:
        v = self.u.valuation()
        return v / self.p

    def zero_coords(self, prec: Fraction) -> list:
        return [NormFieldElement.zero(self.p, prec, self.u.m)
                for _ in range(self.p)]

    def embed(self, x: NormFieldElement) -> "ASExtensionElement":
        """Constant-in-theta embedding of a norm-field element."""
        coords = self.zero_coords(x.prec)
        coords[0] = x
        return ASExtensionElement(self, coords)

    def theta(self, prec: Fraction) -> "ASExtensionElement":
        coords = self.zero_coords(prec)
        coords[1] = NormFieldElement.one(self.p, prec, self.u.m)
        return ASExtensionElement(self, coords)


class ASExtensionElement:
    """Element sum(c_j * theta^j) of an Artin-Schreier layer."""

    __slots__ = ("ext", "coords")

    def __init__(self, ext: ASExtension, coords: list):
        if len(coords) != ext.p:
            raise ValueError("coordinate vector must have length p")
        self.ext = ext
        self.coords = list(coords)

    @property
    def p(self) -> int:
        return self.ext.p

    @property
    def prec(self):
        return self.coords[0].prec

    def __add__(self, other: "ASExtensionElement") -> "ASExtensionElement":
        if other.ext is not self.ext:
            raise ValueError("elements of different extension layers")
        return ASExtensionElement(self.ext,
                                  [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "ASExtensionElement":
        return ASExtensionElement(self.ext, [-a for a in self.coords])

    def __sub__(self, other: "ASExtensionElement") -> "ASExtensionElement":
        return self + (-other)

    def __mul__(self, other: "ASExtensionElement") -> "ASExtensionElement":
        if other.ext is not self.ext:
            raise ValueError("elements of different extension layers")
        p = self.p
        ext = self.ext
        # raw product has theta-degree up to 2p-2; fold with theta^p = theta + u
        raw = [None] * (2 * p - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                t = a * b
                raw[i + j] = t if raw[i + j] is None else raw[i + j] + t
        for k in range(2 * p - 2, p - 1, -1):
            c = raw[k]
            raw[k - p + 1] = raw[k - p + 1] + c
            raw[k - p] = raw[k - p] + c * ext.u
            raw[k] = None
        return ASExtensionElement(ext, raw[:p])

    def frobenius(self) -> "ASExtensionElement":
        """theta^p = theta + u makes Frobenius triangular on coordinates.

        (sum c_j theta^j)^p = sum c_j^p (theta+u)^j, and since every j < p
        the binomial expansion needs no refolding: coordinate k is
        sum_{j >= k} C(j, k) u^(j-k) c_j^p.
        """
        p = self.p
        frob = [c.frobenius() for c in self.coords]
        # C(j, k) = C(j, j - k), row j of the tables at j - k
        binomials = [binomial_table_mod_ps(j, j, p, 1) for j in range(p)]
        u_pows = [None, self.ext.u]
        for _ in range(2, p):
            u_pows.append(u_pows[-1] * self.ext.u)
        coords = []
        for k in range(p):
            acc = frob[k]
            for j in range(k + 1, p):
                acc = acc + frob[j] * u_pows[j - k].scale(
                    int(binomials[j][j - k - 1]))
            coords.append(acc)
        return ASExtensionElement(self.ext, coords)

    def valuation(self) -> Fraction | None:
        vt = self.ext.theta_valuation()
        best = None
        for j, c in enumerate(self.coords):
            v = c.valuation()
            if v is not None:
                cand = v + j * vt
                if best is None or cand < best:
                    best = cand
        return best

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ASExtensionElement)
                and self.ext is other.ext
                and all(a == b for a, b in zip(self.coords, other.coords)))

    def __repr__(self):
        # one layer over the norm field: the depth printed is always 1
        return f"ASExtensionElement(depth=1, {self.coords!r})"


def adjoin_as_root(u: NormFieldElement) -> ASExtension:
    """Extension context with theta^p - theta = u; rejects v_E(u) > 0.

    Positive valuation never needs a layer (Hensel solves in place), so it is
    refused; valuation zero is allowed because a constant obstruction has no
    root over F_p.
    """
    v = u.valuation()
    if v is None or v > 0:
        raise ValueError("no extension needed: defining element must have "
                         "valuation <= 0")
    return ASExtension(u)


# -- relative elements ------------------------------------------------------


class RelativeNormElement:
    """Finite sum of x-monomials with norm-field coefficients.

    The x-exponents live on their own (1/p^mx)Z grid; all coefficients share
    the characteristic-p coefficient model above.  The geometric generator
    acts by x^j |-> (1+pi)^j x^j and the arithmetic generator acts on
    coefficients only.
    """

    __slots__ = ("p", "mx", "parts")

    def __init__(self, p: int, mx: int, parts: dict[int, NormFieldElement]):
        self.p = p
        self.mx = mx
        self.parts = {j: c for j, c in parts.items() if not c.is_zero()}

    @classmethod
    def from_terms(cls, p: int, terms: dict[Fraction, NormFieldElement]) -> "RelativeNormElement":
        mx = max((_grid_level(e, p) for e in terms), default=0)
        return cls(p, mx, {int(Fraction(e) * p**mx): c for e, c in terms.items()})

    def x_terms(self) -> dict[Fraction, NormFieldElement]:
        q = self.p**self.mx
        return {Fraction(j, q): c for j, c in sorted(self.parts.items())}

    def at_x_level(self, mx2: int) -> "RelativeNormElement":
        if mx2 < self.mx:
            raise ValueError("cannot coarsen the x-grid")
        f = self.p ** (mx2 - self.mx)
        return RelativeNormElement(self.p, mx2,
                                   {j * f: c for j, c in self.parts.items()})

    def _unify(self, other: "RelativeNormElement"):
        mx = max(self.mx, other.mx)
        return self.at_x_level(mx), other.at_x_level(mx)

    def __add__(self, other: "RelativeNormElement") -> "RelativeNormElement":
        a, b = self._unify(other)
        parts = dict(a.parts)
        for j, c in b.parts.items():
            parts[j] = parts[j] + c if j in parts else c
        return RelativeNormElement(a.p, a.mx, parts)

    def __neg__(self) -> "RelativeNormElement":
        return RelativeNormElement(self.p, self.mx,
                                   {j: -c for j, c in self.parts.items()})

    def __sub__(self, other: "RelativeNormElement") -> "RelativeNormElement":
        return self + (-other)

    def __mul__(self, other: "RelativeNormElement") -> "RelativeNormElement":
        a, b = self._unify(other)
        parts: dict[int, NormFieldElement] = {}
        for j1, c1 in a.parts.items():
            for j2, c2 in b.parts.items():
                j = j1 + j2
                t = c1 * c2
                parts[j] = parts[j] + t if j in parts else t
        return RelativeNormElement(a.p, a.mx, parts)

    def gamma_tilde(self, power: int = 1) -> "RelativeNormElement":
        """Geometric action: x^j |-> (1+pi)^(k*j) x^j for gamma-tilde^k."""
        parts = {}
        for j, c in self.parts.items():
            e = power * j  # exponent of (1+pi^(1/p^mx))
            mult = _one_plus_gen_power(self.p, self.mx, e, c)
            parts[j] = mult
        return RelativeNormElement(self.p, self.mx, parts)

    def gamma(self, a: int) -> "RelativeNormElement":
        """Arithmetic action: coefficientwise gamma; x is fixed."""
        return RelativeNormElement(self.p, self.mx,
                                   {j: c.gamma(a)
                                    for j, c in self.parts.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelativeNormElement):
            return NotImplemented
        a, b = self._unify(other)
        return a.parts.keys() == b.parts.keys() and all(
            a.parts[j] == b.parts[j] for j in a.parts)

    def __repr__(self):
        return f"RelativeNormElement({self.x_terms()!r})"


def _one_plus_gen_power(p: int, mx: int, e: int, c: NormFieldElement) -> NormFieldElement:
    """c * (1 + pi^(1/p^mx))^e, the epsilon-multiplier of the geometric action."""
    level = max(c.m, mx)
    cc = c.at_level(level)
    width = cc.prec_num - (min(min(cc.coeffs), 0) if cc.coeffs else 0)
    gen_step = p ** (level - mx)  # one x-grid step on the pi-grid of `level`
    n = width // gen_step + 2
    # (1+t)^e with t = pi^(1/p^mx)
    binomials = binomial_table_mod_ps(e, n - 1, p, 1)
    factor = NormFieldElement(p, level, {0: 1} | {
        k * gen_step: int(c) for k, c in enumerate(binomials, start=1)},
        max(cc.prec_num, n * gen_step))
    return cc * factor


# -- text syntax ------------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+)\s*\*\s*)?pi\^\(?(?P<num>-?\d+)(?:/(?P<den>\d+))?\)?\s*$"
    r"|^\s*(?P<const>\d+)\s*$"
)


def parse_element(text: str, p: int, prec: Fraction | int) -> NormFieldElement:
    """Parse the element syntax, e.g. ``pi^-2 + 2*pi^(1/3) + pi^4``."""
    text = text.strip()
    if text == "0":
        return NormFieldElement.zero(p, prec)
    terms: dict[Fraction, int] = {}
    for raw in text.split("+"):
        mt = _TERM_RE.match(raw)
        if not mt:
            raise ValueError(f"cannot parse term {raw!r}")
        if mt.group("const") is not None:
            e, c = Fraction(0), int(mt.group("const"))
        else:
            c = int(mt.group("coeff") or 1)
            num = int(mt.group("num"))
            den = int(mt.group("den") or 1)
            if den == 0:
                raise ValueError(f"zero denominator in term {raw!r}")
            e = Fraction(num, den)
        terms[e] = terms.get(e, 0) + c
    return NormFieldElement.from_terms(p, terms, prec)


def format_element(x: NormFieldElement) -> str:
    """Canonical printer; round-trips bit-exactly with parse_element."""
    if x.is_zero():
        return "0"
    pieces = []
    for e, c in x.terms().items():
        if e == 0:
            pieces.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            if e.denominator == 1:
                pieces.append(f"{head}pi^{e.numerator}")
            else:
                pieces.append(f"{head}pi^({e.numerator}/{e.denominator})")
    return " + ".join(pieces)
