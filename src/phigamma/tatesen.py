"""Normalized trace operators, Tate-Sen certificates, and decompletion.

Trace operators are realized as exact coefficient projections on the
exponent grids (arithmetic pi-direction and geometric x-direction), which
makes the TS2(b) defect c2 equal to zero by construction.  The cyclotomic
number side keeps one genuinely analytic instance alive: the normalized
trace (1/p^(n-m))*Tr down the Z[zeta_{p^n}] tower, cross-checked against
the Galois conjugate sum.

TS3 is executable: 1 - gamma^(p^m) is inverted on the complement of the
level-m subspace, diagonally in the geometric direction and by an exact
window solve in the arithmetic direction, with the residual certified to
vanish on the window and the measured loss constant c3 reported.

The arithmetic-direction solve builds gamma with
``complexes.build_ring_window`` at s = 1, in grid steps, and keeps only its
system, a zmodlin.FpSystem: every sample of one prime and level tops its
window at the same exponent, so each system is a corner of one kept system
(_ts3_system).  gamma^(p^m) enters the window and element gamma through
one exponent, the residue of (1 + p)^(p^m) mod p^64 (_ts3_exponent), which
fixes every binomial either reads, so no rebuild is refused for want of
exponent digits.  The TS3 matrices are singular, and the reported c3 rests
on the particular solution that sets the free unknowns to 0, which
FpSystem.solve returns.  The TS3 residual and the c4 probe recheck it
through element gamma, a baby-step/giant-step evaluation on int64 vectors
that shares only the binomial table with the window builder.  The TS1
search tests every power of zeta - 1 at once, on one int64 array of traces.

Decompletion has no engine of its own.  At s = 1 the level-m ring is
F_p((t)) with t = pi^(1/p^m), and phi(t) = t^p, gamma(t) = (1+t)^a - 1 are
the level-0 formulas, so for constant matrices the level-m Herr complex is
the level-0 one with depths counted in grid steps: both sides are windows
of complexes.cohomology, the level-m one p^m times deeper, and read their
lengths off zmodlin's packed F_p echelon.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .complexes import (_check_window_bytes, build_ring_window, cohomology,
                        herr_complex, ring_gamma)
from .errors import InvariantError, NonStabilizationError, PrecisionError
from .normfield import (NormFieldElement, RelativeNormElement,
                        _lru_store, _one_plus_gen_power, format_element)
from .zmodlin import FpSystem

__all__ = [
    "TateSenCertificate",
    "CyclotomicElement",
    "tau_projection",
    "cyclotomic_trace",
    "galois_trace",
    "ts1_witness_search",
    "TS1Witness",
    "invert_one_minus_gamma",
    "decompose_element",
    "decompletion_compare",
    "tate_sen_certificate",
]


# -- grid trace projections --------------------------------------------------


def tau_projection(z, m: int, i: int = 0):
    """tau_m^(i): kill grid exponents with denominator exceeding p^m in
    direction i (0 = arithmetic pi-direction, 1 = geometric x-direction).

    Exact, idempotent, and valuation-non-decreasing (dropping terms cannot
    lower the minimum), so c2 = 0 in this model.
    """
    if m < 0:
        raise ValueError("trace level must be nonnegative")
    if isinstance(z, RelativeNormElement):
        p = z.p
        if i == 1:
            f = p ** z.mx
            kept = {j: c for j, c in z.parts.items() if (j * p**m) % f == 0}
            return RelativeNormElement(p, z.mx, kept)
        return RelativeNormElement(
            p, z.mx, {j: tau_projection(c, m, 0) for j, c in z.parts.items()})
    if i != 0:
        raise ValueError("direction 1 needs a relative element")
    f = z.p ** z.m
    kept = {n: c for n, c in z.coeffs.items() if (n * z.p**m) % f == 0}
    return NormFieldElement(z.p, z.m, kept, z.prec_num)


# -- the cyclotomic number side ----------------------------------------------


class CyclotomicElement:
    """Element of Z[zeta_{p^n}] mod p^s in the power basis.

    Exponents are reduced with the relation sum_{i<p} zeta^(i*p^(n-1)) = 0,
    leaving the canonical basis zeta^e for 0 <= e < (p-1)p^(n-1).
    """

    __slots__ = ("p", "s", "n", "coeffs")

    def __init__(self, p: int, s: int, n: int, coeffs: dict[int, int]):
        if n < 1:
            raise ValueError("tower level must be at least 1")
        self.p, self.s, self.n = p, s, n
        q = p ** s
        self.coeffs = {e % p**n: c % q for e, c in coeffs.items() if c % q}

    @classmethod
    def zeta(cls, p: int, s: int, n: int) -> "CyclotomicElement":
        return cls(p, s, n, {1: 1})

    @classmethod
    def one(cls, p: int, s: int, n: int) -> "CyclotomicElement":
        return cls(p, s, n, {0: 1})

    def normalize(self) -> "CyclotomicElement":
        q = self.p ** self.s
        top = (self.p - 1) * self.p ** (self.n - 1)
        coeffs = dict(self.coeffs)
        for e in [e for e in coeffs if e >= top]:
            c = coeffs.pop(e)
            j = e - top
            for i in range(self.p - 1):
                k = i * self.p ** (self.n - 1) + j
                coeffs[k] = (coeffs.get(k, 0) - c) % q
        return CyclotomicElement(self.p, self.s, self.n, coeffs)

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return CyclotomicElement(self.p, self.s, self.n, coeffs)

    def __neg__(self) -> "CyclotomicElement":
        return self.scale(-1)

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return self + (-other)

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        coeffs: dict[int, int] = {}
        f = self.p ** self.n
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1 + e2) % f
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return CyclotomicElement(self.p, self.s, self.n, coeffs)

    def scale(self, c: int) -> "CyclotomicElement":
        return CyclotomicElement(self.p, self.s, self.n,
                                 {e: c * v for e, v in self.coeffs.items()})

    def conjugate(self, u: int) -> "CyclotomicElement":
        """Galois substitution zeta -> zeta^u for u prime to p."""
        return CyclotomicElement(self.p, self.s, self.n,
                                 {(e * u) % self.p**self.n: c
                                  for e, c in self.coeffs.items()})

    def at_level(self, n2: int) -> "CyclotomicElement":
        if n2 < self.n:
            raise ValueError("use cyclotomic_trace to go down the tower")
        f = self.p ** (n2 - self.n)
        return CyclotomicElement(self.p, self.s, n2,
                                 {e * f: c for e, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.normalize().coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.p, self.s, self.n,
                     tuple(sorted(self.normalize().coeffs.items()))))

    def _check(self, other: "CyclotomicElement") -> None:
        if (self.p, self.s, self.n) != (other.p, other.s, other.n):
            raise ValueError("elements at different tower levels")

    def __repr__(self):
        body = " + ".join(f"{c}*z^{e}" if e else str(c)
                          for e, c in sorted(self.normalize().coeffs.items()))
        return f"Cyc(p={self.p}, n={self.n}: {body or '0'})"


def galois_trace(x: CyclotomicElement, m: int) -> CyclotomicElement:
    """Un-normalized trace sum over Gal(level n / level m) conjugates."""
    if not 1 <= m <= x.n:
        raise ValueError("target level out of range")
    acc = CyclotomicElement(x.p, x.s, x.n, {})
    for k in range(x.p ** (x.n - m)):
        acc = acc + x.conjugate(1 + k * x.p**m)
    return acc


def cyclotomic_trace(x: CyclotomicElement, m: int) -> CyclotomicElement:
    """Normalized trace (1/p^(n-m))*Tr down to Z[zeta_{p^m}].

    Computed as the canonical-basis projection (keep exponents divisible by
    p^(n-m)), then certified against the exact Galois conjugate sum; the
    divisibility of that sum is what makes the normalization exact.
    """
    if not 1 <= m <= x.n:
        raise ValueError("target level out of range")
    f = x.p ** (x.n - m)
    canon = x.normalize()
    out = CyclotomicElement(x.p, x.s, x.n - (x.n - m),
                            {e // f: c for e, c in canon.coeffs.items()
                             if e % f == 0})
    check = galois_trace(x, m).normalize()
    if out.at_level(x.n).scale(f) != check:
        raise PrecisionError(
            "normalized trace failed the conjugate-sum divisibility check")
    return out


# -- TS1 witness search ------------------------------------------------------


@dataclass(frozen=True)
class TS1Witness:
    found: bool
    level: int
    exponent: int | None       # k in (zeta - 1)^k / p
    valuation: Fraction | None
    trace_constant: int | None
    family: str
    searched: int

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "level": self.level,
            "exponent": self.exponent,
            "valuation": None if self.valuation is None else str(self.valuation),
            "trace_constant": self.trace_constant,
            "family": self.family,
            "searched": self.searched,
        }


def _ts1_traces(p: int, n: int, q: int, count: int) -> np.ndarray:
    """One-step traces Tr_{n+1 -> n} (zeta_{p^(n+1)} - 1)^k mod q, k < count,
    as the rows of an int64 array on the level-(n+1) canonical basis zeta^e,
    e < (p-1)p^n.

    The powers come from one Pascal recurrence on the exponents e < p^(n+1),
    a shift and a subtract per power; each conjugation zeta -> zeta^u,
    u = 1 + i*p^n, permutes the exponents, so the traces are p gathers over
    the whole array, normalized by one fold of the e >= (p-1)p^n.
    """
    if p * q >= 2**63:
        raise ValueError(f"modulus {q} exceeds int64 trace arithmetic")
    f, top = p ** (n + 1), (p - 1) * p ** n
    exps = np.arange(f)
    powers = np.zeros((count, f), dtype=np.int64)
    if count:
        powers[0, 0] = 1
    for prev, row in zip(powers, powers[1:]):
        row[1:], row[0] = prev[:-1], prev[-1]
        row -= prev
        row %= q
    tr = sum(powers[:, exps * pow(1 + i * p**n, -1, f) % f] for i in range(p))
    return ((tr[:, :top].reshape(count, p - 1, p**n) - tr[:, None, top:])
            .reshape(count, top) % q)


@lru_cache(maxsize=64)
def ts1_witness_search(p: int, s: int, n: int, c: Fraction) -> TS1Witness:
    """Search alpha = (zeta_{p^(n+1)} - 1)^k / p with one-step trace a unit.

    The trace of any integral element is divisible by the maximal ideal, so
    a genuine TS1 witness must carry the 1/p; we search the declared
    monomial family exhaustively and report the shallowest witness (largest
    valuation) with v(alpha) > -c, or the failure with the family searched.
    The answer depends on (p, s, n, c) alone and is kept per argument
    tuple; TS1Witness is frozen, so a kept answer cannot change.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    s_work = s + n + 5       # headroom for the exact p-power divisions
    e_rel = (p - 1) * p ** n  # absolute ramification index at level n+1
    searched = 2 * e_rel
    tr = _ts1_traces(p, n, p ** s_work, searched)
    k = np.arange(searched)
    j = 1 + k // e_rel       # divisor p^j keeping v(alpha) in (-2, 0)
    pj = (p ** j)[:, None]
    # a trace in the level-n subring is a unit iff it is nonzero in the
    # residue field (zeta -> 1)
    res = (tr // pj).sum(axis=1) % p
    found = np.flatnonzero(~(tr % pj).any(axis=1) & (res != 0))
    # e_rel * v(alpha) = k - j * e_rel; the least k of the largest v wins
    scaled = found - j[found] * e_rel
    best = int(found[np.argmax(scaled)]) if found.size else None
    v = None if best is None else Fraction(int(scaled.max()), e_rel)
    if v is None or v <= -c:
        return TS1Witness(False, n, None, v, None, "(zeta-1)^k / p^j",
                          searched)
    return TS1Witness(True, n, best, v, int(res[best]), "(zeta-1)^k / p^j",
                      searched)


# -- TS3: inverting 1 - gamma^(p^m) off the trace image ----------------------


def _ts3_exponent(p: int, m: int) -> int:
    """The exponent (1 + p)^(p^m) of gamma^(p^m), gamma = gamma_(1 + p), as
    its residue mod p^64, which fixes every binomial of the s = 1 tables
    (normfield.binomial_table_mod_ps)."""
    return pow(1 + p, p**m, p**64)


# TS3 system kept per (p, a_res, f, hi_rows): (lo_y, support, FpSystem)
_SYSTEMS: dict = {}


def _ts3_system(p: int, a_res: int, f: int, lo_y: int, hi_rows: int):
    """(support, FpSystem) of gamma - 1, gamma = gamma_(a_res) on a window
    from build_ring_window, on the exponents in [lo_y, hi_rows) off the grid
    of multiples of f, both as unknowns and as rows.  The dense window is
    not kept: the FpSystem serves every later request, and a deeper one
    builds the window afresh.

    An entry is fixed by its row, its column and the top, so the system of
    a higher lo_y is a corner of a deeper one (FpSystem.corner), past the
    support exponents below lo_y.  One system is kept per (p, a_res, f,
    hi_rows), the least recently used dropped past _LRU_SIZE (normfield).
    A lower lo_y rebuilds it at that depth; a rebuild refused by the size
    bound keeps the system it had.
    """
    key = (p, a_res, f, hi_rows)
    kept = _SYSTEMS.get(key)
    if kept is None or lo_y < kept[0]:
        # the gamma window and its power table (power_rows), each of
        # (hi_rows - lo_y)^2 int64 entries
        _check_window_bytes(16 * (hi_rows - lo_y) ** 2,
                            "the TS3 gamma window")
        support = [n for n in range(lo_y, hi_rows) if n % f]
        off = np.array(support, dtype=np.int64) - lo_y
        A = build_ring_window(p, 1, ring_gamma(a_res), -lo_y, -lo_y,
                              hi_rows)[np.ix_(off, off)]
        kept = (lo_y, support,
                FpSystem(A - np.eye(len(off), dtype=np.int64), p))
    _, support, system = _lru_store(_SYSTEMS, key, kept)
    t = bisect_left(support, lo_y)
    return support[t:], system.corner(t)


def invert_one_minus_gamma(z, m: int):
    """Solve (1 - gamma_i^(p^m)) y = z on the complement of level m, in the
    direction i that z's type names: 1 (geometric, gamma~) for a
    RelativeNormElement, 0 (arithmetic, gamma = gamma_chi with chi = 1 + p)
    for a NormFieldElement.

    Direction 1 is diagonal in the x-monomials: each term is divided by the
    exact multiplier 1 - (1 + pi^(1/p^mx))^(p^m * j).  Direction 0 is an
    exact window solve of (gamma - I), restricted to the rows and columns
    off the level-m grid: gamma is the square window [lo_y, hi_rows)^2
    built by build_ring_window, whose top hi_rows depends only on p, m and
    the input's grid level and precision, so every input of one prime,
    level and precision reads its system off one kept system
    (_ts3_system).  The system is strictly lower triangular in the monomial
    order, so its columns come nearly in column echelon form, and most need
    no reduction step or a few (FpSystem.solve).  In both cases the
    residual is certified, through element arithmetic, to vanish on the
    window, and the loss v(z) - v(y) is the measured c3.
    """
    if isinstance(z, RelativeNormElement):
        proj = tau_projection(z, m, 1)
        if proj.parts:
            raise InvariantError("input is not in the level-m complement")
        p = z.p
        parts = {}
        for j, cj in z.parts.items():
            level = max(cj.m, z.mx)
            prec = cj.prec_num * p ** (level - cj.m)
            one = NormFieldElement.one(p, Fraction(prec + 4 * p**level,
                                                   p**level), level)
            mult = one - _one_plus_gen_power(p, z.mx, p**m * j, one)
            parts[j] = cj * mult.inverse()
        y = RelativeNormElement(p, z.mx, parts)
        residual = z - (y - y.gamma_tilde(p ** m))
        if any(not c.is_zero() for c in residual.parts.values()):
            raise InvariantError("inversion residual is nonzero on the window")
        return y
    if not isinstance(z, NormFieldElement):
        raise ValueError("TS3 inverts a norm-field or a relative element, "
                         f"not {type(z).__name__}")
    if not tau_projection(z, m, 0).is_zero():
        raise InvariantError("input is not in the level-m complement")
    if z.is_zero():
        return z
    p = z.p
    a_res = _ts3_exponent(p, m)
    K = z.m
    f = p ** (K - m)  # level-m grid exponents are the multiples of f
    if f <= 1:
        raise ValueError("need m < grid level of the input")
    # monomials whose naive leading correction lands on the level-m grid
    # only produce a complement term one grid period later, hence the + f
    pad = (p ** (m + 1) - 1) * (f // p) + f
    lo_z, hi_z = min(z.coeffs), z.prec_num
    lo_y = lo_z - pad
    # rows above hi_z - pad would need unknowns past the window, so the
    # preimage is certified on the shrunken window [lo_y, hi_rows)
    hi_rows = hi_z - pad
    if hi_rows <= lo_z:
        raise PrecisionError(
            "input window too small to invert: need precision beyond "
            f"{lo_z + pad} grid steps at level {K}")
    # both the unknowns and the constraints live on the complement of the
    # level-m grid; the leakage of gamma into level-m rows is projected away
    support, system = _ts3_system(p, a_res, f, lo_y, hi_rows)
    sol = system.solve({bisect_left(support, n): -cc
                        for n, cc in z.coeffs.items() if n < hi_rows})
    if sol is None:
        raise NonStabilizationError(
            "no window preimage: contraction failed for the given window")
    y = NormFieldElement(p, K, {q: int(v) for q, v in zip(support, sol)
                                if v % p}, hi_rows)
    residual = z - (y - y.gamma(a_res))
    if any(c % p for e, c in residual.coeffs.items() if e % f):
        raise InvariantError("inversion residual is nonzero on the window")
    return y


# -- decomposition D = D_m + D_m^(0) + D_m^(1) -------------------------------


def decompose_element(z: RelativeNormElement, m: int):
    """Split z into (level-m part, arithmetic-deep part, geometric-deep
    part); the three sum back to z exactly."""
    q1 = tau_projection(z, m, 1)
    qm = tau_projection(q1, m, 0)
    return qm, q1 - qm, z - q1


# -- decompletion comparison -------------------------------------------------


def decompletion_compare(D, m: int, schedule=(3, 4, 6)):
    """Paired stabilized dims of H^j(Gamma, level-0 window) and
    H^j(Gamma, level-m window) for j = 0, 1.

    Both sides are delta-mode windows of complexes.cohomology, the level-m
    one of depth p^m * d for a level-0 depth d (module docstring).  Schedule
    entry b is read at depth d(b) = floor((2p - 1) b / 3), so the default
    (3, 4, 6) starts at 2p - 1.  That rule is empirical: from depth 2p - 1
    on, h1 is right for every twist Z/p(n) measured (b = 2..39, p in
    {3, 5, 7}); below it, n = 1 mod p - 1 reads h1 one short.  A certified
    window depth is to replace it.  NonStabilizationError if the last two
    entries of either side disagree.
    """
    if D.s != 1 or D.rank != 1 or D.relative:
        raise ValueError("decompletion comparison supports rank 1 at s = 1")
    if m < 0:
        raise ValueError("level must be nonnegative")
    p = D.p
    g = D.generator("gamma")
    if any(n != 0 for n in g.matrix[0][0].coeffs) or \
            any(n != 0 for n in D.phi[0][0].coeffs):
        raise ValueError("constant generator matrices required")
    T = herr_complex(D, "delta")
    depths = [(2 * p - 1) * b // 3 for b in schedule]
    out = {}
    for tag, steps in (("level_0", 1), ("level_m", p ** m)):
        rep = cohomology(T, [steps * d for d in depths])
        trace = [dims[:2] for _, dims in rep.trace]
        if len(set(trace[-2:])) != 1:
            raise NonStabilizationError(
                f"{tag} side did not stabilize: {trace}")
        out[tag] = tuple(trace)
    pairs = {j: (out["level_0"][-1][j], out["level_m"][-1][j])
             for j in (0, 1)}
    return {
        "degrees": pairs,
        "equal": all(a == b for a, b in pairs.values()),
        "trace_level_0": out["level_0"],
        "trace_level_m": out["level_m"],
    }


# -- certificate assembly ----------------------------------------------------


@dataclass
class TateSenCertificate:
    p: int
    m: int
    c1: str | None
    c2: Fraction
    c3: Fraction
    c4: Fraction
    samples: dict
    worst: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "tate-sen-certificate",
                "p": self.p,
                "m": self.m,
                "c1_witness_valuation": self.c1,
                "c2": str(self.c2),
                "c3": str(self.c3),
                "c4": str(self.c4),
                "samples": self.samples,
                "worst_witnesses": self.worst,
            },
            sort_keys=True, indent=2)


def _random_deep_element(rng, p, m, level):
    coeffs = {}
    f = p ** level
    for _ in range(rng.randrange(2, 6)):
        n = rng.randrange(-2 * f, 3 * f)
        if n != 0 and (n * p**m) % f != 0:
            coeffs[n] = rng.randrange(1, p)
    if not coeffs:
        coeffs = {1 if level == 0 else p**level + 1: 1}
        coeffs = {k: v for k, v in coeffs.items() if (k * p**m) % f != 0}
        if not coeffs:
            coeffs = {f + 1: 1}
    return NormFieldElement(p, level, coeffs, 18 * f)


def tate_sen_certificate(p: int, m: int, n_samples: int,
                         seed: int) -> TateSenCertificate:
    """Measured TS2/TS3 constants over a seeded sample, with witnesses."""
    import random

    if n_samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {n_samples}")
    rng = random.Random(seed)
    level = m + 1 + (1 if p == 3 else 0)
    c2 = Fraction(0)
    c3 = Fraction(0)
    c4 = None
    worst = {}
    for k in range(n_samples):
        z = _random_deep_element(rng, p, m, level)
        t = tau_projection(z, m, 0)
        if not tau_projection(t, m, 0).coeffs == t.coeffs:
            raise InvariantError("trace projection is not idempotent")
        if not t.is_zero():
            defect = (z.valuation() or Fraction(0)) - t.valuation()
            if defect > c2:
                c2, worst["c2"] = defect, format_element(z)
        deep = z - t
        if deep.is_zero():
            continue
        y = invert_one_minus_gamma(deep, m)
        loss = (deep.valuation() - y.valuation()) if y.valuation() is not None \
            else Fraction(0)
        if loss > c3:
            c3, worst["c3"] = loss, format_element(deep)
        # TS3 second bound: on level-m inputs the commutator gains c4 > 0
        x = tau_projection(_random_deep_element(rng, p, 0, m), m, 0)
        if x.is_zero() or 0 in x.coeffs:
            continue
        dx = x.gamma(_ts3_exponent(p, m)) - x
        if not dx.is_zero():
            gain = dx.valuation() - x.valuation()
            if c4 is None or gain < c4:
                c4, worst["c4"] = gain, format_element(x)
    ts1 = ts1_witness_search(p, 1, 1, Fraction(1))
    return TateSenCertificate(
        p, m,
        None if ts1.valuation is None else str(ts1.valuation),
        c2, c3, c4 if c4 is not None else Fraction(0),
        {"projection": n_samples, "inversion": n_samples},
        worst)
