"""Gamma-cohomology complexes and window-stabilized cohomology.

A complex here is one of two fixed complexes.  The Herr complex of a
non-relative module (Herr, Bull. SMF 126, 1998) has the differentials

    d0(x) = ((1 - phi)x, (1 - gamma)x),   d1(a, b) = (1 - gamma)a - (1 - phi)b,

the cone over phi - 1 of the Gamma-complex [D --(1 - gamma)--> D]; on a
window it is its two operators A = 1 - Phi*phi and B = 1 - G*gamma, read as
d0 = (A; B) and d1 = (B, -A).  The semidirect complex of a relative module is
finite and exact, and its two differentials are integer matrices mod p^s.

The cohomology engine models the coefficient module on truncated Laurent
windows [-b, T).  Truncation at the top is a genuine quotient: the positive
tail pi^T * (integral part) is a subcomplex on which 1 - phi is invertible
by a geometric series, hence acyclic, so dividing it out changes nothing.
Every window therefore tops at the least such T, ceil((1 - v(Phi))/(p-1))
and at least 1 (_tail_floor), whatever its depth b.  The bottom depth b is
the only approximation: cocycles are measured at depth b, coboundaries are
drawn from depth 2b subject to a bottom-support condition, and d o d = 0 is
certified by exact matrix composition.  Dims are accepted once they agree
across the last three window doublings; there is no a priori bound, and
every report carries its stabilization trace.

Window operator matrices are assembled from whole matrices.  Each ring
action has one exact int64 window matrix R (ring_window): gamma_a columns
pi^n U^n from one binomial table of U = ((1+pi)^a - 1)/pi and its powers
(normfield.power_rows), phi columns as powers of (1+pi)^p - 1, whose
negative powers are finite Laurent polynomials mod p^s.  Every window is a
corner of the deepest one cached with its top; the Herr windows and the
Delta actions share that cache, and tatesen's TS3 solve, which keeps its
system packed, builds its window uncached (build_ring_window).  M * r(-)
with constant M is kron(M, R);
a series entry acts by its Toeplitz multiplication matrix on the whole
image of r, so a window row gets every entry term it needs, up to pi^(T +
image depth); an entry certified to less raises PrecisionError.  The
output window of depth b reaches p*b + max(2s + 4, (p-1)(s-1) + 2 - v)
below 0, the depth of phi's tail, carried further down by a matrix entry
of least exponent v < 0 (_out_depth).  Delta mode works on the
Delta-fixed part of each window: Delta = (Z/p)^x is cyclic, so one
generator's twisted window matrix is built and the other actions are its
powers; the averaging idempotent E is checked to satisfy E E = E, and the
basis is a set of columns of E (delta_project).  Below pi^-b an output
window of depth p*b holds few images (at s = 1, phi(pi^k) = pi^(pk)), so
A and B keep only the rows that can be nonzero: every row of exponent at
least -b, and the rows their ring window reaches, or every row when a
matrix entry is a series (_kept_rows); d1 keeps the rows either keeps.
Each differential carries the exponent of
every row it keeps, and its readers select rows by exponent.  A
cohomology call assembles raw d0 and d1, the Delta basis X and the
X-projected d0 and d1 once, at twice its deepest schedule depth or deep
enough for the certificate of d o d = 0 at its least depth, whichever is
deeper, and reads every window as a corner of that build (_window_data):
a window of depth b reads depth b (its kernels) and depth 2b (its deep
coboundaries, cut at their rows of exponent below -b).  The certificate
reads its d0 off the same raw pair, and d1 at the columns of d0's kept
rows.  This module has no elimination of its
own: window products mod p^s go through zmodlin._matmul_mod, and kernels,
lengths and elementary divisors come from zmodlin, which alone chooses
between its packed F_p echelon (s = 1) and its Smith form.  A kernel's
length comes with it by rank-nullity, so a subquotient needs no other
elimination of its span.  Window arrays are canonical, so they reach
zmodlin wrapped by ZModMatrix._trusted, unchecked.  Only isomorphism
invariants reach a report, so reports do not depend on which generators a
kernel or the Delta-fixed part comes with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .artinschreier import solve_as_general
from .errors import (
    DepthExceededError,
    InvariantError,
    PrecisionError,
    SizeLimitError,
)
from .modules import PhiGammaModule, _thaw
from .normfield import (_EXPONENT_MARGIN, NormFieldElement, _lru_store,
                        binomial_table_mod_ps, format_element, power_rows)
from .wittside import ArithLiftElement
from .zmodlin import (
    ZModMatrix,
    _divisors,
    _kernel,
    _matmul_mod,
    _mod,
    _subquotient_profile,
    divisors_length,
)

__all__ = [
    "GammaComplex",
    "CohomologyReport",
    "CocycleData",
    "DeltaProjection",
    "DEFAULT_SCHEDULE",
    "herr_complex",
    "semidirect_gamma_complex",
    "delta_project",
    "cohomology",
    "explicit_cocycle",
    "geometric_gamma_sum",
    "ring_window",
    "build_ring_window",
]

DEFAULT_SCHEDULE = (16, 32, 64, 128)

# Bound on the bytes of the dense windows one request builds: the estimate
# is taken before anything is allocated, and a request past the bound is
# refused with a SizeLimitError (a ValueError) that names both.
MAX_WINDOW_BYTES = 2**30

RING_PHI = ("phi",)


def ring_gamma(a: int) -> tuple:
    return ("gamma", a)


# -- complex data ------------------------------------------------------------


@dataclass(frozen=True)
class GammaComplex:
    """The Herr complex of a module on windows, or its finite semidirect
    complex.

    A finite complex holds its differentials d0 and d1 in diffs, as int64
    matrices mod p^s on the coefficient spaces.  A window complex holds
    none: its differentials are Herr's, built per window (_herr_pair).
    """

    module: PhiGammaModule
    kind: str   # "window" | "finite"
    mode: str   # "delta" | "free" | "semidirect"
    diffs: tuple = ()


def herr_complex(D: PhiGammaModule, mode: str = "delta") -> GammaComplex:
    """Three-term complex D -> D + D -> D of a non-relative module:

    d0(x) = ((1 - phi)x, (1 - gamma)x), d1(a, b) = (1 - gamma)a - (1 - phi)b.

    mode "delta" projects onto Delta-invariants first (base Q_p); "free"
    keeps the full window (torsion-free Gamma, base Q_p(zeta_p)).
    """
    if D.relative:
        raise ValueError("herr_complex expects a non-relative module; "
                         "use --complex semidirect for a relative one")
    if mode not in ("delta", "free"):
        raise ValueError(f"unknown mode {mode!r}")
    return GammaComplex(D, "window", mode)


def _is_series(x: ArithLiftElement) -> bool:
    return any(n != 0 and c % x.modulus for n, c in x.coeffs.items())


def _const_entry(x: ArithLiftElement) -> int:
    if _is_series(x):
        raise InvariantError(
            "coefficient-space complex needs constant matrix entries")
    return x.coeffs.get(0, 0) % x.modulus


def _const_matrix(M, q) -> np.ndarray:
    return np.array([[_const_entry(x) for x in row] for row in M],
                    dtype=np.int64) % q


def _power_and_sum(G: np.ndarray, n: int, q: int):
    """(G^n, sum_{i<n} G^i) mod q by binary splitting over the bits of n,
    in O(log n) products, as geometric_gamma_sum splits its sum."""
    power = np.eye(len(G), dtype=np.int64)
    total = np.zeros_like(power)
    for bit in bin(n)[2:]:
        # m -> 2m: S_2m = S_m + G^m S_m
        total = (total + _matmul_mod(power, total, q)) % q
        power = _matmul_mod(power, power, q)
        if bit == "1":
            # m -> m + 1: S_(m+1) = S_m + G^m
            total = (total + power) % q
            power = _matmul_mod(power, G, q)
    return power, total


def semidirect_gamma_complex(D: PhiGammaModule) -> GammaComplex:
    """Koszul-type complex D -> D^2 -> D for the group <gamma_tilde, gamma>
    with gamma gamma~ gamma^(-1) = gamma~^chi.

    d0(x) = ((gamma~ - 1)x, (gamma - 1)x) and, writing q = sum_{i<chi}
    gamma~^i, d1(a, b) = (gamma - q)a + (1 - gamma~^chi)b.  These are the
    Fox derivatives of the defining relator; d1 o d0 = gamma gamma~ -
    gamma~^chi gamma vanishes exactly by the relation.  The coefficient
    space is fixed by phi and gamma, so only the matrices act; gamma~^chi
    and q come by binary splitting over chi (_power_and_sum), which must
    be a positive integer.
    """
    if not D.relative:
        raise ValueError("semidirect complex expects a relative module")
    q = D.p ** D.s
    Gt = _const_matrix(D.generator("gamma_tilde").matrix, q)
    gg = D.generator("gamma")
    Gg = _const_matrix(gg.matrix, q)
    chi = gg.exponent
    if chi <= 0:
        raise ValueError(f"semidirect complex needs a positive gamma "
                         f"exponent chi, got chi = {chi}")
    Gt_chi, q_chi = _power_and_sum(Gt, chi, q)
    if (_matmul_mod(Gg, Gt, q) != _matmul_mod(Gt_chi, Gg, q)).any():
        raise InvariantError(
            "semidirect relation fails: gamma gamma~ != gamma~^chi gamma")
    eye = np.eye(D.rank, dtype=np.int64)
    d0 = np.vstack([Gt - eye, Gg - eye]) % q
    d1 = np.hstack([Gg - q_chi, eye - Gt_chi]) % q
    if _matmul_mod(d1, d0, q).any():
        raise InvariantError("semidirect complex: d^2 != 0")
    return GammaComplex(D, "finite", "semidirect", (d0, d1))


# -- window operator matrices ------------------------------------------------


def _check_window_bytes(estimate: int, what: str) -> None:
    """SizeLimitError naming the estimate and the bound unless estimate, the
    bytes of the dense windows that what needs, is at most
    MAX_WINDOW_BYTES."""
    if estimate > MAX_WINDOW_BYTES:
        raise SizeLimitError(f"{what} needs about {estimate >> 20} MiB of "
                             f"dense windows, past the bound of "
                             f"{MAX_WINDOW_BYTES >> 20} MiB")


def build_ring_window(p: int, s: int, ring: tuple, bot_in: int,
                      bot_out: int, top: int) -> np.ndarray:
    """Read-only matrix of a ring action from [-bot_in, top) to [-bot_out,
    top), built afresh; image terms below pi^-bot_out are cut.

    Entry [n + bot_out, k + bot_in] is the coefficient of pi^n in ring(pi^k),
    fixed by n and k, so a window is the trailing corner of any deeper one
    with the same top.  Column k is one row of a power table (power_rows),
    written down from the row of its lead exponent: gamma(pi^k) = pi^k U^k,
    U = ((1+pi)^a - 1)/pi; phi(pi^k) = pi^k H^k for k >= 0, H = ((1+pi)^p -
    1)/pi, and pi^(pk) F(1/pi)^k for k < 0, F(x) = (1+x)^p - x^p.  F is 1
    plus a multiple of p, so F^k mod p^s is a polynomial of degree at most
    (p-1)(s-1), and phi(pi^k), led by pi^(pk - (p-1)(s-1)), is exact.
    """
    q = p ** s
    n = np.arange(-bot_in, top)
    if ring[0] == "phi":
        H = np.array([math.comb(p, k) % q for k in range(1, p + 1)]
                     + [0] * top, dtype=np.int64)[:top]
        deg = (p - 1) * (s - 1)
        F = np.array([math.comb(p, j) % q if j < p else 0
                      for j in range(deg + 1)], dtype=np.int64)
        tables = [(p * n[:bot_in] - deg,
                   power_rows(F, q, -bot_in, 0)[:, ::-1]),
                  (n[bot_in:], power_rows(H, q, 0, top, end=top))]
    else:
        a = ring[1]
        if a % p == 0:
            raise ValueError("gamma exponent must be a p-adic unit")
        U = binomial_table_mod_ps(a, bot_in + top, p, s)
        tables = [(n, power_rows(U, q, -bot_in, top, end=top))]
    R = np.zeros((bot_out + top, bot_in + top), dtype=np.int64)
    col = 0
    for lead, T in tables:
        # every table is cut at pi^top; terms below the window are cut here
        j, k = np.nonzero(T)
        rows = lead[j] + k + bot_out
        keep = rows >= 0
        R[rows[keep], col + j[keep]] = T[j[keep], k[keep]]
        col += len(lead)
    R.setflags(write=False)
    return R


# deepest window kept per (p, s, ring, top): (bot_in, bot_out, matrix)
_WINDOWS: dict = {}


def ring_window(p: int, s: int, ring: tuple, bot_in: int, bot_out: int,
                top: int) -> np.ndarray:
    """build_ring_window, read as a trailing corner of a kept window.

    One window is kept per (p, s, ring, top), the least recently used
    dropped past _LRU_SIZE (normfield).  A deeper request rebuilds it as
    deep as every window it has served.
    """
    key = (p, s, ring, top)
    kept = _WINDOWS.get(key)
    if kept is None or bot_in > kept[0] or bot_out > kept[1]:
        b_in, b_out = ((bot_in, bot_out) if kept is None else
                       (max(bot_in, kept[0]), max(bot_out, kept[1])))
        kept = (b_in, b_out, build_ring_window(p, s, ring, b_in, b_out, top))
    _lru_store(_WINDOWS, key, kept)
    return kept[2][kept[1] - bot_out:, kept[0] - bot_in:]


def _multiplication_matrix(x: ArithLiftElement, bot_in: int, top_in: int,
                           bot_out: int, top: int) -> np.ndarray:
    """Toeplitz matrix of y |-> x*y from [-bot_in, top_in) to [-bot_out, top):
    entry [j + bot_out, i + bot_in] is the coefficient of pi^(j-i) in x."""
    lo = min(x.coeffs, default=0)
    terms = np.zeros(max(x.coeffs, default=lo) - lo + 1, dtype=np.int64)
    for n, c in x.coeffs.items():
        terms[n - lo] = c
    k = np.subtract.outer(np.arange(-bot_out, top),
                          np.arange(-bot_in, top_in)) - lo
    inside = (k >= 0) & (k < len(terms))
    return np.where(inside, terms[np.where(inside, k, 0)], 0)


def _kept_rows(D: PhiGammaModule, ring: tuple, M, bot_in: int, bot_out: int,
               top: int) -> np.ndarray:
    """Mask of the rows of [-bot_out, top) that 1 - M * ring(-) keeps from
    the window [-bot_in, top): each row of exponent at least -bot_in, which
    every depth-b cut (b <= bot_in) reads whole, and each row the ring
    window reaches.  A series entry of M spreads its image over every row
    (_operator_matrix), so it keeps them all.  Every row left out is
    zero."""
    keep = np.arange(-bot_out, top) >= -bot_in
    if any(_is_series(x) for row in M for x in row):
        keep[:] = True
        return keep
    deep = bot_out - bot_in
    R = ring_window(D.p, D.s, ring, bot_in, bot_out, top)
    keep[:deep] |= R[:deep].any(axis=1)
    return keep


def _operator_matrix(D: PhiGammaModule, ring: tuple, M, bot_in: int,
                     bot_out: int, top: int, keep: np.ndarray) -> np.ndarray:
    """Matrix of x |-> M * ring(x) from window [-bot_in, top) to the rows
    keep (a mask, _kept_rows) of window [-bot_out, top), block layout:
    column comp * window + (n + bot_in), row comp * kept + the place of n
    among the kept exponents.

    With constant M it is kron(M, R) for the kept rows of the window matrix
    R of the ring action.  Series entries act by their multiplication
    matrices on the whole image of the ring, which reaches below the output
    window, so every entry term that lands in a window row is kept: those
    reach pi^(top + deep - 1), deep the depth of that image, and an entry
    certified to less raises PrecisionError.  An entry of negative
    valuation v shifts image terms up to pi^(top - v) back into the window,
    so the image is taken that far."""
    p, s, r = D.p, D.s, D.rank
    q = p ** s
    series = [x for row in M for x in row if _is_series(x)]
    if not series:
        # kron(M, R), written out by broadcasting
        A = _const_matrix(M, q)
        R = ring_window(p, s, ring, bot_in, bot_out, top)[keep]
        return _mod((A[:, None, :, None] * R[:, None]).reshape(
            r * len(R), r * (bot_in + top)), q)
    # the least exponent of the image (see build_ring_window)
    deep = (p * bot_in + (p - 1) * (s - 1)
            if ring == RING_PHI and bot_in > 0 else bot_in)
    prec = min(x.prec_num for x in series)
    if prec < top + deep:
        raise PrecisionError(
            f"window needs matrix entries certified to pi^{top + deep}, "
            f"got pi^{prec}")
    reach = top - min(0, min(min(x.coeffs, default=0)
                             for row in M for x in row))
    E = np.block([[_multiplication_matrix(x, deep, reach, bot_out, top)[keep]
                   for x in row] for row in M])
    # columns of the input window [-bot_in, top) in the image to reach
    R = np.kron(np.eye(r, dtype=np.int64),
                ring_window(p, s, ring, bot_in, deep, reach)[:, :bot_in + top])
    return _matmul_mod(E % q, R, q)


def _one_minus(D: PhiGammaModule, term: tuple, bot_in: int, bot_out: int,
               top: int):
    """(keep, 1 - M * ring(-)) for term = (ring, M), from [-bot_in, top) to
    the rows keep of [-bot_out, top) (_kept_rows), laid out as by
    _operator_matrix."""
    keep = _kept_rows(D, *term, bot_in, bot_out, top)
    X = _operator_matrix(D, *term, bot_in, bot_out, top, keep)
    n = np.tile(np.arange(-bot_out, top)[keep], D.rank)
    rows = np.flatnonzero(n >= -bot_in)
    # the identity takes pi^n of a component to itself
    X[rows, rows // np.count_nonzero(keep) * (bot_in + top) + n[rows]
      + bot_in] -= 1
    return keep, _mod(np.negative(X, out=X), D.p ** D.s)


def _herr_terms(D: PhiGammaModule):
    """(ring, matrix) of the two Herr operators A = 1 - Phi*phi and
    B = 1 - G*gamma."""
    g = D.generator("gamma")
    return (RING_PHI, D.phi), (ring_gamma(g.exponent), g.matrix)


def _herr_differentials(D: PhiGammaModule, one_minus_phi, one_minus_gamma,
                        bot_out: int, top: int):
    """Herr's d0 = (A; B) and d1 = (B, -A) from the operators A = 1 - Phi*phi
    and B = 1 - G*gamma, each (keep, matrix) into [-bot_out, top)
    (_one_minus).  Returns (d0, e0, k0, d1, e1): row i of d0 is the
    coefficient of pi^e0[i] in component k0[i] = slot * rank + comp of the
    output, and the rows of one component run up from its least kept
    exponent; d1 keeps the rows either operator keeps, the other's rows
    there being zero, and e1 holds their exponents.  On an input window
    [-b, top), column (slot * rank + comp) * (b + top) + n + b is pi^n in
    component comp of the input slot."""
    (ka, A), (kb, B) = one_minus_phi, one_minus_gamma
    r = D.rank
    n = np.arange(-bot_out, top)
    k0 = np.repeat(np.arange(2 * r), np.repeat(
        [np.count_nonzero(ka), np.count_nonzero(kb)], r))
    e0 = np.concatenate([np.tile(n[ka], r), np.tile(n[kb], r)])
    k1 = ka | kb
    w = A.shape[1]
    d1 = np.zeros((r * np.count_nonzero(k1), 2 * w), dtype=np.int64)
    d1[np.tile(kb[k1], r), :w] = B
    d1[np.tile(ka[k1], r), w:] = _mod(-A, D.p ** D.s)
    return np.vstack([A, B]), e0, k0, d1, np.tile(n[k1], r)


def _herr_pair(D: PhiGammaModule, bot_in: int, bot_out: int, top: int):
    """d0 and d1 from [-bot_in, top) into [-bot_out, top)
    (_herr_differentials), 1 - phi built before 1 - gamma."""
    A, B = (_one_minus(D, t, bot_in, bot_out, top) for t in _herr_terms(D))
    return _herr_differentials(D, A, B, bot_out, top)


# -- Delta projection --------------------------------------------------------


@dataclass
class DeltaProjection:
    """The averaging idempotent e_Delta on a coefficient window."""

    p: int
    s: int
    bottom: int
    top: int
    exponent: int
    omegas: tuple
    matrix: np.ndarray
    basis: np.ndarray


def _delta_actions(D: PhiGammaModule, bot: int, top: int):
    """The p - 1 twisted actions omega(u)^e * gamma_omega(u) on the window,
    as the powers act_g^i of one generator g of (Z/p)^x.  The window is an
    exact representation, so act_g^i is exactly the action of g^i."""
    p, s = D.p, D.s
    q = p ** s
    M = s + _EXPONENT_MARGIN
    g = next(u for u in range(2, p)
             if len({pow(u, i, p) for i in range(p - 1)}) == p - 1)
    # Teichmuller residues omega(g^i) = omega(g)^i mod p^M
    w = pow(g, p ** (M - 1), p ** M)
    omegas = {pow(g, i, p): pow(w, i, p ** M) for i in range(p - 1)}
    scalar = pow(omegas[g], D.delta_character_exponent, q)
    # omega(-1) = -1 exactly
    ring = ring_gamma(-1) if g == p - 1 else ring_gamma(omegas[g])
    act = np.kron(np.eye(D.rank, dtype=np.int64),
                  ring_window(p, s, ring, bot, bot, top)) * scalar % q
    acts = [np.eye(act.shape[0], dtype=np.int64), act]
    while len(acts) < p - 1:
        acts.append(_matmul_mod(acts[-1], act, q))
    return omegas, acts


def delta_project(D: PhiGammaModule, bottom: int, top: int) -> DeltaProjection:
    """e_Delta = (p-1)^(-1) sum_delta omega(delta)^e * delta on the window.

    Delta acts through the character power on the module, each delta as a
    power of one generator's window matrix.  E is checked to be idempotent
    and lower triangular (each delta keeps pi-adic order), so its diagonal
    is 0/1, and its columns at the diagonal 1s, with unit pivots in distinct
    rows, are a basis of a free summand of rank rank(E): of im E, the
    Delta-fixed part.
    """
    p, s = D.p, D.s
    if p == 2:
        raise ValueError("Delta-averaging needs p odd")
    q = p ** s
    omegas, acts = _delta_actions(D, bottom, top)
    E = sum(acts) % q * pow(p - 1, -1, q) % q
    if not np.array_equal(_matmul_mod(E, E, q), E):
        raise InvariantError("Delta projector is not idempotent")
    if np.triu(E, 1).any():
        raise InvariantError("Delta projector is not triangular")
    basis = E[:, np.diagonal(E) == 1]
    return DeltaProjection(p, s, bottom, top, D.delta_character_exponent,
                           tuple(sorted(omegas.items())), E, basis)


# -- cohomology reports ------------------------------------------------------


@dataclass
class CohomologyReport:
    p: int
    s: int
    mode: str
    kind: str
    dims: tuple
    profiles: tuple
    euler: int
    trace: tuple   # ((window-label, dims), ...)
    verdict: str   # "stable" | "unstable"
    schedule: tuple

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "cohomology-report",
                "version": 1,
                "p": self.p,
                "s": self.s,
                "mode": self.mode,
                "kind": self.kind,
                "dims": list(self.dims),
                "profiles": [list(pr) for pr in self.profiles],
                "euler": self.euler,
                "trace": [[str(w), list(d)] for w, d in self.trace],
                "verdict": self.verdict,
                "schedule": [str(w) for w in self.schedule],
            },
            sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = ["degree,length,profile"]
        for i, (d, pr) in enumerate(zip(self.dims, self.profiles)):
            lines.append(f"{i},{d},{'|'.join(str(x) for x in pr)}")
        return "\n".join(lines) + "\n"


def _subquotient(Z: np.ndarray, length: int, B: np.ndarray, p: int, s: int,
                 escape: str = ""):
    """Length and elementary divisors of span(Z)/span(B), where span(Z) has
    the given length; B must lie in span(Z), else InvariantError with the
    message escape."""
    wrap = ZModMatrix._trusted
    try:
        prof = _subquotient_profile(wrap(p, s, Z), wrap(p, s, B), length)
    except InvariantError:
        raise InvariantError(escape) from None
    return divisors_length(p, prof), tuple(prof)


def _divisor_report(A: np.ndarray, p: int, s: int, n: int):
    """Length and elementary divisors of ker(A), n = cols, or of coker(A),
    n = rows, from the pivot valuations of A."""
    prof = _divisors(p, s, _kernel(ZModMatrix._trusted(p, s, A), False)[0], n)
    return divisors_length(p, prof), tuple(prof)


def _kernel_of(A: np.ndarray, p: int, s: int):
    """Columns generating ker(A), canonical in [0, p^s), and their length
    s*cols - l(A), by rank-nullity from the valuations that come with them."""
    vals, K = _kernel(ZModMatrix._trusted(p, s, A))
    return K, s * A.shape[1] - sum(s - v for v in vals)


def _hn_dims(d0: np.ndarray, d1: np.ndarray, B1: np.ndarray, B2: np.ndarray,
             X: np.ndarray | None, p: int, s: int):
    """Lengths and profiles of H^0 = ker d0, H^1 = ker d1 / span(B1) and
    H^2 = span(X) / span(B2) of a three-term complex.  X, if given, is a
    basis of a free direct summand (the Delta basis), and the cocycles of d1,
    one block of X's coordinates per slot, are carried by X to where B1
    lives; None stands for the identity, and H^2 is then coker B2.  As X
    maps each space isomorphically onto its span, lengths and profiles are
    those before X."""
    q = p ** s
    h0, prof0 = _divisor_report(d0, p, s, d0.shape[1])
    Z1, z1len = _kernel_of(d1, p, s)
    if X is not None:
        k0 = d0.shape[1]
        Z1 = np.vstack([_matmul_mod(X, Z1[:k0], q),
                        _matmul_mod(X, Z1[k0:], q)])
    h1, prof1 = _subquotient(Z1, z1len, B1, p, s,
                             "coboundaries escape the cocycle space")
    if X is None:
        h2, prof2 = _divisor_report(B2, p, s, B2.shape[0])
    else:
        h2, prof2 = _subquotient(X, s * X.shape[1], B2, p, s,
                                 "coboundaries escape the window")
    return (h0, h1, h2), (prof0, prof1, prof2)


def _finite_report(T: GammaComplex) -> CohomologyReport:
    """The exact report of a finite three-term complex: B1 = d0, B2 = d1."""
    D = T.module
    d0, d1 = T.diffs
    dims, profiles = _hn_dims(d0, d1, d0, d1, None, D.p, D.s)
    euler = dims[0] - dims[1] + dims[2]
    return CohomologyReport(D.p, D.s, T.mode, T.kind, dims, profiles,
                            euler, (("exact", dims),), "stable", ("exact",))


def _tail_floor(D: PhiGammaModule) -> int:
    """Smallest top T with the positive tail an acyclic subcomplex."""
    vals = [x.valuation_pi() for row in _thaw(D.phi) for x in row]
    v_phi = min((v for v in vals if v is not None), default=0)
    for g in D.generators:
        for row in _thaw(g.matrix):
            for x in row:
                v = x.valuation_pi()
                if v is not None and v < 0:
                    raise InvariantError(
                        "window model needs pi-integral generator matrices")
    return max(1, math.ceil((1 - v_phi) / (D.p - 1)))


def _out_depth(D: PhiGammaModule, b: int) -> int:
    """Bottom depth of a window holding every image of [-b, T): phi(pi^-b)
    reaches pi^(-pb - (p-1)(s-1)) (see build_ring_window), and a matrix entry
    whose least exponent is v < 0 carries an image -v further down."""
    p, s = D.p, D.s
    v = min((min(x.coeffs, default=0)
             for M in (D.phi, *(g.matrix for g in D.generators))
             for row in M for x in row), default=0)
    return p * b + max(2 * s + 4, (p - 1) * (s - 1) + 2 - min(v, 0))


def _assemble(T: GammaComplex, b: int, top: int):
    """Raw d0 and d1 from the depth-b window into the window of depth
    _out_depth(b), which holds every image, built by _herr_pair with the
    rows they keep, and the window data read from them.  Returns ((d0, e0,
    k0, d1), (cols, X, d0 X, e0, d1 diag(X, X), e1)): e0, k0 and e1 hold the
    exponent and the output component of each row (_herr_differentials).
    X is the Delta basis, or None in free mode, where it is the identity; cols
    holds the exponent of each basis vector, that of the diagonal 1 of E
    whose column it is."""
    D = T.module
    q = D.p ** D.s
    d0, e0, k0, d1, e1 = _herr_pair(D, b, _out_depth(D, b), top)
    win = np.tile(np.arange(-b, top), D.rank)
    if T.mode != "delta":
        return (d0, e0, k0, d1), (win, None, d0, e0, d1, e1)
    E = delta_project(D, b, top).matrix
    pos = np.flatnonzero(np.diagonal(E) == 1)
    X = E[:, pos]
    # d1 takes two window slots: d1 @ diag(X, X)
    w = X.shape[0]
    return (d0, e0, k0, d1), (win[pos], X, _matmul_mod(d0, X, q), e0,
                              np.hstack([_matmul_mod(d1[:, :w], X, q),
                                         _matmul_mod(d1[:, w:], X, q)]), e1)


def _window_data(T: GammaComplex, b: int, top: int, cache: dict):
    """(X, d0 X, e0, d1 diag(X, X), e1) on the depth-b window, into the rows
    of exponent at least -_out_depth(b), which hold every image; e0 and e1
    hold the exponent of each row.  X is the Delta basis, or None in free
    mode, where it is the identity.

    cache holds one assembled depth (_assemble), under that depth.  A depth
    at most that one is read off it as a corner: the rows of exponent at
    least -_out_depth(b), the columns of exponent at least -b, and for X the
    rows of exponent at least -b.  A deeper depth is assembled and replaces
    it.  Every entry depends only on its row, its column and the top, so a
    corner equals a fresh build, X included, but for zero rows: the corner
    keeps the rows the deeper build kept.  E is lower triangular in each
    block, so its corner is the projector of depth b, and its columns at a
    diagonal 1 of exponent at least -b have no entry below pi^-b."""
    held = max(cache, default=None)
    if held is None or held < b:
        cache.clear()
        cache[b] = _assemble(T, b, top)[1]
        held = b
    cols, X, d0, e0, d1, e1 = cache[held]
    if held == b:
        return X, d0, e0, d1, e1
    bo = _out_depth(T.module, b)
    c, r0, r1 = cols >= -b, e0 >= -bo, e1 >= -bo
    if X is not None:
        rows = np.tile(np.arange(-held, top), T.module.rank) >= -b
        X = X[np.ix_(rows, c)]
    # d1 diag(X, X) has the columns of X twice
    return X, d0[np.ix_(r0, c)], e0[r0], d1[np.ix_(r1, np.tile(c, 2))], e1[r1]


def _window_dims(T: GammaComplex, b: int, cache: dict):
    """Dims and profiles at depth b, read by _hn_dims.  A window reads the
    data of depths b and 2b, in that order, through cache (_window_data),
    which holds one assembled depth: a cache seeded at 2b or deeper
    assembles nothing, and an empty one assembles depth b, then depth 2b.
    Depth b gives the exact kernels of d0 and d1; depth 2b, cut at its rows
    of exponent below -b, gives the coboundaries B1 and B2 whose images stay
    above the cut.  Every row of exponent at least -b is kept, so B1 and B2
    have the coordinates of the depth-b window."""
    D = T.module
    p, s = D.p, D.s
    q = p ** s
    top = _tail_floor(D)
    if b < top:
        raise PrecisionError(f"window {b} below the acyclic-tail bound {top}")
    X0, d0s, _, d1s, _ = _window_data(T, b, top, cache)
    _, d0w, e0w, d1w, e1w = _window_data(T, 2 * b, top, cache)

    def deep_coboundaries(d, e):
        # images of the depth-2b kernel of d's rows below the cut
        below = e < -b
        return _matmul_mod(d[~below], _kernel_of(d[below], p, s)[0], q)

    return _hn_dims(d0s, d1s, deep_coboundaries(d0w, e0w),
                    deep_coboundaries(d1w, e1w), X0, p, s)


def _certify(T: GammaComplex, b: int, top: int, raw=None) -> None:
    """Exact composition d1 o d0 through a window wide enough to hold both
    images: d0 from the depth-b window into the depth-bo = _out_depth(b) one,
    d1 from there into the depth-_out_depth(bo) one.  Both are read off raw
    = (B, d0, e0, k0, d1), a raw pair of depth B (_assemble), when bo <= B:
    d0's rows of exponent at least -bo and its columns of exponent at least
    -b, and d1 whole, whose rows past pi^-_out_depth(bo) are zero on the
    columns read; and built otherwise.  The rows d0 leaves out are zero, so
    d1 is taken at the columns of the exponents and components of the rows
    d0 keeps.  InvariantError unless d1 o d0 is zero."""
    D = T.module
    bo = _out_depth(D, b)
    if raw is not None and bo <= raw[0]:
        B, d0, e0, k0, d1 = raw
        rows = e0 >= -bo
        cols = np.tile(np.arange(-B, top), D.rank) >= -b
        d0, e0, k0 = d0[np.ix_(rows, cols)], e0[rows], k0[rows]
    else:
        B, bo2 = bo, _out_depth(D, bo)
        d0, e0, k0 = _herr_pair(D, b, bo, top)[:3]
        # d1 = (1 - gamma, -(1 - phi)) builds 1 - gamma first: of two
        # operators short of certified entries, it names gamma's need
        gamma, phi = [_one_minus(D, t, bo, bo2, top)
                      for t in _herr_terms(D)[::-1]]
        d1 = _herr_differentials(D, phi, gamma, bo2, top)[3]
    # d0's output components are d1's input ones, each of depth B
    d1 = d1[:, k0 * (B + top) + e0 + B]
    if _matmul_mod(d1, d0, D.p ** D.s).any():
        raise InvariantError("d^2 != 0 on the certification window")


def certify_d_squared(T: GammaComplex, b: int) -> bool:
    """Exact composition d1 o d0 through a window wide enough to hold both
    images; zero entrywise or InvariantError."""
    _certify(T, b, _tail_floor(T.module))
    return True


def cohomology(T: GammaComplex, schedule=None) -> CohomologyReport:
    """Window-stabilized cohomology lengths (exact for finite complexes).

    Dims are accepted only when the last three schedule entries agree;
    otherwise the verdict is "unstable" and callers must not trust dims.
    The window data is assembled once, at twice the deepest schedule depth
    or at the depth bo = _out_depth(b) of the least depth b, whichever is
    deeper, and every window reads its depth and twice its depth as
    trailing corners of it (_window_data); so do d0 and d1 of the
    certification of d^2 = 0 at b, whose d1 starts at depth bo, and the raw
    pair is dropped once they are read.  If that assembly fails, the
    certification and the depths run one by one, as each is needed, so a
    failing schedule reports the error its first failing step raises.
    Before any of it, a schedule whose deepest window needs more than
    MAX_WINDOW_BYTES is refused (_check_window_bytes).
    """
    if T.kind == "finite":
        return _finite_report(T)
    schedule = tuple(schedule) if schedule else DEFAULT_SCHEDULE
    D = T.module
    top = _tail_floor(D)
    deepest = max(2 * max(schedule), _out_depth(D, min(schedule)))
    # d0 and d1 of the deepest window hold four operator blocks, each from
    # rank * (deepest + top) columns to at most rank * (_out_depth(deepest)
    # + top) rows
    _check_window_bytes(8 * 4 * D.rank**2 * (deepest + top)
                       * (_out_depth(D, deepest) + top),
                       f"the window of depth {deepest}")
    try:
        raw, data = _assemble(T, deepest, top)
    except (PrecisionError, InvariantError):
        _certify(T, min(schedule), top)
        cache = {}
    else:
        _certify(T, min(schedule), top, (deepest, *raw))
        del raw
        cache = {deepest: data}
    trace = []
    profiles = None
    for b in schedule:
        dims, profiles = _window_dims(T, b, cache)
        trace.append((b, dims))
    tail = [d for _, d in trace[-3:]]
    verdict = "stable" if len(tail) == 3 and len(set(tail)) == 1 else "unstable"
    dims = trace[-1][1]
    euler = sum((-1) ** i * d for i, d in enumerate(dims))
    return CohomologyReport(D.p, D.s, T.mode, T.kind, dims, profiles, euler,
                            tuple(trace), verdict, schedule)


# -- explicit cocycles -------------------------------------------------------


def geometric_gamma_sum(y: NormFieldElement, a: int,
                        chi: int) -> NormFieldElement:
    """(gamma^a - 1)/(gamma - 1) applied to y, i.e. sum_{i<a} gamma^i(y),
    with gamma^i acting through chi^i.

    Exact for integer a >= 0 (binary splitting).
    """
    if a < 0:
        raise ValueError("exponent must be nonnegative")
    p = y.p

    def rec(n):
        if n == 0:
            return NormFieldElement(p, y.m, {}, y.prec_num), 1
        if n % 2:
            sub, pw = rec(n - 1)
            return sub + y.gamma(pw), pw * chi
        half, pw = rec(n // 2)
        return half + half.gamma(pw), pw * pw

    return rec(a)[0]


@dataclass
class CocycleData:
    """Evaluation table of C_(x,y)(sigma) = ((sigma'-1)/(gamma-1))y
    - (sigma-1)b with (phi-1)b = x, over sampled sigma = (gamma-exponent,
    tower translation)."""

    pair: tuple
    solution: object
    obstruction: int
    table: tuple
    identity_checked: bool
    vanishes: bool


def explicit_cocycle(T: GammaComplex, pair, samples) -> CocycleData:
    """Evaluate the explicit 1-cocycle attached to a certified cone cocycle.

    sigma is sampled as (a, t): gamma^a on the coefficient ring and the
    tower translation theta -> theta + t on the Artin-Schreier layer that
    solves the constant obstruction of x.  Requires s = 1, rank 1.
    """
    D = T.module
    if D.s != 1 or D.rank != 1:
        raise ValueError("explicit cocycle evaluation needs s = 1, rank 1")
    p = D.p
    x, y = pair
    g = D.generator("gamma")
    chi = g.exponent
    # d1(x, y) = (1 - gamma)x - (1 - phi)y
    residual = ((x - g.matrix[0][0] * x.gamma(chi))
                - (y - D.phi[0][0] * y.frobenius()))
    if not residual.is_zero():
        raise InvariantError("input pair is not a 1-cocycle of the cone")

    xr, yr = x.reduce_mod_p(), y.reduce_mod_p()
    c = xr.terms().get(0, 0) % p
    x0 = xr - NormFieldElement.constant(p, c, xr.prec)
    sol = solve_as_general(x0)
    if sol.depth:
        raise DepthExceededError(
            "cocycle base point needs a layer beyond the constant part")
    b = sol.value

    def evaluate(a, t):
        val = geometric_gamma_sum(yr, a, chi)
        val = val - (b.gamma(chi ** a) - b)
        if c and t:
            val = val - NormFieldElement.constant(p, c * t % p, val.prec)
        return val

    table = []
    for a, t in samples:
        table.append((a, t % p, evaluate(a, t)))
    ok = True
    for (a1, t1, v1) in table:
        for (a2, t2, v2) in table:
            lhs = evaluate(a1 + a2, t1 + t2)
            rhs = v1 + v2.gamma(chi ** a1)
            if not (lhs - rhs).is_zero():
                ok = False
    shown = tuple((a, t, format_element(v)) for a, t, v in table)
    vanishes = all(v.is_zero() for _, _, v in table)
    return CocycleData((x, y), sol, c, shown, ok, vanishes)
