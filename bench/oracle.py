"""Closed-form oracles for the benchmark's checks.

Nothing here imports phigamma: every expected answer comes from a formula
or from data the generator planted, so a defect in the library cannot make
its own output look right.

Herr cohomology of Z/p^s(n) over Q_p (delta mode) or Q_p(zeta_p) (free
mode), after Herr 1998 (Bull. SMF 126):

- h0(n) = 0 in delta mode when n is not 0 mod (p-1); otherwise
  h0(n) = min(s, 1 + v_p(n)), the length of the chi^n-fixed part.
- h2(n) = h0(1 - n) by Tate duality.
- h1 = s * rank * [K:Q_p] + h0 + h2 by the Euler characteristic, with
  [K:Q_p] = 1 in delta mode and p - 1 in free mode.
"""

from __future__ import annotations

import re
from fractions import Fraction


def vp(n: int, p: int) -> float:
    """p-adic valuation of an integer; infinite at 0."""
    if n == 0:
        return float("inf")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def herr_h0(p: int, s: int, n: int, mode: str) -> int:
    if mode == "delta" and n % (p - 1):
        return 0
    return int(min(s, 1 + vp(n, p)))


def herr_dims(p: int, s: int, twists, mode: str) -> tuple:
    """(h0, h1, h2) of the direct sum of Z/p^s(n) over n in twists."""
    degree = 1 if mode == "delta" else p - 1
    h0 = sum(herr_h0(p, s, n, mode) for n in twists)
    h2 = sum(herr_h0(p, s, 1 - n, mode) for n in twists)
    h1 = s * len(twists) * degree + h0 + h2
    return (h0, h1, h2)


# -- the element syntax, read independently of normfield.parse_element ------

_TERM = re.compile(
    r"^(?:(\d+)\*)?pi\^\(?(-?\d+)(?:/(\d+))?\)?$|^(\d+)$")


def parse_terms(text: str, p: int) -> dict:
    """Exponent -> nonzero coefficient mod p of an element expression."""
    text = text.replace(" ", "")
    out: dict = {}
    if text == "0":
        return out
    for raw in text.split("+"):
        mt = _TERM.match(raw)
        if not mt:
            raise ValueError(f"cannot read term {raw!r}")
        if mt.group(4) is not None:
            e, c = Fraction(0), int(mt.group(4))
        else:
            e = Fraction(int(mt.group(2)), int(mt.group(3) or 1))
            c = int(mt.group(1) or 1)
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def format_terms(terms: dict) -> str:
    """Element expression for exponent -> coefficient data."""
    parts = []
    for e, c in sorted(terms.items()):
        e = Fraction(e)
        mono = (f"pi^{e.numerator}" if e.denominator == 1
                else f"pi^({e.numerator}/{e.denominator})")
        parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def below(terms: dict, cut) -> dict:
    return {e: c for e, c in terms.items() if e < cut}


def series_product(a: dict, b: dict, p: int, prec_a, prec_b):
    """Product of truncated Laurent series over F_p and its certified window
    min(v(a) + prec_b, v(b) + prec_a)."""
    cut = min(min(a) + prec_b, min(b) + prec_a)
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < cut:
                out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}, cut


def trace_projection(terms: dict, p: int, level: int) -> dict:
    """Normalized trace onto the level grid: keep the exponents e with
    e * p^level integral."""
    return {e: c for e, c in terms.items()
            if (e * p ** level).denominator == 1}


# -- complexes over Z/p^s with known cohomology ------------------------------


def elementary_profile(pairs, isolated, degree, p, s):
    """Cohomology profile at one degree of a split complex.

    pairs holds (source degree, k) for each summand Z/p^s --p^k--> Z/p^s,
    which contributes Z/p^k at both ends; isolated holds the degree of each
    lone Z/p^s.  The profile is the ascending list of elementary divisors.
    """
    out = [p ** k for src, k in pairs if k > 0 and degree in (src, src + 1)]
    out += [p ** s for d in isolated if d == degree]
    return sorted(out)
