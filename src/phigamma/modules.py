"""Etale (phi,Gamma)-modules as finite matrix data over the lift ring.

A module of rank r is a matrix Phi of ArithLiftElements (the action of phi
on a fixed basis) together with one matrix per topological generator of
Gamma, each tagged with the character exponent through which that generator
acts on the cyclotomic tower.  Coordinates transform semilinearly: the
entrywise twist is applied first, then the matrix (v -> Phi * v^phi and
v -> G * v^gamma).

The prime-to-p part of Gamma is not a generator entry; its action on a
twist is tracked by a character exponent mod (p-1), which is what separates
twists that share matrix data mod p from the trivial module.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .normfield import NormFieldElement
from .wittside import ArithLiftElement
from .zmodlin import _modulus, json_fields

__all__ = [
    "PhiGammaModule",
    "GeneratorEntry",
    "FixedLineReport",
    "make_module",
    "tate_twist",
    "dual_module",
    "tensor_product",
    "reduce_mod",
    "solve_phi_fixed",
    "module_to_json",
    "module_from_json",
    "identity_matrix",
    "mat_mul",
]

MODULE_FORMAT = "phigamma-module"
MODULE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# matrix helpers over ArithLiftElement


def identity_matrix(p: int, s: int, r: int, prec: int) -> list[list[ArithLiftElement]]:
    return [[ArithLiftElement.one(p, s, prec) if i == j
             else ArithLiftElement.zero(p, s, prec)
             for j in range(r)] for i in range(r)]


def mat_mul(A, B):
    r, m, c = len(A), len(B), len(B[0])
    out = []
    for i in range(r):
        row = []
        for j in range(c):
            acc = A[i][0] * B[0][j]
            for k in range(1, m):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_map(A, f):
    return [[f(x) for x in row] for row in A]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_kron(A, B):
    rb = len(B)
    return [[A[i // rb][j // rb] * B[i % rb][j % rb]
             for j in range(len(A[0]) * len(B[0]))]
            for i in range(len(A) * rb)]


def det_mod_p(A) -> NormFieldElement:
    """Determinant of the mod-p reduction, by cofactor expansion (small r)."""
    red = mat_map(A, lambda x: x.reduce_mod_p())

    def det(M):
        n = len(M)
        if n == 1:
            return M[0][0]
        acc = None
        for j in range(n):
            if M[0][j].is_zero():
                continue
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            t = M[0][j] * det(minor)
            if j % 2:
                t = -t
            acc = t if acc is None else acc + t
        return acc if acc is not None else NormFieldElement.zero(
            M[0][0].p, M[0][0].prec, M[0][0].m)

    return det(red)


def mat_inverse(A):
    """Gaussian elimination; pivots must be units of the lift ring."""
    r = len(A)
    p, s = A[0][0].p, A[0][0].s
    prec = min(x.prec_num for row in A for x in row)
    work = [[x.truncate_to_num(prec) for x in row] for row in A]
    inv = identity_matrix(p, s, r, prec)
    for col in range(r):
        piv = next((i for i in range(col, r)
                    if work[i][col].valuation_pi() is not None), None)
        if piv is None:
            raise InvariantError("matrix is not invertible mod p")
        work[col], work[piv] = work[piv], work[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pinv = work[col][col].inverse()
        work[col] = [x * pinv for x in work[col]]
        inv[col] = [x * pinv for x in inv[col]]
        for i in range(r):
            if i == col:
                continue
            f = work[i][col]
            if f.is_zero():
                continue
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
            inv[i] = [a - f * b for a, b in zip(inv[i], inv[col])]
    return inv


# ---------------------------------------------------------------------------
# module data


@dataclass(frozen=True)
class GeneratorEntry:
    tag: str
    matrix: tuple
    exponent: int  # character value of this generator on the cyclotomic tower


@dataclass(frozen=True)
class PhiGammaModule:
    p: int
    s: int
    rank: int
    phi: tuple
    generators: tuple  # of GeneratorEntry
    relative: bool = False
    delta_character_exponent: int = 0

    def generator(self, tag: str) -> GeneratorEntry:
        for g in self.generators:
            if g.tag == tag:
                return g
        raise KeyError(tag)

    def window(self) -> int:
        return min(x.prec_num for row in self.phi for x in row)


def _freeze(M):
    return tuple(tuple(row) for row in M)


def _thaw(M):
    return [list(row) for row in M]


def validate_module(D: PhiGammaModule) -> None:
    det = det_mod_p(_thaw(D.phi))
    if det.is_zero():
        raise InvariantError("not etale: det(Phi) vanishes mod p")
    phi = _thaw(D.phi)
    for g in D.generators:
        G = _thaw(g.matrix)
        lhs = mat_mul(phi, mat_map(G, lambda x: x.frobenius()))
        rhs = mat_mul(G, mat_map(phi, lambda x: x.gamma(g.exponent)))
        for i in range(D.rank):
            for j in range(D.rank):
                if not lhs[i][j].agrees_with(rhs[i][j]):
                    raise InvariantError(
                        f"commutation fails for generator {g.tag!r} "
                        f"at entry ({i}, {j})")


def make_module(p: int, s: int, phi, generators, relative: bool = False,
                delta_character_exponent: int = 0) -> PhiGammaModule:
    """Validated module; raises InvariantError naming the failed check."""
    gens = tuple(
        GeneratorEntry(g.tag, _freeze(g.matrix), g.exponent)
        if isinstance(g, GeneratorEntry)
        else GeneratorEntry(g[0], _freeze(g[1]), g[2])
        for g in generators)
    rank = len(phi)
    if not rank or any(len(M) != rank or any(len(row) != rank for row in M)
                       for M in [phi] + [g.matrix for g in gens]):
        raise ValueError("Phi and generator matrices must be r x r, r >= 1")
    D = PhiGammaModule(p, s, rank, _freeze(phi), gens, relative,
                       delta_character_exponent % (p - 1))
    validate_module(D)
    return D


def tate_twist(D: PhiGammaModule, n: int) -> PhiGammaModule:
    """Twist by the n-th power of the cyclotomic character.

    Phi is unchanged; each generator matrix is scaled by its character
    value to the n-th power, and the prime-to-p character exponent moves
    by n mod (p-1).
    """
    q = D.p**D.s
    gens = []
    for g in D.generators:
        a = g.exponent % q
        c = pow(a, n, q) if n >= 0 else pow(pow(a, -1, q), -n, q)
        gens.append(GeneratorEntry(
            g.tag, _freeze(mat_map(_thaw(g.matrix), lambda x: x.scale(c))),
            g.exponent))
    return PhiGammaModule(D.p, D.s, D.rank, D.phi, tuple(gens), D.relative,
                          (D.delta_character_exponent + n) % (D.p - 1))


def dual_module(D: PhiGammaModule) -> PhiGammaModule:
    phi_d = mat_inverse(mat_transpose(_thaw(D.phi)))
    gens = tuple(GeneratorEntry(
        g.tag, _freeze(mat_inverse(mat_transpose(_thaw(g.matrix)))),
        g.exponent) for g in D.generators)
    out = PhiGammaModule(D.p, D.s, D.rank, _freeze(phi_d), gens, D.relative,
                         (-D.delta_character_exponent) % (D.p - 1))
    validate_module(out)
    return out


def tensor_product(D1: PhiGammaModule, D2: PhiGammaModule) -> PhiGammaModule:
    if (D1.p, D1.s, D1.relative) != (D2.p, D2.s, D2.relative):
        raise ValueError("tensor factors live over different rings")
    tags1 = [g.tag for g in D1.generators]
    if tags1 != [g.tag for g in D2.generators]:
        raise ValueError("generator tags must match")
    phi = mat_kron(_thaw(D1.phi), _thaw(D2.phi))
    gens = tuple(GeneratorEntry(
        g1.tag, _freeze(mat_kron(_thaw(g1.matrix), _thaw(g2.matrix))),
        g1.exponent)
        for g1, g2 in zip(D1.generators, D2.generators))
    out = PhiGammaModule(D1.p, D1.s, D1.rank * D2.rank, _freeze(phi), gens,
                         D1.relative,
                         (D1.delta_character_exponent
                          + D2.delta_character_exponent) % (D1.p - 1))
    validate_module(out)
    return out


def reduce_mod(D: PhiGammaModule, n: int) -> PhiGammaModule:
    if n > D.s:
        raise ValueError("cannot reduce to a larger power")
    red = lambda x: x.reduce_power(n)
    out = PhiGammaModule(
        D.p, n, D.rank, _freeze(mat_map(_thaw(D.phi), red)),
        tuple(GeneratorEntry(g.tag, _freeze(mat_map(_thaw(g.matrix), red)),
                             g.exponent)
              for g in D.generators),
        D.relative, D.delta_character_exponent)
    validate_module(out)
    return out


# ---------------------------------------------------------------------------
# rank-1 phi-fixed probe


@dataclass
class FixedLineReport:
    status: str  # "line" or "inconclusive"
    solution: NormFieldElement | None
    nonzero_count: int
    detail: str = ""


def _root_of_unit_series(w: NormFieldElement, e: int) -> NormFieldElement | None:
    """Newton solve x^e = w for a unit series with constant residue 1."""
    p = w.p
    v = w.valuation()
    num = v * p**w.m
    if num % e:
        return None
    shift = NormFieldElement(p, w.m, {-int(num): 1},
                             w.prec_num + 2 * abs(int(num)) + 2)
    unit = w * shift
    if unit.terms().get(Fraction(0), 0) != 1:
        return None
    x = NormFieldElement.one(p, unit.prec, unit.m)
    einv = pow(e, -1, p)
    for _ in range(unit.prec_num.bit_length() + 2):
        r = x**e - unit
        if r.is_zero():
            break
        x = x - (r * (x ** (e - 1)).inverse()).scale(einv)
    if not (x**e - unit).is_zero():
        return None
    root_shift = NormFieldElement(p, w.m, {int(num) // e: 1}, w.prec_num)
    return x * root_shift


def solve_phi_fixed(D: PhiGammaModule) -> FixedLineReport:
    """Probe for the fixed line of v -> Phi * v^phi on a rank-1 module, s=1.

    u * v^p = v with u the Phi entry means v^(p-1) = u^(-1); the probe
    succeeds exactly when that Kummer root exists in the perfection tower,
    and reports inconclusive otherwise (never a fabricated answer).
    """
    if D.rank != 1 or D.s != 1:
        raise ValueError("probe supports rank 1 at s = 1 only")
    u = _thaw(D.phi)[0][0].reduce_mod_p()
    if u.is_zero():
        raise InvariantError("not etale")
    w = u.inverse()
    root = _root_of_unit_series(w, D.p - 1)
    if root is None:
        return FixedLineReport("inconclusive", None, 0,
                               "no (p-1)-th root in the perfection tower")
    # each c in F_p* scales the line; verify the fixed equation exactly
    if not (u * root.frobenius() - root).is_zero():
        return FixedLineReport("inconclusive", None, 0,
                               "candidate failed exact verification")
    return FixedLineReport("line", root, D.p - 1)


# ---------------------------------------------------------------------------
# description files

_LIFT_TERM = re.compile(
    r"\s*(?:(\d+)\s*\*\s*)?pi\^(\(?-?\d+\)?)\s*$|\s*(\d+)\s*$")


def format_lift(x: ArithLiftElement) -> str:
    if not x.coeffs:
        return "0"
    parts = []
    for n, c in sorted(x.coeffs.items()):
        if n == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"pi^{n}")
        else:
            parts.append(f"{c}*pi^{n}")
    return " + ".join(parts)


def parse_lift(text: str, p: int, s: int, prec: int) -> ArithLiftElement:
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        m = _LIFT_TERM.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        if m.group(3) is not None:
            n, c = 0, int(m.group(3))
        else:
            n = int(m.group(2).strip("()"))
            c = int(m.group(1)) if m.group(1) else 1
        coeffs[n] = coeffs.get(n, 0) + c
    return ArithLiftElement(p, s, coeffs, prec)


def module_to_json(D: PhiGammaModule) -> str:
    doc = {
        "format": MODULE_FORMAT,
        "version": MODULE_SCHEMA_VERSION,
        "p": D.p,
        "s": D.s,
        "rank": D.rank,
        "window": D.window(),
        "relative": D.relative,
        "delta_exponent": D.delta_character_exponent,
        "phi": [[format_lift(x) for x in row] for row in D.phi],
        "generators": [
            {"tag": g.tag, "exponent": g.exponent,
             "matrix": [[format_lift(x) for x in row] for row in g.matrix]}
            for g in D.generators],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def module_from_json(text: str) -> PhiGammaModule:
    doc = json_fields(json.loads(text), "module description file",
                      format=MODULE_FORMAT, version=MODULE_SCHEMA_VERSION,
                      p=int, s=int, window=int, phi=list, generators=list,
                      relative=(bool, False), delta_exponent=(int, 0))
    p, s, prec = doc["p"], doc["s"], doc["window"]
    _modulus(p, s)

    def matrix(rows):
        if any(not isinstance(r, list) or any(not isinstance(t, str) for t in r)
               for r in rows):
            raise ValueError("a matrix is a list of rows of element strings")
        return [[parse_lift(t, p, s, prec) for t in row] for row in rows]

    gens = [json_fields(g, "generator entry", tag=str, exponent=int,
                        matrix=list) for g in doc["generators"]]
    return make_module(p, s, matrix(doc["phi"]),
                       [(g["tag"], matrix(g["matrix"]), g["exponent"])
                        for g in gens],
                       doc["relative"], doc["delta_exponent"])
