"""Homological machinery over finite Z/p^s-modules.

Bounded cochain complexes of free Z/p^s-modules with exact cohomology,
mapping cones and their long exact sequences, first-quadrant double
complexes with column-filtration spectral pages checked against the total
complex, and lim/lim^1 of finitely stored towers.

Input is validated once, at the boundary.  Matrices given as arrays or
lists (the constructors of ChainComplexZ, ChainMap, ShortExactSequence,
DoubleComplex and Tower, and their from_json readers) go through the
validating ZModMatrix constructor, save a [] for a block with no rows,
which is its zero matrix (_matrix), and the readers bound ranks and degrees
before anything is sized from them.  Matrices built here from canonical
arrays (cones, their splitting maps, total complexes, window kernels and
the slices and blocks read from them, zero blocks) are wrapped by
ZModMatrix._trusted, and the structure checks (d^2 = 0, chain-map squares,
the splitting identities, anticommutation) compare canonical arrays.

Each page and each length is computed once.  d^2 = 0 is certified when a
complex is built, so cocycle and cohomology lengths come by rank-nullity
from the valuations of the differentials, and H^n is presented by one
elimination of [Z, -B] (its profile by zmodlin._subquotient_profile).
les_check and spectral_E_pages run under zmodlin.smith_memo, so at every s
a matrix is reduced once per call for its lengths and at most once more for
its kernel.  On a grid of W columns no d_r with r >= W has a target, so
E_W = E_∞ and the pages past W are copies of page W.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvariantError
from .zmodlin import (
    PresentedModule,
    ZModMatrix,
    _is_int,
    _mod,
    _presentation_in,
    _subquotient_profile,
    divisors_length,
    image_length,
    json_fields,
    kernel_generators,
    module_profile,
    smith_memo,
    subquotient_presentation,
)

__all__ = [
    "ChainComplexZ",
    "ChainMap",
    "ShortExactSequence",
    "DoubleComplex",
    "SpectralPage",
    "Tower",
    "mapping_cone",
    "cone_sequence",
    "les_check",
    "total_complex",
    "spectral_E_pages",
    "tower_lim_lim1",
    "subquotient_presentation",
]


def _rank(r) -> int:
    """A rank read from input: a nonnegative integer, never truncated."""
    if not _is_int(r) or r < 0:
        raise ValueError(f"rank {r!r} is not a nonnegative integer")
    return int(r)


# Sizes read from a file are bounded, so that a file cannot ask for dense
# arrays or loops far past the scope: a rank sizes square blocks (a cone of
# rank-r complexes works on 2r x 2r matrices), and a degree or grid
# coordinate sizes the walks over degrees, grid cells and pages.
MAX_FILE_RANK = 256
MAX_FILE_DEGREE = 64


def _check_file_sizes(ranks, degrees) -> None:
    """ValueError unless every rank is at most MAX_FILE_RANK and every
    degree or grid coordinate at most MAX_FILE_DEGREE in absolute value."""
    for r in ranks:
        if _rank(r) > MAX_FILE_RANK:
            raise ValueError(f"rank {r} exceeds the file limit of "
                             f"{MAX_FILE_RANK}")
    for n in degrees:
        if abs(n) > MAX_FILE_DEGREE:
            raise ValueError(f"degree or grid coordinate {n} exceeds the "
                             f"file limit of {MAX_FILE_DEGREE}")


def _matrix(p: int, s: int, value, rows: int, cols: int) -> ZModMatrix:
    """A given block of rows x cols, its shape unchecked: a ZModMatrix as it
    is, [] as the zero matrix if rows = 0 (JSON writes no 0 x cols array),
    anything else through the validating constructor."""
    if isinstance(value, ZModMatrix):
        return value
    if rows == 0 and isinstance(value, list) and not value:
        return ZModMatrix.zeros(p, s, 0, cols)
    return ZModMatrix(p, s, value)


def _block(table: dict, key, p: int, s: int, rows: int,
           cols: int) -> ZModMatrix:
    """The block stored under key, or the rows x cols zero matrix."""
    got = table.get(key)
    return got if got is not None else ZModMatrix.zeros(p, s, rows, cols)


def _hstack(p, s, mats):
    cols = [m.entries for m in mats if m.cols]
    if not cols:
        return ZModMatrix.zeros(p, s, mats[0].rows, 0)
    return ZModMatrix._trusted(p, s, np.hstack(cols))


def _is_identity(m: ZModMatrix) -> bool:
    return bool(np.array_equal(m.entries, np.eye(m.rows, dtype=np.int64)))


# -- chain complexes ---------------------------------------------------------


class ChainComplexZ:
    """Bounded cochain complex of free Z/p^s-modules; d^2 = 0 certified."""

    def __init__(self, p: int, s: int, ranks: dict, diffs: dict):
        self.p, self.s = p, s
        ranks = {int(n): _rank(r) for n, r in ranks.items()}
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.diffs = {}
        for n, d in diffs.items():
            n = int(n)
            d = _matrix(p, s, d, self.rank(n + 1), self.rank(n))
            if d.cols != self.rank(n) or d.rows != self.rank(n + 1):
                raise InvariantError(
                    f"differential at degree {n} has the wrong shape")
            if d.entries.any():
                self.diffs[n] = d
        for n in list(self.diffs):
            if n + 1 in self.diffs:
                if not (self.diffs[n + 1] @ self.diffs[n]).is_zero():
                    raise InvariantError(
                        f"d^2 != 0 between degrees {n} and {n + 2}")

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def degrees(self):
        degs = set(self.ranks)
        return range(min(degs), max(degs) + 1) if degs else range(0)

    def diff(self, n: int) -> ZModMatrix:
        return _block(self.diffs, n, self.p, self.s, self.rank(n + 1),
                      self.rank(n))

    def cocycles(self, n: int) -> ZModMatrix:
        """Columns generating ker d_n."""
        return kernel_generators(self.diff(n))

    def coboundaries(self, n: int) -> ZModMatrix:
        """Columns generating im d_{n-1}."""
        return self.diff(n - 1)

    def cocycle_length(self, n: int) -> int:
        """Length of ker d_n, s*rank(n) - l(d_n) by rank-nullity."""
        return self.s * self.rank(n) - image_length(self.diff(n))

    def cohomology(self, n: int) -> PresentedModule:
        """H^n presented on the cocycle generators; the cocycle length
        comes by rank-nullity, so only [Z, -B] is eliminated."""
        return _presentation_in(self.cocycles(n), self.coboundaries(n),
                                self.cocycle_length(n))

    def cohomology_profile(self, n: int) -> list:
        return _subquotient_profile(self.cocycles(n), self.coboundaries(n),
                                    self.cocycle_length(n))

    def cohomology_length(self, n: int) -> int:
        """l(H^n) = s*rank(n) - l(d_n) - l(d_(n-1)): d^2 = 0 is certified
        on construction, so im d_(n-1) lies in ker d_n."""
        return self.cocycle_length(n) - image_length(self.diff(n - 1))

    def shifted(self) -> "ChainComplexZ":
        """Degree shift without signs: degree n holds the old degree n-1
        with the same differential matrices."""
        ranks = {n + 1: r for n, r in self.ranks.items()}
        diffs = {n + 1: d for n, d in self.diffs.items()}
        return ChainComplexZ(self.p, self.s, ranks, diffs)

    def to_json(self) -> str:
        return json.dumps({
            "format": "chain-complex",
            "p": self.p, "s": self.s,
            "ranks": {str(n): r for n, r in sorted(self.ranks.items())},
            "diffs": {str(n): d.entries.tolist()
                      for n, d in sorted(self.diffs.items())},
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChainComplexZ":
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_doc(cls, doc) -> "ChainComplexZ":
        """The complex of a parsed chain-complex document."""
        doc = json_fields(doc, "chain-complex document",
                          format="chain-complex", p=int, s=int, ranks=dict,
                          diffs=dict)
        _check_file_sizes(doc["ranks"].values(), map(int, doc["ranks"]))
        return cls(doc["p"], doc["s"], doc["ranks"], doc["diffs"])


class ChainMap:
    """Degreewise matrices commuting with the differentials."""

    def __init__(self, src: ChainComplexZ, dst: ChainComplexZ, blocks: dict):
        if (src.p, src.s) != (dst.p, dst.s):
            raise InvariantError("chain map between different rings")
        self.src, self.dst = src, dst
        self.blocks = {}
        for n, f in blocks.items():
            n = int(n)
            f = _matrix(src.p, src.s, f, dst.rank(n), src.rank(n))
            if f.cols != src.rank(n) or f.rows != dst.rank(n):
                raise InvariantError(f"map block at degree {n} is misshaped")
            if f.entries.any():
                self.blocks[n] = f
        for n in self.src.degrees():
            lhs = dst.diff(n) @ self.block(n)
            rhs = self.block(n + 1) @ src.diff(n)
            if not np.array_equal(lhs.entries, rhs.entries):
                raise InvariantError(
                    f"not a chain map: square at degree {n} does not commute")

    def block(self, n: int) -> ZModMatrix:
        return _block(self.blocks, n, self.src.p, self.src.s,
                      self.dst.rank(n), self.src.rank(n))


def mapping_cone(f: ChainMap) -> ChainComplexZ:
    """Cone T^n = dst^{n-1} ⊕ src^n with d(α, β) = (dα + (-1)^n f β, dβ),
    n the target degree, so dst (in shifted degrees) includes as a
    subcomplex and src is the quotient, termwise split."""
    X, Y = f.src, f.dst
    p, s = X.p, X.s
    degs = sorted(set(X.ranks) | {n + 1 for n in Y.ranks})
    ranks = {n: Y.rank(n - 1) + X.rank(n) for n in degs}
    diffs = {}
    for n in degs:
        rows = Y.rank(n) + X.rank(n + 1)
        cols = ranks[n]
        if not rows or not cols:
            continue
        d = np.zeros((rows, cols), dtype=np.int64)
        ry = Y.rank(n)
        cy = Y.rank(n - 1)
        d[:ry, :cy] = Y.diff(n - 1).entries
        d[:ry, cy:] = (-1) ** (n + 1) * f.block(n).entries
        d[ry:, cy:] = X.diff(n).entries
        diffs[n] = ZModMatrix._trusted(p, s, _mod(d, p**s))
    return ChainComplexZ(p, s, ranks, diffs)


@dataclass
class ShortExactSequence:
    """Termwise split exact 0 → A → B → C → 0 with the splitting data.

    inc: A^n → B^n, proj: B^n → C^n, retr: B^n → A^n, sect: C^n → B^n
    satisfying proj∘inc = 0, retr∘inc = 1, proj∘sect = 1,
    inc∘retr + sect∘proj = 1 degreewise; inc and proj are chain maps.
    """

    A: ChainComplexZ
    B: ChainComplexZ
    C: ChainComplexZ
    inc: dict
    proj: dict
    retr: dict
    sect: dict

    def __post_init__(self):
        A, B, C = self.A, self.B, self.C
        for table, src, dst in ((self.inc, A, B), (self.proj, B, C),
                                (self.retr, B, A), (self.sect, C, B)):
            for n in list(table):
                table[n] = _matrix(B.p, B.s, table[n], dst.rank(n),
                                   src.rank(n))
        for n in B.degrees():
            i = self.mat(self.inc, n, A, B)
            pr = self.mat(self.proj, n, B, C)
            r = self.mat(self.retr, n, B, A)
            se = self.mat(self.sect, n, C, B)
            if not (pr @ i).is_zero():
                raise InvariantError("proj ∘ inc != 0")
            if not _is_identity(r @ i):
                raise InvariantError("retr ∘ inc != 1")
            if not _is_identity(pr @ se):
                raise InvariantError("proj ∘ sect != 1")
            if not _is_identity(i @ r + se @ pr):
                raise InvariantError("splitting does not sum to the identity")
        ChainMap(self.A, self.B, dict(self.inc))
        ChainMap(self.B, self.C, dict(self.proj))

    @staticmethod
    def mat(table, n, src, dst):
        return _block(table, n, src.p, src.s, dst.rank(n), src.rank(n))


def cone_sequence(f: ChainMap) -> ShortExactSequence:
    """The termwise split sequence dst-part → Cone(f) → src."""
    T = mapping_cone(f)
    X, Y = f.src, f.dst
    p, s = X.p, X.s
    A = Y.shifted()
    inc, proj, retr, sect = {}, {}, {}, {}
    for n in T.degrees():
        ry, rx = Y.rank(n - 1), X.rank(n)
        if not ry + rx:
            continue
        i = np.zeros((ry + rx, ry), dtype=np.int64)
        i[:ry] = np.eye(ry, dtype=np.int64)
        pr = np.zeros((rx, ry + rx), dtype=np.int64)
        pr[:, ry:] = np.eye(rx, dtype=np.int64)
        inc[n] = ZModMatrix._trusted(p, s, i)
        proj[n] = ZModMatrix._trusted(p, s, pr)
        retr[n] = inc[n].transpose()
        sect[n] = proj[n].transpose()
    return ShortExactSequence(A, T, X, inc, proj, retr, sect)


def _induced_image_length(gens: ZModMatrix, bnd: ZModMatrix) -> int:
    """Length of (span(gens) + span(bnd)) / span(bnd)."""
    p, s = gens.p, gens.s
    return image_length(_hstack(p, s, [gens, bnd])) - image_length(bnd)


@smith_memo()
def les_check(ses: ShortExactSequence) -> dict:
    """Exactness of the long cohomology sequence at every node.

    At each node the incoming image is compared with the outgoing kernel
    by exact length bookkeeping from zmodlin; the connecting map
    is computed on cocycle generators (lift by the section, apply the
    middle differential, pull back by the retraction) and its landing in
    the cocycles is certified.  The first failing node is reported, and
    "profiles" holds the elementary divisors of H^n(B) per degree of B.
    """
    A, B, C = ses.A, ses.B, ses.C
    p, s = B.p, B.s
    degs = sorted(set(A.ranks) | set(B.ranks) | set(C.ranks))
    if not degs:
        return {"exact": True, "nodes": 0, "first_failure": None,
                "profiles": {}}
    lo, hi = degs[0] - 1, degs[-1] + 1
    # cocycles and cohomology lengths are computed once per degree here and
    # kept only for this call: ``diffs`` is public and may change between
    # calls.  Cocycle and cohomology lengths come by rank-nullity from
    # valuations the memo already holds, and H^n(B) is presented with its
    # cocycle length, so its cocycle generators are not eliminated again
    data, profiles = {}, {}
    for n in range(lo, hi + 2):
        i_n = ses.mat(ses.inc, n, A, B)
        p_n = ses.mat(ses.proj, n, B, C)
        r_n1 = ses.mat(ses.retr, n + 1, B, A)
        s_n = ses.mat(ses.sect, n, C, B)
        ZA, ZB, ZC = A.cocycles(n), B.cocycles(n), C.cocycles(n)
        BB, BC = B.coboundaries(n), C.coboundaries(n)
        im_i = _induced_image_length(i_n @ ZA, BB)
        im_p = _induced_image_length(p_n @ ZB, BC)
        delta_gens = r_n1 @ (B.diff(n) @ (s_n @ ZC))
        im_d = _induced_image_length(delta_gens, A.coboundaries(n + 1))
        hA = A.cohomology_length(n)
        profiles[n] = _subquotient_profile(ZB, BB, B.cocycle_length(n))
        hB = divisors_length(p, profiles[n])
        hC = C.cohomology_length(n)
        data[n] = (im_i, im_p, im_d, hA, hB, hC, delta_gens, ZA)
    verdict = {"exact": True, "first_failure": None,
               "profiles": {n: profiles[n] for n in B.degrees()}}
    checked = 0
    for n in range(lo, hi + 1):
        im_i, im_p, im_d, hA, hB, hC, dg, _ = data[n]
        za1 = data[n + 1][7]
        if image_length(_hstack(p, s, [za1, dg])) != A.cocycle_length(n + 1):
            return dict(verdict, exact=False, nodes=checked,
                        first_failure=(f"delta at degree {n}",
                                       "image is not made of cocycles"))
        nodes = (
            (f"H^{n}(B)", im_i, hB - im_p),
            (f"H^{n}(C)", im_p, hC - im_d),
            (f"H^{n + 1}(A)", im_d, data[n + 1][3] - data[n + 1][0]),
        )
        for label, im, ker in nodes:
            checked += 1
            if im != ker:
                return dict(verdict, exact=False, nodes=checked,
                            first_failure=(label, im, ker))
    return dict(verdict, nodes=checked)


# -- double complexes and spectral pages -------------------------------------


class DoubleComplex:
    """Bounded first-quadrant grid with anticommuting differentials
    (d_h d_v + d_v d_h = 0); the total differential is d_h + d_v."""

    def __init__(self, p: int, s: int, ranks: dict, dh: dict, dv: dict):
        self.p, self.s = p, s
        self.ranks = {}
        for key, r in ranks.items():
            pq = self._key(key)
            if pq[0] < 0 or pq[1] < 0:
                raise InvariantError("grid must be first-quadrant")
            r = _rank(r)
            if r:
                self.ranks[pq] = r
        self.dh, self.dv = {}, {}
        for name, table, given, (i, j) in (("d_h", self.dh, dh, (1, 0)),
                                           ("d_v", self.dv, dv, (0, 1))):
            for key, v in given.items():
                a, b = self._key(key)
                shape = (self.rank(a + i, b + j), self.rank(a, b))
                m = table[a, b] = _matrix(p, s, v, *shape)
                if (m.rows, m.cols) != shape:
                    raise InvariantError(f"{name} at {(a, b)} is misshaped")
        for pq in self.ranks:
            pp, qq = pq
            if not (self.d_h(pp + 1, qq) @ self.d_h(pp, qq)).is_zero():
                raise InvariantError(f"d_h^2 != 0 at {pq}")
            if not (self.d_v(pp, qq + 1) @ self.d_v(pp, qq)).is_zero():
                raise InvariantError(f"d_v^2 != 0 at {pq}")
            vh = self.d_v(pp + 1, qq) @ self.d_h(pp, qq)
            hv = self.d_h(pp, qq + 1) @ self.d_v(pp, qq)
            if not np.array_equal(vh.entries, (-hv).entries):
                raise InvariantError(
                    f"differentials do not anticommute at {pq}")

    @staticmethod
    def _key(key):
        """(p, q) from a grid key: a pair, or a string "p,q" as files give."""
        try:
            a, b = key.split(",") if isinstance(key, str) else key
            return (int(a), int(b))
        except (TypeError, ValueError):
            raise ValueError(f"grid key {key!r} is not of the form "
                             "'p,q'") from None

    def rank(self, pp: int, qq: int) -> int:
        return self.ranks.get((pp, qq), 0)

    def d_h(self, pp: int, qq: int) -> ZModMatrix:
        return _block(self.dh, (pp, qq), self.p, self.s,
                      self.rank(pp + 1, qq), self.rank(pp, qq))

    def d_v(self, pp: int, qq: int) -> ZModMatrix:
        return _block(self.dv, (pp, qq), self.p, self.s,
                      self.rank(pp, qq + 1), self.rank(pp, qq))

    def extent(self):
        if not self.ranks:
            return 0, 0
        return (max(pp for pp, _ in self.ranks) + 1,
                max(qq for _, qq in self.ranks) + 1)

    def to_json(self) -> str:
        return json.dumps({
            "format": "double-complex",
            "p": self.p, "s": self.s,
            "ranks": {f"{pp},{qq}": r
                      for (pp, qq), r in sorted(self.ranks.items())},
            "dh": {f"{pp},{qq}": m.entries.tolist()
                   for (pp, qq), m in sorted(self.dh.items())},
            "dv": {f"{pp},{qq}": m.entries.tolist()
                   for (pp, qq), m in sorted(self.dv.items())},
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DoubleComplex":
        doc = json_fields(json.loads(text), "double-complex document",
                          format="double-complex", p=int, s=int, ranks=dict,
                          dh=dict, dv=dict)
        _check_file_sizes(doc["ranks"].values(),
                          (n for key in doc["ranks"] for n in cls._key(key)))
        return cls(doc["p"], doc["s"], doc["ranks"], doc["dh"], doc["dv"])


def total_complex(DC: DoubleComplex) -> ChainComplexZ:
    """Tot^n = ⊕_{p+q=n} C^{p,q} with differential d_h + d_v."""
    W, H = DC.extent()
    ranks, offsets = {}, {}
    for n in range(W + H - 1):
        off, total = {}, 0
        for pp in range(max(0, n - H + 1), min(W, n + 1)):
            if DC.rank(pp, n - pp):
                off[(pp, n - pp)] = total
                total += DC.rank(pp, n - pp)
        if total:
            ranks[n] = total
            offsets[n] = off
    diffs = {}
    for n, off in offsets.items():
        if n + 1 not in offsets:
            continue
        d = np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
        off2 = offsets[n + 1]
        for (pp, qq), c0 in off.items():
            r = DC.rank(pp, qq)
            if (pp + 1, qq) in off2:
                r0 = off2[(pp + 1, qq)]
                d[r0:r0 + DC.rank(pp + 1, qq), c0:c0 + r] = \
                    DC.d_h(pp, qq).entries
            if (pp, qq + 1) in off2:
                r0 = off2[(pp, qq + 1)]
                d[r0:r0 + DC.rank(pp, qq + 1), c0:c0 + r] = \
                    DC.d_v(pp, qq).entries
        # every entry comes from one block, so d is canonical
        diffs[n] = ZModMatrix._trusted(DC.p, DC.s, d)
    return ChainComplexZ(DC.p, DC.s, ranks, diffs)


@dataclass
class SpectralPage:
    """One page of the column-filtration spectral sequence: the profiles
    and lengths of E_r^{p,q}, plus the length of each d_r image measured
    inside the target spot (keyed by the source spot)."""

    r: int
    profiles: dict
    lengths: dict
    d_lengths: dict

    def length(self, pp: int, qq: int) -> int:
        return self.lengths.get((pp, qq), 0)


def _window_kernel(DC: DoubleComplex, cols_idx, rows_idx, memo: dict):
    """Kernel generators for the total-differential constraints carrying
    the listed column spots into the listed row spots.  They depend only on
    the two lists, which repeat from page to page once the window covers
    the grid, so each is computed once per memo."""
    key = (tuple(cols_idx), tuple(rows_idx))
    if key in memo:
        return memo[key]
    p, s = DC.p, DC.s
    sizes = [DC.rank(*pq) for pq in cols_idx]
    row_sizes = [DC.rank(*pq) for pq in rows_idx]
    M = np.zeros((sum(row_sizes), sum(sizes)), dtype=np.int64)
    roff = np.cumsum([0] + row_sizes)
    coff = np.cumsum([0] + sizes)
    for j, (cp, cq) in enumerate(cols_idx):
        for i, (rp, rq) in enumerate(rows_idx):
            if (rp, rq) == (cp, cq + 1):
                blk = DC.d_v(cp, cq).entries
            elif (rp, rq) == (cp + 1, cq):
                blk = DC.d_h(cp, cq).entries
            else:
                continue
            M[roff[i]:roff[i + 1], coff[j]:coff[j + 1]] = blk
    memo[key] = kernel_generators(ZModMatrix._trusted(p, s, M)), coff
    return memo[key]


def _zr_span(DC: DoubleComplex, pp: int, qq: int, r: int, memo: dict):
    """Leading components of x ∈ F_p Tot with dx ∈ F_{p+r}, and the d_r
    values d_h(x_{p+r-1}) of the same generating solutions."""
    p, s = DC.p, DC.s
    tgt_rank = DC.rank(pp + r, qq - r + 1)
    cols_idx = [(pp + t, qq - t) for t in range(r)
                if qq - t >= 0 and DC.rank(pp + t, qq - t)]
    rows_idx = [(pp + t, qq - t + 1) for t in range(r)
                if DC.rank(pp + t, qq - t + 1)]
    K, coff = _window_kernel(DC, cols_idx, rows_idx, memo)
    lead = ZModMatrix._trusted(p, s, K.entries[: DC.rank(pp, qq)])
    last = (pp + r - 1, qq - r + 1)
    if cols_idx and cols_idx[-1] == last and tgt_rank:
        j = len(cols_idx) - 1
        dr = DC.d_h(*last) @ ZModMatrix._trusted(
            p, s, K.entries[coff[j]:coff[j + 1]])
    else:
        dr = ZModMatrix.zeros(p, s, tgt_rank, K.cols)
    return lead, dr


def _br_span(DC: DoubleComplex, pp: int, qq: int, r: int,
             memo: dict) -> ZModMatrix:
    """Column-p components of d(y) for y ∈ F_{p-r+1} with dy ∈ F_p."""
    p, s = DC.p, DC.s
    tgt = DC.rank(pp, qq)
    cols_idx = [(pp - t, qq + t - 1) for t in range(r - 1, -1, -1)
                if pp - t >= 0 and qq + t - 1 >= 0
                and DC.rank(pp - t, qq + t - 1)]
    if not cols_idx:
        return ZModMatrix.zeros(p, s, tgt, 0)
    rows_idx = [(pp - t, qq + t) for t in range(r - 1, 0, -1)
                if DC.rank(pp - t, qq + t)]
    K, coff = _window_kernel(DC, cols_idx, rows_idx, memo)
    acc = ZModMatrix.zeros(p, s, tgt, K.cols)
    for j, (cp, cq) in enumerate(cols_idx):
        blk = ZModMatrix._trusted(p, s, K.entries[coff[j]:coff[j + 1]])
        if (cp + 1, cq) == (pp, qq):
            acc = acc + DC.d_h(cp, cq) @ blk
        if (cp, cq + 1) == (pp, qq):
            acc = acc + DC.d_v(cp, cq) @ blk
    return acc


def _page(DC: DoubleComplex, r: int, kernels: dict) -> SpectralPage:
    """Page E_r: the profile and length of Z_r / B_r at every spot, and
    the length of each d_r image inside its target's E_r.  kernels holds the
    window kernels by spot lists (_window_kernel), shared between pages."""
    p = DC.p
    spots = sorted(DC.ranks)
    profiles, lengths, d_lengths = {}, {}, {}
    # a d_r with a nonzero target lands on a spot, so every B_r span this
    # page needs is one of these
    Bsp = {pq: _br_span(DC, *pq, r, kernels) for pq in spots}
    for pp, qq in spots:
        Z, dr = _zr_span(DC, pp, qq, r, kernels)
        prof = module_profile(subquotient_presentation(Z, Bsp[(pp, qq)]))
        profiles[(pp, qq)] = list(prof)
        lengths[(pp, qq)] = divisors_length(p, prof)
        if dr.rows and dr.cols:
            Bt = Bsp[(pp + r, qq - r + 1)]
            d_lengths[(pp, qq)] = _induced_image_length(dr, Bt)
        else:
            d_lengths[(pp, qq)] = 0
    return SpectralPage(r, profiles, lengths, d_lengths)


@smith_memo()
def spectral_E_pages(DC: DoubleComplex, r_max: int | None = None):
    """Pages E_1 .. E_{r_max} of the column filtration plus the abutment
    comparison against the total complex.

    On a grid of W columns and H rows, a page r > c = min(W, H + 1) is page
    c relabelled, sharing its dicts (E_c = E_∞).  The spot lists of a Z_r
    or B_r span step one column and one row per step of r, so they stop
    growing once r reaches W, the grid's width, or H + 1, past which every
    row they would add is below row 0 or above row H - 1; and from page c
    on no d_r has a target: it lands in a column >= W, which holds no spot,
    or, for r > H, in the row q - r + 1 < 0.  Passage from page to page,
    copies included, is certified by exact length bookkeeping: the length
    of E_{r+1}^{p,q} must equal the length of ker d_r / im d_r on page r, else
    InvariantError.  Returns (pages, abutment) where the abutment dict pairs
    each E_∞ diagonal sum with the total cohomology length in that degree
    (by rank-nullity, ChainComplexZ.cohomology_length).
    """
    W, H = DC.extent()
    if r_max is None:
        r_max = max(W + H, 2)
    spots = sorted(DC.ranks)
    pages = []
    # window kernels by spot lists, which repeat between pages once a span
    # reaches the grid's edge
    kernels = {}
    settled = max(min(W, H + 1), 1)
    for r in range(1, r_max + 1):
        if r > settled:
            page = replace(pages[-1], r=r)
        else:
            page = _page(DC, r, kernels)
        if pages:
            prev = pages[-1]
            for pp, qq in spots:
                leave = prev.d_lengths.get((pp, qq), 0)
                back = r - 1
                arrive = prev.d_lengths.get((pp - back, qq + back - 1), 0)
                want = prev.length(pp, qq) - leave - arrive
                if want != page.length(pp, qq):
                    raise InvariantError(
                        f"page passage failed at {(pp, qq)} from page "
                        f"{r - 1}: expected length {want}, got "
                        f"{page.length(pp, qq)}")
        pages.append(page)
    tot = total_complex(DC)
    last = pages[-1]
    abutment = {"equal": True, "degrees": {}}
    for n in range(max(W + H - 1, 1)):
        diag = sum(last.length(pp, n - pp) for pp in range(0, n + 1))
        tlen = tot.cohomology_length(n)
        abutment["degrees"][n] = (diag, tlen)
        if diag != tlen:
            abutment["equal"] = False
    return pages, abutment


# -- towers ------------------------------------------------------------------


@dataclass
class Tower:
    """Finitely stored inverse system N_0 ← N_1 ← ... with a declared
    tail convention ("constant": repeat the last module and transition
    forever; "zero": the system vanishes beyond the stored range)."""

    p: int
    s: int
    ranks: list
    maps: list  # maps[n]: N_{n+1} -> N_n
    tail: str = "constant"

    def __post_init__(self):
        if self.tail not in ("constant", "zero"):
            raise InvariantError("tail convention must be constant or zero")
        self.ranks = [_rank(r) for r in self.ranks]
        if len(self.maps) != max(len(self.ranks) - 1, 0):
            raise InvariantError("need exactly one map per adjacent pair")
        self.maps = [_matrix(self.p, self.s, m, self.ranks[n],
                             self.ranks[n + 1])
                     for n, m in enumerate(self.maps)]
        for n, m in enumerate(self.maps):
            if m.cols != self.ranks[n + 1] or m.rows != self.ranks[n]:
                raise InvariantError(f"transition {n} is misshaped")
        if self.tail == "constant" and len(self.ranks) >= 2 and \
                self.ranks[-1] != self.ranks[-2]:
            raise InvariantError(
                "constant tail needs matching final ranks to repeat the "
                "last transition")

    def tail_map(self) -> ZModMatrix:
        if self.maps:
            return self.maps[-1]
        return ZModMatrix.identity(self.p, self.s, self.ranks[-1])

    def to_json(self) -> str:
        return json.dumps({
            "format": "tower",
            "p": self.p, "s": self.s,
            "ranks": list(self.ranks),
            "maps": [m.entries.tolist() for m in self.maps],
            "tail": self.tail,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Tower":
        doc = json_fields(json.loads(text), "tower document", format="tower",
                          p=int, s=int, ranks=list, maps=list, tail=str)
        if doc["tail"] not in ("constant", "zero"):
            raise ValueError(f"tower document: tail {doc['tail']!r} is "
                             "neither constant nor zero")
        _check_file_sizes(doc["ranks"], ())
        return cls(doc["p"], doc["s"], doc["ranks"], doc["maps"],
                   doc["tail"])


def tower_lim_lim1(T: Tower):
    """(lim, lim^1) of the tower as presented modules.

    lim: with a zero tail every thread eventually vanishes and pulls back
    to zero, so lim = 0.  With a constant tail the repeated transition
    acts bijectively on its eventual image, so lim is that image: the
    image of d^n for any n > s·rank, here a power of 2 by squaring.
    lim^1 = 0: a tower of finite modules is Mittag-Leffler (its images
    form descending chains of finite submodules, which stabilize), and a
    Mittag-Leffler tower has no lim^1.
    """
    p, s = T.p, T.s
    if T.tail == "zero" or not T.ranks:
        lim = PresentedModule.free(p, s, 0)
    else:
        ev = T.tail_map()
        for _ in range((s * T.ranks[-1]).bit_length()):
            ev = ev @ ev
        lim = subquotient_presentation(
            ev, ZModMatrix.zeros(p, s, ev.rows, 0))
    return lim, PresentedModule.free(p, s, 0)
