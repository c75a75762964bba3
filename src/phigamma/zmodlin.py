"""Exact linear algebra over Z/p^s.

Matrices carry their modulus (p, s) with entries stored in int64 as
canonical representatives in [0, p^s).  Input is validated once, at the
boundary: the public constructor ZModMatrix(p, s, entries) checks the
modulus and copies and reduces its entries mod p^s; entries given as
anything but an integer ndarray (such as parsed JSON) must be integers of
any size, checked by one scan of their types (_reduced_entries).  The
modulus must satisfy (p^s - 1)^2 < 2^63, so that a product of two entries
fits in int64.  json_fields checks the top-level fields of the JSON
documents the package reads.  Past the boundary, arrays this package
produced are trusted: products, sums, kernel columns, zero and identity
blocks and slices of canonical arrays are wrapped by ZModMatrix._trusted,
with no copy and no reduction, and must already be int64 and canonical.

This module holds the package's Z/p^s elimination, its F_p echelon and its
product of matrices mod p^s; the Herr window engine (complexes), the
decompletion comparison (tatesen) and the homological engine (homotopy)
all read lengths, kernels and profiles from it.  Products (_matmul_mod) are
summed over slices of the inner dimension whose length k follows from
q = p^s: float64 BLAS while (q-1)^2 k < 2^53, int64 while (q-1)^2 k < 2^63.

The elimination (_eliminate) is a Smith normal form adapted to the local
ring Z/p^s: the pivot is the first entry of least p-adic valuation of the
trailing block in row-major order, so the pivots' valuations, those of
the Smith diagonal, do not decrease; at valuation s - 1 the search only
tests entries for zero.  Its input is scratch, and it carries no row
transform: V, as the rows of Vt, only when a kernel is asked for.
A step updates only the rows and columns reached by its pivot's column and
row, and ends at its swaps if its pivot row has no other nonzero entry.
Kernels, subquotients and profiles at s > 1 derive from it.

The packed F_p echelon (_fp_echelon) works on columns packed one Python
integer each, one lane of 8, 16, 32 or 64 bits per row (_lanes, _pack), so
that a column operation is a few integer operations over the whole
column, and each lane is reduced mod p by one Barrett multiply-shift
(Dumas, Fousse and Salvy's simultaneous modular reduction); every p < 4096
fits a lane.  Columns are reduced left to right against a table of the
earlier columns' leads, their least nonzero lanes, by one loop (_reduce).
At s = 1 (_packs) _kernel and _subquotient_profile read the echelon, and
so does every kernel, length and profile built on them, so no caller
chooses a path.  It carries no transforms: a kernel comes from identity
lanes packed after the row lanes.  FpSystem, the F_p systems of tatesen's
TS3 solve, packs its matrix once; a corner A[t:, t:] drops t lanes of each
remaining column, and a solve runs the same loop with a log of its
operations, which it undoes.  No other module knows the lane format.

_kernel is the one front door at every s: inside smith_memo it answers a
matrix it has reduced before from the memo, whichever path reduced it.

Finite modules are presented as cokernels of relation matrices
(PresentedModule); their isomorphism class is captured by the list of
p-power elementary divisors (module_profile).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantError

__all__ = [
    "ZModMatrix",
    "PresentedModule",
    "divisors_length",
    "kernel_cokernel",
    "module_profile",
    "subquotient_presentation",
]


_INT64_BOUND = 2**63


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def json_fields(doc, what: str, **fields) -> dict:
    """doc as a JSON object whose fields have the given kinds: a type (int
    excludes bool), a (type, default) pair if optional, or a value to equal.
    ValueError naming what otherwise; constructors check nested values."""
    if not isinstance(doc, dict):
        raise ValueError(f"not a {what}")
    doc = dict(doc)
    for key, kind in fields.items():
        if isinstance(kind, tuple):
            kind, default = kind
            doc.setdefault(key, default)
        value = doc.get(key)
        if not isinstance(kind, type):
            if type(value) is not type(kind) or value != kind:
                raise ValueError(f"not a {what}: {key} is {value!r}")
        elif not (_is_int(value) if kind is int else isinstance(value, kind)):
            raise ValueError(f"{what}: {key} is missing or not of type "
                             f"{kind.__name__}")
    return doc


_as_int = np.frompyfunc(int, 1, 1)  # an object array's entries as ints


def _reduced_entries(entries, q: int) -> np.ndarray:
    """Integer entries of any size, reduced mod q, as an int64 array.

    One scan of the entries' types: when every entry is a Python int the
    object array is reduced and converted as it is; otherwise the first
    entry that is no integer (bool excluded) is named, and numpy integers
    become Python ints, so that no fixed-width arithmetic meets q."""
    a = np.array(entries, dtype=object)
    if a.ndim != 2:
        raise ValueError("entries must be two-dimensional")
    if not set(map(type, a.flat)) <= {int}:
        for x in a.flat:
            if not _is_int(x):
                raise ValueError(f"matrix entry {x!r} is not an integer")
        a = _as_int(a)
    return (a % q).astype(np.int64)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q, in place, for an int64 array, by floor division: numpy's
    floor division of int64 by a scalar is several times cheaper than its
    remainder."""
    t = x // q
    t *= q
    x -= t
    return x


_FLOAT_BOUND = 2**53


def _matmul_mod(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """Exact A @ B mod q for int64 matrices with entries in [0, q).

    The inner dimension is summed in slices of length k with (q-1)^2 k
    below 2^53 in float64 BLAS, where every partial sum is an exactly
    represented integer, or, when (q-1)^2 >= 2^53, below 2^63 in int64.
    A modulus with (q-1)^2 >= 2^63 is refused, as everywhere in this module.
    """
    c = (q - 1) ** 2
    if c >= _INT64_BOUND:
        raise ValueError(f"modulus {q} is too large for int64 arithmetic: "
                         "need (q - 1)^2 < 2^63")
    dtype, bound = ((np.float64, _FLOAT_BOUND) if c < _FLOAT_BOUND
                    else (np.int64, _INT64_BOUND))
    step = (bound - 1) // c
    assert c * step < bound
    out = None
    for i in range(0, A.shape[1], step):
        part = _mod((A[:, i:i + step].astype(dtype, copy=False)
                     @ B[i:i + step].astype(dtype, copy=False)
                     ).astype(np.int64, copy=False), q)
        out = part if out is None else _mod(out + part, q)
    if out is None:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    return out


@lru_cache(maxsize=64, typed=True)
def _modulus(p: int, s: int) -> int:
    """p^s after checking that Z/p^s is a ring this module can work in."""
    if not (_is_int(p) and _is_int(s)):
        raise ValueError(f"p = {p!r} and s = {s!r} must be integers")
    if s < 1:
        raise ValueError(f"s = {s} must be positive")
    if p < 2:
        raise ValueError(f"p = {p} is not prime")
    if s >= 63 or (p**s - 1) ** 2 >= _INT64_BOUND:
        raise ValueError(f"modulus {p}^{s} is too large for int64 "
                         "arithmetic: need (p^s - 1)^2 < 2^63")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p**s


class ZModMatrix:
    """Matrix over Z/p^s with canonical int64 entries in [0, p^s).

    ZModMatrix(p, s, entries) validates the modulus and copies and reduces
    the entries; _trusted wraps an array this package produced."""

    __slots__ = ("p", "s", "rows", "cols", "entries")

    def __init__(self, p: int, s: int, entries):
        q = _modulus(p, s)
        self.p = p
        self.s = s
        if isinstance(entries, np.ndarray) and entries.dtype.kind == "i":
            if entries.ndim != 2:
                raise ValueError("entries must be two-dimensional")
            self.entries = _mod(entries.astype(np.int64), q)
        else:
            self.entries = _reduced_entries(entries, q)
        self.rows, self.cols = self.entries.shape

    @classmethod
    def _trusted(cls, p: int, s: int, entries: np.ndarray) -> "ZModMatrix":
        """A matrix on entries, a two-dimensional int64 array already
        canonical in [0, p^s) over a modulus already checked: no copy, no
        reduction, no check.  The array is shared, so it must not be
        written to afterwards."""
        m = cls.__new__(cls)
        m.p, m.s, m.entries = p, s, entries
        m.rows, m.cols = entries.shape
        return m

    @property
    def modulus(self) -> int:
        return self.p**self.s

    @classmethod
    def identity(cls, p: int, s: int, n: int) -> "ZModMatrix":
        _modulus(p, s)
        return cls._trusted(p, s, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, s: int, rows: int, cols: int) -> "ZModMatrix":
        _modulus(p, s)
        return cls._trusted(p, s, np.zeros((rows, cols), dtype=np.int64))

    def copy(self) -> "ZModMatrix":
        return ZModMatrix._trusted(self.p, self.s, self.entries.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZModMatrix)
            and self.p == other.p
            and self.s == other.s
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.p, self.s, self.entries.tobytes()))

    def __matmul__(self, other: "ZModMatrix") -> "ZModMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        return ZModMatrix._trusted(self.p, self.s,
                                   _matmul_mod(self.entries, other.entries,
                                               self.modulus))

    def __add__(self, other: "ZModMatrix") -> "ZModMatrix":
        self._check_ring(other)
        return ZModMatrix._trusted(
            self.p, self.s, _mod(self.entries + other.entries, self.modulus))

    def __sub__(self, other: "ZModMatrix") -> "ZModMatrix":
        self._check_ring(other)
        return ZModMatrix._trusted(
            self.p, self.s, _mod(self.entries - other.entries, self.modulus))

    def __neg__(self) -> "ZModMatrix":
        return ZModMatrix._trusted(self.p, self.s,
                                   _mod(-self.entries, self.modulus))

    def transpose(self) -> "ZModMatrix":
        return ZModMatrix._trusted(self.p, self.s, self.entries.T)

    def _check_ring(self, other: "ZModMatrix") -> None:
        if self.p != other.p or self.s != other.s:
            raise ValueError("matrices over different rings")

    def is_zero(self) -> bool:
        return not self.entries.any()

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "s": self.s, "entries": self.entries.tolist()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ZModMatrix":
        data = json.loads(text)
        return cls(data["p"], data["s"], data["entries"])

    def __repr__(self):
        return f"ZModMatrix(p={self.p}, s={self.s}, {self.entries.tolist()})"


@dataclass(frozen=True)
class PresentedModule:
    """Finite Z/p^s-module given as coker of a relation matrix."""

    relations: ZModMatrix
    generators: int

    def __post_init__(self):
        if self.relations.rows != self.generators:
            raise ValueError("relation matrix rows must equal generator count")

    @property
    def p(self) -> int:
        return self.relations.p

    @property
    def s(self) -> int:
        return self.relations.s

    @classmethod
    def free(cls, p: int, s: int, n: int) -> "PresentedModule":
        return cls(ZModMatrix.zeros(p, s, n, 1), n)

    @classmethod
    def from_divisors(cls, p: int, s: int, divisors: list[int]) -> "PresentedModule":
        n = len(divisors)
        if n == 0:
            return cls(ZModMatrix.zeros(p, s, 0, 1), 0)
        q = _modulus(p, s)
        rel = np.zeros((n, n), dtype=np.int64)
        for i, d in enumerate(divisors):
            rel[i, i] = d % q  # Z/p^s / (d) = Z/d since d | p^s
        return cls(ZModMatrix._trusted(p, s, rel), n)

    def profile(self) -> list[int]:
        return module_profile(self)

    def length(self) -> int:
        """p-adic length: sum of exponents of the elementary divisors."""
        return divisors_length(self.p, self.profile())

    def is_zero(self) -> bool:
        return self.length() == 0


def divisors_length(p: int, divisors) -> int:
    """p-adic length of (+) Z/d over p-power divisors d."""
    total = 0
    for d in divisors:
        while d > 1:
            d //= p
            total += 1
    return total


def _eliminate(M: np.ndarray, p: int, s: int,
               Vt: np.ndarray | None = None) -> list[int]:
    """Smith elimination of M (int64, entries in [0, p^s)), which is left
    as scratch; returns the valuations of the nonzero pivots, in order.

    The pivot is the first entry of least valuation of the trailing block
    M[k:, k:] in row-major order.  Column operations are repeated on the
    rows of Vt (V transposed) when it is given; no row transform is kept.
    Row k and column k are dead after step k: an update touches only the
    rows with a nonzero entry in the pivot column and the span of columns
    with one in the pivot row, and a pivot row with no other nonzero entry
    ends its step at the swaps.  The least valuation v never falls and an
    update gives no entry of valuation v to a row without one, so the
    search resumes at the first row not ruled out (lo), in growing slices,
    and rescans rows only when v rises.
    """
    q = p**s
    rows, cols = M.shape
    vals = []
    v, lo, pv = 0, 0, p
    for k in range(min(rows, cols)):
        if v == 0 and M[k, k] % p:
            bi = bj = k  # a unit at the block's first entry
        else:
            bi = -1
        while bi < 0:
            # valuation v: not divisible by pv = p^(v+1); nonzero at pv = q
            step = 8
            while lo < rows:
                blk = M[lo:lo + step, k:]
                hit = blk != 0 if pv == q else blk % pv != 0
                at = int(hit.argmax())
                if hit.item(at):
                    bi, bj = divmod(at, cols - k)
                    bi, bj = bi + lo, bj + k
                    break
                lo += step
                step *= 2
            else:
                v, lo, pv = v + 1, k, pv * p
                if v == s:
                    return vals  # the trailing block is zero
        if bi != k:  # rows k and bi as one strided view, reversed
            two = M[k:bi + 1:bi - k, k:]
            two[...] = two[::-1]
        piv = M[k:, k]  # the pivot column
        if bj != k:
            piv = M[k:, bj].copy()
            M[k:, bj] = M[k:, k]
            if Vt is not None:
                two = Vt[k:bj + 1:bj - k]
                two[...] = two[::-1]
        lo = bi + 1
        vals.append(v)
        hit_cols = M[k, k + 1:].nonzero()[0]
        if not hit_cols.size:
            continue
        # normalize the pivot row to p^v, then clear the pivot's row and
        # the live columns of the rows its column reaches; every entry of
        # the block is divisible by p^v
        pk = p**v
        inv = pow(int(piv[0]) // pk, -1, q)
        hit_rows = piv.nonzero()[0][1:]  # rows of M[k:]
        a, b = int(hit_cols[0]), int(hit_cols[-1]) + 1
        span = slice(k + 1 + a, k + 1 + b)
        row = M[k, span] if inv == 1 else M[k, span] * inv % q
        if hit_rows.size:
            blk = M[k:][hit_rows, span]
            blk -= (piv[hit_rows] // pk)[:, None] * row
            M[k:][hit_rows, span] = _mod(blk, q)
        if Vt is not None:
            nz = Vt[k].nonzero()[0]
            c, d = nz[0], nz[-1] + 1
            g = row[hit_cols - a] // pk
            blk = Vt[k + 1:][hit_cols, c:d]
            blk -= g[:, None] * Vt[k, c:d]
            Vt[k + 1:][hit_cols, c:d] = _mod(blk, q)
    return vals


# (p, s, shape, entry bytes) -> (vals, kernel)
_MEMO = ContextVar("smith_memo", default=None)


@contextmanager
def smith_memo():
    """A block, or with @smith_memo() a call, in which _kernel reduces a
    matrix at most once for its lengths and profile and at most once more
    for its kernel, at every s: by the packed echelon at s = 1, by Smith
    elimination above."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def kernel_cokernel(A: ZModMatrix) -> tuple[PresentedModule, PresentedModule]:
    """Presentations of ker(A) and coker(A), from A's pivot valuations v_i
    (_kernel): ker(A) ~ (+) Z/p^(v_i) over the pivots with v_i > 0
    (+) (Z/p^s)^(cols - pivots), and coker(A) ~ (+) Z/p^(v_i)
    (+) (Z/p^s)^(rows - pivots).
    """
    p, s = A.p, A.s
    vals = _kernel(A, False)[0]
    return (
        PresentedModule.from_divisors(p, s, _divisors(p, s, vals, A.cols)),
        PresentedModule.from_divisors(p, s, _divisors(p, s, vals, A.rows)),
    )


def _divisors(p: int, s: int, vals, n: int) -> list[int]:
    """Elementary divisors of ker(A), n = cols, or of coker(A), n = rows,
    for a matrix A with pivot valuations vals, ascending."""
    return sorted([p**v for v in vals if v > 0] + [p**s] * (n - len(vals)))


def _kernel(A: ZModMatrix, kernel: bool = True):
    """Pivot valuations of A and, if kernel, columns generating ker(A) (else
    None), canonical in [0, p^s), as _matmul_mod needs of its operands.
    Inside smith_memo an answer is kept and served again, at every s.  At
    s = 1 (_packs): a valuation 0 per lead of the packed F_p echelon, and
    its kernel columns.  Otherwise the columns of V from the first pivot of
    positive valuation on, each scaled by p^(s - v), v the pivot's valuation
    or s past the pivots; an empty or zero A has no pivots and the identity
    as its kernel, as its elimination would give, and is not eliminated."""
    memo = _MEMO.get()
    if memo is not None:
        key = (A.p, A.s, A.entries.shape, A.entries.tobytes())
        got = memo.get(key)
        if got is not None and (got[1] is not None or not kernel):
            return got if kernel else (got[0], None)
    p, s = A.p, A.s
    if _packs(p, s):
        leads, K = _fp_echelon(A.entries, p, kernel)
        vals = [0] * len(leads)
    elif not A.entries.any():
        vals, K = [], np.eye(A.cols, dtype=np.int64) if kernel else None
    else:
        Vt = np.eye(A.cols, dtype=np.int64) if kernel else None
        vals, K = _eliminate(A.entries.copy(), p, s, Vt), None
        if kernel:
            first = vals.count(0)  # the valuations do not decrease
            scale = np.array([p ** (s - v) for v in vals[first:]]
                             + [1] * (A.cols - len(vals)), dtype=np.int64)
            K = _mod((Vt[first:] * scale[:, None]).T, p**s)
    if memo is not None:
        memo[key] = vals, K
    return vals, K


def kernel_generators(A: ZModMatrix) -> ZModMatrix:
    """Columns generating ker(A) as a submodule of (Z/p^s)^cols."""
    return ZModMatrix._trusted(A.p, A.s, _kernel(A)[1])


def module_profile(M: PresentedModule) -> list[int]:
    """Elementary divisors (p-powers > 1) of coker(relations), ascending."""
    return _divisors(M.p, M.s, _kernel(M.relations, False)[0], M.generators)


def image_length(A: ZModMatrix) -> int:
    """p-adic length of the column space of A."""
    return sum(A.s - v for v in _kernel(A, False)[0])


def subquotient_presentation(span: ZModMatrix,
                             sub: ZModMatrix) -> PresentedModule:
    """span(Z)/span(B) presented on the columns of Z: the relations are the
    Z-parts of the kernel of [Z, -B].  Requires B inside span(Z), which
    the same elimination checks by lengths (InvariantError otherwise)."""
    if not sub.cols:
        return PresentedModule(kernel_generators(span), span.cols)
    return _presentation_in(span, sub, image_length(span))


def _presentation_in(span: ZModMatrix, sub: ZModMatrix,
                     length: int) -> PresentedModule:
    """subquotient_presentation for a span(Z) whose length the caller
    knows, which saves eliminating Z for it."""
    p, s = span.p, span.s
    paired = _mod(np.hstack([span.entries, -sub.entries]), span.modulus)
    vals, K = _kernel(ZModMatrix._trusted(p, s, paired))
    if sum(s - v for v in vals) != length:
        raise InvariantError("denominator is not contained in the span")
    return PresentedModule(ZModMatrix._trusted(p, s, K[:span.cols]),
                           span.cols)


def _subquotient_profile(span: ZModMatrix, sub: ZModMatrix,
                         length: int) -> list[int]:
    """module_profile of span(Z)/span(B) for a span(Z) of the given length;
    InvariantError unless B lies in span(Z) and span(Z) has that length.
    At s = 1 (_packs) one packed echelon of [B | Z] decides both, by its
    rank, and gives the quotient as F_p^(length - rank B), rank B its leads
    among B's columns: no kernel lanes and no second echelon."""
    p = span.p
    if not _packs(p, span.s):
        return module_profile(_presentation_in(span, sub, length))
    leads = _fp_echelon(np.hstack([sub.entries, span.entries]), p)[0]
    if len(leads) != length:
        raise InvariantError("denominator is not contained in the span")
    return [p] * (length - bisect_left(leads, sub.cols))


# -- packed F_p columns ------------------------------------------------------


@lru_cache(maxsize=64)
def _lanes(p: int):
    """(width, k, mult) of packed F_p columns: a column is one Python integer
    with one lane of width bits per row, row 0 lowest.  A lane below 2^a,
    a = bit length of p(p - 1), reduces mod p by one Barrett multiply-shift:
    floor(z * mult / 2^k) = floor(z / p) for z < 2^a, and z * mult <
    2^width, so no carry crosses a lane."""
    a = (p * (p - 1)).bit_length()
    k = a + p.bit_length()
    width = next((8 * n for n in (1, 2, 4, 8) if 8 * n >= a + k), None)
    if width is None:
        raise ValueError(f"prime {p} is too large for packed F_p columns")
    return width, k, -(-(1 << k) // p)


def _packs(p: int, s: int) -> bool:
    """Whether matrices over Z/p^s go through the packed F_p echelon: s = 1
    and a lane holds p (_lanes; every p < 4096 fits)."""
    if s != 1:
        return False
    try:
        _lanes(p)
    except ValueError:
        return False
    return True


def _pack(A: np.ndarray, p: int) -> list:
    """The columns of an integer matrix A mod p, packed (_lanes).  Entries
    already in [0, p) are cast to lanes without a remainder."""
    if A.size and (A.min() < 0 or A.max() >= p):
        A = A % p
    size = _lanes(p)[0] // 8
    n = A.shape[0] * size
    if not n:
        return [0] * A.shape[1]
    data = A.T.astype(f"<u{size}", order="C").tobytes()
    return [int.from_bytes(data[i:i + n], "little")
            for i in range(0, len(data), n)]


def _reduce(cols, p: int, n_rows: int, n_lanes: int,
            logs: list | None = None):
    """Reduce packed columns of at most n_lanes lanes left to right, each
    against the earlier ones that lead (have their least nonzero lane)
    below lane n_rows.  Returns (leads, rest): the indices of the columns
    that lead there, in order, and every other column that does not reduce
    to zero, reduced and shifted down by n_rows lanes.  If logs is given,
    one list per column is appended to it, holding (j, f) for each f times
    the reduced column j subtracted from that column.

    The lead table maps a lane r to (y, inv, j): the reduced column j that
    leads there, stored shifted down by r lanes (its lead in lane 0), and
    the inverse mod p of its lead entry.  While x leads where some y leads,
    f = x_r * inv times y is subtracted.  Lanes below the lead are zero and
    stay zero, so x is shifted down as it goes and every step works on the
    lanes from the lead up.  A step adds (p - f) y, which keeps every lane
    at most p(p - 1), and reduces each lane mod p by one Barrett step
    (_lanes), so every lane stays in [0, p).
    """
    width, k, mult = _lanes(p)
    # (2^(width - k) - 1) in every lane: the repunit in base 2^width times it
    quot = ((1 << (width - k)) - 1) * (((1 << (width * n_lanes)) - 1)
                                       // ((1 << width) - 1))
    mask = (1 << width) - 1
    lead, leads, rest, log = {}, [], [], None
    for c, x in enumerate(cols):
        if logs is not None:
            log = []
            logs.append(log)
        r = 0
        while x:
            t = ((x & -x).bit_length() - 1) // width
            if t:
                x >>= t * width
                r += t
            got = lead.get(r)
            if got is None:
                break
            y, inv, j = got
            f = (x & mask) * inv % p
            if log is not None:
                log.append((j, f))
            z = x + (p - f) * y
            x = z - p * (((z * mult) >> k) & quot)
        if x and r < n_rows:
            lead[r] = x, pow(x & mask, -1, p), c
            leads.append(c)
        elif x:
            rest.append(x << ((r - n_rows) * width))
    return leads, rest


def _fp_echelon(A: np.ndarray, p: int, kernel: bool = False):
    """(leads, K) for an integer matrix A read mod p: the columns of A that
    lie outside the span of the columns to their left, in order, so that the
    rank of A[:, :j] is the number of leads below j; and, if kernel, columns
    generating ker(A) over F_p (else None), cols - rank of them, linearly
    independent, with int64 entries in [0, p).

    The zero rows of A are dropped, which changes neither the rank nor the
    kernel.  Each column is packed (_pack) and, if kernel, followed by cols
    identity lanes, its own lane set to 1; the columns are reduced left to
    right against the leads of the earlier ones (_reduce).  A column whose
    row lanes reduce to zero is no lead, and its identity lanes then hold a
    kernel vector: that column minus the combination of earlier columns the
    reduction subtracted.
    """
    A = A[A.any(axis=1)]
    m, cols = A.shape
    width = _lanes(p)[0]
    packed = _pack(A, p)
    if kernel:
        packed = [x | 1 << ((m + c) * width) for c, x in enumerate(packed)]
    leads, free = _reduce(packed, p, m, m + cols if kernel else m)
    if not kernel:
        return leads, None
    lane = np.dtype(f"<u{width // 8}")
    data = b"".join(v.to_bytes(cols * lane.itemsize, "little") for v in free)
    K = np.frombuffer(data, dtype=lane).reshape(len(free), cols)
    return leads, K.T.astype(np.int64)


class FpSystem:
    """Linear systems A x = b over F_p with one matrix A, packed once
    (_pack): each right-hand side is solved by one column reduction
    (_reduce), and the corners A[t:, t:] are read off the packed columns."""

    __slots__ = ("p", "rows", "cols")

    def __init__(self, A: np.ndarray, p: int):
        self.p, self.rows, self.cols = p, A.shape[0], _pack(A, p)

    def __eq__(self, other) -> bool:
        return isinstance(other, FpSystem) and (
            (self.p, self.rows, self.cols) == (other.p, other.rows, other.cols))

    def corner(self, t: int) -> "FpSystem":
        """The system of A[t:, t:]."""
        if not t:
            return self
        shift = t * _lanes(self.p)[0]
        sub = FpSystem.__new__(FpSystem)
        sub.p, sub.rows = self.p, self.rows - t
        sub.cols = [c >> shift for c in self.cols[t:]]
        return sub

    def solve(self, b: dict):
        """The solution x of A x = b whose free unknowns are 0, as int64
        entries in [0, p), or None if there is none; b maps rows of A to
        their entries, and the other rows of b are 0.

        An unknown is free when its column lies in the span of the columns
        to its left, as in a row echelon with pivots taken greedily from
        the left.  The columns are reduced left to right, b last, with a
        log (_reduce): b reduces to zero exactly when the system is
        consistent, and undoing the logged operations on it gives x.
        """
        p, n = self.p, len(self.cols)
        width = _lanes(p)[0]
        rhs = sum(v % p << (r * width) for r, v in b.items())
        logs = []
        leads = _reduce([*self.cols, rhs], p, self.rows, self.rows, logs)[0]
        if leads and leads[-1] == n:
            return None
        # b - sum of f * (reduced column j) is 0; a reduced column is its
        # own column minus logged multiples of earlier ones, so undo in
        # reverse
        w = [0] * n + [1]
        for c in reversed(range(n + 1)):
            for j, f in reversed(logs[c]):
                w[j] = (w[j] - f * w[c]) % p
        return np.array([-v % p for v in w[:n]], dtype=np.int64)
