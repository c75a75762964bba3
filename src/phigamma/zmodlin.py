"""Exact linear algebra over Z/p^s.

Matrices carry their modulus (p, s) with entries stored in int64 as
canonical representatives in [0, p^s).  Entries given as anything but an
integer ndarray (such as parsed JSON) are checked once, at construction:
they must be integers, and they are reduced mod p^s before numpy sees
them.  The modulus must satisfy (p^s - 1)^2 < 2^63, so that a product of
two entries fits in int64; products of matrices are summed over inner
slices of length k with (p^s - 1)^2 k < 2^63 (_matmul_mod), one slice for
every matrix in the declared scope p^s <= 7^6.

The workhorse is a Smith normal form adapted to the local ring Z/p^s:
pivots are chosen by minimal p-adic valuation, so the diagonal consists of
p-powers (units normalized to 1) with a divisibility chain.  It clears a
pivot's row and column with whole-array int64 updates and builds the
transforms U, V only on request.  Kernels, cokernels and module profiles
are all derived from it.

Finite modules are presented as cokernels of relation matrices
(PresentedModule); their isomorphism class is captured by the list of
p-power elementary divisors (module_profile).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ZModMatrix",
    "SmithForm",
    "PresentedModule",
    "divisors_length",
    "smith_normal_form",
    "kernel_cokernel",
    "module_profile",
    "solve",
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


def _reduced_entries(entries, q: int) -> np.ndarray:
    """Integer entries of any size, reduced mod q, as an int64 array."""
    a = np.array(entries, dtype=object)
    if a.ndim != 2:
        raise ValueError("entries must be two-dimensional")
    flat = a.ravel()
    for x in flat:
        if not _is_int(x):
            raise ValueError(f"matrix entry {x!r} is not an integer")
    return np.array([int(x) % q for x in flat],
                    dtype=np.int64).reshape(a.shape)


def _matmul_mod(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """Exact A @ B mod q for int64 matrices with entries in [0, q).

    int64 products over slices of the inner dimension of length k with
    (q-1)^2 k < 2^63, so no partial sum overflows.
    """
    step = (_INT64_BOUND - 1) // (q - 1) ** 2
    assert step >= 1 and (q - 1) ** 2 * step < _INT64_BOUND
    if A.shape[1] <= step:
        return (A @ B) % q
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(0, A.shape[1], step):
        out += (A[:, i:i + step] @ B[i:i + step]) % q
        out %= q
    return out


@lru_cache(maxsize=64, typed=True)
def _modulus(p: int, s: int) -> int:
    """p^s after checking that Z/p^s is a ring this module can work in."""
    if not (_is_int(p) and _is_int(s)):
        raise ValueError(f"p = {p!r} and s = {s!r} must be integers")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if s < 1:
        raise ValueError(f"s = {s} must be positive")
    q = p**s
    if (q - 1) ** 2 >= _INT64_BOUND:
        raise ValueError(f"modulus {p}^{s} is too large for int64 "
                         "arithmetic: need (p^s - 1)^2 < 2^63")
    return q


class ZModMatrix:
    """Matrix over Z/p^s with canonical int64 entries in [0, p^s)."""

    __slots__ = ("p", "s", "rows", "cols", "entries")

    def __init__(self, p: int, s: int, entries):
        q = _modulus(p, s)
        self.p = p
        self.s = s
        if isinstance(entries, np.ndarray) and entries.dtype.kind == "i":
            if entries.ndim != 2:
                raise ValueError("entries must be two-dimensional")
            self.entries = np.mod(entries.astype(np.int64, copy=False), q)
        else:
            self.entries = _reduced_entries(entries, q)
        self.rows, self.cols = self.entries.shape

    @property
    def modulus(self) -> int:
        return self.p**self.s

    @classmethod
    def identity(cls, p: int, s: int, n: int) -> "ZModMatrix":
        return cls(p, s, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, s: int, rows: int, cols: int) -> "ZModMatrix":
        return cls(p, s, np.zeros((rows, cols), dtype=np.int64))

    def copy(self) -> "ZModMatrix":
        return ZModMatrix(self.p, self.s, self.entries.copy())

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
        return ZModMatrix(self.p, self.s,
                          _matmul_mod(self.entries, other.entries,
                                      self.modulus))

    def __add__(self, other: "ZModMatrix") -> "ZModMatrix":
        self._check_ring(other)
        return ZModMatrix(self.p, self.s, self.entries + other.entries)

    def __sub__(self, other: "ZModMatrix") -> "ZModMatrix":
        self._check_ring(other)
        return ZModMatrix(self.p, self.s, self.entries - other.entries)

    def __neg__(self) -> "ZModMatrix":
        return ZModMatrix(self.p, self.s, -self.entries)

    def scale(self, c: int) -> "ZModMatrix":
        return ZModMatrix(self.p, self.s, self.entries * (c % self.modulus))

    def transpose(self) -> "ZModMatrix":
        return ZModMatrix(self.p, self.s, self.entries.T)

    def _check_ring(self, other: "ZModMatrix") -> None:
        if self.p != other.p or self.s != other.s:
            raise ValueError("matrices over different rings")

    def is_zero(self) -> bool:
        return not self.entries.any()

    def valuation(self, value: int) -> int:
        """p-adic valuation of a residue, capped at s (v(0) = s)."""
        v = 0
        value %= self.modulus
        if value == 0:
            return self.s
        while value % self.p == 0:
            value //= self.p
            v += 1
        return v

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
class SmithForm:
    """D = U @ A @ V with D diagonal (p-powers/units) and U, V unimodular;
    U and V are None when the transforms were not requested."""

    D: ZModMatrix
    U: ZModMatrix | None
    V: ZModMatrix | None

    @property
    def diagonal(self) -> list[int]:
        d = self.D
        return [int(d.entries[i, i]) for i in range(min(d.rows, d.cols))]

    @property
    def valuations(self) -> list[int]:
        """Valuations of the diagonal entries (s meaning the entry is 0)."""
        return [self.D.valuation(x) for x in self.diagonal]

    @property
    def rank_profile(self) -> list[int]:
        """Valuations of the nonzero diagonal entries."""
        return [v for v in self.valuations if v < self.D.s]


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
        rel = np.zeros((n, n), dtype=np.int64)
        for i, d in enumerate(divisors):
            rel[i, i] = d % (p**s)  # Z/p^s / (d) = Z/d since d | p^s
        return cls(ZModMatrix(p, s, rel), n)

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


def _swap(X: np.ndarray, i: int, j: int) -> None:
    """Swap rows i and j of X in place (pass X.T to swap columns)."""
    t = X[i].copy()
    X[i] = X[j]
    X[j] = t


def smith_normal_form(A: ZModMatrix, transforms: bool = True) -> SmithForm:
    """Smith normal form over Z/p^s by minimal-valuation pivoting.

    Returns D = U @ A @ V with diagonal entries that are p-powers (units
    normalized to 1), each dividing the next, and U, V invertible.  The
    pivot is the first entry of least valuation of the trailing block in
    row-major order; gcd(x, p^s) = p^min(v(x), s) ranks the entries.  With
    transforms=False, U and V are None and only D is computed.
    """
    p, s, q = A.p, A.s, A.modulus
    rows, cols = A.rows, A.cols
    M = A.entries.copy()
    U = np.eye(rows, dtype=np.int64) if transforms else None
    V = np.eye(cols, dtype=np.int64) if transforms else None
    D = np.zeros((rows, cols), dtype=np.int64)
    for k in range(min(rows, cols)):
        if M[k, k] % p:
            pk = 1  # the block's first entry is a unit
        else:
            g = np.gcd(M[k:, k:], q)
            at = int(g.argmin())
            pk = int(g.flat[at])
            if pk == q:
                break  # trailing block is zero
            bi, bj = divmod(at, cols - k)
            bi, bj = bi + k, bj + k
            if bi != k:
                _swap(M, k, bi)
                if transforms:
                    _swap(U, k, bi)
            if bj != k:
                _swap(M.T, k, bj)
                if transforms:
                    _swap(V.T, k, bj)
        # normalize the pivot to pk, then clear its column and row; every
        # entry of the block is divisible by pk
        inv = pow(int(M[k, k]) // pk, -1, q)
        row = M[k, k + 1:] * inv % q
        f = M[k + 1:, k] // pk
        M[k + 1:, k + 1:] = (M[k + 1:, k + 1:] - f[:, None] * row) % q
        D[k, k] = pk
        if transforms:
            U[k] = U[k] * inv % q
            U[k + 1:] = (U[k + 1:] - f[:, None] * U[k]) % q
            V[:, k + 1:] = (V[:, k + 1:] - V[:, k, None] * (row // pk)) % q

    if not transforms:
        return SmithForm(ZModMatrix(p, s, D), None, None)
    return SmithForm(ZModMatrix(p, s, D), ZModMatrix(p, s, U),
                     ZModMatrix(p, s, V))


def kernel_cokernel(A: ZModMatrix) -> tuple[PresentedModule, PresentedModule]:
    """Presentations of ker(A) and coker(A).

    With D = U A V, ker(A) is spanned by V @ (p^(s-v_i) e_i) for diagonal
    valuations v_i > 0 plus the free columns, giving
    ker ~ (+) Z/p^(v_i) (+) (Z/p^s)^free; coker(A) ~ (+) Z/p^(v_i) over the
    diagonal positions plus free rows.
    """
    sf = smith_normal_form(A, transforms=False)
    p, s = A.p, A.s
    vals = sf.valuations
    ndiag = len(vals)

    ker_div = [p**v for v in vals if 0 < v] + [p**s] * (A.cols - ndiag)
    ker_div = [d for d in ker_div if d > 1]
    coker_div = [p ** min(v, s) for v in vals if v > 0] + [p**s] * (A.rows - ndiag)
    coker_div = [d for d in coker_div if d > 1]

    return (
        PresentedModule.from_divisors(p, s, sorted(ker_div)),
        PresentedModule.from_divisors(p, s, sorted(coker_div)),
    )


def kernel_generators(A: ZModMatrix) -> ZModMatrix:
    """Columns generating ker(A) as a submodule of (Z/p^s)^cols."""
    sf = smith_normal_form(A)
    p, s = A.p, A.s
    vals = sf.valuations
    gens = []
    for i, v in enumerate(vals):
        if v > 0:
            e = np.zeros(A.cols, dtype=np.int64)
            e[i] = p ** (s - v)
            gens.append(e)
    for j in range(len(vals), A.cols):
        e = np.zeros(A.cols, dtype=np.int64)
        e[j] = 1
        gens.append(e)
    if not gens:
        return ZModMatrix.zeros(p, s, A.cols, 0)
    G = np.stack(gens, axis=1)
    return sf.V @ ZModMatrix(p, s, G)


def module_profile(M: PresentedModule) -> list[int]:
    """Elementary divisors (p-powers > 1) of coker(relations), ascending."""
    p, s = M.p, M.s
    if M.generators == 0:
        return []
    sf = smith_normal_form(M.relations, transforms=False)
    vals = sf.valuations
    divisors = [p ** min(v, s) for v in vals if v > 0]
    divisors += [p**s] * (M.generators - len(vals))
    return sorted(d for d in divisors if d > 1)


def image_length(A: ZModMatrix) -> int:
    """p-adic length of the column space of A."""
    sf = smith_normal_form(A, transforms=False)
    return sum(A.s - v for v in sf.valuations if v < A.s)


def solve(A: ZModMatrix, b) -> np.ndarray | None:
    """One solution x of A x = b over Z/p^s, or None if inconsistent."""
    q = A.modulus
    sf = smith_normal_form(A)
    c = _matmul_mod(sf.U.entries, _reduced_entries([b], q).T, q)[:, 0]
    y = np.zeros((A.cols, 1), dtype=np.int64)
    vals = sf.valuations
    for i in range(A.rows):
        ci = int(c[i]) % q
        if i < len(vals) and vals[i] < A.s:
            d = A.p ** vals[i]
            if ci % d:
                return None
            y[i] = ci // d
        elif ci:
            return None
    return _matmul_mod(sf.V.entries, y, q)[:, 0]
