"""Smith elimination, the packed F_p echelon, kernels/cokernels and module
profiles over Z/p^s."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phigamma.zmodlin import (
    PresentedModule,
    ZModMatrix,
    _eliminate,
    _mod,
    image_length,
    json_fields,
    kernel_cokernel,
    kernel_generators,
    module_profile,
    smith_memo,
)
from phigamma.errors import InvariantError
import phigamma.zmodlin as zmodlin


def random_matrix(rng, p, s, rows, cols):
    return ZModMatrix(p, s, rng.integers(0, p**s, size=(rows, cols)))


def test_identity_smith():
    A = ZModMatrix.identity(3, 2, 3)
    vals, K = zmodlin._kernel(A)
    assert vals == [0, 0, 0] and K.shape == (3, 0)


def test_diagonal_reordering():
    # the unit is the first pivot, so the columns swap; ker(A) is 3Z/9 + 0
    A = ZModMatrix(3, 2, [[3, 0], [0, 1]])
    Vt = np.eye(2, dtype=np.int64)
    assert _eliminate(A.entries.copy(), 3, 2, Vt) == [0, 1]
    assert Vt.tolist() == [[0, 1], [1, 0]]
    assert kernel_generators(A) == ZModMatrix(3, 2, [[3], [0]])


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        ZModMatrix(6, 1, [[1]])


def test_random_product_check():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = random_matrix(rng, 3, 3, 4, 3)
        vals = zmodlin._kernel(A, False)[0]
        # the divisibility chain of the Smith diagonal
        assert vals == sorted(vals)


def test_unimodular_transforms():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = random_matrix(rng, 5, 2, 4, 4)
        Vt = np.eye(4, dtype=np.int64)
        _eliminate(A.entries.copy(), 5, 2, Vt)
        # invertible over Z/p^s iff invertible mod p
        assert int(round(np.linalg.det(Vt.astype(float)))) % 5 != 0


def test_zero_map_kernel_cokernel():
    A = ZModMatrix.zeros(3, 1, 1, 1)
    ker, coker = kernel_cokernel(A)
    assert module_profile(ker) == [3]
    assert module_profile(coker) == [3]


def test_multiplication_by_p_on_zp2():
    A = ZModMatrix(3, 2, [[3]])
    ker, coker = kernel_cokernel(A)
    assert module_profile(ker) == [3]
    assert module_profile(coker) == [3]


def test_length_rank_nullity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = int(rng.choice([3, 5, 7]))
        s = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        A = random_matrix(rng, p, s, rows, cols)
        ker, _ = kernel_cokernel(A)
        assert ker.length() + image_length(A) == s * cols


def test_kernel_generators_annihilated():
    rng = np.random.default_rng(17)
    for _ in range(30):
        A = random_matrix(rng, 3, 2, 4, 5)
        G = kernel_generators(A)
        assert (A @ G).is_zero()


def test_profile_free_rank2():
    M = PresentedModule.free(3, 2, 2)
    assert module_profile(M) == [9, 9]


def test_profile_diag_cokernel():
    rel = ZModMatrix(3, 3, [[3, 0], [0, 9]])
    M = PresentedModule(rel, 2)
    # coker of diag(3, 9) over Z/27
    assert module_profile(M) == [3, 9]


def test_profile_invariant_under_unimodular_change():
    rng = np.random.default_rng(19)
    for _ in range(20):
        A = random_matrix(rng, 3, 2, 3, 3)
        prof = module_profile(PresentedModule(A, 3))
        # random unimodular transforms on both sides
        while True:
            P = random_matrix(rng, 3, 2, 3, 3)
            if int(round(np.linalg.det(P.entries.astype(float)))) % 3 != 0:
                break
        while True:
            Q = random_matrix(rng, 3, 2, 3, 3)
            if int(round(np.linalg.det(Q.entries.astype(float)))) % 3 != 0:
                break
        B = P @ A @ Q
        assert module_profile(PresentedModule(B, 3)) == prof


def test_json_round_trip():
    A = ZModMatrix(5, 2, [[1, 2], [3, 4]])
    assert ZModMatrix.from_json(A.to_json()) == A


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3**2 - 1), st.integers(0, 3**2 - 1))
def test_presented_module_divisor_round_trip(a, b):
    divisors = sorted(d for d in (3 ** (a % 3), 3 ** (b % 3)) if d > 1)
    M = PresentedModule.from_divisors(3, 2, divisors)
    assert module_profile(M) == divisors


# -- the int64 kernel against the object-dtype loop it replaced -------------


def _reference_smith(p, s, entries):
    """The object-dtype Smith form the int64 kernel replaced, kept as the
    reference: same pivot rule, one row or column update at a time."""
    q = p**s
    M = np.array(entries, dtype=np.int64).astype(object) % q
    rows, cols = M.shape
    U = np.eye(rows, dtype=object)
    V = np.eye(cols, dtype=object)

    def val(x):
        x %= q
        if x == 0:
            return s
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    for k in range(min(rows, cols)):
        best, best_v = None, s
        for i in range(k, rows):
            for j in range(k, cols):
                v = val(M[i, j])
                if v < best_v:
                    best_v, best = v, (i, j)
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break
        bi, bj = best
        if bi != k:
            M[[k, bi]] = M[[bi, k]]
            U[[k, bi]] = U[[bi, k]]
        if bj != k:
            M[:, [k, bj]] = M[:, [bj, k]]
            V[:, [k, bj]] = V[:, [bj, k]]
        pk = p**best_v
        inv = pow(int(M[k, k]) % q // pk, -1, q)
        M[k, :] = (M[k, :] * inv) % q
        U[k, :] = (U[k, :] * inv) % q
        for i in range(rows):
            if i != k and M[i, k] % q:
                f = (int(M[i, k]) // pk) % q
                M[i, :] = (M[i, :] - f * M[k, :]) % q
                U[i, :] = (U[i, :] - f * U[k, :]) % q
        for j in range(cols):
            if j != k and M[k, j] % q:
                f = (int(M[k, j]) // pk) % q
                M[:, j] = (M[:, j] - f * M[:, k]) % q
                V[:, j] = (V[:, j] - f * V[:, k]) % q
    return M.astype(np.int64), U.astype(np.int64), V.astype(np.int64)


def _seeded_matrices(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.choice([3, 5, 7]))
        s = int(rng.integers(1, 7))
        rows, cols = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        e = rng.integers(0, p**s, size=(rows, cols))
        # p-divisible blocks, zero columns and rank drops
        e = e * p ** rng.integers(0, s + 1, size=(rows, cols))
        if rows and cols and rng.random() < 0.3:
            e[:, rng.integers(0, cols)] = 0
        if rows > 1 and rng.random() < 0.3:
            e[-1] = (e[0] * int(rng.integers(0, p**s))) % p**s
        yield ZModMatrix(p, s, e)


def _sparse_matrices(seed, count):
    """Tall and wide matrices at about 5% density, shaped like the window
    matrices of the Herr engine, so that the sparse row and column updates
    and the resumed pivot search meet long runs of zero rows and columns."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = int(rng.choice([3, 5, 7]))
        s = int(rng.integers(1, 4))
        short, long = int(rng.integers(4, 12)), int(rng.integers(24, 48))
        rows, cols = (long, short) if i % 2 else (short, long)
        e = rng.integers(0, p**s, size=(rows, cols))
        e = e * (rng.random((rows, cols)) < 0.05)
        e = e * p ** rng.integers(0, s, size=(rows, cols))
        yield ZModMatrix(p, s, e)


def _reference_pivots(p, s, entries):
    """The valuations of the nonzero diagonal entries of _reference_smith's
    D, which are p-powers followed by zeros, and its V."""
    D, _, V = _reference_smith(p, s, entries)
    vals = [next(v for v in range(s) if p**v == d)
            for d in np.diagonal(D).tolist() if d]
    return vals, V


def test_smith_matches_reference_loop():
    for A in itertools.chain(_seeded_matrices(23, 600),
                             _sparse_matrices(37, 200)):
        p, s = A.p, A.s
        D = _reference_smith(p, s, A.entries)[0]
        vals, V = _reference_pivots(p, s, A.entries)
        # D is diagonal, its pivots first
        assert np.count_nonzero(D) == len(vals)
        Vt = np.eye(A.cols, dtype=np.int64)
        assert _eliminate(A.entries.copy(), p, s, Vt) == vals
        assert np.array_equal(Vt.T, V)
        assert _eliminate(A.entries.copy(), p, s) == vals


def _check_s1_kernel(A: ZModMatrix, rank: int):
    """At s = 1 the kernel generators are the packed echelon's kernel
    columns: cols - rank of them, killed by A, for the rank Smith gives."""
    K = kernel_generators(A)
    assert np.array_equal(K.entries,
                          zmodlin._fp_echelon(A.entries, A.p, kernel=True)[1])
    assert K.cols == A.cols - rank and (A @ K).is_zero()
    # independent columns killed by A, as many as ker(A) has: a basis
    assert _smith_rank(K.entries, A.p) == K.cols


def test_kernel_generators_are_scaled_columns_of_V():
    # the definition the generators had when they were V @ G, at s > 1,
    # with the reference's V
    for A in itertools.chain(_seeded_matrices(43, 200),
                             _sparse_matrices(47, 60)):
        p, s = A.p, A.s
        vals, V = _reference_pivots(p, s, A.entries)
        if s == 1:
            _check_s1_kernel(A, vals.count(0))
            continue
        cols = [V[:, i] * p ** (s - v) for i, v in enumerate(vals) if v > 0]
        cols += [V[:, j] for j in range(len(vals), A.cols)]
        want = (np.stack(cols, axis=1) if cols
                else np.zeros((A.cols, 0), dtype=np.int64))
        assert kernel_generators(A) == ZModMatrix(p, s, want)


# -- the pivot step against the one it replaced, at Herr window sizes --------


# The elimination kernel as it was before its pivot step made fewer numpy
# calls (dead steps skipped, swaps by slices, no modulo at the top
# valuation), kept as the reference for the pivots and transforms.
def _reference_eliminate(M: np.ndarray, p: int, s: int,
                         U: np.ndarray | None = None,
                         Vt: np.ndarray | None = None) -> list[int]:
    """Smith elimination of M (int64, entries in [0, p^s)) in place; returns
    the valuations of the nonzero pivots, in order.

    The pivot is the first entry of least valuation of the trailing block
    M[k:, k:] in row-major order.  Row operations are repeated on U and
    column operations on the rows of Vt (V transposed) when they are given.
    Only the trailing block is kept up to date, and an update touches only
    the rows with a nonzero entry in the pivot column and the span of
    columns with one in the pivot row.  The least valuation v of the block
    never falls, and a row with no entry of valuation v gets none from an
    update, so the search resumes at the first row not yet ruled out (lo)
    and scans ahead in growing slices; rows are rescanned only when v rises.
    """
    q = p**s
    rows, cols = M.shape
    vals = []
    v, lo = 0, 0
    for k in range(min(rows, cols)):
        if v == 0 and M[k, k] % p:
            bi = bj = k  # a unit at the block's first entry
        else:
            bi = -1
        while bi < 0:
            # entries of valuation v are those not divisible by p^(v+1)
            step = 8
            while lo < rows:
                blk = M[lo:lo + step, k:]
                hit = blk % p ** (v + 1) != 0
                at = int(hit.argmax())
                if hit.flat[at]:
                    bi, bj = divmod(at, cols - k)
                    bi, bj = bi + lo, bj + k
                    break
                lo += step
                step *= 2
            else:
                v, lo = v + 1, k
                if v == s:
                    return vals  # the trailing block is zero
        if bi != k:
            M[[k, bi], k:] = M[[bi, k], k:]
            if U is not None:
                U[[k, bi]] = U[[bi, k]]
        if bj != k:
            col = M[k:, k].copy()
            M[k:, k] = M[k:, bj]
            M[k:, bj] = col
            if Vt is not None:
                Vt[[k, bj]] = Vt[[bj, k]]
        lo = bi + 1
        # normalize the pivot to p^v, then clear its column and row; every
        # entry of the block is divisible by p^v
        pk = p**v
        inv = pow(int(M[k, k]) // pk, -1, q)
        row = _mod(M[k, k + 1:] * inv, q)
        hit_rows = M[k + 1:, k].nonzero()[0] + (k + 1)
        hit_cols = row.nonzero()[0]
        if hit_rows.size:
            f = M[hit_rows, k] // pk
            if hit_cols.size:
                a, b = hit_cols[0], hit_cols[-1] + 1
                span = slice(k + 1 + a, k + 1 + b)
                blk = M[hit_rows, span]
                blk -= f[:, None] * row[a:b]
                M[hit_rows, span] = _mod(blk, q)
        if U is not None:
            U[k] = _mod(U[k] * inv, q)
            if hit_rows.size:
                blk = U[hit_rows]
                blk -= f[:, None] * U[k]
                U[hit_rows] = _mod(blk, q)
        if Vt is not None and hit_cols.size:
            nz = Vt[k].nonzero()[0]
            a, b = nz[0], nz[-1] + 1
            g = row[hit_cols] // pk
            c = hit_cols + (k + 1)
            blk = Vt[c, a:b]
            blk -= g[:, None] * Vt[k, a:b]
            Vt[c, a:b] = _mod(blk, q)
        vals.append(v)
    return vals



def _herr_shaped_matrices(seed, count):
    """Tall and wide banded matrices of 200-600 x 40-130 at about 0.5-3%
    density, like the Herr window matrices, with p-divisible blocks and zero
    rows and columns, so that the pivot search runs at valuations 0 < v < s
    and ends on a zero trailing block (v = s)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = int(rng.choice([3, 5, 7]))
        s = i % 6 + 1
        long, short = int(rng.integers(200, 601)), int(rng.integers(40, 131))
        rows, cols = (long, short) if i // 6 % 2 else (short, long)
        n = int(rng.uniform(0.01, 0.05) * rows * cols)
        band = max(rows, cols) // 10
        r = rng.integers(0, rows, n)
        c = np.clip(r * cols // rows + rng.integers(-band, band + 1, n),
                    0, cols - 1)
        e = np.zeros((rows, cols), dtype=np.int64)
        e[r, c] = rng.integers(1, p**s, n) * p ** rng.integers(0, s, n)
        for _ in range(3):
            a = int(rng.integers(0, rows - 20))
            e[a:a + 20] *= p ** int(rng.integers(1, s + 1))
            b = int(rng.integers(0, cols - 10))
            e[:, b:b + 10] *= p ** int(rng.integers(1, s + 1))
        e[rng.integers(0, rows, rows // 20)] = 0
        e[:, rng.integers(0, cols, cols // 20)] = 0
        yield ZModMatrix(p, s, e)


def test_pivot_step_matches_reference_at_herr_sizes():
    mid = top = 0
    for A in _herr_shaped_matrices(53, 12):
        p, s, rows, cols = A.p, A.s, A.rows, A.cols
        Vt = np.eye(cols, dtype=np.int64)
        vals = _reference_eliminate(A.entries.copy(), p, s, Vt=Vt)
        mid += any(0 < v < s for v in vals)
        top += len(vals) < min(rows, cols)
        # valuations alone, and the Vt-only path of the kernels
        assert _eliminate(A.entries.copy(), p, s) == vals
        got_Vt = np.eye(cols, dtype=np.int64)
        assert _eliminate(A.entries.copy(), p, s, Vt=got_Vt) == vals
        assert np.array_equal(got_Vt, Vt)
        if s == 1:
            _check_s1_kernel(A, len(vals))
        else:
            first = vals.count(0)
            scale = [p ** (s - v) for v in vals[first:]] + [1] * (
                cols - len(vals))
            assert kernel_generators(A) == ZModMatrix(
                p, s, (Vt[first:] * np.array(scale)[:, None]).T)
        # the raw columns are canonical, as _matmul_mod needs of operands
        assert np.array_equal(zmodlin._kernel(A)[1],
                              kernel_generators(A).entries)
    assert mid >= 3 and top >= 3


def _fp_matrices(p):
    """Matrices over F_p: dense and sparse random ones, some with repeated
    or combined columns, zero rows and zero columns, and empty shapes."""
    rng = np.random.default_rng(p)
    for rows, cols in ((1, 1), (3, 7), (7, 3), (12, 12), (40, 25), (25, 60)):
        dense = rng.integers(0, p, (rows, cols))
        sparse = dense * (rng.random((rows, cols)) < 0.15)
        yield dense
        yield sparse
        # dependent columns and zero rows and columns
        mixed = sparse.copy()
        h = cols // 2
        mixed[:, cols - h:] = mixed[:, :h] * int(rng.integers(1, p)) % p
        mixed[rng.integers(0, rows, rows // 3 + 1)] = 0
        mixed[:, rng.integers(0, cols, cols // 3 + 1)] = 0
        yield mixed
    for shape in ((0, 5), (5, 0), (0, 0), (4, 4)):
        yield np.zeros(shape, dtype=np.int64)


def _smith_rank(A, p):
    """The rank of an integer matrix over F_p by the reference elimination,
    the reference for the packed echelon, which _kernel itself reads at
    s = 1.  _reference_eliminate, not the slower _reference_smith: the
    echelon's leads are checked against the rank of every leading block."""
    return len(_reference_eliminate(np.asarray(A, dtype=np.int64) % p, p, 1))


def _check_fp_echelon(A, p):
    rows, cols = A.shape
    leads, K = zmodlin._fp_echelon(A, p, kernel=True)
    rank = _smith_rank(A, p)
    assert len(leads) == rank
    assert zmodlin._fp_echelon(A, p) == (leads, None)
    # a lead is a column outside the span of the columns to its left
    for j in range(cols + 1):
        assert sum(c < j for c in leads) == _smith_rank(A[:, :j], p)
    assert K.dtype == np.int64 and K.shape == (cols, cols - rank)
    assert K.min(initial=0) >= 0 and K.max(initial=p - 1) < p
    assert not zmodlin._matmul_mod(A, K, p).any()
    assert _smith_rank(K, p) == cols - rank


@pytest.mark.parametrize("p", [3, 5, 7, 4093])
def test_fp_echelon_matches_smith_ranks_and_kernels(p):
    for A in _fp_matrices(p):
        _check_fp_echelon(A, p)


def test_fp_echelon_at_herr_sizes():
    for A in _herr_shaped_matrices(53, 12):
        _check_fp_echelon(A.entries % A.p, A.p)


def test_fp_lanes_hold_every_prime_below_4096():
    assert zmodlin._packs(4093, 1) and zmodlin._packs(3, 1)
    assert not zmodlin._packs(3, 2) and not zmodlin._packs(8191, 1)
    with pytest.raises(ValueError):
        zmodlin._pack(np.eye(2, dtype=np.int64), 8191)


@pytest.mark.parametrize("s", [1, 2])
def test_smith_memo_eliminates_each_matrix_once(s, monkeypatch):
    # the memo comes before the choice of path: the packed echelon at
    # s = 1, Smith elimination at s = 2
    shapes = []

    def counted(M, *args, **kwargs):
        shapes.append(M.shape)
        return reduce(M, *args, **kwargs)

    path = "_fp_echelon" if s == 1 else "_eliminate"
    reduce = getattr(zmodlin, path)
    monkeypatch.setattr(zmodlin, path, counted)
    A = ZModMatrix(3, s, [[3, 1, 0], [0, 3, 6], [3, 4, 6]])
    want = (kernel_generators(A), image_length(A),
            module_profile(PresentedModule(A, 3)))
    assert len(shapes) == 3
    shapes.clear()
    with smith_memo():
        # equal matrices, not the same object; the kernel's valuations give
        # the image length and the profile
        B, C = A.copy(), A.copy()
        assert kernel_generators(B) == want[0]
        assert image_length(C) == want[1]
        assert module_profile(PresentedModule(A, 3)) == want[2]
        assert kernel_generators(C) == want[0]
        assert len(shapes) == 1
        # valuations first: the kernel needs one more elimination
        D = ZModMatrix(3, s, [[1, 2], [0, 3]])
        assert image_length(D) == image_length(D) == 2 * s - 1
        kernel_generators(D)
        assert len(shapes) == 3
    with pytest.raises(ZeroDivisionError):
        with smith_memo():
            1 / 0
    image_length(A)  # no memo is left open, by the block or the error
    assert len(shapes) == 4


def test_smith_of_empty_matrices():
    # no pivots, and V stays the identity
    for rows, cols in ((0, 0), (0, 3), (4, 0)):
        Vt = np.eye(cols, dtype=np.int64)
        assert _eliminate(np.zeros((rows, cols), dtype=np.int64), 5, 2,
                          Vt) == []
        assert np.array_equal(Vt, np.eye(cols))


def test_product_matches_object_product_at_largest_modulus():
    q = 7**6
    rng = np.random.default_rng(29)
    for a, b in ((np.full((5, 64), q - 1), np.full((64, 3), q - 1)),
                 (rng.integers(0, q, (6, 64)), rng.integers(0, q, (64, 7)))):
        got = ZModMatrix(7, 6, a) @ ZModMatrix(7, 6, b)
        want = (a.astype(object) @ b.astype(object)) % q
        assert np.array_equal(got.entries, want.astype(np.int64))


def test_product_slices_the_inner_dimension_near_the_int64_bound():
    # q = 2^31 - 1 is prime and (q-1)^2 k < 2^63 only for k <= 2
    p = 2**31 - 1
    rng = np.random.default_rng(31)
    a = rng.integers(p - 50, p, (3, 9))
    b = rng.integers(p - 50, p, (9, 2))
    got = ZModMatrix(p, 1, a) @ ZModMatrix(p, 1, b)
    want = (a.astype(object) @ b.astype(object)) % p
    assert np.array_equal(got.entries, want.astype(np.int64))


def test_modulus_beyond_int64_products_rejected():
    with pytest.raises(ValueError, match="too large"):
        ZModMatrix(7, 12, [[1]])
    # sizes are checked before primality, so no huge p is trial-divided
    for p, s in ((10**18 + 9, 1), (3, 10**30)):
        with pytest.raises(ValueError, match="too large"):
            ZModMatrix(p, s, [[1]])


def test_json_fields_checks_top_level_fields():
    doc = json_fields({"format": "x", "n": 2}, "x document", format="x",
                      n=int, flag=(bool, False))
    assert doc == {"format": "x", "n": 2, "flag": False}
    for bad in ([], {"format": "y", "n": 2}, {"format": "x"},
                {"format": "x", "n": True}, {"format": "x", "n": 2.0},
                {"format": "x", "n": 2, "flag": 0}):
        with pytest.raises(ValueError):
            json_fields(bad, "x document", format="x", n=int,
                        flag=(bool, False))
    # a value to equal is compared with its type: true is not version 1
    with pytest.raises(ValueError):
        json_fields({"version": True}, "x document", version=1)


def test_entries_must_be_integers():
    with pytest.raises(ValueError, match="not an integer"):
        ZModMatrix(3, 2, [[1.5]])
    with pytest.raises(ValueError, match="not an integer"):
        ZModMatrix(3, 2, [[True]])
    with pytest.raises(ValueError, match="two-dimensional"):
        ZModMatrix(3, 2, [1, 2])
    with pytest.raises(ValueError):
        ZModMatrix(3.0, 2, [[1]])


def test_large_and_negative_entries_are_reduced():
    A = ZModMatrix(3, 2, [[2**64, -1], [9**40 + 4, 10]])
    assert A.entries.tolist() == [[2**64 % 9, 8], [4, 1]]
    assert A.entries.dtype == np.int64


def _reference_entries(entries, q):
    """_reduced_entries entry by entry: the reference for its errors and
    values."""
    a = np.array(entries, dtype=object)
    if a.ndim != 2:
        raise ValueError("entries must be two-dimensional")
    for x in a.ravel():
        if not zmodlin._is_int(x):
            raise ValueError(f"matrix entry {x!r} is not an integer")
    return np.array([int(x) % q for x in a.ravel()],
                    dtype=np.int64).reshape(a.shape)


def test_reduced_entries_contract():
    # non-integers are named, the first in row-major order, and shapes
    # other than two-dimensional refused, with the reference's text
    bad = [([[1, True]], "matrix entry True is not an integer"),
           ([[1, 2], [2.5, None]], "matrix entry 2.5 is not an integer"),
           ([[np.int64(1), "3"]], "matrix entry '3' is not an integer"),
           ([[None]], "matrix entry None is not an integer"),
           ([[1, [2, 3]], [4, 5]], "matrix entry [2, 3] is not an integer"),
           ([[np.bool_(True)]], f"matrix entry {np.bool_(True)!r} is not "
                                "an integer"),
           ([[1, 2], [3]], "entries must be two-dimensional"),
           ([[[1]]], "entries must be two-dimensional"),
           ([1, 2], "entries must be two-dimensional")]
    for entries, message in bad:
        for reduce in (zmodlin._reduced_entries, _reference_entries):
            with pytest.raises(ValueError) as err:
                reduce(entries, 243)
            assert str(err.value) == message, entries
    # integers of any size and kind are reduced mod q, as Python ints are;
    # an int8 is not reduced in its own width, where 243 does not fit
    good = [[2**70 + 5, -1, np.int8(-1), np.uint64(2**64 - 1)],
            [np.int64(-2**63), 0, 10**30, -(2**70)]]
    for entries in (good, [[-1, 2**70 + 5]], [[]]):
        got = zmodlin._reduced_entries(entries, 243)
        want = _reference_entries(entries, 243)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
    assert zmodlin._reduced_entries(good, 243)[0].tolist() == \
        [(2**70 + 5) % 243, 242, 242, (2**64 - 1) % 243]


def test_kernel_of_empty_and_zero_matrices(monkeypatch):
    # no pivots and the identity as kernel, which is what the elimination
    # gives (its V), with no elimination, in a memo or not
    shapes = [(0, 4), (3, 0), (0, 0), (3, 4), (1, 1)]
    mats = [ZModMatrix.zeros(5, 2, *shape) for shape in shapes]
    mats.append(ZModMatrix(5, 2, [[25, 0, -50], [0, 75, 0]]))
    Vs = [ZModMatrix.identity(5, 2, A.cols) for A in mats]
    counted = []
    eliminate = zmodlin._eliminate
    monkeypatch.setattr(zmodlin, "_eliminate",
                        lambda M, *a, **k: counted.append(M.shape)
                        or eliminate(M, *a, **k))
    for memo in (False, True):
        with smith_memo() if memo else contextlib.nullcontext():
            for A, V in zip(mats, Vs):
                vals, K = zmodlin._kernel(A)
                assert vals == [] and np.array_equal(K, V.entries)
                assert zmodlin._kernel(A, False) == ([], None)
                assert kernel_generators(A) == V
                assert image_length(A) == 0
                ker, coker = kernel_cokernel(A)
                assert module_profile(ker) == [25] * A.cols
                assert module_profile(coker) == [25] * A.rows
    assert counted == []


@pytest.mark.parametrize("s", [1, 2])
def test_subquotient_profile_checks_the_given_length(s):
    # the length of span(Z) the caller gives is checked, with B empty too
    q = 5**s
    Z = ZModMatrix(5, s, [[1, 0], [0, 1], [0, 0]])
    for B, prof in ((ZModMatrix.zeros(5, s, 3, 0), [q, q]),
                    (ZModMatrix(5, s, [[1], [0], [0]]), [q])):
        assert zmodlin._subquotient_profile(Z, B, 2 * s) == prof
        for wrong in (2 * s - 1, 2 * s + 1):
            with pytest.raises(InvariantError):
                zmodlin._subquotient_profile(Z, B, wrong)
    with pytest.raises(InvariantError):
        zmodlin._subquotient_profile(Z, ZModMatrix(5, s, [[0], [0], [1]]),
                                     2 * s)


def test_s1_subquotient_profile_is_one_echelon_without_kernel(monkeypatch):
    # at s = 1 the profile of span(Z)/span(B) equals the presentation's and
    # comes from one packed echelon of [B | Z], with no kernel lanes
    rng = np.random.default_rng(53)
    echelon, calls = zmodlin._fp_echelon, []

    def counted(A, p, kernel=False):
        calls.append(kernel)
        return echelon(A, p, kernel)

    for p in (3, 5, 7):
        for _ in range(20):
            rows, k = rng.integers(1, 9), rng.integers(0, 6)
            Z = random_matrix(rng, p, 1, rows, k)
            C = rng.integers(0, p, size=(k, rng.integers(0, 5)))
            B = ZModMatrix(p, 1, Z.entries @ C)
            length = image_length(Z)
            want = module_profile(zmodlin._presentation_in(Z, B, length))
            monkeypatch.setattr(zmodlin, "_fp_echelon", counted)
            assert zmodlin._subquotient_profile(Z, B, length) == want
            monkeypatch.setattr(zmodlin, "_fp_echelon", echelon)
            assert calls == [False]
            calls.clear()
