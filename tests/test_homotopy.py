"""Cones, long exact sequences, spectral pages against the total complex,
and tower lim/lim^1."""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from phigamma import homotopy, zmodlin
from phigamma.errors import InvariantError
from phigamma.homotopy import (
    ChainComplexZ,
    ChainMap,
    DoubleComplex,
    Tower,
    cone_sequence,
    les_check,
    mapping_cone,
    spectral_E_pages,
    total_complex,
    tower_lim_lim1,
)
from phigamma.zmodlin import (ZModMatrix, kernel_generators, module_profile,
                              subquotient_presentation)

P, S = 3, 2
Q = P ** S


def rand_mat(rng, rows, cols):
    e = np.array([[rng.randrange(Q) for _ in range(cols)]
                  for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
    return ZModMatrix(P, S, e)


def rand_complex(rng, ranks0):
    """Random bounded complex: each next differential is drawn from the
    left annihilator of the previous one, so d^2 = 0 by construction."""
    ranks = {i: r for i, r in enumerate(ranks0)}
    diffs = {}
    prev = None
    for i in range(len(ranks0) - 1):
        if prev is None:
            d = rand_mat(rng, ranks0[i + 1], ranks0[i])
        else:
            ann = kernel_generators(prev.transpose())
            if ann.cols:
                R = rand_mat(rng, ranks0[i + 1], ann.cols)
                prod = (R.entries.astype(object)
                        @ ann.transpose().entries.astype(object)) % Q
                d = ZModMatrix(P, S, prod.astype(np.int64))
            else:
                d = ZModMatrix.zeros(P, S, ranks0[i + 1], ranks0[i])
        diffs[i] = d
        prev = d
    return ChainComplexZ(P, S, ranks, diffs)


def null_homotopic_map(rng, X, Y, degrees):
    """d_Y g + g d_X for random g: always a chain map."""
    g = {n: rand_mat(rng, Y.rank(n - 1), X.rank(n)) for n in degrees}
    blocks = {}
    for n in degrees[:-1]:
        blocks[n] = Y.diff(n - 1) @ g[n] + g[n + 1] @ X.diff(n)
    return ChainMap(X, Y, blocks)


def tensor_dc(Xc, Yc):
    """C^{p,q} = X^p ⊗ Y^q with d_h = d_X ⊗ 1, d_v = (-1)^p ⊗ d_Y."""
    ranks, dh, dv = {}, {}, {}
    for pp in Xc.ranks:
        for qq in Yc.ranks:
            ranks[(pp, qq)] = Xc.rank(pp) * Yc.rank(qq)
    for (pp, qq) in ranks:
        if Xc.rank(pp + 1):
            dh[(pp, qq)] = ZModMatrix(P, S, np.kron(
                Xc.diff(pp).entries,
                np.eye(Yc.rank(qq), dtype=np.int64)) % Q)
        if Yc.rank(qq + 1):
            dv[(pp, qq)] = ZModMatrix(P, S, ((-1) ** pp * np.kron(
                np.eye(Xc.rank(pp), dtype=np.int64),
                Yc.diff(qq).entries)) % Q)
    return DoubleComplex(P, S, ranks, dh, dv)


# -- presentations and complexes ---------------------------------------------


def test_subquotient_full_over_zero_is_free():
    span = ZModMatrix.identity(P, S, 2)
    mod = subquotient_presentation(span, ZModMatrix.zeros(P, S, 2, 0))
    assert module_profile(mod) == [9, 9]


def test_subquotient_rejects_noncontained_denominator():
    span = ZModMatrix(P, S, [[3, 0], [0, 3]])
    sub = ZModMatrix(P, S, [[1], [0]])
    with pytest.raises(InvariantError):
        subquotient_presentation(span, sub)


def test_complex_rejects_d_squared():
    with pytest.raises(InvariantError) as err:
        ChainComplexZ(P, S, {0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})
    assert "degrees 0 and 2" in str(err.value)


def test_complex_rejects_bad_shape():
    with pytest.raises(InvariantError):
        ChainComplexZ(P, S, {0: 2, 1: 1}, {0: [[1]]})


def test_cohomology_mult_by_p_complex():
    # Z/9 --3--> Z/9: H^0 = H^1 = Z/3
    X = ChainComplexZ(P, S, {0: 1, 1: 1}, {0: [[3]]})
    assert module_profile(X.cohomology(0)) == [3]
    assert module_profile(X.cohomology(1)) == [3]


def test_cohomology_random_euler_characteristic_vanishes():
    rng = random.Random(2)
    for _ in range(10):
        X = rand_complex(rng, [rng.randint(1, 3) for _ in range(4)])
        chi = sum((-1) ** n * X.cohomology_length(n) for n in X.degrees())
        vol = sum((-1) ** n * S * X.rank(n) for n in X.degrees())
        assert chi == vol


def test_complex_json_roundtrip():
    rng = random.Random(3)
    X = rand_complex(rng, [2, 3, 2])
    Y = ChainComplexZ.from_json(X.to_json())
    assert Y.to_json() == X.to_json()
    assert all((Y.diff(n) - X.diff(n)).is_zero() for n in X.degrees())


def test_chain_map_rejects_noncommuting_square():
    X = ChainComplexZ(P, S, {0: 1, 1: 1}, {0: [[3]]})
    Y = ChainComplexZ(P, S, {0: 1, 1: 1}, {0: [[0]]})
    with pytest.raises(InvariantError):
        ChainMap(X, Y, {0: [[1]], 1: [[1]]})


# -- cones and the long exact sequence ---------------------------------------


def test_cone_of_identity_is_acyclic():
    rng = random.Random(5)
    X = rand_complex(rng, [2, 3, 2])
    f = ChainMap(X, X, {n: ZModMatrix.identity(P, S, X.rank(n))
                        for n in X.ranks})
    T = mapping_cone(f)
    assert all(T.cohomology_length(n) == 0 for n in T.degrees())


def test_cone_of_zero_splits():
    rng = random.Random(7)
    X = rand_complex(rng, [2, 3, 2])
    Y = rand_complex(rng, [3, 2, 3])
    T = mapping_cone(ChainMap(X, Y, {}))
    for n in T.degrees():
        assert T.cohomology_length(n) == \
            Y.cohomology_length(n - 1) + X.cohomology_length(n)


def test_cone_les_exact_for_random_maps():
    # ten random chain maps over Z/9; every LES node must be exact
    rng = random.Random(11)
    for _ in range(10):
        X = rand_complex(rng, [rng.randint(1, 3) for _ in range(3)])
        Y = rand_complex(rng, [rng.randint(1, 3) for _ in range(3)])
        f = null_homotopic_map(rng, X, Y, [0, 1, 2, 3])
        res = les_check(cone_sequence(f))
        assert res["exact"], res["first_failure"]
        assert res["nodes"] > 0


def test_split_direct_sum_sequence_exact():
    rng = random.Random(13)
    A = rand_complex(rng, [2, 2, 2])
    C = rand_complex(rng, [1, 2, 1])
    ranks = {n: A.rank(n) + C.rank(n) for n in range(3)}
    diffs, inc, proj, retr, sect = {}, {}, {}, {}, {}
    for n in range(3):
        ra, rc = A.rank(n), C.rank(n)
        if n < 2:
            d = np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
            d[:A.rank(n + 1), :ra] = A.diff(n).entries
            d[A.rank(n + 1):, ra:] = C.diff(n).entries
            diffs[n] = ZModMatrix(P, S, d)
        i = np.zeros((ra + rc, ra), dtype=np.int64)
        i[:ra] = np.eye(ra, dtype=np.int64)
        pr = np.zeros((rc, ra + rc), dtype=np.int64)
        pr[:, ra:] = np.eye(rc, dtype=np.int64)
        inc[n] = ZModMatrix(P, S, i)
        proj[n] = ZModMatrix(P, S, pr)
        retr[n] = inc[n].transpose()
        sect[n] = proj[n].transpose()
    from phigamma.homotopy import ShortExactSequence
    B = ChainComplexZ(P, S, ranks, diffs)
    res = les_check(ShortExactSequence(A, B, C, inc, proj, retr, sect))
    assert res["exact"]


def test_corrupted_differential_is_localized():
    X = ChainComplexZ(P, S, {0: 1, 1: 1}, {0: [[3]]})
    f = ChainMap(X, X, {0: ZModMatrix.identity(P, S, 1),
                        1: ZModMatrix.identity(P, S, 1)})
    ses = cone_sequence(f)
    assert les_check(ses)["exact"]
    # corrupt the quotient complex behind the validator's back
    ses.C.diffs[0] = ZModMatrix(P, S, [[1]])
    res = les_check(ses)
    assert not res["exact"]
    assert res["first_failure"] is not None
    # the failing node is named so the corruption is localized
    assert res["first_failure"][0].startswith("H^")


# -- double complexes and spectral pages -------------------------------------


def test_double_complex_rejects_commuting_differentials():
    one = [[1]]
    with pytest.raises(InvariantError,
                       match=r"d\^2 != 0 between degrees 0 and 2"):
        DoubleComplex(P, S, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                      {(0, 0): one, (0, 1): one},
                      {(0, 0): one, (1, 0): one})


def test_double_complex_rejects_negative_spots():
    with pytest.raises(InvariantError):
        DoubleComplex(P, S, {(-1, 0): 1}, {}, {})


def test_one_row_grid_equals_its_row_cohomology():
    rng = random.Random(17)
    X = rand_complex(rng, [2, 3, 2])
    DC = tensor_dc(X, ChainComplexZ(P, S, {0: 1}, {}))
    pages, ab = spectral_E_pages(DC)
    assert ab["equal"]
    last = pages[-1]
    for n in X.degrees():
        assert last.length(n, 0) == X.cohomology_length(n)


def test_two_row_grid_with_nonzero_d2():
    DC = DoubleComplex(P, S,
                       {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
                       {(0, 1): [[1]], (1, 0): [[1]]},
                       {(1, 0): [[Q - 1]]})
    pages, ab = spectral_E_pages(DC)
    assert pages[1].lengths == {(0, 1): 2, (1, 1): 0, (1, 0): 0, (2, 0): 2}
    assert pages[1].d_lengths[(0, 1)] == 2  # the d_2 is an isomorphism
    assert all(v == 0 for v in pages[2].lengths.values())
    assert ab["equal"]
    assert all(pair == (0, 0) for pair in ab["degrees"].values())


def test_random_grids_abut_to_total_cohomology():
    # ten random 3x3 grids over Z/9: E_infinity diagonal sums must match
    # the total complex, with page passage certified along the way
    rng = random.Random(19)
    for _ in range(10):
        X = rand_complex(rng, [rng.randint(1, 2) for _ in range(3)])
        Y = rand_complex(rng, [rng.randint(1, 2) for _ in range(3)])
        pages, ab = spectral_E_pages(tensor_dc(X, Y))
        assert ab["equal"], ab["degrees"]
        for early, late in zip(pages, pages[1:]):
            for spot, ln in late.lengths.items():
                assert ln <= early.lengths[spot]


def staircase_dc(rng, k):
    """Rank-1 zig-zag from (0, k-1) to (k, 0): s_i = (i, k-1-i) maps by a
    unit d_h to t_i = (i+1, k-1-i), which s_(i+1) hits by a unit d_v; the
    last d_h is a random p-power below p^S, so d_k of the staircase is
    that power, nonzero.  Returns (ranks, dh, dv)."""
    units = [u for u in range(1, Q) if u % P]
    ranks, dh, dv = {}, {}, {}
    for i in range(k):
        ranks[(i, k - 1 - i)] = ranks[(i + 1, k - 1 - i)] = 1
        dh[(i, k - 1 - i)] = [[rng.choice(units)]]
        if i:
            dv[(i, k - 1 - i)] = [[rng.choice(units)]]
    dh[(k - 1, 0)] = [[P ** rng.randint(0, S - 1)]]
    return ranks, dh, dv


def direct_sum_dc(A, ranks, dh, dv):
    """A ⊕ (ranks, dh, dv), block diagonal at every spot."""
    spots = set(A.ranks) | set(ranks)
    both = {pq: A.rank(*pq) + ranks.get(pq, 0) for pq in spots}

    def blocks(mine, theirs, step):
        out = {}
        for pp, qq in spots:
            tgt = (pp + step[0], qq + step[1])
            m = np.zeros((both.get(tgt, 0), both[(pp, qq)]), dtype=np.int64)
            ra, ca = A.rank(*tgt), A.rank(pp, qq)
            m[:ra, :ca] = mine(pp, qq).entries
            if (pp, qq) in theirs:
                m[ra:, ca:] = theirs[(pp, qq)]
            if m.any():
                out[(pp, qq)] = m
        return out

    return DoubleComplex(P, S, both, blocks(A.d_h, dh, (1, 0)),
                         blocks(A.d_v, dv, (0, 1)))


def random_dc(rng, W, H):
    """A tensor grid of random complexes, plus a staircase whose d_k is
    nonzero for the longest k the shape allows (none past d_1 when W or H
    is 1)."""
    X = rand_complex(rng, [rng.randint(1, 2) for _ in range(W)])
    Y = rand_complex(rng, [rng.randint(1, 2) for _ in range(H)])
    k = min(W - 1, H)
    if not k:
        return tensor_dc(X, Y)
    return direct_sum_dc(tensor_dc(X, Y), *staircase_dc(rng, k))


@pytest.mark.parametrize("W, H", [(1, 4), (4, 1), (2, 5), (5, 2), (3, 3),
                                  (4, 3)])
def test_pages_past_the_width_are_page_w(W, H):
    # d_r leaves the grid for r >= W, so E_W = E_infinity: later pages are
    # copies of page W, equal to pages rebuilt from scratch
    rng = random.Random(31 * W + H)
    for _ in range(3):
        DC = random_dc(rng, W, H)
        assert DC.extent() == (W, H)
        pages, ab = spectral_E_pages(DC)
        assert ab["equal"] and len(pages) == W + H
        k = min(W - 1, H)
        assert not k or pages[k - 1].d_lengths[(0, k - 1)] > 0
        for page in pages[W:]:
            assert page == homotopy._page(DC, page.r)
            assert page == replace(pages[W - 1], r=page.r)


@pytest.mark.parametrize("W, H", [(5, 2), (4, 1), (5, 1), (4, 2)])
def test_pages_past_the_height_are_copies(W, H, monkeypatch):
    # no d_r with r > H has a target, so on a grid wider than it is tall
    # the pages from H + 2 on are page H + 1 relabelled: they are copied,
    # and equal pages rebuilt from scratch
    rng = random.Random(53 * W + H)
    built = []
    make_page = homotopy._page

    def page(DC, r):
        built.append(r)
        return make_page(DC, r)

    for _ in range(3):
        DC = random_dc(rng, W, H)
        with monkeypatch.context() as m:
            m.setattr(homotopy, "_page", page)
            built.clear()
            pages, ab = spectral_E_pages(DC)
        assert ab["equal"] and len(pages) == W + H
        assert built == list(range(1, H + 2))
        for page_r in pages[H + 1:]:
            assert page_r == make_page(DC, page_r.r)
            assert page_r == replace(pages[H], r=page_r.r)


def test_spectral_pages_past_the_width_run_no_elimination(monkeypatch):
    # on a 3x3 grid only pages 1 to 3 are built, and nothing is eliminated
    # between the end of page 3 and the abutment
    rng = random.Random(37)
    DC = random_dc(rng, 3, 3)
    log, eliminated = [], [0]

    def counted(M, *args, **kwargs):
        eliminated[0] += 1
        return eliminate(M, *args, **kwargs)

    def page(DC, r):
        got = make_page(DC, r)
        log.append((f"page {r}", eliminated[0]))
        return got

    def abutment(n):
        log.append(("abutment", eliminated[0]))
        return length(n)

    eliminate, make_page = zmodlin._eliminate, homotopy._page
    length = DC.total.cohomology_length
    monkeypatch.setattr(zmodlin, "_eliminate", counted)
    monkeypatch.setattr(homotopy, "_page", page)
    monkeypatch.setattr(DC.total, "cohomology_length", abutment)
    pages, ab = spectral_E_pages(DC)
    assert ab["equal"] and len(pages) == 6
    assert [name for name, _ in log] == ["page 1", "page 2", "page 3"] + \
        ["abutment"] * 5
    assert log[2][1] == log[3][1]


def unitriangular(rng, r, q):
    """A random unitriangular T mod q and its inverse."""
    T = np.eye(r, dtype=object)
    T[np.triu_indices(r, 1)] = [rng.randrange(q)
                                for _ in range(r * (r - 1) // 2)]
    N = T - np.eye(r, dtype=object)
    inv = term = np.eye(r, dtype=object)
    for _ in range(r):
        term = -term @ N % q
        inv = (inv + term) % q
    return T, inv


def split_complex(rng, s, ranks, zero=False, p=P):
    """A complex over Z/p^s on degrees 0..len(ranks)-1 and its cohomology
    profiles: d sends e_j to p^k f_j on some pairs (k = s is a zero
    differential, and every differential is zero if zero) and leaves the
    other basis vectors isolated; a unitriangular change of basis hides the
    split form, and H^n is known from the pairs."""
    q = p ** s
    L = len(ranks)
    diffs, want = {}, {n: [] for n in range(L)}
    used = 0
    for n in range(L):
        free = ranks[n] - used
        m = rng.randint(0, min(free, ranks[n + 1])) if n < L - 1 else 0
        if zero:
            m = 0
        E = np.zeros((ranks[n + 1] if n < L - 1 else 0, ranks[n]),
                     dtype=object)
        for j in range(m):
            k = rng.randint(0, s)
            E[j, used + j] = p ** k % q
            if k:
                want[n].append(p ** k)
                want[n + 1].append(p ** k)
        want[n] += [q] * (free - m)
        if n < L - 1:
            diffs[n] = E
        used = m
    bases = [unitriangular(rng, r, q) for r in ranks]
    X = ChainComplexZ(p, s, dict(enumerate(ranks)), {
        n: ZModMatrix(p, s, (bases[n + 1][0] @ E @ bases[n][1] % q)
                      .astype(np.int64))
        for n, E in diffs.items()})
    return X, want


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_cohomology_length_by_rank_nullity_on_split_complexes(s):
    rng = random.Random(41 + s)
    for trial in range(6):
        ranks = [rng.randint(0, 3) for _ in range(4)]
        X, want = split_complex(rng, s, ranks, zero=trial == 0)
        for n in range(-1, 5):
            assert module_profile(X.cohomology(n)) == sorted(want.get(n, []))
            assert X.cohomology_length(n) == X.cohomology(n).length()


def split_grid(rng, s, w, h, p=P):
    """The tensor grid of two seeded split complexes over Z/p^s, w columns
    by h rows, some with zero-rank degrees."""
    A = split_complex(rng, s, [rng.randint(0, 2) for _ in range(w)], p=p)[0]
    B = split_complex(rng, s, [rng.randint(0, 2) for _ in range(h)], p=p)[0]
    ranks = {(x, y): A.rank(x) * B.rank(y)
             for x in range(w) for y in range(h)}
    dh = {(x, y): np.kron(A.diff(x).entries,
                          np.eye(B.rank(y), dtype=np.int64))
          for (x, y) in ranks if x + 1 < w}
    dv = {(x, y): (-1) ** x * np.kron(np.eye(A.rank(x), dtype=np.int64),
                                      B.diff(y).entries)
          for (x, y) in ranks if y + 1 < h}
    return DoubleComplex(p, s, ranks, dh, dv)


def test_spectral_results_are_pinned():
    # pages (profiles, lengths and d_r lengths) and abutments of seeded
    # grids, recorded when each span was built from the grid's blocks
    # rather than cut from the total differential; the CLI report prints
    # lengths only
    rng = random.Random(97)
    digest = hashlib.sha256()
    for W in range(1, 6):
        for H in range(1, 6):
            digest.update(repr(spectral_E_pages(random_dc(rng, W, H)))
                          .encode())
    for p in (3, 5, 7):
        for s in range(1, 5):
            for _ in range(3):
                DC = split_grid(rng, s, rng.randint(1, 4), rng.randint(1, 4),
                                p)
                digest.update(repr(spectral_E_pages(DC)).encode())
    assert digest.hexdigest() == \
        "a09c39b02ba95dc6e211d700b83fdc074f9797dafeeb411859faa9e1f64352cc"


def _engine_results(s, seed, p=P):
    """les_check of a cone, spectral_E_pages of a 3x3 and a 4x2 grid, and
    tower_lim_lim1 of a constant-tail and a zero-tail tower over Z/p^s, all
    from seeded split complexes, some with a zero-rank degree."""
    rng = random.Random(seed)
    q = p ** s

    def mat(rows, cols):
        return np.array([[rng.randrange(q) for _ in range(cols)]
                         for _ in range(rows)], dtype=np.int64).reshape(
                             rows, cols)

    X = split_complex(rng, s, [rng.randint(1, 3), 0, rng.randint(1, 3),
                               rng.randint(0, 2)], p=p)[0]
    Y = split_complex(rng, s, [rng.randint(0, 3) for _ in range(4)], p=p)[0]
    # d_Y g + g d_X is a chain map for any g
    g = {n: ZModMatrix(p, s, mat(Y.rank(n - 1), X.rank(n)))
         for n in range(-1, 6)}
    f = ChainMap(X, Y, {n: Y.diff(n - 1) @ g[n] + g[n + 1] @ X.diff(n)
                        for n in range(5)})
    results = [les_check(cone_sequence(f))]
    for w, h in ((3, 3), (4, 2)):
        results.append(spectral_E_pages(split_grid(rng, s, w, h, p)))
    for tail in ("constant", "zero"):
        ranks = [rng.randint(0, 3) for _ in range(3)]
        if tail == "constant":
            ranks.append(ranks[-1])
        maps = [mat(ranks[n], ranks[n + 1]) for n in range(len(ranks) - 1)]
        results.append(tower_lim_lim1(Tower(p, s, ranks, maps, tail)))
    return results


@pytest.mark.parametrize("p", [3, 5, 7])
def test_s1_engine_reads_the_packed_echelon(p, monkeypatch):
    # at s = 1 zmodlin answers the engine from the packed F_p echelon, with
    # no Smith elimination, and the Smith path gives the same results; a
    # tower's lim is compared by its profile, as its relations are kernel
    # generators, which differ between the paths
    calls = [0]
    eliminate = zmodlin._eliminate

    def counted(*args, **kwargs):
        calls[0] += 1
        return eliminate(*args, **kwargs)

    def invariants(seed):
        *rest, const, zero = _engine_results(1, seed, p)
        return rest + [[module_profile(m) for m in pair]
                       for pair in (const, zero)]

    monkeypatch.setattr(zmodlin, "_eliminate", counted)
    for seed in range(10 * p, 10 * p + 3):
        calls[0] = 0
        got = invariants(seed)
        assert calls[0] == 0
        with monkeypatch.context() as m:
            m.setattr(zmodlin, "_packs", lambda p, s: False)
            assert invariants(seed) == got
        assert calls[0] > 0


def test_s1_spectral_pages_reduce_each_matrix_once(monkeypatch):
    # spectral_E_pages runs under smith_memo, which serves s = 1 as it
    # serves s > 1: each distinct matrix meets the packed echelon at most
    # once without kernel lanes and at most once with them
    echelon, seen = zmodlin._fp_echelon, []

    def counted(A, p, kernel=False):
        seen.append((A.shape, A.tobytes(), kernel))
        return echelon(A, p, kernel)

    monkeypatch.setattr(zmodlin, "_fp_echelon", counted)
    rng = random.Random(71)
    for w, h in ((3, 3), (4, 2), (2, 4), (4, 4)):
        DC = split_grid(rng, 1, w, h, p=5)
        seen.clear()
        assert spectral_E_pages(DC)[1]["equal"]
        assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_trusted_matrices_are_canonical_and_change_no_result(s, monkeypatch):
    # every array the engine wraps without a check is int64 and canonical,
    # and wrapping each one through the validating constructor instead
    # changes no result
    trusted = ZModMatrix._trusted
    seen = []

    def checked(cls, p, s, entries):
        assert isinstance(entries, np.ndarray) and entries.ndim == 2
        assert entries.dtype == np.int64
        assert not entries.size or (entries.min() >= 0
                                    and entries.max() < p ** s)
        seen.append(entries.shape)
        return trusted(p, s, entries)

    for seed in range(3):
        monkeypatch.setattr(ZModMatrix, "_trusted", classmethod(checked))
        got = _engine_results(s, 100 * s + seed)
        monkeypatch.setattr(ZModMatrix, "_trusted", classmethod(
            lambda cls, p, s, entries: cls(p, s, entries)))
        assert _engine_results(s, 100 * s + seed) == got
    assert seen and any(0 in shape for shape in seen)


def test_total_complex_differential_squares_to_zero():
    rng = random.Random(23)
    X = rand_complex(rng, [2, 2, 2])
    Y = rand_complex(rng, [2, 2, 2])
    tot = total_complex(tensor_dc(X, Y))  # constructor certifies d^2 = 0
    assert sum(tot.ranks.values()) == \
        sum(X.rank(i) * Y.rank(j) for i in range(3) for j in range(3))


def test_double_complex_json_roundtrip():
    rng = random.Random(29)
    DC = tensor_dc(rand_complex(rng, [1, 2]), rand_complex(rng, [2, 1]))
    again = DoubleComplex.from_json(DC.to_json())
    assert again.to_json() == DC.to_json()


# -- towers ------------------------------------------------------------------


def test_constant_identity_tower():
    ident = ZModMatrix.identity(P, S, 2)
    lim, lim1 = tower_lim_lim1(Tower(P, S, [2, 2, 2], [ident, ident],
                                     "constant"))
    assert module_profile(lim) == [9, 9]
    assert lim1.is_zero()


def test_zero_map_tower():
    ident = ZModMatrix.identity(P, S, 2)
    zero = ZModMatrix.zeros(P, S, 2, 2)
    lim, lim1 = tower_lim_lim1(Tower(P, S, [2, 2, 2], [ident, zero],
                                     "constant"))
    assert lim.is_zero()
    assert lim1.is_zero()


def test_mult_by_p_tower():
    lim, lim1 = tower_lim_lim1(Tower(P, S, [1, 1], [[[P]]], "constant"))
    assert lim.is_zero()
    assert lim1.is_zero()


def test_zero_tail_tower_has_no_lim():
    ident = ZModMatrix.identity(P, S, 2)
    lim, lim1 = tower_lim_lim1(Tower(P, S, [2, 2], [ident], "zero"))
    assert lim.is_zero()
    assert lim1.is_zero()


def test_random_finite_towers_are_mittag_leffler():
    # ten random finite towers; lim^1 must vanish by the cokernel formula
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 4)
        ranks = [rng.randint(1, 3) for _ in range(n)]
        if n >= 2:
            ranks[-1] = ranks[-2]
        maps = [rand_mat(rng, ranks[i], ranks[i + 1]) for i in range(n - 1)]
        tail = rng.choice(["constant", "zero"])
        _, lim1 = tower_lim_lim1(Tower(P, S, ranks, maps, tail))
        assert lim1.is_zero()


def test_tower_validation():
    ident = ZModMatrix.identity(P, S, 2)
    with pytest.raises(InvariantError):
        Tower(P, S, [2, 2], [ident], "sometimes")
    with pytest.raises(InvariantError):
        Tower(P, S, [2, 3], [rand_mat(random.Random(1), 2, 3)], "constant")
    with pytest.raises(InvariantError):
        Tower(P, S, [2, 2], [], "zero")


def test_tower_json_roundtrip():
    ident = ZModMatrix.identity(P, S, 2)
    t = Tower(P, S, [2, 2], [ident], "constant")
    again = Tower.from_json(t.to_json())
    assert again.to_json() == t.to_json()
