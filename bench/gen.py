"""Seeded operation lists for the benchmark workloads.

plan(workload, seed) returns plain data: one dict per operation, in run
order, with the expected answer each check needs.  The same seed gives the
same list.  Files and arguments that need the library to write (module
files through module_to_json, the (phi - 1) image of a planted Witt
vector) are described here and written by worker.py during set-up.

Costs depend on (p, s, mode, window) and on the column cache, hardly on
the twist itself, so each herr-window cell fixes which residue classes of
n it runs and the seed draws the representatives.  That keeps the cost of
a list nearly the same from seed to seed while the inputs still change.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle

WORKLOADS = ("herr-window", "tate-sen", "small-ops")
KNOWN_FAILURES = "known-failures"

# (p, s, mode, first window, residue-class choices of n in run order).
# n is drawn as r + L*k with L = (p - 1) p^(s - 1), the period of the
# module Z/p^s(n); each tuple lists the residues r the seed may pick.
HERR_CELLS = (
    (3, 1, "delta", 32, ((0,),)),           # acceptance criterion 1
    (3, 2, "delta", 16, ((0,), (1, 2, 3, 4, 5))),
    (3, 1, "free", 16, ((0, 1),)),
    (5, 1, "delta", 16, ((0,), (1, 2, 3))),
    (5, 1, "free", 16, ((0, 1, 2, 3),)),
    (7, 1, "delta", 16, ((1,), (2, 3, 4, 5))),
    (7, 1, "delta", 8, ((0,),)),
)
# d^2 certification probes that pass at the seed; the other 28 cells of
# p in {3, 5, 7}, s <= 6 are in ledger.json.
PROBE_CELLS = ((3, 1), (3, 2), (5, 1), (7, 1))
PROBE_DEPTH = 8
MODULE_PREC = 600


def period(p: int, s: int) -> int:
    return (p - 1) * p ** (s - 1)


def _draw_twist(rng, p, s, residues):
    return rng.choice(residues) + period(p, s) * rng.randint(-2, 3)


def _module(p, s, ns, prec=MODULE_PREC):
    return {"module": {"p": p, "s": s, "ns": list(ns), "prec": prec}}


def _herr_op(tag, p, s, mode, window, ns, slot=0):
    # slot numbers the twists of a cell: slot 0 builds the column cache
    cell = f"p{p}s{s}-{mode}-w{window}"
    return {
        "id": f"herr/{tag}/{cell}/{slot}/n{','.join(map(str, ns))}",
        "kind": "cli",
        "argv": ["cohomology", "@module", "--prime", str(p), "--power",
                 str(s), "--window", str(window), "--doublings", "2",
                 "--mode", mode, "--format", "json"],
        "files": {"module": _module(p, s, ns)},
        "check": {"type": "herr", "p": p, "s": s, "mode": mode,
                  "dims": list(oracle.herr_dims(p, s, ns, mode))},
    }


def _probe_op(p, s, mode, n):
    return {
        "id": f"probe/p{p}s{s}-{mode}/n{n}",
        "kind": "d2_probe",
        "module": _module(p, s, [n])["module"],
        "mode": mode,
        "depth": PROBE_DEPTH,
        "check": {"type": "d2"},
    }


def _herr_window(rng):
    ops = [_probe_op(p, s, mode, rng.randint(-6, 12))
           for p, s in PROBE_CELLS for mode in ("delta", "free")]
    for p, s, mode, window, classes in HERR_CELLS:
        for slot, residues in enumerate(classes):
            n = _draw_twist(rng, p, s, residues)
            ops.append(_herr_op("twist", p, s, mode, window, [n], slot))
    # one rank-2 direct sum; both summands share n mod (p - 1) because a
    # module carries a single Delta character
    parity = rng.randint(0, 1)
    ns = [parity + 2 * rng.randint(-3, 6) for _ in range(2)]
    ops.append(_herr_op("sum", 3, 1, "delta", 16, ns))
    return ops


# -- tate-sen ----------------------------------------------------------------

# (p, invocations, samples each).  A sample's cost depends on its random
# element (spread about 30% of the mean at each p), so a list needs many
# samples; p = 5 samples vary least per second spent, p = 3 the most.
# Each invocation stays well under a decompletion (about 0.8 s), so the
# slowest operation does not depend on the seed.
TS_REPORTS = ((3, 16, 1), (5, 16, 6), (7, 10, 3))
TRACE_WINDOW = 24


def _trace_op(rng, i):
    p = (3, 5, 7)[i % 3]
    g = 1 + i % 2
    m = rng.randint(0, g)
    den = p ** g
    # exponents below TRACE_WINDOW / p^g: see the trace entry in ledger.json
    nums = rng.sample(range(-2 * den, TRACE_WINDOW), rng.randint(3, 6))
    terms = {Fraction(a, den): rng.randint(1, p - 1) for a in nums}
    return {
        "id": f"trace/p{p}g{g}m{m}/{i}",
        "kind": "cli",
        "argv": ["trace", oracle.format_terms(terms), "--prime", str(p),
                 "--level", str(m), "--grid-level", str(g), "--window",
                 str(TRACE_WINDOW)],
        "check": {"type": "trace", "p": p,
                  "expect": oracle.format_terms(
                      oracle.trace_projection(terms, p, m))},
    }


def _tate_sen(rng):
    ops = []
    for p, count, samples in TS_REPORTS:
        for j in range(count):
            ops.append({
                "id": f"ts-report/p{p}/{j}",
                "kind": "cli",
                "argv": ["ts-report", "--prime", str(p), "--level", "0",
                         "--samples", str(samples), "--seed",
                         str(rng.randrange(10 ** 6))],
                "check": {"type": "ts", "p": p, "m": 0},
            })
    # decompletion is the slowest kind here: twelve runs of it spread over
    # the pass give its latency a steadier mean
    for parity in (0, 1) * 6:
        n = parity + 2 * rng.randint(-3, 6)
        h0, h1, _ = oracle.herr_dims(3, 1, [n], "delta")
        ops.append({
            "id": f"decompletion/p3/n{n}",
            "kind": "decompletion",
            "module": _module(3, 1, [n], prec=60)["module"],
            "level": 1,
            "check": {"type": "decompletion", "dims": [h0, h1]},
        })
    ops += [_trace_op(rng, i) for i in range(48)]
    return ops


# -- small-ops ---------------------------------------------------------------


def _terms_json(terms: dict) -> list:
    return [[int(e), c] for e, c in sorted(terms.items())]


def _random_series(rng, p, lo, hi, count, allow_zero=False):
    n = rng.randint(0 if allow_zero else 1, count)
    return {rng.randint(lo, hi - 1): rng.randint(1, p - 1) for _ in range(n)}


def _solve_as_op(rng, i):
    p = (3, 5, 7)[i % 3]
    v = rng.randint(-3 * p, 0)
    terms = {Fraction(v): rng.randint(1, p - 1)}
    for _ in range(rng.randint(1, 3)):
        terms.setdefault(Fraction(rng.randint(v + 1, 20)), rng.randint(1, p - 1))
    return {
        "id": f"solve-as/p{p}/v{v}",
        "kind": "cli",
        "argv": ["solve-as", oracle.format_terms(terms), "--prime", str(p)],
        "check": {"type": "as", "valuation": str(Fraction(v, p))},
    }


def _solve_phi1_op(rng, i):
    s = 2 + i % 5
    # components in pi*F_3[[pi]]: then rho_constant(w) = 0, so the
    # normalized solution is w itself and y - w is the constant 0
    planted = [_terms_json(_random_series(rng, 3, 1, 10, 3)) for _ in range(s)]
    return {
        "id": f"solve-phi1/p3s{s}/{i}",
        "kind": "cli",
        "argv": ["solve-phi1", "#z", "--prime", "3", "--power", str(s)],
        "planted": planted,
        "prec": 24,
        "check": {"type": "phi1", "planted": planted},
    }


def _witt_op(rng, i, fn):
    """ghost_check on two Witt vectors, or the product of the Teichmuller
    lifts of two nonzero series (x and y then hold one component each)."""
    s = (3, 5)[i % 2]
    if fn == "ghost_check":
        draw = lambda: [_terms_json(_random_series(rng, 3, 0, 16, 4, True))
                        for _ in range(s)]
    else:
        draw = lambda: [_terms_json(_random_series(rng, 3, -3, 16, 4))]
    return {"id": f"{fn}/p3s{s}/{i}", "kind": fn, "p": 3, "s": s,
            "x": draw(), "y": draw(), "prec": 16, "check": {"type": fn}}


def _mat(rows, cols, fill):
    return [[fill(i, j) for j in range(cols)] for i in range(rows)]


def _mul(A, B, q):
    if not A or not B:
        return _mat(len(A), len(B[0]) if B else 0, lambda i, j: 0)
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*B)]
            for row in A]


def _add(A, B, q):
    return [[(a + b) % q for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _basis_change(rng, r, q, p):
    """Random invertible P mod q with its inverse, from elementary moves."""
    P = _mat(r, r, lambda i, j: int(i == j))
    Pinv = _mat(r, r, lambda i, j: int(i == j))
    for _ in range(3 * r):
        if r > 1:
            i, j = rng.sample(range(r), 2)
            c = rng.randrange(q)
            P[i] = [(a + c * b) % q for a, b in zip(P[i], P[j])]
            for row in Pinv:
                row[j] = (row[j] - c * row[i]) % q
        i = rng.randrange(r)
        u = rng.choice([x for x in range(1, q) if x % p])
        P[i] = [a * u % q for a in P[i]]
        ui = pow(u, -1, q)
        for row in Pinv:
            row[i] = row[i] * ui % q
    return P, Pinv


def _split_complex(rng, ranks, p, s):
    """Cochain complex on degrees 0..len(ranks)-1, conjugated from a split
    one whose cohomology is known: returns (diffs, profiles)."""
    q = p ** s
    L = len(ranks)
    pairs, isolated, E = [], [], {}
    t = 0
    for n in range(L):
        avail = ranks[n] - t
        m = rng.randint(0, min(avail, ranks[n + 1])) if n + 1 < L else 0
        if n + 1 < L:
            E[n] = _mat(ranks[n + 1], ranks[n], lambda i, j: 0)
        for j in range(m):
            k = rng.randint(0, s)
            pairs.append((n, k))
            E[n][j][t + j] = p ** k % q
        isolated += [n] * (avail - m)
        t = m
    bases = [_basis_change(rng, r, q, p) for r in ranks]
    diffs = {n: _mul(_mul(bases[n + 1][0], E[n], q), bases[n][1], q)
             for n in E}
    profiles = {n: oracle.elementary_profile(pairs, isolated, n, p, s)
                for n in range(L)}
    return diffs, profiles


def _complex_doc(p, s, ranks, diffs):
    return {"format": "chain-complex", "p": p, "s": s,
            "ranks": {str(n): r for n, r in enumerate(ranks)},
            "diffs": {str(n): d for n, d in diffs.items()}}


# cone shapes: (p, s, ranks of X, ranks of Y)
CONE_SLOTS = ((3, 2, (2, 3, 2), (2, 3, 2)), (5, 2, (3, 4, 3), (2, 4, 2)),
              (3, 3, (4, 6, 4), (3, 5, 3)), (7, 2, (6, 8, 6), (4, 8, 4)),
              (3, 2, (8, 12, 8), (6, 10, 6)), (3, 4, (12, 16, 12), (12, 16, 12)),
              (5, 3, (16, 16, 16), (16, 16, 16)))


def _cone_op(rng, i):
    p, s, rx, ry = CONE_SLOTS[i % len(CONE_SLOTS)]
    q = p ** s
    dx, hx = _split_complex(rng, rx, p, s)
    dy, hy = _split_complex(rng, ry, p, s)
    L = len(rx)
    # a null-homotopic map f = d h + h d, so Cone(f) = Cone(0) and
    # H^n(cone) = H^(n-1)(Y) + H^n(X)
    h = {n: _mat(ry[n - 1], rx[n], lambda a, b: rng.randrange(q))
         for n in range(1, L)}
    blocks = {}
    for n in range(L):
        f = _mat(ry[n], rx[n], lambda a, b: 0)
        if n in h and n - 1 in dy:
            f = _add(f, _mul(dy[n - 1], h[n], q), q)
        if n + 1 in h and n in dx:
            f = _add(f, _mul(h[n + 1], dx[n], q), q)
        blocks[str(n)] = f
    doc = {"format": "chain-map", "src": _complex_doc(p, s, rx, dx),
           "dst": _complex_doc(p, s, ry, dy), "blocks": blocks}
    expect = {str(n): sorted(hy.get(n - 1, []) + hx.get(n, []))
              for n in range(L + 1)}
    return {"id": f"cone/p{p}s{s}/{i}", "kind": "cli",
            "argv": ["cone", "@map"], "files": {"map": {"json": doc}},
            "check": {"type": "cone", "cohomology": expect}}


def _kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


SPECTRAL_SLOTS = ((3, 2, (1, 2, 1), (2, 3, 2)), (5, 1, (2, 3, 2), (2, 3, 1)),
                  (3, 3, (2, 2, 1), (1, 3, 2)), (7, 2, (2, 3, 2), (2, 3, 2)),
                  (3, 2, (2, 4, 2), (2, 4, 2)))


def _spectral_op(rng, i):
    p, s, ra, rb = SPECTRAL_SLOTS[i % len(SPECTRAL_SLOTS)]
    q = p ** s
    da, _ = _split_complex(rng, ra, p, s)
    db, _ = _split_complex(rng, rb, p, s)
    eye = lambda r: _mat(r, r, lambda a, b: int(a == b))
    ranks, dh, dv = {}, {}, {}
    for x, a in enumerate(ra):
        for y, b in enumerate(rb):
            ranks[f"{x},{y}"] = a * b
            if x in da:
                dh[f"{x},{y}"] = [[c % q for c in row]
                                  for row in _kron(da[x], eye(b))]
            if y in db:
                dv[f"{x},{y}"] = [[(-1) ** x * c % q for c in row]
                                  for row in _kron(eye(a), db[y])]
    doc = {"format": "double-complex", "p": p, "s": s, "ranks": ranks,
           "dh": dh, "dv": dv}
    euler = sum((-1) ** (x + y) * s * a * b
                for x, a in enumerate(ra) for y, b in enumerate(rb))
    return {"id": f"spectral/p{p}s{s}/{i}", "kind": "cli",
            "argv": ["spectral", "@grid"], "files": {"grid": {"json": doc}},
            "check": {"type": "spectral", "euler": euler}}


TOWER_SLOTS = ((3, 2, (2, 3, 3)), (5, 2, (3, 4, 4, 4)), (3, 3, (4, 6, 5, 5)),
               (7, 2, (2, 4, 6, 6)), (3, 2, (8, 12, 10, 10)))


def _tower_op(rng, i):
    p, s, ranks = TOWER_SLOTS[i % len(TOWER_SLOTS)]
    q = p ** s
    tail = ("constant", "zero")[i % 2]
    maps = [_mat(ranks[n], ranks[n + 1], lambda a, b: rng.randrange(q))
            for n in range(len(ranks) - 1)]
    units = 0
    if tail == "constant":
        # the tail map P D P^-1 keeps exactly the unit part of D forever
        r = ranks[-1]
        units_mod_q = [x for x in range(1, q) if x % p]
        diag = [rng.choice(units_mod_q) if rng.random() < 0.5
                else p ** rng.randint(1, s) % q for _ in range(r)]
        units = sum(1 for d in diag if d % p)
        D = _mat(r, r, lambda a, b: diag[a] if a == b else 0)
        P, Pinv = _basis_change(rng, r, q, p)
        maps[-1] = _mul(_mul(P, D, q), Pinv, q)
    doc = {"format": "tower", "p": p, "s": s, "ranks": list(ranks),
           "maps": maps, "tail": tail}
    return {"id": f"tower/p{p}s{s}-{tail}/{i}", "kind": "cli",
            "argv": ["tower", "@tower"], "files": {"tower": {"json": doc}},
            "check": {"type": "tower", "lim": [q] * units}}


def _small_ops(rng):
    ops = [_solve_as_op(rng, i) for i in range(180)]
    ops += [_solve_phi1_op(rng, i) for i in range(120)]
    ops += [_witt_op(rng, i, "ghost_check") for i in range(60)]
    ops += [_witt_op(rng, i, "teichmuller") for i in range(60)]
    ops += [_cone_op(rng, i) for i in range(6 * len(CONE_SLOTS))]
    # twelve more of each of the two largest cone shapes, the slowest kinds
    ops += [_cone_op(rng, i) for i in range(6 * len(CONE_SLOTS),
                                            18 * len(CONE_SLOTS))
            if i % len(CONE_SLOTS) >= len(CONE_SLOTS) - 2]
    ops += [_spectral_op(rng, i) for i in range(6 * len(SPECTRAL_SLOTS))]
    ops += [_tower_op(rng, i) for i in range(6 * len(TOWER_SLOTS))]
    return ops


# -- known failures ----------------------------------------------------------


def _known_failures(rng):
    """Operations that fail at the seed and are kept out of the timed
    workloads; ledger.json records the failure each one should show."""
    ops = []
    for p in (3, 5, 7):
        for s in range(1, 7):
            if (p, s) in PROBE_CELLS:
                continue
            for mode in ("delta", "free"):
                ops.append(_probe_op(p, s, mode, rng.randint(-6, 12)))
    ops.append(_herr_op("twist", 3, 2, "free", 16,
                        [_draw_twist(rng, 3, 2, (0, 1, 2, 3, 4, 5))]))
    ops.append(_herr_op("twist", 7, 1, "delta", 8,
                        [_draw_twist(rng, 7, 1, (1,))]))
    terms = {Fraction(3): 1, Fraction(10): 1}
    ops.append({
        "id": "trace/p3g1m1/beyond-window",
        "kind": "cli",
        "argv": ["trace", oracle.format_terms(terms), "--prime", "3",
                 "--level", "1", "--grid-level", "1", "--window",
                 str(TRACE_WINDOW)],
        "check": {"type": "trace", "p": 3,
                  "expect": oracle.format_terms(terms)},
    })
    return ops


_BUILDERS = {"herr-window": _herr_window, "tate-sen": _tate_sen,
             "small-ops": _small_ops, KNOWN_FAILURES: _known_failures}


def plan(workload: str, seed: int) -> list:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    if workload in ("tate-sen", "small-ops"):
        # spread each kind of operation over the whole pass, so that its
        # mean latency samples the machine at many moments; herr-window
        # keeps its order, which decides who builds the column cache
        rng.shuffle(ops)
    return ops
