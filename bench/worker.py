"""One pass of a workload in a fresh interpreter.

Set-up imports phigamma, builds the modules and writes the generated input
files into the pass directory; then the operation list runs once, closed
loop, and every output is checked against its oracle after the timed loop.
The result goes to <dir>/result.json.  run.py starts this file; it is not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import oracle


def _phigamma(src: Path):
    import phigamma
    if not Path(phigamma.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"phigamma imported from {phigamma.__file__}, "
                         f"not from {src}")
    import phigamma.cli
    return phigamma


# -- set-up ------------------------------------------------------------------


class Inputs:
    """Writes the plan's input files and builds its library objects,
    keeping a digest of everything the program will receive."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.digest = hashlib.sha256()

    @staticmethod
    def module(spec):
        """Z/p^s(n), or the direct sum over several n, with Phi = 1."""
        from phigamma.modules import identity_matrix, make_module, tate_twist
        from phigamma.wittside import ArithLiftElement
        p, s, ns, prec = spec["p"], spec["s"], spec["ns"], spec["prec"]
        if len(ns) == 1:
            one = identity_matrix(p, s, 1, prec)
            return tate_twist(make_module(p, s, one, [("gamma", one, 1 + p)]),
                              ns[0])
        c = lambda v: ArithLiftElement.constant(p, s, v, prec)
        r = len(ns)
        phi = [[c(int(i == j)) for j in range(r)] for i in range(r)]
        gamma = [[c(pow(1 + p, ns[i], p ** s) if i == j else 0)
                  for j in range(r)] for i in range(r)]
        return make_module(p, s, phi, [("gamma", gamma, 1 + p)],
                           delta_character_exponent=ns[0])

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        data = text.encode()
        path.write_bytes(data)
        self.digest.update(name.encode() + b"\0" + data + b"\0")
        return str(path)

    @staticmethod
    def series(p, terms, prec):
        from phigamma.normfield import NormFieldElement
        return NormFieldElement(p, 0, dict(terms), prec)

    def prepare(self, i: int, op: dict) -> dict:
        """Resolved form of one operation: argv or library arguments."""
        from phigamma.modules import module_to_json
        from phigamma.normfield import format_element
        from phigamma.wittside import WittVector, witt_sub
        kind = op["kind"]
        if kind in ("d2_probe", "decompletion"):
            return {"module": self.module(op["module"])}
        if kind in ("ghost_check", "teichmuller"):
            p, s, prec = op["p"], op["s"], op["prec"]
            if kind == "ghost_check":
                vec = lambda comps: WittVector(
                    p, s, [self.series(p, c, prec) for c in comps])
                return {"x": vec(op["x"]), "y": vec(op["y"])}
            return {"x": self.series(p, op["x"][0], prec),
                    "y": self.series(p, op["y"][0], prec)}
        files = {}
        for name, spec in op.get("files", {}).items():
            text = (module_to_json(self.module(spec["module"]))
                    if "module" in spec
                    else json.dumps(spec["json"], sort_keys=True))
            files[name] = f"{i:04d}-{name}.json"
            self.write(files[name], text)
        argv = [files[a[1:]] if a.startswith("@") else a for a in op["argv"]]
        extra = {}
        if "#z" in argv:
            w = WittVector(3, len(op["planted"]),
                           [self.series(3, c, op["prec"])
                            for c in op["planted"]])
            z = witt_sub(w.frobenius(), w)
            window = int(min(c.prec for c in z.components))
            argv[argv.index("#z")] = "; ".join(format_element(c)
                                               for c in z.components)
            argv += ["--window", str(window)]
            extra["window"] = window
        self.digest.update(json.dumps(argv).encode())
        argv = [str(self.dir / a) if a in files.values() else a for a in argv]
        report = str(self.dir / f"{i:04d}-report.out")
        return {"argv": argv + ["--report", report], "report": report,
                **extra}


# -- the operations ------------------------------------------------------------


def _cli(main, argv):
    """Exit code of one in-process invocation of the phigamma command."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main.main(args=argv, prog_name="phigamma", standalone_mode=True)
        except SystemExit as stop:
            code = stop.code
            return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def _api(kind, op, res):
    from phigamma.complexes import certify_d_squared, herr_complex
    from phigamma.tatesen import decompletion_compare
    from phigamma.wittside import ghost_check, teichmuller, witt_mul
    if kind == "d2_probe":
        return certify_d_squared(herr_complex(res["module"], op["mode"]),
                                 op["depth"])
    if kind == "decompletion":
        return decompletion_compare(res["module"], op["level"])
    if kind == "ghost_check":
        return ghost_check(res["x"], res["y"], t=2)
    return witt_mul(teichmuller(res["x"], op["s"]),
                    teichmuller(res["y"], op["s"]))


def _terms(x) -> dict:
    return {Fraction(e): c for e, c in x.terms().items()}


def _api_bytes(kind, out) -> bytes:
    if kind == "teichmuller":
        text = json.dumps([oracle.format_terms(_terms(c))
                           for c in out.components])
    else:
        text = json.dumps(out, sort_keys=True, default=str)
    return text.encode()


# -- checks ------------------------------------------------------------------


def check(op: dict, res: dict, out) -> str | None:
    """None when the answer agrees with its oracle, else the reason."""
    chk = op["check"]
    kind = chk["type"]
    if kind == "d2":
        return None if out is True else f"probe returned {out!r}"
    if kind == "decompletion":
        h0, h1 = chk["dims"]
        want = {0: (h0, h0), 1: (h1, h1)}
        got = {j: tuple(v) for j, v in out["degrees"].items()}
        return None if out["equal"] and got == want else f"degrees {got}"
    if kind == "ghost_check":
        return None if out["passed"] else "ghost law failed"
    if kind == "teichmuller":
        a, b = res["x"], res["y"]
        prod, cut = oracle.series_product(_terms(a), _terms(b), 3,
                                          a.prec, b.prec)
        first = out.components[0]
        cut = min(cut, first.prec)
        if oracle.below(_terms(first), cut) != oracle.below(prod, cut):
            return "component 0 is not the product"
        if any(not c.is_zero() for c in out.components[1:]):
            return "higher components are nonzero"
        return None
    doc = json.loads(out)
    if kind == "herr":
        if doc["verdict"] != "stable":
            return "unstable"
        h0, h1, h2 = chk["dims"]
        if doc["dims"] != chk["dims"] or doc["euler"] != h0 - h1 + h2:
            return f"dims {doc['dims']}"
        if (doc["p"], doc["s"], doc["mode"]) != (chk["p"], chk["s"],
                                                 chk["mode"]):
            return "report names another cell"
        return None
    if kind == "ts":
        ok = (doc["format"] == "tate-sen-certificate" and doc["c2"] == "0"
              and (doc["p"], doc["m"]) == (chk["p"], chk["m"]))
        return None if ok else f"c2 = {doc['c2']}"
    if kind == "trace":
        got = oracle.parse_terms(doc["projection"], chk["p"])
        return (None if got == oracle.parse_terms(chk["expect"], chk["p"])
                else f"projection {doc['projection']}")
    if kind == "as":
        got = [Fraction(v) for v in doc["valuation"]]
        return (None if got == [Fraction(chk["valuation"])]
                else f"valuation {doc['valuation']}")
    if kind == "phi1":
        cut = min(Fraction(doc["certificate_window"]), res["window"])
        for y, w in zip(doc["solution"], chk["planted"]):
            want = {Fraction(e): c for e, c in w}
            if oracle.below(oracle.parse_terms(y, 3), cut) != \
                    oracle.below(want, cut):
                return f"y - w is not constant below {cut}"
        return None
    if kind == "cone":
        want = chk["cohomology"]
        got = doc["cohomology"]
        if not doc["les_exact"]:
            return "long exact sequence not exact"
        for n in set(want) | set(got):
            if got.get(n, []) != want.get(n, []):
                return f"H^{n} of the cone is {got.get(n)}"
        return None
    if kind == "spectral":
        pairs = doc["abutment"]
        euler = sum((-1) ** int(n) * tot for n, (_, tot) in pairs.items())
        if not doc["abutment_equal"] or any(a != b for a, b in pairs.values()):
            return "E_infinity differs from the total cohomology"
        return None if euler == chk["euler"] else f"Euler {euler}"
    if kind == "tower":
        ok = (doc["lim1_profile"] == [] and doc["mittag_leffler"]
              and doc["lim_profile"] == chk["lim"])
        return None if ok else f"lim {doc['lim_profile']}, " \
                               f"lim1 {doc['lim1_profile']}"
    raise ValueError(f"no check for {kind!r}")


# -- one pass ------------------------------------------------------------------


def run_pass(ops, resolved, tracer, ref):
    """Run the list once.  Each record holds the operation's time in
    reference seconds (t, on ref) and in wall seconds (raw_t)."""
    from phigamma.cli import main
    cli = (lambda argv: tracer.call("cli", f"cli.{argv[0]}", _cli, main,
                                    argv)) \
        if tracer else (lambda argv: _cli(main, argv))
    if tracer:
        tracer.install()
    records = []
    layers_before = tracer.snapshot() if tracer else None
    clock = time.perf_counter
    for op, res in zip(ops, resolved):
        r0, t0 = ref.now(), clock()
        try:
            if op["kind"] == "cli":
                out, err = cli(res["argv"]), None
            else:
                out, err = _api(op["kind"], op, res), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, type(exc).__name__
        t1, r1 = clock(), ref.now()
        rec = {"id": op["id"], "t": r1 - r0, "raw_t": t1 - t0, "out": out,
               "err": err}
        if tracer:
            now = tracer.snapshot()
            rec["layers"] = {L: now[L] - layers_before[L] for L in now}
            layers_before = now
        records.append(rec)
    return records


def _verdict(op, res, out) -> str:
    try:
        reason = check(op, res, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        reason = f"unreadable output ({type(exc).__name__}: {exc})"
    return "ok" if reason is None else f"wrong:{reason}"


def evaluate(ops, resolved, records):
    """Status per operation, and the digest of every report's bytes."""
    digest = hashlib.sha256()
    exits = {1: 0, 2: 0, 3: 0}
    for op, res, rec in zip(ops, resolved, records):
        out = rec["out"]
        if rec["err"]:
            status = f"raised:{rec['err']}"
        elif op["kind"] == "cli":
            code = out
            if code in exits:
                exits[code] += 1
            path = Path(res["report"])
            data = path.read_bytes() if path.exists() else b""
            digest.update(data + b"\0")
            status = (f"exit:{code}" if code != 0
                      else _verdict(op, res, data.decode()))
        else:
            digest.update(_api_bytes(op["kind"], out) + b"\0")
            status = _verdict(op, res, out)
        rec["status"] = status
        del rec["out"]
    return digest.hexdigest(), exits


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    phigamma = _phigamma(args.src)
    ops = gen.plan(args.workload, args.seed)
    inputs = Inputs(args.dir)
    inputs.digest.update(json.dumps(ops, sort_keys=True).encode())
    resolved = [inputs.prepare(i, op) for i, op in enumerate(ops)]
    setup_done = time.monotonic()
    result = {"setup_done": setup_done,
              "inputs_digest": inputs.digest.hexdigest()}
    if not args.setup_only:
        import speed
        ref = speed.RefClock()
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer(clock=ref.now)
        ref.start()
        try:
            records = run_pass(ops, resolved, tracer, ref)
        finally:
            ref.stop()
        digest, exits = evaluate(ops, resolved, records)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # the column cache of the window engine, while it exists
        cache = getattr(getattr(phigamma.complexes, "_ring_column_series",
                                None), "cache_info", None)
        info = cache() if cache else None
        result.update({
            "ops": records,
            "wall_s": sum(rec["t"] for rec in records),
            "raw_wall_s": sum(rec["raw_t"] for rec in records),
            "probes": len(ref.samples),
            "speed": ref.speed(),
            "reports_digest": digest,
            "peak_rss_mb": rss_kib / 1024,
            "cli_exits": exits,
            "column_cache": [info.hits, info.misses] if info else [0, 0],
        })
        if tracer:
            result["trace"] = {k: v for k, (v, _) in tracer.metrics().items()}
            tracer.write_spans(args.dir / "spans.tsv")
    (args.dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
