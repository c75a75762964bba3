"""phigamma benchmark: seeded, oracle-checked workloads.

    python3 bench/run.py --workload herr-window --seed 1 --seconds 30 --trace 0

Run from a checkout holding src/phigamma.  Each pass of a workload runs in
a fresh interpreter (worker.py), so in-process caches start empty as they
do for a command-line user; a run repeats passes until --seconds is used
up (at least one) and reports medians.  Set-up is also timed in extra
set-up-only interpreters.  The load is one process, one thread, closed
loop.  Operation times are in reference seconds: wall time rescaled by the
machine speed that speed.py measures while the pass runs.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 adds
one traced pass after an untraced one and prints the per-layer metrics and
trace.overhead_s.  The last line of standard output is the JSON result;
the lines before it list every metric with its unit, including
fail_share and wrong_share.

--workload known-failures runs the operations of ledger.json that fail at
the seed and exits 0 only if each still fails as recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_PROBES = 4
TIME_LIMIT = 170.0      # every run must end within 180 s

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


class Runner:
    def __init__(self, workload, seed, started):
        self.workload, self.seed = workload, seed
        self.started = started
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = _env()
        self.count = 0

    def worker(self, setup_only=False, trace=False):
        """Start one worker, wait for it, and return its result with the
        set-up time measured from the moment it was started."""
        self.count += 1
        d = self.work / f"{self.count:03d}"
        d.mkdir()
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--dir", str(d), "--src", str(SRC)]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace"] if trace else []
        left = TIME_LIMIT - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before a pass could start")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=left,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {TIME_LIMIT:.0f} s budget")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        res = json.loads((d / "result.json").read_text())
        res["setup_s"] = res["setup_done"] - t0
        res["elapsed"] = time.monotonic() - t0
        if not trace:
            shutil.rmtree(d)
        return res


def _slowest_kind(passes):
    """Latency of the slowest kind of operation.  A kind is an operation
    id without its last part (the drawn twist or index); its latency is
    the mean over its runs, which are spread over the pass.  The machine's
    speed jumps between two levels for seconds at a time, so a median of
    a few such samples flips between the levels where a mean does not."""
    times = {}
    for res in passes:
        for rec in res["ops"]:
            times.setdefault(rec["id"].rsplit("/", 1)[0], []).append(rec["t"])
    return max(sum(t) / len(t) for t in times.values())


def _tally(passes):
    attempted = failed = wrong = 0
    failures = {}
    for res in passes:
        for rec in res["ops"]:
            attempted += 1
            if rec["status"] != "ok":
                failed += 1
                wrong += rec["status"].startswith("wrong")
                failures.setdefault(rec["id"], rec["status"])
    return attempted, failed, wrong, failures


def _digest_problems(workload, seed, setups, passes):
    problems = []
    if len({r["inputs_digest"] for r in setups + passes}) != 1:
        problems.append("one seed generated different inputs")
    reports = {r["reports_digest"] for r in passes}
    if len(reports) != 1:
        problems.append("report bytes differ between passes "
                        "(or with tracing on and off)")
    if seed == DEFAULT_SEED:
        known = json.loads((BENCH / "digests.json").read_text())
        if reports != {known.get(workload)}:
            problems.append("report bytes differ from the seed commit's")
    return problems


def measure(workload, seed, seconds, trace, started):
    run = Runner(workload, seed, started)
    setups = [run.worker(setup_only=True) for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        passes.append(run.worker())
        used = time.monotonic() - started
        if used + median([r["elapsed"] for r in passes]) > seconds:
            break
    traced = run.worker(trace=True) if trace else None
    checked = passes + ([traced] if traced else [])
    attempted, failed, wrong, failures = _tally(checked)
    problems = _digest_problems(workload, seed, setups, checked)
    walls = [r["wall_s"] for r in passes]
    e2e = {
        "wall_s": (median(walls), "s"),
        "op_s_max": (_slowest_kind(passes), "s"),
        "setup_s": (median([r["setup_s"] for r in setups + passes])
                    * median([r["speed"] for r in passes]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in passes]), "MiB"),
    }
    shares = {"fail_share": (failed / attempted, "ratio"),
              "wrong_share": (wrong / attempted, "ratio")}
    layer = None
    if traced:
        layer = {k: (v, _unit(k)) for k, v in traced["trace"].items()}
        hits, misses = traced["column_cache"]
        layer["complexes.column_cache.hits"] = (hits, "count")
        layer["complexes.column_cache.misses"] = (misses, "count")
        layer["complexes.column_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        for code, n in traced["cli_exits"].items():
            layer[f"cli.exit_{code}"] = (n, "count")
        layer["trace.overhead_s"] = (traced["wall_s"] - median(walls), "s")
    return {
        "e2e": e2e, "shares": shares, "layer": layer,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "failures": failures, "problems": problems,
        "passes": len(passes), "setups": len(setups) + len(passes),
        "raw_wall_s": median([r["raw_wall_s"] for r in passes]),
        "probes": sum(r["probes"] for r in passes),
        "ops": len(passes[0]["ops"]),
    }


def _unit(name):
    return "count" if name.endswith((".calls", ".errors")) else "s"


def known_failures(started):
    """Check that every ledger entry still fails the way it is recorded."""
    ledger = json.loads((BENCH / "ledger.json").read_text())["known_failures"]
    run = Runner(gen.KNOWN_FAILURES, DEFAULT_SEED, started)
    res = run.worker()
    ok = True
    for rec in res["ops"]:
        entry = next((e for e in ledger if rec["id"].startswith(e["match"])),
                     None)
        want = entry["status"] if entry else "?"
        same = rec["status"].startswith(want)
        ok &= same
        print(f"{'as recorded' if same else 'CHANGED':12s} {rec['id']}: "
              f"{rec['status']} (ledger: {want})")
    counts = {e["match"]: sum(r["id"].startswith(e["match"])
                              for r in res["ops"]) for e in ledger}
    for e in ledger:
        if counts[e["match"]] != e["count"]:
            ok = False
            print(f"CHANGED      {e['match']}: {counts[e['match']]} "
                  f"operations, ledger lists {e['count']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=gen.WORKLOADS + (gen.KNOWN_FAILURES,))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "phigamma" / "__init__.py").is_file():
        print(f"no phigamma sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == gen.KNOWN_FAILURES:
            return known_failures(started)
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), started)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {out['ops']} "
          f"operations per pass, {out['passes']} untraced pass(es), "
          f"{out['setups']} set-ups")
    print(f"  (wall_s and op_s_max are in reference seconds; the same "
          f"list took {out['raw_wall_s']:.6g} s of wall time; "
          f"{out['probes']} speed probes)")
    shown = dict(out["e2e"], **out["shares"])
    for name, (value, unit) in shown.items():
        print(f"  {name:12s} {value:.6g} {unit}")
    print(f"  base: {out['attempted']} operations attempted, "
          f"{out['failed']} failed, {out['wrong']} wrong")
    for op_id, status in sorted(out["failures"].items()):
        print(f"  failed {op_id}: {status}", file=sys.stderr)
    for problem in out["problems"]:
        print(f"  check failed: {problem}", file=sys.stderr)
    metrics = out["layer"] if args.trace else out["e2e"]
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:.6g} {unit}")
    result = {
        "correct": not out["failed"] and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
