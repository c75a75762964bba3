"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def test_oracle_reproduces_acceptance_dims():
    assert oracle.herr_dims(3, 1, [0], "delta") == (1, 2, 0)
    assert oracle.herr_dims(3, 1, [1], "delta") == (0, 2, 1)
    assert oracle.herr_dims(3, 1, [0], "free") == (1, 4, 1)
    # D(F_3(2)) is the trivial module at s = 1
    assert oracle.herr_dims(3, 1, [2], "delta") == (1, 2, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 4, 6])
def test_oracle_matches_closed_forms(p, s):
    assert oracle.herr_dims(p, s, [0], "delta") == (s, 2 * s, 0)
    assert oracle.herr_dims(p, s, [1], "delta") == (0, 2 * s, s)
    if s == 1:
        assert oracle.herr_dims(p, 1, [0], "free") == (1, p + 1, 1)
    h0, h1, h2 = oracle.herr_dims(p, s, [0, 1], "delta")
    assert h0 - h1 + h2 == -2 * s


def test_plan_repeats_for_a_seed_and_changes_with_it():
    for workload in gen.WORKLOADS:
        a = json.dumps(gen.plan(workload, 7))
        assert a == json.dumps(gen.plan(workload, 7))
        assert a != json.dumps(gen.plan(workload, 8))


def _setup(workload, seed, directory):
    directory.mkdir()
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--dir", str(directory), "--src",
         str(run.SRC), "--setup-only"],
        env=run._env(), cwd=ROOT, check=True, timeout=120)
    result = json.loads((directory / "result.json").read_text())
    files = {f.name: f.read_bytes() for f in directory.iterdir()
             if f.name != "result.json"}
    return result["inputs_digest"], files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_seed_writes_byte_identical_inputs(workload, tmp_path):
    first = _setup(workload, 11, tmp_path / "a")
    second = _setup(workload, 11, tmp_path / "b")
    assert first == second


def test_checks_catch_a_wrong_answer():
    op = gen.plan("herr-window", 1)[-1]
    dims = op["check"]["dims"]
    doc = {"verdict": "stable", "dims": dims, "euler": dims[0] - dims[1]
           + dims[2], "p": 3, "s": 1, "mode": "delta"}
    assert worker.check(op, {}, json.dumps(doc)) is None
    doc["dims"] = [dims[0] + 1, dims[1] + 1, dims[2]]
    assert worker.check(op, {}, json.dumps(doc)) is not None
    trace = next(o for o in gen.plan("tate-sen", 1)
                 if o["id"].startswith("trace/"))
    doc = {"projection": trace["check"]["expect"] + " + pi^100"}
    assert worker.check(trace, {}, json.dumps(doc)) is not None


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = run.measure("small-ops", 3, 0, True, run.time.monotonic())
    assert out["failed"] == 0 and not out["problems"]
    assert set(out["e2e"]) == {m["name"] for m in declared["end_to_end"]}
    assert set(out["layer"]) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]
             + declared["per_layer"]}
    for name, (_, unit) in {**out["e2e"], **out["layer"]}.items():
        assert units[name] == unit, name
