"""Command-line frontend: subcommand outputs, exit codes, determinism."""

import json
import time
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from phigamma.cli import main, make_schedule
from phigamma.complexes import MAX_WINDOW_BYTES
from phigamma.homotopy import (MAX_FILE_DEGREE, MAX_FILE_RANK, ChainComplexZ,
                               DoubleComplex, Tower)
from phigamma.modules import (identity_matrix, make_module, module_to_json,
                              parse_lift)
from phigamma.tatesen import tate_sen_certificate

P, CHI = 3, 4


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def trivial_mod(tmp_path):
    I = identity_matrix(P, 1, 1, 60)
    D = make_module(P, 1, I, [("gamma", I, CHI)])
    path = tmp_path / "trivial.mod"
    path.write_text(module_to_json(D))
    return str(path)


@pytest.fixture
def relative_mod(tmp_path):
    I = identity_matrix(P, 1, 1, 24)
    D = make_module(P, 1, I, [("gamma_tilde", I, 1), ("gamma", I, CHI)],
                    relative=True)
    path = tmp_path / "relative.mod"
    path.write_text(module_to_json(D))
    return str(path)


# -- job validation ----------------------------------------------------------


def test_cohomology_rejects_invalid_options(runner, trivial_mod):
    cases = [
        (["--prime", "4"], "prime must be odd and prime"),
        (["--prime", "9"], "prime must be odd and prime"),
        (["--power", "0"], "--power"),
        (["--power", "7"], "--power"),
        (["--format", "xml"], "--format"),
        (["--window", "3"], "initial window must be at least 4"),
    ]
    for flags, message in cases:
        res = runner.invoke(main, ["cohomology", *flags, trivial_mod])
        assert res.exit_code == 2, flags
        assert message in res.output, (flags, res.output)


def test_make_schedule():
    assert make_schedule(16, 2) == (16, 32, 64)
    with pytest.raises(ValueError):
        make_schedule(2, 2)
    with pytest.raises(ValueError):
        make_schedule(16, 0)


# -- cohomology --------------------------------------------------------------


def test_cohomology_csv_rows(runner, trivial_mod):
    res = runner.invoke(main, ["cohomology", "--prime", "3", "--power", "1",
                               trivial_mod])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "degree,length,profile"
    assert lines[1].startswith("0,1")
    assert lines[2].startswith("1,2")
    assert lines[3].startswith("2,0")
    assert any(line.startswith("trace,") for line in lines)
    assert "verdict,stable,euler=-1" in lines


def test_cohomology_json_and_determinism(runner, trivial_mod):
    args = ["cohomology", "--format", "json", trivial_mod]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["dims"] == [1, 2, 0]
    assert doc["verdict"] == "stable"


def test_cohomology_semidirect_report(runner, relative_mod):
    # the exact report of the finite semidirect complex of the trivial
    # relative module; --complex takes no other finite or two-term kind
    res = runner.invoke(main, ["cohomology", relative_mod,
                               "--complex", "semidirect"])
    assert res.exit_code == 0
    assert res.output == ("degree,length,profile\n0,1,3\n1,2,3|3\n2,1,3\n"
                          "trace,exact,1|2|1\nverdict,stable,euler=0\n")
    res = runner.invoke(main, ["cohomology", relative_mod, "--complex",
                               "gamma"])
    assert res.exit_code == 2
    assert "--complex" in res.output
    # the Herr complex names the complex a relative module needs
    res = runner.invoke(main, ["cohomology", relative_mod])
    assert res.exit_code == 2
    assert "use --complex semidirect" in res.output


def test_cohomology_flag_mismatch_is_parse_error(runner, trivial_mod):
    res = runner.invoke(main, ["cohomology", "--prime", "5", trivial_mod])
    assert res.exit_code == 2


def test_cohomology_empty_input_exits_2(runner, tmp_path):
    empty = tmp_path / "empty.mod"
    empty.write_text("\n")
    res = runner.invoke(main, ["cohomology", str(empty)])
    assert res.exit_code == 2


def test_cohomology_bad_prime_exits_2(runner, trivial_mod):
    res = runner.invoke(main, ["cohomology", "--prime", "4", trivial_mod])
    assert res.exit_code == 2


def test_cohomology_short_entry_precision_exits_3(runner, tmp_path):
    # entries certified to pi^40 are read past that by a depth-8 window
    u = parse_lift("1 + pi^1 + pi^5", P, 1, 40)
    D = make_module(P, 1, [[u.frobenius() * u.inverse()]],
                    [("gamma", [[u.gamma(CHI) * u.inverse()]], CHI)])
    path = tmp_path / "u.mod"
    path.write_text(module_to_json(D))
    res = runner.invoke(main, ["cohomology", str(path), "--mode", "free",
                               "--window", "8"])
    assert res.exit_code == 3
    assert "certified to pi^91, got pi^40" in res.output


def test_report_file_option(runner, trivial_mod, tmp_path):
    out = tmp_path / "report.csv"
    res = runner.invoke(main, ["cohomology", trivial_mod,
                               "--report", str(out)])
    assert res.exit_code == 0
    assert out.read_text().startswith("degree,length,profile")


# -- solvers -----------------------------------------------------------------


def test_solve_as_negative_valuation_rule(runner):
    res = runner.invoke(main, ["solve-as", "--prime", "3", "pi^-3"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["depth"] == 1
    assert doc["valuation"] == ["-1"]


def test_solve_as_depth_budget_range(runner):
    # a negative budget is a usage error; budget 0 forbids extension layers
    res = runner.invoke(main, ["solve-as", "--prime", "3", "pi^-3",
                               "--depth-budget", "-1"])
    assert res.exit_code == 2
    assert "--depth-budget" in res.output
    res = runner.invoke(main, ["solve-as", "--prime", "3", "pi^-3",
                               "--depth-budget", "0"])
    assert res.exit_code == 1
    assert "budget is 0" in res.output
    res = runner.invoke(main, ["solve-as", "--prime", "3", "pi^3",
                               "--depth-budget", "0"])
    assert res.exit_code == 0


def test_solve_as_parse_error(runner):
    res = runner.invoke(main, ["solve-as", "--prime", "3", "pi^^"])
    assert res.exit_code == 2


def test_solve_phi1_planted_image(runner):
    res = runner.invoke(main, ["solve-phi1", "--prime", "3", "--power", "1",
                               "pi^3 + 2*pi^1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["depth"] == 0
    assert doc["solution"] == ["pi^1"]


def test_solve_phi1_wrong_component_count(runner):
    res = runner.invoke(main, ["solve-phi1", "--prime", "3", "--power", "2",
                               "pi^1"])
    assert res.exit_code == 2


# -- trace and certificates --------------------------------------------------


def test_trace_keeps_coarse_grid(runner):
    res = runner.invoke(main, ["trace", "pi^-2 + pi^3", "--level", "0"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["projection"] == "pi^-2 + pi^3"


def test_trace_off_grid_exponent_exits_2(runner):
    res = runner.invoke(main, ["trace", "pi^(1/25)"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


def test_trace_window_is_an_exponent_bound(runner):
    # --window 24 certifies exponents below 24 at every grid level, so
    # pi^10 survives the projection at grid level 1
    res = runner.invoke(main, ["trace", "pi^3 + pi^10", "--level", "1",
                               "--grid-level", "1", "--window", "24"])
    assert res.exit_code == 0
    assert json.loads(res.output)["projection"] == "pi^3 + pi^10"


@pytest.mark.parametrize("expr, grid, message", [
    ("pi^(1/9) + pi^3", "1", "finer than the level-1 grid"),
    ("pi^3", "-1", "grid level must be nonnegative"),
    ("pi^(1/0)", "1", "zero denominator"),
])
def test_trace_off_grid_input_exits_2(runner, expr, grid, message):
    res = runner.invoke(main, ["trace", expr, "--grid-level", grid])
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize("argv", [
    ["cone", "@", "--prime", "5"], ["spectral", "@", "--power", "2"],
    ["tower", "@", "--format", "json"], ["check-module", "@", "--seed", "1"],
    ["solve-as", "pi^-3", "--power", "2"], ["trace", "pi^3", "--seed", "1"],
    ["ts-report", "--power", "2"], ["ts-report", "--format", "json"],
    ["solve-phi1", "pi^-3", "--format", "json"],
    ["solve-phi1", "pi^-3", "--seed", "1"],
    ["cohomology", "@", "--seed", "1"],
])
def test_commands_take_no_ignored_options(runner, tmp_path, argv):
    path = tmp_path / "input.json"
    path.write_text("{}")
    res = runner.invoke(main, [str(path) if a == "@" else a for a in argv])
    assert res.exit_code == 2
    assert "No such option" in res.output


@pytest.mark.parametrize("flags", [
    ["--mode", "free"], ["--mode", "delta"], ["--window", "512"],
    ["--window", "2"], ["--doublings", "9"],
    ["--window", "512", "--doublings", "9", "--mode", "free"],
])
def test_semidirect_takes_no_window_options(runner, relative_mod, flags):
    # the semidirect complex is finite and exact: the window options of the
    # Herr complex are refused, by name, even at their default values
    res = runner.invoke(main, ["cohomology", relative_mod, "--complex",
                               "semidirect", *flags])
    assert res.exit_code == 2
    assert f"{flags[0]} does not apply to --complex semidirect" in res.output


def test_ts_report_rejects_negative_samples(runner):
    res = runner.invoke(main, ["ts-report", "--samples", "-1"])
    assert res.exit_code == 2
    assert "--samples" in res.output
    with pytest.raises(ValueError):
        tate_sen_certificate(3, 0, -1, 0)
    # zero samples is a c1-only report
    res = runner.invoke(main, ["ts-report", "--samples", "0"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["samples"] == {"inversion": 0, "projection": 0}
    assert doc["c1_witness_valuation"] == "-2/3"
    assert doc["worst_witnesses"] == {}


def test_ts_report_deterministic(runner):
    args = ["ts-report", "--prime", "3", "--samples", "10", "--seed", "42"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["format"] == "tate-sen-certificate"
    assert doc["c2"] == "0"


# -- homological subcommands -------------------------------------------------


def test_cone_subcommand(runner, tmp_path):
    X = ChainComplexZ(3, 2, {0: 1, 1: 1}, {0: [[3]]})
    doc = {"format": "chain-map", "src": json.loads(X.to_json()),
           "dst": json.loads(X.to_json()),
           "blocks": {"0": [[1]], "1": [[1]]}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["cone", str(path)])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["les_exact"] is True
    # the cone of the identity is acyclic
    assert all(prof == [] for prof in out["cohomology"].values())


def test_cone_rejects_non_chain_map(runner, tmp_path):
    X = ChainComplexZ(3, 2, {0: 1, 1: 1}, {0: [[3]]})
    Y = ChainComplexZ(3, 2, {0: 1, 1: 1}, {0: [[0]]})
    doc = {"format": "chain-map", "src": json.loads(X.to_json()),
           "dst": json.loads(Y.to_json()),
           "blocks": {"0": [[1]], "1": [[1]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["cone", str(path)])
    assert res.exit_code == 1


def test_cone_reads_an_empty_block_of_no_rows_as_zero(runner, tmp_path):
    # JSON writes a 0 x 2 block as []: a map block into a rank-0 degree and
    # a differential into one read as zero, as if left out; a [] for a
    # block with rows is still malformed
    X = json.loads(ChainComplexZ(3, 2, {0: 1, 1: 2}, {0: [[3], [0]]})
                   .to_json())
    Y = json.loads(ChainComplexZ(3, 2, {0: 1}, {}).to_json())

    def cone(src, blocks):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"format": "chain-map", "src": src,
                                    "dst": Y, "blocks": blocks}))
        return runner.invoke(main, ["cone", str(path)])

    bare = cone(X, {"0": [[1]]})
    assert bare.exit_code == 0 and json.loads(bare.output)["les_exact"]
    X_empty = dict(X, diffs=dict(X["diffs"], **{"1": []}))
    for src, blocks in ((X, {"0": [[1]], "1": []}),
                        (X_empty, {"0": [[1]]})):
        res = cone(src, blocks)
        assert res.exit_code == 0 and res.output == bare.output
    assert cone(X, {"0": []}).exit_code == 2


def test_spectral_subcommand(runner, tmp_path):
    DC = DoubleComplex(3, 2, {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
                       {(0, 1): [[1]], (1, 0): [[1]]},
                       {(1, 0): [[8]]})
    path = tmp_path / "grid.json"
    path.write_text(DC.to_json())
    res = runner.invoke(main, ["spectral", str(path)])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["abutment_equal"] is True
    assert out["pages"][1]["lengths"]["0,1"] == 2
    assert out["pages"][2]["lengths"]["0,1"] == 0


def test_tower_subcommand(runner, tmp_path):
    t = Tower(3, 2, [1, 1], [[[3]]], "constant")
    path = tmp_path / "tower.json"
    path.write_text(t.to_json())
    res = runner.invoke(main, ["tower", str(path)])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["mittag_leffler"] is True
    assert out["lim_profile"] == []


def test_tower_wide_constant_tail_has_no_lim1(runner, tmp_path):
    # rank 256 with an identity tail: lim^1 vanishes by Mittag-Leffler, where
    # an unrolled cokernel matrix of about 66000 columns used to run out of
    # memory
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"format": "tower", "p": 3, "s": 1,
                                "ranks": [256], "maps": [],
                                "tail": "constant"}))
    res = runner.invoke(main, ["tower", str(path)])
    assert res.exit_code == 0
    assert '"lim1_profile": []' in res.output
    out = json.loads(res.output)
    assert out["lim_profile"] == [3] * 256 and out["mittag_leffler"] is True


def test_check_module_subcommand(runner, trivial_mod):
    res = runner.invoke(main, ["check-module", trivial_mod])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["ok"] and out["rank"] == 1


def test_check_module_rejects_garbage(runner, tmp_path):
    path = tmp_path / "bad.mod"
    path.write_text('{"format": "something-else"}')
    res = runner.invoke(main, ["check-module", str(path)])
    assert res.exit_code == 2


def test_unknown_subcommand_exits_2(runner):
    res = runner.invoke(main, ["frobnicate"])
    assert res.exit_code == 2


def _tower_file(tmp_path, entry):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"format": "tower", "p": 3, "s": 2,
                                "ranks": [1, 1], "maps": [[[entry]]],
                                "tail": "constant"}))
    return str(path)


def test_tower_float_entry_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["tower", _tower_file(tmp_path, 1.5)])
    assert res.exit_code == 2
    assert "not an integer" in res.output


def test_tower_huge_entry_is_read_mod_q(runner, tmp_path):
    # 2^64 is an integer like any other: it is reduced mod 9 on reading,
    # where numpy's int64 used to overflow with a traceback
    huge = runner.invoke(main, ["tower", _tower_file(tmp_path, 2**64)])
    assert huge.exit_code == 0
    small = runner.invoke(main, ["tower", _tower_file(tmp_path, 2**64 % 9)])
    assert huge.output == small.output


def test_tower_float_rank_exits_2(runner, tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"format": "tower", "p": 3, "s": 2,
                                "ranks": [1.5, 1], "maps": [[[3]]],
                                "tail": "constant"}))
    res = runner.invoke(main, ["tower", str(path)])
    assert res.exit_code == 2
    assert "rank 1.5 is not a nonnegative integer" in res.output


def test_tower_unknown_tail_exits_2(runner, tmp_path):
    # a tail other than constant or zero makes the document malformed
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"format": "tower", "p": 3, "s": 2,
                                "ranks": [1, 1], "maps": [[[3]]],
                                "tail": "sometimes"}))
    res = runner.invoke(main, ["tower", str(path)])
    assert res.exit_code == 2
    assert "parse error: tower document: tail 'sometimes'" in res.output


@pytest.mark.parametrize("field", ["ranks", "dh"])
@pytest.mark.parametrize("key", ["1;0", "1,0,2", "a,0", ""])
def test_malformed_grid_key_exits_2_naming_it(runner, tmp_path, field, key):
    DC = json.loads(DoubleComplex(3, 2, {(0, 0): 1, (1, 0): 1},
                                  {(0, 0): [[3]]}, {}).to_json())
    DC[field][key] = 1 if field == "ranks" else [[3]]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(DC))
    res = runner.invoke(main, ["spectral", str(path)])
    assert res.exit_code == 2
    assert f"grid key {key!r} is not of the form 'p,q'" in res.output


@pytest.mark.parametrize("rank", [1.0, True, "1"])
def test_complex_ranks_must_be_integers(runner, tmp_path, rank):
    X = json.loads(ChainComplexZ(3, 2, {0: 1, 1: 1}, {0: [[3]]}).to_json())
    X["ranks"]["0"] = rank
    doc = {"format": "chain-map", "src": X, "dst": X,
           "blocks": {"0": [[1]], "1": [[1]]}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["cone", str(path)]).exit_code == 2
    DC = json.loads(DoubleComplex(3, 2, {(0, 0): 1}, {}, {}).to_json())
    DC["ranks"]["0,0"] = rank
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(DC))
    assert runner.invoke(main, ["spectral", str(path)]).exit_code == 2


def _size_files(tmp_path, rank, corner):
    big = {"format": "chain-complex", "p": 3, "s": 1, "ranks": {"0": rank},
           "diffs": {}}
    cone = tmp_path / "map.json"
    cone.write_text(json.dumps({"format": "chain-map", "src": big,
                                "dst": big}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"format": "double-complex", "p": 3, "s": 1,
                                "ranks": {"0,0": 1, corner: 1},
                                "dh": {}, "dv": {}}))
    return [["cone", str(cone)], ["spectral", str(grid)]]


def test_oversized_file_sizes_exit_2_quickly(runner, tmp_path):
    # a cone of rank-30000 complexes asked for a 6.7 GiB zero block, and a
    # grid reaching (30000, 30000) walked every cell of its extent
    for argv in _size_files(tmp_path, 30000, "30000,30000"):
        start = time.perf_counter()
        res = runner.invoke(main, argv)
        assert time.perf_counter() - start < 5
        assert res.exit_code == 2
        assert "exceeds the file limit" in res.output
        assert isinstance(res.exception, SystemExit)
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps({"format": "tower", "p": 3, "s": 1,
                                 "ranks": [MAX_FILE_RANK + 1], "maps": [],
                                 "tail": "zero"}))
    assert runner.invoke(main, ["tower", str(tower)]).exit_code == 2


def test_file_sizes_at_the_limit_run(runner, tmp_path):
    corner = f"{MAX_FILE_DEGREE},{MAX_FILE_DEGREE}"
    for argv in _size_files(tmp_path, MAX_FILE_RANK, corner):
        assert runner.invoke(main, argv).exit_code == 0


@pytest.mark.parametrize("argv", [
    ["cohomology", "--doublings", "40"],
    ["cohomology", "--window", "4096", "--doublings", "1"],
    ["ts-report", "--prime", "7", "--level", "3", "--samples", "1"],
    ["ts-report", "--prime", "7", "--level", "4", "--samples", "1"],
    ["ts-report", "--prime", "3", "--level", "6", "--samples", "1"],
])
def test_oversized_windows_exit_2_before_allocating(runner, trivial_mod,
                                                    argv):
    # each request asks for dense windows of 6 GiB to 768 TiB; its estimate
    # refuses it before numpy is asked for any of them
    if argv[0] == "cohomology":
        argv = [*argv, trivial_mod]
    tracemalloc.start()
    try:
        res = runner.invoke(main, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 2 and "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)
    assert "size limit: " in res.output and "parse error" not in res.output
    assert "MiB of dense windows, past the bound of " \
        f"{MAX_WINDOW_BYTES >> 20} MiB" in res.output
    assert peak < 2**24


# -- fuzzing the element subcommands ------------------------------------------

exponents = st.one_of(
    st.integers(-30, 40).map(str),
    st.tuples(st.integers(-30, 40), st.integers(0, 30)).map(
        lambda t: f"({t[0]}/{t[1]})"))
terms = st.one_of(
    st.integers(-10, 10).map(str),
    st.tuples(st.integers(-5, 12), exponents).map(
        lambda t: f"{t[0]}*pi^{t[1]}"),
    exponents.map(lambda e: f"pi^{e}"),
    st.text(alphabet="pi^()*/+-0123456789 x", max_size=12))
expressions = st.lists(terms, min_size=1, max_size=4).map(" + ".join)
primes = st.sampled_from(["3", "5", "7", "2", "4", "9", "-3"])


def run_twice(argv):
    runner = CliRunner()
    first, second = runner.invoke(main, argv), runner.invoke(main, argv)
    assert first.exit_code in (0, 1, 2, 3), (argv, first.output)
    assert first.exception is None or isinstance(first.exception, SystemExit), \
        (argv, first.exception)
    assert "Traceback" not in first.output
    assert (second.exit_code, second.output) == (first.exit_code, first.output)


@settings(max_examples=60, deadline=None)
@given(expressions, st.integers(-1, 3), st.integers(-1, 3),
       st.integers(-4, 40), primes)
def test_fuzz_trace(expr, level, grid_level, window, prime):
    run_twice(["trace", expr, "--level", str(level), "--grid-level",
               str(grid_level), "--window", str(window), "--prime", prime])


# levels -1 to 1 at any prime; levels 3 and 4 at p = 7, whose TS3 windows
# the size estimate refuses before anything is allocated (level 2 at p = 7
# would build a window of 718 MiB)
ts_levels = st.one_of(st.tuples(st.sampled_from(["-1", "0", "1"]), primes),
                      st.tuples(st.sampled_from(["3", "4"]), st.just("7")))


@settings(max_examples=25, deadline=None)
@given(st.integers(-2, 2), st.integers(-5, 10**6), ts_levels)
def test_fuzz_ts_report(samples, seed, level_prime):
    level, prime = level_prime
    run_twice(["ts-report", "--level", level, "--samples", str(samples),
               "--seed", str(seed), "--prime", prime])


# mostly well-formed input, so that most runs reach the solvers
well_formed = st.lists(st.one_of(
    st.integers(0, 10).map(str),
    st.tuples(st.integers(1, 12), st.integers(-12, 16),
              st.sampled_from([1, 1, 1, 1, 3, 5])).map(
        lambda t: f"{t[0]}*pi^({t[1]}/{t[2]})")),
    min_size=1, max_size=3).map(" + ".join)
solver_exprs = st.one_of(well_formed, well_formed, well_formed, expressions)
solver_primes = st.one_of(st.sampled_from(["3", "5", "7"]), primes)


@settings(max_examples=40, deadline=None)
@given(solver_exprs, st.integers(-1, 3), st.integers(-4, 32), solver_primes)
def test_fuzz_solve_as(expr, depth_budget, window, prime):
    run_twice(["solve-as", expr, f"--depth-budget={depth_budget}",
               f"--window={window}", "--prime", prime])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data(),
       st.integers(-4, 32), st.sampled_from(["3", "5", "7"]))
def test_fuzz_solve_phi1(power, data, window, prime):
    count = data.draw(st.sampled_from([power] * 3 + [1, 2, 3, 4]))
    components = data.draw(st.lists(solver_exprs, min_size=count,
                                    max_size=count))
    run_twice(["solve-phi1", "; ".join(components), f"--window={window}",
               "--prime", prime, "--power", str(power)])


# -- fuzzing the file-reading subcommands --------------------------------------

# JSON leaves stay small: a rank or shape read from the file sizes arrays;
# the huge integers here are refused outright, as moduli or as shapes
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.sampled_from([2**62, 2**64, -2**65, 10**30, 10**18 + 9]),
    st.floats(-10, 10), st.sampled_from([float("nan"), float("inf")]),
    st.text(alphabet="pi^-+*/()0123456789,x", max_size=8))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)


def _json_paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from _json_paths(v, path + (k,))


# replacements of the same kind keep most documents readable, so that
# runs reach the computations too
same_kind = {
    int: st.integers(-2, 9),
    str: st.sampled_from(["0", "1", "2", "pi^1", "2*pi^-1", "1 + pi^2",
                          "constant", "zero", "gamma", "x"]),
}


def _mutated(data, doc):
    """doc with a few values replaced, by the same kind of value or by
    random JSON, or keys dropped."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        if not path:
            return data.draw(json_values)
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        old = parent[path[-1]]
        how = data.draw(st.sampled_from(["same", "same", "json", "drop"]))
        if how == "same" and isinstance(old, list):
            # one item fewer or one more
            parent[path[-1]] = (old[1:] if old and data.draw(st.booleans())
                                else old + old[-1:])
        elif how == "same" and type(old) in same_kind:
            parent[path[-1]] = data.draw(same_kind[type(old)])
        elif how == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
    return doc


def _fuzz_file(data, tmp_path, doc, intact=0):
    """Write a mutated doc, random JSON or random text, drawn 6 : 1 : 1,
    or the doc itself at weight intact; return its path."""
    kind = data.draw(st.sampled_from(["mutated"] * 6 + ["json", "text"]
                                     + ["intact"] * intact))
    if kind == "intact":
        text = json.dumps(doc)
    elif kind == "mutated":
        text = json.dumps(_mutated(data, doc))
    elif kind == "json":
        text = json.dumps(data.draw(json_values))
    else:
        text = data.draw(st.text(max_size=20))
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _module_doc(relative=False):
    I = identity_matrix(P, 1, 1, 40)
    gens = [("gamma_tilde", I, 1)] if relative else []
    return json.loads(module_to_json(make_module(
        P, 1, I, gens + [("gamma", I, CHI)], relative=relative)))


def _cohomology_options(data, relative):
    """Drawn --complex, --window, --doublings, --mode and --power, each
    maybe left out, with the deepest window of the schedule at most 128.
    The draws lean to options valid for the module (relative or not), so
    that many runs compute."""
    semidirect = data.draw(st.sampled_from([relative] * 3 + [not relative]))
    options = {"--complex": "semidirect" if semidirect
               else data.draw(st.sampled_from([None, "herr"])),
               "--power": data.draw(st.sampled_from([None] * 4 + [0, 1, 2]))}
    # the semidirect complex refuses the window options
    if not semidirect or data.draw(st.sampled_from([False] * 3 + [True])):
        doublings = data.draw(st.sampled_from([None, None, -1, 0, 1, 2, 3,
                                               5]))
        deepest = 128 >> (2 if doublings is None else max(doublings, 0))
        options["--doublings"] = doublings
        options["--window"] = data.draw(st.sampled_from(
            [None] * (deepest >= 16)
            + [w for w in (-1, 3, 4, 6, 8, 16, 32, 64, 128) if w <= deepest]))
        options["--mode"] = data.draw(st.sampled_from([None, "delta",
                                                       "free"]))
    return [x for k, v in options.items() if v is not None
            for x in (k, str(v))]


_complex_doc = json.loads(ChainComplexZ(3, 2, {0: 1, 1: 1}, {0: [[3]]})
                          .to_json())
FILE_DOCS = {
    "cohomology": _module_doc(),
    "check-module": _module_doc(),
    "cone": {"format": "chain-map", "src": _complex_doc, "dst": _complex_doc,
             "blocks": {"0": [[1]], "1": [[1]]}},
    "spectral": json.loads(DoubleComplex(
        3, 2, {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1},
        {(0, 1): [[1]], (1, 0): [[1]]}, {(1, 0): [[8]]}).to_json()),
    "tower": json.loads(Tower(3, 2, [1, 1], [[[3]]], "constant").to_json()),
}


@pytest.mark.parametrize("command", sorted(FILE_DOCS))
def test_fuzz_file_subcommands(command, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp(command)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def run(data):
        doc, extra = FILE_DOCS[command], []
        if command == "cohomology":
            # a relative module too, the input of --complex semidirect
            relative = data.draw(st.booleans())
            doc = _module_doc(relative)
            extra = _cohomology_options(data, relative)
        path = _fuzz_file(data, tmp_path, doc,
                          intact=8 if command == "cohomology" else 0)
        run_twice([command, path] + extra)

    run()
