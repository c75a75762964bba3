"""Command-line frontend: parse job descriptions, run the computations,
emit reports and certificates.

Exit codes: 0 success, 1 invariant or mathematical failure, 2 usage or
parse error or a size limit, 3 precision failure or non-stabilization.
Every sampled check takes an explicit seed, so identical invocations
produce byte-identical reports.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from .artinschreier import solve_as_general, solve_phi_minus_one
from .complexes import cohomology, herr_complex, semidirect_gamma_complex
from .errors import (
    DepthExceededError,
    InvariantError,
    NonStabilizationError,
    PrecisionError,
    SizeLimitError,
)
from .homotopy import (
    ChainComplexZ,
    ChainMap,
    DoubleComplex,
    Tower,
    cone_sequence,
    les_check,
    spectral_E_pages,
    tower_lim_lim1,
)
from .modules import module_from_json
from .normfield import NormFieldElement, format_element, parse_element
from .tatesen import tate_sen_certificate, tau_projection
from .wittside import WittVector
from .zmodlin import _is_prime, json_fields, module_profile

EXIT_OK = 0
EXIT_MATH = 1
EXIT_PARSE = 2
EXIT_PRECISION = 3


def check_prime(p: int) -> None:
    if p == 2 or not _is_prime(p):
        raise ValueError(f"prime must be odd and prime, got {p}")


def make_schedule(window: int, doublings: int) -> tuple:
    if window < 4:
        raise ValueError("initial window must be at least 4")
    if doublings < 1:
        raise ValueError("need at least one doubling; a stable verdict "
                         "needs two (three agreeing windows)")
    return tuple(window * 2 ** k for k in range(doublings + 1))


def guarded(fn):
    """Map library exceptions onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (NonStabilizationError, PrecisionError) as err:
            click.echo(f"precision failure: {err}", err=True)
            sys.exit(EXIT_PRECISION)
        except (InvariantError, DepthExceededError) as err:
            click.echo(f"computation failed: {err}", err=True)
            sys.exit(EXIT_MATH)
        except SizeLimitError as err:
            click.echo(f"size limit: {err}", err=True)
            sys.exit(EXIT_PARSE)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
            click.echo(f"parse error: {err}", err=True)
            sys.exit(EXIT_PARSE)

    return wrapper


def emit(text: str, report_path: str | None):
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def read_input(path: str) -> str:
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"input file {path} is empty")
    return text


prime_option = click.option("--prime", "-p", default=3, show_default=True,
                            help="Odd prime p.")
report_option = click.option(
    "--report", default=None, type=click.Path(),
    help="Write the report to this path instead of stdout.")
power_option = click.option("--power", "-s", default=1, show_default=True,
                            type=click.IntRange(1, 6),
                            help="Coefficient precision: work over Z/p^s.")


@click.group()
def main():
    """Exact finite-precision (phi, Gamma)-module computations."""


@main.command("cohomology")
@click.argument("module_file", type=click.Path())
@click.option("--window", default=16, show_default=True,
              help="Initial window depth.")
@click.option("--doublings", default=2, show_default=True,
              help="Number of window doublings for the stability trace; "
                   "a stable verdict needs two (three agreeing windows).")
@click.option("--mode", default="delta", show_default=True,
              type=click.Choice(["delta", "free"]),
              help="delta: project onto Delta-invariants (base Q_p); "
                   "free: torsion-free Gamma (base Q_p(zeta_p)).")
@click.option("--complex", "kind", default="herr", show_default=True,
              type=click.Choice(["herr", "semidirect"]))
@prime_option
@power_option
@click.option("--format", "fmt", default="csv", show_default=True,
              type=click.Choice(["csv", "json"]))
@report_option
@guarded
def cohomology_cmd(module_file, window, doublings, mode, kind, prime, power,
                   fmt, report):
    """Stabilized cohomology report for a module description file.

    --window, --doublings and --mode shape the windows of the Herr complex;
    the semidirect complex is finite and exact, and refuses them."""
    if kind == "herr":
        schedule = make_schedule(window, doublings)
    else:
        schedule = None
        ctx = click.get_current_context()
        for name in ("window", "doublings", "mode"):
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                raise click.UsageError(f"--{name} does not apply to "
                                       "--complex semidirect")
    check_prime(prime)
    D = module_from_json(read_input(module_file))
    if (D.p, D.s) != (prime, power):
        raise ValueError(
            f"module file is over p={D.p}, s={D.s}; flags say "
            f"p={prime}, s={power}")
    if kind == "herr":
        T = herr_complex(D, mode)
    else:
        T = semidirect_gamma_complex(D)
    rep = cohomology(T, schedule=schedule)
    if fmt == "json":
        emit(rep.to_json(), report)
    else:
        lines = [rep.to_csv().rstrip("\n")]
        for label, dims in rep.trace:
            lines.append(f"trace,{label},{'|'.join(str(d) for d in dims)}")
        lines.append(f"verdict,{rep.verdict},euler={rep.euler}")
        emit("\n".join(lines), report)
    if rep.verdict != "stable":
        sys.exit(EXIT_PRECISION)


@main.command("solve-as")
@click.argument("expr")
@click.option("--depth-budget", default=2, show_default=True,
              type=click.IntRange(min=0),
              help="0 refuses an Artin-Schreier layer; a positive budget "
                   "allows the one layer the solver can add.")
@click.option("--window", default=24, show_default=True,
              help="Certified precision window for the input element.")
@prime_option
@report_option
@guarded
def solve_as_cmd(expr, depth_budget, window, prime, report):
    """Solve a^p - a = b for an element expression such as "pi^-3"."""
    check_prime(prime)
    b = parse_element(expr, prime, Fraction(window))
    sol = solve_as_general(b, depth_budget=depth_budget)
    emit(json.dumps(sol.to_json(), sort_keys=True, indent=2), report)


@main.command("solve-phi1")
@click.argument("components")
@click.option("--window", default=24, show_default=True)
@prime_option
@power_option
@report_option
@guarded
def solve_phi1_cmd(components, window, prime, power, report):
    """Solve (phi - 1)y = z for a Witt vector given as
    "comp0; comp1; ..." element expressions."""
    check_prime(prime)
    parts = [parse_element(t.strip(), prime, Fraction(window))
             for t in components.split(";")]
    if len(parts) != power:
        raise ValueError(
            f"expected {power} components for s={power}, got {len(parts)}")
    sol = solve_phi_minus_one(WittVector(prime, power, parts))
    emit(json.dumps(sol.to_json(), sort_keys=True, indent=2), report)


@main.command("trace")
@click.argument("expr")
@click.option("--level", "-m", default=0, show_default=True,
              help="Project onto the level-m grid.")
@click.option("--grid-level", default=1, show_default=True,
              help="Perfection level the input expression lives at.")
@click.option("--window", default=24, show_default=True,
              help="Certified precision window (an exponent bound).")
@prime_option
@report_option
@guarded
def trace_cmd(expr, level, grid_level, window, prime, report):
    """Normalized trace projection of an element expression."""
    check_prime(prime)
    if grid_level < 0:
        raise ValueError(f"grid level must be nonnegative, got {grid_level}")
    x = parse_element(expr, prime, Fraction(window))
    f = prime ** grid_level
    off_grid = [e for e in x.terms() if (e * f).denominator != 1]
    if off_grid:
        raise ValueError(f"exponent {off_grid[0]} is finer than the "
                         f"level-{grid_level} grid")
    z = NormFieldElement(prime, grid_level,
                         {int(e * f): c for e, c in x.terms().items()},
                         window * f)
    out = tau_projection(z, level, 0)
    doc = {"input": expr, "level": level, "projection": format_element(out)}
    emit(json.dumps(doc, sort_keys=True, indent=2), report)


@main.command("ts-report")
@click.option("--level", "-m", default=0, show_default=True)
@click.option("--samples", default=50, show_default=True,
              type=click.IntRange(min=0))
@prime_option
@click.option("--seed", default=0, show_default=True,
              help="Seed for sampled checks.")
@report_option
@guarded
def ts_report_cmd(level, samples, prime, seed, report):
    """Tate-Sen constants certificate (c1..c4) with sampled evidence."""
    check_prime(prime)
    cert = tate_sen_certificate(prime, level, samples, seed)
    emit(cert.to_json(), report)


@main.command("cone")
@click.argument("map_file", type=click.Path())
@report_option
@guarded
def cone_cmd(map_file, report):
    """Mapping cone of a chain-map file and its long-exact-sequence
    verdict."""
    doc = json_fields(json.loads(read_input(map_file)), "chain-map document",
                      format="chain-map", src=dict, dst=dict,
                      blocks=(dict, {}))
    src = ChainComplexZ.from_doc(doc["src"])
    dst = ChainComplexZ.from_doc(doc["dst"])
    f = ChainMap(src, dst, doc["blocks"])
    ses = cone_sequence(f)
    les = les_check(ses)
    out = {
        "format": "cone-report",
        "ranks": {str(n): ses.B.rank(n) for n in ses.B.degrees()},
        "cohomology": {str(n): prof for n, prof in les["profiles"].items()},
        "les_exact": les["exact"],
        "les_nodes": les["nodes"],
        "first_failure": les["first_failure"],
    }
    emit(json.dumps(out, sort_keys=True, indent=2), report)
    if not les["exact"]:
        sys.exit(EXIT_MATH)


@main.command("spectral")
@click.argument("grid_file", type=click.Path())
@report_option
@guarded
def spectral_cmd(grid_file, report):
    """Spectral pages of a double-complex file, checked against the
    total complex."""
    DC = DoubleComplex.from_json(read_input(grid_file))
    pages, abutment = spectral_E_pages(DC)
    out = {
        "format": "spectral-report",
        "pages": [{
            "r": pg.r,
            "lengths": {f"{pp},{qq}": ln
                        for (pp, qq), ln in sorted(pg.lengths.items())},
        } for pg in pages],
        "abutment": {str(n): list(pair)
                     for n, pair in abutment["degrees"].items()},
        "abutment_equal": abutment["equal"],
    }
    emit(json.dumps(out, sort_keys=True, indent=2), report)
    if not abutment["equal"]:
        sys.exit(EXIT_MATH)


@main.command("tower")
@click.argument("tower_file", type=click.Path())
@report_option
@guarded
def tower_cmd(tower_file, report):
    """lim and lim^1 of a tower file."""
    T = Tower.from_json(read_input(tower_file))
    lim, lim1 = tower_lim_lim1(T)
    out = {
        "format": "tower-report",
        "lim_profile": module_profile(lim),
        "lim1_profile": module_profile(lim1),
        "mittag_leffler": lim1.is_zero(),
    }
    emit(json.dumps(out, sort_keys=True, indent=2), report)


@main.command("check-module")
@click.argument("module_file", type=click.Path())
@report_option
@guarded
def check_module_cmd(module_file, report):
    """Validate a module description file and summarize it."""
    D = module_from_json(read_input(module_file))
    out = {
        "format": "module-check",
        "ok": True,
        "p": D.p,
        "s": D.s,
        "rank": D.rank,
        "relative": D.relative,
        "generators": [g.tag for g in D.generators],
    }
    emit(json.dumps(out, sort_keys=True, indent=2), report)


if __name__ == "__main__":
    main()
