"""Command-line front end.

Subcommands:
  elliptic   evaluate sn, cn, dn and the quarter period K
  potential  sample a potential family to CSV/JSON/table
  states     sample closed-form band-edge eigenfunctions
  bands      band-edge energies (optionally both partners side by side)
  verify     run the claim-verification suites

Rows go out through one writer (csv, json, or a table of columns two
spaces apart); the parser holds the option rules, such as --precision's range.

Exit codes: 0 success, 1 failed claim, 2 usage or domain error,
3 numerical failure.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bandsolver, susy, verify
from .elliptic import complete_k, jacobi
from .errors import DomainError, NumericalError, _positive_int

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

def _fmt(value: float, precision: int) -> str:
    text = f"{value:.{precision}f}"
    return text.lstrip("-") if float(text) == 0.0 else text  # a rounded zero has no sign


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _rows_to_output(header, rows, fmt, precision, path):
    """The one writer of rows: csv, json, or columns two spaces apart.
    Labels and ints go out unchanged, every other number through _fmt."""
    def cell(v):
        if isinstance(v, (str, int)):
            return v
        text = _fmt(v, precision)
        return float(text) if fmt == "json" else text

    rows = [[cell(v) for v in row] for row in rows]
    if fmt == "json":
        _emit(json.dumps([dict(zip(header, row)) for row in rows], indent=2), path)
    else:
        sep = "," if fmt == "csv" else "  "
        _emit("\n".join(sep.join(map(str, row)) for row in [header, *rows]), path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_elliptic(args) -> int:
    p = args.precision
    sn, cn, dn = jacobi(args.x, args.m)
    k = complete_k(args.m)
    if args.format == "json":
        _emit(json.dumps({"sn": sn, "cn": cn, "dn": dn, "K": k}, indent=2), args.output)
    else:
        _emit(f"sn={_fmt(sn, p)} cn={_fmt(cn, p)} dn={_fmt(dn, p)} K={_fmt(k, p)}",
              args.output)
    return EXIT_OK


def _require_closed_form(j, numeric):
    if j > 3 and not numeric:
        raise DomainError(
            f"no closed form for j={j}; rerun with --numeric for the pipeline route"
        )


def _potential(j, m, family, numeric):
    """The family as a PeriodicPotential: closed form, or with ``numeric``
    the pipeline's V+ (raw and vminus are closed forms for any j)."""
    if family is susy.Family.SUPERPOTENTIAL and (numeric or j > 3):
        raise DomainError(f"w has a closed form for j <= 3 only and no numeric route, got j={j}")
    if family is susy.Family.V_PLUS:
        _require_closed_form(j, numeric)
        if numeric:
            return verify.partner_pair(j, m, numeric=True)[1]
    return susy.PotentialSpec(family, j, m).as_periodic_potential()


def cmd_potential(args) -> int:
    n = _positive_int(args.grid_n, "--grid-n")
    f = _potential(args.j, args.m, susy.Family(args.family), args.numeric)
    xs = np.arange(n) * (f.period / n)
    _rows_to_output(["x", "value"], zip(xs, f.sample(n)), args.format, args.precision,
                    args.output)
    return EXIT_OK


def cmd_states(args) -> int:
    n = _positive_int(args.grid_n, "--grid-n")
    xs = np.arange(n) * (2.0 * complete_k(args.m) / n)
    cols = {"x": xs, "psi_minus": susy.psi_minus(args.j, args.n, args.m, xs)}
    if args.j == 2:
        cols["psi_plus"] = susy.psi_plus(args.j, args.n, args.m, xs)
    _rows_to_output(list(cols), zip(*cols.values()), args.format, args.precision, args.output)
    return EXIT_OK


def cmd_bands(args) -> int:
    count = 2 * args.j + 1 if args.count is None else _positive_int(args.count, "--count")
    if args.both:
        # side-by-side comparison is solver work on both partners; the
        # diff column shows their independent agreement
        _require_closed_form(args.j, args.numeric)
        pair = verify.partner_pair(args.j, args.m, args.numeric)
        edges_m, edges_p = (bandsolver.band_edges(pot, count) for pot in pair)
        header = ["n", "E_minus", "E_plus", "diff", "boundary"]
        rows = [(e.n, e.energy, q.energy, abs(e.energy - q.energy), e.boundary)
                for e, q in zip(edges_m, edges_p)]
    else:
        family = susy.Family(args.family)
        V = _potential(args.j, args.m, family, args.numeric)
        header = ["n", "energy", "boundary"]
        if (args.j <= 3 and count <= 2 * args.j + 1 and not args.numeric
                and family in (susy.Family.V_MINUS, susy.Family.V_PLUS)):
            # the Lamé edge catalogue (partners share it)
            energies = susy.band_edge_energies(args.j, args.m)[:count]
            rows = [(n, e, bandsolver.expected_boundary(n)) for n, e in enumerate(energies)]
        else:
            rows = [(e.n, e.energy, e.boundary) for e in bandsolver.band_edges(V, count)]
    _rows_to_output(header, rows, args.format, args.precision, args.output)
    return EXIT_OK


_SCOPES = ("all", "edgestates", "limits", "iso", "selfiso")


def cmd_verify(args) -> int:
    # a repeated -m counts once, in the order first given
    m_list = tuple(dict.fromkeys(args.m)) if args.m else verify.DEFAULT_M_LIST
    for m in m_list:
        if not (0.0 < m < 1.0):
            raise DomainError(f"verification needs m in (0, 1), got {m}")
    reports = []
    if args.scope in ("all", "edgestates"):
        for m in m_list:
            reports.extend(verify.run_edge_state_suite(m))
    if args.scope in ("all", "limits"):
        reports.extend(verify.run_limit_suite())
    if args.scope in ("all", "iso"):
        reports.extend(verify.run_isospectrality_suite(m_list=m_list))
    if args.scope in ("all", "selfiso"):
        reports.extend(verify.run_selfiso_suite(m_list=m_list))
    if args.format == "json":
        _emit(verify.reports_to_json(reports), args.output)
    else:
        color = (args.output is None and sys.stdout.isatty()
                 and not os.environ.get("NO_COLOR"))
        _emit(verify.render_table(reports, color=color), args.output)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CLAIM


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_output_options(sp, formats=("csv", "json", "table"), default_format="table",
                        precision=True):
    """--format of the formats the subcommand writes, -o and --precision."""
    sp.add_argument("--format", choices=formats, default=default_format)
    sp.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    if precision:
        sp.add_argument("--precision", type=int, choices=range(4, 18), default=12,
                        metavar="{4..17}", help="digits after the decimal point")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lamesusy",
        description="Elliptic sn^2 potentials, their SUSY partners, and band-structure checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("elliptic", help="evaluate sn, cn, dn and K(m)")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--m", type=float, required=True)
    _add_output_options(sp, formats=("json", "table"))
    sp.set_defaults(func=cmd_elliptic)

    sp = sub.add_parser("potential", help="sample a potential over one period")
    sp.add_argument("-j", type=int, required=True)
    sp.add_argument("-m", type=float, required=True)
    sp.add_argument("--family", choices=[f.value for f in susy.Family], default="vminus")
    sp.add_argument("-n", "--grid-n", dest="grid_n", type=int, default=512)
    sp.add_argument("--numeric", action="store_true",
                    help="build vplus by the numeric partner pipeline (any j; needed for j >= 4)")
    _add_output_options(sp, default_format="csv")
    sp.set_defaults(func=cmd_potential)

    sp = sub.add_parser("states", help="sample closed-form band-edge eigenfunctions")
    sp.add_argument("-j", type=int, required=True)
    sp.add_argument("-m", type=float, required=True)
    sp.add_argument("-n", "--index", dest="n", type=int, required=True)
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=512)
    _add_output_options(sp, default_format="csv")
    sp.set_defaults(func=cmd_states)

    sp = sub.add_parser("bands", help="band-edge energies")
    sp.add_argument("-j", type=int, required=True)
    sp.add_argument("-m", type=float, required=True)
    one = sp.add_mutually_exclusive_group()
    one.add_argument("--family", choices=("vminus", "vplus", "raw"), default="vminus")
    one.add_argument("--both", action="store_true",
                     help="tabulate V- and V+ edges side by side")
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--numeric", action="store_true")
    _add_output_options(sp)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("verify", help="run the claim-verification suites")
    sp.add_argument("--scope", choices=_SCOPES, default="all")
    sp.add_argument("-m", type=float, action="append", default=None,
                    help="modulus; repeatable (default 0.1 0.5 0.9)")
    _add_output_options(sp, formats=("json", "table"), precision=False)
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
