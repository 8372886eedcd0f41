"""Command-line front end.

Subcommands:
  elliptic   evaluate sn, cn, dn and the quarter period K
  potential  sample a potential family to CSV/JSON/table
  states     sample closed-form band-edge eigenfunctions
  bands      band-edge energies (optionally both partners side by side)
  verify     run the claim-verification suites

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
    if value == 0.0:
        value = 0.0  # render -0.0 as 0.0
    return f"{value:.{precision}f}"


def _check_precision(p: int) -> int:
    if not 4 <= p <= 17:
        raise DomainError(f"precision must be in [4, 17], got {p}")
    return p


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _rows_to_output(header, rows, fmt, precision, path):
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v, precision) for v in row))
        _emit("\n".join(lines), path)
    elif fmt == "json":
        payload = [dict(zip(header, (float(_fmt(v, precision)) for v in row)))
                   for row in rows]
        _emit(json.dumps(payload, indent=2), path)
    else:
        widths = [max(len(h), precision + 8) for h in header]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append("  ".join(_fmt(v, precision).ljust(w)
                                    for v, w in zip(row, widths)))
        _emit("\n".join(lines), path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_elliptic(args) -> int:
    p = _check_precision(args.precision)
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
    if family not in (susy.Family.RAW_LAME, susy.Family.V_MINUS):
        _require_closed_form(j, numeric)
        if numeric:
            if family is not susy.Family.V_PLUS:
                raise DomainError("the numeric route provides vminus and vplus families only")
            return verify.partner_pair(j, m, numeric=True)[1]
    return susy.PotentialSpec(family, j, m).as_periodic_potential()


def cmd_potential(args) -> int:
    p = _check_precision(args.precision)
    n = _positive_int(args.grid_n, "--grid-n")
    f = _potential(args.j, args.m, susy.Family(args.family), args.numeric)
    xs = np.arange(n) * (f.period / n)
    values = f._eval_vec(xs)
    _rows_to_output(["x", "value"], list(zip(xs, values)), args.format, p, args.output)
    return EXIT_OK


def cmd_states(args) -> int:
    p = _check_precision(args.precision)
    n = _positive_int(args.grid_n, "--grid-n")
    xs = np.arange(n) * (2.0 * complete_k(args.m) / n)
    psi_m = susy.psi_minus(args.j, args.n, args.m, xs)
    if args.j == 2:
        psi_p = susy.psi_plus(args.j, args.n, args.m, xs)
        header = ["x", "psi_minus", "psi_plus"]
        rows = list(zip(xs, psi_m, psi_p))
    else:
        header = ["x", "psi_minus"]
        rows = list(zip(xs, psi_m))
    _rows_to_output(header, rows, args.format, p, args.output)
    return EXIT_OK


def cmd_bands(args) -> int:
    p = _check_precision(args.precision)
    family = susy.Family(args.family)
    args.count = 2 * args.j + 1 if args.count is None else _positive_int(args.count, "--count")
    if args.both:
        # side-by-side comparison is solver work on both partners; the
        # diff column shows their independent agreement
        _require_closed_form(args.j, args.numeric)
        pair = verify.partner_pair(args.j, args.m, args.numeric)
        edges_m, edges_p = (bandsolver.band_edges(pot, args.count) for pot in pair)
        header = ["n", "E_minus", "E_plus", "diff"]
        rows = [(e.n, e.energy, q.energy, abs(e.energy - q.energy))
                for e, q in zip(edges_m, edges_p)]
        boundaries = [e.boundary for e in edges_m]
    elif (args.j <= 3 and args.count <= 2 * args.j + 1 and not args.numeric
          and family in (susy.Family.V_MINUS, susy.Family.V_PLUS)):
        # the Lamé edge catalogue (partners share it)
        energies = susy.band_edge_energies(args.j, args.m)[: args.count]
        header = ["n", "energy"]
        rows = list(enumerate(energies))
        boundaries = [bandsolver.expected_boundary(n) for n, _ in rows]
    else:
        edges = bandsolver.band_edges(_potential(args.j, args.m, family, args.numeric),
                                      args.count)
        header = ["n", "energy"]
        rows = [(e.n, e.energy) for e in edges]
        boundaries = [e.boundary for e in edges]
    if args.format == "json":
        payload = []
        for row, bnd in zip(rows, boundaries):
            entry = dict(zip(header, (int(row[0]), *(float(_fmt(v, p)) for v in row[1:]))))
            entry["boundary"] = bnd
            payload.append(entry)
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        sep = "," if args.format == "csv" else "  "
        lines = [sep.join(header + ["boundary"])]
        for row, bnd in zip(rows, boundaries):
            cells = [str(int(row[0]))] + [_fmt(v, p) for v in row[1:]] + [bnd]
            lines.append(sep.join(cells))
        _emit("\n".join(lines), args.output)
    return EXIT_OK


_SCOPES = ("all", "edgestates", "limits", "iso", "selfiso")


def cmd_verify(args) -> int:
    m_list = tuple(args.m) if args.m else verify.DEFAULT_M_LIST
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
        sp.add_argument("--precision", type=int, default=12,
                        help="digits after the decimal point (4..17)")


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
    sp.add_argument("--family", choices=("vminus", "vplus", "raw"), default="vminus")
    sp.add_argument("--both", action="store_true",
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
