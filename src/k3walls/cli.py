"""Command line front end.

Subcommands: walls, path, decompose, transport, figure.  Each cmd_*
returns its output (text, csv or json; figure writes svg) and whether its
search is complete; main writes the output and exits 0 on success
(including empty results), 2 on a usage or domain error, 3 on an
incomplete search under --strict-complete.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import _lazy_submodule, crossing, report
from .charge import DEGENERATE, path_intersection
from .lattice import MukaiVector, SurfaceParams
from .walls import (
    WallSearch,
    candidate_walls,
    hilbert_vector,
    resolve_walls,
    transport_search,
)

# only the figure command draws
svgfig = _lazy_submodule("svgfig")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _vector(text: str) -> MukaiVector:
    parts = [chunk.strip() for chunk in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected r,c,s with three components, got {text!r}")
    try:
        r, c, s = (int(chunk) for chunk in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"vector components must be integers: {text!r}") from exc
    return MukaiVector(r, c, s)


def _float_pair(text: str) -> tuple[float, float]:
    parts = [chunk.strip() for chunk in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi - got {text!r}")
    try:
        lo, hi = (float(Fraction(chunk)) for chunk in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"range endpoints must be numbers: {text!r}") from exc
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"range endpoints must fit in a float: {text!r}") from exc
    return lo, hi


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc


def _at_least(low: int, parse=_int):
    """An argparse type: a value of parse no smaller than low."""

    def checked(text: str):
        value = parse(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return checked


def _add_common(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_at_least(2), help="number of points: use the Hilbert scheme vector (1, 0, 1-n)")
    group.add_argument("--vector", type=_vector, help="Mukai vector r,c,s")
    sub.add_argument("--degree", type=_at_least(1), default=1, metavar="D", help="polarization degree H^2 = 2D (default 1)")
    sub.add_argument("--rmax", type=_at_least(1), help="cap on |rank| of wall classes (default 4n for Hilbert and Beauville-Mukai vectors, with n = dm^2+1, the Hilbert partner, for (0, m, -1), certified when their proven bound is at most twice the cap; the proven bound for candidates)")
    sub.add_argument("--ymin", type=_at_least(0, _fraction), default=Fraction(1), metavar="Q", help="height cut, default 1: a candidate search keeps circles of radius > Q, path lists crossings at y > Q, figure draws the walls above y = Q and marks that line; otherwise unused")
    sub.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    sub.add_argument("--strict-complete", action="store_true", help="exit 3 when the search cannot certify completeness")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3walls",
        description="Wall and chamber computations for moduli of sheaves on a degree-two K3 surface.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes the common options; --format where it writes
    # a table, --precision where it writes floats
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=report.FORMATS, default="text", help="output format (default text)")
    floats = argparse.ArgumentParser(add_help=False)
    floats.add_argument("--precision", type=_at_least(1), default=6, help="digits for float display (default 6)")

    walls = subs.add_parser("walls", parents=[common, table], help="enumerate the walls of a Mukai vector")
    walls.set_defaults(run=cmd_walls)
    walls.add_argument("--candidates", action="store_true", help="force the candidate superset search")

    path = subs.add_parser("path", parents=[common, table, floats], help="walls crossed along a vertical path x = x0, descending y")
    path.set_defaults(run=cmd_path)
    path.add_argument("--x0", type=_fraction, required=True, help="x coordinate of the path")

    dec = subs.add_parser("decompose", parents=[common, table], help="semistable decompositions and stratum dimensions at one wall")
    dec.set_defaults(run=cmd_decompose)
    sel = dec.add_mutually_exclusive_group(required=True)
    sel.add_argument("--gamma", type=_fraction, help="slope of the wall to decompose")
    sel.add_argument("--wall-index", type=int, help="0-based row index into the wall table")
    dec.add_argument("--parts-max", type=_at_least(2), default=3, help="list decompositions of at most K parts (default 3); longer ones are left out without a note")

    trans = subs.add_parser("transport", parents=[common, table], help="map a wall table through the autoequivalence Phi_m")
    trans.set_defaults(run=cmd_transport)
    trans.add_argument("--m", type=int, required=True, help="twist parameter of Phi_m")
    trans.add_argument("--gamma-min", type=_fraction, help="keep rows with slope >= this value")

    fig = subs.add_parser("figure", parents=[common, floats], help="SVG picture of the walls in the upper half plane")
    fig.set_defaults(run=cmd_figure)
    fig.add_argument("--candidates", action="store_true", help="force the candidate superset search")
    fig.add_argument("--xrange", type=_float_pair, help="x window lo,hi (default fits the walls)")
    fig.add_argument("--yrange", type=_float_pair, help="y window lo,hi (default fits the walls)")

    return parser


def _search_vector(args) -> MukaiVector:
    return hilbert_vector(args.n) if args.n is not None else args.vector


def _wall_search(args) -> tuple[WallSearch, SurfaceParams]:
    """The wall search of the vector and flags every subcommand shares."""
    p = SurfaceParams(d=args.degree)
    search = candidate_walls if getattr(args, "candidates", False) else resolve_walls
    return search(_search_vector(args), args.rmax, p, y_min=args.ymin), p


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_walls(args) -> tuple[str, bool]:
    search, p = _wall_search(args)
    return report.render("walls", report.walls_payload(search, p), args.format), search.complete


def cmd_path(args) -> tuple[str, bool]:
    search, p = _wall_search(args)
    x0 = args.x0
    y_min = args.ymin
    hits = []
    on_wall = []
    for rec in search.records:
        if rec.curve is None:
            continue
        y_sq = path_intersection(rec.curve, x0)
        if y_sq is DEGENERATE:
            on_wall.append(rec.curve.x0)
        elif y_sq is not None and y_sq > y_min * y_min:
            hits.append((rec, y_sq))
    hits.sort(key=lambda item: -item[1])
    payload = report.path_payload(search, x0, hits, sorted(set(on_wall)), y_min, p, args.precision)
    return report.render("path", payload, args.format), search.complete


def cmd_decompose(args) -> tuple[str, bool]:
    v = _search_vector(args)
    if v.content() > 1:
        # checked before the search: moduli_dim(v) needs a primitive v
        raise ValueError(f"decompose needs a primitive vector; {v} is {v.content()} x {v.primitive_part()}")
    search, p = _wall_search(args)
    if args.wall_index is not None:
        if not 0 <= args.wall_index < len(search.records):
            raise ValueError(f"wall index {args.wall_index} out of range; the table has {len(search.records)} rows")
        rec = search.records[args.wall_index]
    else:
        matches = [r for r in search.records if r.gamma == args.gamma]
        if not matches:
            missing = f"no wall with slope {report.frac_str(args.gamma)}"
            available = ", ".join(report.frac_str(r.gamma) for r in search.records if r.gamma is not None)
            if search.records and not available:
                rows = len(search.records)
                raise ValueError(f"{missing}; none of the {rows} rows has a slope, select one with --wall-index 0..{rows - 1}")
            raise ValueError(f"{missing}; available slopes: {available or 'none'}")
        rec = matches[0]
    entries = []
    for dec in crossing.decompositions(v, rec, parts_max=args.parts_max, p=p):
        entry = {"parts": [list(u.as_tuple()) for u in dec.parts]}
        try:
            dims = crossing.stratum_dims(dec.parts, v, p)
            entry["moduli_dims"] = list(dims.part_moduli_dims)
            entry["fiber_dims"] = list(dims.fiber_dims)
            entry["stratum_dim"] = dims.stratum_dim
        except ValueError as exc:
            entry["error"] = str(exc)
        entries.append(entry)
    payload = report.decompose_payload(v, rec, entries, args.parts_max, crossing.moduli_dim(v, p), p)
    return report.render("decompose", payload, args.format), search.complete


def cmd_transport(args) -> tuple[str, bool]:
    base, p = _wall_search(args)
    search = transport_search(base, args.m, p)
    payload = report.walls_payload(search, p)
    if args.gamma_min is not None:
        if search.records and all(rec.gamma is None for rec in search.records):
            raise ValueError(f"--gamma-min keeps rows by slope; none of the {len(search.records)} rows has one")
        payload["walls"] = [
            wall
            for wall, rec in zip(payload["walls"], search.records)
            if rec.gamma is not None and rec.gamma >= args.gamma_min
        ]
    return report.render("walls", payload, args.format), search.complete


def cmd_figure(args) -> tuple[str, bool]:
    search, p = _wall_search(args)
    payload = report.walls_payload(search, p)
    return svgfig.render_figure(payload, args.xrange, args.yrange, y_marker=args.ymin, precision=args.precision), search.complete


def _fuse_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ['--x0', '-1/6'] as ['--x0=-1/6'].

    argparse only recognizes plain negative numbers after a flag;
    rationals like -1/6, pairs like -8,0 and vectors like -1,0,9 would
    be read as option names.  No option name starts with a digit or a
    dot, so a token of '-' and then one of those after a '--flag' is
    always that flag's value, and the fused form is unambiguous.
    """
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        is_flag = tok.startswith("--") and len(tok) > 2 and "=" not in tok
        if is_flag and len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == "."):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_fuse_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        text, complete = args.run(args)
        _emit(text, args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_INCOMPLETE if args.strict_complete and not complete else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
