"""Command line front end.

Subcommands: walls, path, decompose, transport, figure.  Each one builds
a JSON-able payload and renders it in the requested format (text, csv,
json; figure emits svg).  Exit codes: 0 success (including empty
results), 2 usage or domain error, 3 incomplete search under
--strict-complete.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from . import report
from .charge import DEGENERATE, path_intersection
from .crossing import decompositions, moduli_dim, stratum_dims
from .lattice import MukaiVector, SurfaceParams
from .svgfig import render_figure
from .walls import (
    SearchBounds,
    WallSearch,
    hilbert_vector,
    resolve_walls,
    transport_search,
)

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


def _add_common(sub: argparse.ArgumentParser, vector_needed: bool = True) -> None:
    if vector_needed:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--n", type=int, help="number of points: use the Hilbert scheme vector (1, 0, 1-n)")
        group.add_argument("--vector", type=_vector, help="Mukai vector r,c,s")
    sub.add_argument("--degree", type=int, default=1, metavar="D", help="polarization degree H^2 = 2D (default 1)")
    sub.add_argument("--rmax", type=int, help="cap on |rank| of wall classes (default 4n for Hilbert and Beauville-Mukai vectors, the proven bound for candidates)")
    sub.add_argument("--ymin", type=_fraction, default=Fraction(1), metavar="Q", help="keep candidate circles with radius > Q (default 1)")
    sub.add_argument("--format", choices=report.FORMATS, help="output format (default from K3WALLS_FORMAT, else text)")
    sub.add_argument("--precision", type=int, default=6, help="digits for float display (default 6)")
    sub.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    sub.add_argument("--strict-complete", action="store_true", help="exit 3 when the search cannot certify completeness")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3walls",
        description="Wall and chamber computations for moduli of sheaves on a degree-two K3 surface.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    walls = subs.add_parser("walls", help="enumerate the walls of a Mukai vector")
    _add_common(walls)
    walls.add_argument("--candidates", action="store_true", help="force the candidate superset search")

    path = subs.add_parser("path", help="walls crossed along a vertical path x = x0, descending y")
    _add_common(path)
    path.add_argument("--x0", type=_fraction, required=True, help="x coordinate of the path")

    dec = subs.add_parser("decompose", help="semistable decompositions and stratum dimensions at one wall")
    _add_common(dec)
    sel = dec.add_mutually_exclusive_group(required=True)
    sel.add_argument("--gamma", type=_fraction, help="slope of the wall to decompose")
    sel.add_argument("--wall-index", type=int, help="0-based row index into the wall table")
    dec.add_argument("--parts-max", type=int, default=3, help="maximum number of parts (default 3)")

    trans = subs.add_parser("transport", help="map a wall table through the autoequivalence Phi_m")
    _add_common(trans)
    trans.add_argument("--m", type=int, required=True, help="twist parameter of Phi_m")
    trans.add_argument("--gamma-min", type=_fraction, help="keep rows with slope >= this value")

    fig = subs.add_parser("figure", help="SVG picture of the walls in the upper half plane")
    _add_common(fig)
    fig.add_argument("--candidates", action="store_true", help="force the candidate superset search")
    fig.add_argument("--xrange", type=_float_pair, help="x window lo,hi (default fits the walls)")
    fig.add_argument("--yrange", type=_float_pair, help="y window lo,hi (default fits the walls)")

    return parser


def _search_vector(args) -> MukaiVector:
    return hilbert_vector(args.n) if args.n is not None else args.vector


def _wall_search(args) -> tuple[WallSearch, SurfaceParams]:
    """The wall search of the vector and flags every subcommand shares."""
    p = SurfaceParams(d=args.degree)
    bounds = SearchBounds(r_max=args.rmax, y_min=args.ymin)
    return resolve_walls(_search_vector(args), bounds, p, force_candidates=getattr(args, "candidates", False)), p


def _emit(text: str, args) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _complete_status(args, complete: bool) -> int:
    if args.strict_complete and not complete:
        return EXIT_INCOMPLETE
    return EXIT_OK


def _fmt(args) -> str:
    return args.format or report.default_format()


def cmd_walls(args) -> int:
    search, p = _wall_search(args)
    payload = report.walls_payload(search, p)
    _emit(report.render("walls", payload, _fmt(args)), args)
    return _complete_status(args, search.complete)


def cmd_path(args) -> int:
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
    _emit(report.render("path", payload, _fmt(args)), args)
    return _complete_status(args, search.complete)


def cmd_decompose(args) -> int:
    if args.parts_max < 2:
        raise ValueError("--parts-max must be at least 2")
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
            available = ", ".join(report.frac_str(r.gamma) for r in search.records if r.gamma is not None)
            raise ValueError(f"no wall with slope {report.frac_str(args.gamma)}; available slopes: {available or 'none'}")
        rec = matches[0]
    entries = []
    for dec in decompositions(v, rec, parts_max=args.parts_max, p=p):
        entry = {"parts": [list(u.as_tuple()) for u in dec.parts]}
        try:
            dims = stratum_dims(dec.parts, v, p)
            entry["moduli_dims"] = list(dims.part_moduli_dims)
            entry["fiber_dims"] = list(dims.fiber_dims)
            entry["stratum_dim"] = dims.stratum_dim
        except ValueError as exc:
            entry["error"] = str(exc)
        entries.append(entry)
    payload = report.decompose_payload(v, rec, entries, args.parts_max, moduli_dim(v, p), p)
    _emit(report.render("decompose", payload, _fmt(args)), args)
    return _complete_status(args, search.complete)


def cmd_transport(args) -> int:
    base, p = _wall_search(args)
    search = transport_search(base, args.m, p)
    if args.gamma_min is not None:
        kept = tuple(rec for rec in search.records if rec.gamma is not None and rec.gamma >= args.gamma_min)
        search = WallSearch(search.vector, kept, search.complete, search.mode, search.n, search.m, search.source_vector)
    payload = report.walls_payload(search, p)
    _emit(report.render("walls", payload, _fmt(args)), args)
    return _complete_status(args, search.complete)


def cmd_figure(args) -> int:
    fmt = args.format or "svg"
    if fmt != "svg":
        raise ValueError("figure output is svg only")
    search, p = _wall_search(args)
    payload = report.walls_payload(search, p)
    _emit(render_figure(payload, args.xrange, args.yrange, y_marker=args.ymin, precision=args.precision), args)
    return _complete_status(args, search.complete)


_COMMANDS = {
    "walls": cmd_walls,
    "path": cmd_path,
    "decompose": cmd_decompose,
    "transport": cmd_transport,
    "figure": cmd_figure,
}

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


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_fuse_negative_values(list(argv)))
    if args.n is not None and args.n < 2:
        parser.error("--n must be at least 2")
    if args.precision < 1:
        parser.error("--precision must be positive")
    if args.degree < 1:
        parser.error("--degree must be positive")
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
