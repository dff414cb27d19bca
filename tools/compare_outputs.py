"""Compare the outputs of two k3walls source trees, case by case.

    python3 tools/compare_outputs.py OTHER_ROOT [ROOT]

runs the same cases against OTHER_ROOT/src and ROOT/src (default: the
checkout holding this script), each in its own subprocess, and prints
per group how many cases it compared and the labels of any that differ.
It exits 1 when a case differs.  A case is compared by the sha256 of
its output; a ValueError counts as output, by its message.

- hilbert: repr of hilbert_walls(n) and of movable_cone(n) with
  r_max in {None, n, 3}, for d = 1 with n <= 200, d = 2 with n <= 120
  and d = 3 with n <= 79 (1,185 searches: at n = 3 the last two caps
  coincide);
- cone: repr of movable_cone(n) with r_max in {None, 1, 2, 3, n} for
  d = 1..30 and n = 2..60, and of hilbert_walls(n) with r_max in
  {None, 1, 3} for d = 1..30 and n = 2..40 (8,790 and 3,510 searches:
  at n = 2 and 3 the cap n repeats another; the cone boundary at n = 2,
  at non-squarefree d and at n - 1 = 2 takes shapes that d <= 3 misses);
- split: repr of hilbert_walls(n) and of movable_cone(n) with r_max None,
  for d in {4, 8, 9, 12} and every n <= 100 with d(n-1) a square (d not
  squarefree, so the Lagrangian class can have rank above one);
- candidate: repr of candidate_walls((0, m, k)) for m = 1..9,
  k = -6..6, d = 1..3, y_min in {1, 1/2, 3/2, 2/3} and r_max in
  {None, 3} (2,808 searches);
- paths: path_intersection on every record of the Hilbert tables
  (d <= 3, n <= 80) and of the transported tables (0, m, -1), m <= 12,
  one case per table, at x0 = 0, at each wall's center, at each rational
  tangency point center +- radius, at the integers -n..1 and at a few
  non-integers, each integer given both as an int and as a Fraction;
- charge: repr of the witness of geometric_check (the obstructing
  spherical class or None) and of central_charge of four classes
  at exact points (x, y^2), one case per d = 1..3 and x = a/q with
  q <= 12 and |x| <= 2, over y^2 at, just below and just above 1/(d q^2)
  and 1; and the (x, y^2) of wall_base_point on, plus and minus of every
  semicircular wall of the golden tables (the tables of the 26 golden
  CLI commands), one case per table;
- crossing: repr of positive_classes(v, w), and of decompositions(v, w,
  parts_max=4) with the stratum_dims or error message of each, for every
  semicircular wall w of the tables that the benchmark workload
  `wall_crossings` decomposes (d = 1: S^[n] for n = 12..40 step 4, and
  (0, m, -1) for m = 3, 4, 5), of S^[n] for n = 2..20 at d = 2, and of
  (0, m, -1) for m = 6, 7, 8 at d = 2 and 3, one case each per wall (the
  last are walls of small |k0^2|, where the walk over the lines parallel
  to v tries up to 2N candidates on a wall of N >= 20 charge levels); and
  the same for decompositions at parts_max=2 and at parts_max=3, the
  default of `decompose`, on the walls of the `wall_crossings` tables;
- crossing_full: the decompositions of the crossing group's walls with
  the stratum_dims or error message of each, at parts_max=sys.maxsize:
  every part has a charge level >= 1 and the levels of a decomposition
  sum to the wall's level count N, so a bound >= N cuts nothing.  The
  bound is not N itself because N is private to k3walls.crossing, and
  the two trees compared need not compute it alike;
- wall_tables: the text, csv, json and svg of every op of the benchmark
  workload `wall_tables` at seed 1, with its path hits (116 ops), run
  by the benchmark's own op code from bench/workloads.py of ROOT;
- render: renderings that wall_tables never makes, as the CLI writes them
  (exit code, stdout and stderr of main in process): `path` at 25 x0
  and `decompose` of every wall, in text, csv and json, for the two
  vectors of the golden commands, (1, 0, -9) and (0, 3, -1); `figure` of
  those and of n = 20 at --precision 3, at --ymin 1/2 and with an
  explicit --xrange; and the text, csv, json and svg of hilbert_walls(n)
  for d = 2 and 3, n = 100..120;
- cli: what main writes for the argv of the golden commands
  (GOLDEN_COMMANDS) and of the exit-code tests of tests/test_cli.py
  (test_usage_errors_exit_two, test_usage_errors_name_the_bad_value and
  test_domain_errors_exit_two_with_message), for the bounded options
  at and beyond their bounds (CLI_BOUNDS: --degree, --precision,
  --parts-max, --rmax and --ymin; --precision also at and above its
  most), all read from ROOT, and for --help of
  the command and of each subcommand (CLI_HELP): the exit code, stdout
  and stderr, also when argparse ends main with SystemExit (a usage
  error, or --help).  Both trees run with COLUMNS=80, so argparse wraps
  its usage and help alike.

`--digests SRC` prints the digests of one tree, one case a line; the
comparison runs it twice.
"""

from __future__ import annotations

import ast
import hashlib
import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
HILBERT_NS = {1: 200, 2: 120, 3: 79}
CONE_DS, CONE_NS, CONE_WALL_NS = range(1, 31), range(2, 61), range(2, 41)
SPLIT_DS, SPLIT_N = (4, 8, 9, 12), 100
SEED = 1
GOLDEN_VECTORS = {"(1, 0, -9)": ["--n", "10"], "(0, 3, -1)": ["--vector", "0,3,-1"]}
RENDER_DS, RENDER_NS = (2, 3), range(100, 121)
PATH_HILBERT_NS, PATH_TRANSPORT_MS = range(2, 81), range(2, 13)
PATH_FRACTIONS = (Fraction(1, 2), Fraction(-1, 3), Fraction(-7, 4), Fraction(-25, 6))
CHARGE_CLASSES = ((1, 0, -9), (0, 3, -1), (1, -1, 2), (2, 1, 1))
# (vector, d) of the tables whose walls the crossing group decomposes,
# the tables of the benchmark workload `wall_crossings` first
BENCH_CROSSING_TABLES = (
    *(((1, 0, 1 - n), 1) for n in range(12, 41, 4)),
    *(((0, m, -1), 1) for m in (3, 4, 5)),
)
CROSSING_TABLES = (
    *BENCH_CROSSING_TABLES,
    *(((1, 0, 1 - n), 2) for n in range(2, 21)),
    *(((0, m, -1), d) for d in (2, 3) for m in (6, 7, 8)),
)
CLI_TESTS = ROOT / "tests" / "test_cli.py"
CLI_EXIT_TESTS = (
    "test_usage_errors_exit_two", "test_usage_errors_name_the_bad_value", "test_domain_errors_exit_two_with_message",
)
# the bounded options at and below their bounds, and ints that do not
# parse, where the tests above do not have them
CLI_BOUNDS = (
    ["walls", "--n", "10", "--degree", "1"],
    ["path", "--n", "10", "--x0", "0", "--precision", "1"], ["path", "--n", "10", "--x0", "0", "--precision", "0"],
    ["path", "--n", "10", "--x0", "0", "--precision", "100"], ["path", "--n", "10", "--x0", "0", "--precision", "101"],
    ["figure", "--n", "10", "--precision", "1"], ["figure", "--n", "10", "--precision", "0"],
    ["figure", "--n", "10", "--precision", "100"], ["figure", "--n", "10", "--precision", "101"],
    ["decompose", "--n", "10", "--gamma", "2/11", "--parts-max", "2"],
    ["decompose", "--n", "10", "--gamma", "2/11", "--parts-max", "x"],
    ["path", "--n", "10", "--x0", "0", "--rmax", "1"], ["path", "--n", "10", "--x0", "0", "--rmax", "0"],
    ["path", "--n", "10", "--x0", "0", "--ymin", "0"], ["path", "--n", "10", "--x0", "0", "--ymin", "-1/2"],
)
CLI_HELP = (["--help"], *([sub, "--help"] for sub in ("walls", "path", "decompose", "transport", "figure")))
# (vector, candidates) of the tables behind the golden CLI commands
GOLDEN_TABLES = (
    *(((1, 0, 1 - n), False) for n in (2, 3, 4, 8, 10)),
    ((0, 3, -1), False),
    ((0, 2, -1), True),
    ((0, 2, -2), True),
    ((0, 1, 0), True),
)


def _digest(thunk) -> str:
    try:
        out = repr(thunk())
    except ValueError as exc:
        out = f"ValueError: {exc}"
    return hashlib.sha256(out.encode()).hexdigest()


def _cli(argv: list[str]):
    """(exit code, stdout, stderr) of the k3walls command, run in process;
    the exit code of argparse's SystemExit when it ends main."""
    from k3walls.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_commands():
    """The argv of the cli group, from the tests of ROOT."""
    body = ast.parse(CLI_TESTS.read_text(encoding="utf-8")).body
    for node in body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_COMMANDS" for t in node.targets):
            yield from ast.literal_eval(node.value).values()
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name in CLI_EXIT_TESTS:
            (mark,) = node.decorator_list
            for case in ast.literal_eval(mark.args[1]):
                yield case[0] if isinstance(case, tuple) else case
    yield from CLI_BOUNDS
    yield from CLI_HELP


def _render_commands():
    for vector in GOLDEN_VECTORS.values():
        for fmt in ("text", "csv", "json"):
            for k in range(-12, 13):
                x0 = f"{k}/2" if vector[0] == "--n" else f"{k}/12"
                yield ["path", *vector, f"--x0={x0}", "--format", fmt]
            for i in range(12):
                yield ["decompose", *vector, "--wall-index", str(i), "--format", fmt]
    for vector in (*GOLDEN_VECTORS.values(), ["--n", "20"]):
        for options in (["--precision", "3"], ["--ymin", "1/2"], ["--xrange=-6,1"], ["--xrange=-2.5,0.25", "--precision", "2"]):
            yield ["figure", *vector, *options]


def _path_points(search) -> list:
    """The x0 of the paths group for one table."""
    n = search.n
    points = [*range(-n, 2), *PATH_FRACTIONS]
    for rec in search.records:
        curve = rec.curve
        if curve is None:
            continue
        if hasattr(curve, "x0"):
            points.append(curve.x0)
            continue
        points.append(curve.center_x)
        num, den = curve.radius_sq.numerator, curve.radius_sq.denominator
        if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
            radius = Fraction(math.isqrt(num), math.isqrt(den))
            points += [curve.center_x - radius, curve.center_x + radius]
    return [*dict.fromkeys(points), *(Fraction(k) for k in range(-n, 2))]


def _paths(search) -> list:
    from k3walls import charge

    return [
        (x0, [charge.path_intersection(rec.curve, x0) for rec in search.records if rec.curve is not None])
        for x0 in _path_points(search)
    ]


def _charges(x, d: int) -> list:
    """geometric_check and central_charge at x over the y^2 of the charge
    group."""
    from k3walls import charge, lattice

    p = lattice.SurfaceParams(d)
    out = []
    for base in (Fraction(1, d * x.denominator ** 2), Fraction(1)):
        for y_sq in (base * Fraction(9, 10), base, base * Fraction(11, 10)):
            pt = charge.StabilityPoint(x, y_sq=y_sq)
            zs = [charge.central_charge(lattice.MukaiVector(*u), pt, p) for u in CHARGE_CLASSES]
            out.append((y_sq, charge.geometric_check(pt, p), zs))
    return out


def _base_points(search) -> list:
    """(x, y^2) of wall_base_point on each side of every semicircular wall."""
    from k3walls import crossing

    out = []
    for rec in search.records:
        if not hasattr(rec.curve, "radius_sq"):
            continue
        for side in ("on", "plus", "minus"):
            try:
                pt = crossing.wall_base_point(rec, side)
                out.append((pt.x, pt.y_sq))
            except ValueError as exc:
                out.append(f"ValueError: {exc}")
    return out


def _strata(v, rec, p, parts_max: int) -> list:
    """Each decomposition of the crossing groups with its stratum_dims,
    read as (part_moduli_dims, fiber_dims, stratum_dim).  Those three
    fields are what decompose prints; the repr of DimReport is not
    compared, because trees that carry a fourth field (total_space_dim,
    moduli_dim(v)) print a different repr for the same dimensions."""
    from k3walls import crossing

    out = []
    for dec in crossing.decompositions(v, rec, parts_max=parts_max, p=p):
        try:
            dims = crossing.stratum_dims(dec.parts, v, p)
            out.append((dec, (dims.part_moduli_dims, dims.fiber_dims, dims.stratum_dim)))
        except ValueError as exc:
            out.append((dec, f"ValueError: {exc}"))
    return out


def digests(bench_dir: Path):
    """(group, label, sha256) for every case, against the k3walls on sys.path."""
    from k3walls import charge, crossing, lattice, report, svgfig, walls

    for d, n_top in HILBERT_NS.items():
        p = lattice.SurfaceParams(d)
        for n in range(2, n_top + 1):
            for r_max in dict.fromkeys((None, n, 3)):
                label = f"n={n} d={d} r_max={r_max}"
                yield "hilbert", label, _digest(lambda: walls.hilbert_walls(n, r_max, p))
                yield "hilbert", f"cone {label}", _digest(lambda: walls.movable_cone(n, r_max, p))
    for d in CONE_DS:
        p = lattice.SurfaceParams(d)
        for n in CONE_NS:
            for r_max in dict.fromkeys((None, 1, 2, 3, n)):
                yield "cone", f"cone n={n} d={d} r_max={r_max}", _digest(lambda: walls.movable_cone(n, r_max, p))
        for n in CONE_WALL_NS:
            for r_max in (None, 1, 3):
                yield "cone", f"n={n} d={d} r_max={r_max}", _digest(lambda: walls.hilbert_walls(n, r_max, p))
    for d in SPLIT_DS:
        p = lattice.SurfaceParams(d)
        for n in range(2, SPLIT_N + 1):
            if math.isqrt(d * (n - 1)) ** 2 == d * (n - 1):
                yield "split", f"n={n} d={d}", _digest(lambda: walls.hilbert_walls(n, None, p))
                yield "split", f"cone n={n} d={d}", _digest(lambda: walls.movable_cone(n, None, p))
    for d in (1, 2, 3):
        p = lattice.SurfaceParams(d)
        for m in range(1, 10):
            for k in range(-6, 7):
                v = lattice.MukaiVector(0, m, k)
                for y_min in (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)):
                    for r_max in (None, 3):
                        label = f"{v} d={d} y_min={y_min} r_max={r_max}"
                        yield "candidate", label, _digest(lambda: walls.candidate_walls(v, r_max, p, y_min=y_min))

    for d in (1, 2, 3):
        p = lattice.SurfaceParams(d)
        for n in PATH_HILBERT_NS:
            yield "paths", f"n={n} d={d}", _digest(lambda: _paths(walls.hilbert_walls(n, None, p)))
    p = lattice.SurfaceParams(1)
    for m in PATH_TRANSPORT_MS:
        label = f"(0, {m}, -1) d=1"
        yield "paths", label, _digest(lambda: _paths(walls.resolve_walls(lattice.MukaiVector(0, m, -1), None, p)))

    for d in (1, 2, 3):
        for x in sorted({Fraction(a, q) for q in range(1, 13) for a in range(-2 * q, 2 * q + 1)}):
            yield "charge", f"x={x} d={d}", _digest(lambda: _charges(x, d))
    for vector, candidates in GOLDEN_TABLES:
        v = lattice.MukaiVector(*vector)
        label = f"base points {v}{' candidates' if candidates else ''}"
        search = walls.candidate_walls if candidates else walls.resolve_walls
        yield "charge", label, _digest(lambda: _base_points(search(v)))

    for argv in _render_commands():
        yield "render", " ".join(argv), _digest(lambda: _cli(argv))
    for d in RENDER_DS:
        p = lattice.SurfaceParams(d)
        for n in RENDER_NS:
            def rendered():
                payload = report.walls_payload(walls.hilbert_walls(n, None, p), p)
                return [report.render("walls", payload, fmt) for fmt in ("text", "csv", "json")] + [
                    svgfig.render_figure(payload)
                ]
            yield "render", f"walls n={n} d={d}", _digest(rendered)

    for argv in _cli_commands():
        yield "cli", " ".join(argv), _digest(lambda: _cli(argv))

    for vector, d in CROSSING_TABLES:
        p = lattice.SurfaceParams(d)
        v = lattice.MukaiVector(*vector)
        for rec in walls.resolve_walls(v, None, p).records:
            if not hasattr(rec.curve, "radius_sq"):
                continue
            label = f"{v} d={d} gamma={rec.gamma}"
            yield "crossing", f"classes {label}", _digest(lambda: crossing.positive_classes(v, rec, p))
            yield "crossing", f"decompositions {label}", _digest(lambda: _strata(v, rec, p, 4))
            if (vector, d) in BENCH_CROSSING_TABLES:
                for cap in (2, 3):
                    yield "crossing", f"decompositions parts_max={cap} {label}", _digest(lambda: _strata(v, rec, p, cap))
            yield "crossing_full", label, _digest(lambda: _strata(v, rec, p, sys.maxsize))

    sys.path.insert(0, str(bench_dir))
    import workloads as wl

    k3 = SimpleNamespace(charge=charge, lattice=lattice, report=report, svgfig=svgfig, walls=walls)
    tables = wl.WallTables()
    for op in tables.plan(random.Random(SEED)):
        try:
            res = tables.run(k3, op)
        except wl.DomainError as exc:
            res = exc.args[0]
        out = (res.error, res.text, res.csv, res.json, res.svg, res.hits)
        yield "wall_tables", op.label, hashlib.sha256(repr(out).encode()).hexdigest()


def _run_digests(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, __file__, "--digests", str(root / "src")],
        env=env, capture_output=True, text=True, check=True,
    )
    out: dict = {}
    for line in proc.stdout.splitlines():
        group, label, sha = line.split("\t")
        out[(group, label)] = sha
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--digests"]:
        import k3walls

        if not Path(k3walls.__file__).resolve().is_relative_to(Path(argv[1]).resolve()):
            raise SystemExit(f"k3walls imported from {k3walls.__file__}, not from {argv[1]}")
        for case in digests(ROOT / "bench"):
            print("\t".join(case))
        return 0
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    other = _run_digests(Path(argv[0]).resolve())
    mine = _run_digests(Path(argv[1]).resolve() if len(argv) == 2 else ROOT)
    if other.keys() != mine.keys():
        print("the two trees ran different cases")
        return 1
    differ = 0
    for group in dict.fromkeys(group for group, _ in mine):
        labels = [label for g, label in mine if g == group]
        bad = [label for label in labels if mine[(group, label)] != other[(group, label)]]
        differ += len(bad)
        print(f"{group}: {len(labels)} cases, {len(bad)} differ")
        for label in bad:
            print(f"  differs: {label}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
