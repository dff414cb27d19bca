"""The three benchmark workloads: their inputs, their ops and the checks
that their outputs are right.

A workload is built in two steps.  `plan(rng)` draws the inputs the
seed decides (the path abscissae of `wall_tables`) without touching the
program; the run shuffles the op order of every pass with the same
seed.  `build(k3, plan)` is the timed set-up: it makes whatever state
the ops share, which for `wall_crossings` means the wall tables whose
walls the ops cross, and returns the ops.  `run(k3, op)` is one timed
op, `check(k3, result)` checks its output and `sizes(result)` counts it.
The checks compare against `tests/frozen.py`, the golden transcripts and
identities the benchmark recomputes itself with `mukai_pairing`; they
never compare the program against its own output, except that a later
pass must repeat the first pass exactly.

An op raising ValueError is a domain error: the program refused the
input with a message, as the CLI does with exit code 2.  It counts in
`fail_ratio`.  Any other exception is a crash, which fails the run.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from speed import CPU_REFERENCE, SPAWN_REFERENCE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
CLI_TESTS = ROOT / "tests" / "test_cli.py"
FROZEN = ROOT / "tests" / "frozen.py"

# (n, d) Hilbert tables, Beauville-Mukai (0, m, -1) tables and candidate
# vectors (0, m, k) of `wall_tables`.  The d = 1 range holds every known
# seed defect up to n = 60; none is filtered out.
HILBERT_TABLES = [(n, 1) for n in range(2, 61)] + [(n, 2) for n in range(2, 31)]
TRANSPORT_MS = list(range(2, 9))
CANDIDATE_VECTORS = [(0, m, k) for m in range(2, 9) for k in (-1, -2, -3)]
PATHS_PER_TABLE = 3

# the tables whose semicircular walls `wall_crossings` decomposes
CROSSING_HILBERT_NS = list(range(12, 41, 4))
CROSSING_TRANSPORT_MS = [3, 4, 5]
PARTS_MAX = 4


class CheckError(AssertionError):
    """An output check failed: the program gave a wrong answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class DomainError(Exception):
    """The op's input was refused with a message (ValueError / exit 2)."""


def child_env() -> dict:
    """Environment of a CLI subprocess: PYTHONPATH=src, K3WALLS_FORMAT unset."""
    env = {k: v for k, v in os.environ.items() if k != "K3WALLS_FORMAT"}
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def load_frozen():
    spec = importlib.util.spec_from_file_location("k3walls_bench_frozen", FROZEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_commands() -> dict[str, list[str]]:
    """GOLDEN_COMMANDS of tests/test_cli.py, read without importing pytest."""
    tree = ast.parse(CLI_TESTS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_COMMANDS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"no GOLDEN_COMMANDS in {CLI_TESTS}")


# ---------------------------------------------------------------------------
# identities the checks recompute


def pairing(u, w, d: int) -> int:
    return 2 * d * u[1] * w[1] - u[0] * w[2] - w[0] * u[2]


def hilbert_clauses(n: int) -> set[tuple[int, int]]:
    """(a^2, <v,a>) pairs of the wall criterion for S^[n], both kinds."""
    pairs = {(-2, 0), (0, 1), (0, 2)}
    pairs |= {(-2, k) for k in range(1, n)}
    pairs |= {(0, k) for k in range(3, n)}
    a_sq = 2
    while 2 * a_sq < n - 1:
        pairs |= {(a_sq, k) for k in range(2 * a_sq + 1, n)}
        a_sq += 2
    return pairs


def wall_curve(v, a, d: int):
    """("v", x0) or ("c", center, radius^2) from the 2x2 minors of (v, a)."""
    big_p = a[0] * v[1] - v[0] * a[1]
    big_b = a[0] * v[2] - v[0] * a[2]
    big_c = v[1] * a[2] - a[1] * v[2]
    if big_p == 0:
        return ("v", Fraction(-big_c, big_b))
    center = Fraction(big_b, 2 * d * big_p)
    return ("c", center, center * center + Fraction(big_c, d * big_p))


def curve_tuple(curve):
    if curve is None:
        return None
    if hasattr(curve, "x0"):
        return ("v", curve.x0)
    return ("c", curve.center_x, curve.radius_sq)


def lagrangian_m(n: int, d: int):
    """m with n - 1 = d m^2, when there is one."""
    if (n - 1) % d:
        return None
    m = math.isqrt((n - 1) // d)
    return m if m > 0 and d * m * m == n - 1 else None


# ---------------------------------------------------------------------------
# wall_tables


@dataclass(frozen=True)
class TableOp:
    kind: str  # "hilbert" | "transport" | "candidates"
    key: tuple  # (n, d) | (m,) | (0, m, k)
    x0s: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.kind}{self.key}"


@dataclass
class TableResult:
    op: TableOp
    search: object = None
    payload: dict = None
    text: str = ""
    csv: str = ""
    json: str = ""
    svg: str = ""
    hits: list = field(default_factory=list)
    error: str = ""

    def digest(self) -> str:
        return digest(self.error, self.text, self.csv, self.json, self.svg, self.hits)


class WallTables:
    """One op is one full wall table: search, payload, text/csv/json,
    svg and a few vertical paths."""

    name = "wall_tables"
    reference = CPU_REFERENCE

    def __init__(self):
        self.frozen = load_frozen()
        self._gamma_max: dict = {}  # (n, d) -> movable_cone(n).gamma_max, a check input

    def plan(self, rng):
        ops = [TableOp("hilbert", key) for key in HILBERT_TABLES]
        ops += [TableOp("transport", (m,)) for m in TRANSPORT_MS]
        ops += [TableOp("candidates", vec) for vec in CANDIDATE_VECTORS]
        planned = []
        for op in ops:
            if op.kind == "hilbert":  # Hilbert walls have centers in [-n, 0]
                n = op.key[0]
                x0s = tuple(Fraction(-rng.randint(0, 12 * n), 12) for _ in range(PATHS_PER_TABLE))
            else:  # torsion walls are centered at k/2m, within a unit of 0
                x0s = tuple(Fraction(rng.randint(-48, 48), 24) for _ in range(PATHS_PER_TABLE))
            planned.append(TableOp(op.kind, op.key, x0s))
        return planned

    def build(self, k3, ops):
        return ops

    def run(self, k3, op: TableOp) -> TableResult:
        walls, lattice = k3.walls, k3.lattice
        out = TableResult(op)
        try:
            if op.kind == "hilbert":
                n, d = op.key
                p = lattice.SurfaceParams(d)
                search = walls.hilbert_walls(n, None, p)
            elif op.kind == "transport":
                (m,) = op.key
                p = lattice.SurfaceParams(1)
                base = walls.hilbert_walls(m * m + 1, None, p)
                records = walls.transport_walls(base.records, m, base.vector, p)
                search = walls.WallSearch(
                    vector=lattice.phi_pushforward(base.vector, m, p),
                    records=tuple(records),
                    complete=base.complete,
                    mode="transport",
                    n=base.n,
                    m=m,
                    source_vector=base.vector,
                )
            else:
                p = lattice.SurfaceParams(1)
                search = walls.candidate_walls(lattice.MukaiVector(*op.key), None, p)
        except ValueError as exc:
            out.error = str(exc)
            raise DomainError(out) from exc
        out.search = search
        out.payload = k3.report.walls_payload(search, p)
        out.text = k3.report.render("walls", out.payload, "text")
        out.csv = k3.report.render("walls", out.payload, "csv")
        out.json = k3.report.render("walls", out.payload, "json")
        out.svg = k3.svgfig.render_figure(out.payload)
        for x0 in op.x0s:
            for i, rec in enumerate(search.records):
                if rec.curve is None:
                    continue
                y_sq = k3.charge.path_intersection(rec.curve, x0)
                if y_sq is not None and y_sq is not k3.charge.DEGENERATE:
                    out.hits.append((x0, i, y_sq))
        return out

    def sizes(self, res: TableResult) -> dict:
        if res.error:
            return {"domain_errors": 1}
        kind = "candidate_records" if res.op.kind == "candidates" else "walls"
        return {
            "tables": 1,
            kind: len(res.search.records),
            "uncertified": int(not res.search.complete),
            "path_hits": len(res.hits),
            "report_bytes": len(res.text) + len(res.csv) + len(res.json),
            "svg_bytes": len(res.svg),
        }

    def check(self, k3, res: TableResult) -> None:
        if res.error:
            return
        op, search = res.op, res.search
        recs = search.records
        if op.kind == "hilbert":
            n, d = op.key
            v = (1, 0, 1 - n)
            self._check_clauses(recs, v, n, d)
            self._check_slopes(k3, recs, n, d)
            for rec in recs:
                if rec.wall_type != "boundary_lagrangian":
                    a = rec.a.as_tuple()
                    require(rec.gamma == Fraction(-2 * d * a[1], a[0] * (n - 1) + a[2]),
                            f"{op.label}: slope of {a} is not its wall's slope")
            if d == 1 and n in self.frozen.WALLS_BY_N:
                got = [self.frozen.record_tuple(rec) for rec in recs]
                require(got == self.frozen.WALLS_BY_N[n], f"{op.label}: table differs from tests/frozen.py")
                require(search.complete, f"{op.label}: frozen table not certified complete")
        elif op.kind == "transport":
            (m,) = op.key
            n = m * m + 1
            require(search.vector.as_tuple() == (0, m, -1), f"{op.label}: image vector {search.vector}")
            self._check_clauses(recs, (0, m, -1), n, 1)
            self._check_slopes(k3, recs, n, 1)
            if m == 3:
                got = [self.frozen.record_tuple(r) for r in recs if r.gamma >= Fraction(6, 19)]
                require(got == self.frozen.TRANSPORT_MIN_6_19, f"{op.label}: rows differ from tests/frozen.py")
        else:
            v = op.key
            radii = []
            for rec in recs:
                a = rec.a.as_tuple()
                require(rec.a_sq == pairing(a, a, 1) >= -2, f"{op.label}: a^2 of {a}")
                require(rec.pairing_va == pairing(v, a, 1), f"{op.label}: (v,a) of {a}")
                require(curve_tuple(rec.curve) == wall_curve(v, a, 1), f"{op.label}: locus of {a}")
                radii.append(rec.curve.radius_sq)
            require(all(r > 1 for r in radii), f"{op.label}: a candidate circle has radius <= 1")
            require(radii == sorted(set(radii), reverse=True), f"{op.label}: radii not strictly descending")
            if v in self.frozen.CANDIDATES:
                got = [(r.a.as_tuple(), r.a_sq, r.pairing_va, r.curve.radius_sq) for r in recs]
                require(got == self.frozen.CANDIDATES[v], f"{op.label}: rows differ from tests/frozen.py")
        self._check_renderings(res)

    def _check_clauses(self, recs, v, n, d):
        clauses = hilbert_clauses(n)
        for rec in recs:
            a = rec.a.as_tuple()
            a_sq, va = pairing(a, a, d), pairing(v, a, d)
            require((rec.a_sq, rec.pairing_va) == (a_sq, va), f"v={v}: stored a^2, (v,a) of {a}")
            if rec.wall_type == "boundary_lagrangian":
                require((a_sq, va) == (0, 0) and rec.curve is None, f"v={v}: Lagrangian class {a}")
            else:
                require((a_sq, va) in clauses, f"v={v}: class {a} satisfies no wall clause")
                require(curve_tuple(rec.curve) == wall_curve(v, a, d), f"v={v}: locus of {a}")

    def _check_slopes(self, k3, recs, n, d):
        gammas = [rec.gamma for rec in recs]
        require(all(g0 < g1 for g0, g1 in zip(gammas, gammas[1:])), f"S^[{n}], d={d}: slopes not ascending")
        if (n, d) not in self._gamma_max:
            self._gamma_max[(n, d)] = k3.walls.movable_cone(n, None, k3.lattice.SurfaceParams(d)).gamma_max
        gamma_max = self._gamma_max[(n, d)]
        if d == 1 and n in self.frozen.GAMMA_MAX:
            require(gamma_max == self.frozen.GAMMA_MAX[n], f"S^[{n}]: gamma_max {gamma_max}")
        m = lagrangian_m(n, d)
        if m is not None:
            require(recs[-1].wall_type == "boundary_lagrangian" and gamma_max == Fraction(1, m),
                    f"S^[{n}], d={d}: the Lagrangian boundary is not the last row at 1/{m}")
        require(not gammas or 0 <= gammas[0] and gammas[-1] <= gamma_max,
                f"S^[{n}], d={d}: slopes leave [0, {gamma_max}]")

    def _check_renderings(self, res: TableResult):
        label, rows = res.op.label, len(res.search.records)
        require(json.loads(res.json) == res.payload, f"{label}: json does not round-trip")
        lines = res.text.splitlines()
        require(lines[-1] == f"complete: {'yes' if res.search.complete else 'no'}", f"{label}: text footer")
        require(len(lines) == (rows + 3 if rows else 3), f"{label}: text has {len(lines)} lines for {rows} rows")
        require(len(res.csv.splitlines()) == rows + 1, f"{label}: csv row count")
        try:
            root = ET.fromstring(res.svg)
        except ET.ParseError as exc:
            raise CheckError(f"{label}: svg does not parse: {exc}") from exc
        require(root.tag == "{http://www.w3.org/2000/svg}svg", f"{label}: svg root is {root.tag}")
        for x0, i, y_sq in res.hits:
            curve = res.search.records[i].curve
            require(y_sq == curve.radius_sq - (x0 - curve.center_x) ** 2 > 0, f"{label}: path x = {x0}")


# ---------------------------------------------------------------------------
# wall_crossings


@dataclass(frozen=True)
class CrossingOp:
    table: int  # index into the tables built in set-up
    wall: int  # index of the record in its table


@dataclass
class CrossingResult:
    op: CrossingOp
    v: object
    rec: object
    decs: tuple = ()
    dims: list = field(default_factory=list)  # DimReport or error message per decomposition
    error: str = ""

    def digest(self) -> str:
        return digest(self.error, [d.parts for d in self.decs], self.dims)


class WallCrossings:
    """One op is one semicircular wall: decompositions(parts_max=4), then
    stratum_dims on each decomposition."""

    name = "wall_crossings"
    reference = CPU_REFERENCE

    def __init__(self):
        self.frozen = load_frozen()
        self.tables = []
        self._positive: dict = {}

    def plan(self, rng):
        return None

    def build(self, k3, plan):
        """Builds the wall tables and returns one op per semicircular wall."""
        walls, lattice = k3.walls, k3.lattice
        p = lattice.SurfaceParams(1)
        tables = []
        for n in CROSSING_HILBERT_NS:
            search = walls.hilbert_walls(n, None, p)
            tables.append((search.vector, search.records))
        for m in CROSSING_TRANSPORT_MS:
            base = walls.hilbert_walls(m * m + 1, None, p)
            records = walls.transport_walls(base.records, m, base.vector, p)
            tables.append((lattice.phi_pushforward(base.vector, m, p), tuple(records)))
        self.tables = tables
        ops = [
            CrossingOp(t, i)
            for t, (_, records) in enumerate(tables)
            for i, rec in enumerate(records)
            if rec.curve is not None and hasattr(rec.curve, "radius_sq")
        ]
        return ops

    def run(self, k3, op: CrossingOp) -> CrossingResult:
        crossing = k3.crossing
        v, records = self.tables[op.table]
        out = CrossingResult(op, v, records[op.wall])
        try:
            out.decs = crossing.decompositions(v, out.rec, parts_max=PARTS_MAX)
        except ValueError as exc:
            out.error = str(exc)
            raise DomainError(out) from exc
        for dec in out.decs:
            try:
                out.dims.append(crossing.stratum_dims(dec.parts, v))
            except ValueError as exc:
                out.dims.append(str(exc))
        return out

    def sizes(self, res: CrossingResult) -> dict:
        if res.error:
            return {"domain_errors": 1}
        return {
            "walls": 1,
            "walls_with_decomposition": int(bool(res.decs)),
            "decompositions": len(res.decs),
            "not_effective": sum(isinstance(x, str) for x in res.dims),
            "positive_classes": self._positive[res.op],
        }

    def check(self, k3, res: CrossingResult) -> None:
        if res.error:
            return
        v = res.v.as_tuple()
        curve = res.rec.curve
        label = f"v={v} wall {res.rec.a}"
        if res.op not in self._positive:  # positive classes once per wall, for the size record
            positive = {u.as_tuple() for u in k3.crossing.positive_classes(res.v, res.rec)}
            self._positive[res.op] = len(positive)
            for dec in res.decs:
                require(all(u.as_tuple() in positive for u in dec.parts), f"{label}: part not a positive class")
        x = curve.center_x
        lam_den = v[1] - v[0] * x
        for dec, dims in zip(res.decs, res.dims):
            parts = [u.as_tuple() for u in dec.parts]
            require(tuple(map(sum, zip(*parts))) == v, f"{label}: parts {parts} do not sum to v")
            lams = [(u[1] - u[0] * x) / lam_den for u in parts]
            require(sum(lams) == 1 and all(0 < lam < 1 for lam in lams), f"{label}: lambdas {lams}")
            self._check_dims(label, parts, dims)
        key = (v, res.rec.gamma)
        if key in self.frozen.DECOMPOSITIONS:
            got = [
                (tuple(u.as_tuple() for u in dec.parts),
                 None if isinstance(dims, str)
                 else (list(dims.part_moduli_dims), list(dims.fiber_dims), dims.stratum_dim))
                for dec, dims in zip(res.decs, res.dims)
                if len(dec.parts) <= 3
            ]
            require(got == self.frozen.DECOMPOSITIONS[key], f"{label}: decompositions differ from tests/frozen.py")

    @staticmethod
    def _check_dims(label, parts, dims):
        squares = [pairing(u, u, 1) for u in parts]
        fibers, partial = [], parts[0]
        for u in parts[1:]:
            fibers.append(pairing(partial, u, 1) - 1)
            partial = tuple(a + b for a, b in zip(partial, u))
        if isinstance(dims, str):
            require(min(fibers) < 0 or min(squares) < -2 or any(
                _content(u) > 1 and pairing(_prim(u), _prim(u), 1) <= 0 for u in parts
            ), f"{label}: {parts} refused but effective: {dims}")
            return
        moduli = [sq + 2 for sq in squares]
        require(list(dims.part_moduli_dims) == moduli, f"{label}: moduli dims of {parts}")
        require(list(dims.fiber_dims) == fibers, f"{label}: fiber dims of {parts}")
        require(dims.stratum_dim == sum(moduli) + sum(fibers), f"{label}: stratum dim of {parts}")


def _content(u) -> int:
    return math.gcd(math.gcd(abs(u[0]), abs(u[1])), abs(u[2]))


def _prim(u):
    g = _content(u)
    return tuple(x // g for x in u)


# ---------------------------------------------------------------------------
# cli_goldens


@dataclass(frozen=True)
class CliOp:
    golden: str
    argv: tuple


@dataclass
class CliResult:
    op: CliOp
    code: int
    stdout: bytes
    stderr: bytes

    def digest(self) -> str:
        return digest(self.code, self.stdout, self.stderr)


class CliGoldens:
    """One op runs one golden command as `python -m k3walls.cli`."""

    name = "cli_goldens"
    reference = SPAWN_REFERENCE

    def __init__(self):
        self.expected: dict[str, bytes] = {}

    def plan(self, rng):
        return golden_commands()

    def build(self, k3, commands):
        self.expected = {name: (GOLDEN / name).read_bytes() for name in commands}
        return [CliOp(name, tuple(argv)) for name, argv in sorted(commands.items())]

    def run(self, k3, op: CliOp) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "k3walls.cli", *op.argv],
            cwd=ROOT, env=child_env(), capture_output=True,
        )
        out = CliResult(op, proc.returncode, proc.stdout, proc.stderr)
        if proc.returncode == 2:
            raise DomainError(out)
        if proc.returncode != 0:
            raise RuntimeError(f"{op.argv} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        return out

    def sizes(self, res: CliResult) -> dict:
        return {"commands": 1, "output_bytes": len(res.stdout)}

    def check(self, k3, res: CliResult) -> None:
        name = res.op.golden
        require(res.code == 0, f"{name}: exit code {res.code}")
        require(res.stderr == b"", f"{name}: stderr {res.stderr[:200]!r}")
        require(res.stdout == self.expected[name], f"{name}: stdout differs from tests/golden/{name}")


WORKLOADS = {w.name: w for w in (WallTables, WallCrossings, CliGoldens)}


def run_main_in_process(k3, argv) -> tuple[int, str, str]:
    """`k3walls.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = k3.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()
