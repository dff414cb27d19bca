"""Renderer oracles: wall records in json, figure geometry in svg and the
layout of the text tables, each against a formula of its own.

- render_json is compared with json.dumps(payload, indent=2) on payloads
  whose walls are records of record_json's shape, and on records one
  change away from it (a key missing, added or moved, a leaf of another
  type), which must give the json.dumps bytes or the TypeError that a
  non-payload value raises.
- walls_payload's wall records are compared with dicts built from each
  record's fields, numerators and denominators, key order included, over
  the Hilbert, transported and candidate tables of a range of inputs,
  and render_json writes each of them from its template, not through the
  generic writer.
- Each figure is parsed, and its drawn walls, their coordinates and the
  legend are recomputed from the payload's exact rationals and the float
  formulas of the canvas.
- The csv renderers are compared with csv.writer on the rows they build,
  and report._csv on generated rows.
- report._table is checked for column positions, widths and trailing
  whitespace on generated cells.
- A hand-built payload with a vertical wall of no slope gets the plain
  legend label, and the renderers reject a foreign curve and an svg table.
"""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from k3walls import report
from k3walls.charge import Semicircle, VerticalLine
from k3walls.cli import main
from k3walls.lattice import SurfaceParams
from k3walls.svgfig import render_figure
from k3walls.walls import candidate_walls, hilbert_walls, transport_search

# ---------------------------------------------------------------------------
# render_json on wall records against json.dumps(indent=2)

_ints = st.integers() | st.integers(min_value=2**63) | st.integers(max_value=-(2**63))
_rationals = st.builds(lambda num, den: {"num": num, "den": den}, _ints, _ints)
_curves = (
    st.none()
    | st.builds(lambda x0: {"kind": "vertical_line", "x0": x0}, _rationals)
    | st.builds(lambda c, r: {"kind": "semicircle", "center": c, "radius_sq": r}, _rationals, _rationals)
)
_types = st.sampled_from(["divisorial", "flopping", "fake", "candidate"]) | st.text(max_size=4)
_records = st.builds(
    lambda gamma, a, a_sq, pairing, curve, wall_type: {
        "gamma": gamma, "a": a, "a_sq": a_sq, "pairing": pairing, "curve": curve, "type": wall_type,
    },
    st.none() | _rationals,
    st.lists(_ints, min_size=3, max_size=3),
    _ints,
    _ints,
    _curves,
    _types,
)
_odd_leaves = st.floats(allow_nan=False) | st.booleans() | st.none() | st.text(max_size=2) | st.just([])


def _leaf_paths(value, path=()):
    """The paths to every leaf (a non-dict, non-list value, or an empty one)."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    paths = [p for key, item in items for p in _leaf_paths(item, (*path, key))]
    return paths or [path]


def _dicts(value, path=()):
    """The paths to every dict inside value, value itself included."""
    if type(value) is dict:
        return [path, *(p for key, item in value.items() for p in _dicts(item, (*path, key)))]
    if type(value) is list:
        return [p for i, item in enumerate(value) for p in _dicts(item, (*path, i))]
    return []


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def _near_records(draw):
    """A wall record, or one changed in one place: a dict with a key
    dropped, added or moved last, or a leaf of another type."""
    record = draw(_records)
    change = draw(st.sampled_from(["none", "drop", "extra", "move", "leaf"]))
    if change == "leaf":
        *parent, key = draw(st.sampled_from(_leaf_paths(record)))
        _at(record, parent)[key] = draw(_odd_leaves)
    elif change != "none":
        target = _at(record, draw(st.sampled_from(_dicts(record))))
        key = draw(st.sampled_from(sorted(target)))
        if change == "drop":
            del target[key]
        elif change == "extra":
            target[draw(st.sampled_from(["extra", "kind", "num"]))] = draw(_ints)
        else:
            target[key] = target.pop(key)
    return record


_wall_lists = st.lists(_near_records(), max_size=5)
_vectors = st.lists(_ints, min_size=3, max_size=3)
_decompositions = st.lists(
    st.builds(
        lambda parts, dims, error: {"parts": parts, "error": error}
        if error
        else {"parts": parts, "moduli_dims": dims, "fiber_dims": dims, "stratum_dim": sum(dims)},
        st.lists(_vectors, min_size=2, max_size=3),
        st.lists(_ints, max_size=3),
        st.sampled_from(["", "not effective"]),
    ),
    max_size=3,
)
_payloads = st.one_of(
    st.builds(  # walls and candidate tables
        lambda d, v, ws, ok: {"surface": {"d": d}, "vector": v, "walls": ws, "complete": ok},
        _ints, _vectors, _wall_lists, st.booleans(),
    ),
    st.builds(  # transported tables
        lambda d, v, ws, ok, m, src: {
            "surface": {"d": d}, "vector": v, "walls": ws, "complete": ok, "m": m, "source_vector": src,
        },
        _ints, _vectors, _wall_lists, st.booleans(), _ints, _vectors,
    ),
    st.builds(  # decompose
        lambda d, v, wall, parts_max, dim, entries: {
            "surface": {"d": d}, "vector": v, "wall": wall, "parts_max": parts_max,
            "total_space_dim": dim, "decompositions": entries,
        },
        _ints, _vectors, _near_records(), _ints, _ints, _decompositions,
    ),
    st.builds(lambda key, value: {key: value}, st.sampled_from(["walls", "wall"]), _near_records() | _wall_lists),
)


def _holds_float(value) -> bool:
    if type(value) is dict:
        return any(_holds_float(item) for item in value.values())
    if type(value) is list:
        return any(_holds_float(item) for item in value)
    return type(value) is float


_Q = {"num": 2, "den": 117}
_SEMICIRCLE = {"kind": "semicircle", "center": {"num": -117, "den": 2}, "radius_sq": {"num": 13213, "den": 4}}
_LINE = {"kind": "vertical_line", "x0": {"num": 0, "den": 1}}


def _wall(**changes):
    return {"gamma": _Q, "a": [0, 1, -117], "a_sq": 2, "pairing": 117, "curve": _SEMICIRCLE, "type": "flopping",
            **changes}


@settings(deadline=None)
@given(_payloads)
@example({"surface": {"d": 1}, "vector": [1, 0, -9], "walls": [], "complete": True})
@example({"walls": [_wall(), _wall(gamma=None, curve=_LINE), _wall(curve=None, type="fake")]})
@example({"walls": [_wall(a_sq=2**64 + 1, pairing=-(2**63) - 1, type="candidate")]})
@example({"wall": _wall(curve={"x0": _Q})})  # no kind
@example({"wall": _wall(curve={"kind": "vertical_line", "center": _Q})})  # the keys of another kind
@example({"wall": _wall(curve={"kind": "semicircle", "radius_sq": _Q, "center": _Q})})
@example({"walls": [_wall(gamma={"den": 117, "num": 2})]})
@example({"walls": [_wall(gamma={"num": 2, "den": 117, "extra": 0})]})
@example({"walls": [_wall(a=[0, 1])]})
@example({"walls": [_wall(a_sq=True, pairing=False)]})
@example({"walls": [_wall(gamma={"num": 0.5, "den": 1})]})
@example({"walls": [{**_wall(), "extra": 1}]})
@example({"walls": [{key: value for key, value in reversed(_wall().items())}]})
@example({"walls": [{key: value for key, value in _wall().items() if key != "a"}]})
@example({"walls": {"gamma": None}})
def test_render_json_wall_records_against_json_dumps(payload):
    if _holds_float(payload):
        with pytest.raises(TypeError):
            report.render_json(payload)
    else:
        assert report.render_json(payload) == json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# walls_payload's records against the WallRecord fields


def _searches():
    """(search, p) for the Hilbert tables of d <= 2, n <= 30 that the search
    answers, S^[m^2 + 1] moved through Phi_m for m = 2..5, and the
    candidate tables of (0, m, k), m = 2..5, k = -1, -2."""
    for d in (1, 2):
        p = SurfaceParams(d)
        for n in range(2, 31):
            try:
                yield hilbert_walls(n, None, p), p
            except ValueError:
                pass
    p = SurfaceParams(1)
    for m in range(2, 6):
        yield transport_search(hilbert_walls(m * m + 1, None, p), m, p), p
        for k in (-1, -2):
            yield candidate_walls((0, m, k), None, p), p


def _rational(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _expected_record(rec) -> dict:
    curve = rec.curve
    if isinstance(curve, Semicircle):
        curve = {"kind": "semicircle", "center": _rational(curve.center_x), "radius_sq": _rational(curve.radius_sq)}
    elif isinstance(curve, VerticalLine):
        curve = {"kind": "vertical_line", "x0": _rational(curve.x0)}
    else:
        assert curve is None
    return {
        "gamma": None if rec.gamma is None else _rational(rec.gamma),
        "a": [rec.a.r, rec.a.c, rec.a.s],
        "a_sq": rec.a_sq,
        "pairing": rec.pairing_va,
        "curve": curve,
        "type": rec.wall_type,
    }


def test_walls_payload_records_against_the_record_fields():
    kinds, tables = set(), 0
    for search, p in _searches():
        walls = report.walls_payload(search, p)["walls"]
        assert walls == [_expected_record(rec) for rec in search.records]
        for wall in walls:
            # json bytes follow the key order
            assert list(wall) == ["gamma", "a", "a_sq", "pairing", "curve", "type"]
            curve = wall["curve"]
            if curve is not None:
                kinds.add(curve["kind"])
                keys = ["kind", "x0"] if curve["kind"] == "vertical_line" else ["kind", "center", "radius_sq"]
                assert list(curve) == keys
                assert all(list(q) == ["num", "den"] for q in list(curve.values())[1:])
            if wall["gamma"] is not None:
                assert list(wall["gamma"]) == ["num", "den"]
        tables += 1
    assert kinds == {"vertical_line", "semicircle"}
    assert tables > 60


@pytest.mark.parametrize(
    "search, p",
    [
        (hilbert_walls(10), SurfaceParams(1)),
        (transport_search(hilbert_walls(50), 7), SurfaceParams(1)),
        (candidate_walls((0, 5, -1)), SurfaceParams(1)),
    ],
    ids=["hilbert", "transported", "candidate"],
)
def test_render_json_writes_every_record_from_its_template(monkeypatch, search, p):
    """Once the templates are made, render_json writes no wall record
    through the generic _json: it calls _json as often as on the payload
    without its walls, however many records the table has.  A record key
    list that drifted from record_json's would send every record to _json
    (the same bytes, but a slower writer)."""
    payload = report.walls_payload(search, p)
    report.render_json(payload)  # makes the templates
    calls = 0
    real = report._json

    def counted(value, newline):
        nonlocal calls
        calls += 1
        return real(value, newline)

    monkeypatch.setattr(report, "_json", counted)
    report.render_json(payload)
    with_walls, calls = calls, 0
    report.render_json({key: value for key, value in payload.items() if key != "walls"})
    assert len(payload["walls"]) > 10
    assert with_walls == calls


# ---------------------------------------------------------------------------
# figure geometry against the payload's exact rationals


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _q(rational) -> Fraction:
    return Fraction(rational["num"], rational["den"])


def _meets_window(curve, lo: Fraction, hi: Fraction) -> bool:
    """Does the curve meet the strip lo <= x <= hi?  For a semicircle,
    center + radius >= lo and center - radius <= hi, squared exactly."""
    if curve["kind"] == "vertical_line":
        return lo <= _q(curve["x0"]) <= hi
    center, radius_sq = _q(curve["center"]), _q(curve["radius_sq"])
    return (lo - center <= 0 or radius_sq >= (lo - center) ** 2) and (
        center - hi <= 0 or radius_sq >= (center - hi) ** 2
    )


def _float_extent(curve):
    if curve["kind"] == "vertical_line":
        x = curve["x0"]["num"] / curve["x0"]["den"]
        return x, x, 0.0
    center = curve["center"]["num"] / curve["center"]["den"]
    radius = math.sqrt(curve["radius_sq"]["num"] / curve["radius_sq"]["den"])
    return center - radius, center + radius, radius


def _label(wall) -> str:
    if wall["gamma"] is not None:
        return f"gamma = {_q(wall['gamma'])}"
    if wall["curve"]["kind"] == "semicircle":
        return f"r^2 = {_q(wall['curve']['radius_sq'])}"
    return "wall"


@pytest.mark.parametrize(
    "argv, y_marker, precision, xrange, yrange, clipped",
    [
        (["--n", "20"], Fraction(1), 6, None, None, False),
        (["--vector", "0,3,-1", "--ymin", "1/2"], Fraction(1, 2), 6, None, None, False),
        (["--n", "10"], Fraction(1), 3, (-6.0, 1.0), None, False),
        (["--n", "10"], Fraction(1), 6, (-1.2, 1.0), None, True),
        (["--n", "10", "--ymin", "7/8"], Fraction(7, 8), 6, None, None, False),  # a wall of radius 7/8 stays out
        # candidate tables, labelled by r^2; (0, 3, 1) is not a partner, so it needs no flag
        (["--vector", "0,2,-1", "--candidates"], Fraction(1), 6, None, None, False),
        (["--vector", "0,3,1", "--ymin", "3/2"], Fraction(3, 2), 4, None, None, False),
        (["--n", "10"], Fraction(1), 6, None, (0.5, 4.0), False),  # a y window that does not start at 0
    ],
    ids=["n20", "bm_ymin_half", "n10_precision3_window", "n10_clipped", "n10_radius_at_marker",
         "candidates_forced", "candidates_ymin_3_2", "n10_yrange"],
)
def test_figure_geometry_against_the_payload(argv, y_marker, precision, xrange, yrange, clipped):
    """The drawn walls are the walls above the marker that meet the x
    window, each at the coordinates of the canvas formulas, in payload
    order, with one legend entry each in its colour; the marker line sits
    at its height in the y window."""
    window = [] if xrange is None else [f"--xrange={xrange[0]},{xrange[1]}"]
    window += [] if yrange is None else [f"--yrange={yrange[0]},{yrange[1]}"]
    root = ET.fromstring(_run(["figure", *argv, *window, "--precision", str(precision)]))
    payload = json.loads(_run(["walls", *argv, "--format", "json"]))

    def fmt(value: float) -> str:
        return f"{value:.{precision}f}"

    above = [
        w for w in payload["walls"]
        if w["curve"] is not None
        and (w["curve"]["kind"] == "vertical_line" or _q(w["curve"]["radius_sq"]) > y_marker**2)
    ]
    extents = [_float_extent(w["curve"]) for w in above]
    if xrange is None:  # the fitted window: every wall and 0, padded by 5%
        xs = [0.0, *(x for lo, hi, _ in extents for x in (lo, hi))]
        pad = max(0.5, 0.05 * (max(xs) - min(xs)))
        xrange = (min(xs) - pad, max(xs) + pad)
    if yrange is None:  # the fitted window: from 0 to half above the highest wall, marker or 1
        yrange = (0.0, max([1.0, float(y_marker), *(peak for _, _, peak in extents)]) + 0.5)
    x0, x1 = xrange
    y0, y1 = yrange
    sx, sy = 560 / (x1 - x0), 402 / (y1 - y0)
    bottom, top = fmt(34 + (y1 - y0) * sy), fmt(34.0)

    drawn = [w for w in above if _meets_window(w["curve"], Fraction(x0), Fraction(x1))]
    expected = []
    for wall in drawn:
        lo, hi, radius = _float_extent(wall["curve"])
        if wall["curve"]["kind"] == "vertical_line":
            expected.append(("line", fmt(60 + (lo - x0) * sx), bottom, top))
        else:
            expected.append(("M", fmt(60 + (lo - x0) * sx), bottom, "A", fmt(radius * sx), fmt(radius * sy),
                             "0", "0", "1", fmt(60 + (hi - x0) * sx), bottom))

    ns = "{http://www.w3.org/2000/svg}"
    walls_drawn = [el for el in root if el.get("clip-path") == "url(#plot)"]
    found = []
    for el in walls_drawn:
        if el.tag == f"{ns}line":
            assert el.get("x1") == el.get("x2")
            found.append(("line", el.get("x1"), el.get("y1"), el.get("y2")))
        else:
            assert el.tag == f"{ns}path"
            found.append(tuple(el.get("d").split()))
    assert found == expected
    assert 0 < len(drawn) and (len(drawn) < len(above)) == clipped

    legend_x = fmt(800 - 180 + 14 + 28)
    labels = [el.text for el in root.iter(f"{ns}text") if el.get("x") == legend_x]
    assert labels == [_label(w) for w in drawn]
    swatches = [el for el in root.iter(f"{ns}line") if el.get("stroke-width") == "2"]
    assert [el.get("stroke") for el in swatches] == [el.get("stroke") for el in walls_drawn]
    # swatch i sits at y = 44 + 18i, its label 4 lower
    assert [(el.get("y1"), el.get("y2")) for el in swatches] == [(fmt(44 + 18 * i),) * 2 for i in range(len(drawn))]
    label_ys = [el.get("y") for el in root.iter(f"{ns}text") if el.get("x") == legend_x]
    assert label_ys == [fmt(48 + 18 * i) for i in range(len(drawn))]

    marker_y = fmt(34 + (y1 - float(y_marker)) * sy)
    markers = [(el.get("y1"), el.get("y2")) for el in root.iter(f"{ns}line") if el.get("stroke-dasharray") == "6,4"]
    assert markers == ([(marker_y, marker_y)] if y0 < y_marker < y1 else [])


def test_figure_legend_at_precision_zero():
    """The library takes precision 0, which the CLI does not: every legend
    y is then a bare integer."""
    payload = json.loads(_run(["walls", "--n", "10", "--format", "json"]))
    root = ET.fromstring(render_figure(payload, precision=0))
    ns = "{http://www.w3.org/2000/svg}"
    swatches = [(el.get("y1"), el.get("y2")) for el in root.iter(f"{ns}line") if el.get("stroke-width") == "2"]
    assert len(swatches) > 5
    assert swatches == [(f"{44 + 18 * i:.0f}",) * 2 for i in range(len(swatches))]
    label_ys = [el.get("y") for el in root.iter(f"{ns}text") if el.get("x") == f"{800 - 180 + 14 + 28:.0f}"]
    assert label_ys == [f"{48 + 18 * i:.0f}" for i in range(len(swatches))]


def test_figure_labels_a_vertical_wall_without_slope():
    payload = {"surface": {"d": 1}, "vector": [0, 2, -1], "walls": [_wall(gamma=None, curve=_LINE)]}
    root = ET.fromstring(render_figure(payload))
    legend_x = f"{800 - 180 + 14 + 28:.6f}"
    labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text") if el.get("x") == legend_x]
    assert labels == ["wall"]


def test_curve_json_rejects_a_foreign_curve():
    with pytest.raises(TypeError, match="unknown curve"):
        report.curve_json(object())


def test_render_rejects_svg_for_a_table():
    payload = {"surface": {"d": 1}, "vector": [1, 0, -1], "walls": [], "complete": True}
    with pytest.raises(ValueError, match="format 'svg' is not valid for walls output"):
        report.render("walls", payload, "svg")


# ---------------------------------------------------------------------------
# csv renderers against csv.writer


def _writer_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_csv_cells = st.text(st.sampled_from(',"\n\r a1/-'), max_size=4) | st.integers() | st.none()


@given(st.sampled_from([6, 11]).flatmap(lambda width: st.lists(st.tuples(*[_csv_cells] * width), min_size=1)))
@example([("gamma", "a_r", "a_c", "a_s", "y_sq", "y"), ("", "", "", "", "", "")])
@example([("a,b", 'say "x"', "two\nlines", "cr\rlf", "", None)])
@example([("None", 1, -2, "", "", "x"), ("1/2", 0, 0, "", "", "y")])
def test_csv_writes_what_csv_writer_writes(rows):
    """Rows of the widths the renderers emit, 11 (walls) and 6 (path and
    decompose), against the running interpreter's csv module, whose
    quoting of a lone carriage return differs between Python versions."""
    assert report._csv(rows) == _writer_csv(rows)


_HOSTILE = ("a,b", 'say "x"', "two\nlines", "cr\rlf", "None")


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("walls", ["walls", "--n", "10"]),
        ("walls", ["walls", "--vector", "0,3,-1"]),
        ("walls", ["transport", "--n", "10", "--m", "3"]),
        ("walls", ["walls", "--vector", "0,2,-1", "--candidates"]),
        ("path", ["path", "--n", "10", "--x0", "-3"]),
        ("path", ["path", "--vector", "0,3,-1", "--x0", "-1/6"]),
        ("decompose", ["decompose", "--n", "10", "--gamma", "2/11"]),
        ("decompose", ["decompose", "--n", "10", "--gamma", "4/13"]),
        ("decompose", ["decompose", "--vector", "0,3,-1", "--gamma", "6/19"]),
    ],
    ids=["walls_n10", "walls_bm", "transport_n10_m3", "candidates", "path_n10", "path_bm",
         "decompose_n10_2_11", "decompose_n10_4_13", "decompose_bm_6_19"],
)
def test_csv_renderers_write_what_csv_writer_writes(monkeypatch, kind, argv):
    """Each csv renderer writes what csv.writer writes for the rows it
    builds: on the payloads of the golden vectors, and on copies whose
    string cells (wall types, slopes, errors) hold a comma, a quote, a
    newline, a carriage return, an empty string or the text None."""
    rows_seen = []
    csv_rows = report._csv
    monkeypatch.setattr(report, "_csv", lambda rows: rows_seen.append(rows) or csv_rows(rows))
    payload = json.loads(_run([*argv, "--format", "json"]))
    items = payload[{"walls": "walls", "path": "hits", "decompose": "decompositions"}[kind]]
    assert items
    assert report.render(kind, payload, "csv") == _writer_csv(rows_seen[-1])
    for cell in (*_HOSTILE, ""):
        for item in items:
            if kind == "walls":
                item["type"] = cell
            elif kind == "path":
                item["gamma"] = {"num": cell, "den": 1}
            elif cell:  # an empty error reads as no error
                item["error"] = cell
        assert report.render(kind, payload, "csv") == _writer_csv(rows_seen[-1])
    assert len(rows_seen) == 2 + len(_HOSTILE)


# ---------------------------------------------------------------------------
# text table layout

_cells = st.text(st.sampled_from("ab -é€/^"), max_size=6).map(str.rstrip)


@st.composite
def _tables(draw):
    columns = draw(st.integers(1, 5))
    header = tuple(draw(st.lists(_cells, min_size=columns, max_size=columns)))
    rows = draw(st.lists(st.tuples(*[_cells] * columns), max_size=6))
    return header, rows


@given(_tables())
@example((("gamma", "a"), []))
@example((("x", "", "y"), [("", "", ""), ("long cell", "", "z")]))
def test_table_layout(table):
    header, rows = table
    text = report._table(rows, header)
    lines = text.split("\n")
    assert len(lines) == 1 + len(rows)
    widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]
    starts = [sum(widths[:i]) + 2 * i for i in range(len(widths))]
    for line, row in zip(lines, [header, *rows]):
        assert line == line.rstrip()
        padded = line.ljust(starts[-1] + widths[-1])
        for start, width, cell in zip(starts, widths, row):
            assert padded[start:start + width] == cell.ljust(width)
        for start in starts[1:]:
            assert padded[start - 2:start] == "  "
        assert len(padded) == starts[-1] + widths[-1]
