"""Payloads and renderers for the command line interface.

Every command first builds a plain-JSON payload whose values are
str-keyed dicts, lists, ints, strs, bools and None; rationals are
{"num": n, "den": d} in lowest terms with positive denominator.  The
text and csv renderers are pure functions of that payload, so
re-rendering a parsed JSON file reproduces the direct text output byte
for byte, and render_json writes the bytes of json.dumps(payload,
indent=2) plus a newline.  The renderers read the {"num", "den"} pairs as
they are: _ratio_str writes them relying on them being in lowest terms,
and a float is num / den, which Python rounds correctly, as
float(Fraction) does.
Floats appear only where a display column asks for them (the y column
of path output) and in SVG geometry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from io import StringIO

from .charge import Semicircle, VerticalLine
from .lattice import MukaiVector, SurfaceParams
from .walls import WallRecord, WallSearch, hilbert_n_of

FORMATS = ("text", "csv", "json")


# ---------------------------------------------------------------------------
# payload pieces


def frac_json(q: Fraction) -> dict:
    """q (a Fraction or an int) as a payload rational."""
    num, den = q.as_integer_ratio()
    return {"num": num, "den": den}


def _ratio_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def frac_str(q) -> str:
    """q written "n" or "n/d": a payload rational, read as it is (payload
    rationals are in lowest terms), or anything Fraction accepts."""
    if isinstance(q, dict):
        return _ratio_str(q["num"], q["den"])
    q = Fraction(q)
    return _ratio_str(q.numerator, q.denominator)


def curve_json(curve) -> dict | None:
    if curve is None:
        return None
    if isinstance(curve, Semicircle):
        e_num, e_den = curve.center_x.as_integer_ratio()
        r_num, r_den = curve.radius_sq.as_integer_ratio()
        return {
            "kind": "semicircle",
            "center": {"num": e_num, "den": e_den},
            "radius_sq": {"num": r_num, "den": r_den},
        }
    if isinstance(curve, VerticalLine):
        num, den = curve.x0.as_integer_ratio()
        return {"kind": "vertical_line", "x0": {"num": num, "den": den}}
    raise TypeError(f"unknown curve {curve!r}")


def record_json(rec: WallRecord) -> dict:
    gamma, a = rec.gamma, rec.a
    if gamma is not None:
        num, den = gamma.as_integer_ratio()
        gamma = {"num": num, "den": den}
    return {
        "gamma": gamma,
        "a": [a.r, a.c, a.s],
        "a_sq": rec.a_sq,
        "pairing": rec.pairing_va,
        "curve": curve_json(rec.curve),
        "type": rec.wall_type,
    }


def walls_payload(search: WallSearch, p: SurfaceParams) -> dict:
    payload = {
        "surface": {"d": p.d},
        "vector": list(search.vector.as_tuple()),
        "walls": [record_json(rec) for rec in search.records],
        "complete": search.complete,
    }
    if search.mode == "transport":
        payload["m"] = search.m
        payload["source_vector"] = list(search.source_vector.as_tuple())
    return payload


def path_payload(
    search: WallSearch,
    x0: Fraction,
    hits: list[tuple[WallRecord, Fraction]],
    on_wall: list[Fraction],
    y_min: Fraction,
    p: SurfaceParams,
    precision: int,
) -> dict:
    return {
        "surface": {"d": p.d},
        "vector": list(search.vector.as_tuple()),
        "x0": frac_json(Fraction(x0)),
        "y_min": frac_json(Fraction(y_min)),
        "precision": precision,
        "hits": [
            {
                "gamma": None if rec.gamma is None else frac_json(rec.gamma),
                "a": list(rec.a.as_tuple()),
                "y_sq": frac_json(y_sq),
            }
            for rec, y_sq in hits
        ],
        "on_wall": [frac_json(x) for x in on_wall],
    }


def decompose_payload(
    vector: MukaiVector,
    rec: WallRecord,
    entries: list[dict],
    parts_max: int,
    total_space_dim: int,
    p: SurfaceParams,
) -> dict:
    return {
        "surface": {"d": p.d},
        "vector": list(vector.as_tuple()),
        "wall": record_json(rec),
        "parts_max": parts_max,
        "total_space_dim": total_space_dim,
        "decompositions": entries,
    }


# ---------------------------------------------------------------------------
# equation strings


def _expanded_circle(center, radius_sq) -> str:
    """x^2 + Bx + y^2 = C with B = -2*center, C = radius_sq - center^2."""
    en, ed = center["num"], center["den"]
    rn, rd = radius_sq["num"], radius_sq["den"]
    g = math.gcd(2 * en, ed)
    bn, bd = -2 * en // g, ed // g
    cn, cd = rn * ed * ed - en * en * rd, rd * ed * ed
    g = math.gcd(cn, cd)
    rhs = cn // g if cd == g else f"{cn // g}/{cd // g}"
    if bn == 0:
        return f"x^2 + y^2 = {rhs}"
    sign, bn = ("+", bn) if bn > 0 else ("-", -bn)
    if bd == 1:
        return f"x^2 {sign} {bn}x + y^2 = {rhs}"
    return f"x^2 {sign} {bn}/{bd} x + y^2 = {rhs}"


def _centered_circle(center, radius_sq) -> str:
    en, ed = center["num"], center["den"]
    if en == 0:
        lhs = "x^2 + y^2"
    else:
        lhs = f"(x {'-' if en > 0 else '+'} {_ratio_str(abs(en), ed)})^2 + y^2"
    return f"{lhs} = {_ratio_str(radius_sq['num'], radius_sq['den'])}"


def curve_equation(curve: dict | None, vector: list) -> str:
    """Render a curve the way the tables write it: expanded circles for
    positive-rank base vectors, centered ones for torsion."""
    if curve is None:
        return "-"
    if curve["kind"] == "vertical_line":
        x0 = curve["x0"]
        return f"x = {_ratio_str(x0['num'], x0['den'])}"
    if vector[0] != 0:
        return _expanded_circle(curve["center"], curve["radius_sq"])
    return _centered_circle(curve["center"], curve["radius_sq"])


def vector_str(components: list) -> str:
    return f"({components[0]}, {components[1]}, {components[2]})"


def _walls_title(payload: dict) -> str:
    vec = vector_str(payload["vector"])
    d = payload["surface"]["d"]
    if "m" in payload:
        src = vector_str(payload["source_vector"])
        return f"Walls transported by Phi_{payload['m']}: v = {src} -> v' = {vec} (d = {d})"
    n = hilbert_n_of(MukaiVector(*payload["vector"]))
    if n is not None:
        return f"Walls for v = {vec} on S^[{n}] (d = {d})"
    return f"Candidate walls for v = {vec} (d = {d})"


def _table(rows: list[tuple], header: tuple) -> str:
    """Columns two spaces apart, each as wide as its longest cell: one
    format of left-aligned fields per line."""
    fields = "  ".join([f"%-{max(map(len, column))}s" for column in zip(header, *rows)])
    return "\n".join([(fields % row).rstrip() for row in (header, *rows)])


def _gamma_str(gamma: dict | None) -> str:
    return "-" if gamma is None else _ratio_str(gamma["num"], gamma["den"])


# ---------------------------------------------------------------------------
# rows shared by the text and csv renderers: a vector cell stays a list of
# components, which text writes as (r, c, s) and csv as three columns


def _path_rows(payload: dict) -> list[tuple]:
    """(gamma, a, y^2, y) per crossing, y to the payload's precision."""
    digits = payload["precision"]
    return [
        (
            _gamma_str(hit["gamma"]),
            hit["a"],
            _ratio_str(hit["y_sq"]["num"], hit["y_sq"]["den"]),
            f"{math.sqrt(hit['y_sq']['num'] / hit['y_sq']['den']):.{digits}f}",
        )
        for hit in payload["hits"]
    ]


def _decomposition_rows(payload: dict) -> list[tuple]:
    """(index, parts written u1 + u2 + ..., entry) per decomposition."""
    return [
        (str(i), " + ".join(vector_str(u) for u in entry["parts"]), entry)
        for i, entry in enumerate(payload["decompositions"], start=1)
    ]


# ---------------------------------------------------------------------------
# text renderers (pure functions of the payload)


def render_walls_text(payload: dict) -> str:
    header = ("gamma", "a", "a^2", "(v,a)", "wall", "type")
    vector = payload["vector"]
    rows = [
        (
            _gamma_str(w["gamma"]),
            vector_str(w["a"]),
            str(w["a_sq"]),
            str(w["pairing"]),
            curve_equation(w["curve"], vector),
            w["type"],
        )
        for w in payload["walls"]
    ]
    body = _table(rows, header) if rows else "(no walls found)"
    return (
        f"{_walls_title(payload)}\n"
        f"{body}\n"
        f"complete: {'yes' if payload['complete'] else 'no'}\n"
    )


def render_path_text(payload: dict) -> str:
    vec = vector_str(payload["vector"])
    d = payload["surface"]["d"]
    x0 = frac_str(payload["x0"])
    y_min = frac_str(payload["y_min"])
    lines = [f"Crossings of the path x = {x0} for v = {vec} (d = {d}), y > {y_min}"]
    rows = [(gamma, vector_str(a), y_sq, y) for gamma, a, y_sq, y in _path_rows(payload)]
    lines.append(_table(rows, ("gamma", "a", "y^2", "y")) if rows else "(no crossings)")
    for x in payload["on_wall"]:
        lines.append(f"note: the path lies on the vertical wall x = {frac_str(x)}")
    return "\n".join(lines) + "\n"


def render_decompose_text(payload: dict) -> str:
    vec = vector_str(payload["vector"])
    d = payload["surface"]["d"]
    wall = payload["wall"]
    lines = [
        f"Wall gamma = {_gamma_str(wall['gamma'])} for v = {vec} (d = {d}): "
        f"a = {vector_str(wall['a'])}, a^2 = {wall['a_sq']}, (v,a) = {wall['pairing']}, type {wall['type']}",
        f"curve: {curve_equation(wall['curve'], payload['vector'])}",
        f"total space dimension: {payload['total_space_dim']}",
    ]
    for i, parts, entry in _decomposition_rows(payload):
        lines.append(f"decomposition {i}: {parts}")
        if entry.get("error"):
            lines.append(f"  not effective: {entry['error']}")
        else:
            lines.append(
                f"  moduli dims: {entry['moduli_dims']}; fiber dims: {entry['fiber_dims']}; "
                f"stratum dim: {entry['stratum_dim']}"
            )
    if not payload["decompositions"]:
        lines.append(f"no decompositions with at most {payload['parts_max']} parts")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# csv renderers


def _csv(rows: list[tuple]) -> str:
    """rows, each as wide as the first, as csv.writer(lineterminator="\n")
    writes them.  One "%s,...,%s" template writes each line; csv writes the
    same bytes unless a cell holds a comma, a newline, a quote or a
    carriage return, or is None (csv writes ""), so the whole text is
    checked once for those, and csv writes the rows when any is there."""
    width = len(rows[0])
    line = ",".join(["%s"] * width)
    try:
        text = "\n".join([line % row for row in rows]) + "\n"
    except TypeError:  # a row of another width: the counts below fail
        text = ""
    if (
        text.count(",") == (width - 1) * len(rows)
        and text.count("\n") == len(rows)
        and '"' not in text
        and "\r" not in text
        and "None" not in text
    ):
        return text
    import csv

    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _curve_cells(curve: dict | None) -> tuple[str, ...]:
    """curve_kind, center_x, radius_sq, x0 columns."""
    if curve is None:
        return ("", "", "", "")
    if curve["kind"] == "semicircle":
        center, radius_sq = curve["center"], curve["radius_sq"]
        return (
            curve["kind"],
            _ratio_str(center["num"], center["den"]),
            _ratio_str(radius_sq["num"], radius_sq["den"]),
            "",
        )
    x0 = curve["x0"]
    return (curve["kind"], "", "", _ratio_str(x0["num"], x0["den"]))


def render_walls_csv(payload: dict) -> str:
    rows = [("gamma", "a_r", "a_c", "a_s", "a_sq", "pairing", "curve_kind", "center_x", "radius_sq", "x0", "type")]
    for w in payload["walls"]:
        rows.append((_gamma_str(w["gamma"]), *w["a"], w["a_sq"], w["pairing"], *_curve_cells(w["curve"]), w["type"]))
    return _csv(rows)


def render_path_csv(payload: dict) -> str:
    rows = [("gamma", "a_r", "a_c", "a_s", "y_sq", "y")]
    for gamma, a, y_sq, y in _path_rows(payload):
        rows.append((gamma, *map(str, a), y_sq, y))
    return _csv(rows)


def render_decompose_csv(payload: dict) -> str:
    rows = [("decomposition", "parts", "moduli_dims", "fiber_dims", "stratum_dim", "error")]
    for i, parts, entry in _decomposition_rows(payload):
        if entry.get("error"):
            rows.append((i, parts, "", "", "", entry["error"]))
        else:
            moduli = " ".join(map(str, entry["moduli_dims"]))
            fibers = " ".join(map(str, entry["fiber_dims"]))
            rows.append((i, parts, moduli, fibers, str(entry["stratum_dim"]), ""))
    return _csv(rows)


# ---------------------------------------------------------------------------
# dispatch


def _json_str(text: str) -> str:
    """text as a JSON string literal, as json writes it.  The first call
    imports json's C encoder and rebinds this name to it, so a command that
    writes no JSON never loads json, and later calls go straight to C."""
    global _json_str
    from json.encoder import encode_basestring_ascii as _json_str

    return _json_str(text)


def _json(value, newline: str) -> str:
    """value as json.dumps(value, indent=2) writes it, nested at the
    indent that newline (a newline and spaces) carries.  Only the payload
    types themselves are written; anything else raises TypeError."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_json_str(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not a payload value")


# A wall record of record_json's shape is written from one template per
# indent and shape.  _json makes each template from a record of that shape
# whose leaves are holes, so the two writers cannot disagree; a value of
# any other shape goes to _json whole.
_RATIONAL = ("num", "den")
_RECORD = ("gamma", "a", "a_sq", "pairing", "curve", "type")
_CURVES = {"vertical_line": ("kind", "x0"), "semicircle": ("kind", "center", "radius_sq")}


@cache
def _record_template(newline: str, has_gamma: bool, kind: str | None) -> str:
    q = dict.fromkeys(_RATIONAL, "\0")
    curve = None if kind is None else {**dict.fromkeys(_CURVES[kind], q), "kind": kind}
    holes = (q if has_gamma else None, ["\0"] * 3, "\0", "\0", curve, "\0")
    return _json(dict(zip(_RECORD, holes)), newline).replace(_json_str("\0"), "%s")


def _record_json(wall, newline: str) -> str:
    """wall as _json(wall, newline) writes it."""
    if type(wall) is not dict or tuple(wall) != _RECORD:
        return _json(wall, newline)
    gamma, a, a_sq, pairing, curve, wall_type = wall.values()
    if type(a) is not list or len(a) != 3 or type(wall_type) is not str:
        return _json(wall, newline)
    if gamma is None:
        ints = [*a, a_sq, pairing]
    elif type(gamma) is dict and tuple(gamma) == _RATIONAL:
        ints = [*gamma.values(), *a, a_sq, pairing]
    else:
        return _json(wall, newline)
    if curve is None:
        kind = None
    elif type(curve) is dict and type(kind := curve.get("kind")) is str and tuple(curve) == _CURVES.get(kind):
        for q in tuple(curve.values())[1:]:
            if type(q) is not dict or tuple(q) != _RATIONAL:
                return _json(wall, newline)
            ints += q.values()
    else:
        return _json(wall, newline)
    for leaf in ints:
        if type(leaf) is not int:
            return _json(wall, newline)
    return _record_template(newline, gamma is not None, kind) % (*ints, _json_str(wall_type))


def render_json(payload: dict) -> str:
    """json.dumps(payload, indent=2) + "\n", written without the pure-Python
    encoder that json falls back to when given an indent."""
    if type(payload) is not dict or not payload:
        return _json(payload, "\n") + "\n"
    items = []
    for key, value in payload.items():
        if key == "walls" and type(value) is list and value:
            text = "[\n    " + ",\n    ".join([_record_json(w, "\n    ") for w in value]) + "\n  ]"
        else:
            text = _json(value, "\n  ")
        items.append(_json_str(key) + ": " + text)
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


_TEXT = {"walls": render_walls_text, "path": render_path_text, "decompose": render_decompose_text}
_CSV = {"walls": render_walls_csv, "path": render_path_csv, "decompose": render_decompose_csv}


def render(kind: str, payload: dict, fmt: str) -> str:
    """kind is "walls", "path" or "decompose" (transport renders as walls)."""
    if fmt == "text":
        return _TEXT[kind](payload)
    if fmt == "csv":
        return _CSV[kind](payload)
    if fmt == "json":
        return render_json(payload)
    raise ValueError(f"format {fmt!r} is not valid for {kind} output")
