"""Exactness guard: no float conversion, float square root or float
constant in the code that decides walls, crossings and stability.

The wall search (walls.py), the wall-crossing decompositions
(crossing.py), the lattice (lattice.py) and the central charges, wall
loci and geometric checks (charge.py) stay in integers and Fractions
throughout, with no exempt member.
walls.py and charge.py build every rational of two ints through one
helper, charge._rational, and call Fraction with one argument at most.
The integer kernels of walls.py build no rational at all (neither a
Fraction nor a _rational), the renderers and helpers that read payload
rows neither a rational nor a frac_str, path_intersection one rational
(its hit), and no module calls json.dumps with an indent.
"""

import ast
from pathlib import Path

import k3walls

SRC = Path(k3walls.__file__).parent
DECISION_MODULES = ("walls.py", "crossing.py", "lattice.py", "charge.py")


def _nodes(source: str, matches) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every node in source for which
    matches(node) holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if matches(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _calls(source: str, matches) -> list[tuple[str, int]]:
    """_nodes restricted to the call nodes for which matches(call) holds."""
    return _nodes(source, lambda node: isinstance(node, ast.Call) and matches(node))


def _float_literals(source: str) -> list[tuple[str, int]]:
    return _nodes(source, lambda node: isinstance(node, ast.Constant) and type(node.value) is float)


def _is_float_call(call: ast.Call) -> bool:
    """float(...), math.sqrt(...) or bare sqrt(...)."""
    func = call.func
    return (isinstance(func, ast.Name) and func.id in ("float", "sqrt")) or (
        isinstance(func, ast.Attribute) and func.attr == "sqrt"
        and isinstance(func.value, ast.Name) and func.value.id == "math"
    )


def _is_fraction_call(call: ast.Call) -> bool:
    """Fraction(...) or _rational(...): a call that builds a rational."""
    return isinstance(call.func, ast.Name) and call.func.id in ("Fraction", "_rational")


def _is_two_int_fraction_call(call: ast.Call) -> bool:
    """Fraction(a, b) or Fraction(*pair), which _rational builds instead."""
    return (
        isinstance(call.func, ast.Name) and call.func.id == "Fraction"
        and (len(call.args) > 1 or any(isinstance(arg, ast.Starred) for arg in call.args))
    )


def _is_indented_dumps(call: ast.Call) -> bool:
    """json.dumps(..., indent=...), which runs json's pure-Python encoder."""
    func = call.func
    return (
        isinstance(func, ast.Attribute) and func.attr == "dumps"
        and any(kw.arg == "indent" for kw in call.keywords)
    )


def test_guard_sees_float_calls():
    source = (
        "import math\n"
        "from math import sqrt\n"
        "def f(x):\n    return float(x)\n"
        "class C:\n    def g(self):\n        return math.sqrt(2) + sqrt(3)\n"
        "def h(x):\n    return math.isqrt(x) + x.sqrt_free\n"
    )
    assert _calls(source, _is_float_call) == [("f", 4), ("C.g", 7), ("C.g", 7)]


def test_wall_search_and_crossings_have_no_float_calls():
    for name in DECISION_MODULES:
        assert _calls((SRC / name).read_text(), _is_float_call) == [], name


def test_guard_sees_float_literals():
    source = (
        "def f(y):\n    return y > 1.0\n"
        "class C:\n    def g(self):\n        return -0.5, 1e3\n"
        "def h(x):\n    return x > 1, 'y > 1.0', True\n"
    )
    assert _float_literals(source) == [("f", 2), ("C.g", 5), ("C.g", 5)]


def test_decision_modules_have_no_float_literals():
    for name in DECISION_MODULES:
        assert _float_literals((SRC / name).read_text()) == [], name


# the integer kernels of a wall table build no Fraction, and json output
# does not go through the pure-Python encoder
INTEGER_KERNELS = {"_slope_classes", "_pell_unit", "_cone_rank", "_candidate_buckets"}


def test_guard_sees_fraction_and_indented_dumps_calls():
    source = (
        "import json\n"
        "from fractions import Fraction\n"
        "def _slope_classes(n):\n    return [Fraction(1, n)]\n"
        "def _candidate_buckets(w):\n    return {Fraction(w): json.dumps(w, indent=2)}\n"
        "def other(x):\n    return Fraction(x), json.dumps(x), json.dumps(x, sort_keys=True)\n"
        "def _pell_unit(d):\n    return _rational(d, 2), rational(d, 2)\n"
    )
    assert [c for c in _calls(source, _is_fraction_call) if c[0] in INTEGER_KERNELS] == [
        ("_slope_classes", 4),
        ("_candidate_buckets", 6),
        ("_pell_unit", 10),
    ]
    assert _calls(source, _is_indented_dumps) == [("_candidate_buckets", 6)]


def test_integer_kernels_build_no_fraction():
    calls = _calls((SRC / "walls.py").read_text(), _is_fraction_call)
    assert [c for c in calls if c[0] in INTEGER_KERNELS] == []
    tree = ast.parse((SRC / "walls.py").read_text())
    assert INTEGER_KERNELS <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_guard_sees_two_int_fraction_calls():
    source = (
        "def f(a, b, pair):\n    return Fraction(a, b), Fraction(*pair)\n"
        "def g(x):\n    return Fraction(x), Fraction(), _rational(x, 2), fractions.Fraction(x, 2)\n"
    )
    assert _calls(source, _is_two_int_fraction_call) == [("f", 2), ("f", 2)]


def test_rationals_of_two_ints_go_through_one_helper():
    for name in ("walls.py", "charge.py"):
        assert _calls((SRC / name).read_text(), _is_two_int_fraction_call) == [], name


# the renderers and helpers that read payload rows take rationals as
# {"num", "den"} pairs, and path_intersection builds one rational: the y^2
# of a hit
ROW_HELPERS = {
    "report.py": {"render_walls_text", "render_walls_csv", "_curve_cells"},
    "svgfig.py": {"_legend_label", "_wall_extent"},
}


def _is_fraction_or_frac_str_call(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id in ("Fraction", "_rational", "frac_str")


def test_guard_sees_frac_str_calls():
    source = (
        "def render_walls_text(payload):\n    return [frac_str(w['gamma']) for w in payload]\n"
        "def _curve_cells(curve):\n    return [_ratio_str(curve['num'], curve['den'])]\n"
        "def _legend_label(row):\n    return _rational(row['num'], row['den'])\n"
    )
    assert _calls(source, _is_fraction_or_frac_str_call) == [("render_walls_text", 2), ("_legend_label", 6)]


def test_row_helpers_build_no_fraction():
    for name, helpers in ROW_HELPERS.items():
        source = (SRC / name).read_text()
        calls = _calls(source, _is_fraction_or_frac_str_call)
        assert [c for c in calls if c[0] in helpers] == [], name
        tree = ast.parse(source)
        assert helpers <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, name


def test_path_intersection_builds_one_fraction():
    calls = _calls((SRC / "charge.py").read_text(), _is_fraction_call)
    assert [scope for scope, _ in calls if scope == "path_intersection"] == ["path_intersection"]


def test_no_indented_json_dumps():
    for path in sorted(SRC.glob("*.py")):
        assert _calls(path.read_text(), _is_indented_dumps) == [], path.name
