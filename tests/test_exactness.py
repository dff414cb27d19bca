"""Exactness guard: no float conversion or float square root in the code
that decides walls, crossings and stability.

The wall search (walls.py) and the wall-crossing decompositions
(crossing.py) stay in integers and Fractions throughout.  In charge.py a
float appears only in the display members listed in CHARGE_DISPLAY.
"""

import ast
from pathlib import Path

import k3walls
from k3walls import charge

SRC = Path(k3walls.__file__).parent
CHARGE_DISPLAY = {"StabilityPoint.y", "ComplexValue.im", "ComplexValue.re_float", "phase"}


def _float_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every float(...), math.sqrt(...)
    or bare sqrt(...) call in source."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (
                (isinstance(func, ast.Name) and func.id in ("float", "sqrt"))
                or (isinstance(func, ast.Attribute) and func.attr == "sqrt"
                    and isinstance(func.value, ast.Name) and func.value.id == "math")
            ):
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_guard_sees_float_calls():
    source = (
        "import math\n"
        "from math import sqrt\n"
        "def f(x):\n    return float(x)\n"
        "class C:\n    def g(self):\n        return math.sqrt(2) + sqrt(3)\n"
        "def h(x):\n    return math.isqrt(x) + x.sqrt_free\n"
    )
    assert _float_calls(source) == [("f", 4), ("C.g", 7), ("C.g", 7)]


def test_wall_search_and_crossings_have_no_float_calls():
    for name in ("walls.py", "crossing.py"):
        assert _float_calls((SRC / name).read_text()) == [], name


def test_charge_floats_only_in_display_members():
    calls = _float_calls((SRC / "charge.py").read_text())
    assert [(scope, line) for scope, line in calls if scope not in CHARGE_DISPLAY] == []
    # every allow-listed member exists: a stale entry fails here
    for name in CHARGE_DISPLAY:
        target = charge
        for part in name.split("."):
            target = getattr(target, part)
