"""The contract of the public value types, and what importing the CLI costs.

Every value type behaves like a frozen dataclass with the same fields:
same repr, equality by class and fields, the same hash, no assignment or
deletion, pickle and deepcopy round trips, keyword and default
construction.  The twin dataclasses are built here, so the contract does
not depend on how the package writes its classes.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from k3walls import (
    Autoequivalence,
    ComplexValue,
    Decomposition,
    DimReport,
    GeometricCheckResult,
    MovableCone,
    MukaiVector,
    SaturatedPlane,
    SearchBounds,
    Semicircle,
    StabilityPoint,
    SurfaceParams,
    VerticalLine,
    WallRecord,
    WallSearch,
)

SRC = Path(__file__).resolve().parents[1] / "src"

V = MukaiVector(1, 0, -9)
A = MukaiVector(1, -1, 2)
CURVE = Semicircle(Fraction(-5, 2), Fraction(25, 4))
RECORD = WallRecord(A, -2, 7, Fraction(2, 7), CURVE, "flopping")

# (class, field names in order, positional arguments of one instance,
#  positional arguments of a different instance)
CASES = [
    (SurfaceParams, ("d",), (2,), (3,)),
    (MukaiVector, ("r", "c", "s"), (1, 0, -9), (1, 0, -8)),
    (Autoequivalence, ("word",), ((("reflect_line", -3), ("twist", 3)),), ((("dual_shift", 0),),)),
    (StabilityPoint, ("x", "y_sq", "y_approx", "x_exact"), (Fraction(-1, 2), Fraction(3), None, True), (0, 1, None, False)),
    (ComplexValue, ("re", "im_coeff", "y_sq"), (Fraction(1), Fraction(-2, 3), Fraction(4)), (Fraction(1), Fraction(2, 3), Fraction(4))),
    (VerticalLine, ("x0",), (Fraction(1, 3),), (Fraction(-1, 3),)),
    (Semicircle, ("center_x", "radius_sq"), (Fraction(-5, 2), Fraction(25, 4)), (Fraction(-5, 2), Fraction(9, 4))),
    (GeometricCheckResult, ("status", "witness", "reason"), ("obstructed", MukaiVector(2, 1, 1), "why"), ("ok", None, "why")),
    (SaturatedPlane, ("b1", "b2"), (MukaiVector(1, 0, 0), MukaiVector(0, 1, 0)), (MukaiVector(1, 0, 0), MukaiVector(0, 0, 1))),
    (Decomposition, ("parts", "wall"), ((A, V - A), RECORD), ((V - A, A), RECORD)),
    (DimReport, ("part_moduli_dims", "fiber_dims", "stratum_dim", "total_space_dim"), ((0, 12), (7,), 19, 20), ((0, 12), (6,), 18, 20)),
    (WallRecord, ("a", "a_sq", "pairing_va", "gamma", "curve", "wall_type"), (A, -2, 7, Fraction(2, 7), CURVE, "flopping"), (A, -2, 7, Fraction(2, 7), None, "flopping")),
    (MovableCone, ("n", "gamma_min", "gamma_max"), (10, Fraction(0), Fraction(1, 3)), (10, Fraction(0), Fraction(2, 7))),
    (SearchBounds, ("r_max", "y_min"), (40, Fraction(1, 2)), (None, Fraction(1))),
    (WallSearch, ("vector", "records", "complete", "mode", "n", "m", "source_vector"), (V, (RECORD,), True, "hilbert", 10, None, None), (V, (), True, "hilbert", 10, None, None)),
]
IDS = [case[0].__name__ for case in CASES]


def _twin(cls, names, obj):
    """A frozen dataclass with cls's name and fields, holding obj's values."""
    twin_cls = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    return twin_cls(*(getattr(obj, name) for name in names))


def test_every_public_value_type_is_covered():
    assert len(CASES) == 15
    assert len(set(IDS)) == 15


@pytest.mark.parametrize("cls,names,args,other_args", CASES, ids=IDS)
def test_repr_matches_a_dataclass_twin(cls, names, args, other_args):
    obj = cls(*args)
    assert repr(obj) == repr(_twin(cls, names, obj))


@pytest.mark.parametrize("cls,names,args,other_args", CASES, ids=IDS)
def test_equality_by_class_and_fields(cls, names, args, other_args):
    obj = cls(*args)
    assert obj == cls(*args)
    assert not obj != cls(*args)
    assert obj != cls(*other_args)
    twin = _twin(cls, names, obj)
    assert obj != twin and twin != obj
    assert obj != tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls,names,args,other_args", CASES, ids=IDS)
def test_equal_values_hash_equal(cls, names, args, other_args):
    obj = cls(*args)
    assert hash(obj) == hash(cls(*args))
    # the dataclass hash: set and dict orders stay what they were
    assert hash(obj) == hash(_twin(cls, names, obj))
    assert len({obj, cls(*args), cls(*other_args)}) == 2


small = st.integers(-2, 2)


@given(st.tuples(small, small, small), st.tuples(small, small, small))
def test_mukai_vector_equality_is_field_wise(a, b):
    # MukaiVector writes its own __eq__; it must agree with the field tuples
    u, w = MukaiVector(*a), MukaiVector(*b)
    assert (u == w) is (a == b)
    assert (u != w) is (a != b)
    assert hash(u) == hash(a)


@pytest.mark.parametrize("cls,names,args,other_args", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, args, other_args):
    obj = cls(*args)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert obj == cls(*args)


@pytest.mark.parametrize("cls,names,args,other_args", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, names, args, other_args):
    obj = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj and repr(back) == repr(obj)
    for back in (copy.deepcopy(obj), copy.copy(obj)):
        assert type(back) is cls and back == obj and repr(back) == repr(obj)


@pytest.mark.parametrize("cls,names,args,other_args", CASES, ids=IDS)
def test_keyword_construction(cls, names, args, other_args):
    assert cls(**dict(zip(names, args))) == cls(*args)


def test_defaults():
    assert SurfaceParams() == SurfaceParams(1)
    assert SearchBounds() == SearchBounds(None, Fraction(1))
    assert StabilityPoint(0, 1) == StabilityPoint(0, 1, None, True)
    assert StabilityPoint(0, y_approx=0.5) == StabilityPoint(0, None, 0.5, True)
    search = WallSearch(V, (), True, "hilbert")
    assert (search.n, search.m, search.source_vector) == (None, None, None)


def test_rational_fields_are_normalised():
    pt = StabilityPoint(1, 2)
    assert type(pt.x) is Fraction and type(pt.y_sq) is Fraction
    assert pt == StabilityPoint(Fraction(1), Fraction(2))
    assert StabilityPoint("1/2", "3/4") == StabilityPoint(Fraction(1, 2), Fraction(3, 4))
    bounds = SearchBounds(y_min=2)
    assert type(bounds.y_min) is Fraction and bounds == SearchBounds(None, Fraction(2))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: MukaiVector(1, 0.0, 2), "Mukai vector components must be integers, got c=0.0"),
        (lambda: MukaiVector("1", 0, 2), "Mukai vector components must be integers, got r='1'"),
        (lambda: SurfaceParams(0), "degree parameter d must be a positive integer, got 0"),
        (lambda: SurfaceParams(1.0), "degree parameter d must be a positive integer, got 1.0"),
        (lambda: StabilityPoint(0, 0), "stability point needs y > 0, got y^2 = 0"),
        (lambda: StabilityPoint(0, Fraction(-1, 4)), "stability point needs y > 0, got y^2 = -1/4"),
        (lambda: StabilityPoint(0), "stability point needs y_sq or y_approx"),
        (lambda: StabilityPoint(0, y_approx=-0.5), "stability point needs y > 0, got y = -0.5"),
        (lambda: SearchBounds(r_max=0), "r_max must be positive"),
        (lambda: SearchBounds(y_min=Fraction(-1, 2)), "y_min must be non-negative"),
        (lambda: WallRecord(A, -2, 7, None, None, "bogus"), "unknown wall type 'bogus'"),
    ],
)
def test_construction_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _run_isolated(code: str) -> str:
    """Run code in a fresh `python -S` with PYTHONPATH=src; return its stdout.

    -S keeps the modules that site and .pth files import out of the check.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    out = _run_isolated(
        "import k3walls.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    assert out.strip() == "[]"


def test_reimported_classes_are_collected():
    out = _run_isolated(
        "import gc, importlib, sys, weakref\n"
        "def fresh():\n"
        "    for name in [n for n in sys.modules if n == 'k3walls' or n.startswith('k3walls.')]:\n"
        "        del sys.modules[name]\n"
        "    return importlib.import_module('k3walls')\n"
        "first = weakref.ref(fresh().lattice.MukaiVector)\n"
        "for _ in range(5):\n"
        "    fresh()\n"
        "gc.collect()\n"
        "print(first() is None)\n"
    )
    assert out.strip() == "True"
