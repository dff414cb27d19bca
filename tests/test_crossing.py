"""Tests for wall-crossing machinery: wall plane bases, base points,
positive classes, decompositions, and stratum dimensions.

The two positive-class lists frozen here (walls 2/11 and 6/19) were derived
by hand: parameterize the saturated plane, solve the square and charge-ratio
inequalities, and list the lattice points.  The remaining walls are covered
by the brute-force box oracle at the bottom.
"""

import io
import math
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import frozen
from k3walls import (
    DEFAULT_SURFACE,
    DimReport,
    MukaiVector,
    SurfaceParams,
    WallRecord,
    central_charge,
    decompositions,
    hilbert_walls,
    moduli_dim,
    mukai_pairing,
    mukai_square,
    positive_classes,
    resolve_walls,
    stratum_dims,
    wall_base_point,
    wall_locus,
)
from k3walls.charge import Semicircle, StabilityPoint
from k3walls.cli import main
from k3walls.crossing import _levelled_classes, _part_dim, _plane_basis, _suffix_reach

F = Fraction

V10 = MukaiVector(*frozen.V10)
VBM = MukaiVector(*frozen.VBM)


def _search(vec):
    if vec == V10:
        return hilbert_walls(10)
    return resolve_walls(vec)


def _record(search, gamma):
    return next(r for r in search.records if r.gamma == gamma)


def _wall(vec, gamma):
    return _record(_search(vec), gamma)


def _lam(u, v, x0):
    return F(u.c - u.r * x0) / F(v.c - v.r * x0)


# ---------------------------------------------------------------------------
# wall plane bases


PLANE_PAIRS = [
    (V10, MukaiVector(1, -1, 2)),
    (V10, MukaiVector(0, 1, -9)),
    (V10, MukaiVector(1, -2, 4)),
    (VBM, MukaiVector(1, 0, 1)),
    (VBM, MukaiVector(1, 1, 2)),
]


def _cross(u, w):
    return (u.c * w.s - u.s * w.c, u.s * w.r - u.r * w.s, u.r * w.c - u.c * w.r)


def _assert_basis_spans_saturation(v, a):
    # b1 x b2 = +-(v x a)/g: the basis spans the plane orthogonal to the
    # normal of v and a, so it holds both, and its cross product is
    # primitive, so no lattice point of the plane lies off its span.
    b1, b2 = (MukaiVector(*b) for b in _plane_basis(v, a))
    normal = _cross(v, a)
    g = math.gcd(*normal)
    primitive = tuple(x // g for x in normal)
    assert _cross(b1, b2) in (primitive, tuple(-x for x in primitive))


@pytest.mark.parametrize("v,a", PLANE_PAIRS)
def test_plane_basis_spans_the_saturation(v, a):
    _assert_basis_spans_saturation(v, a)


@given(
    v=st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30)),
    a=st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30)),
)
@example(v=(1, 0, 0), a=(0, 1, 0))
@example(v=(0, 1, 0), a=(0, 0, -1))
def test_plane_basis_spans_the_saturation_of_any_pair(v, a):
    v, a = MukaiVector(*v), MukaiVector(*a)
    assume(any(_cross(v, a)))
    _assert_basis_spans_saturation(v, a)


def test_plane_basis_rejects_proportional_classes():
    with pytest.raises(ValueError, match="proportional"):
        _plane_basis(V10, 3 * V10)


# ---------------------------------------------------------------------------
# wall base points


def test_base_point_sits_at_apex():
    w = _wall(V10, F(2, 7))
    pt = wall_base_point(w)
    assert pt.x == F(-7, 2)
    assert pt.y_sq == F(13, 4)


def test_base_point_sides_shift_y_square():
    w = _wall(V10, F(2, 7))
    eps = F(1, 100)
    assert wall_base_point(w, "plus").y_sq == F(13, 4) + eps
    assert wall_base_point(w, "minus").y_sq == F(13, 4) - eps
    wide = wall_base_point(w, "plus", epsilon=F(3))
    assert wide.y_sq == F(13, 4) + 3


def test_base_point_rejects_boundary_record():
    w = _wall(V10, F(1, 3))
    assert w.curve is None
    with pytest.raises(ValueError, match="boundary record has no wall curve"):
        wall_base_point(w)


def test_base_point_rejects_vertical_wall():
    w = _wall(V10, F(0))
    with pytest.raises(ValueError, match="no canonical base point"):
        wall_base_point(w)


def test_base_point_rejects_bad_epsilon_and_side():
    w = _wall(V10, F(2, 7))
    with pytest.raises(ValueError, match="epsilon must be positive"):
        wall_base_point(w, "plus", epsilon=0)
    with pytest.raises(ValueError, match="swallows the wall"):
        wall_base_point(w, "minus", epsilon=F(13, 4))
    with pytest.raises(ValueError, match="side must be on/plus/minus"):
        wall_base_point(w, "below")


# ---------------------------------------------------------------------------
# positive classes


POSITIVE_2_11 = (
    (0, 5, -55),
    (-1, 10, -101),
    (1, -1, 2),
    (0, 4, -44),
    (0, 3, -33),
    (0, 2, -22),
    (0, 1, -11),
)

POSITIVE_6_19 = (
    (-1, 3, -2),
    (-2, 3, -3),
    (1, 0, 1),
)


@pytest.mark.parametrize(
    "vec,gamma,expected",
    [(V10, F(2, 11), POSITIVE_2_11), (VBM, F(6, 19), POSITIVE_6_19)],
)
def test_positive_classes_frozen(vec, gamma, expected):
    w = _wall(vec, gamma)
    got = tuple(u.as_tuple() for u in positive_classes(vec, w))
    assert got == expected


@pytest.mark.parametrize("vec,gamma", frozen.DECOMPOSITIONS.keys())
def test_positive_classes_properties(vec, gamma):
    v = MukaiVector(*vec)
    w = _wall(v, gamma)
    classes = positive_classes(v, w)
    assert classes
    x0 = w.curve.center_x
    lams = [_lam(u, v, x0) for u in classes]
    for u, lam in zip(classes, lams):
        assert 0 < lam < 1
        assert mukai_square(u) >= -2
        if not u.is_primitive():
            assert mukai_square(u.primitive_part()) > 0
    # sorted by descending charge ratio, ties by coordinate tuple
    keys = [(-lam, u.as_tuple()) for u, lam in zip(classes, lams)]
    assert keys == sorted(keys)
    assert len(set(classes)) == len(classes)


def test_positive_classes_rejects_mismatched_record():
    w = _wall(V10, F(2, 11))
    with pytest.raises(ValueError, match="charges do not align at the apex"):
        positive_classes(MukaiVector(1, 0, -7), w)


def test_positive_classes_checks_the_record_curve_exactly():
    # the integer curve check refuses a radius off by 1/100 under the
    # right center, and leaves a class proportional to v to wall_locus
    w = _wall(V10, F(2, 11))
    off = Semicircle(w.curve.center_x, w.curve.radius_sq + F(1, 100))
    with pytest.raises(ValueError, match="charges do not align at the apex"):
        positive_classes(V10, WallRecord(w.a, w.a_sq, w.pairing_va, w.gamma, off, w.wall_type))
    with pytest.raises(ValueError, match="are proportional; the wall is undefined"):
        positive_classes(V10, WallRecord(-V10, -18, 18, w.gamma, w.curve, w.wall_type))


def test_positive_classes_rejects_boundary_record():
    w = _wall(V10, F(1, 3))
    with pytest.raises(ValueError, match="semicircular wall"):
        positive_classes(V10, w)


@pytest.mark.parametrize("d", [1, 2])
def test_only_plane_error_is_vanishing_charge(d):
    """Over every semicircular wall_locus(v, a) with |components| <= 2, the
    level walk returns, or raises because Im Z(v) = c - x*r is 0 at the
    apex x: a semicircle gives a hyperbolic plane and a negative k0^2."""
    p = SurfaceParams(d)
    box = [MukaiVector(*t) for t in product(range(-2, 3), repeat=3)]
    walls = vanishing = 0
    for v, a in product(box, box):
        try:
            curve = wall_locus(v, a, p)
        except ValueError:
            continue
        if not isinstance(curve, Semicircle):
            continue
        walls += 1
        w = WallRecord(a, mukai_square(a, p), mukai_pairing(v, a, p), None, curve, "candidate")
        if v.c == curve.center_x * v.r:
            vanishing += 1
            with pytest.raises(ValueError, match="vanishing charge at the wall apex"):
                _levelled_classes(v, w, p)
        else:
            _levelled_classes(v, w, p)
    assert (walls, vanishing) == {1: (7328, 304), 2: (7008, 176)}[d]


# ---------------------------------------------------------------------------
# decompositions


@pytest.mark.parametrize("vec,gamma", frozen.DECOMPOSITIONS.keys())
def test_decompositions_match_frozen(vec, gamma):
    v = MukaiVector(*vec)
    w = _wall(v, gamma)
    expected = frozen.DECOMPOSITIONS[(vec, gamma)]
    got = decompositions(v, w)
    assert [tuple(u.as_tuple() for u in d.parts) for d in got] == [
        parts for parts, _ in expected
    ]
    for d in got:
        assert sum(d.parts, MukaiVector(0, 0, 0)) == v
        assert len(d.parts) <= 3


def test_decompositions_parts_max_two_drops_triples():
    v = V10
    w = _wall(v, F(2, 7))
    got = decompositions(v, w, parts_max=2)
    assert all(len(d.parts) == 2 for d in got)
    assert len(got) == 2


def test_decompositions_rejects_small_parts_max():
    w = _wall(V10, F(2, 11))
    with pytest.raises(ValueError, match="parts_max must be at least 2"):
        decompositions(V10, w, parts_max=1)


def test_decompositions_rejects_non_integer_parts_max():
    # S^[40] at 4/25 has 59 decompositions of at most 3 parts and 99 of at
    # most 4; a cap between the two is refused, not read as either.  An int
    # below 2 keeps its own message.
    search = hilbert_walls(40)
    v, w = search.vector, _record(search, F(4, 25))
    assert [len(decompositions(v, w, parts_max=cap)) for cap in (3, 4)] == [59, 99]
    for cap in (3.5, 1.5, 3.0, F(7, 2), "3", None):
        with pytest.raises(ValueError) as exc:
            decompositions(v, w, parts_max=cap)
        assert str(exc.value) == f"parts_max must be an integer, got {cap!r}"
    for cap in (1, 0, -3):
        with pytest.raises(ValueError) as exc:
            decompositions(v, w, parts_max=cap)
        assert str(exc.value) == "parts_max must be at least 2"


def test_charge_additivity_on_wall_points():
    # Charges of the parts sum to the charge of v everywhere on the wall,
    # not just at the apex.
    for (vec, gamma), entries in frozen.DECOMPOSITIONS.items():
        v = MukaiVector(*vec)
        w = _wall(v, gamma)
        curve = w.curve
        assert isinstance(curve, Semicircle)
        for dx in (F(0), F(1, 3), F(-1, 5)):
            x = curve.center_x + dx * curve.radius_sq / (1 + curve.radius_sq)
            y_sq = curve.radius_sq - (x - curve.center_x) ** 2
            if y_sq <= 0:
                continue
            pt = StabilityPoint(x=x, y_sq=y_sq)
            zv = central_charge(v, pt)
            for parts, _ in entries:
                total_re = sum(central_charge(MukaiVector(*u), pt).re for u in parts)
                total_im = sum(
                    central_charge(MukaiVector(*u), pt).im_coeff for u in parts
                )
                assert total_re == zv.re
                assert total_im == zv.im_coeff


# ---------------------------------------------------------------------------
# dimensions


def test_moduli_dim_values():
    assert moduli_dim(V10) == 20
    assert moduli_dim(MukaiVector(1, -1, 2)) == 0
    assert moduli_dim(MukaiVector(0, 1, -11)) == 4


def test_moduli_dim_rejects_imprimitive_and_rigid():
    with pytest.raises(ValueError, match="primitive"):
        moduli_dim(MukaiVector(0, 2, -22))
    with pytest.raises(ValueError, match="square -4 < -2"):
        moduli_dim(MukaiVector(2, 0, 1))


@pytest.mark.parametrize("vec,gamma", frozen.DECOMPOSITIONS.keys())
def test_stratum_dims_match_frozen(vec, gamma):
    v = MukaiVector(*vec)
    for parts, dims in frozen.DECOMPOSITIONS[(vec, gamma)]:
        vectors = [MukaiVector(*u) for u in parts]
        if dims is None:
            with pytest.raises(ValueError, match="negative fiber dimension"):
                stratum_dims(vectors, v)
            continue
        moduli, fibers, stratum = dims
        report = stratum_dims(vectors, v)
        assert list(report.part_moduli_dims) == moduli
        assert list(report.fiber_dims) == fibers
        assert report.stratum_dim == stratum
        assert report.stratum_dim < moduli_dim(v) == mukai_square(v) + 2


def test_stratum_dims_allows_multiple_of_positive_class():
    # (0, 2, -14) is twice (0, 1, -7); stable objects of the imprimitive
    # class still move in a 10-dimensional family.
    report = stratum_dims(
        [MukaiVector(0, 2, -14), MukaiVector(1, -2, 5)], V10
    )
    assert report.part_moduli_dims[0] == 10


def test_stratum_dims_rejects_bad_input():
    with pytest.raises(ValueError, match="at least two parts"):
        stratum_dims([V10], V10)
    with pytest.raises(ValueError, match="parts do not sum to"):
        stratum_dims([MukaiVector(1, -1, 2), MukaiVector(0, 1, -10)], V10)
    with pytest.raises(ValueError, match="imprimitive over a non-positive class"):
        stratum_dims(
            [MukaiVector(2, 2, 2), MukaiVector(-1, -2, -11)], V10
        )
    # the parts of 2*(0, 1, -7) pass every part and fiber check (fiber
    # <w, w> - 1 = 3); v itself has no moduli dimension
    w = MukaiVector(0, 1, -7)
    with pytest.raises(ValueError, match="stratum_dims expects a primitive class, got \\(0, 2, -14\\)"):
        stratum_dims([w, w], 2 * w)


def test_stratum_dims_check_order():
    # (-3, -3, -3) is imprimitive of square 0 and the fiber between the two
    # parts is -25, in either order: the part check comes first.  A sum
    # that misses v comes before both.
    u, w = (-3, -3, -3), (4, 3, -6)
    for parts in ([u, w], [w, u]):
        with pytest.raises(ValueError, match="imprimitive over a non-positive class"):
            stratum_dims([MukaiVector(*x) for x in parts], V10)
    with pytest.raises(ValueError, match="parts do not sum to"):
        stratum_dims([MukaiVector(*u), MukaiVector(4, 3, -5)], V10)
    parts = frozen.DECOMPOSITIONS[(frozen.V10, F(2, 11))][0][0]
    assert stratum_dims(parts, V10) == stratum_dims([MukaiVector(*x) for x in parts], V10)


@pytest.mark.parametrize("d", [1, 2])
def test_part_dim_accepts_exactly_the_stable_classes(d):
    # The definition: a class carries stable objects when u^2 >= -2 and u
    # is primitive or a multiple of a primitive class of positive square.
    # The zero class is neither.
    p = SurfaceParams(d)
    box = range(-6, 7)
    zero = MukaiVector(0, 0, 0)
    accepted = 0
    for r in box:
        for c in box:
            for s in box:
                u = MukaiVector(r, c, s)
                sq = mukai_square(u, p)
                stable = sq >= -2 and (u.is_primitive() or (u != zero and mukai_square(u.primitive_part(), p) > 0))
                if stable:
                    assert _part_dim(u, sq) == sq + 2
                    accepted += 1
                    continue
                with pytest.raises(ValueError) as exc:
                    _part_dim(u, sq)
                if sq < -2:
                    assert str(exc.value) == f"no semistable objects of class {u} (square {sq} < -2)"
                else:
                    assert str(exc.value) == f"no stable objects of class {u} (imprimitive over a non-positive class)"
    assert 0 < accepted < len(box) ** 3


# ---------------------------------------------------------------------------
# brute-force oracle


def _box_classes(v, w):
    """Positive classes of the wall among the lattice points of its plane
    with coordinates up to 50, each kept when it passes the definition."""
    b1, b2 = (MukaiVector(*b) for b in _plane_basis(v, w.a))
    x0 = w.curve.center_x
    box = set()
    for m in range(-50, 51):
        for n in range(-50, 51):
            u = m * b1 + n * b2
            if u.is_zero():
                continue
            if mukai_square(u) < -2:
                continue
            if not u.is_primitive() and mukai_square(u.primitive_part()) <= 0:
                continue
            if not 0 < _lam(u, v, x0) < 1:
                continue
            box.add(u)
    return box


@pytest.mark.parametrize("vec,gamma", frozen.DECOMPOSITIONS.keys())
def test_positive_classes_box_oracle(vec, gamma):
    # Independent enumeration: scan every lattice point of the wall plane
    # with coordinates up to 50 and keep those passing the definition
    # directly.  The fast search must agree exactly.
    v = MukaiVector(*vec)
    w = _wall(v, gamma)
    fast = set(positive_classes(v, w))
    assert fast == _box_classes(v, w)


def _rank_scan_classes(v, w, p=DEFAULT_SURFACE, r_box=None):
    """Positive classes of the wall by a rank scan: ranks up to r_box (by
    default ten times the wall class's, plus ten), each c with
    0 < lambda < 1, s solved from u . (v x a) = 0, and u kept when it
    passes the definition."""
    a, x0 = w.a, w.curve.center_x
    normal = (v.c * a.s - v.s * a.c, v.s * a.r - v.r * a.s, v.r * a.c - v.c * a.r)
    denom = v.c - v.r * x0
    assert denom > 0 and normal[2] != 0
    found = set()
    if r_box is None:
        r_box = 10 * abs(a.r) + 10
    for r in range(-r_box, r_box + 1):
        lo, hi = r * x0, r * x0 + denom  # lo < c < hi
        for c in range(math.floor(lo) + 1, math.ceil(hi)):
            s_num = -(r * normal[0] + c * normal[1])
            if s_num % normal[2]:
                continue
            u = MukaiVector(r, c, s_num // normal[2])
            if u.is_zero() or mukai_square(u, p) < -2:
                continue
            if not u.is_primitive() and mukai_square(u.primitive_part(), p) <= 0:
                continue
            found.add(u)
    return found


# S^[56] lists its wall at 90070/667977 (667,977 charge levels, the
# discriminant of the last one between 2^52 and 2^53) from the smallest
# certified cap, r_max = 4,102 (R* = 8,203).
RANK_SCAN_BOUNDS = {56: 4102}


@pytest.mark.parametrize("n,gamma", [(40, F(2004, 12515)), (32, F(1210, 6737)), (56, F(90070, 667977))])
def test_positive_classes_rank_scan_oracle(n, gamma):
    # Walls with thousands of charge levels, whose classes have plane
    # coordinates in the millions.
    v = MukaiVector(1, 0, 1 - n)
    w = _record(hilbert_walls(n, RANK_SCAN_BOUNDS.get(n)), gamma)
    oracle = _rank_scan_classes(v, w)
    assert oracle
    assert set(positive_classes(v, w)) == oracle


@pytest.mark.parametrize("vec", [(1, 0, -9), (1, 0, -11), (0, 3, -1), (0, 4, -1)])
def test_decompositions_rank_scan_oracle(vec):
    # Every multiset of 2 to 4 rank-scanned classes summing to v, found
    # without charge levels: pairs and triples directly, and a fourth
    # part by looking up what the triple leaves of v.
    v = MukaiVector(*vec)
    zero = MukaiVector(0, 0, 0)
    walls = [w for w in resolve_walls(v).records if isinstance(w.curve, Semicircle)]
    assert walls
    for w in walls:
        classes = _rank_scan_classes(v, w)
        assert set(positive_classes(v, w)) == classes
        oracle = set()
        for size in (2, 3):
            for parts in combinations_with_replacement(sorted(classes, key=MukaiVector.as_tuple), size):
                rest = v - sum(parts, zero)
                if rest.is_zero():
                    oracle.add(tuple(sorted(u.as_tuple() for u in parts)))
                elif size == 3 and rest in classes:
                    oracle.add(tuple(sorted(u.as_tuple() for u in parts + (rest,))))
        got = [tuple(sorted(u.as_tuple() for u in d.parts)) for d in decompositions(v, w, parts_max=4)]
        assert len(got) == len(set(got))
        assert set(got) == oracle, (vec, w.a)


def _lambda_decompositions(v, w, classes=None):
    """Every multiset of the classes (rank-scanned when None) summing to v,
    as sorted component tuples: a brute-force search over plain tuples that
    prunes on lambda(u) = (c_u - r_u*x)/(c_v - r_v*x) at the apex x, with
    no plane basis and no charge levels."""
    x = w.curve.center_x
    classes = sorted(u.as_tuple() for u in (_rank_scan_classes(v, w) if classes is None else classes))
    lam = [(c - r * x) / (v.c - v.r * x) for r, c, _ in classes]
    assert all(0 < value < 1 for value in lam)
    found = set()

    def extend(start, parts, total_lam, total):
        if total_lam == 1:
            if total == v.as_tuple():
                found.add(tuple(parts))
            return
        for i in range(start, len(classes)):
            if total_lam + lam[i] <= 1:
                u = classes[i]
                extend(i, parts + [u], total_lam + lam[i], tuple(a + b for a, b in zip(total, u)))

    extend(0, [], 0, (0, 0, 0))
    return found


COMPLETE_DECOMPOSITION_VECTORS = ((1, 0, -9), (1, 0, -11), (0, 3, -1), (0, 4, -1))


def _complete_decompositions():
    """(v, w, decompositions(v, w) at a bound that cuts nothing) for every
    semicircular wall of COMPLETE_DECOMPOSITION_VECTORS."""
    for vec in COMPLETE_DECOMPOSITION_VECTORS:
        v = MukaiVector(*vec)
        for w in resolve_walls(v).records:
            if isinstance(w.curve, Semicircle):
                yield v, w, decompositions(v, w, parts_max=sys.maxsize)


def test_complete_decompositions_lambda_oracle():
    # Decompositions of any length, where the rank-scan oracle above stops
    # at four parts: (0, 4, -1) has one of 18.
    longest = 0
    for v, w, decs in _complete_decompositions():
        x = w.curve.center_x
        for d in decs:
            # canonical order: descending lambda, ties by components
            assert list(d.parts) == sorted(d.parts, key=lambda u: (-(u.c - u.r * x), u.as_tuple()))
        got = [tuple(sorted(u.as_tuple() for u in d.parts)) for d in decs]
        assert len(got) == len(set(got))
        assert set(got) == _lambda_decompositions(v, w), (v, w.a)
        longest = max([longest, *(len(parts) for parts in got)])
    assert longest >= 5


def test_decompositions_list_order_at_each_cap():
    # The list comes by number of parts, then by the parts' components in
    # the order listed, and a cap keeps the complete list's order.
    for v, w, complete in _complete_decompositions():
        for cap in (2, 3, 4, sys.maxsize):
            got = decompositions(v, w, parts_max=cap)
            keys = [(len(d.parts), [u.as_tuple() for u in d.parts]) for d in got]
            assert keys == sorted(keys), (v, w.a, cap)
            assert got == tuple(d for d in complete if len(d.parts) <= cap), (v, w.a, cap)


def _pairing(u, w):
    """The Mukai pairing of two component tuples at d = 1."""
    return 2 * u[1] * w[1] - u[0] * w[2] - w[0] * u[2]


def _closed_form_dims(parts):
    """(moduli, fibers, message) of component tuples in the given order:
    moduli u^2 + 2, fibers <u_1 + ... + u_i, u_{i+1}> - 1 and, at the
    first negative fiber, the stratum_dims message (else None)."""
    moduli = [_pairing(u, u) + 2 for u in parts]
    fibers, partial = [], parts[0]
    for u in parts[1:]:
        f = _pairing(partial, u) - 1
        if f < 0:
            return moduli, fibers, (
                f"negative fiber dimension {f} at part {MukaiVector(*u)}; the extension stratum is not effective"
            )
        fibers.append(f)
        partial = tuple(a + b for a, b in zip(partial, u))
    return moduli, fibers, None


def _check_stratum_dims(parts, v):
    """stratum_dims of the parts against the closed form; True when the
    stratum is effective in this order."""
    moduli, fibers, message = _closed_form_dims([u.as_tuple() for u in parts])
    if message is not None:
        with pytest.raises(ValueError) as exc:
            stratum_dims(parts, v)
        assert str(exc.value) == message
        return False
    report = stratum_dims(parts, v)
    assert report.part_moduli_dims == tuple(moduli)
    assert report.fiber_dims == tuple(fibers)
    assert report.stratum_dim == sum(moduli) + sum(fibers)
    return True


def test_stratum_dims_pairing_closed_form():
    # Every complete decomposition above, in the order decompositions
    # returns its parts, and with at most four parts in every distinct
    # order: the not-effective verdict reads the parts in the order given.
    effective = not_effective = 0
    reorderable = set()  # not effective as listed, effective in another order
    for v, _, decs in _complete_decompositions():
        assert moduli_dim(v) == _pairing(v.as_tuple(), v.as_tuple()) + 2
        for d in decs:
            listed = _check_stratum_dims(d.parts, v)
            effective += listed
            not_effective += not listed
            if len(d.parts) <= 4:
                orders = [_check_stratum_dims(order, v) for order in set(permutations(d.parts))]
                if not listed and any(orders):
                    reorderable.add((v.as_tuple(), tuple(u.as_tuple() for u in d.parts)))
    assert effective and not_effective
    # S^[10] at 4/13: (a, a, b) raises at fiber -1, (b, a, a) has fibers (4, 4)
    a, b = (1, -2, 4), (-1, 4, -17)
    assert ((1, 0, -9), (a, a, b)) in reorderable
    assert _closed_form_dims((b, a, a)) == ([0, 2, 2], [4, 4], None)


def _stratum_outcome(parts, v):
    """stratum_dims of the parts, or its error message, the same for the
    parts given as MukaiVectors, as tuples and as lists."""
    triples = [tuple(u) if isinstance(u, (tuple, list)) else u.as_tuple() for u in parts]
    outcomes = []
    for given in ([MukaiVector(*u) for u in triples], triples, [list(u) for u in triples]):
        try:
            outcomes.append(stratum_dims(given, v))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0], (triples, outcomes)
    return outcomes[0]


def _closed_form_outcome(parts):
    """The DimReport or negative-fiber message of _closed_form_dims."""
    moduli, fibers, message = _closed_form_dims(parts)
    return message or DimReport(tuple(moduli), tuple(fibers), sum(moduli) + sum(fibers))


def test_stratum_dims_input_types():
    for v, _, decs in _complete_decompositions():
        for d in decs:
            parts = [u.as_tuple() for u in d.parts]
            assert _stratum_outcome(parts, v) == _closed_form_outcome(parts)
    # the cases of test_stratum_dims_check_order: the closed form finds the
    # fiber of -25, but the part check and the sum check come first
    u, w = (-3, -3, -3), (4, 3, -6)
    for parts in ([u, w], [w, u]):
        assert _closed_form_outcome(parts).startswith("negative fiber dimension -25 at part")
        assert _stratum_outcome(parts, V10) == (
            "no stable objects of class (-3, -3, -3) (imprimitive over a non-positive class)"
        )
    assert _stratum_outcome([u, (4, 3, -5)], V10) == "parts do not sum to (1, 0, -9)"
    parts = list(frozen.DECOMPOSITIONS[(frozen.V10, F(2, 11))][0][0])
    assert _stratum_outcome(parts, V10) == _closed_form_outcome(parts)


def test_wall_without_decompositions():
    # decompose --vector 0,3,1 --wall-index 0: the rank scan finds one
    # positive class, (1, 3, 10), and no multiset of 2 or 3 copies of it
    # sums to v, so the text ends saying so.
    v = MukaiVector(0, 3, 1)
    w = resolve_walls(v).records[0]
    assert _rank_scan_classes(v, w) == {MukaiVector(1, 3, 10)}
    assert decompositions(v, w) == ()
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["decompose", "--vector", "0,3,1", "--wall-index", "0"]) == 0
    assert out.getvalue().endswith("\nno decompositions with at most 3 parts\n")


def _wall_of(v, a, p=DEFAULT_SURFACE):
    """The semicircular wall record of (v, a), built without a wall search."""
    return WallRecord(a, mukai_square(a, p), mukai_pairing(v, a, p), None, wall_locus(v, a, p), "flopping")


def test_positive_classes_large_plane_oracle():
    # S^[100001] on the wall of a = (1, -30, 901): 100,901 charge levels,
    # and the discriminant N^2*D + E of the last one has 69 bits, past
    # 2^60 (S^[56] of the rank-scan cases above stays under 2^53).
    v, a = MukaiVector(1, 0, -100000), MukaiVector(1, -30, 901)
    w = _wall_of(v, a)
    oracle = _rank_scan_classes(v, w)
    assert len(oracle) == 58
    assert set(positive_classes(v, w)) == oracle


@pytest.mark.parametrize("vec,gamma", frozen.DECOMPOSITIONS.keys())
def test_positive_classes_box_oracle_non_primitive(vec, gamma):
    # 2*(1, 0, -9) and 3*(0, 3, -1) on the frozen walls of (1, 0, -9) and
    # (0, 3, -1): gcd(N, t_v) > 1, so a line parallel to v carries several
    # candidate levels.  Their classes have plane coordinates up to 27 and
    # 13, inside the box of 50.
    v = MukaiVector(*vec)
    kv = (2 if v == V10 else 3) * v
    w = _wall_of(kv, _wall(v, gamma).a)
    box = _box_classes(kv, w)
    assert box
    assert set(positive_classes(kv, w)) == box


@pytest.mark.parametrize("vec,gamma", frozen.DECOMPOSITIONS.keys())
def test_complete_decompositions_box_oracle_non_primitive(vec, gamma):
    # The walls above at a bound that cuts nothing: every multiset of box
    # classes summing to kv, where a line parallel to kv holds several
    # levels of the knapsack (at most 28 classes and 62 decompositions).
    v = MukaiVector(*vec)
    kv = (2 if v == V10 else 3) * v
    w = _wall_of(kv, _wall(v, gamma).a)
    got = [tuple(sorted(u.as_tuple() for u in d.parts)) for d in decompositions(kv, w, parts_max=sys.maxsize)]
    assert len(got) == len(set(got))
    assert set(got) == _lambda_decompositions(kv, w, _box_classes(kv, w))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_positive_classes_rank_scan_oracle_degrees(m, d):
    # Every semicircular wall of (0, m, -1) at degrees 2 and 3, the walls
    # with the widest windows of lines parallel to v.  Their classes reach
    # rank 19-94, under v^2 = 2dm^2 everywhere; the default box of
    # 10|a.r| + 10 is too small here (at d = 3, m = 5 the wall of
    # a = (1, 0, 0) has a class of rank 76 against a box of 20, and at
    # d = 2, m = 6 one of rank 73), so the scan runs to 2v^2.
    p = SurfaceParams(d)
    v = MukaiVector(0, m, -1)
    walls = [w for w in resolve_walls(v, None, p).records if isinstance(w.curve, Semicircle)]
    assert walls
    for w in walls:
        oracle = _rank_scan_classes(v, w, p, r_box=4 * d * m * m)
        assert set(positive_classes(v, w, p)) == oracle, (m, d, w.a)


@pytest.mark.parametrize("vec,a", [((2, 0, -1), (1, -5, -13)), ((2, 1, 0), (1, -2, -10))])
def test_positive_classes_low_level_end_box_oracle(vec, a):
    # Walls of small v^2 where the class (1, 1, 2) on level 1 lies on a
    # line parallel to v that only the j = 0 end of the window reaches:
    # a window bounded by the j = N end alone misses it.
    v = MukaiVector(*vec)
    w = _wall_of(v, MukaiVector(*a))
    box = _box_classes(v, w)
    assert MukaiVector(1, 1, 2) in box
    assert set(positive_classes(v, w)) == box


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(-4, 4)), min_size=1, max_size=5, unique=True))
@example([(2, 2), (4, 0)])
@example([(3, 1), (1, 1)])
def test_suffix_reach_cone_oracle(coords):
    # The cone ends of each suffix are its least and greatest slope.
    reach = _suffix_reach([(j, t, (0, 0, 0)) for j, t in coords])
    for i, (j, t, lo_j, lo_t, hi_j, hi_t) in enumerate(reach):
        suffix = coords[i:]
        assert (j, t) == coords[i]
        slopes = [F(y, x) for x, y in suffix]
        assert (F(lo_t, lo_j), F(hi_t, hi_j)) == (min(slopes), max(slopes))


# S^[n] at parts_max = N: six walls with a level-1 class and up to 41,234
# levels, deeper than the recursion limit for a search that recurses once
# per part, and one with 62 classes and a single decomposition, which a
# search pruned on the level sum alone takes seconds to find
DEEP_WALLS = [
    (54, F(182, 1325)),
    (74, F(1068, 9125)),
    (86, F(378, 3485)),
    (90, F(500, 4717)),
    (107, F(4005, 41234)),
    (114, F(776, 8249)),
    (120, F(2, 121)),
]


def _count_decompositions(level_count, t_v, coords):
    """Multisets of the (j, t) in coords summing to (N, t_v), counted by a
    DP over partial sums (level, t) that adds the classes one at a time,
    each any number of times.  It keeps a partial sum only while what is
    left lies in the cone of all the slopes t/j, a necessary condition;
    the copies of one class that keep it there are consecutive, as the
    cone is convex."""
    lo = min(coords, key=lambda jt: F(jt[1], jt[0]))
    hi = max(coords, key=lambda jt: F(jt[1], jt[0]))
    ways = {(0, 0): 1}
    for j, t in coords:
        grown: dict = {}
        for (level, t_sum), count in ways.items():
            while level <= level_count:
                left, t_left = level_count - level, t_v - t_sum
                if lo[1] * left > t_left * lo[0] or t_left * hi[0] > hi[1] * left:
                    break
                grown[(level, t_sum)] = grown.get((level, t_sum), 0) + count
                level, t_sum = level + j, t_sum + t
        ways = grown
    return ways.get((level_count, t_v), 0)


def test_deep_walls_count_oracle():
    start = time.perf_counter()
    for n, gamma in DEEP_WALLS:
        v = MukaiVector(1, 0, 1 - n)
        w = _record(hilbert_walls(n), gamma)
        level_count, t_v, classes = _levelled_classes(v, w, DEFAULT_SURFACE)
        decs = decompositions(v, w, parts_max=level_count)
        assert decs
        assert len(decs) == _count_decompositions(level_count, t_v, [(j, t) for j, t, _ in classes]), (n, gamma)
        positive = set(positive_classes(v, w))
        for d in decs:
            assert sum(d.parts, MukaiVector(0, 0, 0)) == v
            assert positive.issuperset(d.parts)
        assert len({d.parts for d in decs}) == len(decs)
    assert time.perf_counter() - start < 1.0
