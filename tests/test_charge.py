"""Central charge values, wall loci, path crossings, geometric checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import rational_oracle
from k3walls import (
    DEGENERATE,
    MukaiVector,
    Semicircle,
    StabilityPoint,
    SurfaceParams,
    VerticalLine,
    central_charge,
    geometric_check,
    mukai_pairing,
    mukai_square,
    path_intersection,
    tensor_twist,
    wall_discriminant,
    wall_locus,
)

F = Fraction
coords = st.integers(min_value=-30, max_value=30)
vectors = st.builds(MukaiVector, coords, coords, coords)
degrees = st.integers(min_value=1, max_value=4).map(SurfaceParams)


def test_central_charge_exact_value():
    pt = StabilityPoint(F(-3), y_sq=F(15))
    z = central_charge(MukaiVector(1, 0, -9), pt)
    # 2dcx - s - rd(x^2 - y^2) = 0 + 9 - (9 - 15) = 15; 2dy(c - rx) = 6y
    assert (z.re, z.im_coeff, z.y_sq) == (F(15), F(6), F(15))


def test_central_charge_torsion_class():
    pt = StabilityPoint(F(-1, 6), y_sq=F(2))
    z = central_charge(MukaiVector(0, 3, -1), pt)
    assert z.re == 2 * F(3) * F(-1, 6) + 1
    assert z.im_coeff == 6


def test_stability_point_validation():
    with pytest.raises(ValueError):
        StabilityPoint(F(0), y_sq=F(0))
    with pytest.raises(TypeError):
        StabilityPoint(F(0))


def test_alignment_on_wall():
    # on W(v, a) the two charges are real multiples of each other
    v, a = MukaiVector(1, 0, -9), MukaiVector(1, -1, 2)
    curve = wall_locus(v, a)
    assert curve == Semicircle(F(-11, 2), F(85, 4))
    apex = StabilityPoint(curve.center_x, y_sq=curve.radius_sq)
    zv, za = central_charge(v, apex), central_charge(a, apex)
    _, cross = zv.times_conj(za)
    assert cross == 0


def test_times_conj_rejects_mixed_points():
    z1 = central_charge(MukaiVector(1, 0, 0), StabilityPoint(F(0), y_sq=F(2)))
    z2 = central_charge(MukaiVector(1, 0, 0), StabilityPoint(F(0), y_sq=F(3)))
    with pytest.raises(ValueError):
        z1.times_conj(z2)


def test_wall_locus_frozen_circles():
    v = MukaiVector(1, 0, -9)
    assert wall_locus(v, MukaiVector(0, 0, -1)) == VerticalLine(F(0))
    assert wall_locus(v, MukaiVector(0, 1, -7)) == Semicircle(F(-7, 2), F(13, 4))
    assert wall_locus(v, MukaiVector(-2, 7, -25)) == Semicircle(F(-43, 14), F(85, 196))
    assert wall_locus(MukaiVector(0, 3, -1), MukaiVector(1, 0, 1)) == Semicircle(F(-1, 6), F(37, 36))


def test_wall_locus_errors():
    v = MukaiVector(1, 0, -9)
    with pytest.raises(ValueError, match="proportional"):
        wall_locus(v, 2 * v)
    # (-1, 3, -9) spans the isotropic boundary plane with v: empty locus
    with pytest.raises(ValueError, match="does not meet"):
        wall_locus(v, MukaiVector(-1, 3, -9))


def test_path_intersection():
    circle = Semicircle(F(-11, 2), F(85, 4))
    assert path_intersection(circle, F(-3)) == F(15)
    assert path_intersection(circle, F(5)) is None
    # tangency does not count as a crossing
    edge = Semicircle(F(0), F(4))
    assert path_intersection(edge, F(2)) is None
    line = VerticalLine(F(0))
    assert path_intersection(line, F(0)) is DEGENERATE
    assert path_intersection(line, F(1)) is None


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=40)


@given(fractions, st.fractions(min_value=F(1, 50), max_value=60, max_denominator=60),
       st.one_of(st.integers(-20, 20), fractions, fractions.map(str)))
@example(F(0), F(4), 2)  # tangency is not a crossing
@example(F(-1, 2), F(1, 4), "-1/2")
def test_path_intersection_oracle(center, radius_sq, x0):
    """y^2 = R - (x0 - e)^2 when that is positive, else None; x0 may be an
    int, a str or a Fraction."""
    expected = radius_sq - (F(x0) - center) ** 2
    got = path_intersection(Semicircle(center, radius_sq), x0)
    if expected > 0:
        assert type(got) is F and got == expected
    else:
        assert got is None
    line = VerticalLine(center)
    assert path_intersection(line, x0) is (DEGENERATE if F(x0) == center else None)


huge = st.integers(min_value=-(10**60), max_value=10**60)


@given(st.one_of(st.integers(), huge), st.one_of(st.sampled_from([1, -1, 0]), st.integers(), huge))
@example(0, -7)
@example(10**50 + 3, -1)
@example(-(2**100), -(2**40))
@example(5, 0)
def test_rational_matches_fraction(num, den):
    """charge._rational(num, den) is Fraction(num, den): the same type,
    ratio, hash, repr, arithmetic, comparisons, pickle and copies, and the
    same ZeroDivisionError for den = 0 (tests/rational_oracle.py)."""
    rational_oracle.check(num, den)


def test_rational_oracle_grid():
    assert rational_oracle.main() == 0


def test_geometric_check_ok_above_one():
    assert geometric_check(StabilityPoint(F(-3), y_sq=F(15))) is None


def test_geometric_check_obstructed_at_integer_x():
    witness = geometric_check(StabilityPoint(F(0), y_sq=F(1, 4)))
    assert witness == MukaiVector(1, 0, 1)
    assert mukai_square(witness) == -2


def test_geometric_check_obstructed_at_rational_x():
    # witness (2, 1, 1) lives at x = 1/2 and kills y^2 <= 1/4
    assert geometric_check(StabilityPoint(F(1, 2), y_sq=F(1, 5))) == MukaiVector(2, 1, 1)


def test_geometric_check_ok_without_witness():
    # (1/2, 1/2): the rank-2 witness (2, 1, 1) needs y^2 <= 1/4;
    # x = 1/3 and x = 1/30 carry no spherical class at all
    for x, y_sq in ((F(1, 2), F(1, 2)), (F(1, 3), F(1, 100)), (F(1, 30), F(1, 2000))):
        assert geometric_check(StabilityPoint(x, y_sq=y_sq)) is None, (x, y_sq)


def _brute_witnesses(x, y_sq, d):
    """Spherical (r, c, s), r > 0, with c = x*r and d*r^2*y^2 <= 1, by a
    scan of every rank up to isqrt(floor(1 / (d*y^2))) and every c and s
    in a box around the line."""
    found = set()
    r_top = math.isqrt(math.floor(1 / (d * y_sq)))
    for r in range(1, r_top + 1):
        for c in range(math.floor(x * r) - 1, math.ceil(x * r) + 2):
            for s in range(-2, (d * c * c + 1) // r + 2):
                if d * c * c - r * s == -1 and c == x * r:
                    found.add(MukaiVector(r, c, s))
    return found


@pytest.mark.parametrize("d", [1, 2, 3])
def test_geometric_check_brute_force(d):
    """A witness exactly when a brute-force scan finds one, and then that
    witness; None otherwise."""
    p = SurfaceParams(d)
    xs = {F(a, q) for q in range(1, 13) for a in range(-2 * q, 2 * q + 1)}
    y_sqs = {F(k, m) for m in (1, 2, 3, 5, 9, 16, 50, 144, 400) for k in range(1, 6)} | {F(1, d * 36)}
    for x in sorted(xs):
        for y_sq in sorted(y_sqs):
            expected = _brute_witnesses(x, y_sq, d)
            assert len(expected) <= 1
            witness = geometric_check(StabilityPoint(x, y_sq=y_sq), p)
            if expected:
                assert {witness} == expected, (x, y_sq)
            else:
                assert witness is None, (x, y_sq)


def test_discriminant_values():
    v = MukaiVector(1, 0, -9)
    a = MukaiVector(1, -1, 2)
    assert wall_discriminant(v, a) == 7 * 7 - 18 * (-2)


@given(vectors, vectors, degrees)
def test_discriminant_identity(v, a, p):
    # B^2 + 4dPC = <v,a>^2 - v^2 a^2
    P = a.r * v.c - v.r * a.c
    B = a.r * v.s - v.r * a.s
    C = v.c * a.s - a.c * v.s
    lhs = B * B + 4 * p.d * P * C
    assert lhs == wall_discriminant(v, a, p)


@given(vectors, vectors, degrees, st.integers(min_value=-5, max_value=5))
def test_wall_locus_invariant_under_adding_v(v, a, p, t):
    """a and a + t v cut the same numerical wall."""
    try:
        first = wall_locus(v, a, p)
    except ValueError:
        return
    assert wall_locus(v, a + t * v, p) == first


@given(st.builds(MukaiVector, coords, coords, coords), degrees, st.data())
def test_charge_additivity(u, p, data):
    w = data.draw(vectors)
    pt = StabilityPoint(F(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 5))),
                        y_sq=F(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 7))))
    zu = central_charge(u, pt, p)
    zw = central_charge(w, pt, p)
    zs = central_charge(u + w, pt, p)
    assert zs.re == zu.re + zw.re
    assert zs.im_coeff == zu.im_coeff + zw.im_coeff


@given(vectors, degrees, st.integers(min_value=-4, max_value=4))
def test_twist_moves_charge_point(u, p, k):
    """Tensoring by O(kH) translates the half-plane picture by k:
    Z at (x + k, y) of the twisted class equals Z at (x, y) of the original."""
    pt = StabilityPoint(F(1, 3), y_sq=F(7, 2))
    shifted = StabilityPoint(pt.x + k, y_sq=pt.y_sq)
    z1 = central_charge(tensor_twist(u, k, p), shifted, p)
    z2 = central_charge(u, pt, p)
    assert z1.re == z2.re and z1.im_coeff == z2.im_coeff
