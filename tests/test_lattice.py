"""Lattice arithmetic: pairing, squares, and the autoequivalence actions."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from k3walls import (
    DEFAULT_SURFACE,
    MukaiVector,
    SurfaceParams,
    candidate_walls,
    dual_shift,
    line_bundle_vector,
    mukai_pairing,
    mukai_square,
    phi_pullback,
    phi_pushforward,
    spherical_reflect,
    stratum_dims,
    tensor_twist,
)

coords = st.integers(min_value=-50, max_value=50)
vectors = st.builds(MukaiVector, coords, coords, coords)
degrees = st.integers(min_value=1, max_value=5).map(SurfaceParams)
shifts = st.integers(min_value=-6, max_value=6)


def test_pairing_formula_values():
    v = MukaiVector(1, 0, -9)
    assert mukai_square(v) == 18
    assert mukai_pairing(v, MukaiVector(1, -1, 2)) == 7
    assert mukai_pairing(v, MukaiVector(0, 1, -9)) == 9
    assert mukai_pairing(v, MukaiVector(-2, 7, -25)) == 7
    assert mukai_pairing(MukaiVector(0, 3, -1), MukaiVector(1, 0, 1)) == 1
    assert mukai_square(MukaiVector(0, 3, -1)) == 18


def test_pairing_respects_degree():
    p2 = SurfaceParams(d=2)
    u = MukaiVector(0, 1, 0)
    assert mukai_square(u, p2) == 4
    assert mukai_square(u) == 2


def test_surface_params_validation():
    with pytest.raises(ValueError):
        SurfaceParams(0)
    with pytest.raises(ValueError):
        SurfaceParams(-3)


def test_vector_requires_integers():
    with pytest.raises(ValueError):
        MukaiVector(1, 0.5, 0)


def test_vector_arithmetic_and_content():
    u = MukaiVector(2, -4, 6)
    assert u.content() == 2
    assert not u.is_primitive()
    assert u.primitive_part() == MukaiVector(1, -2, 3)
    assert (u - u).is_zero()
    assert 3 * MukaiVector(0, 1, -1) == MukaiVector(0, 3, -3)
    assert -u == MukaiVector(-2, 4, -6)
    with pytest.raises(ValueError):
        MukaiVector(0, 0, 0).primitive_part()
    with pytest.raises(TypeError):
        MukaiVector(1, 0, 0) * Fraction(1, 2)


def test_coerce():
    assert MukaiVector.coerce([1, 0, -9]) == MukaiVector(1, 0, -9)
    assert MukaiVector.coerce(MukaiVector(0, 1, 0)) == MukaiVector(0, 1, 0)
    assert MukaiVector.coerce("1,0,-9".split(",")) == MukaiVector(1, 0, -9)
    assert MukaiVector.coerce(["0", " 3", "-1"]) == MukaiVector(0, 3, -1)
    with pytest.raises(ValueError):
        MukaiVector.coerce([1, 2])
    # no component is truncated: each non-integer is named in the error
    for value, component in [
        ((0, 2.5, -1), "c=2.5"),
        ((1.7, Fraction(1, 2), -9.9), "r=1.7"),
        ((1, 0, Fraction(-9)), "s=Fraction(-9, 1)"),
        ((1.0, 0, -9), "r=1.0"),
        (("1", "0", "-9.5"), "s='-9.5'"),
        (("1", "x", "-9"), "c='x'"),
    ]:
        with pytest.raises(ValueError, match=f"must be integers, got {re.escape(component)}$"):
            MukaiVector.coerce(value)
    with pytest.raises(ValueError, match="c=2.5"):
        candidate_walls((0, 2.5, -1))
    with pytest.raises(ValueError, match="r=1.5"):
        stratum_dims([(1.5, -1, 2), (0, 1, -11)], MukaiVector(1, 0, -9))


def test_line_bundle_vector_is_spherical():
    for k in range(-5, 6):
        assert mukai_square(line_bundle_vector(k)) == -2
    assert line_bundle_vector(-3) == MukaiVector(1, -3, 10)
    assert line_bundle_vector(2, SurfaceParams(d=2)) == MukaiVector(1, 2, 9)


def test_tensor_twist_values():
    assert tensor_twist(MukaiVector(1, 0, -9), 1) == MukaiVector(1, 1, -8)
    assert tensor_twist(MukaiVector(0, 1, -7), 2) == MukaiVector(0, 1, -3)


def test_spherical_reflect_rejects_non_spherical():
    with pytest.raises(ValueError):
        spherical_reflect(MukaiVector(1, 0, -9), MukaiVector(0, 1, 0))


def test_dual_shift():
    assert dual_shift(MukaiVector(1, 0, -9)) == MukaiVector(-1, 0, 9)
    assert dual_shift(MukaiVector(0, 3, -1)) == MukaiVector(0, 3, 1)


def test_phi_pushforward_hilbert_to_torsion():
    # n = d m^2 + 1 sends (1, 0, 1-n) to (0, m, -1)
    assert phi_pushforward(MukaiVector(1, 0, -9), 3) == MukaiVector(0, 3, -1)
    assert phi_pushforward(MukaiVector(1, 0, -4), 2) == MukaiVector(0, 2, -1)
    assert phi_pushforward(MukaiVector(1, 0, -1), 1) == MukaiVector(0, 1, -1)
    p2 = SurfaceParams(d=2)
    assert phi_pushforward(MukaiVector(1, 0, -8), 2, p2) == MukaiVector(0, 2, -1)


def test_phi_pushforward_wall_classes():
    cases = {
        (-1, 3, -9): (0, 0, 1),
        (-1, 3, -10): (1, 0, 1),
        (-1, 4, -16): (1, 1, 1),
        (2, -5, 13): (-1, 1, -2),
        (-2, 7, -25): (1, 1, 2),
    }
    for src, dst in cases.items():
        assert phi_pushforward(MukaiVector(*src), 3) == MukaiVector(*dst)


@given(vectors, vectors, degrees, shifts)
def test_twist_is_isometry(u, w, p, k):
    assert mukai_pairing(tensor_twist(u, k, p), tensor_twist(w, k, p), p) == mukai_pairing(u, w, p)


@given(vectors, vectors, degrees, shifts)
def test_reflect_in_line_bundle_is_isometry(u, w, p, k):
    t = line_bundle_vector(k, p)
    assert mukai_pairing(spherical_reflect(u, t, p), spherical_reflect(w, t, p), p) == mukai_pairing(u, w, p)


@given(vectors, degrees, shifts)
def test_reflect_is_involution(u, p, k):
    t = line_bundle_vector(k, p)
    assert spherical_reflect(spherical_reflect(u, t, p), t, p) == u


@given(vectors, vectors, degrees)
def test_dual_shift_is_isometry(u, w, p):
    assert mukai_pairing(dual_shift(u), dual_shift(w), p) == mukai_pairing(u, w, p)


steps = st.one_of(st.tuples(st.just("twist"), shifts), st.just(("dual_shift", 0)))


@given(vectors, vectors, degrees, st.lists(steps, max_size=6))
@example(MukaiVector(1, 0, -9), MukaiVector(0, 3, -1), SurfaceParams(2), [("twist", 2), ("dual_shift", 0), ("twist", -3)])
def test_words_with_dual_shift_match_closed_forms(u, w, p, word):
    """A composition of twists and dual shifts acts step by step as
    (r, c, s) -> (r, c + rk, s + 2dck + drk^2) and (r, c, s) -> (-r, c, -s),
    and keeps the pairing."""
    r, c, s = u.as_tuple()
    u_img, w_img = u, w
    for kind, k in word:
        if kind == "twist":
            r, c, s = r, c + r * k, s + 2 * p.d * c * k + p.d * r * k * k
            u_img, w_img = tensor_twist(u_img, k, p), tensor_twist(w_img, k, p)
        else:
            r, c, s = -r, c, -s
            u_img, w_img = dual_shift(u_img), dual_shift(w_img)
    assert u_img == MukaiVector(r, c, s)
    assert mukai_pairing(u_img, w_img, p) == mukai_pairing(u, w, p)


@given(vectors, vectors, degrees, shifts)
def test_phi_is_isometry(u, w, p, m):
    assert mukai_pairing(phi_pushforward(u, m, p), phi_pushforward(w, m, p), p) == mukai_pairing(u, w, p)


@given(vectors, degrees, shifts)
def test_phi_pullback_inverts_pushforward(u, p, m):
    assert phi_pullback(phi_pushforward(u, m, p), m, p) == u
    assert phi_pushforward(phi_pullback(u, m, p), m, p) == u


@given(vectors, degrees)
def test_square_is_even(u, p):
    assert mukai_square(u, p) % 2 == 0
    assert mukai_square(u, p) == mukai_pairing(u, u, p)


@given(vectors, vectors, vectors, degrees)
def test_pairing_is_symmetric_bilinear(u, w, t, p):
    assert mukai_pairing(u, w, p) == mukai_pairing(w, u, p)
    assert mukai_pairing(u + w, t, p) == mukai_pairing(u, t, p) + mukai_pairing(w, t, p)
