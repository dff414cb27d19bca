"""Invariance under a twist or the dual shift: the walls of a vector's
image, against the walls of the vector itself.

Tensoring by O(jH) maps u = (r, c, s) to (r, c + rj, s + 2dcj + drj^2),
and Z_{x,y}(u twisted) = Z_{x-j,y}(u), so every wall moves by x -> x + j
and keeps its radius, and the classes that decompose v along it twist
with it.  The dual shift (r, c, s) -> (-r, c, -s) gives
Z_{x,y}(u dual) = -conj(Z_{-x,y}(u)), so every wall is reflected by
x -> -x.  These relations compare the code with itself on transformed
inputs: they add to the independent oracles and do not replace them.
Phi_m identifies S^[dm^2+1] with M(0, m, -1), so the two sides of a
shared wall must also have the same strata.  An isometry that fixes
(1, 0, 1-n) and swaps the two ends of the movable cone of S^[n] maps the
walls onto themselves, so a certified table is symmetric under it.
"""

import math
from collections import Counter
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from k3walls import (
    DEGENERATE,
    MukaiVector,
    SurfaceParams,
    WallRecord,
    candidate_walls,
    decompositions,
    dual_shift,
    hilbert_walls,
    line_bundle_vector,
    movable_cone,
    mukai_pairing,
    mukai_square,
    path_intersection,
    stratum_dims,
    tensor_twist,
    transport_search,
    wall_locus,
)
from k3walls.charge import Semicircle, VerticalLine

_entries = st.integers(-6, 6)
_vectors = st.builds(MukaiVector, _entries, _entries, _entries)
_degrees = st.integers(1, 3)
_shifts = st.integers(-3, 3).filter(bool)
_x0s = st.integers(-8, 8) | st.fractions(min_value=-8, max_value=8, max_denominator=12)


def _moved(curve, shift=0, sign=1):
    """curve under x -> sign * x + shift."""
    if isinstance(curve, VerticalLine):
        return VerticalLine(sign * curve.x0 + shift)
    return Semicircle(sign * curve.center_x + shift, curve.radius_sq)


def _locus(v, a, p):
    try:
        return wall_locus(v, a, p)
    except ValueError:
        return None


@given(_vectors, _vectors, _degrees, _shifts)
@example(MukaiVector(1, 0, -9), MukaiVector(1, -1, 1), 1, 1)  # a wall of S^[10]
@example(MukaiVector(1, 0, -9), MukaiVector(0, 0, 1), 1, -2)  # the line x = 0
@example(MukaiVector(1, 0, -9), MukaiVector(-1, 3, -9), 1, 2)  # misses the half plane
def test_twist_shifts_wall_locus(v, a, d, j):
    p = SurfaceParams(d=d)
    curve = _locus(v, a, p)
    twisted = _locus(tensor_twist(v, j, p), tensor_twist(a, j, p), p)
    assert twisted == (None if curve is None else _moved(curve, shift=j))


@given(_vectors, _vectors, _degrees)
@example(MukaiVector(0, 3, -1), MukaiVector(1, 1, 0), 1)
def test_dual_shift_reflects_wall_locus(v, a, d):
    p = SurfaceParams(d=d)
    curve = _locus(v, a, p)
    reflected = _locus(dual_shift(v), dual_shift(a), p)
    assert reflected == (None if curve is None else _moved(curve, sign=-1))


def _candidate_curves(v, p, y_min):
    search = candidate_walls(v, None, p, y_min=y_min)
    return [rec.curve for rec in search.records], search.complete


_y_mins = st.sampled_from([F(1), F(1, 2), F(3, 2)])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(-5, 5), _degrees.filter(lambda d: d <= 2), _shifts, _y_mins)
@example(3, -1, 1, 1, F(1))
@example(2, 1, 2, -1, F(1))
def test_twist_shifts_candidate_walls(m, k, d, j, y_min):
    """(0, m, k) twisted by O(jH) is (0, m, k + 2dmj): the same circles,
    in the same order, moved by j."""
    p = SurfaceParams(d=d)
    v = MukaiVector(0, m, k)
    curves, complete = _candidate_curves(v, p, y_min)
    twisted, twisted_complete = _candidate_curves(tensor_twist(v, j, p), p, y_min)
    assert twisted == [_moved(curve, shift=j) for curve in curves]
    assert twisted_complete == complete


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(-5, 5), _y_mins)
@example(3, -1, F(1))
def test_dual_shift_reflects_candidate_walls(m, k, y_min):
    """dual_shift(0, m, k) = (0, m, -k): the same circles, reflected."""
    p = SurfaceParams(d=1)
    v = MukaiVector(0, m, k)
    curves, complete = _candidate_curves(v, p, y_min)
    reflected, reflected_complete = _candidate_curves(dual_shift(v), p, y_min)
    assert reflected == [_moved(curve, sign=-1) for curve in curves]
    assert reflected_complete == complete


@given(_vectors, _vectors, _degrees, _shifts, _x0s)
@example(MukaiVector(1, 0, -9), MukaiVector(0, 0, 1), 1, 1, 0)  # along x = 0: DEGENERATE
@example(MukaiVector(1, 0, -9), MukaiVector(0, 0, 1), 1, 1, F(1, 2))  # beside it: None
@example(MukaiVector(1, 0, -9), MukaiVector(1, -1, 1), 1, 2, F(-5))  # the center
@example(MukaiVector(1, 0, -9), MukaiVector(1, -1, 1), 1, -1, F(-1))  # tangent: None
@example(MukaiVector(1, 0, -9), MukaiVector(1, -1, 1), 1, 3, -2)  # an int x0
def test_path_intersection_follows_the_twist(v, a, d, j, x0):
    """The path x = x0 + j meets the twisted wall at the height where
    x = x0 meets the wall: the same y^2, DEGENERATE or None."""
    p = SurfaceParams(d=d)
    curve = _locus(v, a, p)
    twisted = _locus(tensor_twist(v, j, p), tensor_twist(a, j, p), p)
    if curve is None:
        return
    expected = path_intersection(curve, x0)
    got = path_intersection(twisted, x0 + j)
    if expected is None or expected is DEGENERATE:
        assert got is expected
    else:
        assert type(got) is F and got == expected


def _stratum(parts, v, p):
    """Dimensions of the stratum of parts, or its error up to the part it names."""
    try:
        dims = stratum_dims(parts, v, p)
    except ValueError as exc:
        return str(exc).split(" at part")[0]
    return dims.part_moduli_dims, dims.fiber_dims, dims.stratum_dim


def test_twist_carries_decompositions():
    """Twist v and a semicircular Hilbert wall of class a by O(jH): the
    wall of (T_j v, T_j a) has the decompositions of v at the wall, each
    part twisted and in the same order, and every stratum keeps its
    dimensions or its error.  d = 1, 2, n <= 20, j in {1, -1, 2}."""
    cases = 0
    for d in (1, 2):
        p = SurfaceParams(d=d)
        for n in range(2, 21):
            search = hilbert_walls(n, None, p)
            v = search.vector
            for w in search.records:
                if not isinstance(w.curve, Semicircle):
                    continue
                decs = decompositions(v, w, 3, p)
                for j in (1, -1, 2):
                    tv, ta = tensor_twist(v, j, p), tensor_twist(w.a, j, p)
                    tw = WallRecord(ta, w.a_sq, w.pairing_va, w.gamma, wall_locus(tv, ta, p), w.wall_type)
                    twisted = decompositions(tv, tw, 3, p)
                    assert [dec.parts for dec in twisted] == [
                        tuple(tensor_twist(u, j, p) for u in dec.parts) for dec in decs
                    ]
                    assert [_stratum(dec.parts, tv, p) for dec in twisted] == [
                        _stratum(dec.parts, v, p) for dec in decs
                    ]
                    cases += 1
    assert cases > 1000


def _effective_strata(v, w, p):
    """The multiset of stratum dims of every decomposition of v at w (no
    cap on the parts) that stratum_dims accepts."""
    dims = Counter()
    for dec in decompositions(v, w, 10**9, p):
        try:
            dims[stratum_dims(dec.parts, v, p).stratum_dim] += 1
        except ValueError:
            pass
    return dims


def test_phi_m_carries_strata():
    """Phi_m identifies S^[n], n = dm^2 + 1, with M(0, m, -1): on each
    semicircular wall of hilbert_walls(n), and the same row of its
    transport_search, both sides must give the same multiset of effective
    stratum dims.  d = 1, 2 and m = 1..7 share 834 such walls.

    They agree on all but 15, and each of those differs in exactly one
    stratum, for a known reason:
    - at gamma = 2dm/(2dm^2 + 1), once per table, the wall is totally
      semistable on the Hilbert side, with the spherical witness
      s = v(O(-mH)), <s, v> = -1, as its class up to sign; there the
      chain model counts one extra stratum of dimension v^2 + 2, the whole
      space (S^[10] at 6/19 is one of them);
    - at S^[10], gamma = 4/13, the Hilbert side lists the parts in the
      order (a, a, b), which raises at a negative fibre, while the
      M(0, 3, -1) side lists its parts in an order that passes and counts
      a stratum of dimension 12, as (a, b, a) and (b, a, a) do on the
      Hilbert side.
    Mending those two (ROADMAP items 18 and 16) shrinks this list.
    """
    walls = 0
    differ = {}
    for d in (1, 2):
        p = SurfaceParams(d=d)
        for m in range(1, 8):
            search = hilbert_walls(d * m * m + 1, None, p)
            moved = transport_search(search, m, p)
            for w, tw in zip(search.records, moved.records):
                if not isinstance(w.curve, Semicircle):
                    continue
                assert isinstance(tw.curve, Semicircle)
                walls += 1
                ours = _effective_strata(search.vector, w, p)
                theirs = _effective_strata(moved.vector, tw, p)
                if ours != theirs:
                    differ[d, m, w.gamma] = (ours - theirs, theirs - ours)
            gamma = F(2 * d * m, 2 * d * m * m + 1)
            full = mukai_square(search.vector, p) + 2
            assert differ.pop((d, m, gamma)) == (Counter({full: 1}), Counter())
            witness = line_bundle_vector(-m, p)
            assert mukai_pairing(witness, search.vector, p) == -1
            (rec,) = [w for w in search.records if w.gamma == gamma]
            assert rec.a in (witness, -witness)
    assert walls == 834
    assert differ == {(1, 3, F(4, 13)): (Counter(), Counter({12: 1}))}


def _pair(u, w, d):
    """The Mukai pairing of two triples, written out."""
    return 2 * d * u[1] * w[1] - u[0] * w[2] - w[0] * u[2]


def _cone_involution(n, d, gamma_max):
    """The integral isometry g with g(v) = v, v = (1, 0, 1-n), that sends
    w0 = (0, 1, 0) to e*w1 and w1 to e*w0, e = +-1, where w1 is the
    primitive part of (P, -Q, P(n-1)) and P/Q = gamma_max: w0 and w1 span
    the rays of the two ends of the movable cone.  Returned as the images
    of (1, 0, 0), (0, 1, 0) and (0, 0, 1), or None when w0^2 != w1^2 or
    neither sign is integral.

    A vector x is alpha*v + beta*w0 + gamma*w1 with alpha = <x,v>/v^2
    (v is orthogonal to both w) and (beta, gamma) solving the Gram system
    of w0 and w1; g(x) = alpha*v + e*(beta*w1 + gamma*w0).
    """
    v, w0 = (1, 0, 1 - n), (0, 1, 0)
    big_p, big_q = gamma_max.numerator, gamma_max.denominator
    content = math.gcd(big_p, big_q, big_p * (n - 1))
    w1 = (big_p // content, -big_q // content, big_p * (n - 1) // content)
    sq = _pair(w1, w1, d)
    if sq != _pair(w0, w0, d):
        return None
    cross, v_sq = _pair(w0, w1, d), _pair(v, v, d)
    det = sq * sq - cross * cross
    for e in (1, -1):
        images = []
        for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            alpha = F(_pair(x, v, d), v_sq)
            b0, b1 = _pair(x, w0, d), _pair(x, w1, d)
            beta, gamma = F(b0 * sq - b1 * cross, det), F(b1 * sq - b0 * cross, det)
            images.append([alpha * v[i] + e * (beta * w1[i] + gamma * w0[i]) for i in range(3)])
        if all(c.denominator == 1 for image in images for c in image):
            return [tuple(int(c) for c in image) for image in images]
    return None


def _image(g, a):
    return tuple(sum(a[j] * g[j][i] for j in range(3)) for i in range(3))


def test_certified_tables_are_symmetric_under_their_cone_involution():
    """Every certified default table at d <= 3, n <= 80 that has a cone
    involution g is g-symmetric: for every record a but the Lagrangian
    boundary, the slope of g(a) = (r, c, s), -2dc/(r(n-1) + s), is the
    slope of a wall of the table.  g keeps a^2 and <v,a>, so it maps a
    clause class to a clause class, and it swaps the ends gamma = 0 and
    gamma_max; the image comes from lattice algebra, not from the scan.
    27 tables at d <= 2 and 12 at d = 3 have one today, and certifying
    more tables can only add to them.  S^[n] at d = 1 has none for n = 2,
    3, 4, 8 and 10."""
    symmetric, without = Counter(), set()
    for d in (1, 2, 3):
        p = SurfaceParams(d)
        for n in range(2, 81):
            try:
                search = hilbert_walls(n, None, p)
            except ValueError:  # no cone boundary within the default cap
                continue
            if not search.complete:
                continue
            g = _cone_involution(n, d, movable_cone(n, None, p).gamma_max)
            if g is None:
                without.add((d, n))
                continue
            slopes = {rec.gamma for rec in search.records}
            for rec in search.records:
                if rec.wall_type == "boundary_lagrangian":
                    continue
                r, c, s = _image(g, rec.a.as_tuple())
                assert r * (n - 1) + s != 0, (d, n, rec)
                assert F(-2 * d * c, r * (n - 1) + s) in slopes, (d, n, rec)
            symmetric[d] += 1
    assert symmetric[1] + symmetric[2] >= 27 and symmetric[3] >= 12
    assert {(1, n) for n in (2, 3, 4, 8, 10)} <= without
