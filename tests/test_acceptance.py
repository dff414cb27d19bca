"""Acceptance suite: nine numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -q -s` to see the lines as they
print; without -s pytest shows them for failing criteria only.  Every
comparison is exact rational arithmetic unless a runtime bound is stated.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import frozen
from k3walls import (
    MukaiVector,
    central_charge,
    decompositions,
    dual_shift,
    hilbert_vector,
    hilbert_walls,
    moduli_dim,
    movable_cone,
    mukai_pairing,
    mukai_square,
    phi_pushforward,
    positive_classes,
    resolve_walls,
    spherical_reflect,
    stratum_dims,
    tensor_twist,
    transport_walls,
    wall_base_point,
    wall_locus,
)
from k3walls.charge import Semicircle, StabilityPoint, path_intersection
from k3walls.cli import main
from k3walls.crossing import _plane_basis
from k3walls.lattice import line_bundle_vector

F = Fraction
V10 = MukaiVector(*frozen.V10)
VBM = MukaiVector(*frozen.VBM)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    print(f"criterion {num}: PASS - {label}")


def _a_equivalent(got: MukaiVector, expected: MukaiVector, v: MukaiVector) -> bool:
    """Destabilizer classes match up to sign and translation by v."""
    for sign in (1, -1):
        diff = sign * got - expected
        if diff.is_zero():
            return True
        for dv, dd in ((v.r, diff.r), (v.c, diff.c), (v.s, diff.s)):
            if dv != 0:
                if dd % dv == 0 and diff == (dd // dv) * v:
                    return True
                break
        else:
            continue
    return False


def _rows_match(records, expected, v):
    assert len(records) == len(expected)
    for rec, (gamma, a, a_sq, pairing, curve, wall_type) in zip(records, expected):
        assert rec.gamma == gamma
        assert _a_equivalent(rec.a, MukaiVector(*a), v)
        assert rec.a_sq == a_sq
        assert rec.pairing_va == pairing
        assert frozen.curve_tuple(rec.curve) == curve
        assert rec.wall_type == wall_type


def test_criterion_1_wall_table_ten_points():
    with criterion(1, "wall table for 10 points: 12 exact rows in under 1 s"):
        start = time.perf_counter()
        search = hilbert_walls(10, 40)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"search took {elapsed:.3f}s"
        assert search.complete
        assert len(search.records) == 12
        slopes = {rec.gamma for rec in search.records}
        assert slopes == {
            F(0), F(2, 11), F(1, 5), F(2, 9), F(1, 4), F(2, 7), F(4, 13),
            F(6, 19), F(8, 25), F(10, 31), F(14, 43), F(1, 3),
        }
        _rows_match(search.records, frozen.WALLS_N10, V10)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["walls", "--n", "10"]) == 0
        body = [line for line in buf.getvalue().splitlines()[2:] if line and ":" not in line]
        assert len(body) == 12


def test_criterion_2_transported_circles():
    with criterion(2, "transported rows with slope >= 6/19 hit the four exact radii"):
        base = hilbert_walls(10)
        rows = [
            rec
            for rec in transport_walls(base.records, 3, base.vector)
            if rec.gamma is not None and rec.gamma >= F(6, 19)
        ]
        curves = [rec.curve for rec in rows if rec.curve is not None]
        assert len(curves) == 4
        assert all(c.center_x == F(-1, 6) for c in curves)
        assert {c.radius_sq for c in curves} == {F(37, 36), F(49, 36), F(61, 36), F(85, 36)}
        _rows_match(rows, frozen.TRANSPORT_MIN_6_19, VBM)


def test_criterion_3_small_point_counts():
    with criterion(3, "wall tables for 2, 3, 4, 8 points are exact"):
        for n in (2, 3, 4, 8):
            search = hilbert_walls(n)
            assert search.complete
            _rows_match(search.records, frozen.WALLS_BY_N[n], hilbert_vector(n))
        assert {r.gamma for r in hilbert_walls(2).records} == {F(0), F(2, 3), F(1)}
        n3 = hilbert_walls(3).records
        assert len(n3) == 2 and all(r.wall_type == "divisorial" for r in n3)
        n4 = hilbert_walls(4).records
        assert len(n4) == 3
        assert next(r for r in n4 if r.gamma == F(2, 5)).wall_type == "flopping"
        n8 = hilbert_walls(8).records
        assert len(n8) == 9
        assert next(r for r in n8 if r.gamma == F(3, 8)).wall_type == "divisorial"


def test_criterion_4_movable_cone_endpoints():
    with criterion(4, "movable cone endpoints for n = 2, 3, 4, 8, 10"):
        for n, gamma_max in frozen.GAMMA_MAX.items():
            cone = movable_cone(n)
            assert cone.gamma_max == gamma_max
            assert cone.gamma_min == 0


def _path_hits(search, x0, y_min=F(1)):
    hits = []
    for rec in search.records:
        if rec.curve is None:
            continue
        y_sq = path_intersection(rec.curve, x0)
        if isinstance(y_sq, Fraction) and y_sq > y_min * y_min:
            hits.append((rec.gamma, rec.a.as_tuple(), y_sq))
    hits.sort(key=lambda item: -item[2])
    return hits


def test_criterion_5_path_walk():
    with criterion(5, "vertical path crossings at x0 = -3 and x0 = -1/6"):
        hits10 = _path_hits(hilbert_walls(10), F(-3))
        assert [h[2] for h in hits10] == [F(15), F(12), F(9), F(6), F(3), F(3, 2)]
        assert hits10 == frozen.PATH_N10_XM3
        hits_bm = _path_hits(resolve_walls(VBM), F(-1, 6))
        assert [h[2] for h in hits_bm] == [F(85, 36), F(61, 36), F(49, 36), F(37, 36)]
        assert hits_bm == frozen.PATH_BM_XM1_6


def _wall(v, gamma):
    search = hilbert_walls(10) if v == V10 else resolve_walls(v)
    return next(r for r in search.records if r.gamma == gamma)


def test_criterion_6_decomposition_lists():
    with criterion(6, "all ten flopping walls decompose exactly as listed"):
        for (vec, gamma), expected in frozen.DECOMPOSITIONS.items():
            v = MukaiVector(*vec)
            got = decompositions(v, _wall(v, gamma), parts_max=3)
            assert [tuple(u.as_tuple() for u in d.parts) for d in got] == [
                parts for parts, _ in expected
            ], f"wall {gamma} of {v}"


def test_criterion_7_dimension_suite():
    with criterion(7, "stratum and fiber dimensions at all ten walls"):
        assert moduli_dim(V10) == moduli_dim(VBM) == 20
        hilbert_first = {}
        for gamma in (F(2, 11), F(1, 5), F(2, 9), F(1, 4), F(2, 7), F(4, 13)):
            entries = frozen.DECOMPOSITIONS[(frozen.V10, gamma)]
            reports = []
            for parts, dims in entries:
                vectors = [MukaiVector(*u) for u in parts]
                if dims is None:
                    continue
                rep = stratum_dims(vectors, V10)
                assert list(rep.part_moduli_dims) == dims[0]
                assert list(rep.fiber_dims) == dims[1]
                assert rep.stratum_dim == dims[2]
                reports.append(rep)
            hilbert_first[gamma] = reports
        assert [hilbert_first[g][0].stratum_dim for g in (F(2, 11), F(1, 5), F(2, 9), F(1, 4))] == [12, 13, 14, 15]
        assert {rep.stratum_dim for rep in hilbert_first[F(2, 7)]} == {16, 15, 14}
        assert {tuple(rep.fiber_dims) for rep in hilbert_first[F(2, 7)]} == {(4,), (5,), (2, 4)}
        assert [rep.stratum_dim for rep in hilbert_first[F(4, 13)]] == [16]
        assert [hilbert_first[g][0].fiber_dims[0] for g in (F(2, 11), F(1, 5), F(2, 9), F(1, 4))] == [8, 7, 6, 5]
        assert hilbert_first[F(4, 13)][0].fiber_dims == (4,)

        bm_order = [F(14, 43), F(10, 31), F(8, 25), F(6, 19)]
        strata, fibers = [], []
        for gamma in bm_order:
            parts, dims = frozen.DECOMPOSITIONS[(frozen.VBM, gamma)][0]
            rep = stratum_dims([MukaiVector(*u) for u in parts], VBM)
            assert (list(rep.part_moduli_dims), list(rep.fiber_dims), rep.stratum_dim) == dims
            strata.append(rep.stratum_dim)
            fibers.append(rep.fiber_dims[0])
        assert strata == [12, 14, 14, 18]
        assert fibers == [8, 6, 6, 2]


def test_criterion_8_torsion_candidates():
    with criterion(8, "candidate search contains the known torsion circles"):
        from k3walls import candidate_walls

        for vec, true_radii in frozen.TRUE_CIRCLES_ABOVE_1.items():
            search = candidate_walls(MukaiVector(*vec), 40)
            assert search.complete
            radii = {rec.curve.radius_sq for rec in search.records}
            assert true_radii <= radii, f"missing circles for {vec}"
            assert all(rec.wall_type == "candidate" for rec in search.records)
            got = [
                (rec.a.as_tuple(), rec.a_sq, rec.pairing_va, rec.curve.radius_sq)
                for rec in search.records
            ]
            assert got == frozen.CANDIDATES[vec]


def test_criterion_9_property_suites():
    with criterion(9, "property suites in under 30 s"):
        start = time.perf_counter()
        rng = random.Random(20260814)

        def rand_vec(lo=-30, hi=30):
            return MukaiVector(rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi))

        # isometry suite: 10^4 random (u, w, g) triples
        for _ in range(10_000):
            u, w = rand_vec(), rand_vec()
            kind = rng.randrange(4)
            if kind == 0:
                k = rng.randint(-5, 5)
                gu, gw = tensor_twist(u, k), tensor_twist(w, k)
            elif kind == 1:
                t = line_bundle_vector(rng.randint(-4, 4))
                gu, gw = spherical_reflect(u, t), spherical_reflect(w, t)
            elif kind == 2:
                gu, gw = dual_shift(u), dual_shift(w)
            else:
                m = rng.randint(-4, 4)
                gu, gw = phi_pushforward(u, m), phi_pushforward(w, m)
            assert mukai_pairing(gu, gw) == mukai_pairing(u, w)

        # wall locus invariance under a -> a + m v: 10^3 random triples
        done = 0
        while done < 1_000:
            v, a, m = rand_vec(-10, 10), rand_vec(-10, 10), rng.randint(-6, 6)
            try:
                first = wall_locus(v, a)
                second = wall_locus(v, a + m * v)
            except ValueError:
                continue
            assert first == second
            done += 1

        # additivity of the central charge over every decomposition
        for (vec, gamma), entries in frozen.DECOMPOSITIONS.items():
            v = MukaiVector(*vec)
            w = _wall(v, gamma)
            for side in ("on", "plus"):
                pt = wall_base_point(w, side)
                zv = central_charge(v, pt)
                for parts, _ in entries:
                    assert sum(central_charge(MukaiVector(*u), pt).re for u in parts) == zv.re
                    assert (
                        sum(central_charge(MukaiVector(*u), pt).im_coeff for u in parts)
                        == zv.im_coeff
                    )

        # doubling the rank bound changes nothing
        for n in (2, 3, 4, 8, 10):
            base = hilbert_walls(n)
            doubled = hilbert_walls(n, 8 * n)
            assert base.records == doubled.records
            assert base.complete and doubled.complete

        # brute-force box oracle for positive classes at all ten walls
        for (vec, gamma) in frozen.DECOMPOSITIONS.keys():
            v = MukaiVector(*vec)
            w = _wall(v, gamma)
            b1, b2 = (MukaiVector(*b) for b in _plane_basis(v, w.a))
            x0 = w.curve.center_x
            box = set()
            for mm in range(-50, 51):
                for nn in range(-50, 51):
                    u = mm * b1 + nn * b2
                    if u.is_zero() or mukai_square(u) < -2:
                        continue
                    if not u.is_primitive() and mukai_square(u.primitive_part()) <= 0:
                        continue
                    lam = F(u.c - u.r * x0) / F(v.c - v.r * x0)
                    if not 0 < lam < 1:
                        continue
                    box.add(u)
            assert set(positive_classes(v, w)) == box

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"
