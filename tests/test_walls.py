"""Wall enumeration: criterion tables, movable cones, transport, candidates."""

import itertools
import math
from fractions import Fraction

import pytest

import frozen
from k3walls import (
    MukaiVector,
    SurfaceParams,
    beauville_mukai_partner,
    candidate_walls,
    gamma_of_wall,
    hilbert_n_of,
    hilbert_vector,
    hilbert_walls,
    movable_cone,
    phi_pushforward,
    resolve_walls,
    transport_walls,
    wall_locus,
)
from k3walls.charge import Semicircle, VerticalLine
from k3walls.walls import (
    CANDIDATE_WORK_LIMIT,
    _candidate_rank_bound,
    _candidate_work,
    _clause_type,
    _slope_classes,
)

F = Fraction


@pytest.mark.parametrize("n", sorted(frozen.WALLS_BY_N))
def test_hilbert_wall_tables(n):
    search = hilbert_walls(n)
    assert search.mode == "hilbert"
    assert search.complete
    assert [frozen.record_tuple(rec) for rec in search.records] == frozen.WALLS_BY_N[n]


def test_hilbert_vector_helpers():
    assert hilbert_vector(10) == MukaiVector(1, 0, -9)
    assert hilbert_n_of(MukaiVector(1, 0, -9)) == 10
    assert hilbert_n_of(MukaiVector(0, 3, -1)) is None
    assert hilbert_n_of(MukaiVector(1, 0, 1)) is None
    with pytest.raises(ValueError):
        hilbert_vector(1)


@pytest.mark.parametrize("n, expected", sorted(frozen.GAMMA_MAX.items()))
def test_movable_cone_boundaries(n, expected):
    cone = movable_cone(n)
    assert cone.gamma_min == 0
    assert cone.gamma_max == expected


def test_hilbert_tables_match_closed_forms():
    """Every Hilbert table for d <= 7, n <= 60 against Bayer-Macri
    Prop. 10.3 (the nef cone) and Prop. 13.1 (the Lagrangian end), written
    in frozen.py from d and n alone.  Tables that raise are out of scope."""
    nef_checked = split_checked = 0
    for d in range(1, 8):
        p = SurfaceParams(d)
        for n in range(2, 61):
            try:
                rows = hilbert_walls(n, p=p).records
            except ValueError:
                continue
            nef = frozen.nef_gamma(n, d)
            if nef is not None:
                assert next(r.gamma for r in rows if r.gamma > 0) == nef, (n, d)
                nef_checked += 1
            lagrangian = frozen.lagrangian_gamma(n, d)
            types = [r.wall_type for r in rows]
            if lagrangian is None:
                assert "boundary_lagrangian" not in types, (n, d)
            else:
                assert (rows[-1].gamma, types[-1]) == (lagrangian, "boundary_lagrangian"), (n, d)
                assert types.count("boundary_lagrangian") == 1, (n, d)
                split_checked += 1
    assert nef_checked and split_checked


def test_gamma_circle_identity():
    """For every semicircular wall of S^[n]: center = -1/gamma and
    radius^2 = 1/gamma^2 - (n - 1)."""
    for n in (2, 3, 4, 8, 10):
        for rec in hilbert_walls(n).records:
            if rec.gamma == 0 or rec.curve is None:
                continue
            assert rec.curve.center_x == -1 / rec.gamma
            assert rec.curve.radius_sq == 1 / rec.gamma ** 2 - (n - 1)


def test_gamma_of_wall_matches_table():
    for gamma, a, _, _, _, _ in frozen.WALLS_N10:
        assert gamma_of_wall(10, MukaiVector(*a)) == gamma
    with pytest.raises(ValueError, match="proportional"):
        gamma_of_wall(10, MukaiVector(1, 0, -9))
    # r(n-1) + s = 0 with c != 0: the wall's ray misses the chart
    with pytest.raises(ValueError) as info:
        gamma_of_wall(10, MukaiVector(1, 1, -9))
    assert str(info.value) == "wall of (1, 1, -9) does not meet the movable-cone chart"


def _criterion_clause(n, sq, k):
    """True for a divisorial clause on (a^2, <v,a>), False for a flopping
    one, None when (sq, k) satisfies no clause of the wall criterion."""
    if (sq, k) in ((-2, 0), (0, 1), (0, 2)):
        return True
    if (
        (sq == -2 and 1 <= k <= n - 1)
        or (sq == 0 and 3 <= k <= n - 1)
        or (sq >= 2 and sq % 2 == 0 and 2 * sq < n - 1 and 2 * sq + 1 <= k <= n - 1)
    ):
        return False
    return None


def test_wall_classes_solve_the_criterion():
    """Every emitted non-boundary wall class satisfies one clause on
    (a^2, <v,a>) and spans a hyperbolic plane with v."""
    for n in (2, 3, 4, 8, 10):
        for rec in hilbert_walls(n).records:
            if rec.wall_type == "boundary_lagrangian":
                assert rec.a_sq == 0 and rec.pairing_va == 0
                continue
            k, sq = rec.pairing_va, rec.a_sq
            assert _criterion_clause(n, sq, k) is not None
            # span(v, a) is hyperbolic: <v,a>^2 - v^2 a^2 > 0
            assert k * k - 2 * (n - 1) * sq > 0


def _clause_list(n):
    """{(a^2, <v,a>): divisorial} for every clause of the wall criterion,
    written out clause by clause."""
    clauses = {(-2, 0): True, (0, 1): True, (0, 2): True}
    for k in range(1, n):
        clauses[(-2, k)] = False
    for k in range(3, n):
        clauses[(0, k)] = False
    for a_sq in range(2, n, 2):
        if 2 * a_sq < n - 1:
            for k in range(2 * a_sq + 1, n):
                clauses[(a_sq, k)] = False
    return clauses


def test_clause_type_matches_clause_list():
    """The closed-form clause test agrees with the written-out clause list
    on a grid around every clause, and the scan bounds k_max and
    A_max/2 are the largest <v,a> and a^2/2 of any clause."""
    for n in range(2, 81):
        clauses = _clause_list(n)
        for a_sq in range(-6, n + 4):
            for k in range(-3, n + 4):
                assert _clause_type(n, a_sq, k) == clauses.get((a_sq, k)), (n, a_sq, k)
        assert max(k for _, k in clauses) == max(n - 1, 2)
        assert max(a_sq for a_sq, _ in clauses) // 2 == max(n - 2, 0) // 4


def _brute_clause_classes(n, r_max, d):
    """{((r, c, s), divisorial)} for the primitive clause classes with
    |r| <= r_max, by a plain scan of r, k = <v,a> and c, where
    -2 <= a^2 = 2dc^2 - 2rs <= sq_max bounds |c| from both sides."""
    k_max = max(n - 1, 2)
    sq_max = max(sq for sq in range(-2, n) for k in range(k_max + 1) if _criterion_clause(n, sq, k) is not None)
    found = set()
    for r in range(-r_max, r_max + 1):
        for k in range(k_max + 1):
            s = r * (n - 1) - k
            if 2 * r * s + sq_max < 0:
                continue
            c_min = math.isqrt(max(2 * r * s - 2, 0) // (2 * d))
            c_max = math.isqrt((2 * r * s + sq_max) // (2 * d)) + 1
            for c in [*range(-c_max, -c_min + 1), *range(max(c_min, 1), c_max + 1)]:
                sq = 2 * d * c * c - 2 * r * s  # a^2 for a = (r, c, s); <v,a> = k
                if not -2 <= sq <= sq_max:
                    continue
                divisorial = _criterion_clause(n, sq, k)
                if divisorial is not None and math.gcd(r, c, s) == 1:
                    found.add(((r, c, s), divisorial))
    return found


def _brute_cone_boundary(n, d, r_first):
    """(least |r|, least slope) of the primitive divisorial classes of
    positive slope, by a plain scan of |r| = 1, 2, ...: a = (r, c, s) with
    (a^2, <v,a>) = (-2, 0), (0, 1) or (0, 2) has s = r(n-1) - <v,a> and
    d c^2 = rs + a^2/2, of slope 2dc / |r(n-1) + s| for c > 0.  The scan
    gives up with (None, None) when no class has |r| <= r_first.  After
    the first class it goes on until no class can have a smaller slope:
    with X = 2(n-1)r - <v,a>, the clause reads
    X^2 - 4d(n-1)c^2 = N with 0 < N <= 4(n-1), so gamma^2 =
    (d/(n-1))(1 - N/X^2) >= (d/(n-1))(1 - 4(n-1)/X^2), and |X| >= 2(n-1)|r| - 2."""
    least_rank = least = None
    for r in itertools.count(1):
        if least is None and r > r_first:
            break
        x = 2 * (n - 1) * r - 2  # the least |X| at this rank
        if least is not None and least * least * (n - 1) * x * x <= d * (x * x - 4 * (n - 1)):
            break
        for rr in (r, -r):
            for a_sq, k in ((-2, 0), (0, 1), (0, 2)):
                s = rr * (n - 1) - k
                q = rr * s + a_sq // 2
                if q <= 0 or q % d:
                    continue
                c = math.isqrt(q // d)
                if d * c * c == q and math.gcd(rr, c, s) == 1:
                    slope = F(2 * d * c, abs(rr * (n - 1) + s))
                    least_rank, least = least_rank or r, min(least or slope, slope)
    return least_rank, least


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slope_classes_match_brute_force(d):
    """The rank-first lattice scan finds exactly the primitive classes of
    a brute-force scan of slope in [0, gamma_max], with the same
    divisorial flags and slopes, and with a^2 and <v,a> as the pairing
    gives them, gamma_max taken from the brute-force divisorial classes of
    any rank (or the Lagrangian slope d/t when d(n-1) = t^2), also when
    the cone bound has rank above r_max."""
    p = SurfaceParams(d=d)
    for n in (2, 3, 4, 5, 7, 10, 13, 17, 22, 29, 32, 40):
        oracle = _brute_clause_classes(n, 2 * n, d)
        slopes = {a: F(-2 * d * a[1], a[0] * (n - 1) + a[2]) for a, _ in oracle}
        m = math.isqrt((n - 1) // d)
        if d * m * m == n - 1:
            top = F(d * m, n - 1)  # slope of (-1, m, 1-n)
        else:
            _, top = _brute_cone_boundary(n, d, 10**6)  # rank 10,800 at n = 40, d = 3
        for r_max in sorted({1, 3, n, 2 * n}):
            expected = {(a, flag) for a, flag in oracle if abs(a[0]) <= r_max and 0 <= slopes[a] <= top}
            scanned = _slope_classes(n, r_max, p, (top.numerator, top.denominator))
            found = [(a.as_tuple(), flag) for a, flag, _, _, _ in scanned]
            assert len(found) == len(set(found))
            assert set(found) == expected, (n, r_max)
            for a, _, (num, den), a_sq, k in scanned:
                assert den > 0 and math.gcd(num, den) == 1 and F(num, den) == slopes[a.as_tuple()]
                r, c, s = a.as_tuple()
                assert (a_sq, k) == (2 * d * c * c - 2 * r * s, r * (n - 1) - s)


def _curve_of_slope(n, d, gamma):
    """The wall of slope gamma in S^[n]: the line x = 0 at gamma = 0, else
    the semicircle of center -1/gamma and radius^2 = 1/gamma^2 - (n-1)/d,
    and None when that radius^2 is not positive (no wall)."""
    if gamma == 0:
        return VerticalLine(F(0))
    radius_sq = 1 / gamma**2 - F(n - 1, d)
    return Semicircle(-1 / gamma, radius_sq) if radius_sq > 0 else None


def test_hilbert_curve_follows_from_slope():
    """The walls of v = (1, 0, 1-n) are fixed by their slope (Bayer-Macri,
    section 13): every curve of hilbert_walls for d <= 7, n <= 80 is
    _curve_of_slope of its record's gamma, and wall_locus gives that curve
    (or raises, where it is None) for every brute-force clause class of
    slope >= 0, the range (0, gamma_max) included."""
    for d in range(1, 8):
        p = SurfaceParams(d=d)
        for n in range(2, 81):
            try:
                search = hilbert_walls(n, None, p)
            except ValueError:
                continue  # no cone boundary class within the default r_max
            for rec in search.records:
                if rec.wall_type == "boundary_lagrangian":
                    assert rec.curve is None and _curve_of_slope(n, d, rec.gamma) is None
                else:
                    assert rec.curve == _curve_of_slope(n, d, rec.gamma), (n, d, rec)
        for n in (2, 3, 5, 8, 10, 17, 22, 26, 30):
            v = hilbert_vector(n)
            for (r, c, s), _ in _brute_clause_classes(n, 2 * n, d):
                gamma = F(-2 * d * c, r * (n - 1) + s)
                if gamma < 0:
                    continue
                expected = _curve_of_slope(n, d, gamma)
                if expected is None:
                    with pytest.raises(ValueError, match="does not meet"):
                        wall_locus(v, MukaiVector(r, c, s), p)
                else:
                    assert wall_locus(v, MukaiVector(r, c, s), p) == expected, (n, d, (r, c, s))


@pytest.mark.parametrize("d", range(1, 31))
def test_cone_boundary_oracle(d):
    """movable_cone, for every n <= 60 with d(n-1) not a square, raises
    exactly when the brute force finds no divisorial class of positive
    slope with |r| <= r_max, and otherwise returns the least such slope
    of the brute force.  The range holds the boundary shapes that d <= 3
    misses:

    - n = 2: a^2 = -2, <v,a> = 0 reads r^2 - dc^2 = 1, the unit equation
      itself.  For d = 13, 22, 29 its least unit (649, 180), (197, 42),
      (9801, 1820) is beyond rank 8, so the default search raises; for
      d = 3 the unit (2, 1) gives the class (-1, 1, -3) of <v,a> = 2 and
      slope 3/2, not a class of slope 0.
    - d = 4 (not squarefree): at n = 3 the unit (3, 1) of x^2 - 8y^2 = 1
      has x + 1 = 2(n-1), but 2r^2 - 4c^2 = 1 has no solution, and the
      boundary is (-1, 1, -4) of <v,a> = 2, slope 4/3; at n = 11 the unit
      (19, 3) has x + 1 = 2(n-1) with 10 - 4 = 6 != 1, and the boundary
      is (2, -3, 18) of <v,a> = 2, slope 12/19, not 2/5.
    - n - 1 = 2: both x and -x are +-1 mod n-1, and the two classes of a
      unit have different ranks: at d = 3 the unit (5, 2) gives (3, -2, 4)
      of rank 3 and (-1, 1, -3) of rank 1, both of slope 6/5."""
    p = SurfaceParams(d=d)
    for n in range(2, 61):
        if math.isqrt(d * (n - 1)) ** 2 == d * (n - 1):
            continue
        rank, gamma_max = _brute_cone_boundary(n, d, 4 * n)
        for r_max in (None, 1, 2, 3, n):
            cap = r_max or 4 * n
            if rank is None or rank > cap:
                message = f"no movable-cone boundary class found for n={n} within \\|r\\| <= {cap}; increase r_max$"
                with pytest.raises(ValueError, match=message):
                    movable_cone(n, r_max, p)
            else:
                assert movable_cone(n, r_max, p).gamma_max == gamma_max, (n, r_max)


def _split_rank_bound(n):
    """R* = (floor((N_max + 1)/2) + k_max) // (2(n-1)), N_max = k_max^2 + 4(n-1)."""
    k_max = max(n - 1, 2)
    return ((k_max * k_max + 4 * (n - 1) + 1) // 2 + k_max) // (2 * (n - 1))


def _divisors(m):
    """The positive and negative divisors of m != 0."""
    m = abs(m)
    small = [e for e in range(1, math.isqrt(m) + 1) if m % e == 0]
    positive = set(small) | {m // e for e in small}
    return sorted(positive | {-e for e in positive})


def _split_clause_classes(n, d, t, rank_one=True):
    """{(r, c, s): divisorial} for every primitive class of a clause with
    N = <v,a>^2 - 2(n-1)a^2 != 0, solved clause by clause: with
    X = 2(n-1)r - <v,a> the clause reads (X - 2tc)(X + 2tc) = N, so each
    divisor e of N gives X = (e + N/e)/2 and c = (N/e - e)/(4t), when
    these and r = (X + <v,a>)/(2(n-1)) are integers.  With rank_one, also
    checks that each clause with N = 0 has a primitive class of rank 1."""
    found = {}
    for (a_sq, k), divisorial in _clause_list(n).items():
        big_n = k * k - 2 * (n - 1) * a_sq
        if big_n == 0 and not rank_one:
            continue
        if big_n == 0:
            # X = -2tc: 2(n-1)r + 2tc = k, so c = (k - 2(n-1))/(2t) at r = 1
            assert k % (2 * t) == 0, (n, d, a_sq, k)
            r, c, s = 1, (k - 2 * (n - 1)) // (2 * t), (n - 1) - k
            assert 2 * d * c * c - 2 * r * s == a_sq
            continue
        for e in _divisors(big_n):
            f = big_n // e
            if (e + f) % 2 or (f - e) % (4 * t) or ((e + f) // 2 + k) % (2 * (n - 1)):
                continue
            r, c = ((e + f) // 2 + k) // (2 * (n - 1)), (f - e) // (4 * t)
            s = r * (n - 1) - k
            assert 2 * d * c * c - 2 * r * s == a_sq
            if math.gcd(r, c, s) == 1:
                found[(r, c, s)] = divisorial
    return found


def test_split_rank_bound_oracle():
    """When d(n-1) = t^2, the table equals the one built from an
    independent solution of every clause by the factorisations of N.

    Every class with N != 0 has |r| <= R*.  Its wall has slope
    -2dc / (r(n-1) + s) and is empty unless N > 0 (N is the numerator of
    its radius^2).  The classes with N = 0 all have slope +-d/t, and
    d/t = 1/m is the cone boundary, where the table ends with the
    Lagrangian row."""
    cases = [(n, d) for d in (1, 2, 3) for n in range(2, 121) if math.isqrt(d * (n - 1)) ** 2 == d * (n - 1)]
    assert len(cases) == 23
    for n, d in cases:
        t, m = math.isqrt(d * (n - 1)), math.isqrt((n - 1) // d)
        classes = _split_clause_classes(n, d, t)
        assert all(abs(r) <= _split_rank_bound(n) for r, _, _ in classes), (n, d)
        slopes = {a: F(-2 * d * a[1], a[0] * (n - 1) + a[2]) for a in classes}
        gamma_max = min([F(1, m)] + [slopes[a] for a, flag in classes.items() if flag and slopes[a] > 0])
        groups = {}
        for (r, c, s), divisorial in classes.items():
            k = r * (n - 1) - s
            a_sq = 2 * d * c * c - 2 * r * s
            if k * k - 2 * (n - 1) * a_sq > 0 and 0 <= slopes[(r, c, s)] <= gamma_max:
                groups.setdefault(slopes[(r, c, s)], []).append(((r, c, s), divisorial))
        expected = []
        for gamma in sorted(groups):
            rep = min((a for a, _ in groups[gamma]), key=lambda a: (*map(abs, a), next(x for x in a if x) < 0, a))
            expected.append((gamma, rep, "divisorial" if any(flag for _, flag in groups[gamma]) else "flopping"))
        expected.append((F(1, m), (-1, m, 1 - n), "boundary_lagrangian"))
        search = hilbert_walls(n, None, SurfaceParams(d))
        assert [(rec.gamma, rec.a.as_tuple(), rec.wall_type) for rec in search.records] == expected, (n, d)
        assert search.complete


def _oracle_rows(n, d, classes, gamma_max):
    """(gamma, representative, type) of every wall of the classes
    {(r, c, s): divisorial} with slope in [0, gamma_max] and a nonempty
    locus (N > 0), ascending in gamma."""
    groups = {}
    for (r, c, s), divisorial in classes.items():
        k = r * (n - 1) - s
        slope = F(-2 * d * c, r * (n - 1) + s)
        if k * k - 2 * (n - 1) * (2 * d * c * c - 2 * r * s) > 0 and 0 <= slope <= gamma_max:
            groups.setdefault(slope, []).append(((r, c, s), divisorial))
    rows = []
    for gamma in sorted(groups):
        rep = min((a for a, _ in groups[gamma]), key=lambda a: (*map(abs, a), next(x for x in a if x) < 0, a))
        rows.append((gamma, rep, "divisorial" if any(flag for _, flag in groups[gamma]) else "flopping"))
    return rows


def test_split_lagrangian_class_oracle():
    """When d is not squarefree, d(n-1) = t^2 can hold with n - 1 not d
    times a square; the Lagrangian class orthogonal to v then has rank
    above one ((-2, 3, -18) for d = 4, n = 10).  The table equals the one
    built from the factorisations of N, and ends in the isotropic class
    with <v,a> = 0 of least rank, found by a scan of r."""
    cases = [
        (n, d) for d in (4, 8, 9, 12, 18, 25) for n in range(2, 61) if math.isqrt(d * (n - 1)) ** 2 == d * (n - 1)
    ]
    assert len(cases) == 35
    ranks = set()
    for n, d in cases:
        t = math.isqrt(d * (n - 1))
        # a = (-r, c, -r(n-1)) has <v,a> = 0, and a^2 = 0 reads d c^2 = (n-1) r^2
        r = next(r for r in range(1, t + 1) if math.isqrt((n - 1) * r * r // d) ** 2 * d == (n - 1) * r * r)
        c = math.isqrt((n - 1) * r * r // d)
        ranks.add(r)
        classes = _split_clause_classes(n, d, t, rank_one=False)
        assert all(abs(a[0]) <= _split_rank_bound(n) for a in classes), (n, d)
        boundary = F(d * c, r * (n - 1))
        slopes = [F(-2 * d * a[1], a[0] * (n - 1) + a[2]) for a, flag in classes.items() if flag]
        gamma_max = min([boundary] + [slope for slope in slopes if slope > 0])
        assert gamma_max == boundary == F(d, t)
        expected = _oracle_rows(n, d, classes, gamma_max) + [(boundary, (-r, c, -r * (n - 1)), "boundary_lagrangian")]
        search = hilbert_walls(n, None, SurfaceParams(d))
        assert [(rec.gamma, rec.a.as_tuple(), rec.wall_type) for rec in search.records] == expected, (n, d)
        assert search.complete
        assert movable_cone(n, None, SurfaceParams(d)).gamma_max == gamma_max
    assert ranks == {1, 2, 3, 5}


def _nonsplit_rank_bound(n, d, gamma_max):
    """R* = (isqrt(N_max d Q^2 // delta) + k_max) // (2(n-1)) for gamma_max = P/Q,
    delta = dQ^2 - (n-1)P^2, N_max = k_max^2 + 4(n-1)."""
    k_max = max(n - 1, 2)
    big_p, big_q = gamma_max.numerator, gamma_max.denominator
    delta = d * big_q * big_q - (n - 1) * big_p * big_p
    return (math.isqrt((k_max * k_max + 4 * (n - 1)) * d * big_q * big_q // delta) + k_max) // (2 * (n - 1))


def test_nonsplit_rank_bound_oracle():
    """When d(n-1) is not a square, every table reported complete equals
    the one built from a brute-force clause scan to 3R* + 10, where R* is
    the bound of gamma_max = P/Q: with X = 2(n-1)r - <v,a> and
    N = <v,a>^2 - 2(n-1)a^2, every class has gamma^2 = (d/(n-1))(1 - N/X^2),
    so gamma <= P/Q reads X^2 (dQ^2 - (n-1)P^2) <= N dQ^2.  No class with a
    slope in [0, gamma_max] has |r| > R*, and the search certifies from
    r_max = ceil(R*/2) on, and not below it."""
    checked = 0
    for d in (1, 2, 3):
        p = SurfaceParams(d)
        for n in range(2, 31):
            if math.isqrt(d * (n - 1)) ** 2 == d * (n - 1):
                continue
            try:
                search = hilbert_walls(n, None, p)
            except ValueError:
                continue
            if not search.complete:
                continue
            checked += 1
            rank = _nonsplit_rank_bound(n, d, search.records[-1].gamma)
            classes = dict(_brute_clause_classes(n, 3 * rank + 10, d))
            slopes = {}
            for (r, c, s) in classes:
                k, x = r * (n - 1) - s, r * (n - 1) + s
                big_n = k * k - 2 * (n - 1) * (2 * d * c * c - 2 * r * s)
                slopes[(r, c, s)] = F(-2 * d * c, x)
                assert slopes[(r, c, s)] ** 2 == F(d, n - 1) * (1 - F(big_n, x * x)), (n, d, r, c, s)
            gamma_max = min(slopes[a] for a, flag in classes.items() if flag and slopes[a] > 0)
            assert gamma_max == search.records[-1].gamma, (n, d)
            assert all(abs(a[0]) <= rank for a in classes if 0 <= slopes[a] <= gamma_max), (n, d)
            expected = _oracle_rows(n, d, classes, gamma_max)
            assert [(rec.gamma, rec.a.as_tuple(), rec.wall_type) for rec in search.records] == expected, (n, d)
            at_threshold = hilbert_walls(n, (rank + 1) // 2, p)
            assert at_threshold.complete and at_threshold.records == search.records, (n, d)
            try:
                below = hilbert_walls(n, (rank + 1) // 2 - 1, p).complete
            except ValueError:  # no cone boundary class within that r_max
                below = False
            assert not below, (n, d)
    assert checked == 63


def test_certificate_threshold():
    """hilbert_walls(13) has R* = 56: r_max = 27 cannot certify (56 > 54),
    r_max = 28 certifies the 29 walls of the default table."""
    default = hilbert_walls(13)
    assert default.complete and len(default.records) == 29
    assert not hilbert_walls(13, 27).complete
    at_28 = hilbert_walls(13, 28)
    assert at_28.complete and at_28.records == default.records


def test_doubling_stabilization():
    for n in (2, 3, 4, 8, 10):
        base = hilbert_walls(n)
        doubled = hilbert_walls(n, 8 * n)
        assert [frozen.record_tuple(r) for r in base.records] == [
            frozen.record_tuple(r) for r in doubled.records
        ]
        assert base.complete and doubled.complete


def test_small_rmax_reports_incomplete():
    search = hilbert_walls(10, 1)
    assert not search.complete
    assert len(search.records) < 12


def test_large_n_without_cone_bound_raises():
    """The cone boundary is computed first, by unit walks that stop once
    no class of rank at most r_max is left, so a rank cap that reaches no
    boundary class raises before the full clause scan (which at n = 32000
    would visit millions of points)."""
    for n in (32000, 100000, 10**9 + 7):
        with pytest.raises(ValueError, match=f"no movable-cone boundary class found for n={n} within "
                                             r"\|r\| <= 1; increase r_max"):
            hilbert_walls(n, 1)


def test_transport_table():
    base = hilbert_walls(10)
    records = transport_walls(base.records, 3, base.vector)
    kept = [rec for rec in records if rec.gamma is not None and rec.gamma >= F(6, 19)]
    assert [frozen.record_tuple(rec) for rec in kept] == frozen.TRANSPORT_MIN_6_19
    # transport is a bijection preserving slope, square and pairing
    assert len(records) == len(base.records)
    for before, after in zip(base.records, records):
        assert (before.gamma, before.a_sq, before.pairing_va, before.wall_type) == (
            after.gamma,
            after.a_sq,
            after.pairing_va,
            after.wall_type,
        )
        assert after.a == phi_pushforward(before.a, 3)


def test_transport_of_empty_list():
    assert transport_walls([], 3, MukaiVector(1, 0, -9)) == []


def test_transported_circles_share_center():
    base = hilbert_walls(10)
    for rec in transport_walls(base.records, 3, base.vector):
        if rec.curve is not None:
            assert rec.curve.center_x == F(-1, 6)


@pytest.mark.parametrize("vec", sorted(frozen.CANDIDATES))
def test_candidate_tables(vec):
    search = candidate_walls(MukaiVector(*vec), 40)
    assert search.mode == "candidate"
    assert search.complete
    got = [(rec.a.as_tuple(), rec.a_sq, rec.pairing_va, rec.curve.radius_sq) for rec in search.records]
    assert got == frozen.CANDIDATES[vec]
    for rec in search.records:
        assert rec.gamma is None
        assert rec.wall_type == "candidate"


def test_candidates_cover_true_walls():
    """The candidate superset contains every true wall above the radius
    floor; truth for (0, 2, -1) comes from transporting the 5-point table
    through Phi_2."""
    base = hilbert_walls(5)
    true_radii = {
        rec.curve.radius_sq
        for rec in transport_walls(base.records, 2, base.vector)
        if rec.curve is not None
    }
    assert true_radii == frozen.TRUE_RADII_0_2_M1
    cand = candidate_walls(MukaiVector(0, 2, -1), 40)
    cand_radii = {rec.curve.radius_sq for rec in cand.records}
    assert {r for r in true_radii if r > 1} <= cand_radii

    bm = resolve_walls(MukaiVector(0, 3, -1))
    bm_radii = {rec.curve.radius_sq for rec in bm.records if rec.curve is not None and rec.curve.radius_sq > 1}
    cand_bm = candidate_walls(MukaiVector(0, 3, -1), 40)
    assert bm_radii <= {rec.curve.radius_sq for rec in cand_bm.records}


def test_candidate_walls_curves_match_locus():
    v = MukaiVector(0, 2, -1)
    for rec in candidate_walls(v, 40).records:
        assert wall_locus(v, rec.a) == rec.curve


def test_candidate_errors_and_edges():
    with pytest.raises(ValueError):
        candidate_walls(MukaiVector(0, 0, 0))
    with pytest.raises(ValueError):
        candidate_walls(MukaiVector(1, 0, -9))
    # rank-zero vector with no H-component: every wall is vertical,
    # nothing has a radius
    empty = candidate_walls(MukaiVector(0, 0, 5))
    assert empty.records == () and empty.complete
    # sign-normalization: -v gives the same candidate circles
    plus = candidate_walls(MukaiVector(0, 2, -1), 20)
    minus = candidate_walls(MukaiVector(0, -2, 1), 20)
    assert [r.curve for r in plus.records] == [r.curve for r in minus.records]


def test_candidate_ymin_filter():
    loose = candidate_walls(MukaiVector(0, 2, -1), 20, y_min=F(1, 5))
    strict = candidate_walls(MukaiVector(0, 2, -1), 20, y_min=F(3, 2))
    loose_radii = {rec.curve.radius_sq for rec in loose.records}
    strict_radii = {rec.curve.radius_sq for rec in strict.records}
    assert strict_radii < loose_radii
    assert all(r > F(9, 4) for r in strict_radii)
    # with the floor below the smallest true radius, all five true
    # circles of (0, 2, -1) appear among the candidates
    assert frozen.TRUE_RADII_0_2_M1 <= loose_radii


def test_beauville_mukai_partner():
    assert beauville_mukai_partner(MukaiVector(0, 3, -1)) == (10, 3)
    assert beauville_mukai_partner(MukaiVector(0, 2, -1)) == (5, 2)
    assert beauville_mukai_partner(MukaiVector(0, 2, -1), SurfaceParams(d=2)) == (9, 2)
    assert beauville_mukai_partner(MukaiVector(0, 2, -2)) is None
    assert beauville_mukai_partner(MukaiVector(1, 0, -9)) is None


def test_resolve_dispatch():
    assert resolve_walls(MukaiVector(1, 0, -9)).mode == "hilbert"
    bm = resolve_walls(MukaiVector(0, 3, -1))
    assert bm.mode == "transport"
    assert bm.source_vector == MukaiVector(1, 0, -9)
    assert bm.m == 3 and bm.n == 10
    assert resolve_walls(MukaiVector(0, 2, -2)).mode == "candidate"
    assert candidate_walls(MukaiVector(0, 3, -1)).mode == "candidate"
    with pytest.raises(ValueError):
        resolve_walls(MukaiVector(2, 0, 0))
    with pytest.raises(ValueError):
        resolve_walls(MukaiVector(1, 1, 1))


def test_transport_mode_matches_direct_transport():
    bm = resolve_walls(MukaiVector(0, 3, -1))
    base = hilbert_walls(10)
    direct = transport_walls(base.records, 3, base.vector)
    assert list(bm.records) == direct
    assert (bm.vector, bm.source_vector, bm.n, bm.m) == (MukaiVector(0, 3, -1), base.vector, 10, 3)


@pytest.mark.parametrize("d", [1, 2])
def test_default_rank_bound(d):
    """Without r_max a Hilbert search and the search of its partner
    (0, m, -1), n = d m^2 + 1, both run at 4n."""
    p = SurfaceParams(d=d)
    for n in (2, 5, 10):
        assert hilbert_walls(n, p=p) == hilbert_walls(n, 4 * n, p)
    for m in (1, 2):
        n = d * m * m + 1
        base = hilbert_walls(n, 4 * n, p)
        partner = resolve_walls(MukaiVector(0, m, -1), None, p)
        assert partner.records == tuple(transport_walls(base.records, m, base.vector, p))
        assert partner.complete == base.complete


def test_search_bounds_validation():
    """The rank cap and the radius cut are checked by the searches that
    read them, before the vector; the cone search checks n."""
    cases = [
        (lambda: hilbert_walls(10, 0), "r_max must be positive"),
        (lambda: movable_cone(10, -3), "r_max must be positive"),
        (lambda: candidate_walls(MukaiVector(0, 2, -1), 0), "r_max must be positive"),
        (lambda: candidate_walls(MukaiVector(0, 2, -1), 10, y_min=F(-1)), "y_min must be non-negative"),
        (lambda: candidate_walls(MukaiVector(1, 0, -9), y_min=F(-1, 2)), "y_min must be non-negative"),
        (lambda: movable_cone(1), "need n >= 2, got 1"),
    ]
    for search, message in cases:
        with pytest.raises(ValueError) as info:
            search()
        assert str(info.value) == message
    v = MukaiVector(0, 3, -1)
    assert candidate_walls(v, y_min=2) == candidate_walls(v, y_min=F(2)) != candidate_walls(v)


def test_degree_two_surface_walls():
    """d = 2: the 9-point Hilbert scheme pairs with (0, 2, -1); slopes and
    loci stay exact and the transported circles share center -1/8."""
    p2 = SurfaceParams(d=2)
    search = hilbert_walls(9, p=p2)
    assert search.complete
    assert search.records[0].curve.x0 == 0
    transported = transport_walls(search.records, 2, search.vector, p2)
    for rec in transported:
        if rec.curve is not None:
            assert rec.curve.center_x == F(-1, 8)


# ---------------------------------------------------------------------------
# candidate rank bound, against a brute-force scan


def _candidate_classes(vec, ranks, y_min, d):
    """{radius^2: [classes]} of the walls of w = (0, m, k), m > 0, with a
    destabilizer of rank in `ranks`, straight from the definition: a
    primitive, a^2 >= -2, 0 < c - r*e < m at the center e, and
    radius^2 > y_min^2 from the 2x2 minors of (w, a).  For each (r, c)
    both a^2 >= -2 and the radius cut are linear in s, so s is scanned
    between the two limits."""
    _, m, k = vec
    e = F(k, 2 * d * m)
    classes = {}
    for r in ranks:
        for c in range(math.floor(r * e) + 1, math.ceil(r * e + m)):
            cap = F(d * c * c + 1, r)  # a^2 >= -2 <=> r*s <= d c^2 + 1
            cut = F(c * k, m) + d * r * (y_min * y_min - e * e)  # radius^2 = y_min^2
            for s in range(math.floor(min(cap, cut)) - 1, math.ceil(max(cap, cut)) + 2):
                if 2 * d * c * c - 2 * r * s < -2 or not 0 < 2 * d * m * c - r * k < 2 * d * m * m:
                    continue
                big_p, big_b, big_c = r * m, r * k, m * s - c * k
                radius_sq = F(big_b, 2 * d * big_p) ** 2 + F(big_c, d * big_p)
                if radius_sq > y_min * y_min and MukaiVector(r, c, s).is_primitive():
                    classes.setdefault(radius_sq, []).append((r, c, s))
    return classes


def _candidate_rows(vec, ranks, y_min, d):
    """(class, a^2, <v,a>, radius^2) per wall, by descending radius; the
    class is the one smallest by (|r|, |c|, |s|, sign, tuple), the sign
    being whether the first nonzero entry is negative."""
    _, m, k = vec

    def order(a):
        first = next(x for x in a if x != 0)
        return (abs(a[0]), abs(a[1]), abs(a[2]), first < 0, a)

    rows = []
    for radius_sq, classes in sorted(_candidate_classes(vec, ranks, y_min, d).items(), reverse=True):
        r, c, s = min(classes, key=order)
        rows.append(((r, c, s), 2 * d * c * c - 2 * r * s, 2 * d * m * c - r * k, radius_sq))
    return rows


def _search_rows(search):
    return [(rec.a.as_tuple(), rec.a_sq, rec.pairing_va, rec.curve.radius_sq) for rec in search.records]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("y_min", [F(1, 2), F(1), F(3, 2), F(2, 3), F(5, 2)])
def test_candidate_rank_bound_oracle(d, y_min):
    """Full rows against the brute force, at the proven bound and at a
    cap below it."""
    p = SurfaceParams(d=d)
    for m in range(1, 6):
        bound = max(r for r in range(0, 100) if d * r * r * y_min * y_min < d * m * m + 1)
        for k in range(-4, 5):
            vec = (0, m, k)
            inside = [r for r in range(-bound, bound + 1) if r != 0]
            beyond = [r for r in range(bound + 1, 3 * max(bound, 1) + 1)]
            assert _candidate_classes(vec, beyond + [-r for r in beyond], y_min, d) == {}
            search = candidate_walls(MukaiVector(*vec), None, p, y_min=y_min)
            assert search.complete
            assert _search_rows(search) == _candidate_rows(vec, inside, y_min, d)
            if bound > 1:
                cap = bound - 1
                capped = candidate_walls(MukaiVector(*vec), cap, p, y_min=y_min)
                assert not capped.complete
                low = [r for r in range(-cap, cap + 1) if r != 0]
                assert _search_rows(capped) == _candidate_rows(vec, low, y_min, d)


def test_candidate_cap_below_bound_is_incomplete():
    # the proven bound of (0, 3, -1) at y_min = 1 is 3
    capped = candidate_walls(MukaiVector(0, 3, -1), 1)
    assert not capped.complete
    assert {rec.curve.radius_sq for rec in capped.records} == set(_candidate_classes((0, 3, -1), [-1, 1], F(1), 1))
    assert candidate_walls(MukaiVector(0, 3, -1), 3).complete


def test_candidate_ymin_zero_needs_rmax():
    with pytest.raises(ValueError, match="give r_max"):
        candidate_walls(MukaiVector(0, 2, -1), y_min=0)
    capped = candidate_walls(MukaiVector(0, 2, -1), 5, y_min=0)
    assert not capped.complete
    assert capped.records


def _candidate_steps(vec, r_max, y_min, d):
    """The (r, c) pairs of the destabilizer window of w = (0, m, k), m > 0,
    at ranks 0 < |r| <= r_max, plus the points (r, c, s) among them with
    a^2 >= -2 and radius^2 > y_min^2, primitive or not, straight from the
    definitions as in _candidate_classes."""
    _, m, k = vec
    e = F(k, 2 * d * m)
    steps = 0
    for r in [*range(-r_max, 0), *range(1, r_max + 1)]:
        for c in range(math.floor(r * e) + 1, math.ceil(r * e + m)):
            steps += 1
            cap = F(d * c * c + 1, r)
            cut = F(c * k, m) + d * r * (y_min * y_min - e * e)
            for s in range(math.floor(min(cap, cut)) - 1, math.ceil(max(cap, cut)) + 2):
                big_p, big_b, big_c = r * m, r * k, m * s - c * k
                radius_sq = F(big_b, 2 * d * big_p) ** 2 + F(big_c, d * big_p)
                steps += 2 * d * c * c - 2 * r * s >= -2 and radius_sq > y_min * y_min
    return steps


@pytest.mark.parametrize("d", [1, 2, 3])
def test_candidate_work_bounds_the_window(d):
    """_candidate_work, the closed form checked against
    CANDIDATE_WORK_LIMIT, is at least the brute-force count of the scan's
    steps, at the proven rank bound and at r_max = 7 with y_min = 0."""
    p = SurfaceParams(d=d)
    for m in range(1, 7):
        for k in range(-5, 6):
            for y_min in (F(1), F(1, 2), F(3, 2), F(1, 3), F(0)):
                r_max = _candidate_rank_bound(m, y_min, p) or 7
                assert _candidate_work(m, r_max, p) >= _candidate_steps((0, m, k), r_max, y_min, d), (m, k, y_min)


def test_candidate_search_refuses_work_over_the_limit():
    """The limit holds whatever bounds the rank, and a search just under
    it runs: (0, 34, 1) at y_min = 1 takes 196,690 steps and (0, 35, 1)
    214,130."""
    p = SurfaceParams(1)
    assert CANDIDATE_WORK_LIMIT == 2 * 10**5
    assert _candidate_work(34, _candidate_rank_bound(34, F(1), p), p) == 196_690
    for args, kwargs in (
        ((MukaiVector(0, 35, 1),), {}),
        ((MukaiVector(0, 3, -1),), {"y_min": F(1, 100000)}),
        ((MukaiVector(0, 3, -1), 10**9), {"y_min": 0}),
    ):
        with pytest.raises(ValueError, match="steps, over the limit of 200,000; raise y_min or lower r_max"):
            candidate_walls(*args, **kwargs)
    assert candidate_walls(MukaiVector(0, 3, -1), y_min=F(1, 1000)).complete
