"""Wall enumeration: criterion-driven for Hilbert schemes, transported for
Beauville-Mukai partners, and a candidate superset for other torsion vectors.

For v = (1, 0, 1-n) (the Hilbert scheme S^[n]) the totally semistable and
flopping walls inside the movable cone are cut out by classes a solving
one of finitely many clauses on (a^2, <v,a>):

  divisorial:  a^2 = -2, <v,a> = 0        (Brill-Noether / Hilbert-Chow type)
               a^2 =  0, <v,a> in {1, 2}  (Li-Qin / Lagrangian-fibration type)
  flopping:    a^2 = -2, 1 <= <v,a> <= n-1
               a^2 =  0, 3 <= <v,a> <= n-1
               a^2 = A even, 2 <= A < (n-1)/2, 2A+1 <= <v,a> <= n-1

Each wall is indexed by the slope 0 <= Gamma <= gamma_max of its image
in the movable cone (coordinates along theta(0,-1,0) and theta(-1,0,1-n)),
where gamma_max is the smallest positive slope of a divisorial class or
of an isotropic class orthogonal to v.  The boundary slope itself is a
wall when a divisorial class realizes it (n = 8 ends in one); when
n - 1 is d times a perfect square the boundary instead comes from an
isotropic class with <v,a> = 0 (the Lagrangian fibration), whose
numerical wall misses the upper half plane, so that record carries no
curve.

The Hilbert search works up to |rank(a)| <= 2 * r_max (default
r_max = 4n) and is flagged incomplete when the walls within r_max and
within 2 * r_max differ.  It first finds gamma_max from the divisorial
clauses alone (a few points per rank), so a cap too small to reach the
cone boundary raises at once.  It then lists the clause classes in one
scan of lattice points (r, c, s), rank first: writing
s = r(n-1) - <v,a>, every clause reads d*c^2 = r*s + a^2/2, so each rank
leaves a window of about sqrt(n) values of c (two isqrt calls), each c
leaves the s with r*s within (n-1)/4 + 1 of d*c^2 (at most one once
|r| > (n-1)/4 + 1), and a closed-form test of (a^2, <v,a>) against the
clauses keeps or drops the point.  A search at rank bound R thus visits
about R*sqrt(n) points instead of passing over the ranks once per clause
(about n^2/4 clauses).  Slopes are coprime integer pairs throughout the
scan: a class outside [0, gamma_max] is dropped by cross-multiplication
before any MukaiVector is built, walls are grouped by the pair, and one
Fraction is made per wall, for its record.

The candidate search stops at a proven rank bound (_candidate_rank_bound),
so its completeness is a proof.  Its scan is in integers too: the
buckets are keyed by radius^2 as a coprime pair, and one Fraction is
made per record.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .charge import Semicircle, WallCurve, wall_discriminant, wall_locus
from .lattice import (
    DEFAULT_SURFACE,
    MukaiVector,
    SurfaceParams,
    _setattr,
    _Value,
    mukai_pairing,
    mukai_square,
    phi_pushforward,
)

WALL_TYPES = ("divisorial", "flopping", "boundary_lagrangian", "candidate")


class WallRecord(_Value):
    """One wall: a representative class, its lattice data, slope and locus.

    gamma is None for candidate records (a generic torsion vector has no
    movable-cone slope) and curve is None for the Lagrangian boundary
    (its numerical locus misses the upper half plane).
    """

    __slots__ = ("a", "a_sq", "pairing_va", "gamma", "curve", "wall_type")

    def __init__(
        self,
        a: MukaiVector,
        a_sq: int,
        pairing_va: int,
        gamma: Optional[Fraction],
        curve: Optional[WallCurve],
        wall_type: str,
    ) -> None:
        if wall_type not in WALL_TYPES:
            raise ValueError(f"unknown wall type {wall_type!r}")
        _setattr(self, "a", a)
        _setattr(self, "a_sq", a_sq)
        _setattr(self, "pairing_va", pairing_va)
        _setattr(self, "gamma", gamma)
        _setattr(self, "curve", curve)
        _setattr(self, "wall_type", wall_type)


class MovableCone(_Value):
    """Slope parametrization of the movable cone of the n-th Hilbert scheme.

    Rays are theta(0, -1, 0) + gamma * theta(-1, 0, 1-n); walls live at
    slopes gamma_min <= gamma <= gamma_max.
    """

    __slots__ = ("n", "gamma_min", "gamma_max")

    def __init__(self, n: int, gamma_min: Fraction, gamma_max: Fraction) -> None:
        _setattr(self, "n", n)
        _setattr(self, "gamma_min", gamma_min)
        _setattr(self, "gamma_max", gamma_max)


class SearchBounds(_Value):
    """r_max caps |rank(a)|; None means 4n for a Hilbert or Beauville-Mukai
    search and the proven bound for a candidate search."""

    __slots__ = ("r_max", "y_min")

    def __init__(self, r_max: Optional[int] = None, y_min: Fraction = Fraction(1)) -> None:
        if r_max is not None and r_max < 1:
            raise ValueError("r_max must be positive")
        y_min = Fraction(y_min)
        if y_min < 0:
            raise ValueError("y_min must be non-negative")
        _setattr(self, "r_max", r_max)
        _setattr(self, "y_min", y_min)


def default_bounds(n: Optional[int] = None) -> SearchBounds:
    """The stock search box: r_max = 4n for S^[n], no cap without n."""
    return SearchBounds(r_max=4 * n if n else None)


class WallSearch(_Value):
    """Result of a wall enumeration, with its completeness certificate.

    mode is "hilbert", "candidate" or "transport".
    """

    __slots__ = ("vector", "records", "complete", "mode", "n", "m", "source_vector")

    def __init__(
        self,
        vector: MukaiVector,
        records: tuple[WallRecord, ...],
        complete: bool,
        mode: str,
        n: Optional[int] = None,
        m: Optional[int] = None,
        source_vector: Optional[MukaiVector] = None,
    ) -> None:
        _setattr(self, "vector", vector)
        _setattr(self, "records", records)
        _setattr(self, "complete", complete)
        _setattr(self, "mode", mode)
        _setattr(self, "n", n)
        _setattr(self, "m", m)
        _setattr(self, "source_vector", source_vector)


def hilbert_vector(n: int) -> MukaiVector:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return MukaiVector(1, 0, 1 - n)


def hilbert_n_of(v: MukaiVector) -> Optional[int]:
    """n with v = (1, 0, 1-n), if the vector has that shape."""
    if v.r == 1 and v.c == 0 and v.s <= -1:
        return 1 - v.s
    return None


def _slope(n: int, r: int, c: int, s: int, d: int) -> tuple[int, int]:
    """The slope of the wall of (v, a), a = (r, c, s), in the movable cone
    of S^[n] as a coprime pair (num, den), den > 0: gamma = -2dc / (r(n-1) + s).

    The wall's image is the ray through theta(w), where w spans the rank
    one lattice orthogonal to both v = (1, 0, 1-n) and a.
    """
    num, den = -2 * d * c, r * (n - 1) + s
    if den == 0:
        a = MukaiVector(r, c, s)
        if num == 0:
            raise ValueError(f"class {a} is proportional to (1, 0, {1 - n}); no wall")
        raise ValueError(f"wall of {a} does not meet the movable-cone chart")
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def gamma_of_wall(n: int, a: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> Fraction:
    """Slope of the wall of (v, a) in the movable cone of S^[n] (see _slope)."""
    return Fraction(*_slope(n, a.r, a.c, a.s, p.d))


# ---------------------------------------------------------------------------
# criterion enumeration for v = (1, 0, 1-n)


def _clause_type(n: int, a_sq: int, k: int) -> Optional[bool]:
    """True when (a^2, <v,a>) = (a_sq, k) satisfies a divisorial clause of
    the wall criterion, False for a flopping clause, None for neither."""
    if (a_sq, k) in ((-2, 0), (0, 1), (0, 2)):
        return True
    if a_sq == -2:
        k_lo = 1
    elif a_sq == 0:
        k_lo = 3
    elif a_sq > 0 and a_sq % 2 == 0 and 2 * a_sq < n - 1:
        k_lo = 2 * a_sq + 1
    else:
        return None
    return False if k_lo <= k <= n - 1 else None


def _representative_key(a: MukaiVector) -> tuple:
    first_nonzero = next((x for x in a.as_tuple() if x != 0), 0)
    return (abs(a.r), abs(a.c), abs(a.s), first_nonzero <= 0, a.as_tuple())


def _lagrangian_class(n: int, p: SurfaceParams) -> Optional[MukaiVector]:
    """Primitive isotropic a with <v,a> = 0, when one exists: a = +-(1, -m, n-1)
    with d*m^2 = n - 1.  Returned in the sign (-1, m, 1-n)."""
    if (n - 1) % p.d != 0:
        return None
    m_sq = (n - 1) // p.d
    m = math.isqrt(m_sq)
    if m * m != m_sq or m == 0:
        return None
    return MukaiVector(-1, m, 1 - n)


def _slope_classes(
    n: int,
    r_max: int,
    p: SurfaceParams,
    divisorial_only: bool = False,
    gamma_max: Optional[tuple[int, int]] = None,
) -> list:
    """(class, divisorial clause, slope) for every clause class with |r| <= r_max,
    the slope a coprime pair (num, den) as _slope gives it.

    One scan of lattice points a = (r, c, s), rank first.  With
    k = <v,a> = r(n-1) - s and A = a^2 the clause equation reads
    d*c^2 = r*s + A/2, so for each r the values of d*c^2 lie in
    [r*s - 1, r*s + A_max/2] for some s = r(n-1) - k, 0 <= k <= k_max:
    c runs over that window (about sqrt(n) values, two isqrt calls per
    rank), and for each c the s with r*s in [d*c^2 - A_max/2, d*c^2 + 1]
    come from exact floor and ceiling division (at most one once
    |r| > A_max/2 + 1).  Each point is kept when (A, k) is a clause.

    With gamma_max = (P, Q) the scan keeps only slopes in [0, P/Q], decided
    by _in_cone before any MukaiVector is built; as the slope is
    -2dc / (r(n-1) + s), 2d|c| <= (P/Q)(2|r|(n-1) + k_max) caps |c| per rank.
    """
    d = p.d
    # the largest <v,a> and a^2/2 of any clause kept
    k_max, half_max = (2, 0) if divisorial_only else (max(n - 1, 2), max(n - 2, 0) // 4)
    v = hilbert_vector(n)
    out = []
    for r in range(-r_max, r_max + 1):
        s_top = r * (n - 1)  # s = s_top - k
        rs_ends = (r * s_top, r * (s_top - k_max))
        lo, hi = min(rs_ends) - 1, max(rs_ends) + half_max  # bounds on d*c^2
        c_lo = 0 if lo <= 0 else math.isqrt(-(-lo // d) - 1) + 1
        c_hi = math.isqrt(hi // d)
        if gamma_max is not None:
            c_hi = min(c_hi, gamma_max[0] * (2 * abs(r) * (n - 1) + k_max) // (2 * d * gamma_max[1]))
        for c in range(c_lo, c_hi + 1):
            q = d * c * c
            if r > 0:
                s_lo, s_hi = -(-(q - half_max) // r), (q + 1) // r
            elif r < 0:
                s_lo, s_hi = -(-(q + 1) // r), (q - half_max) // r
            else:
                s_lo, s_hi = s_top - k_max, s_top
            for s in range(max(s_lo, s_top - k_max), min(s_hi, s_top) + 1):
                a_sq, k = 2 * (q - r * s), s_top - s
                divisorial = _clause_type(n, a_sq, k)
                if divisorial is None or (divisorial_only and not divisorial):
                    continue
                if math.gcd(r, c, s) != 1:
                    continue
                num, den = _slope(n, r, c, s, d)  # (r, -c, s) has slope (-num, den)
                for cc, slope in ((c, (num, den)),) if c == 0 else ((c, (num, den)), (-c, (-num, den))):
                    if gamma_max is not None and not _in_cone(slope, gamma_max):
                        continue
                    a = MukaiVector(r, cc, s)
                    assert mukai_square(a, p) == a_sq
                    assert mukai_pairing(v, a, p) == k
                    out.append((a, divisorial, slope))
    return out


def _in_cone(slope: tuple[int, int], gamma_max: tuple[int, int]) -> bool:
    """0 <= slope <= gamma_max for coprime pairs with positive denominators."""
    return slope[0] >= 0 and slope[0] * gamma_max[1] <= gamma_max[0] * slope[1]


def _cone_bound(n: int, boundary: list, r_max: int, p: SurfaceParams) -> tuple[int, int]:
    """gamma_max as a coprime pair: the smallest positive slope of a
    divisorial class with |r| <= r_max (from the divisorial-only scan
    boundary) or of the Lagrangian class."""
    slopes = [gamma for a, _, gamma in boundary if abs(a.r) <= r_max and gamma[0] > 0]
    lag = _lagrangian_class(n, p)
    if lag is not None:
        slopes.append(_slope(n, lag.r, lag.c, lag.s, p.d))
    if not slopes:
        raise ValueError(
            f"no movable-cone boundary class found for n={n} within |r| <= {r_max}; increase r_max"
        )
    return min(slopes, key=lambda slope: Fraction(*slope))


def movable_cone(n: int, bounds: Optional[SearchBounds] = None, p: SurfaceParams = DEFAULT_SURFACE) -> MovableCone:
    """Boundary slopes of the movable cone, searched within bounds."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    r_max = getattr(bounds, "r_max", None) or default_bounds(n).r_max
    gamma_max = _cone_bound(n, _slope_classes(n, r_max, p, divisorial_only=True), r_max, p)
    return MovableCone(n=n, gamma_min=Fraction(0), gamma_max=Fraction(*gamma_max))


def _wall_groups(classes: list, r_max: int, gamma_max: tuple[int, int]) -> dict:
    """{slope: [(class, divisorial_clause), ...]} for the classes with
    |r| <= r_max and slope in [0, gamma_max], slopes as coprime pairs."""
    groups: dict[tuple[int, int], list[tuple[MukaiVector, bool]]] = {}
    for a, divisorial, gamma in classes:
        if abs(a.r) <= r_max and _in_cone(gamma, gamma_max):
            groups.setdefault(gamma, []).append((a, divisorial))
    return groups


def hilbert_walls(
    n: int,
    bounds: Optional[SearchBounds] = None,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> WallSearch:
    """All walls for v = (1, 0, 1-n), sorted by ascending slope.

    Walls sharing a slope are deduplicated; the representative class
    minimizes (|r|, |c|, |s|) with positive leading coordinate breaking
    exact ties.  A divisorial clause anywhere on the wall marks the whole
    wall divisorial.  The Lagrangian boundary record, when n-1 is a
    perfect square times d, is appended last with no curve.
    """
    v = hilbert_vector(n)
    r_max = getattr(bounds, "r_max", None) or default_bounds(n).r_max
    boundary = _slope_classes(n, 2 * r_max, p, divisorial_only=True)
    gamma_max = _cone_bound(n, boundary, r_max, p)
    gamma_max_2 = _cone_bound(n, boundary, 2 * r_max, p)
    classes = _slope_classes(n, 2 * r_max, p, gamma_max=gamma_max)
    groups = _wall_groups(classes, r_max, gamma_max)
    complete = gamma_max == gamma_max_2 and set(groups) == set(_wall_groups(classes, 2 * r_max, gamma_max))

    records = []
    for gamma, classes in groups.items():
        rep = min((a for a, _ in classes), key=_representative_key)
        divisorial = any(flag for _, flag in classes)
        try:
            curve = wall_locus(v, rep, p)
        except ValueError:
            # the plane of (v, rep) only touches the boundary of the
            # upper half plane (radius zero or imaginary): not a wall.
            # At gamma_max this is the Lagrangian boundary, appended below.
            continue
        records.append(
            WallRecord(
                a=rep,
                a_sq=mukai_square(rep, p),
                pairing_va=mukai_pairing(v, rep, p),
                gamma=Fraction(*gamma),
                curve=curve,
                wall_type="divisorial" if divisorial else "flopping",
            )
        )
    records.sort(key=lambda rec: rec.gamma)
    lag = _lagrangian_class(n, p)
    if lag is not None:
        gamma = _slope(n, lag.r, lag.c, lag.s, p.d)
        assert gamma == gamma_max, "Lagrangian boundary must realize the cone boundary"
        records.append(
            WallRecord(
                a=lag,
                a_sq=0,
                pairing_va=0,
                gamma=Fraction(*gamma_max),
                curve=None,
                wall_type="boundary_lagrangian",
            )
        )
    return WallSearch(vector=v, records=tuple(records), complete=complete, mode="hilbert", n=n)


# ---------------------------------------------------------------------------
# transport through Phi_m


def transport_walls(
    records: Sequence[WallRecord],
    m: int,
    v: MukaiVector,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> list[WallRecord]:
    """Map wall records through Phi_m, recomputing loci against Phi_m(v).

    Slopes, squares, pairings and wall types are carried over unchanged
    (Phi_m is a lattice isometry); only the curves move.  A record whose
    transported locus misses the upper half plane (the Lagrangian
    boundary) keeps curve None.
    """
    v_new = phi_pushforward(v, m, p)
    out = []
    for rec in records:
        a_new = phi_pushforward(rec.a, m, p)
        assert mukai_square(a_new, p) == rec.a_sq
        assert mukai_pairing(v_new, a_new, p) == rec.pairing_va
        try:
            curve = wall_locus(v_new, a_new, p)
        except ValueError:
            curve = None
        out.append(
            WallRecord(
                a=a_new,
                a_sq=rec.a_sq,
                pairing_va=rec.pairing_va,
                gamma=rec.gamma,
                curve=curve,
                wall_type=rec.wall_type,
            )
        )
    return out


def transport_search(base: WallSearch, m: int, p: SurfaceParams = DEFAULT_SURFACE) -> WallSearch:
    """base moved through Phi_m: the vector becomes Phi_m(base.vector),
    the records go through transport_walls, and completeness carries over."""
    return WallSearch(
        vector=phi_pushforward(base.vector, m, p),
        records=tuple(transport_walls(base.records, m, base.vector, p)),
        complete=base.complete,
        mode="transport",
        n=base.n,
        m=m,
        source_vector=base.vector,
    )


# ---------------------------------------------------------------------------
# candidate superset for torsion vectors


def _candidate_rank_bound(m: int, y_min: Fraction, p: SurfaceParams) -> Optional[int]:
    """Largest |r| with d*r^2*y_min^2 < d*m^2 + 1, None when y_min = 0.

    At the apex of a wall of w = (0, m, k) with radius R > y_min and
    center e, a destabilizer a = (r, c, s) has 0 < c - r*e < m and
    a^2 = 2d(c - r*e)^2 - 2d*r^2*R^2 >= -2, so no rank beyond this
    bound carries one.
    """
    if y_min == 0:
        return None
    num = (p.d * m * m + 1) * y_min.denominator ** 2
    return math.isqrt((num - 1) // (p.d * y_min.numerator ** 2))


def _candidate_buckets(w: MukaiVector, r_max: int, y_min: Fraction, p: SurfaceParams) -> dict:
    """{radius_sq: [classes]} for the torsion destabilizer search, w
    sign-normalized with w.c > 0, radius_sq a coprime integer pair
    (num, den) with den > 0.

    Every wall of w is centered at e = k/(2dm), and at its apex a
    destabilizing class must take an intermediate imaginary part:
    0 < c - r*e < m.  For each rank that window holds m consecutive
    values of c, and the s-interval is exactly what a^2 >= -2 and
    radius^2 > y_min^2 allow, so the scan is finite and misses no wall
    with a destabilizer of |rank| <= r_max.  With y_min = yn/yd, a^2 >= -2
    reads r*s <= d*c^2 + 1, and radius^2 > y_min^2 reads s > cut for r > 0
    and s < cut for r < 0, where cut = (r*cut_r + c*cut_c) / cut_den; the
    wall has radius^2 = (k^2*r + 4dm(ms - ck)) / (4d^2m^2r).  All of it is
    integer floor and ceiling division.
    """
    m, k, d = w.c, w.s, p.d
    yn, yd = y_min.numerator, y_min.denominator
    cut_r = 4 * d * d * m * m * yn * yn - k * k * yd * yd
    cut_c = 4 * d * m * k * yd * yd
    cut_den = 4 * d * m * m * yd * yd
    buckets: dict[tuple[int, int], list[MukaiVector]] = {}
    for r in range(-r_max, r_max + 1):
        if r == 0:
            continue
        window = r * k // (2 * d * m)  # floor(r*e)
        for c in range(window + 1, window + m + (r * k % (2 * d * m) != 0)):
            square_cap = d * c * c + 1
            radius_cut = r * cut_r + c * cut_c
            if r > 0:
                s_lo, s_hi = radius_cut // cut_den + 1, square_cap // r
            else:
                s_lo, s_hi = -(-square_cap // r), -(-radius_cut // cut_den) - 1
            for s in range(s_lo, s_hi + 1):
                if math.gcd(r, c, s) != 1:
                    continue
                num, den = k * k * r + 4 * d * m * (m * s - c * k), 4 * d * d * m * m * r
                if r < 0:
                    num, den = -num, -den
                g = math.gcd(num, den)
                a = MukaiVector(r, c, s)
                assert num * yd * yd > yn * yn * den  # radius^2 > y_min^2
                assert wall_discriminant(w, a, p) > 0
                buckets.setdefault((num // g, den // g), []).append(a)
    return buckets


def candidate_walls(
    v: MukaiVector,
    bounds: Optional[SearchBounds] = None,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> WallSearch:
    """Superset of the walls of a rank-zero vector, sorted by descending radius.

    Every record is tagged candidate: the destabilizer window, square
    bound, hyperbolicity, and the radius filter are the only cuts, so
    pseudo-walls are expected and no semistability claim is made.  The
    scan runs up to the proven rank bound (or bounds.r_max, when lower)
    and is complete when it reaches that bound.
    Rank-nonzero vectors are rejected; Hilbert-type vectors have the
    exact criterion enumeration instead.  Non-primitive vectors are
    fine: the destabilizer window is taken relative to the vector as
    given.
    """
    v = MukaiVector.coerce(v)
    if v.is_zero():
        raise ValueError("candidate search needs a nonzero vector")
    if v.r != 0:
        raise ValueError(
            f"candidate search supports rank-zero vectors only; for {v} use the criterion enumeration"
        )
    bounds = bounds or SearchBounds()
    if v.c == 0:
        # (0, 0, s): every numerical wall is a vertical line, so the
        # radius filter leaves nothing.
        return WallSearch(vector=v, records=(), complete=True, mode="candidate")
    w = v if v.c > 0 else -v
    proven = _candidate_rank_bound(w.c, bounds.y_min, p)
    if proven is None and bounds.r_max is None:
        raise ValueError("a candidate search with y_min = 0 has no rank bound; give r_max (--rmax)")
    r_max = min(b for b in (proven, bounds.r_max) if b is not None)
    buckets = {Fraction(*key): classes for key, classes in _candidate_buckets(w, r_max, bounds.y_min, p).items()}
    complete = r_max == proven
    records = []
    for radius_sq in sorted(buckets, reverse=True):
        rep = min(buckets[radius_sq], key=_representative_key)
        curve = wall_locus(v, rep, p)
        assert isinstance(curve, Semicircle) and curve.radius_sq == radius_sq
        records.append(
            WallRecord(
                a=rep,
                a_sq=mukai_square(rep, p),
                pairing_va=mukai_pairing(v, rep, p),
                gamma=None,
                curve=curve,
                wall_type="candidate",
            )
        )
    return WallSearch(vector=v, records=tuple(records), complete=complete, mode="candidate")


# ---------------------------------------------------------------------------
# dispatch: the best available wall list for a vector


def beauville_mukai_partner(v: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> Optional[tuple[int, int]]:
    """(n, m) with v = Phi_m(1, 0, 1-n), for vectors of the shape (0, m, -1)."""
    if v.r == 0 and v.c >= 1 and v.s == -1:
        m = v.c
        return (p.d * m * m + 1, m)
    return None


def resolve_walls(
    v: MukaiVector,
    bounds: Optional[SearchBounds] = None,
    p: SurfaceParams = DEFAULT_SURFACE,
    force_candidates: bool = False,
) -> WallSearch:
    """Wall list for v: exact when the criterion or transport applies,
    a tagged candidate superset otherwise."""
    v = MukaiVector.coerce(v)
    if force_candidates:
        return candidate_walls(v, bounds, p)
    n = hilbert_n_of(v)
    if n is not None:
        return hilbert_walls(n, bounds, p)
    partner = beauville_mukai_partner(v, p)
    if partner is not None:
        n, m = partner
        return transport_search(hilbert_walls(n, bounds, p), m, p)
    if v.r == 0:
        return candidate_walls(v, bounds, p)
    raise ValueError(
        f"no wall enumeration available for {v}: expected (1, 0, 1-n), a rank-zero vector, "
        "or candidate mode"
    )
