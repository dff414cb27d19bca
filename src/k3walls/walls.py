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
d(n-1) is a perfect square the boundary instead comes from an
isotropic class with <v,a> = 0 (the Lagrangian fibration), whose
numerical wall misses the upper half plane, so that record carries no
curve.

The Hilbert search first computes gamma_max (_cone_rank), and raises at
once when no divisorial class of rank at most r_max (default 4n) has
that slope.  With X = 2(n-1)r - <v,a> every clause reads
X^2 - 4d(n-1)c^2 = <v,a>^2 - 2(n-1)a^2, which bounds the rank of every
class with a slope in [0, gamma_max] by R*.  When R* <= 2 * r_max the
search scans to R* and complete is a proof; otherwise it lists the
walls within r_max and is flagged incomplete.
It lists the clause classes in one scan of lattice points (r, c, s),
rank first: writing s = r(n-1) - <v,a>, every clause reads
d*c^2 = r*s + a^2/2, so each rank leaves a window of about sqrt(n)
values of c (two isqrt calls), each c leaves the s with r*s within
(n-1)/4 + 1 of d*c^2 (at most one once |r| > (n-1)/4 + 1), and a
closed-form test of (a^2, <v,a>) against the clauses keeps or drops the
point.  A search at rank bound R thus visits about R sqrt(n) points
instead of passing over the ranks once per clause (about n^2/4
clauses).  Slopes are coprime integer pairs throughout the scan: a
class outside [0, gamma_max] is dropped by cross-multiplication before
the clause test and the primitivity gcd (of the two signs of c, only the one giving a
slope >= 0 is tested), walls are grouped by the pair and ordered by an
exact integer key (_sorted_pairs).  The scan hands each class's a^2 and
<v,a> on to its record.

A Hilbert wall follows from its slope alone (Bayer-Macri, section 13):
for gamma = P/Q in lowest terms, Q > 0, it is the line x = 0 when P = 0
and otherwise the semicircle of center -Q/P and radius^2 delta/(dP^2),
delta = dQ^2 - (n-1)P^2, that is center -1/gamma and radius^2
1/gamma^2 - (n-1)/d.  When delta <= 0 the plane of (v, a) only touches
the boundary of the upper half plane and the slope carries no wall: at
gamma_max this is the Lagrangian boundary.  So hilbert_walls builds each
curve from the pair, without the minors of a class (transport_walls,
whose vectors are not Hilbert vectors, keeps wall_locus).

The candidate search stops at a proven rank bound (_candidate_rank_bound),
so its completeness is a proof.  Its scan is in integers too: the
buckets are keyed by radius^2 as a coprime pair and ordered by the same
integer key, and each record's semicircle is built from that key and
the common center.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from fractions import Fraction

from .charge import Semicircle, VerticalLine, WallCurve, _rational, wall_discriminant, wall_locus
from .lattice import (
    DEFAULT_SURFACE,
    MukaiVector,
    SurfaceParams,
    _setters,
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
        gamma: Fraction | None,
        curve: WallCurve | None,
        wall_type: str,
    ) -> None:
        if wall_type not in WALL_TYPES:
            raise ValueError(f"unknown wall type {wall_type!r}")
        _set_a(self, a)
        _set_a_sq(self, a_sq)
        _set_pairing_va(self, pairing_va)
        _set_gamma(self, gamma)
        _set_curve(self, curve)
        _set_wall_type(self, wall_type)


_set_a, _set_a_sq, _set_pairing_va, _set_gamma, _set_curve, _set_wall_type = _setters(WallRecord)


class MovableCone(_Value):
    """Slope parametrization of the movable cone of the n-th Hilbert scheme.

    Rays are theta(0, -1, 0) + gamma * theta(-1, 0, 1-n); walls live at
    slopes gamma_min <= gamma <= gamma_max.
    """

    __slots__ = ("n", "gamma_min", "gamma_max")

    def __init__(self, n: int, gamma_min: Fraction, gamma_max: Fraction) -> None:
        _set_cone_n(self, n)
        _set_gamma_min(self, gamma_min)
        _set_gamma_max(self, gamma_max)


_set_cone_n, _set_gamma_min, _set_gamma_max = _setters(MovableCone)


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
        n: int | None = None,
        m: int | None = None,
        source_vector: MukaiVector | None = None,
    ) -> None:
        _set_vector(self, vector)
        _set_records(self, records)
        _set_complete(self, complete)
        _set_mode(self, mode)
        _set_search_n(self, n)
        _set_m(self, m)
        _set_source_vector(self, source_vector)


_set_vector, _set_records, _set_complete, _set_mode, _set_search_n, _set_m, _set_source_vector = _setters(WallSearch)


def hilbert_vector(n: int) -> MukaiVector:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return MukaiVector(1, 0, 1 - n)


def hilbert_n_of(v: MukaiVector) -> int | None:
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
    return _rational(*_slope(n, a.r, a.c, a.s, p.d))


# ---------------------------------------------------------------------------
# criterion enumeration for v = (1, 0, 1-n)


def _clause_type(n: int, a_sq: int, k: int) -> bool | None:
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
    return (abs(a.r), abs(a.c), abs(a.s), (a.r or a.c or a.s) <= 0, a.as_tuple())


def _lagrangian_class(n: int, p: SurfaceParams) -> MukaiVector | None:
    """Primitive isotropic a with <v,a> = 0, when d(n-1) = t^2 is a square:
    +-(t, -(n-1), t(n-1)) / gcd(t, n-1), of slope d/t.  Returned with
    negative rank ((-1, m, 1-n) when n - 1 = dm^2)."""
    t_sq = p.d * (n - 1)
    t = math.isqrt(t_sq)
    if t * t != t_sq:
        return None
    g = math.gcd(t, n - 1)
    return MukaiVector(-t // g, (n - 1) // g, -t * (n - 1) // g)


def _slope_classes(n: int, r_max: int, p: SurfaceParams, gamma_max: tuple[int, int]) -> list:
    """(class, divisorial clause, slope, a^2, <v,a>) for every clause class
    with |r| <= r_max and a slope in [0, gamma_max], the slope a coprime
    pair (num, den) as _slope gives it and gamma_max = (P, Q) one too.

    One scan of lattice points a = (r, c, s), rank first.  With
    k = <v,a> = r(n-1) - s and A = a^2 the clause equation reads
    d*c^2 = r*s + A/2, so for each r the values of d*c^2 lie in
    [r*s - 1, r*s + A_max/2] for some s = r(n-1) - k, 0 <= k <= k_max:
    c runs over that window (about sqrt(n) values, two isqrt calls per
    rank), and for each c the s with r*s in [d*c^2 - A_max/2, d*c^2 + 1]
    come from exact floor and ceiling division (at most one once
    |r| > A_max/2 + 1).  Each point is kept when (A, k) is a clause.

    The slope of (r, +-c, s) is -+2dc / den with den = r(n-1) + s, so one
    sign of c gives a slope >= 0, 2dc / |den|, and 2dcQ <= P|den| decides
    it before the clause test and the primitivity gcd; as
    |den| <= 2|r|(n-1) + k_max, this also caps c per rank.
    """
    d = p.d
    # the largest <v,a> and a^2/2 of any clause
    k_max, half_max = max(n - 1, 2), max(n - 2, 0) // 4
    v = hilbert_vector(n)
    two_d = 2 * d
    big_p, two_d_q = gamma_max[0], two_d * gamma_max[1]
    out = []
    for r in range(-r_max, r_max + 1):
        s_top = r * (n - 1)  # s = s_top - k runs from s_bot to s_top
        s_bot = s_top - k_max
        r_abs = r if r >= 0 else -r
        rs_lo = r * s_bot if r > 0 else r * s_top  # r*s runs from rs_lo to rs_lo + |r|*k_max
        lo, hi = rs_lo - 1, rs_lo + r_abs * k_max + half_max  # bounds on d*c^2
        c_lo = 0 if lo <= 0 else math.isqrt(-(-lo // d) - 1) + 1
        c_hi = math.isqrt(hi // d)
        c_cap = big_p * (2 * r_abs * (n - 1) + k_max) // two_d_q
        if c_hi > c_cap:
            c_hi = c_cap
        for c in range(c_lo, c_hi + 1):
            q = d * c * c
            if r > 0:
                s_lo, s_hi = -(-(q - half_max) // r), (q + 1) // r
            elif r < 0:
                s_lo, s_hi = -(-(q + 1) // r), (q - half_max) // r
            else:
                s_lo, s_hi = s_bot, s_top
            if s_lo < s_bot:
                s_lo = s_bot
            if s_hi > s_top:
                s_hi = s_top
            for s in range(s_lo, s_hi + 1):
                den = s_top + s
                if two_d_q * c > big_p * abs(den):
                    continue
                a_sq, k = 2 * (q - r * s), s_top - s
                divisorial = _clause_type(n, a_sq, k)
                if divisorial is None or math.gcd(r, c, s) != 1:
                    continue
                # den = 2r(n-1) - k = 0 needs r = k = 0 (or n = 2, k = 2),
                # which leaves a^2 = 2dc^2 (or 2dc^2 + 2): no clause
                assert den != 0, f"clause class ({r}, {c}, {s}) has no slope"
                a = MukaiVector(r, -c if den > 0 else c, s)
                assert mukai_square(a, p) == a_sq
                assert mukai_pairing(v, a, p) == k
                g = math.gcd(two_d * c, den)
                out.append((a, divisorial, (two_d * c // g, abs(den) // g), a_sq, k))
    return out


def _sorted_pairs(pairs, reverse: bool = False) -> list:
    """Coprime pairs (num, den), den > 0, in the order of num/den.

    Two such fractions with denominators at most D differ by at least
    1/D^2, so the integer floor(num * D^2 / den) orders them exactly.
    """
    pairs = list(pairs)
    scale = max((den for _, den in pairs), default=1) ** 2
    return sorted(pairs, key=lambda pair: pair[0] * scale // pair[1], reverse=reverse)


def _pell_unit(big_d: int, x_cap: int) -> tuple[int, int] | None:
    """The least solution x, y > 0 of x^2 - big_d*y^2 = 1 (big_d > 0 not a
    square), None when its x exceeds x_cap.  It is a convergent x/y of the
    continued fraction of sqrt(big_d), walked with integer (P, Q) steps."""
    a0 = math.isqrt(big_d)
    m, q, a = 0, 1, a0
    x, x_prev, y, y_prev = a0, 1, 1, 0
    while x * x - big_d * y * y != 1:
        m = a * q - m
        q = (big_d - m * m) // q
        a = (a0 + m) // q
        x, x_prev, y, y_prev = a * x + x_prev, x, a * y + y_prev, y
        if x > x_cap:
            return None
    return x, y


def _cone_rank(n: int, r_max: int, p: SurfaceParams) -> tuple[tuple[int, int], int, MukaiVector | None]:
    """(gamma_max, R*, lag): the cone boundary slope as a coprime pair, a
    rank beyond which no clause class has a slope in [0, gamma_max], and
    the Lagrangian class (_lagrangian_class) when there is one, else None.

    With X = 2(n-1)r - <v,a>, the denominator of the slope, and
    N = <v,a>^2 - 2(n-1)a^2, every class has X^2 - 4d(n-1)c^2 = N, so
    gamma^2 = (d/(n-1))(1 - N/X^2); over all clauses N <= N_max =
    k_max^2 + 4(n-1), and r = (X + <v,a>)/(2(n-1)) with 0 <= <v,a> <= k_max.

    When d(n-1) = t^2 the clause factors, (X - 2tc)(X + 2tc) = N, so a
    class with N != 0 has |X| <= (|N| + 1)/2.  A class with N = 0 has
    slope +-d/t and an empty wall (N is the numerator of its radius^2).
    Every divisorial class has c = 0 here, so gamma_max = d/t, the slope
    of the Lagrangian class.

    Otherwise gamma_max, the least positive divisorial slope, comes from
    the least unit x + y sqrt(D) of x^2 - Dy^2 = 1, D = d(n-1) (Bayer-Macri,
    Prop. 13.1).  For n > 2 a class with a^2 = -2, <v,a> = 0, that is
    (n-1)r^2 - dc^2 = 1, exists when the unit is its square,
    x = 2(n-1)r^2 - 1 and y = 2rc, and then has the least slope dc/((n-1)r).
    Otherwise the boundary class has a^2 = 0, <v,a> = 2 (twice a class
    with <v,a> = 1 is one): ((x+1)/(n-1), -y, x-1), up to the signs of x
    and y, for the least power of the unit with x = +-1 mod n-1, of slope
    dy/x.  Ranks grow with the unit, so this class, taken primitive and of
    either sign of x, has the least rank of a divisorial class of
    positive slope; ValueError when that exceeds r_max.  A class of rank
    at most r_max has x <= 2(n-1)r_max^2 + 1, where the walks stop.

    Every divisorial N is positive, so with gamma_max = P/Q,
    delta = dQ^2 - (n-1)P^2 > 0, and gamma <= P/Q reads X^2 delta <= N dQ^2:
    classes with N <= 0 lie above gamma_max and the rest have
    X^2 <= N_max dQ^2 / delta.
    """
    d = p.d
    k_max = max(n - 1, 2)
    n_max = k_max * k_max + 4 * (n - 1)
    lag = _lagrangian_class(n, p)
    if lag is not None:
        return _slope(n, lag.r, lag.c, lag.s, d), ((n_max + 1) // 2 + k_max) // (2 * (n - 1)), lag
    big_d, x_cap = d * (n - 1), 2 * (n - 1) * r_max * r_max + 1
    unit = _pell_unit(big_d, x_cap)
    boundary = []  # the boundary classes; none when the walk passed x_cap
    if unit is not None:
        x, y = x1, y1 = unit
        r = math.isqrt((x + 1) // (2 * (n - 1)))
        c = y // (2 * r) if r else 0
        if c and (n - 1) * r * r - d * c * c == 1:
            boundary = [(r, -c, r * (n - 1))]
        else:
            while (x + 1) % (n - 1) and (x - 1) % (n - 1) and x <= x_cap:
                x, y = x * x1 + big_d * y * y1, x * y1 + y * x1
            boundary = [((e * x + 1) // (n - 1), -e * y, e * x - 1) for e in (1, -1) if (e * x + 1) % (n - 1) == 0]
    if all(abs(r) > r_max * math.gcd(r, c, s) for r, c, s in boundary):
        raise ValueError(
            f"no movable-cone boundary class found for n={n} within |r| <= {r_max}; increase r_max"
        )
    big_p, big_q = gamma_max = _slope(n, *boundary[0], d)
    delta = d * big_q * big_q - (n - 1) * big_p * big_p
    return gamma_max, (math.isqrt(n_max * d * big_q * big_q // delta) + k_max) // (2 * (n - 1)), None


def _rank_cap(n: int, r_max: int | None) -> int:
    """The cap on |rank(a)| of the search for S^[n] or its Beauville-Mukai
    partner: r_max, or 4n when it is None.  The search lists the walls
    within the cap, and certifies them when its proven bound is at most
    2 * r_max."""
    if r_max is None:
        return 4 * n
    if r_max < 1:
        raise ValueError("r_max must be positive")
    return r_max


def movable_cone(n: int, r_max: int | None = None, p: SurfaceParams = DEFAULT_SURFACE) -> MovableCone:
    """Boundary slopes of the movable cone.  gamma_max is computed (see
    _cone_rank); r_max (see _rank_cap) only decides whether a divisorial
    class of rank at most r_max realizes it, and ValueError when none does."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gamma_max, _, _ = _cone_rank(n, _rank_cap(n, r_max), p)
    return MovableCone(n=n, gamma_min=Fraction(0), gamma_max=_rational(*gamma_max))


def hilbert_walls(n: int, r_max: int | None = None, p: SurfaceParams = DEFAULT_SURFACE) -> WallSearch:
    """All walls for v = (1, 0, 1-n), sorted by ascending slope.

    Walls sharing a slope are deduplicated: a wall with one class takes
    that class, and otherwise the representative class minimizes
    (|r|, |c|, |s|) with positive leading coordinate breaking exact
    ties.  A divisorial clause anywhere on the wall marks the whole
    wall divisorial.  Each curve follows from the slope alone (see the
    module docstring).  The Lagrangian boundary record, when d(n-1) is a
    perfect square, is appended last with no curve.  r_max caps the
    ranks searched (see _rank_cap).
    """
    v = hilbert_vector(n)
    d = p.d
    r_max = _rank_cap(n, r_max)
    gamma_max, rank, lag = _cone_rank(n, r_max, p)
    complete = rank <= 2 * r_max
    groups: dict[tuple[int, int], list[tuple]] = defaultdict(list)  # slope -> its _slope_classes items
    for item in _slope_classes(n, rank if complete else r_max, p, gamma_max):
        groups[item[2]].append(item)

    records = []
    for gamma in _sorted_pairs(groups):
        big_p, big_q = gamma
        if big_p == 0:
            curve = VerticalLine(Fraction(0))
        else:
            delta = d * big_q * big_q - (n - 1) * big_p * big_p
            if delta <= 0:
                # no wall; at gamma_max, the Lagrangian boundary, appended below
                continue
            curve = Semicircle(_rational(-big_q, big_p), _rational(delta, d * big_p * big_p))
        members = groups[gamma]
        if len(members) == 1:
            rep, divisorial, _, a_sq, k = members[0]
        else:
            rep, _, _, a_sq, k = min(members, key=lambda member: _representative_key(member[0]))
            divisorial = any(member[1] for member in members)
        wall_type = "divisorial" if divisorial else "flopping"
        records.append(WallRecord(rep, a_sq, k, _rational(big_p, big_q), curve, wall_type))
    if lag is not None:
        records.append(
            WallRecord(
                a=lag,
                a_sq=0,
                pairing_va=0,
                gamma=_rational(*gamma_max),
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
    (Phi_m is a lattice isometry); only the curves move.  The isometry
    keeps <v,a>^2 - v^2 a^2, which decides whether the locus meets the
    upper half plane, so a curve-less record (the Lagrangian boundary)
    stays curve-less and every other one gets its transported locus.
    Phi_m is linear, so each class goes through one integer matrix, whose
    rows are the images of (1, 0, 0), (0, 1, 0) and (0, 0, 1).
    """
    v_new = phi_pushforward(v, m, p)
    (rr, rc, rs), (cr, cc, cs), (sr, sc, ss) = [
        phi_pushforward(MukaiVector(*row), m, p).as_tuple() for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    out = []
    for rec in records:
        r, c, s = rec.a.r, rec.a.c, rec.a.s
        a_new = MukaiVector(r * rr + c * cr + s * sr, r * rc + c * cc + s * sc, r * rs + c * cs + s * ss)
        assert mukai_square(a_new, p) == rec.a_sq
        assert mukai_pairing(v_new, a_new, p) == rec.pairing_va
        curve = None if rec.curve is None else wall_locus(v_new, a_new, p)
        out.append(WallRecord(a_new, rec.a_sq, rec.pairing_va, rec.gamma, curve, rec.wall_type))
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


def _candidate_rank_bound(m: int, y_min: Fraction, p: SurfaceParams) -> int | None:
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
    buckets: dict[tuple[int, int], list[MukaiVector]] = defaultdict(list)
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
                buckets[num // g, den // g].append(a)
    return buckets


def candidate_walls(
    v: MukaiVector,
    r_max: int | None = None,
    p: SurfaceParams = DEFAULT_SURFACE,
    *,
    y_min: Fraction = Fraction(1),
) -> WallSearch:
    """Superset of the walls of a rank-zero vector, sorted by descending radius.

    Every record is tagged candidate: the destabilizer window, square
    bound, hyperbolicity, and the radius filter are the only cuts, so
    pseudo-walls are expected and no semistability claim is made.  Only
    circles of radius > y_min are kept.  The scan runs up to the proven
    rank bound (or r_max, when lower) and is complete when it reaches
    that bound.
    Rank-nonzero vectors are rejected; Hilbert-type vectors have the
    exact criterion enumeration instead.  Non-primitive vectors are
    fine: the destabilizer window is taken relative to the vector as
    given.
    """
    if r_max is not None and r_max < 1:
        raise ValueError("r_max must be positive")
    y_min = Fraction(y_min)
    if y_min < 0:
        raise ValueError("y_min must be non-negative")
    v = MukaiVector.coerce(v)
    if v.is_zero():
        raise ValueError("candidate search needs a nonzero vector")
    if v.r != 0:
        n = hilbert_n_of(v)
        hint = "" if n is None else f"; S^[{n}] has the exact search (hilbert_walls, --n {n})"
        raise ValueError(f"candidate search supports rank-zero vectors only, not {v}{hint}")
    if v.c == 0:
        # (0, 0, s): every numerical wall is a vertical line, so the
        # radius filter leaves nothing.
        return WallSearch(vector=v, records=(), complete=True, mode="candidate")
    w = v if v.c > 0 else -v
    proven = _candidate_rank_bound(w.c, y_min, p)
    if proven is None and r_max is None:
        raise ValueError("a candidate search with y_min = 0 has no rank bound; give r_max (--rmax)")
    r_max = min(b for b in (proven, r_max) if b is not None)
    buckets = _candidate_buckets(w, r_max, y_min, p)
    complete = r_max == proven
    center = _rational(w.s, 2 * p.d * w.c)  # every wall of w is centered here
    records = []
    for radius_sq in _sorted_pairs(buckets, reverse=True):
        classes = buckets[radius_sq]
        rep = classes[0] if len(classes) == 1 else min(classes, key=_representative_key)
        curve = Semicircle(center, _rational(*radius_sq))
        records.append(WallRecord(rep, mukai_square(rep, p), mukai_pairing(v, rep, p), None, curve, "candidate"))
    return WallSearch(vector=v, records=tuple(records), complete=complete, mode="candidate")


# ---------------------------------------------------------------------------
# dispatch: the best available wall list for a vector


def beauville_mukai_partner(v: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> tuple[int, int] | None:
    """(n, m) with v = Phi_m(1, 0, 1-n), for vectors of the shape (0, m, -1)."""
    if v.r == 0 and v.c >= 1 and v.s == -1:
        m = v.c
        return (p.d * m * m + 1, m)
    return None


def resolve_walls(
    v: MukaiVector,
    r_max: int | None = None,
    p: SurfaceParams = DEFAULT_SURFACE,
    *,
    y_min: Fraction = Fraction(1),
) -> WallSearch:
    """Wall list for v: exact when the criterion or transport applies,
    a tagged candidate superset otherwise.  r_max goes to the search
    that runs; y_min only to the candidate search."""
    v = MukaiVector.coerce(v)
    n = hilbert_n_of(v)
    if n is not None:
        return hilbert_walls(n, r_max, p)
    partner = beauville_mukai_partner(v, p)
    if partner is not None:
        n, m = partner
        return transport_search(hilbert_walls(n, r_max, p), m, p)
    if v.r == 0:
        return candidate_walls(v, r_max, p, y_min=y_min)
    raise ValueError(
        f"no wall enumeration available for {v}: searches exist for (1, 0, 1-n) with n >= 2 "
        "and for rank-zero vectors"
    )
