"""What happens on a wall: aligned classes, decompositions, stratum dimensions.

At the apex x = num/den of a semicircular wall (the point above its
center) every class u of the saturated rank-two lattice spanned by v and
the wall class a has purely imaginary central charge, so
Z(u) = lambda(u) * Z(v) with lambda(u) = L(u)/L(v) for the integer form
L(u) = den*c_u - num*r_u.  L maps the plane onto g*Z, so lambda takes
the values j/N with N = L(v)/g and integer levels j.  The "positive
classes" of the wall are those u with u^2 >= -2 and 0 < j < N whose
stable locus is nonempty (u primitive, or a multiple of a class of
positive square).  A decomposition of v is a multiset of positive classes
summing to v.  In the plane coordinates (j, t) below, v = N*bez + t_v*k0,
so a multiset sums to v exactly when its levels sum to N and its t to
t_v: the search is an exact integer knapsack on (j, t), run on an
explicit stack.  It extends a multiset with a class only while what v
still lacks passes the level cap and the cone of the classes it may
still take (see decompositions).  Those tests are necessary conditions
only, but in practice they leave the search few multisets that lead
nowhere, at any cap on their length.

The plane has a unimodular basis (bez, k0) with bez on level 1 and k0
spanning level 0.  In it the class u = j*bez + t*k0 has
u^2 + 2 = a2*t^2 + j*b*t + j^2*c + 2, with a2 = k0^2, b = 2<bez, k0>
and c = bez^2, so u^2 >= -2 reads e^2 <= j^2*D + E for e = 2*a2*t + b*j,
D = b^2 - 4*a2*c = -4 det Q (Q the form of the plane) and E = -8*a2.  Both are positive on a wall:
its plane is hyperbolic (det Q < 0), and the kernel of the charge at
the apex, spanned by k0, is negative definite (a2 < 0).

The classes are found line by line, not level by level.  With
v = N*bez + t_v*k0, beta = N*t - t_v*j is constant on the lines parallel
to v and divisible by h = gcd(N, t_v); line beta meets level j only when
j*(t_v/h) = -beta/h (mod N/h), so at most h of its points have 0 < j < N,
one for primitive v.  As 2*a2*beta = N*e - kappa*j (kappa = N*b + 2*a2*t_v)
and sqrt(j^2*D + E) is convex, beta is extreme at j = 0 or j = N.  The
j = 0 end spans N*sqrt(8/|a2|) <= 2N lines (a2 <= -2: the lattice is
even); the rest grow with the region's area, not with the N - 1 levels.

Dimension bookkeeping for a decomposition u_1, ..., u_t (ordered by
descending lambda):

    moduli factor for u_i:    u_i^2 + 2
    fiber step i:             <u_1 + ... + u_i, u_{i+1}> - 1
    stratum dimension:        sum of both columns

The first negative fiber step is reported as an error, "the extension
stratum is not effective".  That check reads the parts in the listed
order, and with repeated parts the verdict can depend on it: for S^[10]
at gamma = 4/13, with a = (1, -2, 4) and b = (-1, 4, -17), the order
(a, a, b) that decompositions returns raises at fiber -1, while
(b, a, a) has part dimensions (0, 2, 2), fibers (4, 4) and stratum
dimension 12.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter

from .charge import Semicircle, StabilityPoint, wall_locus
from .lattice import DEFAULT_SURFACE, MukaiVector, SurfaceParams, _setters, _Value, mukai_square
from .walls import WallRecord


def _plane_basis(v: MukaiVector, a: MukaiVector) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Integer basis (b1, b2), as (r, c, s) triples, of the saturation of span(v, a)."""
    x, y, z = v.c * a.s - v.s * a.c, v.s * a.r - v.r * a.s, v.r * a.c - v.c * a.r
    if not (x or y or z):
        raise ValueError(f"classes {v} and {a} are proportional")
    return _normal_plane(x, y, z)


def _normal_plane(x: int, y: int, z: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Integer basis (b1, b2) of the plane { u : u . n = 0 } for the
    primitive normal n = (x, y, z)/g of a nonzero (x, y, z), such as the
    cross product v x a; it spans that whole orthogonal lattice, certified
    by b1 x b2 = +-n coming back primitive."""
    g = math.gcd(x, y, z)
    n1, n2, n3 = x // g, y // g, z // g
    if n2 == 0 and n3 == 0:
        return (0, 1, 0), (0, 0, 1)
    h = math.gcd(n2, n3)
    # alpha*n2 + beta*n3 = h
    alpha, beta = _bezout(n2 // h, n3 // h)
    return (0, -n3 // h, n2 // h), (h, -alpha * n1, -beta * n1)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x*a + y*b = 1, for coprime a and b."""
    if b == 0:
        return a, 0
    x = pow(a, -1, abs(b))
    return x, (1 - a * x) // b


def wall_base_point(w: WallRecord, side: str = "on", epsilon: Fraction = Fraction(1, 100)) -> StabilityPoint:
    """Canonical point on (or just off) a semicircular wall: its apex.

    side "on" gives (center, radius); "plus"/"minus" move y^2 by
    +-epsilon, staying exact.  Vertical walls and curve-less boundary
    records have no canonical base point.
    """
    if w.curve is None:
        raise ValueError("the boundary record has no wall curve, hence no base point")
    if not isinstance(w.curve, Semicircle):
        raise ValueError("vertical walls have no canonical base point")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    y_sq = w.curve.radius_sq
    if side == "plus":
        y_sq = y_sq + epsilon
    elif side == "minus":
        y_sq = y_sq - epsilon
        if y_sq <= 0:
            raise ValueError(f"epsilon {epsilon} swallows the wall (radius^2 = {w.curve.radius_sq})")
    elif side != "on":
        raise ValueError(f"side must be on/plus/minus, got {side!r}")
    return StabilityPoint(x=w.curve.center_x, y_sq=y_sq)


def _levelled_classes(
    v: MukaiVector, w: WallRecord, p: SurfaceParams
) -> tuple[int, int, list[tuple[int, int, tuple[int, int, int]]]]:
    """(N, t_v, [(j, t, (r, c, s)), ...]): v = N*bez + t_v*k0 and the positive
    classes u = j*bez + t*k0 = (r, c, s) of the wall, with lambda(u) = j/N,
    sorted by descending j, ties by (r, c, s): one step per line
    beta = N*t - t_v*j between its j = 0 and j = N bounds (2N + O(area)),
    each with at most h = gcd(N, t_v) levels, j = -(beta/h)/(t_v/h) mod N/h.
    For primitive v (h = 1, as on all 584 walls of the `wall_crossings`
    benchmark) each line meets 0 < j < N in exactly one point, so a bound on
    beta from u^2 >= -2 per line would decide that point with the same
    quadratic the walk evaluates there, and could skip no work."""
    curve = w.curve
    if curve is None:
        raise ValueError("positive classes need a semicircular wall; the Lagrangian boundary record has no wall curve")
    if not isinstance(curve, Semicircle):
        raise ValueError(f"positive classes need a semicircular wall, not the vertical line x = {curve.x0}")
    num, den = curve.center_x.as_integer_ratio()
    rad_n, rad_d = curve.radius_sq.as_integer_ratio()
    a, d = w.a, p.d
    vr, vc, vs = v.r, v.c, v.s
    ar, ac, as_ = a.r, a.c, a.s
    # the curve is wall_locus(v, a) exactly when these integer identities
    # hold (P, B, C as there); only a mismatch pays for the Fractions
    P, B, C = ar * vc - vr * ac, ar * vs - vr * as_, vc * as_ - ac * vs
    two_dp = 2 * d * P
    if not (P and B * den == two_dp * num and (B * B + 4 * d * P * C) * rad_d == two_dp * two_dp * rad_n > 0):
        if wall_locus(v, a, p) != curve:
            raise ValueError("record curve is not the wall of (v, a): charges do not align at the apex")
    # the curve is a semicircle, so P != 0 and v x a = (C, B, -P) is nonzero
    (r1, c1, s1), (r2, c2, s2) = _normal_plane(C, B, -P)
    # L(u) = den*c_u - num*r_u is den times Im Z(u) / 2dy at the apex
    # x = num/den, so lambda = L(u)/L(v); L(b1), L(b2) generate g*Z
    l_v = den * vc - num * vr
    if l_v == 0:
        raise ValueError("v has vanishing charge at the wall apex; not a wall for v")
    sign = 1 if l_v > 0 else -1
    p1, p2 = sign * (den * c1 - num * r1), sign * (den * c2 - num * r2)
    g = math.gcd(p1, p2)
    level_count = sign * l_v // g
    p1, p2 = p1 // g, p2 // g

    x, y = _bezout(p1, p2)
    br, bc, bs = x * r1 + y * r2, x * c1 + y * c2, x * s1 + y * s2  # bez, on level 1
    kr, kc, ks = p2 * r1 - p1 * r2, p2 * c1 - p1 * c2, p2 * s1 - p1 * s2  # k0, spans level 0
    a2, c = 2 * (d * kc * kc - kr * ks), 2 * (d * bc * bc - br * bs)  # k0^2, bez^2
    b = 2 * (2 * d * bc * kc - br * ks - kr * bs)  # 2<bez, k0>
    D, E = b * b - 4 * a2 * c, -8 * a2
    # D = -4 det Q > 0, as the wall of (v, a) is a semicircle; a2 < 0, as
    # l_v != 0 makes Z(k0) = 0 at the apex, so k0^2 = -2d r(k0)^2 y^2
    assert a2 < 0 < D

    v_k0 = 2 * d * vc * kc - vr * ks - kr * vs
    t_v = (2 * v_k0 - level_count * b) // (2 * a2)  # v = N*bez + t_v*k0
    h = math.gcd(level_count, t_v)
    step, t_h = level_count // h, t_v // h
    kappa, inv = level_count * b + 2 * a2 * t_v, pow(-t_h, -1, step)
    r0 = (math.isqrt(E) + 1) * level_count
    rn = (math.isqrt(level_count * level_count * D + E) + 1) * level_count
    lo, hi = min(-r0, -kappa * level_count - rn), max(r0, -kappa * level_count + rn)  # 2*a2*beta; q = beta/h
    two_abs_ah = -2 * a2 * h
    found: list[tuple[int, int, int, int, int]] = []
    for q in range(-(hi // two_abs_ah), -lo // two_abs_ah + 1):
        j = q * inv % step or step
        while j < level_count:
            t = (q + t_h * j) // step
            sq = (a2 * t + b * j) * t + c * j * j  # u^2
            if sq >= -2:
                ur, uc, us = j * br + t * kr, j * bc + t * kc, j * bs + t * ks
                # u is nonzero (j > 0); a multiple carries stable objects
                # only over a primitive class of positive square: u^2 > 0
                if sq > 0 or math.gcd(ur, uc, us) == 1:
                    assert sign * (den * uc - num * ur) == j * g
                    found.append((-j, ur, uc, us, t))
            j += step
    found.sort()
    return level_count, t_v, [(-j, t, (ur, uc, us)) for j, ur, uc, us, t in found]


def positive_classes(
    v: MukaiVector,
    w: WallRecord,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> tuple[MukaiVector, ...]:
    """Potential stable factors along the wall: u in the saturated plane with
    u^2 >= -2, 0 < lambda(u) < 1, and a nonempty stable locus.

    Sorted by descending lambda, ties by (r, c, s).
    """
    return tuple(MukaiVector(*u) for _, _, u in _levelled_classes(v, w, p)[2])


class Decomposition(_Value):
    """A multiset of positive classes summing to v, in canonical order
    (descending charge coefficient, ties by component order)."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[MukaiVector, ...]) -> None:
        _set_parts(self, parts)


(_set_parts,) = _setters(Decomposition)


def _suffix_reach(classes: list[tuple[int, int, tuple[int, int, int]]]) -> list[tuple[int, ...]]:
    """Per index i: (j, t) of class i and the (j, t) of least and of
    greatest slope t/j in classes[i:]."""
    reach: list[tuple[int, ...]] = []
    lo_j, lo_t, hi_j, hi_t = 0, 1, 0, -1  # slopes +inf and -inf, as j > 0
    for j, t, _ in reversed(classes):
        if t * lo_j < lo_t * j:
            lo_j, lo_t = j, t
        if t * hi_j > hi_t * j:
            hi_j, hi_t = j, t
        reach.append((j, t, lo_j, lo_t, hi_j, hi_t))
    reach.reverse()
    return reach


def decompositions(
    v: MukaiVector,
    w: WallRecord,
    parts_max: int = 3,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> tuple[Decomposition, ...]:
    """All multisets of positive classes of the wall summing to v, with
    between 2 and parts_max parts; parts_max is an int of at least 2, and
    any other cap raises ValueError.  Each decomposition lists its parts in
    class-list order (descending lambda, ties by (r, c, s)), and the list
    is ordered by the number of parts, then by the parts' (r, c, s) in
    that order.

    Parts sum to v = N*bez + t_v*k0 exactly when their levels sum to N and
    their t to t_v.  The search takes parts in class-list order, on an
    explicit stack, so no cap reaches the recursion limit.  The last part
    is the class at the (level, t) left, looked up and taken at or after
    the part before it, so each multiset comes once, in class-list order.
    A multiset is extended with class i only when what v lacks, (R, S),
    passes two exact tests against classes[i:]: the level cap
    R <= (parts left) * j_i, as levels descend, and the cone, S/R between
    their least and greatest t/j.  A test failing at i fails at every later
    index, so it ends the loop.  The loop starts at the first class of a
    level below R (a bisection): the classes before it, of level >= R, can
    take no part, and a test they fail fails there too."""
    if not isinstance(parts_max, int):
        raise ValueError(f"parts_max must be an integer, got {parts_max!r}")
    if parts_max < 2:
        raise ValueError("parts_max must be at least 2")
    level_count, t_v, classes = _levelled_classes(v, w, p)
    count = len(classes)
    index = {(j, t): i for i, (j, t, _) in enumerate(classes)}
    neg_levels = [-j for j, _, _ in classes]  # ascending
    reach = _suffix_reach(classes)
    found: list[tuple[int, ...]] = []
    # (parts so far, first index, what v lacks (left, t_left), room): room
    # is the parts still allowed, at least 2
    stack: list[tuple[tuple[int, ...], int, int, int, int]] = [((), 0, level_count, t_v, parts_max)]
    while stack:
        acc, start, left, t_left, room = stack.pop()
        # the classes of level >= left come first in classes[start:] and take no part
        for i in range(bisect_right(neg_levels, -left, start), count):
            j, t, lo_j, lo_t, hi_j, hi_t = reach[i]
            if left > room * j or t_left * lo_j < lo_t * left or t_left * hi_j > hi_t * left:
                break
            rest, t_rest = left - j, t_left - t
            # the last part, at or after i, has a level <= j
            if rest <= j and (last := index.get((rest, t_rest), -1)) >= i:
                found.append((*acc, i, last))
            if room > 2:
                stack.append(((*acc, i), i, rest, t_rest, room - 1))

    vectors = {i: MukaiVector(*classes[i][2]) for i in set().union(*found)}
    if len(found) > 1:
        found.sort(key=lambda parts: (len(parts), [classes[i][2] for i in parts]))
    # each parts tuple has two or more indices, so itemgetter gives a tuple
    return tuple([Decomposition(itemgetter(*parts)(vectors)) for parts in found])


def moduli_dim(u: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> int:
    """Dimension u^2 + 2 of the moduli space of stable objects of class u."""
    if not u.is_primitive():
        raise ValueError(f"moduli_dim expects a primitive class, got {u}")
    return _part_dim(u, mukai_square(u, p))


def _part_dim(u: MukaiVector, sq: int) -> int:
    """Stable-locus dimension for a decomposition part u of square sq;
    multiples of positive-square classes still carry stable objects.  As
    u = g*w has u^2 = g^2*w^2, that is the rule of _levelled_classes:
    u^2 > 0 or u primitive (the zero class is neither)."""
    if sq < -2:
        raise ValueError(f"no semistable objects of class {u} (square {sq} < -2)")
    if sq <= 0 and not u.is_primitive():
        raise ValueError(f"no stable objects of class {u} (imprimitive over a non-positive class)")
    return sq + 2


class DimReport(_Value):
    """Moduli and extension-fiber dimensions of one stratum (stratum_dims)."""

    __slots__ = ("part_moduli_dims", "fiber_dims", "stratum_dim")

    def __init__(self, part_moduli_dims: tuple[int, ...], fiber_dims: tuple[int, ...], stratum_dim: int) -> None:
        _set_part_moduli_dims(self, part_moduli_dims)
        _set_fiber_dims(self, fiber_dims)
        _set_stratum_dim(self, stratum_dim)


_set_part_moduli_dims, _set_fiber_dims, _set_stratum_dim = _setters(DimReport)


def stratum_dims(
    parts: Sequence[MukaiVector],
    v: MukaiVector,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> DimReport:
    """Moduli and iterated-extension fiber dimensions of a stratum, in the
    given part order.  Generic stable objects of distinct classes u, w have
    dim Ext^1 = <u, w>, so fiber i, the projective space of those
    extensions, has dimension <u_1 + ... + u_i, u_{i+1}> - 1; the first
    negative fiber raises, in the order given, so another order of the same
    parts may pass (see the module docstring).  v must be primitive; its
    own moduli dimension is moduli_dim(v)."""
    vr, vc, vs = v.r, v.c, v.s
    if math.gcd(vr, vc, vs) != 1:
        raise ValueError(f"stratum_dims expects a primitive class, got {v}")
    parts = [u if u.__class__ is MukaiVector else MukaiVector.coerce(u) for u in parts]
    if len(parts) < 2:
        raise ValueError("a decomposition needs at least two parts")
    two_d = 2 * p.d
    u = parts[0]
    r, c, s = u.r, u.c, u.s  # the partial sum u_1 + ... + u_i
    moduli, fibers = [two_d * c * c - 2 * r * s + 2], []
    for u in parts[1:]:
        ur, uc, us = u.r, u.c, u.s
        moduli.append(two_d * uc * uc - 2 * ur * us + 2)
        fibers.append(two_d * c * uc - r * us - ur * s - 1)
        r, c, s = r + ur, c + uc, s + us
    if r != vr or c != vc or s != vs:
        raise ValueError(f"parts do not sum to {v}")
    if min(moduli) <= 2:  # only a part of square <= 0 can fail the checks of _part_dim
        for dim, u in zip(moduli, parts):
            if dim <= 2:
                _part_dim(u, dim - 2)
    if min(fibers) < 0:
        for f, u in zip(fibers, parts[1:]):
            if f < 0:
                raise ValueError(
                    f"negative fiber dimension {f} at part {u}; the extension stratum is not effective"
                )
    return DimReport(tuple(moduli), tuple(fibers), sum(moduli) + sum(fibers))
