"""What happens on a wall: aligned classes, decompositions, stratum dimensions.

At the apex x = num/den of a semicircular wall (the point above its
center) every class u of the saturated rank-two lattice spanned by v and
the wall class a has purely imaginary central charge, so
Z(u) = lambda(u) * Z(v) with lambda(u) = L(u)/L(v) for the integer form
L(u) = den*c_u - num*r_u.  L maps the plane onto g*Z, so lambda takes
the values j/N with N = L(v)/g and integer levels j.  The "positive
classes" of the wall are those u with u^2 >= -2 and 0 < j < N whose
stable locus is nonempty (u primitive, or a multiple of a class of
positive square); on each level u^2 >= -2 cuts out an interval of one
line.  A decomposition of v is a multiset of positive classes summing to
v, so its levels sum to N: the search is an exact integer knapsack that
prunes once the levels pass N and keeps a full sum when the parts add
up to v.

Dimension bookkeeping for a decomposition u_1, ..., u_t (ordered by
descending lambda):

    moduli factor for u_i:    u_i^2 + 2
    fiber step i:             <u_1 + ... + u_i, u_{i+1}> - 1
    stratum dimension:        sum of both columns

A negative fiber step means the corresponding extension stratum is not
effective and is reported as an error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .charge import Semicircle, StabilityPoint, wall_locus
from .lattice import DEFAULT_SURFACE, MukaiVector, SurfaceParams, _setattr, _Value, mukai_pairing, mukai_square
from .walls import WallRecord


def _primitive_cross(v: MukaiVector, a: MukaiVector) -> tuple[int, int, int]:
    x = v.c * a.s - v.s * a.c
    y = v.s * a.r - v.r * a.s
    z = v.r * a.c - v.c * a.r
    g = math.gcd(math.gcd(abs(x), abs(y)), abs(z))
    if g == 0:
        raise ValueError(f"classes {v} and {a} are proportional")
    return (x // g, y // g, z // g)


def _perp_basis(n1: int, n2: int, n3: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Integer basis of the rank-two lattice { u : u . (n1,n2,n3) = 0 }.

    Requires (n1, n2, n3) primitive; the construction makes the basis
    span the full (saturated) orthogonal lattice, certified by the cross
    product coming back primitive.
    """
    if n2 == 0 and n3 == 0:
        return (0, 1, 0), (0, 0, 1)
    g = math.gcd(abs(n2), abs(n3))
    # alpha*n2 + beta*n3 = g
    alpha, beta = _bezout(n2, n3)
    b1 = (0, -n3 // g, n2 // g)
    b2 = (g, -alpha * n1, -beta * n1)
    return b1, b2


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


class SaturatedPlane(_Value):
    """The saturation of span(v, a) inside the lattice, with coordinates."""

    __slots__ = ("b1", "b2")

    def __init__(self, b1: MukaiVector, b2: MukaiVector) -> None:
        _setattr(self, "b1", b1)
        _setattr(self, "b2", b2)

    def vector(self, x: int, y: int) -> MukaiVector:
        return x * self.b1 + y * self.b2

    def coordinates(self, u: MukaiVector) -> tuple[int, int]:
        """Integer coordinates of u in (b1, b2); errors if u is off the plane."""
        pairs = ((0, 1), (0, 2), (1, 2))
        for i, j in pairs:
            t1, t2, tu = self.b1.as_tuple(), self.b2.as_tuple(), u.as_tuple()
            det = t1[i] * t2[j] - t1[j] * t2[i]
            if det == 0:
                continue
            x_num = tu[i] * t2[j] - tu[j] * t2[i]
            y_num = t1[i] * tu[j] - t1[j] * tu[i]
            if x_num % det or y_num % det:
                raise ValueError(f"{u} is not in the saturated plane")
            x, y = x_num // det, y_num // det
            if self.vector(x, y) != u:
                raise ValueError(f"{u} is not in the saturated plane")
            return x, y
        raise ValueError("degenerate basis")


def saturated_plane(v: MukaiVector, a: MukaiVector) -> SaturatedPlane:
    normal = _primitive_cross(v, a)
    b1, b2 = _perp_basis(*normal)
    return SaturatedPlane(MukaiVector(*b1), MukaiVector(*b2))


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


def _has_stable_locus(u: MukaiVector, p: SurfaceParams) -> bool:
    """A nonzero class carries stable objects only when it is primitive or
    a multiple of a class of positive square."""
    return u.is_primitive() or mukai_square(u.primitive_part(), p) > 0


def _levelled_classes(v: MukaiVector, w: WallRecord, p: SurfaceParams) -> tuple[int, list[tuple[int, MukaiVector]]]:
    """(N, [(j, u), ...]): the positive classes u of the wall with
    lambda(u) = j/N, sorted by descending j, ties by (r, c, s)."""
    if w.curve is None or not isinstance(w.curve, Semicircle):
        raise ValueError("positive classes need a semicircular wall")
    if wall_locus(v, w.a, p) != w.curve:
        raise ValueError("record curve is not the wall of (v, a): charges do not align at the apex")
    plane = saturated_plane(v, w.a)
    # L(u) = den*c_u - num*r_u is den times Im Z(u) / 2dy at the apex
    # x = num/den, so lambda = L(u)/L(v); L(b1), L(b2) generate g*Z
    num, den = w.curve.center_x.numerator, w.curve.center_x.denominator
    l_v = den * v.c - num * v.r
    if l_v == 0:
        raise ValueError("v has vanishing charge at the wall apex; not a wall for v")
    sign = 1 if l_v > 0 else -1
    p1, p2 = (sign * (den * b.c - num * b.r) for b in (plane.b1, plane.b2))
    g = math.gcd(p1, p2)
    level_count = sign * l_v // g
    p1, p2 = p1 // g, p2 // g

    # direction of constant lambda, and the quadratic form on coordinates
    k0 = (p2, -p1)
    q11 = mukai_pairing(plane.b1, plane.b1, p)
    q12 = mukai_pairing(plane.b1, plane.b2, p)
    q22 = mukai_pairing(plane.b2, plane.b2, p)

    def q_form(x: int, y: int) -> int:
        return q11 * x * x + 2 * q12 * x * y + q22 * y * y

    def q_pair(x1: int, y1: int, x2: int, y2: int) -> int:
        return q11 * x1 * x2 + q12 * (x1 * y2 + x2 * y1) + q22 * y1 * y2

    a2 = q_form(*k0)
    if a2 >= 0:
        raise ValueError("the wall kernel is not negative definite; not a wall of geometric stability")

    bez1, bez2 = _bezout(p1, p2)  # bez1*p1 + bez2*p2 = 1
    found: list[tuple[int, MukaiVector]] = []
    for j in range(1, level_count):
        base = (bez1 * j, bez2 * j)  # on level j
        b2_ = 2 * q_pair(*base, *k0)
        c2_ = q_form(*base) + 2
        disc = b2_ * b2_ - 4 * a2 * c2_
        if disc < 0:
            continue
        # a2 < 0, so u^2 >= -2 on this level reads (2*a2*t + b2_)^2 <= disc
        root = math.isqrt(disc)
        for t in range(-((root - b2_) // (-2 * a2)), (b2_ + root) // (-2 * a2) + 1):
            x, y = base[0] + t * k0[0], base[1] + t * k0[1]
            u = plane.vector(x, y)
            if u.is_zero() or not _has_stable_locus(u, p):
                continue
            assert sign * (den * u.c - num * u.r) == j * g
            found.append((j, u))
    found.sort(key=lambda item: (-item[0], item[1].as_tuple()))
    return level_count, found


def positive_classes(
    v: MukaiVector,
    w: WallRecord,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> tuple[MukaiVector, ...]:
    """Potential stable factors along the wall: u in the saturated plane with
    u^2 >= -2, 0 < lambda(u) < 1, and a nonempty stable locus.

    Sorted by descending lambda, ties by (r, c, s).
    """
    return tuple(u for _, u in _levelled_classes(v, w, p)[1])


class Decomposition(_Value):
    """A multiset of positive classes summing to v, in canonical order
    (descending charge coefficient, ties by component order)."""

    __slots__ = ("parts", "wall")

    def __init__(self, parts: tuple[MukaiVector, ...], wall: WallRecord) -> None:
        _setattr(self, "parts", parts)
        _setattr(self, "wall", wall)


def decompositions(
    v: MukaiVector,
    w: WallRecord,
    parts_max: int = 3,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> tuple[Decomposition, ...]:
    """All multisets of positive classes of the wall summing to v, with
    between 2 and parts_max parts."""
    if parts_max < 2:
        raise ValueError("parts_max must be at least 2")
    level_count, classes = _levelled_classes(v, w, p)
    results: list[tuple[MukaiVector, ...]] = []

    def search(start: int, acc: list[MukaiVector], acc_sum: MukaiVector, acc_level: int) -> None:
        if acc_level == level_count:
            # every level is positive, so a full sum cannot be extended
            if acc_sum == v:
                results.append(tuple(acc))
            return
        if len(acc) == parts_max:
            return
        for i in range(start, len(classes)):
            j, u = classes[i]
            if acc_level + j > level_count:
                continue
            acc.append(u)
            search(i, acc, acc_sum + u, acc_level + j)
            acc.pop()

    search(0, [], MukaiVector(0, 0, 0), 0)
    results.sort(key=lambda parts: (len(parts), tuple(u.as_tuple() for u in parts)))
    return tuple(Decomposition(parts=parts, wall=w) for parts in results)


def moduli_dim(u: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> int:
    """Dimension u^2 + 2 of the moduli space of stable objects of class u."""
    if not u.is_primitive():
        raise ValueError(f"moduli_dim expects a primitive class, got {u}")
    return _part_dim(u, p)


def _part_dim(u: MukaiVector, p: SurfaceParams) -> int:
    """Stable-locus dimension for a decomposition part; multiples of
    positive-square classes still carry stable objects."""
    sq = mukai_square(u, p)
    if sq < -2:
        raise ValueError(f"no semistable objects of class {u} (square {sq} < -2)")
    if not _has_stable_locus(u, p):
        raise ValueError(f"no stable objects of class {u} (imprimitive over a non-positive class)")
    return sq + 2


class DimReport(_Value):
    """Moduli and extension-fiber dimensions of one stratum (stratum_dims)."""

    __slots__ = ("part_moduli_dims", "fiber_dims", "stratum_dim", "total_space_dim")

    def __init__(
        self,
        part_moduli_dims: tuple[int, ...],
        fiber_dims: tuple[int, ...],
        stratum_dim: int,
        total_space_dim: int,
    ) -> None:
        _setattr(self, "part_moduli_dims", part_moduli_dims)
        _setattr(self, "fiber_dims", fiber_dims)
        _setattr(self, "stratum_dim", stratum_dim)
        _setattr(self, "total_space_dim", total_space_dim)


def stratum_dims(
    parts: Sequence[MukaiVector],
    v: MukaiVector,
    p: SurfaceParams = DEFAULT_SURFACE,
) -> DimReport:
    """Moduli and iterated-extension fiber dimensions of a stratum, in the
    given part order."""
    parts = [MukaiVector.coerce(u) for u in parts]
    if len(parts) < 2:
        raise ValueError("a decomposition needs at least two parts")
    if sum(parts, MukaiVector(0, 0, 0)) != v:
        raise ValueError(f"parts do not sum to {v}")
    moduli = tuple(_part_dim(u, p) for u in parts)
    fibers = []
    partial = parts[0]
    for u in parts[1:]:
        f = mukai_pairing(partial, u, p) - 1
        if f < 0:
            raise ValueError(
                f"negative fiber dimension {f} at part {u}; the extension stratum is not effective"
            )
        fibers.append(f)
        partial = partial + u
    return DimReport(
        part_moduli_dims=moduli,
        fiber_dims=tuple(fibers),
        stratum_dim=sum(moduli) + sum(fibers),
        total_space_dim=moduli_dim(v, p),
    )


def ext_dim(u: MukaiVector, w: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> int:
    """dim Ext^1 between generic stable objects of distinct classes: <u, w>."""
    return mukai_pairing(u, w, p)
