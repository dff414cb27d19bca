"""Central charges, numerical walls and geometric stability tests.

Stability conditions on the K3 are parametrized by points (x, y) of the
upper half plane (x = slope of B-field, y > 0 the width), with central
charge

    Z_{x,y}(r, c, s) = 2d*c*z - s - r*d*z^2,        z = x + iy.

Splitting into real and imaginary parts:

    Re Z = 2d*c*x - s - r*d*(x^2 - y^2)
    Im Z = 2d*y*(c - r*x)

Im Z carries a single factor of y, so at a point with rational x and
rational y^2 the charge is re + b*y*i with re, b rational.  ComplexValue
stores exactly that pair (plus y^2), keeping every wall computation in
exact rational arithmetic even when y itself is irrational.

A numerical wall for v is the locus where Z(a)/Z(v) is real for a fixed
class a.  Writing P = r_a c_v - r_v c_a, B = r_a s_v - r_v s_a and
C = c_v s_a - c_a s_v, that locus intersected with y > 0 is

    d*P*(x^2 + y^2) - B*x - C = 0,

a vertical line when P = 0 and otherwise a semicircle centered on the
x-axis.  The identity B^2 + 4dPC = <v,a>^2 - v^2 a^2 ties the radius
to lattice data and is exercised by the property tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .lattice import DEFAULT_SURFACE, MukaiVector, SurfaceParams, _setattr, _Value, mukai_pairing, mukai_square


class StabilityPoint(_Value):
    """A point (x, y) of the upper half plane.

    x is an exact rational; set x_exact=False when it stands in for an
    irrational value (the flag only matters to geometric_check).  y is
    stored through its square when that is rational, with a float
    fallback for display-only points.
    """

    __slots__ = ("x", "y_sq", "y_approx", "x_exact")

    def __init__(
        self,
        x: Fraction,
        y_sq: Optional[Fraction] = None,
        y_approx: Optional[float] = None,
        x_exact: bool = True,
    ) -> None:
        x = Fraction(x)
        if y_sq is not None:
            y_sq = Fraction(y_sq)
            if y_sq <= 0:
                raise ValueError(f"stability point needs y > 0, got y^2 = {y_sq}")
        elif y_approx is None:
            raise ValueError("stability point needs y_sq or y_approx")
        if y_approx is not None and y_approx <= 0:
            raise ValueError(f"stability point needs y > 0, got y = {y_approx}")
        _setattr(self, "x", x)
        _setattr(self, "y_sq", y_sq)
        _setattr(self, "y_approx", y_approx)
        _setattr(self, "x_exact", x_exact)

    @property
    def y_exact(self) -> bool:
        return self.y_sq is not None

    @property
    def y(self) -> float:
        if self.y_sq is not None:
            return math.sqrt(float(self.y_sq))
        return float(self.y_approx)

    def y_square(self) -> Fraction:
        """y^2 as an exact rational; for float-only points, the exact square
        of the stored float (deterministic, but carries no exactness claim)."""
        if self.y_sq is not None:
            return self.y_sq
        return Fraction(self.y_approx) ** 2


class ComplexValue(_Value):
    """re + im_coeff * sqrt(y_sq) * i with all three fields rational."""

    __slots__ = ("re", "im_coeff", "y_sq")

    def __init__(self, re: Fraction, im_coeff: Fraction, y_sq: Fraction) -> None:
        _setattr(self, "re", re)
        _setattr(self, "im_coeff", im_coeff)
        _setattr(self, "y_sq", y_sq)

    @property
    def im(self) -> float:
        return float(self.im_coeff) * math.sqrt(float(self.y_sq))

    @property
    def re_float(self) -> float:
        return float(self.re)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im_coeff == 0

    def times_conj(self, other: "ComplexValue") -> tuple[Fraction, Fraction]:
        """Exact real part and imaginary coefficient of self * conj(other)."""
        if self.y_sq != other.y_sq:
            raise ValueError("charges evaluated at different points cannot be compared")
        re = self.re * other.re + self.im_coeff * other.im_coeff * self.y_sq
        im_coeff = self.im_coeff * other.re - self.re * other.im_coeff
        return re, im_coeff


def central_charge(u: MukaiVector, pt: StabilityPoint, p: SurfaceParams = DEFAULT_SURFACE) -> ComplexValue:
    """Z(u) at pt, exactly."""
    x = pt.x
    ysq = pt.y_square()
    d = p.d
    re = 2 * d * u.c * x - u.s - u.r * d * (x * x - ysq)
    im_coeff = 2 * d * (u.c - u.r * x)
    return ComplexValue(Fraction(re), Fraction(im_coeff), ysq)


def phase(z: ComplexValue) -> float:
    """arg(Z)/pi folded into (0, 1]; positive reals get phase 1.

    The fold identifies opposite rays, which is harmless here: every
    ordering decision in this package uses the exact ray test on
    ComplexValue, never the float phase.
    """
    if z.is_zero():
        raise ValueError("phase of the zero charge is undefined")
    t = math.atan2(z.im, z.re_float) / math.pi
    if t <= 0.0:
        t += 1.0
    return t


class VerticalLine(_Value):
    """Wall of the form x = x0."""

    __slots__ = ("x0",)

    def __init__(self, x0: Fraction) -> None:
        _setattr(self, "x0", x0)


class Semicircle(_Value):
    """Wall (x - center_x)^2 + y^2 = radius_sq, y > 0."""

    __slots__ = ("center_x", "radius_sq")

    def __init__(self, center_x: Fraction, radius_sq: Fraction) -> None:
        _setattr(self, "center_x", center_x)
        _setattr(self, "radius_sq", radius_sq)


# a | union, not typing.Union: typing caches Union[...] for good, which would
# keep every re-imported generation of these classes alive
WallCurve = VerticalLine | Semicircle


def _wall_minors(v: MukaiVector, a: MukaiVector) -> tuple[int, int, int]:
    P = a.r * v.c - v.r * a.c
    B = a.r * v.s - v.r * a.s
    C = v.c * a.s - a.c * v.s
    return P, B, C


def wall_locus(v: MukaiVector, a: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> WallCurve:
    """The numerical wall W(v, a) = { Z(a)/Z(v) real } in the upper half plane.

    Raises ValueError when a is proportional to v (no wall) and when the
    locus misses the half plane entirely (empty wall).
    """
    P, B, C = _wall_minors(v, a)
    d = p.d
    if P == 0:
        if B == 0:
            if C == 0:
                raise ValueError(f"classes {v} and {a} are proportional; the wall is undefined")
            raise ValueError(f"wall of {v} and {a} does not meet the upper half plane")
        return VerticalLine(Fraction(-C, B))
    # radius^2 = center^2 + C/(dP) over the common denominator (2dP)^2
    radius_num = B * B + 4 * d * P * C
    if radius_num <= 0:
        raise ValueError(f"wall of {v} and {a} does not meet the upper half plane")
    return Semicircle(Fraction(B, 2 * d * P), Fraction(radius_num, 4 * d * d * P * P))


class _Degenerate:
    """Marker: the vertical path lies inside the wall."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DEGENERATE"


DEGENERATE = _Degenerate()


def path_intersection(curve: WallCurve, x0: Fraction):
    """y^2 where the vertical path x = x0 crosses the wall.

    Returns the exact rational y^2, or None when the path misses the
    wall, or the DEGENERATE marker when the path runs along a vertical
    wall.  A miss is decided from the sign of the integer numerator of
    radius^2 - (x0 - center)^2; a Fraction is built only for a hit.
    """
    if not isinstance(x0, Fraction):
        x0 = Fraction(x0)
    if isinstance(curve, VerticalLine):
        return DEGENERATE if x0 == curve.x0 else None
    e, rho_sq = curve.center_x, curve.radius_sq
    q = x0.denominator * e.denominator  # (x0 - e) = offset / q
    offset = x0.numerator * e.denominator - e.numerator * x0.denominator
    y_sq_num = rho_sq.numerator * q * q - offset * offset * rho_sq.denominator
    if y_sq_num <= 0:
        return None
    return Fraction(y_sq_num, rho_sq.denominator * q * q)


class GeometricCheckResult(_Value):
    """status is "ok", "obstructed" or "inconclusive"; witness is the
    spherical class behind "obstructed", else None."""

    __slots__ = ("status", "witness", "reason")

    def __init__(self, status: str, witness: Optional[MukaiVector], reason: str) -> None:
        _setattr(self, "status", status)
        _setattr(self, "witness", witness)
        _setattr(self, "reason", reason)


def geometric_check(pt: StabilityPoint, p: SurfaceParams = DEFAULT_SURFACE) -> GeometricCheckResult:
    """Test whether (x, y) lies in the geometric chamber shared with large volume.

    A spherical class (r, c, s), r > 0, with c/r = x and d*r^2*y^2 <= 1
    has Z real and non-positive there and kills geometricity; the point
    is geometric exactly when no such witness exists.  Writing x = a/q in
    lowest terms, a witness has r = q*t and c = a*t, and spherical means
    r divides d*c^2 + 1, so t divides d*a^2*t^2 + 1: t = 1.  The only
    candidate is (q, a, (d*a^2 + 1)/q), so the test is exact for rational
    x and y^2.  It is inconclusive only when x is flagged irrational or
    y <= 1 is known only as a float.
    """
    y_sq = pt.y_square()
    if pt.y_exact:
        if y_sq > 1:
            return GeometricCheckResult("ok", None, "y > 1: no spherical obstruction exists")
    else:
        if pt.y_approx > 1.0:
            return GeometricCheckResult("ok", None, "y > 1 (float): no spherical obstruction exists")
        return GeometricCheckResult("inconclusive", None, "y <= 1 known only approximately")
    if not pt.x_exact:
        return GeometricCheckResult("inconclusive", None, "x is flagged irrational; no integral witness can match it")
    r, c = pt.x.denominator, pt.x.numerator
    num = p.d * c * c + 1
    if num % r == 0 and p.d * r * r * y_sq <= 1:
        witness = MukaiVector(r, c, num // r)
        # by construction the witness is spherical
        assert mukai_square(witness, p) == -2
        return GeometricCheckResult(
            "obstructed",
            witness,
            f"spherical class {witness} is destabilized at y^2 = {y_sq}",
        )
    return GeometricCheckResult(
        "ok", None, f"no spherical class (r, c, s) with c/r = {pt.x} and d*r^2*y^2 <= 1 exists"
    )


def wall_discriminant(v: MukaiVector, a: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> int:
    """<v,a>^2 - v^2 a^2; positive exactly when span(v, a) is hyperbolic."""
    va = mukai_pairing(v, a, p)
    return va * va - mukai_square(v, p) * mukai_square(a, p)
