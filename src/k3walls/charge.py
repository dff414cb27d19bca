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

from fractions import Fraction
from math import gcd

from .lattice import DEFAULT_SURFACE, MukaiVector, SurfaceParams, _setters, _Value, mukai_pairing, mukai_square


class StabilityPoint(_Value):
    """A point (x, y) of the upper half plane, exact: x and y^2 are
    rationals."""

    __slots__ = ("x", "y_sq")

    def __init__(self, x: Fraction, y_sq: Fraction) -> None:
        x, y_sq = Fraction(x), Fraction(y_sq)
        if y_sq <= 0:
            raise ValueError(f"stability point needs y > 0, got y^2 = {y_sq}")
        _set_x(self, x)
        _set_point_y_sq(self, y_sq)


_set_x, _set_point_y_sq = _setters(StabilityPoint)


def _rational(num: int, den: int) -> Fraction:
    """The Fraction(num, den) of two ints, in lowest terms with den > 0,
    built without the generic argument dispatch of Fraction's constructor:
    reduced as that constructor reduces, then made as Python 3.12's
    Fraction._from_coprime_ints makes a Fraction."""
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = gcd(num, den)
    if den < 0:
        g = -g
    q = object.__new__(Fraction)
    q._numerator = num // g
    q._denominator = den // g
    return q


class ComplexValue(_Value):
    """re + im_coeff * sqrt(y_sq) * i with all three fields rational."""

    __slots__ = ("re", "im_coeff", "y_sq")

    def __init__(self, re: Fraction, im_coeff: Fraction, y_sq: Fraction) -> None:
        _set_re(self, re)
        _set_im_coeff(self, im_coeff)
        _set_value_y_sq(self, y_sq)

    def times_conj(self, other: "ComplexValue") -> tuple[Fraction, Fraction]:
        """Exact real part and imaginary coefficient of self * conj(other)."""
        if self.y_sq != other.y_sq:
            raise ValueError("charges evaluated at different points cannot be compared")
        re = self.re * other.re + self.im_coeff * other.im_coeff * self.y_sq
        im_coeff = self.im_coeff * other.re - self.re * other.im_coeff
        return re, im_coeff


_set_re, _set_im_coeff, _set_value_y_sq = _setters(ComplexValue)


def central_charge(u: MukaiVector, pt: StabilityPoint, p: SurfaceParams = DEFAULT_SURFACE) -> ComplexValue:
    """Z(u) at pt, exactly."""
    x = pt.x
    ysq = pt.y_sq
    d = p.d
    re = 2 * d * u.c * x - u.s - u.r * d * (x * x - ysq)
    im_coeff = 2 * d * (u.c - u.r * x)
    return ComplexValue(Fraction(re), Fraction(im_coeff), ysq)


class VerticalLine(_Value):
    """Wall of the form x = x0."""

    __slots__ = ("x0",)

    def __init__(self, x0: Fraction) -> None:
        _set_x0(self, x0)


(_set_x0,) = _setters(VerticalLine)


class Semicircle(_Value):
    """Wall (x - center_x)^2 + y^2 = radius_sq, y > 0."""

    __slots__ = ("center_x", "radius_sq")

    def __init__(self, center_x: Fraction, radius_sq: Fraction) -> None:
        _set_center_x(self, center_x)
        _set_radius_sq(self, radius_sq)


_set_center_x, _set_radius_sq = _setters(Semicircle)


# a | union, not typing.Union: typing caches Union[...] for good, which would
# keep every re-imported generation of these classes alive
WallCurve = VerticalLine | Semicircle


def wall_locus(v: MukaiVector, a: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> WallCurve:
    """The numerical wall W(v, a) = { Z(a)/Z(v) real } in the upper half plane.

    Raises ValueError when a is proportional to v (no wall) and when the
    locus misses the half plane entirely (empty wall).
    """
    P = a.r * v.c - v.r * a.c
    B = a.r * v.s - v.r * a.s
    C = v.c * a.s - a.c * v.s
    d = p.d
    if P == 0:
        if B == 0:
            if C == 0:
                raise ValueError(f"classes {v} and {a} are proportional; the wall is undefined")
            raise ValueError(f"wall of {v} and {a} does not meet the upper half plane")
        return VerticalLine(_rational(-C, B))
    # radius^2 = center^2 + C/(dP) over the common denominator (2dP)^2
    radius_num = B * B + 4 * d * P * C
    if radius_num <= 0:
        raise ValueError(f"wall of {v} and {a} does not meet the upper half plane")
    return Semicircle(_rational(B, 2 * d * P), _rational(radius_num, 4 * d * d * P * P))


class _Degenerate:
    """Marker: the vertical path lies inside the wall."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DEGENERATE"


DEGENERATE = _Degenerate()


def _integer_ratio(x) -> tuple[int, int]:
    """x, anything Fraction accepts, in lowest terms with den > 0: its
    as_integer_ratio(), or Fraction(x)'s when it has none (a str, say)."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return Fraction(x).as_integer_ratio()


def path_intersection(curve: WallCurve, x0: Fraction):
    """y^2 where the vertical path x = x0 crosses the wall.

    Returns the exact rational y^2, or None when the path misses the
    wall, or the DEGENERATE marker when the path runs along a vertical
    wall.  A miss is decided from the sign of the integer numerator of
    radius^2 - (x0 - center)^2; a Fraction is built only for a hit.
    The numerator and denominator of a Fraction (not of a subclass) are
    read from its _numerator and _denominator slots, which hold them in
    lowest terms, as as_integer_ratio() returns them.
    """
    if type(x0) is Fraction:
        xn, xd = x0._numerator, x0._denominator
    else:
        xn, xd = _integer_ratio(x0)
    if type(curve) is Semicircle and type(e := curve.center_x) is Fraction and type(rho := curve.radius_sq) is Fraction:
        en, ed, rn, rd = e._numerator, e._denominator, rho._numerator, rho._denominator
    elif isinstance(curve, VerticalLine):
        return DEGENERATE if (xn, xd) == curve.x0.as_integer_ratio() else None
    else:
        en, ed = curve.center_x.as_integer_ratio()
        rn, rd = curve.radius_sq.as_integer_ratio()
    q = xd * ed  # (x0 - e) = offset / q
    offset = xn * ed - en * xd
    y_sq_num = rn * q * q - offset * offset * rd
    if y_sq_num <= 0:
        return None
    return _rational(y_sq_num, rd * q * q)


def geometric_check(pt: StabilityPoint, p: SurfaceParams = DEFAULT_SURFACE) -> MukaiVector | None:
    """The spherical class that keeps (x, y) out of the geometric chamber
    shared with large volume, or None when the point lies in it.

    A spherical class (r, c, s), r > 0, with c/r = x and d*r^2*y^2 <= 1
    has Z real and non-positive there and kills geometricity; the point
    is geometric exactly when no such witness exists.  Writing x = a/q in
    lowest terms, a witness has r = q*t and c = a*t, and spherical means
    r divides d*c^2 + 1, so t divides d*a^2*t^2 + 1: t = 1.  The only
    candidate is (q, a, (d*a^2 + 1)/q), and the answer is exact.
    """
    r, c = pt.x.denominator, pt.x.numerator
    num = p.d * c * c + 1
    if num % r or p.d * r * r * pt.y_sq > 1:
        return None
    witness = MukaiVector(r, c, num // r)
    # by construction the witness is spherical
    assert mukai_square(witness, p) == -2
    return witness


def wall_discriminant(v: MukaiVector, a: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> int:
    """<v,a>^2 - v^2 a^2; positive exactly when span(v, a) is hyperbolic."""
    va = mukai_pairing(v, a, p)
    return va * va - mukai_square(v, p) * mukai_square(a, p)
