"""Integral Mukai-lattice arithmetic for a K3 surface of Picard rank one.

A vector is a triple (r, c, s) standing for r + c*H + s*pt in the even
cohomology of a K3 surface S with Pic(S) = Z*H and H^2 = 2d.  The Mukai
pairing restricted to this rank-three sublattice is

    <(r, c, s), (r', c', s')> = 2d*c*c' - r*s' - r'*s,

an even lattice of signature (2, 1).  Everything in this module is exact
integer arithmetic; no floats appear anywhere.

The derived-category symmetries we need act on this lattice by:

* tensoring with O(kH):       (r, c, s) -> (r, c + rk, s + 2dck + drk^2)
* the spherical twist T_w:    u -> u + <u, w> w      (w^2 = -2)
* derived dual with shift:    (r, c, s) -> (-r, c, -s)

The composite used to compare a Hilbert scheme with its Beauville-Mukai
partner is phi_pushforward: reflect in the class of O(-mH), then tensor
with O(mH).
"""

from __future__ import annotations

import math


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields, in order, as its __slots__.  Its module
    binds the __set__ of each field's slot descriptor once, right after
    the class (_set_r, _set_c, _set_s = _setters(MukaiVector)), and the
    subclass's own __init__ sets each field through its setter, which
    __setattr__ below does not see.  Instances then act as frozen
    dataclasses would: compared by class and fields, hashed as the tuple
    of fields, shown as Name(field=value, ...), closed to assignment and
    deletion, and pickled or copied by calling the class again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


def _setters(cls: type) -> list:
    """The __set__ of each slot descriptor of cls, in field order."""
    return [cls.__dict__[name].__set__ for name in cls.__slots__]


class SurfaceParams(_Value):
    """Numerical invariants of the polarized K3 surface: H^2 = 2d."""

    __slots__ = ("d",)

    def __init__(self, d: int = 1) -> None:
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"degree parameter d must be a positive integer, got {d!r}")
        _set_d(self, d)


(_set_d,) = _setters(SurfaceParams)

DEFAULT_SURFACE = SurfaceParams(1)


class MukaiVector(_Value):
    """An integral class (r, c, s) = r + c*H + s*pt."""

    __slots__ = ("r", "c", "s")

    def __init__(self, r: int, c: int, s: int) -> None:
        if not (isinstance(r, int) and isinstance(c, int) and isinstance(s, int)):
            for name, value in (("r", r), ("c", c), ("s", s)):
                if not isinstance(value, int):
                    raise ValueError(f"Mukai vector components must be integers, got {name}={value!r}")
        _set_r(self, r)
        _set_c(self, c)
        _set_s(self, s)

    # -- basic group structure ------------------------------------------------

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.c + other.c, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.c - other.c, self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, -self.c, -self.s)

    def __mul__(self, k: int) -> "MukaiVector":
        if not isinstance(k, int):
            return NotImplemented
        return MukaiVector(k * self.r, k * self.c, k * self.s)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r, self.c, self.s)

    def is_zero(self) -> bool:
        return self.r == 0 and self.c == 0 and self.s == 0

    def content(self) -> int:
        """gcd of the components (0 for the zero vector)."""
        return math.gcd(self.r, self.c, self.s)

    def is_primitive(self) -> bool:
        return self.content() == 1

    def primitive_part(self) -> "MukaiVector":
        g = self.content()
        if g == 0:
            raise ValueError("the zero vector has no primitive part")
        return MukaiVector(self.r // g, self.c // g, self.s // g)

    def __str__(self) -> str:
        return f"({self.r}, {self.c}, {self.s})"

    @classmethod
    def coerce(cls, value) -> "MukaiVector":
        """Accept an existing vector or any length-three iterable of ints or
        decimal-integer strings; any other component raises ValueError."""
        if isinstance(value, cls):
            return value
        parts = tuple(value)
        if len(parts) != 3:
            raise ValueError(f"expected three components, got {value!r}")
        ints = []
        for part in parts:
            if isinstance(part, str):
                try:
                    part = int(part)
                except ValueError:
                    pass  # left a str, which the constructor refuses by name
            ints.append(part)
        return cls(*ints)


_set_r, _set_c, _set_s = _setters(MukaiVector)


def mukai_pairing(u: MukaiVector, w: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> int:
    return 2 * p.d * u.c * w.c - u.r * w.s - w.r * u.s


def mukai_square(u: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> int:
    return 2 * (p.d * u.c * u.c - u.r * u.s)


def line_bundle_vector(k: int, p: SurfaceParams = DEFAULT_SURFACE) -> MukaiVector:
    """Mukai vector of the line bundle O(kH); always spherical."""
    return MukaiVector(1, k, p.d * k * k + 1)


def tensor_twist(u: MukaiVector, k: int, p: SurfaceParams = DEFAULT_SURFACE) -> MukaiVector:
    """Action of - tensor O(kH)."""
    return MukaiVector(
        u.r,
        u.c + u.r * k,
        u.s + 2 * p.d * u.c * k + p.d * u.r * k * k,
    )


def spherical_reflect(u: MukaiVector, w: MukaiVector, p: SurfaceParams = DEFAULT_SURFACE) -> MukaiVector:
    """Cohomological action u -> u + <u, w> w of the spherical twist T_w.

    Requires w^2 = -2; the map is the reflection of the Mukai lattice in
    the hyperplane orthogonal to w, and is an involution.
    """
    if mukai_square(w, p) != -2:
        raise ValueError(f"spherical reflection needs a (-2)-class, got {w} with square {mukai_square(w, p)}")
    return u + mukai_pairing(u, w, p) * w


def dual_shift(u: MukaiVector) -> MukaiVector:
    """Action of the derived dual composed with a shift: (r, c, s) -> (-r, c, -s)."""
    return MukaiVector(-u.r, u.c, -u.s)


def phi_pushforward(u: MukaiVector, m: int, p: SurfaceParams = DEFAULT_SURFACE) -> MukaiVector:
    """Lattice action of Phi_m = (tensor O(mH)) after the twist in O(-mH).

    Phi_m carries (1, 0, 1-n) to (0, m, -1) exactly when n = d*m^2 + 1,
    matching the Beauville-Mukai system on the partner moduli space.
    """
    reflected = spherical_reflect(u, line_bundle_vector(-m, p), p)
    return tensor_twist(reflected, m, p)


def phi_pullback(u: MukaiVector, m: int, p: SurfaceParams = DEFAULT_SURFACE) -> MukaiVector:
    """Inverse of phi_pushforward (untwist, then reflect)."""
    untwisted = tensor_twist(u, -m, p)
    return spherical_reflect(untwisted, line_bundle_vector(-m, p), p)

