"""Frozen expected values shared across the test modules.

Every row here was verified by hand against the closed-form identities
before the implementation produced it: circle centers and radii from
the 2x2 minors of (v, a), slopes from the primitive generator of the
orthogonal plane, dimensions from u^2 + 2 and the pairing chain.  The
tests compare implementation output against these literals bit-exactly;
none of them were generated by the code under test.
"""

import math
from fractions import Fraction

F = Fraction

# walls of (1, 0, 1-n) for ten points, in ascending slope order:
# (gamma, a, a_sq, (v,a), curve, type); curve is ("v", x0) for a vertical
# line, ("c", center, radius_sq) for a semicircle, None for the slope-only
# boundary row.
WALLS_N10 = [
    (F(0), (0, 0, -1), 0, 1, ("v", F(0)), "divisorial"),
    (F(2, 11), (1, -1, 2), -2, 7, ("c", F(-11, 2), F(85, 4)), "flopping"),
    (F(1, 5), (1, -1, 1), 0, 8, ("c", F(-5), F(16)), "flopping"),
    (F(2, 9), (0, 1, -9), 2, 9, ("c", F(-9, 2), F(45, 4)), "flopping"),
    (F(1, 4), (0, 1, -8), 2, 8, ("c", F(-4), F(7)), "flopping"),
    (F(2, 7), (0, 1, -7), 2, 7, ("c", F(-7, 2), F(13, 4)), "flopping"),
    (F(4, 13), (1, -2, 4), 0, 5, ("c", F(-13, 4), F(25, 16)), "flopping"),
    (F(6, 19), (-1, 3, -10), -2, 1, ("c", F(-19, 6), F(37, 36)), "flopping"),
    (F(8, 25), (-1, 4, -16), 0, 7, ("c", F(-25, 8), F(49, 64)), "flopping"),
    (F(10, 31), (2, -5, 13), -2, 5, ("c", F(-31, 10), F(61, 100)), "flopping"),
    (F(14, 43), (-2, 7, -25), -2, 7, ("c", F(-43, 14), F(85, 196)), "flopping"),
    (F(1, 3), (-1, 3, -9), 0, 0, None, "boundary_lagrangian"),
]

WALLS_N2 = [
    (F(0), (0, 0, -1), 0, 1, ("v", F(0)), "divisorial"),
    (F(2, 3), (-1, 1, -2), -2, 1, ("c", F(-3, 2), F(5, 4)), "flopping"),
    (F(1), (-1, 1, -1), 0, 0, None, "boundary_lagrangian"),
]

WALLS_N3 = [
    (F(0), (0, 0, -1), 0, 1, ("v", F(0)), "divisorial"),
    (F(1, 2), (1, -1, 2), -2, 0, ("c", F(-2), F(2)), "divisorial"),
]

WALLS_N4 = [
    (F(0), (0, 0, -1), 0, 1, ("v", F(0)), "divisorial"),
    (F(2, 5), (1, -1, 2), -2, 1, ("c", F(-5, 2), F(13, 4)), "flopping"),
    (F(1, 2), (1, -1, 1), 0, 2, ("c", F(-2), F(1)), "divisorial"),
]

WALLS_N8 = [
    (F(0), (0, 0, -1), 0, 1, ("v", F(0)), "divisorial"),
    (F(2, 9), (1, -1, 2), -2, 5, ("c", F(-9, 2), F(53, 4)), "flopping"),
    (F(1, 4), (1, -1, 1), 0, 6, ("c", F(-4), F(9)), "flopping"),
    (F(2, 7), (0, 1, -7), 2, 7, ("c", F(-7, 2), F(21, 4)), "flopping"),
    (F(1, 3), (0, 1, -6), 2, 6, ("c", F(-3), F(2)), "flopping"),
    (F(6, 17), (-1, 3, -10), -2, 3, ("c", F(-17, 6), F(37, 36)), "flopping"),
    (F(4, 11), (1, -2, 4), 0, 3, ("c", F(-11, 4), F(9, 16)), "flopping"),
    (F(10, 27), (2, -5, 13), -2, 1, ("c", F(-27, 10), F(29, 100)), "flopping"),
    (F(3, 8), (-1, 3, -9), 0, 2, ("c", F(-8, 3), F(1, 9)), "divisorial"),
]

WALLS_BY_N = {2: WALLS_N2, 3: WALLS_N3, 4: WALLS_N4, 8: WALLS_N8, 10: WALLS_N10}

GAMMA_MAX = {2: F(1), 3: F(1, 2), 4: F(1, 2), 8: F(3, 8), 10: F(1, 3)}

# Closed forms for the Hilbert table of S^[n] on a K3 surface with
# Pic S = Z*H, H^2 = 2d, in the slope gamma of the table rows, from
# Bayer-Macri, "MMP for moduli of sheaves on K3s via wall-crossing: nef
# and movable cones, Lagrangian fibrations" (arXiv:1301.6968).


def nef_gamma(n, d):
    """Prop. 10.3: for n >= (d + 3)/2, Nef(S^[n]) = <H~, H~ - (2d/(d+n)) B>,
    so the first row with gamma > 0 sits at 2d/(d + n).  None outside
    that range."""
    if 2 * n < d + 3:
        return None
    return F(2 * d, d + n)


def lagrangian_gamma(n, d):
    """Prop. 13.1, split case: when d(n - 1) = t^2 the movable cone ends
    at a Lagrangian fibration, the last row, at gamma = t/(n - 1).  None
    when d(n - 1) is not a square: then no row is Lagrangian."""
    t = math.isqrt(d * (n - 1))
    return F(t, n - 1) if t * t == d * (n - 1) else None


# transport of the n = 10 table through Phi_3, rows with slope >= 6/19;
# the image vector is (0, 3, -1).
TRANSPORT_MIN_6_19 = [
    (F(6, 19), (1, 0, 1), -2, 1, ("c", F(-1, 6), F(37, 36)), "flopping"),
    (F(8, 25), (1, 1, 1), 0, 7, ("c", F(-1, 6), F(49, 36)), "flopping"),
    (F(10, 31), (-1, 1, -2), -2, 5, ("c", F(-1, 6), F(61, 36)), "flopping"),
    (F(14, 43), (1, 1, 2), -2, 7, ("c", F(-1, 6), F(85, 36)), "flopping"),
    (F(1, 3), (0, 0, 1), 0, 0, None, "boundary_lagrangian"),
]

# candidate superset rows for torsion vectors at y_min = 1:
# (a, a_sq, (v,a), radius_sq); all circles share center s_v/(2 d c_v).
CANDIDATES = {
    (0, 2, -1): [
        ((-1, 2, -5), -2, 7, F(65, 16)),
        ((-1, 2, -4), 0, 7, F(49, 16)),
        ((1, 1, 2), -2, 5, F(41, 16)),
        ((-1, 2, -3), 2, 7, F(33, 16)),
        ((1, 1, 1), 0, 5, F(25, 16)),
        ((1, 0, 1), -2, 1, F(17, 16)),
    ],
    (0, 2, -2): [
        ((1, 1, 2), -2, 6, F(13, 4)),
        ((1, 1, 1), 0, 6, F(9, 4)),
        ((1, 0, 1), -2, 2, F(5, 4)),
    ],
    (0, 1, 0): [],
}

# the true walls above radius 1 among the candidates (the rest of the
# candidate rows are pseudo-walls)
TRUE_CIRCLES_ABOVE_1 = {
    (0, 2, -1): {F(25, 16), F(17, 16)},
    (0, 2, -2): {F(5, 4)},
    (0, 1, 0): set(),
}

# full true-wall radii of (0, 2, -1): transport of the 5-point table
# through Phi_2, semicircle rows only
TRUE_RADII_0_2_M1 = {F(1, 16), F(5, 16), F(9, 16), F(17, 16), F(25, 16)}

# path x = -3 for ten points, y > 1: (gamma, a, y_sq) descending
PATH_N10_XM3 = [
    (F(2, 11), (1, -1, 2), F(15)),
    (F(1, 5), (1, -1, 1), F(12)),
    (F(2, 9), (0, 1, -9), F(9)),
    (F(1, 4), (0, 1, -8), F(6)),
    (F(2, 7), (0, 1, -7), F(3)),
    (F(4, 13), (1, -2, 4), F(3, 2)),
]

# path x = -1/6 for (0, 3, -1), y > 1
PATH_BM_XM1_6 = [
    (F(14, 43), (1, 1, 2), F(85, 36)),
    (F(10, 31), (-1, 1, -2), F(61, 36)),
    (F(8, 25), (1, 1, 1), F(49, 36)),
    (F(6, 19), (1, 0, 1), F(37, 36)),
]

# wall-crossing decompositions at the ten flopping walls with a curve
# and a crossing story: key (vector, gamma), value list of
# (parts, dims) in emission order where dims is either
# (moduli_dims, fiber_dims, stratum_dim) or None for a non-effective
# chain (negative fiber dimension).
V10 = (1, 0, -9)
VBM = (0, 3, -1)

DECOMPOSITIONS = {
    (V10, F(2, 11)): [
        (((1, -1, 2), (0, 1, -11)), ([0, 4], [8], 12)),
    ],
    (V10, F(1, 5)): [
        (((1, -1, 1), (0, 1, -10)), ([2, 4], [7], 13)),
    ],
    (V10, F(2, 9)): [
        (((1, -1, 0), (0, 1, -9)), ([4, 4], [6], 14)),
    ],
    (V10, F(1, 4)): [
        (((1, -1, -1), (0, 1, -8)), ([6, 4], [5], 15)),
    ],
    (V10, F(2, 7)): [
        (((0, 2, -14), (1, -2, 5)), ([10, 0], [5], 15)),
        (((1, -1, -2), (0, 1, -7)), ([8, 4], [4], 16)),
        (((1, -2, 5), (0, 1, -7), (0, 1, -7)), ([0, 4, 4], [2, 4], 14)),
    ],
    (V10, F(4, 13)): [
        (((0, 2, -13), (1, -2, 4)), ([10, 2], [4], 16)),
        (((1, -2, 4), (1, -2, 4), (-1, 4, -17)), None),
    ],
    (VBM, F(6, 19)): [
        (((-1, 3, -2), (1, 0, 1)), ([16, 0], [2], 18)),
        (((-2, 3, -3), (1, 0, 1), (1, 0, 1)), ([8, 0, 0], [4, 2], 14)),
    ],
    (VBM, F(8, 25)): [
        (((-1, 2, -2), (1, 1, 1)), ([6, 2], [6], 14)),
    ],
    (VBM, F(10, 31)): [
        (((1, 2, 1), (-1, 1, -2)), ([8, 0], [6], 14)),
    ],
    (VBM, F(14, 43)): [
        (((-1, 2, -3), (1, 1, 2)), ([4, 0], [8], 12)),
    ],
}


def curve_tuple(curve):
    """Normalize a WallCurve (or None) to the tuple form used above."""
    if curve is None:
        return None
    if type(curve).__name__ == "VerticalLine":
        return ("v", curve.x0)
    return ("c", curve.center_x, curve.radius_sq)


def record_tuple(rec):
    return (rec.gamma, rec.a.as_tuple(), rec.a_sq, rec.pairing_va, curve_tuple(rec.curve), rec.wall_type)
