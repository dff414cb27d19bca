"""Exact wall-and-chamber computations for moduli of sheaves on a
polarized K3 surface of Picard rank one.

The package works in the rank-three lattice of Mukai vectors (r, cH, s),
enumerates the destabilizing walls of Hilbert schemes of points and of
their rank-zero Beauville-Mukai partners, transports walls through the
derived autoequivalence Phi_m, and decomposes wall crossings into
semistable summands with their stratum dimensions.  All geometry is kept
in exact rational arithmetic.
"""

from .charge import (
    DEGENERATE,
    ComplexValue,
    Semicircle,
    StabilityPoint,
    VerticalLine,
    WallCurve,
    central_charge,
    geometric_check,
    path_intersection,
    wall_discriminant,
    wall_locus,
)
from .lattice import (
    DEFAULT_SURFACE,
    MukaiVector,
    SurfaceParams,
    dual_shift,
    line_bundle_vector,
    mukai_pairing,
    mukai_square,
    phi_pullback,
    phi_pushforward,
    spherical_reflect,
    tensor_twist,
)
from .walls import (
    MovableCone,
    WallRecord,
    WallSearch,
    beauville_mukai_partner,
    candidate_walls,
    gamma_of_wall,
    hilbert_n_of,
    hilbert_vector,
    hilbert_walls,
    movable_cone,
    resolve_walls,
    transport_search,
    transport_walls,
)


def _lazy_submodule(name: str):
    """k3walls.<name>, registered in sys.modules and on the package as a
    module that executes on its first attribute access: a command that
    never uses it never compiles or runs it.  A submodule imported before
    is returned as it is."""
    import importlib.util
    import sys

    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module


crossing = _lazy_submodule("crossing")
_CROSSING_NAMES = frozenset(
    ("Decomposition", "DimReport", "decompositions", "moduli_dim", "positive_classes", "stratum_dims", "wall_base_point")
)


def __getattr__(name: str):
    """The crossing names of __all__, each bound here on first use."""
    if name not in _CROSSING_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(crossing, name)
    return value


def __dir__() -> list[str]:
    """Every public name, the crossing names also before their first use."""
    return sorted(globals().keys() | _CROSSING_NAMES)


__version__ = "0.1.0"

__all__ = [
    "ComplexValue",
    "DEFAULT_SURFACE",
    "DEGENERATE",
    "Decomposition",
    "DimReport",
    "MovableCone",
    "MukaiVector",
    "Semicircle",
    "StabilityPoint",
    "SurfaceParams",
    "VerticalLine",
    "WallCurve",
    "WallRecord",
    "WallSearch",
    "beauville_mukai_partner",
    "candidate_walls",
    "central_charge",
    "decompositions",
    "dual_shift",
    "gamma_of_wall",
    "geometric_check",
    "hilbert_n_of",
    "hilbert_vector",
    "hilbert_walls",
    "line_bundle_vector",
    "moduli_dim",
    "movable_cone",
    "mukai_pairing",
    "mukai_square",
    "path_intersection",
    "phi_pullback",
    "phi_pushforward",
    "positive_classes",
    "resolve_walls",
    "spherical_reflect",
    "stratum_dims",
    "tensor_twist",
    "transport_search",
    "transport_walls",
    "wall_base_point",
    "wall_discriminant",
    "wall_locus",
]
