"""Finite-quotient orbifold geometry with executable verification suites."""

__version__ = "0.1.0"

from .errors import OrbidiffError
from .groups import FiniteActionGroup, GroupHom, generate_group
from .model import GoodOrbifold, ModelSpace, build_atlas
from .maps import OrbifoldMapData, enumerate_identity_lifts
from .tangent import Orbisection, admissible_space
from .riemann import E_apply, E_inverse, ExpMap

__all__ = [
    "OrbidiffError", "FiniteActionGroup", "GroupHom", "generate_group",
    "GoodOrbifold", "ModelSpace", "build_atlas",
    "OrbifoldMapData", "enumerate_identity_lifts", "Orbisection",
    "admissible_space", "E_apply", "E_inverse", "ExpMap", "__version__",
]
