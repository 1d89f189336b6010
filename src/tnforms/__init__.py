"""Tangential-normal bases and geometric decompositions of polynomial
differential forms on simplices and simplicial meshes."""

from .combinatorics import (
    AbstractSimplex,
    binomial,
    complement,
    sequences,
    subsimplices,
)
from .exterior import (
    AltForm,
    Frame,
    contraction,
    flat,
    hodge_star,
    hodge_star_in_subspace,
    pullback_embed,
    wedge,
)
from .simplex import (
    GeometricSimplex,
    TnFrameSet,
    barycentric_gradients,
    nef_frames,
    oriented_subframe,
    random_simplex,
    reference_simplex,
    surface_gradient,
)
from .poly import interpolation_points, lattice
from .tnbasis import TnBasisElement, decompose_altk, hodge_coefficient, pairing_matrix, realize

__version__ = "0.1.0"
