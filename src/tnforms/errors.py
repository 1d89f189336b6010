"""Exception types, and the tolerance policy: each residual <= a constant below times its data's scale."""

DEGENERACY_RTOL = 1e-12  # too degenerate to build from: SVD ratio, QR diagonal, Hodge denominator
ORTHONORMAL_RTOL = 1e-10  # identities on orthonormal data: Frame Gram matrix, subspace tangentiality
PAIRING_RTOL = 1e-8  # error grows with the cell's conditioning: n-e-f diagonality, Hodge collinearity
MAX_CONDITION = 1e13  # largest nodal Vandermonde condition number poly inverts


class DegenerateSimplexError(ValueError):
    """Simplex vertices are affinely dependent within tolerance."""


class UnisolvenceError(RuntimeError):
    """A degree-of-freedom system that should be invertible is singular."""


class MeshFormatError(ValueError):
    """Mesh file malformed or mesh data fails validation."""
