"""Bernstein polynomials on the simplicial lattice and Lagrange nodal bases.

A polynomial of degree r on an m-simplex is stored as coefficients of the
monomials lambda^alpha over the lattice of multi-indices alpha with
|alpha| = r, in lexicographic order.  Nodal values at the principal lattice
points and Bernstein coefficients are interchangeable through a cached
generalized Vandermonde matrix; degrees are capped at MAX_DEGREE because
that conversion degrades for large r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .combinatorics import AbstractSimplex, binomial
from .errors import MAX_CONDITION
from .simplex import GeometricSimplex, barycentric_coordinates

MAX_DEGREE = 10

LatticeIndex = tuple[int, ...]


@lru_cache(maxsize=None)
def _lattice(dim: int, r: int) -> tuple[LatticeIndex, ...]:
    if r < 0:
        return ()
    if dim == 0:
        return ((r,),)
    out = []
    for first in range(r + 1):
        for rest in _lattice(dim - 1, r - first):
            out.append((first,) + rest)
    return tuple(out)


def lattice(dim: int, r: int) -> list[LatticeIndex]:
    """All multi-indices of length dim+1 with |alpha| = r, lexicographic.

    Negative degree yields the empty list (the zero polynomial space).
    """
    return list(_lattice(dim, r))


@lru_cache(maxsize=None)
def lattice_position(dim: int, r: int) -> dict[LatticeIndex, int]:
    return {a: i for i, a in enumerate(_lattice(dim, r))}


def lattice_dimension(dim: int, r: int) -> int:
    return binomial(r + dim, dim) if r >= 0 else 0


def lattice_carrier(alpha: LatticeIndex) -> tuple[int, ...]:
    """Positions where alpha is positive: the subsimplex carrying the point."""
    return tuple(i for i, a in enumerate(alpha) if a > 0)


def interpolation_points(T: GeometricSimplex, r: int) -> np.ndarray:
    """Principal lattice points (1/r) sum alpha_i v_i, in lattice order."""
    if r < 1:
        raise ValueError("interpolation points need degree r >= 1")
    idx = np.array(_lattice(T.dim, r), dtype=float)
    return (idx @ T.vertices) / r


@dataclass(frozen=True, eq=False)
class BernsteinPoly:
    """Polynomial on an m-simplex in the barycentric monomial basis."""

    r: int
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if c.shape[0] != lattice_dimension(self.dim, self.r):
            raise ValueError(
                f"expected {lattice_dimension(self.dim, self.r)} coefficients, got {c.shape[0]}"
            )
        object.__setattr__(self, "coeffs", c)


def bernstein_eval(p: BernsteinPoly, x: np.ndarray, T: GeometricSimplex) -> float:
    """Evaluate sum_alpha c_alpha lambda(x)^alpha."""
    if T.dim != p.dim:
        raise ValueError("simplex dimension mismatch")
    lam = barycentric_coordinates(T, x)
    return float(p.coeffs @ monomial_values_at(p.dim, p.r, lam)[0])


def monomial_values_at(dim: int, r: int, lams: np.ndarray) -> np.ndarray:
    """Matrix of lambda^alpha values, one row per barycentric-coordinate row.

    Built one barycentric column at a time, which keeps the working set at
    the size of the result.
    """
    lams = np.atleast_2d(lams)
    idx = np.array(_lattice(dim, r), dtype=int).reshape(-1, dim + 1)
    vals = np.ones((lams.shape[0], idx.shape[0]))
    with np.errstate(invalid="ignore"):
        for i in range(dim + 1):
            vals *= lams[:, i, None] ** idx[None, :, i]
    return vals


def lagrange_eval(alpha: LatticeIndex, x: np.ndarray, T: GeometricSimplex) -> float:
    """Lagrange basis function of the principal lattice, dual to point values.

    phi_alpha(x) = (1/alpha!) prod_i prod_{j<alpha_i} (r lambda_i(x) - j),
    which is 1 at x_alpha and 0 at every other lattice point.
    """
    r = sum(alpha)
    lam = barycentric_coordinates(T, x)
    value = 1.0
    for i, ai in enumerate(alpha):
        for j in range(ai):
            value *= r * lam[i] - j
        value /= factorial(ai)
    return float(value)


@lru_cache(maxsize=None)
def _moment_weights(dim: int, r: int) -> np.ndarray:
    """Moments of lambda^alpha over the unit-volume m-simplex, lattice order."""
    out = np.array(
        [
            np.prod([factorial(a) for a in alpha]) * factorial(dim) / factorial(r + dim)
            for alpha in _lattice(dim, r)
        ],
        dtype=float,
    )
    out.setflags(write=False)
    return out


def bernstein_moments(T: GeometricSimplex, r: int) -> np.ndarray:
    """Vector of exact moments of every lambda^alpha of degree r over T."""
    return T.volume * _moment_weights(T.dim, r)


@lru_cache(maxsize=None)
def _product_index(dim: int, r1: int, r2: int) -> np.ndarray:
    """pos(alpha + beta) table for multiplying Bernstein coefficients."""
    pos = lattice_position(dim, r1 + r2)
    l1, l2 = _lattice(dim, r1), _lattice(dim, r2)
    table = np.empty((len(l1), len(l2)), dtype=int)
    for i, a in enumerate(l1):
        for j, b in enumerate(l2):
            table[i, j] = pos[tuple(x + y for x, y in zip(a, b))]
    table.setflags(write=False)
    return table


def multiply_bernstein(c1: np.ndarray, r1: int, c2: np.ndarray, r2: int, dim: int) -> np.ndarray:
    """Coefficients of the product polynomial, degree r1 + r2."""
    table = _product_index(dim, r1, r2)
    out = np.zeros(lattice_dimension(dim, r1 + r2))
    np.add.at(out, table.reshape(-1), np.outer(c1, c2).reshape(-1))
    return out


@lru_cache(maxsize=None)
def nodal_vandermonde(dim: int, r: int) -> np.ndarray:
    """Matrix of lambda^alpha evaluated at the principal lattice points.

    Row beta, column alpha holds (beta/r)^alpha; nodal values = V @ bernstein.
    """
    if r < 1:
        raise ValueError("nodal basis needs degree r >= 1")
    if r > MAX_DEGREE:
        raise ValueError(f"degree {r} above supported cap {MAX_DEGREE}")
    pts = np.array(_lattice(dim, r), dtype=float) / r
    V = monomial_values_at(dim, r, pts)
    V.setflags(write=False)
    return V


@lru_cache(maxsize=None)
def nodal_to_bernstein(dim: int, r: int) -> np.ndarray:
    """Inverse Vandermonde: Bernstein coefficients from nodal values."""
    V = nodal_vandermonde(dim, r)
    if np.linalg.cond(V) > MAX_CONDITION:
        raise ValueError(f"nodal/Bernstein conversion ill-conditioned at (dim={dim}, r={r})")
    out = np.linalg.inv(V)
    out.setflags(write=False)
    return out


def lagrange_decomposition_dims(d: int, r: int) -> dict:
    """Subspace dimension bookkeeping of the bubble decomposition of P_r.

    Each ell-face contributes dim P_{r-(ell+1)} bubble functions; the grand
    total must match dim P_r.
    """
    if r < 1:
        raise ValueError("decomposition needs r >= 1")
    per_level = {}
    total = 0
    for ell in range(d + 1):
        faces = binomial(d + 1, ell + 1)
        dim_per_face = lattice_dimension(ell, r - (ell + 1))
        per_level[ell] = {"faces": faces, "dim_per_face": dim_per_face}
        total += faces * dim_per_face
    return {"per_level": per_level, "total": total, "expected": lattice_dimension(d, r)}


def embed_lattice_index(alpha_local: LatticeIndex, e: AbstractSimplex, n_labels: int) -> LatticeIndex:
    """Lift a multi-index over the vertices of e to one over all n_labels vertices."""
    full = [0] * n_labels
    for pos, label in enumerate(e.vertices):
        full[label] = alpha_local[pos]
    return tuple(full)


def restrict_lattice_index(alpha: LatticeIndex, e: AbstractSimplex) -> LatticeIndex:
    """Restrict a full multi-index supported on e to e's own vertices."""
    return tuple(alpha[label] for label in e.vertices)
