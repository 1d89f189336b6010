"""Bernstein polynomials on the simplicial lattice and Lagrange nodal bases.

A polynomial of degree r on an m-simplex is stored as coefficients of the
monomials lambda^alpha over the lattice of multi-indices alpha with
|alpha| = r, in lexicographic order.  Nodal values at the principal lattice
points and Bernstein coefficients are interchangeable through a cached
generalized Vandermonde matrix; degrees are capped at MAX_DEGREE because
that conversion degrades for large r.

Every monomial value goes through ``monomial_values_at``: it takes each
barycentric power lambda_i^j once per point, in one power table, and
gathers the lattice's exponents from it through a cached offset table, one
barycentric column at a time.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from .combinatorics import AbstractSimplex, binomial
from .errors import MAX_CONDITION
from .simplex import GeometricSimplex

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


@lru_cache(maxsize=None)
def _exponent_offsets(dim: int, r: int) -> np.ndarray:
    """Row i holds i (r + 1) + alpha_i for every alpha: the row of
    lambda_i^alpha_i in the power table of ``monomial_values_at``."""
    idx = np.array(_lattice(dim, r), dtype=np.intp).reshape(-1, dim + 1)
    out = np.ascontiguousarray((idx + (r + 1) * np.arange(dim + 1)).T)
    out.setflags(write=False)
    return out


def monomial_values_at(dim: int, r: int, lams: np.ndarray) -> np.ndarray:
    """Matrix of lambda^alpha values, one row per barycentric-coordinate row.

    For P points and M monomials, one power table holds lambda_i^j for every
    column i, j <= r and point, so pow runs P (dim + 1) (r + 1) times, not
    P M (dim + 1).  The monomials are gathered from its rows one barycentric
    column at a time and multiplied in column order, so besides the table
    at most two arrays of the result's size are alive: the (M, P) product
    and one gathered column, or at the end the product's C-ordered (P, M)
    transpose, which is returned.
    """
    lams = np.atleast_2d(lams)
    if lams.ndim != 2 or lams.shape[1] != dim + 1:
        raise ValueError(f"barycentric rows need dim + 1 = {dim + 1} columns, got shape {lams.shape}")
    if dim == 0 and r >= 0:
        # The one monomial lambda_0^r.  A scalar exponent keeps numpy's exact
        # paths (x * x at r = 2), which an exponent table would bypass.
        return np.ones((lams.shape[0], 1)) * lams**r
    off = _exponent_offsets(dim, r)
    with np.errstate(invalid="ignore"):
        pw = (lams[:, :, None] ** np.arange(r + 1)).reshape(len(lams), (dim + 1) * (r + 1)).T.copy()
        vals = pw.take(off[0], axis=0).astype(float, copy=False)
        for i in range(1, dim + 1):
            vals *= pw.take(off[i], axis=0)
    return np.ascontiguousarray(vals.T)


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
    out = np.bincount(table.ravel(), weights=np.outer(c1, c2).ravel(), minlength=lattice_dimension(dim, r1 + r2))
    # bincount returns ints when the table is empty, at a negative degree.
    return out.astype(float, copy=False)


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
    """Inverse Vandermonde: Bernstein coefficients from nodal values.

    Its columns are the Lagrange basis of the principal lattice, dual to
    point values.  The product of the Frobenius norms of V and its inverse
    bounds the condition number from above with no factorisation beyond
    the inverse.
    """
    V = nodal_vandermonde(dim, r)
    out = np.linalg.inv(V)
    if np.linalg.norm(V) * np.linalg.norm(out) > MAX_CONDITION:
        raise ValueError(f"nodal/Bernstein conversion ill-conditioned at (dim={dim}, r={r})")
    out.setflags(write=False)
    return out


def embed_lattice_index(alpha_local: LatticeIndex, e: AbstractSimplex, n_labels: int) -> LatticeIndex:
    """Lift a multi-index over the vertices of e to one over all n_labels vertices."""
    full = [0] * n_labels
    for pos, label in enumerate(e.vertices):
        full[label] = alpha_local[pos]
    return tuple(full)


def restrict_lattice_index(alpha: LatticeIndex, e: AbstractSimplex) -> LatticeIndex:
    """Restrict a full multi-index supported on e to e's own vertices."""
    return tuple(alpha[label] for label in e.vertices)
