"""Bernstein polynomials on the simplicial lattice and Lagrange nodal bases.

A polynomial of degree r on an m-simplex is stored as coefficients of the
monomials lambda^alpha over the lattice of multi-indices alpha with
|alpha| = r, in lexicographic order.  Nodal values at the principal lattice
points come from Bernstein coefficients through the cached nodal Vandermonde
matrix, and go back through its inverse, the Lagrange basis, which
``nodal_to_bernstein`` builds without a solve by Silvester's product formula:
integer linear forms multiplied out in floating point, exact below 2^53, and
one division per node, so every entry is the correctly rounded exact inverse.
For M nodes it costs (dim + 1) M C(r + dim, dim + 1) multiply-adds.  Degrees
are capped at MAX_DEGREE, where the exact range holds up to dim 7.

The lattice is one cached integer array, ``_lattice_array``, built by stars
and bars from the increasing sequences; ``lattice`` and every table read it.
The product table finds alpha + beta by its lexicographic rank, one binomial
table read per coordinate.  ``monomial_values_at`` takes each barycentric
power lambda_i^j once per point, in one power table made by one contiguous
``**``, and gathers the lattice's exponents from it through a cached offset
table, one barycentric column at a time, switching no floating-point state.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from .combinatorics import AbstractSimplex, binomial, sequences
from .errors import MAX_CONDITION
from .simplex import GeometricSimplex

MAX_DEGREE = 10

LatticeIndex = tuple[int, ...]


def _check_dim(dim: int):
    if dim < 0:
        raise ValueError(f"a lattice needs dimension dim >= 0, got dim={dim}")


def lattice(dim: int, r: int) -> list[LatticeIndex]:
    """All multi-indices of length dim+1 with |alpha| = r, lexicographic: the rows of ``_lattice_array``.

    Negative degree yields the empty list (the zero polynomial space).
    """
    return list(map(tuple, _lattice_array(dim, r).tolist()))


@lru_cache(maxsize=None)
def _lattice_array(dim: int, r: int) -> np.ndarray:
    """The multi-indices of ``lattice(dim, r)`` as a read-only (M, dim + 1) integer array, by stars and bars.

    The dim bars of alpha are an increasing sequence b in 1..r + dim, and
    alpha_i is the gap between bars i and i + 1 minus one, bar 0 at 0 and
    bar dim + 1 at r + dim + 1; lexicographic b gives lexicographic alpha.
    """
    _check_dim(dim)
    bars = sequences(dim, r + dim)
    out = np.diff(np.array(bars, dtype=np.intp).reshape(len(bars), dim), axis=1, prepend=0, append=r + dim + 1) - 1
    out.setflags(write=False)
    return out


def lattice_dimension(dim: int, r: int) -> int:
    """The number of multi-indices ``lattice(dim, r)`` lists; a negative dim is a ValueError, as there."""
    _check_dim(dim)
    return binomial(r + dim, dim) if r >= 0 else 0


def lattice_carrier(alpha: LatticeIndex) -> tuple[int, ...]:
    """Positions where alpha is positive: the subsimplex carrying the point."""
    return tuple(i for i, a in enumerate(alpha) if a > 0)


def interpolation_points(T: GeometricSimplex, r: int) -> np.ndarray:
    """Principal lattice points (1/r) sum alpha_i v_i, in lattice order."""
    if r < 1:
        raise ValueError("interpolation points need degree r >= 1")
    return (_lattice_array(T.dim, r).astype(float) @ T.vertices) / r


@lru_cache(maxsize=None)
def _power_tables(dim: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent j of power-table row i (r + 1) + j, and per column i the rows i (r + 1) + alpha_i."""
    exps = np.tile(np.arange(r + 1.0), dim + 1)
    off = np.ascontiguousarray((_lattice_array(dim, r) + (r + 1) * np.arange(dim + 1)).T)
    exps.setflags(write=False)
    off.setflags(write=False)
    return exps, off


def monomial_values_at(dim: int, r: int, lams: np.ndarray) -> np.ndarray:
    """Matrix of lambda^alpha values, one row per barycentric-coordinate row.

    For P points and M monomials, row i (r + 1) + j of a ((dim + 1)(r + 1), P) power table
    holds lambda_i^j: P (dim + 1) (r + 1) pow calls, not P M (dim + 1).  It is one ``**`` of
    two C-contiguous operands of its shape, never an exponent numpy may take as a scalar:
    its scalar loop squares by x * x, which differs from pow in the last bit.  Gathering
    one barycentric column at a time and multiplying in place keeps at most two result-sized
    arrays alive besides the table; the C-ordered (P, M) transpose is returned.  Finite
    powers raise no warning; an infinite one times a zero power is NaN with a RuntimeWarning.
    """
    lams = np.atleast_2d(lams)
    if lams.ndim != 2 or lams.shape[1] != dim + 1:
        raise ValueError(f"barycentric rows need dim + 1 = {dim + 1} columns, got shape {lams.shape}")
    if dim == 0 and r >= 0:
        # The one monomial lambda_0^r.  A scalar exponent keeps numpy's exact
        # paths (x * x at r = 2), which an exponent table would bypass.
        return np.ones((lams.shape[0], 1)) * lams**r
    exps, off = _power_tables(dim, r)
    pw = lams.T.repeat(r + 1, axis=0) ** exps.repeat(len(lams)).reshape(len(exps), len(lams))
    vals = pw.take(off[0], axis=0).astype(float, copy=False)
    for i in range(1, dim + 1):
        vals *= pw.take(off[i], axis=0)
    return np.ascontiguousarray(vals.T)


def _index_factorials(dim: int, r: int) -> np.ndarray:
    """alpha! = prod_i alpha_i! of every multi-index of degree r, lattice order, as floats.

    Float products never wrap (int64 ones do once r! dim! passes 2^63) and are exact below 2^53; r < 0 has no points.
    """
    return np.array([factorial(a) for a in range(r + 1)], dtype=float)[_lattice_array(dim, r)].prod(axis=1)


@lru_cache(maxsize=None)
def _moment_weights(dim: int, r: int) -> np.ndarray:
    """Moments of lambda^alpha over the unit-volume m-simplex, lattice order."""
    out = _index_factorials(dim, r) * factorial(dim) / factorial(max(r, 0) + dim)
    out.setflags(write=False)
    return out


def bernstein_moments(T: GeometricSimplex, r: int) -> np.ndarray:
    """Vector of exact moments of every lambda^alpha of degree r over T: ``T.volume`` times the unit-volume moments.

    The volume is the cell's construction-time singular-value product over m!, so no face QR runs.
    """
    return T.volume * _moment_weights(T.dim, r)


@lru_cache(maxsize=None)
def _product_index(dim: int, r1: int, r2: int) -> np.ndarray:
    """pos(alpha + beta) table for multiplying Bernstein coefficients.

    pos(gamma) = M - 1 - sum_{i >= 1} C(t_i + dim - i, dim - i + 1), the sum counting the lattice
    points after gamma, with t_i = gamma_i + ... + gamma_dim; t_i adds, so a term is one read."""
    r = r1 + r2
    ta, tb = (np.cumsum(_lattice_array(dim, q)[:, ::-1], axis=1)[:, ::-1] for q in (r1, r2))
    table = np.full((len(ta), len(tb)), lattice_dimension(dim, r) - 1, dtype=int)
    for i in range(1, dim + 1):
        after = np.array([binomial(t + dim - i, dim - i + 1) for t in range(r + 1)], dtype=int)
        table -= after[ta[:, i, None] + tb[:, i]]
    table.setflags(write=False)
    return table


def multiply_bernstein(c1: np.ndarray, r1: int, c2: np.ndarray, r2: int, dim: int) -> np.ndarray:
    """Coefficients of the product polynomial, degree r1 + r2."""
    table = _product_index(dim, r1, r2)
    got = (np.size(c1), np.size(c2))
    if got != table.shape:
        raise ValueError(f"degrees {(r1, r2)} on dim {dim} need coefficient lengths {table.shape}, got {got}")
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
    V = monomial_values_at(dim, r, _lattice_array(dim, r) / r)
    V.setflags(write=False)
    return V


@lru_cache(maxsize=None)
def nodal_to_bernstein(dim: int, r: int) -> np.ndarray:
    """Bernstein coefficients from nodal values: the inverse of ``nodal_vandermonde``, built exactly.

    Column gamma holds the Lagrange polynomial of the node gamma / r, by Silvester's product formula
    L_gamma = prod_i prod_{j < gamma_i} (r lambda_i - j) / (j + 1), which is 1 at its node and 0 at
    every other.  With sum_m lambda_m = 1 each factor's numerator is the integer linear form
    r lambda_i - j sum_m lambda_m, so the r numerators of every node are multiplied out for all nodes
    at once, one degree per step through ``_product_index(dim, t, 1)``, and each column is divided
    once by gamma!.  A factor's coefficients have absolute sum r + j (dim - 1), so every product and
    partial sum is an integer of magnitude at most prod_{j < r} (r + j (dim - 1)), below 2^53 for
    dim <= 7 at MAX_DEGREE: the numerators are exact, and each entry is the correctly rounded exact
    inverse.  The cost is (dim + 1) M C(r + dim, dim + 1) multiply-adds for M nodes, not an O(M^3)
    inversion.  The product of the Frobenius norms of V and the result bounds V's condition number
    from above.
    """
    V = nodal_vandermonde(dim, r)
    lat = _lattice_array(dim, r)
    # node gamma's factors run over lambda_0 gamma_0 times, then lambda_1 gamma_1 times, ...: its
    # t-th factor takes lambda_var[t] with j = t - (the step where that variable's factors start)
    ends, steps = lat.cumsum(axis=1), np.arange(r)[:, None]
    var = (ends[None, :, :] <= steps[:, :, None]).sum(axis=2)
    j = steps - np.take_along_axis((ends - lat).T, var, axis=0)
    num = np.ones((1, len(lat)))
    for t in range(r):
        at = _product_index(dim, t, 1)
        nxt = np.zeros((lattice_dimension(dim, t + 1), len(lat)))
        for col in range(dim + 1):  # lattice(dim, 1) lists lambda_dim, ..., lambda_0
            nxt[at[:, col]] += num * (r * (var[t] == dim - col) - j[t])
        num = nxt
    out = num / _index_factorials(dim, r)
    if np.linalg.norm(V) * np.linalg.norm(out) > MAX_CONDITION:
        raise ValueError(f"nodal/Bernstein conversion ill-conditioned at (dim={dim}, r={r})")
    out.setflags(write=False)
    return out


def embed_lattice_index(alpha_local: LatticeIndex, e: AbstractSimplex, n_labels: int) -> LatticeIndex:
    """Lift a multi-index over the vertices of e to one over all n_labels vertices."""
    if len(alpha_local) != len(e) or e.vertices[-1] >= n_labels:
        raise ValueError(f"multi-index {alpha_local} on labels {e.vertices} does not embed in {n_labels} labels")
    full = [0] * n_labels
    for pos, label in enumerate(e.vertices):
        full[label] = alpha_local[pos]
    return tuple(full)


def restrict_lattice_index(alpha: LatticeIndex, e: AbstractSimplex) -> LatticeIndex:
    """Restrict a full multi-index supported on e to e's own vertices."""
    if len(alpha) <= e.vertices[-1]:
        raise ValueError(f"multi-index {alpha} is too short for the labels {e.vertices} of e")
    if any(a > 0 for label, a in enumerate(alpha) if label not in e):
        raise ValueError(f"multi-index {alpha} is positive outside the labels {e.vertices} of e")
    return tuple(alpha[label] for label in e.vertices)
