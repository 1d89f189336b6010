"""Geometric simplices: barycentric gradients, tangential-normal frames.

A :class:`GeometricSimplex` may be full-dimensional (a cell) or embedded
(a sub-simplex of a cell, carrying its own vertex coordinates).  Every
tangent, gradient and volume comes from one face table per simplex, built
lazily on first use.  Per face dimension, one batched QR of the face edge
rows v_j - v_0 (ascending vertex labels), with the diagonal of R made
positive, gives the face's orthonormal tangent rows, the rows Gram-Schmidt
would give; a triangular solve with R gives its barycentric gradients.
The table's arrays are read-only.  An entry depends only on the
coordinates of the face's own vertices in ascending label order, so two
cells sharing a face derive identical frames from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import factorial
from typing import NamedTuple

import numpy as np

from .combinatorics import AbstractSimplex, subsimplices
from .errors import DegenerateSimplexError
from .exterior import Frame

DEGENERACY_RTOL = 1e-12


class _Face(NamedTuple):
    """One face: orthonormal tangent rows, barycentric gradients in its plane, volume."""

    tangents: np.ndarray
    gradients: np.ndarray
    volume: float


@dataclass(frozen=True, eq=False)
class GeometricSimplex:
    """An m-dimensional simplex embedded in R^d, vertices as rows.

    ``labels`` names the vertices; they default to 0..m and must ascend, so
    the stored vertex order is the ascending-label order that fixes the
    simplex orientation.
    """

    vertices: np.ndarray
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a 2-D array (rows = points)")
        object.__setattr__(self, "vertices", v)
        m = v.shape[0] - 1
        if m > self.ambient_dim:
            raise ValueError(f"{m}-simplex cannot live in R^{self.ambient_dim}")
        labels = self.labels if self.labels is not None else tuple(range(m + 1))
        labels = tuple(int(i) for i in labels)
        if len(labels) != m + 1:
            raise ValueError("one label per vertex required")
        object.__setattr__(self, "labels", labels)
        if m >= 1:
            svals = np.linalg.svd(self.edge_matrix, compute_uv=False)
            if svals[-1] <= DEGENERACY_RTOL * svals[0]:
                raise DegenerateSimplexError(
                    f"singular value ratio {svals[-1]:.3e}/{svals[0]:.3e} below threshold"
                )

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def dim(self) -> int:
        return self.vertices.shape[0] - 1

    @cached_property
    def edge_matrix(self) -> np.ndarray:
        """Columns v_i - v_0 for i = 1..m."""
        return (self.vertices[1:] - self.vertices[0]).T

    @property
    def volume(self) -> float:
        """Euclidean m-volume; a vertex has volume 1 so point moments reduce to evaluation."""
        return self._faces[self.labels].volume

    @property
    def _gradients(self) -> np.ndarray:
        return self._faces[self.labels].gradients

    @cached_property
    def _faces(self) -> dict[tuple[int, ...], _Face]:
        """Every face keyed by its labels, from one batched QR per face dimension.

        With edge rows E = R^T Q, the gradients of lambda_1..lambda_s are the
        rows of R^{-1} Q, and |det R| / s! is the volume.
        """
        table = {}
        for s in range(self.dim + 1):
            idx = np.array(list(combinations(range(self.dim + 1), s + 1)))
            pts = self.vertices[idx]
            q, r = _orthonormal_rows(pts[:, 1:] - pts[:, :1])
            grads = np.empty(pts.shape)
            grads[:, 1:] = np.linalg.solve(r, q)
            grads[:, 0] = -grads[:, 1:].sum(axis=1)
            vols = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1) / factorial(s)
            q.flags.writeable = grads.flags.writeable = False
            for j, face in enumerate(idx):
                table[tuple(self.labels[i] for i in face)] = _Face(q[j], grads[j], float(vols[j]))
        return table

    def as_abstract(self) -> AbstractSimplex:
        return AbstractSimplex(self.labels)

    def full_simplex(self) -> AbstractSimplex:
        """The abstract simplex on this cell's local labels 0..dim."""
        return AbstractSimplex(tuple(range(self.dim + 1)))


def reference_simplex(d: int) -> GeometricSimplex:
    """Unit reference simplex with vertices 0, e_1, ..., e_d."""
    v = np.zeros((d + 1, d))
    v[1:] = np.eye(d)
    return GeometricSimplex(v)


def random_simplex(d: int, rng: np.random.Generator, scale: float = 1.0) -> GeometricSimplex:
    """Well-shaped random simplex: perturbed reference, resampled until conditioned."""
    base = reference_simplex(d).vertices
    while True:
        v = scale * (base + 0.3 * rng.uniform(-1.0, 1.0, size=base.shape))
        e = (v[1:] - v[0]).T
        svals = np.linalg.svd(e, compute_uv=False)
        if svals[-1] > 0.15 * svals[0]:
            return GeometricSimplex(v)


def subsimplex_geometry(T: GeometricSimplex, f: AbstractSimplex) -> GeometricSimplex:
    """The embedded geometric realization of a subsimplex, keeping its labels."""
    idx = [T.labels.index(i) for i in f.vertices]
    return GeometricSimplex(T.vertices[idx], labels=f.vertices)


def barycentric_gradients(T: GeometricSimplex) -> np.ndarray:
    """Gradients of the barycentric coordinates, one per row; rows sum to zero.

    For an embedded simplex the gradients are taken within its tangent plane.
    """
    return T._gradients.copy()


def barycentric_coordinates(T: GeometricSimplex, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of x; least squares on the affine hull if embedded."""
    x = np.asarray(x, dtype=float).reshape(T.ambient_dim)
    m = T.dim
    A = np.vstack([np.ones(m + 1), T.vertices.T])
    b = np.concatenate([[1.0], x])
    if m == T.ambient_dim:
        return np.linalg.solve(A, b)
    lam, *_ = np.linalg.lstsq(A, b, rcond=None)
    return lam


def _orthonormal_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR of a stack of row sets: rows = R^T Q, Q orthonormal rows, diag(R) > 0.

    Raises when a diagonal entry of R is at most DEGENERACY_RTOL times the
    largest entry of its matrix: the rows are (nearly) linearly dependent.
    """
    if rows.shape[-2] > rows.shape[-1]:
        raise DegenerateSimplexError("more vectors than dimensions in frame build")
    q, r = np.linalg.qr(np.swapaxes(rows, -1, -2))
    sign = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    q *= sign[..., None, :]
    r *= sign[..., :, None]
    floor = DEGENERACY_RTOL * np.abs(rows).max(axis=(-2, -1), initial=0.0)
    if np.any(np.diagonal(r, axis1=-2, axis2=-1) <= floor[..., None]):
        raise DegenerateSimplexError("linearly dependent vectors in frame build")
    return np.swapaxes(q, -1, -2), r


def gram_schmidt(vectors: np.ndarray) -> np.ndarray:
    """The orthonormal rows Gram-Schmidt makes of ``vectors``; raises on (near) dependence."""
    return _orthonormal_rows(np.asarray(vectors, dtype=float))[0]


def tangent_basis(T: GeometricSimplex, e: AbstractSimplex) -> np.ndarray:
    """Orthonormal tangent rows of a subsimplex, (s, d), from its ascending edges; read-only."""
    return T._faces[e.vertices].tangents


def oriented_subframe(T: GeometricSimplex, f: AbstractSimplex) -> Frame:
    """Oriented orthonormal frame of a subsimplex's tangent plane.

    The orientation comes from the ascending vertex order of f itself, never
    from the containing cell, so cells sharing f agree on it.
    """
    if f.dim < 1:
        raise ValueError("oriented frame needs a subsimplex of dimension >= 1")
    return Frame(tangent_basis(T, f))


def _face_gradient(T: GeometricSimplex, face: tuple[int, ...], i: int) -> np.ndarray:
    """Gradient of lambda_i within the plane of a face containing i; read-only."""
    return T._faces[face].gradients[face.index(i)]


def surface_gradient(T: GeometricSimplex, f: AbstractSimplex, i: int) -> np.ndarray:
    """Tangential part of grad lambda_i on f: f's own gradient if i is in f, else zero."""
    if i not in f.vertices:
        return np.zeros(T.ambient_dim)
    return _face_gradient(T, f.vertices, i)


@dataclass(frozen=True, eq=False)
class TnFrameSet:
    """Dual pair of bases for the normal plane of a subsimplex e (within f).

    ``normals_face`` holds the face-normal vectors and ``normals_tn`` the
    tangential-normal vectors, row i belonging to ``normal_labels[i]``; the
    two families pair diagonally.  ``tangents`` is an orthonormal basis of
    the tangent plane of e.
    """

    e: AbstractSimplex
    tangents: np.ndarray
    normal_labels: tuple[int, ...]
    normals_face: np.ndarray
    normals_tn: np.ndarray

    def pairing(self) -> np.ndarray:
        return self.normals_tn @ self.normals_face.T

    def validate(self, rtol: float = 1e-8):
        p = self.pairing()
        if p.size == 0:
            return
        diag = np.abs(np.diag(p))
        off = np.abs(p - np.diag(np.diag(p)))
        if np.any(diag <= 0.0) or np.max(off, initial=0.0) > rtol * max(diag.max(), 1.0):
            raise ValueError("tangential-normal pairing is not diagonal")


def nef_frames(T: GeometricSimplex, f: AbstractSimplex, e: AbstractSimplex) -> TnFrameSet:
    """Dual bases of the normal plane of e inside the tangent plane of f.

    With f the cell these are the t-n frames of e; with e == f the normal
    families are empty.
    """
    if not e.issubset(f):
        raise ValueError("need e contained in f")
    rest = tuple(i for i in f.vertices if i not in e.vertices)
    face = T._faces[f.vertices].gradients[[f.vertices.index(i) for i in rest]]
    tn = [_face_gradient(T, tuple(sorted(e.vertices + (i,))), i) for i in rest]
    out = TnFrameSet(
        e=e,
        tangents=tangent_basis(T, e),
        normal_labels=rest,
        normals_face=face,
        normals_tn=np.array(tn).reshape(len(rest), T.ambient_dim),
    )
    out.validate()
    return out


def outward_normal(T: GeometricSimplex, facet: AbstractSimplex) -> np.ndarray:
    """Unit outward normal of a facet of a full-dimensional cell."""
    if T.dim != T.ambient_dim:
        raise ValueError("outward normal defined on full-dimensional cells")
    if facet.dim != T.dim - 1:
        raise ValueError("facet must have codimension one")
    (i,) = set(T.labels) - set(facet.vertices)
    g = T._gradients[T.labels.index(i)]
    return -g / np.linalg.norm(g)


def induced_facet_frame(T: GeometricSimplex, facet: AbstractSimplex) -> tuple[Frame, np.ndarray]:
    """Orthonormal facet frame whose orientation is induced by the cell.

    Returns (frame, n) with n the unit outward normal and (n, frame rows) a
    positively oriented frame of R^d.  This is the orientation under which
    the tangential and normal traces are Hodge dual.
    """
    if T.dim < 2:
        raise ValueError("induced facet frame needs ambient dimension >= 2")
    n = outward_normal(T, facet)
    rows = tangent_basis(T, facet).copy()
    if np.linalg.det(np.vstack([n, rows])) < 0:
        rows[-1] = -rows[-1]
    return Frame(rows), n


def all_subsimplices(T: GeometricSimplex) -> list[AbstractSimplex]:
    """Every subsimplex of the cell, by dimension then lexicographic."""
    full = T.full_simplex()
    out = []
    for s in range(T.dim + 1):
        out.extend(subsimplices(full, s))
    return out
