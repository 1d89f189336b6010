"""Geometric simplices: barycentric gradients, tangential-normal frames.

A :class:`GeometricSimplex` may be full-dimensional (a cell) or embedded
(a sub-simplex of a cell, carrying its own vertex coordinates).  Every
tangent, gradient and volume comes from one face table per simplex, built
lazily on first use.  Per face dimension, one batched QR of the face edge
rows v_j - v_0 (ascending vertex labels), with the diagonal of R made
positive, gives the face's orthonormal tangent rows, the rows Gram-Schmidt
would give; a triangular solve with R gives its barycentric gradients.
The vertex level has no edges and is built from constants: no tangent
rows, the gradient -0.0 and volume 1, what the QR and solve give there.
The table's arrays are read-only.  An entry depends only on the
coordinates of the face's own vertices in ascending label order, so two
cells sharing a face derive identical frames from it.

The n-e-f frames of the face pairs e in f are batched the same way, one
group per (|f|, |e|).  A cached, label-free table of every such pair of
positions holds e's position, the positions in f of the vertices outside e,
and the gather indices of f's gradients of those vertices (the face
normals) and, for each such vertex i, of the gradient of lambda_i in e + i
(the t-n normals).  The group stores whole frame matrices, e's tangents
then the normals, in one (2, pairs, |f| - 1, d) array filled by one slice
assignment for the tangents and one per normal family; one batched product
gives the pairing ratio of every pair at once.  ``nef_frames`` is a lookup
into its group: row views of the stored frames, and the normal labels read
off f at the cached positions.  A pair missing from the group's index is
the containment error.
Groups are built on a cell the first time one of their pairs is asked
for, not all at once: a t-n basis reads only the groups with f the cell,
and the whole table of a 6-cell holds thousands of pairs it never uses.
Faces, groups and frame sets are ``NamedTuple`` records (``_Face``,
``_NefGroup``, ``TnFrameSet``), cheap to build by the thousand per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial
from typing import NamedTuple

import numpy as np

from .combinatorics import AbstractSimplex, subsimplices
from .errors import DEGENERACY_RTOL, PAIRING_RTOL, DegenerateSimplexError
from .exterior import Frame


class _Face(NamedTuple):
    """One face: orthonormal tangent rows, barycentric gradients in its plane, volume.

    ``at`` is its position among the faces of its dimension, lexicographic in
    vertex positions: its index into the per-dimension stacks.
    """

    tangents: np.ndarray
    gradients: np.ndarray
    volume: float
    at: int


class _NefGroup(NamedTuple):
    """The n-e-f frames of every face pair with given (|f|, |e|) on one cell, read-only.

    ``index`` maps the pair (f.at, e.at) to its row; ``frame_face`` and
    ``frame_tn`` are (pairs, |f| - 1, d), e's |e| - 1 tangents then the
    |f| - |e| normals of one flavour, views of one array.  ``normal_pos``
    holds each pair's positions in f of its normal labels (shared with the
    label-free pair table) and ``ratio`` each pair's off-diagonal/diagonal
    pairing ratio.
    """

    index: dict[tuple[int, int], int]
    frame_face: np.ndarray
    frame_tn: np.ndarray
    normal_pos: tuple[tuple[int, ...], ...]
    ratio: np.ndarray


@dataclass(frozen=True, eq=False)
class GeometricSimplex:
    """An m-dimensional simplex embedded in R^d, vertices as rows.

    ``labels`` names the vertices; they default to 0..m and must ascend, so
    the stored vertex order is the ascending-label order that fixes the
    simplex orientation.  They are checked by building the cell's
    :class:`AbstractSimplex` (non-negative, strictly increasing integers),
    which ``full_simplex`` returns.  Non-finite coordinates are a
    :class:`DegenerateSimplexError`.
    """

    vertices: np.ndarray
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a 2-D array (rows = points)")
        if not np.isfinite(v).all():
            raise DegenerateSimplexError("non-finite vertex coordinates")
        object.__setattr__(self, "vertices", v)
        m = v.shape[0] - 1
        if m > self.ambient_dim:
            raise ValueError(f"{m}-simplex cannot live in R^{self.ambient_dim}")
        labels = tuple(range(m + 1)) if self.labels is None else tuple(self.labels)
        if len(labels) != m + 1:
            raise ValueError("one label per vertex required")
        full = AbstractSimplex(labels)
        object.__setattr__(self, "labels", full.vertices)
        object.__setattr__(self, "_full", full)
        svals = np.linalg.svd(self.edge_matrix, compute_uv=False) if m >= 1 else np.ones(1)
        if svals[-1] <= DEGENERACY_RTOL * svals[0]:
            raise DegenerateSimplexError(f"singular values {svals[-1]:.3e} <= {DEGENERACY_RTOL} * {svals[0]:.3e}")

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
    def _face_stacks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(tangents, gradients, volumes) of the s-faces, lexicographic, per s, from one batched QR each.

        With edge rows E = R^T Q, the gradients of lambda_1..lambda_s are the
        rows of R^{-1} Q, and |det R| / s! is the volume.  A vertex has no
        edge, so its level is constant: no tangents, the gradient -0.0 (minus
        an empty sum) and volume 1.
        """
        n, d = self.vertices.shape
        tangents, gradients = np.empty((n, 0, d)), np.full((n, 1, d), -0.0)
        tangents.flags.writeable = gradients.flags.writeable = False
        stacks = [(tangents, gradients, np.ones(n))]
        for s in range(1, self.dim + 1):
            pts = self.vertices[np.array(list(combinations(range(self.dim + 1), s + 1)))]
            q, r = _orthonormal_rows(pts[:, 1:] - pts[:, :1])
            grads = np.empty(pts.shape)
            grads[:, 1:] = np.linalg.solve(r, q)
            grads[:, 0] = -grads[:, 1:].sum(axis=1)
            vols = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1) / factorial(s)
            q.flags.writeable = grads.flags.writeable = False
            stacks.append((q, grads, vols))
        return stacks

    @cached_property
    def _faces(self) -> dict[tuple[int, ...], _Face]:
        """Every face keyed by its labels, one view into the stacks each."""
        table = {}
        for s, (q, grads, vols) in enumerate(self._face_stacks):
            for j, face in enumerate(combinations(self.labels, s + 1)):
                table[face] = _Face(q[j], grads[j], float(vols[j]), j)
        return table

    @cached_property
    def _nef_table(self) -> dict[tuple[int, int], _NefGroup]:
        """The n-e-f groups built so far, keyed by (|f|, |e|); filled by ``_nef_group``."""
        return {}

    def full_simplex(self) -> AbstractSimplex:
        """The abstract simplex on this cell's vertex labels, built once with the cell."""
        return self._full


def reference_simplex(d: int) -> GeometricSimplex:
    """Unit reference simplex with vertices 0, e_1, ..., e_d."""
    return GeometricSimplex(np.eye(d + 1, d, k=-1))


def random_simplex(d: int, rng: np.random.Generator, scale: float = 1.0) -> GeometricSimplex:
    """Well-shaped random simplex: perturbed reference, resampled until conditioned."""
    base = np.eye(d + 1, d, k=-1)  # the reference vertices, without building the reference cell
    while True:
        v = scale * (base + 0.3 * rng.uniform(-1.0, 1.0, size=base.shape))
        e = (v[1:] - v[0]).T
        svals = np.linalg.svd(e, compute_uv=False)
        if svals[-1] > 0.15 * svals[0]:
            return GeometricSimplex(v)


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


def _face(T: GeometricSimplex, face: tuple[int, ...]) -> _Face:
    """The face-table entry of a face named by its labels; ValueError if T has no such face."""
    try:
        return T._faces[face]
    except KeyError:
        raise ValueError(f"{face} is not a face of the simplex with labels {T.labels}") from None


def tangent_basis(T: GeometricSimplex, e: AbstractSimplex) -> np.ndarray:
    """Orthonormal tangent rows of a subsimplex, (s, d), from its ascending edges; read-only."""
    return _face(T, e.vertices).tangents


def oriented_subframe(T: GeometricSimplex, f: AbstractSimplex) -> Frame:
    """Oriented orthonormal frame of a subsimplex's tangent plane.

    The orientation comes from the ascending vertex order of f itself, never
    from the containing cell, so cells sharing f agree on it.
    """
    if f.dim < 1:
        raise ValueError("oriented frame needs a subsimplex of dimension >= 1")
    return Frame(tangent_basis(T, f))


def surface_gradient(T: GeometricSimplex, f: AbstractSimplex, i: int) -> np.ndarray:
    """Tangential part of grad lambda_i on f: f's own gradient if i is in f, else zero."""
    face = _face(T, f.vertices)
    if i not in f.vertices:
        return np.zeros(T.ambient_dim)
    return face.gradients[f.vertices.index(i)]


class TnFrameSet(NamedTuple):
    """Dual pair of bases for the normal plane of a subsimplex e (within f).

    ``frame_face`` and ``frame_tn`` are (|f| - 1, d) frame matrices: the
    dim e rows ``tangents``, an orthonormal basis of e's plane, then the
    face-normal vectors ``normals_face``, respectively the tangential-normal
    vectors ``normals_tn``, normal row i belonging to ``normal_labels[i]``.
    The normals pair diagonally, off-diagonals at most PAIRING_RTOL times
    the least (positive) diagonal.  From ``nef_frames`` the arrays, and the
    row slices the properties return, are read-only views into tables the
    cell shares among all its frames.
    """

    e: AbstractSimplex
    normal_labels: tuple[int, ...]
    frame_face: np.ndarray
    frame_tn: np.ndarray

    @property
    def tangents(self) -> np.ndarray:
        return self.frame_face[: len(self.e) - 1]

    @property
    def normals_face(self) -> np.ndarray:
        return self.frame_face[len(self.e) - 1 :]

    @property
    def normals_tn(self) -> np.ndarray:
        return self.frame_tn[len(self.e) - 1 :]

    def pairing(self) -> np.ndarray:
        return self.normals_tn @ self.normals_face.T


def _pairing_ratio(p: np.ndarray) -> np.ndarray:
    """Largest off-diagonal |entry| over the least diagonal entry, per matrix of a stack (..., r, r).

    The ratio is inf for a matrix with a diagonal entry <= 0.  Works on the
    flattened r*r axis, where the diagonal is every (r + 1)-th entry.
    """
    r = p.shape[-1]
    flat = p.reshape(p.shape[:-2] + (r * r,))
    diag = flat[..., :: r + 1]
    off = np.abs(flat)
    off[..., :: r + 1] = 0.0
    positive = np.all(diag > 0.0, axis=-1)
    ratio = np.full(positive.shape, np.inf)
    np.divide(off.max(axis=-1, initial=0.0), diag.min(axis=-1, initial=np.inf), out=ratio, where=positive)
    return ratio


def _check_pairing(e: tuple[int, ...], f: tuple[int, ...], ratio: float):
    if ratio > PAIRING_RTOL:
        raise ValueError(f"pairing at e={e}, f={f} not diagonal: ratio {ratio:.3e} > {PAIRING_RTOL}")


@lru_cache(maxsize=None)
def _pair_table(n: int, nf: int, ne: int):
    """Every face pair E in F of range(n) with |F| = nf, |E| = ne, and its gather indices.

    Returns (index, anchor_at, normal_pos, (face_at, face_row, tn_at, tn_row)):
    ``index`` maps the pair's (F, E) positions among the faces of their
    dimensions to its row, ``anchor_at`` holds each E's position and
    ``normal_pos`` each pair's positions in F of the vertices of F minus E.
    Entry (row, j) of the arrays locates, for the j-th vertex i of F minus E,
    F's gradient of lambda_i in the stack of faces with nf vertices and the
    gradient of lambda_i in E + i in the stack of faces with ne + 1 vertices.
    """
    at = {s: {face: j for j, face in enumerate(combinations(range(n), s))} for s in (nf, ne, ne + 1)}
    index, anchor_at, gather = {}, [], []
    for F in combinations(range(n), nf):
        for E in combinations(F, ne):
            index[at[nf][F], at[ne][E]] = len(index)
            anchor_at.append(at[ne][E])
            rest = [i for i in F if i not in E]
            up = [tuple(sorted(E + (i,))) for i in rest]
            gather.append(
                (
                    [at[nf][F]] * len(rest),
                    [F.index(i) for i in rest],
                    [at[ne + 1][u] for u in up],
                    [u.index(i) for i, u in zip(rest, up)],
                )
            )
    normal_pos = tuple(tuple(rows[1]) for rows in gather)
    columns = tuple(np.array(col, dtype=np.intp).reshape(len(index), nf - ne) for col in zip(*gather))
    return index, np.array(anchor_at, dtype=np.intp), normal_pos, columns


def _nef_group(T: GeometricSimplex, nf: int, ne: int) -> _NefGroup:
    """The cell's n-e-f group for faces with nf vertices and anchors with ne, built on first use."""
    group = T._nef_table.get((nf, ne))
    if group is None:
        index, anchor_at, normal_pos, (face_at, face_row, tn_at, tn_row) = _pair_table(T.dim + 1, nf, ne)
        stacks = T._face_stacks
        frames = np.empty((2, len(index), nf - 1, T.ambient_dim))
        # take gives C-ordered rows; a fancy index keeps the transposed QR layout and broadcasts slower
        frames[:, :, : ne - 1] = stacks[ne - 1][0].take(anchor_at, axis=0)
        frames[0, :, ne - 1 :] = stacks[nf - 1][1][face_at, face_row]
        frames[1, :, ne - 1 :] = stacks[min(ne, T.dim)][1][tn_at, tn_row]  # ne > dim only for e = f = T: no rows
        frames.flags.writeable = False
        face, tn = frames[:, :, ne - 1 :]
        ratio = _pairing_ratio(tn @ np.swapaxes(face, -1, -2))
        ratio.flags.writeable = False
        group = T._nef_table[nf, ne] = _NefGroup(index, frames[0], frames[1], normal_pos, ratio)
    return group


def nef_frames(T: GeometricSimplex, f: AbstractSimplex, e: AbstractSimplex) -> TnFrameSet:
    """Dual bases of the normal plane of e inside the tangent plane of f.

    With f the cell these are the t-n frames of e; with e == f the normal
    families are empty.  A lookup into the cell's n-e-f group of (|f|, |e|).
    """
    face, anchor = _face(T, f.vertices), _face(T, e.vertices)
    nf, ne = len(f.vertices), len(e.vertices)
    group = _nef_group(T, nf, ne) if ne <= nf else None
    j = None if group is None else group.index.get((face.at, anchor.at))
    if j is None:
        raise ValueError(f"anchor e={e.vertices} must be contained in the face f={f.vertices}")
    _check_pairing(e.vertices, f.vertices, group.ratio[j])
    labels = f.vertices
    return TnFrameSet(e, tuple([labels[p] for p in group.normal_pos[j]]), group.frame_face[j], group.frame_tn[j])


def outward_normal(T: GeometricSimplex, facet: AbstractSimplex) -> np.ndarray:
    """Unit outward normal of a facet of a full-dimensional cell."""
    if T.dim != T.ambient_dim:
        raise ValueError("outward normal defined on full-dimensional cells")
    if facet.dim != T.dim - 1:
        raise ValueError("facet must have codimension one")
    _face(T, facet.vertices)  # a label outside the cell is named, not left to the unpacking below
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
