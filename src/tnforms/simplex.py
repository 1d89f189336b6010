"""Geometric simplices: barycentric gradients, tangential-normal frames.

A :class:`GeometricSimplex` may be full-dimensional (a cell) or embedded
(a sub-simplex of a cell, carrying its own vertex coordinates).  Every
tangent, gradient and volume is read from one record per face dimension s,
a ``_Level`` of read-only stacks over the s-faces in lexicographic order of
vertex positions; ``_face_at`` maps a face's labels to its position in its
level.  One pass builds every level on first use.  One batched QR takes
the edge rows v_j - v_0 (ascending vertex labels) of every face of
dimension 1..m, each face's s rows padded with zero rows to m, and makes
the diagonal of R positive; Householder's prefix property leaves a face's
first s rows of Q and leading s x s block of R as its own rows alone would
give them, so the level's tangents are those first rows, the rows
Gram-Schmidt would give.  The degeneracy floor tests a face's own s
diagonal entries only.  One solve with R per level gives its barycentric
gradients; the face volumes and the orthonormality flags come from the
whole padded stack at once.  The vertex level has no edges and is built
from constants: no tangent rows, the gradient -0.0 and volume 1, what the
QR and solve give there.  An entry depends only on the coordinates of the
face's own vertices in ascending label order, so two cells sharing a face
derive identical frames from it.

The n-e-f frames of the face pairs e in f are built per face size |f|,
every e in f (e = f included) at once.  A frame matrix holds e's |e| - 1
tangents then its |f| - |e| normals, |f| - 1 rows whatever |e| is, so one
``take`` from the cell's ``_rows`` (every level's tangent rows, then its
gradient rows) fills a (2, pairs, |f| - 1, d) array of the face and t-n
frames.  The face normals are f's gradients of the vertices outside e; the
t-n normal of such a vertex i is the gradient of lambda_i in e + i.  The
gather indices, each pair's vertices outside e and the masks of the normal
block of a frame product are a label-free table per (n, |f|),
``_nef_index``.  One batched product and masked reductions give every
pair's pairing ratio.  The build fills the cell's ``_nef`` dict, keyed by
(f labels, e labels), with each pair's ratio, normal labels and two
read-only row views of the one array.  ``nef_frames`` is one read of that
dict; on a miss it names labels outside the cell, builds f's size if it is
not built yet, and otherwise reports e not contained in f.  Sizes are
built on a cell the first time one of their pairs is asked for, not all at
once: a t-n basis reads only |f| = d + 1, and the whole table of a 6-cell
holds thousands of pairs it never uses.

A level also holds its faces' frames: the ``exterior._orthonormal`` flag of
each face's tangent rows and the compound cache of the level's stack.  The
frame of ``oriented_subframe`` is the stack's row at the face's position,
unchecked and uncopied, sharing the level's cache: one test per cell and
one determinant call per (s, k), not one of each per frame.  Levels and
frame sets are ``NamedTuple`` records (``_Level``, ``TnFrameSet``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from math import comb, factorial, isfinite, prod
from typing import NamedTuple

import numpy as np

from .combinatorics import AbstractSimplex, subsimplices
from .errors import DEGENERACY_RTOL, PAIRING_RTOL, DegenerateSimplexError
from .exterior import Frame, _orthonormal


class _Level(NamedTuple):
    """The s-faces of one cell, lexicographic in vertex positions, as stacks over the faces.

    ``tangents`` (faces, s, d) holds their orthonormal tangent rows,
    ``gradients`` (faces, s + 1, d) their barycentric gradients in their
    planes and ``volumes`` their s-volumes; the two row stacks are
    read-only.  ``ok[at]`` flags a face whose tangent rows pass
    ``_orthonormal``; ``compounds`` maps k to the read-only compound of the
    tangent stack, filled on first use by the face frames that share it.
    """

    tangents: np.ndarray
    gradients: np.ndarray
    volumes: np.ndarray
    ok: np.ndarray
    compounds: dict[int, np.ndarray]


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
        content = prod(svals.tolist())  # m! times the volume; a Python product overflows to inf without a warning
        if not (0.0 < content and isfinite(content)):
            raise DegenerateSimplexError(f"singular values multiply to {content:.3e}: the volume is not representable")

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
        return float(self._levels[-1].volumes[0])

    @property
    def _gradients(self) -> np.ndarray:
        return self._levels[-1].gradients[0]

    @cached_property
    def _levels(self) -> list[_Level]:
        """The level of the s-faces, per s, all from one batched QR.

        Every face of dimension 1..m has its s edge rows padded with zero
        rows to m; the first s rows of its Q and the leading s x s block of
        its R are those of its unpadded rows.  With edge rows E = R^T Q, the
        gradients of lambda_1..lambda_s are the rows of R^{-1} Q, one solve
        per level, and |det R| / s! is the volume.  A vertex has no edge, so
        its level is constant: no tangents, the gradient -0.0 (minus an empty
        sum) and volume 1.
        """
        n, d = self.vertices.shape
        tangents, gradients = np.empty((n, 0, d)), np.full((n, 1, d), -0.0)
        tangents.flags.writeable = gradients.flags.writeable = False
        levels = [_Level(tangents, gradients, np.ones(n), _orthonormal(tangents), {})]
        if n == 1:
            return levels
        apex, ends, own, block, bounds = _padded_faces(n)
        q, r = _orthonormal_rows(self.vertices[ends] - self.vertices[apex], own)
        ok = _orthonormal(q, block)
        content = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1, where=own)
        for s, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
            tangents = q[lo:hi, :s]
            grads = np.empty((hi - lo, s + 1, d))
            grads[:, 1:] = np.linalg.solve(r[lo:hi, :s, :s], tangents)
            grads[:, 0] = -grads[:, 1:].sum(axis=1)
            tangents.flags.writeable = grads.flags.writeable = False
            levels.append(_Level(tangents, grads, content[lo:hi] / factorial(s), ok[lo:hi], {}))
        return levels

    @cached_property
    def _face_at(self) -> dict[tuple[int, ...], int]:
        """Every face's labels mapped to its position in its level."""
        return {face: j for s in range(self.dim + 1) for j, face in enumerate(combinations(self.labels, s + 1))}

    @cached_property
    def _rows(self) -> np.ndarray:
        """Every level's tangent rows, then its gradient rows, level by level: the table n-e-f frames gather."""
        d = self.ambient_dim
        return np.concatenate([stack.reshape(-1, d) for level in self._levels for stack in level[:2]])

    @cached_property
    def _nef(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], tuple]:
        """(f labels, e labels) -> (pairing ratio, normal labels, frame_face, frame_tn), per face size built so far."""
        return {}

    def full_simplex(self) -> AbstractSimplex:
        """The abstract simplex on this cell's vertex labels, built once with the cell."""
        return self._full


def reference_simplex(d: int) -> GeometricSimplex:
    """Unit reference simplex with vertices 0, e_1, ..., e_d."""
    return GeometricSimplex(np.eye(d + 1, d, k=-1))


def random_simplex(d: int, rng: np.random.Generator, scale: float = 1.0) -> GeometricSimplex:
    """Well-shaped random simplex: perturbed reference, resampled until conditioned.

    ``scale`` multiplies every vertex; a zero or non-finite scale is a ValueError.
    """
    if not (isfinite(scale) and scale != 0.0):
        raise ValueError(f"random_simplex needs a finite, non-zero scale, got {scale}")
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


@lru_cache(maxsize=None)
def _padded_faces(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Every face of dimension 1..n - 1 of range(n), by dimension then lexicographic, as padded edge ends.

    Returns (apex, ends, own, block, bounds): face j's edge rows are
    v[ends[j]] - v[apex[j]], its vertices after the first and then its
    first vertex again, so the rows past its own s are exact zeros;
    ``own[j]`` flags its s own rows and ``block[j]`` their s x s block of a
    Gram matrix, and the faces of dimension s are rows bounds[s - 1] to
    bounds[s].  The arrays are read-only.
    """
    faces = [face for size in range(2, n + 1) for face in combinations(range(n), size)]
    ends = np.array([face[1:] + face[:1] * (n - len(face)) for face in faces], dtype=np.intp)
    apex = np.array([face[:1] for face in faces], dtype=np.intp)
    own = np.arange(n - 1) < np.array([len(face) - 1 for face in faces])[:, None]
    block = own[:, :, None] & own[:, None, :]
    bounds = (0, *accumulate(comb(n, size) for size in range(2, n + 1)))
    for a in (apex, ends, own, block):
        a.flags.writeable = False
    return apex, ends, own, block, bounds


def _orthonormal_rows(rows: np.ndarray, own: np.ndarray | bool = True) -> tuple[np.ndarray, np.ndarray]:
    """QR of a stack of row sets: rows = R^T Q, Q orthonormal rows, diag(R) > 0.

    Raises when a diagonal entry of R that ``own`` flags (every one, by
    default) is at most DEGENERACY_RTOL times the largest entry of its
    matrix: the rows are (nearly) linearly dependent.  Zero rows padded
    under a set's own rows leave its leading rows of Q and block of R as
    they are; ``own`` keeps their zero diagonal out of the test.
    """
    if rows.shape[-2] > rows.shape[-1]:
        raise DegenerateSimplexError("more vectors than dimensions in frame build")
    q, r = np.linalg.qr(np.swapaxes(rows, -1, -2))
    sign = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    q *= sign[..., None, :]
    r *= sign[..., :, None]
    floor = DEGENERACY_RTOL * np.abs(rows).max(axis=(-2, -1), initial=0.0)
    if np.any((np.diagonal(r, axis1=-2, axis2=-1) <= floor[..., None]) & own):
        raise DegenerateSimplexError("linearly dependent vectors in frame build")
    return np.swapaxes(q, -1, -2), r


def gram_schmidt(vectors: np.ndarray) -> np.ndarray:
    """The orthonormal rows Gram-Schmidt makes of ``vectors``; raises on (near) dependence."""
    return _orthonormal_rows(np.asarray(vectors, dtype=float))[0]


def _face(T: GeometricSimplex, face: tuple[int, ...]) -> int:
    """The level position of a face named by its labels; ValueError if T has no such face."""
    try:
        return T._face_at[face]
    except KeyError:
        raise ValueError(f"{face} is not a face of the simplex with labels {T.labels}") from None


def tangent_basis(T: GeometricSimplex, e: AbstractSimplex) -> np.ndarray:
    """Orthonormal tangent rows of a subsimplex, (s, d), from its ascending edges; read-only."""
    at = _face(T, e.vertices)
    return T._levels[e.dim].tangents[at]


def oriented_subframe(T: GeometricSimplex, f: AbstractSimplex) -> Frame:
    """Oriented orthonormal frame of a subsimplex's tangent plane.

    The orientation comes from the ascending vertex order of f itself, never
    from the containing cell, so cells sharing f agree on it.
    """
    if f.dim < 1:
        raise ValueError("oriented frame needs a subsimplex of dimension >= 1")
    at = _face(T, f.vertices)
    level = T._levels[f.dim]
    if not level.ok[at]:
        raise ValueError("frame vectors are not orthonormal")
    return Frame._of_row(level.tangents, at, level.compounds)


def surface_gradient(T: GeometricSimplex, f: AbstractSimplex, i: int) -> np.ndarray:
    """Tangential part of grad lambda_i on f: f's own gradient if i is in f, else zero."""
    at = _face(T, f.vertices)
    if i not in f.vertices:
        if i not in T.labels:
            raise ValueError(f"label {i} is not a vertex of the simplex with labels {T.labels}")
        return np.zeros(T.ambient_dim)
    return T._levels[f.dim].gradients[at, f.vertices.index(i)]


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


def _check_pairing(e: tuple[int, ...], f: tuple[int, ...], ratio: float):
    if ratio > PAIRING_RTOL:
        raise ValueError(f"pairing at e={e}, f={f} not diagonal: ratio {ratio:.3e} > {PAIRING_RTOL}")


@lru_cache(maxsize=None)
def _nef_index(n: int, nf: int):
    """Every face pair E in F of range(n) with |F| = nf, and the gathers that build its n-e-f frames.

    Returns (pairs, normals, gather, off, diag).  ``pairs`` lists (F, E) by
    F, then |E|, then lexicographic, and ``normals`` each pair's vertices of
    F minus E.  ``gather`` (2, pairs, nf - 1) indexes the cell's ``_rows``:
    E's tangent rows, then per vertex i of F minus E F's gradient of
    lambda_i (face frame) or the gradient of lambda_i in E + i (t-n frame).
    ``off`` and ``diag`` (pairs, nf - 1, nf - 1) mask the off-diagonal and
    diagonal entries of the normal block of a frame product.  The arrays
    are read-only.
    """
    tangent_at, gradient_at, row = [], [], 0
    for s in range(n):
        tangent_at.append(row)
        row += comb(n, s + 1) * s
        gradient_at.append(row)
        row += comb(n, s + 1) * (s + 1)
    at = {face: j for size in range(1, n + 1) for j, face in enumerate(combinations(range(n), size))}
    pairs, normals, gather, tangent_rows = [], [], [], []
    for F in combinations(range(n), nf):
        for ne in range(1, nf + 1):
            for E in combinations(F, ne):
                rest = tuple(i for i in F if i not in E)
                up = [tuple(sorted(E + (i,))) for i in rest]
                tangents = [tangent_at[ne - 1] + at[E] * (ne - 1) + j for j in range(ne - 1)]
                face = [gradient_at[nf - 1] + at[F] * nf + F.index(i) for i in rest]
                tn = [gradient_at[ne] + at[u] * (ne + 1) + u.index(i) for i, u in zip(rest, up)]
                pairs.append((F, E))
                normals.append(rest)
                gather.append((tangents + face, tangents + tn))
                tangent_rows.append(ne - 1)
    gather = np.array(gather, dtype=np.intp).reshape(len(pairs), 2, nf - 1).transpose(1, 0, 2).copy()
    normal = np.arange(nf - 1) >= np.array(tangent_rows)[:, None]
    block = normal[:, :, None] & normal[:, None, :]
    diag = block & np.eye(nf - 1, dtype=bool)
    off = block & ~diag
    for a in (gather, off, diag):
        a.flags.writeable = False
    return pairs, normals, gather, off, diag


def _build_nef(T: GeometricSimplex, nf: int):
    """Fill the cell's ``_nef`` with every pair whose face has nf vertices: one gather, one frame product.

    A pair's ratio is its normal block's largest off-diagonal |entry| over
    its least diagonal entry, inf when a diagonal entry is <= 0.
    """
    n = len(T.labels)
    pairs, normals, gather, off, diag = _nef_index(n, nf)
    frames = T._rows.take(gather, axis=0)
    frames.flags.writeable = False
    p = frames[1] @ np.swapaxes(frames[0], -1, -2)
    positive = np.all(p > 0.0, axis=(1, 2), where=diag)
    least = p.min(axis=(1, 2), initial=np.inf, where=diag)
    ratio = np.full(len(pairs), np.inf)
    np.divide(np.abs(p).max(axis=(1, 2), initial=0.0, where=off), least, out=ratio, where=positive)
    if T.labels != tuple(range(n)):
        label = T.labels.__getitem__
        pairs = [(tuple(map(label, F)), tuple(map(label, E))) for F, E in pairs]
        normals = [tuple(map(label, rest)) for rest in normals]
    T._nef.update(zip(pairs, zip(ratio.tolist(), normals, frames[0], frames[1])))


def nef_frames(T: GeometricSimplex, f: AbstractSimplex, e: AbstractSimplex) -> TnFrameSet:
    """Dual bases of the normal plane of e inside the tangent plane of f.

    With f the cell these are the t-n frames of e; with e == f the normal
    families are empty.  One read of the cell's ``_nef``; a miss builds the
    pairs of f's size, once.
    """
    entry = T._nef.get((f.vertices, e.vertices))
    if entry is None:
        _face(T, f.vertices)  # labels outside the cell are named before containment is
        _face(T, e.vertices)
        if (f.vertices, f.vertices) not in T._nef:  # every built size holds each of its faces paired with itself
            _build_nef(T, len(f.vertices))
            entry = T._nef.get((f.vertices, e.vertices))
        if entry is None:
            raise ValueError(f"anchor e={e.vertices} must be contained in the face f={f.vertices}")
    ratio, normal_labels, frame_face, frame_tn = entry
    _check_pairing(e.vertices, f.vertices, ratio)
    return TnFrameSet(e, normal_labels, frame_face, frame_tn)


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
