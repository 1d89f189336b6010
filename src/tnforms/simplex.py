"""Geometric simplices: barycentric gradients, tangential-normal frames.

A :class:`GeometricSimplex` may be full-dimensional (a cell) or embedded
(a sub-simplex of a cell, carrying its own vertex coordinates).  A face is
named by its position mask, bit i for the cell's i-th label; faces are
enumerated and named in :mod:`tnforms.combinatorics`, and callers such as
the t-n bases hold masks as opaque keys.  The cell's faces are those of
its abstract simplex (``full_simplex``) and its one face table: ``_mask``
reads ``_masks``, raising one ValueError for every query on labels the
cell lacks, and callers read ``_faces`` directly, so default-labelled
cells, which share one abstract simplex per vertex count, share every face
object too.  The levels and the n-e-f pairs follow the label-free face
order of ``combinatorics._face_index``, by size, then lexicographic.

Building a cell runs one SVD and a fixed number of array operations (see
:class:`GeometricSimplex`, which also lays out its caches).  The caches
other than the two pair dicts are built on first use, so a candidate that
``random_simplex`` throws away builds none of them.  ``random_simplex``
builds each candidate on the same path, under one ``np.errstate`` per call.

Every tangent and gradient is read from one ``_Level`` per face dimension
s, vertices (s = 0) included, all built on first use by one batched QR
(see ``_levels``).  An entry depends only on the coordinates of the face's
own vertices in ascending label order, so two cells sharing a face derive
identical frames from it.  The cell's volume is the one fact read from its
construction instead: the product of singular values the constructor
checks for representability, over m!, so reading it runs no QR.

The n-e-f frames of the face pairs e in f are built per face size |f|,
every e in f (e = f included) at once (``_build_nef``).  A frame matrix
holds e's |e| - 1 tangents then its |f| - |e| normals, so one ``take``
from the cell's ``_rows`` fills the face and t-n frames of every pair.  The
face normals are f's gradients of the vertices outside e; the t-n normal
of such a vertex i is the gradient of lambda_i in e + i.  The pairs' masks
and the gathers are a label-free table per (n, |f|), ``_nef_index``, so
every labelling takes one path and builds the same ``_nef`` keys.
``nef_frames`` reads f's and e's masks, then ``_nef``; on a miss ``_mask``
names labels outside the cell, containment of e in f is checked next, and
otherwise f's size is built.  A t-n basis reads only |f| = d + 1, so sizes
are built on first use, not all at once.

A t-n basis reads an anchor's ``_TnFrames`` record through ``_tn_frames``,
one read of the cell's ``_tn``; ``_fill_tn`` fills it on the anchor's
first read.  No t-n call multiplies frames, and an M that overflows warned
once, when the n-e-f build took it.  Rows are scaled per anchor read, not
in ``_build_nef``, so frames no t-n basis reads cost nothing more.

A level also holds its faces' frames: the ``exterior._orthonormal`` flag of
each face's tangent rows and the compound cache of the level's stack.  The
frame of ``oriented_subframe`` is the stack's row at the face's position,
unchecked and uncopied, sharing the level's cache.  The facet frames of
``induced_facet_frame`` are the rows of the cell's ``_facets`` stack.
Levels and frame sets are ``NamedTuple`` records (``_Level``,
``TnFrameSet``); ``nef_frames`` builds its set with ``tuple.__new__``,
past the record's Python-level constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, frexp, isfinite, prod
from typing import NamedTuple

import numpy as np

from .combinatorics import AbstractSimplex, _face_index
from .errors import DEGENERACY_RTOL, PAIRING_RTOL, DegenerateSimplexError
from .exterior import Frame, _orthonormal, _vector


class _Level(NamedTuple):
    """The s-faces of one cell, lexicographic in vertex positions, as stacks over the faces.

    ``tangents`` (faces, s, d) holds their orthonormal tangent rows and
    ``gradients`` (faces, s + 1, d) their barycentric gradients in their
    planes; both stacks are read-only.  ``ok[at]`` flags a face whose
    tangent rows pass ``_orthonormal``; ``compounds`` maps k to the
    read-only compound of the tangent stack, filled on first use by the
    face frames that share it.
    """

    tangents: np.ndarray
    gradients: np.ndarray
    ok: np.ndarray
    compounds: dict[int, np.ndarray]


class _TnFrames(NamedTuple):
    """Anchor e's t-n frames in a d-cell: three (primal, dual) pairs, indexed by flavor as ``tnbasis.FLAVORS`` is.

    ``frames`` are the cell's stored, read-only ``_nef`` rows of (cell, e),
    d x d: e's tangents, then its face normals (primal), respectively its
    t-n normals (dual).  ``scaled`` holds the same rows, each times the
    exact power of two that puts its largest |entry| in [1/2, 1) (a zero
    row stays as it is), read-only; row r of a frame is its scaled row r
    times 2^exps[r], the exponents lists of Python ints.  ``product`` is
    the stored ``_nef`` product M = primal . dual^T, d x d and read-only:
    the identity on e's tangents and the diagonal n-e-f pairing on its
    normals, whose k-th compound is the pairing matrix of degree k
    (Cauchy-Binet).
    """

    frames: tuple[np.ndarray, np.ndarray]
    scaled: tuple[np.ndarray, np.ndarray]
    exps: tuple[list[int], list[int]]
    product: np.ndarray


@dataclass(frozen=True, eq=False)
class GeometricSimplex:
    """An m-dimensional simplex embedded in R^d, vertices as rows.

    ``labels`` names the vertices; they default to 0..m and must ascend, so
    the stored vertex order is the ascending-label order that fixes the
    simplex orientation.  Given labels are checked by building the cell's
    :class:`AbstractSimplex` (non-negative, strictly increasing integers),
    which ``full_simplex`` returns; default-labelled cells with the same
    vertex count share one cached, frozen one.

    Construction copies the vertices, forms the column edge matrix once,
    kept read-only as ``edge_matrix``, and takes one SVD.  Each check reads
    a value computed on the way:

    - non-finite coordinates: the largest |edge|, which every non-finite
      coordinate makes non-finite; only then are the vertices tested, to
      tell this error from an edge that overflows.  A vertex (m = 0) has
      no edge, so its coordinates are tested directly;
    - an edge beyond the float range: the same largest |edge|, which also
      sets the SVD's power-of-two prescale;
    - a singular value beyond the float range, degeneracy, and a product
      of singular values that overflows or underflows: the singular values.

    Each is a :class:`DegenerateSimplexError` raised with no numpy warning.

    The cell owns its vertices: ``vertices`` is a read-only float copy of
    the input, so writing to the caller's array afterwards, or to
    ``vertices``, cannot change a cell that passed its checks.  The
    singular values of the edge matrix, descending, that the degeneracy and
    volume checks read are kept read-only in ``_svals``.  They are taken of
    the edges scaled by a power of two and scaled back, so a far cell's are
    as accurate as a unit cell's.  Their product, m! times the volume, is
    kept in ``_content``: ``volume`` returns the value the representability
    check accepted.

    Two dicts start empty with the cell and fill as frames are read:

    - ``_nef`` maps (f mask, e mask) to the pair's pairing ratio, two
      read-only row views of its size's one frame array (face frame, t-n
      frame) and, when f is the cell, a read-only view of their product
      (None otherwise, so the sizes that only ``nef_frames`` reads make no
      view of it), per face size built so far (``_build_nef``);
    - ``_tn`` maps an anchor's mask to its ``_TnFrames`` record, per anchor
      read so far (``_fill_tn``).

    Three caches are built on first use: ``_levels``, one ``_Level`` per
    face dimension; ``_rows``, the table the n-e-f frames gather; and
    ``_facets``, the facet frames of ``induced_facet_frame``.
    """

    vertices: np.ndarray
    labels: tuple[int, ...] | None = None
    edge_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a 2-D array (rows = points)")
        with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range is an error, not a warning
            self._own(v, self.labels)

    @classmethod
    def _adopt(cls, v: np.ndarray) -> GeometricSimplex:
        """A default-labelled cell on a fresh 2-D float array, kept as is; checked, under the caller's ``np.errstate``."""
        T = object.__new__(cls)
        T._own(v, None)
        return T

    def _own(self, v: np.ndarray, labels) -> None:
        """Check the cell on the float rows v, then store it, v and the edges made read-only; overflow is ignored."""
        m = v.shape[0] - 1
        edges = (v[1:] - v[:1]).T  # v[:1], not v[0]: an array of no vertices has no row 0
        top = np.abs(edges if m > 0 else v).max(initial=0.0)  # NaN if any edge is, inf if one overflows
        # every non-finite coordinate makes its edges non-finite, so the vertices are tested only when top is
        if not isfinite(top) and not isfinite(np.abs(v).max(initial=0.0)):
            raise DegenerateSimplexError("non-finite vertex coordinates")
        if m > v.shape[1]:
            raise ValueError(f"{m}-simplex cannot live in R^{v.shape[1]}")
        if labels is None:
            full = _standard_simplex(m + 1)
        else:
            labels = tuple(labels)
            if len(labels) != m + 1:
                raise ValueError("one label per vertex required")
            full = AbstractSimplex(labels)
        if not isfinite(top):
            raise DegenerateSimplexError("an edge overflows: the volume is not representable")
        # LAPACK rescales a matrix whose largest entry is beyond about 2^459, or below 2^-459, by an inexact ratio;
        # the edges go in scaled by a power of two that puts that entry in [1/2, 1), and come out scaled back exactly
        exp = frexp(top)[1]
        svals = np.ldexp(np.linalg.svd(np.ldexp(edges, -exp), compute_uv=False), exp) if m else np.ones(1)
        if not isfinite(svals[0]):
            raise DegenerateSimplexError(f"largest singular value {svals[0]:.3e}: the volume is not representable")
        if svals[-1] <= DEGENERACY_RTOL * svals[0]:
            raise DegenerateSimplexError(f"singular values {svals[-1]:.3e} <= {DEGENERACY_RTOL} * {svals[0]:.3e}")
        content = prod(svals.tolist())  # m! times the volume; a Python product overflows to inf without a warning
        if not (0.0 < content and isfinite(content)):
            raise DegenerateSimplexError(f"singular values multiply to {content:.3e}: the volume is not representable")
        v.flags.writeable = edges.flags.writeable = svals.flags.writeable = False
        self.__dict__.update(
            vertices=v, labels=full.vertices, edge_matrix=edges, _full=full, _svals=svals, _content=content, _nef={}, _tn={}
        )

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def dim(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def volume(self) -> float:
        """Euclidean m-volume, the constructor's checked singular-value product over m!; a vertex has volume 1."""
        return self._content / factorial(self.dim)

    @property
    def _gradients(self) -> np.ndarray:
        return self._levels[-1].gradients[0]

    @cached_property
    def _levels(self) -> list[_Level]:
        """The level of the s-faces, per s = 0..m, all from one batched QR and one loop.

        Every face, vertices included, has its s edge rows padded with zero
        rows to m; the first s rows of its Q and the leading s x s block of
        its R are those of its unpadded rows.  A face's ``ok`` flag tests
        its whole Q, pad rows included (see the comment below); R's diagonal
        is exactly 0 on the pad columns, so the degeneracy floor skips them
        (``own``).  With edge rows E = R^T Q, the gradients of
        lambda_1..lambda_s are the rows of R^{-1} Q, one solve per level.
        A vertex's rows are all padding, so it gets no tangents and the
        gradient -0.0 (minus an empty sum).
        """
        n, d = self.vertices.shape
        apex, ends, own, bounds = _padded_faces(n)
        q, r = _orthonormal_rows(self.vertices[ends] - self.vertices[apex], own)
        ok = _orthonormal(q)  # Householder's reduced Q is orthonormal on the zero pad rows too, so Q is tested whole
        levels = []
        for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            tangents = q[lo:hi, :s]
            grads = np.empty((hi - lo, s + 1, d))
            grads[:, 1:] = np.linalg.solve(r[lo:hi, :s, :s], tangents)
            grads[:, 0] = -grads[:, 1:].sum(axis=1)
            tangents.flags.writeable = grads.flags.writeable = False
            levels.append(_Level(tangents, grads, ok[lo:hi], {}))
        return levels

    @cached_property
    def _rows(self) -> np.ndarray:
        """Every level's tangent rows, then its gradient rows, level by level: the table n-e-f frames gather."""
        d = self.ambient_dim  # the row count is explicit: a vertex in R^0 has empty stacks, where -1 is ambiguous
        return np.concatenate([s.reshape(s.shape[0] * s.shape[1], d) for level in self._levels for s in level[:2]])

    @cached_property
    def _facets(self) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
        """The facets of a full-dimensional cell in level order: unit outward normals, induced frames, their compounds.

        Facet j omits vertex n - 1 - j; its normal is minus that vertex's
        gradient over its norm.  Its frame is its tangent rows with the last
        row negated where det [normal; rows] < 0, so normal and rows are a
        positively oriented frame of R^d.  Both stacks are read-only; the
        dict is the frame stack's compound cache.
        """
        normals = np.array([-g / np.linalg.norm(g) for g in self._gradients[::-1]])
        rows = self._levels[-2].tangents.copy()
        flip = np.linalg.det(np.concatenate([normals[:, None], rows], axis=1)) < 0
        rows[:, -1:] *= np.where(flip, -1.0, 1.0)[:, None, None]
        normals.flags.writeable = rows.flags.writeable = False
        return normals, rows, {}

    def full_simplex(self) -> AbstractSimplex:
        """The abstract simplex on this cell's vertex labels, built once with the cell."""
        return self._full


def reference_simplex(d: int) -> GeometricSimplex:
    """Unit reference simplex with vertices 0, e_1, ..., e_d."""
    return GeometricSimplex(_reference_vertices(d))


@lru_cache(maxsize=None)
def _standard_simplex(n: int) -> AbstractSimplex:
    """The abstract simplex on labels 0..n - 1, one frozen object that default-labelled cells share; n = 0 raises."""
    return AbstractSimplex(tuple(range(n)))


@lru_cache(maxsize=None)
def _reference_vertices(d: int) -> np.ndarray:
    """The vertices 0, e_1, ..., e_d as read-only rows; a negative d is a ValueError."""
    if d < 0:
        raise ValueError(f"a simplex needs dimension d >= 0, got d={d}")
    out = np.eye(d + 1, d, k=-1)
    out.flags.writeable = False
    return out


def random_simplex(d: int, rng: np.random.Generator, scale: float = 1.0) -> GeometricSimplex:
    """Well-shaped random simplex: perturbed reference, resampled until conditioned.

    Each candidate is the reference cell with every coordinate moved by at
    most 0.3, times ``scale``, built as a :class:`GeometricSimplex` on the
    constructor's path, checks included; it is resampled while the cell's
    own singular values have sigma_min <= 0.15 sigma_max, so a candidate
    costs one SVD.  The whole loop runs under one ``np.errstate``.  The
    construction checks come first: a candidate within ``DEGENERACY_RTOL``
    of degenerate, or of unrepresentable volume, raises rather than being
    resampled.  A zero or non-finite ``scale`` is a ValueError, raised
    before any draw.  A candidate coordinate beyond the float range is the
    volume error too, with no numpy warning: the constructor rejects the
    non-finite vertices, and only then is the candidate tested, to name the
    coordinate that overflows.
    """
    if not (isfinite(scale) and scale != 0.0):
        raise ValueError(f"random_simplex needs a finite, non-zero scale, got {scale}")
    base = _reference_vertices(d)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            v = scale * (base + 0.3 * rng.uniform(-1.0, 1.0, size=base.shape))
            try:
                T = GeometricSimplex._adopt(v)
            except DegenerateSimplexError:
                if np.isfinite(v).all():
                    raise
                raise DegenerateSimplexError("a coordinate overflows: the volume is not representable") from None
            if T._svals[-1] > 0.15 * T._svals[0]:  # a vertex's one singular value 1 passes
                return T


def barycentric_gradients(T: GeometricSimplex) -> np.ndarray:
    """Gradients of the barycentric coordinates, one per row; rows sum to zero.

    For an embedded simplex the gradients are taken within its tangent plane.
    """
    return T._gradients.copy()


def barycentric_coordinates(T: GeometricSimplex, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of x, d entries in any shape, from the cell's gradients; of x's projection if embedded."""
    lam = T._gradients @ (_vector(x, T.ambient_dim, "barycentric_coordinates needs a point") - T.vertices[0])
    lam[0] += 1.0
    return lam


@lru_cache(maxsize=None)
def _padded_faces(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Every face of range(n), vertices included, by dimension then lexicographic, as padded edge ends.

    Returns (apex, ends, own, bounds): face j's edge rows are
    v[ends[j]] - v[apex[j]], its vertices after the first and then its
    first vertex again, so the rows past its own s are exact zeros (all
    n - 1 of a vertex's); ``own[j]`` flags its s own rows, and the faces of
    dimension s are rows bounds[s] to bounds[s + 1].  The arrays are
    read-only.
    """
    faces = _face_index(n)[0]
    ends = np.array([face[1:] + face[:1] * (n - len(face)) for face in faces], dtype=np.intp)
    apex = np.array([face[:1] for face in faces], dtype=np.intp)
    own = np.arange(n - 1) < np.array([len(face) - 1 for face in faces])[:, None]
    bounds = (0, *accumulate(comb(n, size) for size in range(1, n + 1)))
    for a in (apex, ends, own):
        a.flags.writeable = False
    return apex, ends, own, bounds


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


def _mask(T: GeometricSimplex, labels: tuple[int, ...], role: str = "") -> int:
    """The position mask of the face on ascending labels; a ValueError naming role and labels if T lacks it."""
    try:
        return T._full._masks[labels]
    except KeyError:
        raise ValueError(f"{role}{labels} is not a face of the cell with labels {T.labels}") from None


def _face(T: GeometricSimplex, face: tuple[int, ...]) -> int:
    """The level position of a face named by its labels; ValueError if T has no such face."""
    return _face_index(len(T.labels))[2][_mask(T, face)]


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
        _mask(T, (i,), "vertex i=")
        return np.zeros(T.ambient_dim)
    return T._levels[f.dim].gradients[at, f.vertices.index(i)]


class TnFrameSet(NamedTuple):
    """Dual pair of bases for the normal plane of a subsimplex e (within f).

    ``frame_face`` and ``frame_tn`` are (|f| - 1, d) frame matrices: the
    dim e rows ``tangents``, an orthonormal basis of e's plane, then the
    face-normal vectors ``normals_face``, respectively the tangential-normal
    vectors ``normals_tn``, normal row i belonging to ``normal_labels[i]``,
    the i-th label of f outside e.  The normals pair diagonally,
    off-diagonals at most PAIRING_RTOL times the least (positive) diagonal.
    From ``nef_frames`` the arrays, and the row slices the properties
    return, are read-only views into tables the cell shares among frames.
    """

    e: AbstractSimplex
    f: AbstractSimplex
    frame_face: np.ndarray
    frame_tn: np.ndarray

    @property
    def normal_labels(self) -> tuple[int, ...]:
        return tuple(i for i in self.f.vertices if i not in self.e.vertices)

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

    Returns (pairs, gather, off, diag).  ``pairs`` lists the (F, E) position
    masks by F, then |E|, then lexicographic.  ``gather`` (2, pairs, nf - 1)
    indexes the cell's ``_rows``: E's tangent rows, then per vertex i of F
    minus E F's gradient of lambda_i (face frame) or the gradient of
    lambda_i in E + i (t-n frame).
    ``off`` and ``diag`` (pairs, nf - 1, nf - 1) mask the off-diagonal and
    diagonal entries of the normal block of a frame product.  The arrays
    are read-only.
    """
    # per level s: comb(n, s + 1) faces of s tangent rows, then of s + 1 gradient rows
    starts = list(accumulate((comb(n, s + 1) * r for s in range(n) for r in (s, s + 1)), initial=0))
    tangent_at, gradient_at = starts[0::2], starts[1::2]
    faces, masks, at = _face_index(n)
    pairs, gather, tangent_rows = [], [], []
    for F, f in zip(faces, masks):
        if len(F) != nf:
            continue
        for E, e in zip(faces, masks):  # F's faces, by size then lexicographic
            if e & ~f:
                continue
            ne, rest = len(E), [i for i in F if i not in E]
            tangents = [tangent_at[ne - 1] + at[e] * (ne - 1) + j for j in range(ne - 1)]
            face = [gradient_at[nf - 1] + at[f] * nf + F.index(i) for i in rest]
            tn = [gradient_at[ne] + at[e | 1 << i] * (ne + 1) + sum(j < i for j in E) for i in rest]
            pairs.append((f, e))
            gather.append((tangents + face, tangents + tn))
            tangent_rows.append(ne - 1)
    gather = np.array(gather, dtype=np.intp).reshape(len(pairs), 2, nf - 1).transpose(1, 0, 2).copy()
    normal = np.arange(nf - 1) >= np.array(tangent_rows)[:, None]
    block = normal[:, :, None] & normal[:, None, :]
    diag = block & np.eye(nf - 1, dtype=bool)
    off = block & ~diag
    for a in (gather, off, diag):
        a.flags.writeable = False
    return pairs, gather, off, diag


def _build_nef(T: GeometricSimplex, nf: int):
    """Fill the cell's ``_nef`` (see :class:`GeometricSimplex`) with every pair whose face has nf vertices.

    One gather and one stacked product, each face frame times its t-n frame
    transposed.  A pair's ratio is the product's normal block's largest
    off-diagonal |entry| over its least diagonal entry, inf when a diagonal
    entry is <= 0.
    """
    pairs, gather, off, diag = _nef_index(len(T.labels), nf)
    frames = T._rows.take(gather, axis=0)
    p = frames[0] @ np.swapaxes(frames[1], -1, -2)
    frames.flags.writeable = p.flags.writeable = False
    positive = np.all(p > 0.0, axis=(1, 2), where=diag)
    least = p.min(axis=(1, 2), initial=np.inf, where=diag)
    ratio = np.full(len(pairs), np.inf)
    np.divide(np.abs(p).max(axis=(1, 2), initial=0.0, where=off), least, out=ratio, where=positive)
    products = p if nf == len(T.labels) else repeat(None)
    T._nef.update(zip(pairs, zip(ratio.tolist(), frames[0], frames[1], products)))


def nef_frames(T: GeometricSimplex, f: AbstractSimplex, e: AbstractSimplex) -> TnFrameSet:
    """Dual bases of the normal plane of e inside the tangent plane of f.

    With f the cell these are the t-n frames of e; with e == f the normal
    families are empty.  Two reads of the cell's label -> mask table and one
    of its ``_nef``; a miss builds the pairs of f's size, once.
    """
    at = T._full._masks
    try:
        ratio, frame_face, frame_tn, _ = T._nef[at[f.vertices], at[e.vertices]]
    except KeyError:
        f_at, e_at = _mask(T, f.vertices, "face f="), _mask(T, e.vertices, "anchor e=")  # named before containment is
        if e_at & ~f_at:
            raise ValueError(f"anchor e={e.vertices} must be contained in the face f={f.vertices}") from None
        _build_nef(T, len(f.vertices))
        ratio, frame_face, frame_tn, _ = T._nef[f_at, e_at]
    if ratio > PAIRING_RTOL:
        _check_pairing(e.vertices, f.vertices, ratio)
    return tuple.__new__(TnFrameSet, (e, f, frame_face, frame_tn))


def _tn_frames(T: GeometricSimplex, at: int) -> _TnFrames:
    """The t-n frame record of the anchor at position mask ``at``: one read of the cell's ``_tn``, filled on a miss."""
    try:
        return T._tn[at]
    except KeyError:
        return _fill_tn(T, at)


def _fill_tn(T: GeometricSimplex, at: int) -> _TnFrames:
    """Store the ``_TnFrames`` record of the anchor at ``at``, a face of T, from its (cell, e) ``_nef`` entry.

    T must be full-dimensional: an embedded cell raises before anything is
    built.  A miss in ``_nef`` then builds the pairs of the cell's own
    size, once, and a failing pairing raises ``nef_frames``'s message for
    (T.full_simplex(), e).  Both checks run before anything is stored, so
    an embedded cell, or an anchor whose pairing fails, keeps no record
    and raises the same message on every call.
    """
    if T.dim != T.ambient_dim:
        raise ValueError(f"t-n bases need a full-dimensional cell, got dim {T.dim} in ambient dim {T.ambient_dim}")
    key = (1 << len(T.labels)) - 1, at
    if key not in T._nef:
        _build_nef(T, len(T.labels))
    ratio, primal, dual, product = T._nef[key]
    if ratio > PAIRING_RTOL:
        _check_pairing(T._full._faces[at].vertices, T.labels, ratio)
    frames = np.stack((primal, dual))
    exps = np.frexp(np.abs(frames).max(axis=2, keepdims=True, initial=0.0))[1]
    scaled = np.ldexp(frames, -exps)
    scaled.flags.writeable = False
    record = T._tn[at] = _TnFrames((primal, dual), tuple(scaled), tuple(exps[..., 0].tolist()), product)
    return record


def induced_facet_frame(T: GeometricSimplex, facet: AbstractSimplex) -> tuple[Frame, np.ndarray]:
    """Orthonormal facet frame whose orientation is induced by the cell.

    Returns (frame, n) with n the unit outward normal and (n, frame rows) a
    positively oriented frame of R^d.  This is the orientation under which
    the tangential and normal traces are Hodge dual.  The frame is a row of
    the cell's facet stack, gated by its level's orthonormality flag: a
    negated row leaves the Gram matrix as it is.
    """
    if T.dim != T.ambient_dim:
        raise ValueError(f"induced facet frame needs a full-dimensional cell, got dim {T.dim} in ambient dim {T.ambient_dim}")
    if T.dim < 2:
        raise ValueError("induced facet frame needs ambient dimension >= 2")
    if facet.dim != T.dim - 1:
        raise ValueError("facet must have codimension one")
    at = _face(T, facet.vertices)
    if not T._levels[-2].ok[at]:
        raise ValueError("frame vectors are not orthonormal")
    normals, rows, compounds = T._facets
    return Frame._of_row(rows, at, compounds), normals[at].copy()


def all_subsimplices(T: GeometricSimplex) -> list[AbstractSimplex]:
    """Every subsimplex of the cell, by dimension then lexicographic: its abstract simplex's shared face objects."""
    return list(T._full._faces.values())
