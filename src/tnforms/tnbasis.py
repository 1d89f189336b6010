"""Tangential-normal bases of alternating forms anchored at a subsimplex.

Anchors and faces are named by the cell's own vertex labels, so two cells
that share a face name it, and the elements on it, alike.  The cell is
full-dimensional, a d-simplex in R^d.  For an anchor e of dimension s,
``nef_frames(T, T.full_simplex(), e)`` gives a d x d frame matrix: e's s
orthonormal tangents, then one normal per label outside e, ascending; the
normals are the barycentric gradients (primal flavor) or the t-n vectors
(dual flavor).  Both matrices are stored rows of the cell's n-e-f table,
which ``_frames`` returns as they are, with nothing stacked per call.  A
basis k-form wedges k of the d rows, sigma's tangents and the normals of f
minus e, so a basis is the k-th compound of the frame matrix, and which
rows each element takes depends on s, d and k alone.  The star of a dual
element is a multiple of the primal element of degree d - k that wedges
the complementary rows (``hodge_coefficient``, on the two coefficient
arrays), so normal traces, the tangential traces of starred forms, need no
basis of their own.
Elements are ordered by face dimension, then face, then tangential
sequence, which makes downstream degree-of-freedom matrices block lower
triangular.
Faces are named by the cell's position masks (``simplex._position_mask``),
which this module holds as opaque keys: an anchor is a mask, and an
element at it is (normal-offset mask, sigma), bit i of the former for the
i-th label outside the anchor.  ``simplex._deposit(anchor mask, n)`` turns
normal-offset masks into face masks and back, and the cell names each face
mask once (``simplex._masked_face``).  An element's frame rows, its
complementary rows and its Hodge partner come from one label-free table
per (s, d), ``_element_table``, so no call scans labels.
The elements ``decompose_altk`` and ``hodge_coefficient`` return are valid
by construction and built without re-validation (``TnBasisElement._of``):
each entry point checks, of the degree, the anchor (``_anchor``, one
message for all five), the flavor and the face, those it takes, once per
call and in that order.  Only elements made from outside data are checked
element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import AbstractSimplex, complement, sequence_position, sequences
from .errors import DEGENERACY_RTOL, PAIRING_RTOL
from .exterior import AltForm, _form, compound, flat, hodge_star, volume_coefficient, wedge, wedge_all
from .simplex import GeometricSimplex, _deposit, _masked_face, _position_mask, nef_frames

FLAVORS = ("primal", "dual")


@dataclass(frozen=True)
class TnBasisElement:
    """One tangential-normal basis form, named by (anchor, face, sequence, flavor).

    ``sigma`` is an increasing tuple in 1..dim e picking tangent vectors of the anchor.
    """

    e: AbstractSimplex
    f: AbstractSimplex
    sigma: tuple[int, ...]
    flavor: str = "primal"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not self.e.issubset(self.f):
            raise ValueError(f"anchor e={self.e.vertices} must be contained in the face f={self.f.vertices}")
        if self.sigma not in sequence_position(len(self.sigma), self.e.dim):
            raise ValueError(f"sigma={self.sigma} is not an increasing sequence in 1..{self.e.dim} (dim e)")

    @classmethod
    def _of(cls, e: AbstractSimplex, f: AbstractSimplex, sigma: tuple[int, ...], flavor: str) -> "TnBasisElement":
        """An element named from ``_basis_table``, valid by construction; not re-checked."""
        elem = object.__new__(cls)
        elem.__dict__.update(e=e, f=f, sigma=sigma, flavor=flavor)
        return elem


def decompose_altk(
    T: GeometricSimplex, e: AbstractSimplex, k: int, flavor: str = "primal"
) -> list[TnBasisElement]:
    """Basis elements of the k-form space anchored at e, grouped by face.

    Yields exactly C(d, k) elements: for each face dimension ell in the
    admissible window, each face f containing e contributes one element per
    increasing sequence of s + k - ell tangent indices.
    """
    at, (_, elements, _) = _anchor_table(T, e, k)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    faces = _deposit(at, len(T.labels))[0]
    return [TnBasisElement._of(e, _masked_face(T, faces[m]), sigma, flavor) for sigma, m in elements]


@lru_cache(maxsize=None)
def _basis_table(s: int, d: int, k: int):
    """The elements of degree k at an s-dimensional anchor of a d-cell, as frame rows; labels play no part.

    An element wedges k of the d rows: tangents 1..s, then normal rows s + 1 + i,
    i the 0-based offset among the labels outside the anchor.  Sorted by normal
    count, normal rows and rows, the row sets give their positions in
    ``sequences(k, d)`` and, per element, (sigma, normal-offset mask), bit i of
    the mask set for offset i.  The third entry holds the flat positions, in a
    C(d, k) x C(d, k) matrix, of the elements' rows and columns (read-only):
    the gather ``pairing_matrix`` takes.
    """
    keyed = sorted((sum(i > s for i in r), tuple(i - s - 1 for i in r if i > s), r) for r in sequences(k, d))
    pos = sequence_position(k, d)
    idx = tuple(pos[r] for _, _, r in keyed)
    at = np.array(idx, dtype=np.intp)
    flat_index = at[:, None] * len(idx) + at[None, :]
    flat_index.flags.writeable = False
    return idx, tuple((r[: k - m], sum(1 << i for i in normals)) for m, normals, r in keyed), flat_index


@lru_cache(maxsize=None)
def _element_table(s: int, d: int) -> dict[tuple[int, tuple[int, ...]], tuple]:
    """Every element at an s-dimensional anchor of a d-cell, of every degree, keyed by (normal-offset mask, sigma).

    An entry holds the element's 0-based frame rows (sigma's tangents i - 1,
    then the normal row s + i of each offset i in the mask), the complementary
    rows, and the normal-offset mask and sigma of its Hodge partner, which
    wedges those complementary rows.  The row arrays are read-only and shared:
    an element's complementary rows are its partner's rows.  2^d entries, and
    labels play no part.
    """
    full = (1 << (d - s)) - 1
    taus = {sigma: complement(sigma, s) for j in range(s + 1) for sigma in sequences(j, s)}
    rows = {}
    for m in range(full + 1):
        normals = [s + i for i in range(d - s) if m >> i & 1]
        for sigma in taus:
            rows[m, sigma] = r = np.array([i - 1 for i in sigma] + normals, dtype=np.intp)
            r.flags.writeable = False
    return {(m, sigma): (r, rows[full ^ m, taus[sigma]], full ^ m, taus[sigma]) for (m, sigma), r in rows.items()}


def _anchor(T: GeometricSimplex, e: AbstractSimplex) -> int:
    """The position mask of anchor e in the cell: the one anchor check of every t-n entry point."""
    at = _position_mask(T, e.vertices)
    if at is None:
        raise ValueError(f"anchor e={e.vertices} is not a face of the cell with labels {T.labels}")
    return at


def _anchor_table(T: GeometricSimplex, e: AbstractSimplex, k: int):
    """Anchor e's position mask and ``_basis_table``; the degree is checked, then the anchor, then the table is built."""
    d = len(T.labels) - 1
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return _anchor(T, e), _basis_table(e.dim, d, k)


def _entry(T: GeometricSimplex, elem: TnBasisElement, at: int):
    """The element's ``_element_table`` entry and its anchor's face masks; raises when f is not a face of the cell."""
    n = len(T.labels)
    faces, normal_mask = _deposit(at, n)
    m = normal_mask.get(_position_mask(T, elem.f.vertices))
    if m is None:
        raise ValueError(f"face f={elem.f.vertices} is not a face of the cell with labels {T.labels}")
    return _element_table(elem.e.dim, n - 1)[m, elem.sigma], faces


def _frames(T: GeometricSimplex, e: AbstractSimplex) -> tuple[np.ndarray, np.ndarray]:
    """The primal and dual frame matrices of anchor e, (d, d) each, on a d-cell in R^d."""
    if T.dim != T.ambient_dim:
        raise ValueError(f"t-n bases need a full-dimensional cell, got dim {T.dim} in ambient dim {T.ambient_dim}")
    fs = nef_frames(T, T.full_simplex(), e)
    return fs.frame_face, fs.frame_tn


def realize(elem: TnBasisElement, T: GeometricSimplex) -> AltForm:
    """The constant-coefficient form of a basis element, in ambient coordinates."""
    at = _anchor(T, elem.e)
    primal, dual = _frames(T, elem.e)
    frame = dual if elem.flavor == "dual" else primal
    (rows, *_), _ = _entry(T, elem, at)
    return wedge_all([flat(frame[i]) for i in rows], d=len(frame))


def pairing_matrix(T: GeometricSimplex, e: AbstractSimplex, k: int) -> np.ndarray:
    """Gram matrix of the primal elements against the dual elements.

    Both families are k-th compounds of their frame matrices, so by
    Cauchy-Binet the Gram matrix is the k-th compound of the d x d product
    of the primal frame with the dual one, in element order.  That product
    is block diagonal (the identity on e's tangents, the diagonal n-e-f
    pairing on its normals), so the matrix is diagonal with nonzero
    diagonal: the two families are scaled dual bases.
    """
    _, (_, _, flat_index) = _anchor_table(T, e, k)
    primal, dual = _frames(T, e)
    return compound(primal.dot(dual.T), k).reshape(-1).take(flat_index)


def hodge_coefficient(T: GeometricSimplex, elem: TnBasisElement) -> tuple[float, TnBasisElement]:
    """The constant c and primal partner with star(realize(elem)) = c realize(partner).

    For a dual element (e, f, sigma) of degree k on a cell with labels V the
    partner is the primal element (e, e + (V - f), complement(sigma)) of
    degree d - k: the complementary tangents wedged with the gradients of the
    labels outside f.  Over the dual elements of (e, k) the partners run
    once through ``decompose_altk(T, e, d - k)``.  Raises when the pairing or
    collinearity fails its tolerance in :mod:`tnforms.errors`.
    """
    at = _anchor(T, elem.e)
    if elem.flavor != "dual":
        raise ValueError("hodge coefficient is defined for dual-flavor elements")
    primal, dual = _frames(T, elem.e)
    (rows, partner_rows, partner_mask, tau), faces = _entry(T, elem, at)
    d, k = T.dim, len(rows)
    partner = TnBasisElement._of(elem.e, _masked_face(T, faces[partner_mask]), tau, "primal")
    # each form is the maximal minors of its rows; the partner wedges the complementary primal rows
    a = compound(dual.take(rows, axis=0), k)[0]
    b = compound(primal.take(partner_rows, axis=0), d - k)[0]
    dual_form = _form(d, k, a)

    denominator = volume_coefficient(wedge(dual_form, _form(d, d - k, b)))
    aa = float(a.dot(a))
    scale = math.sqrt(aa) * math.sqrt(b.dot(b))
    if abs(denominator) <= DEGENERACY_RTOL * scale:
        where = _context(elem, d, k)
        raise ValueError(f"degenerate Hodge pairing at {where}: {abs(denominator):.3e} <= {DEGENERACY_RTOL} * {scale:.3e}")
    c = aa / denominator

    starred = hodge_star(dual_form).coeffs
    r = starred - b * c
    residual = math.sqrt(r.dot(r)) / math.sqrt(starred.dot(starred))
    if residual > PAIRING_RTOL:
        where = _context(elem, d, k)
        raise ValueError(f"Hodge collinearity at {where}: relative residual {residual:.3e} > {PAIRING_RTOL}")
    return c, partner


def _context(elem: TnBasisElement, d: int, k: int) -> str:
    """The (e, f, sigma, d, k) of a failing Hodge check, built only when one raises."""
    return f"e={elem.e.vertices}, f={elem.f.vertices}, sigma={elem.sigma}, d={d}, k={k}"


def realize_all(
    T: GeometricSimplex, e: AbstractSimplex, k: int, flavor: str = "primal"
) -> np.ndarray:
    """Stacked coefficient matrix of the realized basis, one form per row.

    Row i is the k x k minor of the anchor's primal or dual frame matrix on
    element i's rows, so the whole basis is gathered from one compound of
    degree k.
    """
    _, (idx, _, _) = _anchor_table(T, e, k)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    primal, dual = _frames(T, e)
    return compound(dual if flavor == "dual" else primal, k)[list(idx)]
