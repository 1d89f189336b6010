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
triangular.  The elements ``decompose_altk`` and ``hodge_coefficient``
return are named from ``_basis_table`` and the cell's labels, valid by
construction, so they are built without re-validation
(``TnBasisElement._of``, ``AbstractSimplex._of``): the degree, the anchor
and the flavor are checked once per call, in that order.  Only elements
made from outside data are checked element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import AbstractSimplex, complement, sequence_position, sequences
from .errors import DEGENERACY_RTOL, PAIRING_RTOL
from .exterior import AltForm, _form, compound, flat, hodge_star, volume_coefficient, wedge, wedge_all
from .simplex import GeometricSimplex, nef_frames

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
    _, elements, _ = _anchor_table(T.labels, e, k)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    outside = tuple(j for j in T.labels if j not in e)
    return [
        TnBasisElement._of(e, AbstractSimplex._of(tuple(sorted(e.vertices + tuple(outside[i] for i in normals)))), sigma, flavor)
        for sigma, normals in elements
    ]


@lru_cache(maxsize=None)
def _basis_table(s: int, d: int, k: int):
    """The elements of degree k at an s-dimensional anchor of a d-cell, as frame rows; labels play no part.

    An element wedges k of the d rows: tangents 1..s, then normal rows s + 1 + i,
    i the 0-based offset among the labels outside the anchor.  Sorted by normal
    count, normal rows and rows, the row sets give their positions in
    ``sequences(k, d)`` and, per element, (sigma, normal offsets).  The third
    entry holds the flat positions, in a C(d, k) x C(d, k) matrix, of the
    elements' rows and columns (read-only): the gather ``pairing_matrix`` takes.
    """
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    keyed = sorted((sum(i > s for i in r), tuple(i - s - 1 for i in r if i > s), r) for r in sequences(k, d))
    pos = sequence_position(k, d)
    idx = tuple(pos[r] for _, _, r in keyed)
    at = np.array(idx, dtype=np.intp)
    flat_index = at[:, None] * len(idx) + at[None, :]
    flat_index.flags.writeable = False
    return idx, tuple((r[: k - m], normals) for m, normals, r in keyed), flat_index


def _anchor_table(labels: tuple[int, ...], e: AbstractSimplex, k: int):
    """``_basis_table`` of anchor e, which must be a face of the cell with these labels."""
    table = _basis_table(e.dim, len(labels) - 1, k)
    if not set(labels).issuperset(e.vertices):
        raise ValueError(f"anchor e={e.vertices} is not a face of the cell with labels {labels}")
    return table


def _frames(T: GeometricSimplex, e: AbstractSimplex) -> tuple[np.ndarray, np.ndarray]:
    """The primal and dual frame matrices of anchor e, (d, d) each, on a d-cell in R^d."""
    if T.dim != T.ambient_dim:
        raise ValueError(f"t-n bases need a full-dimensional cell, got dim {T.dim} in ambient dim {T.ambient_dim}")
    fs = nef_frames(T, T.full_simplex(), e)
    return fs.frame_face, fs.frame_tn


def _row_index(elem: TnBasisElement, labels: tuple[int, ...]) -> tuple[int, ...]:
    """The 1-based, increasing frame rows an element wedges: its sigma tangents, then the normals of f minus e."""
    normals = [j for j in labels if j not in elem.e]
    rows = elem.sigma + tuple(elem.e.dim + 1 + i for i, j in enumerate(normals) if j in elem.f)
    if len(rows) != len(elem.sigma) + elem.f.dim - elem.e.dim:
        raise ValueError(f"face f={elem.f.vertices} is not a face of the cell with labels {labels}")
    return rows


def realize(elem: TnBasisElement, T: GeometricSimplex) -> AltForm:
    """The constant-coefficient form of a basis element, in ambient coordinates."""
    primal, dual = _frames(T, elem.e)
    frame = dual if elem.flavor == "dual" else primal
    return wedge_all([flat(frame[i - 1]) for i in _row_index(elem, T.labels)], d=len(frame))


def pairing_matrix(T: GeometricSimplex, e: AbstractSimplex, k: int) -> np.ndarray:
    """Gram matrix of the primal elements against the dual elements.

    Both families are k-th compounds of their frame matrices, so by
    Cauchy-Binet the Gram matrix is the k-th compound of the d x d product
    of the primal frame with the dual one, in element order.  That product
    is block diagonal (the identity on e's tangents, the diagonal n-e-f
    pairing on its normals), so the matrix is diagonal with nonzero
    diagonal: the two families are scaled dual bases.
    """
    _, _, flat_index = _anchor_table(T.labels, e, k)
    primal, dual = _frames(T, e)
    return compound(primal @ dual.T, k).reshape(-1).take(flat_index)


def hodge_coefficient(T: GeometricSimplex, elem: TnBasisElement) -> tuple[float, TnBasisElement]:
    """The constant c and primal partner with star(realize(elem)) = c realize(partner).

    For a dual element (e, f, sigma) of degree k on a cell with labels V the
    partner is the primal element (e, e + (V - f), complement(sigma)) of
    degree d - k: the complementary tangents wedged with the gradients of the
    labels outside f.  Over the dual elements of (e, k) the partners run
    once through ``decompose_altk(T, e, d - k)``.  Raises when the pairing or
    collinearity fails its tolerance in :mod:`tnforms.errors`.
    """
    if elem.flavor != "dual":
        raise ValueError("hodge coefficient is defined for dual-flavor elements")
    primal, dual = _frames(T, elem.e)
    d, rows = T.dim, _row_index(elem, T.labels)
    k = len(rows)
    face = AbstractSimplex._of(tuple(j for j in T.labels if j in elem.e or j not in elem.f))
    partner = TnBasisElement._of(elem.e, face, complement(elem.sigma, elem.e.dim), "primal")
    # each form is the maximal minors of its rows; the partner wedges the complementary primal rows
    a = compound(dual[[i - 1 for i in rows]], k)[0]
    b = compound(primal[[i - 1 for i in complement(rows, d)]], d - k)[0]
    dual_form = _form(d, k, a)

    denominator = volume_coefficient(wedge(dual_form, _form(d, d - k, b)))
    aa = float(a @ a)
    scale = math.sqrt(aa) * math.sqrt(b @ b)
    if abs(denominator) <= DEGENERACY_RTOL * scale:
        at = _context(elem, d, k)
        raise ValueError(f"degenerate Hodge pairing at {at}: {abs(denominator):.3e} <= {DEGENERACY_RTOL} * {scale:.3e}")
    c = aa / denominator

    starred = hodge_star(dual_form).coeffs
    r = starred - b * c
    residual = math.sqrt(r @ r) / math.sqrt(starred @ starred)
    if residual > PAIRING_RTOL:
        at = _context(elem, d, k)
        raise ValueError(f"Hodge collinearity at {at}: relative residual {residual:.3e} > {PAIRING_RTOL}")
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
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    idx, _, _ = _anchor_table(T.labels, e, k)
    primal, dual = _frames(T, e)
    return compound(dual if flavor == "dual" else primal, k)[list(idx)]
