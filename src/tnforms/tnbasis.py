"""Tangential-normal bases of alternating forms anchored at a subsimplex.

Anchors and faces are named by the cell's own vertex labels, so two cells
that share a face name it, and the elements on it, alike.  The cell is
full-dimensional, a d-simplex in R^d.  For an anchor e of dimension s,
``nef_frames(T, T.full_simplex(), e)`` gives a d x d frame matrix: e's s
orthonormal tangents, then one normal per label outside e, ascending; the
normals are the barycentric gradients (primal flavor) or the t-n vectors
(dual flavor).  Each basis k-form wedges k rows, sigma's tangents and the
normals of f minus e, so a basis is the k-th compound of the frame matrix.
The star of a dual element is a multiple of a primal element of degree
d - k (``hodge_coefficient``), so normal traces, the tangential traces of
starred forms, need no basis of their own.  Elements are ordered by face
dimension, then face, then tangential sequence, which makes downstream
degree-of-freedom matrices block lower triangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import AbstractSimplex, complement, sequence_position, sequences, supersimplices
from .errors import DEGENERACY_RTOL, PAIRING_RTOL
from .exterior import AltForm, compound, flat, hodge_star, inner, volume_coefficient, wedge, wedge_all
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
            raise ValueError("anchor must be contained in the face")
        if self.sigma not in sequence_position(len(self.sigma), self.e.dim):
            raise ValueError(f"sigma={self.sigma} is not an increasing sequence in 1..{self.e.dim} (dim e)")


def decompose_altk(
    T: GeometricSimplex, e: AbstractSimplex, k: int, flavor: str = "primal"
) -> list[TnBasisElement]:
    """Basis elements of the k-form space anchored at e, grouped by face.

    Yields exactly C(d, k) elements: for each face dimension ell in the
    admissible window, each face f containing e contributes one element per
    increasing sequence of s + k - ell tangent indices.
    """
    return _elements(T.full_simplex(), e, k, flavor)


def _elements(cell: AbstractSimplex, e: AbstractSimplex, k: int, flavor: str) -> list[TnBasisElement]:
    """``decompose_altk`` on the cell named by its labels; the list depends on nothing else."""
    d = cell.dim
    s = e.dim
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}")
    if not e.issubset(cell):
        raise ValueError(f"anchor e={e.vertices} is not a face of the cell with labels {cell.vertices}")
    out = []
    for ell in range(max(s, k), min(k + s, d) + 1):
        for f in supersimplices(e, ell, cell):
            for sig in sequences(s + k - ell, s):
                out.append(TnBasisElement(e, f, sig, flavor))
    return out


def _frames(T: GeometricSimplex, e: AbstractSimplex) -> tuple[np.ndarray, np.ndarray]:
    """The primal and dual frame matrices of anchor e, (d, d) each, on a d-cell in R^d."""
    if T.dim != T.ambient_dim:
        raise ValueError(f"t-n bases need a full-dimensional cell, got dim {T.dim} in ambient dim {T.ambient_dim}")
    fs = nef_frames(T, T.full_simplex(), e)
    return np.vstack([fs.tangents, fs.normals_face]), np.vstack([fs.tangents, fs.normals_tn])


def _row_index(elem: TnBasisElement, labels: tuple[int, ...]) -> tuple[int, ...]:
    """The 1-based, increasing frame rows an element wedges: its sigma tangents, then the normals of f minus e."""
    normals = [j for j in labels if j not in elem.e]
    return elem.sigma + tuple(elem.e.dim + 1 + i for i, j in enumerate(normals) if j in elem.f)


@lru_cache(maxsize=None)
def _compound_positions(labels: tuple[int, ...], e: AbstractSimplex, k: int) -> tuple[int, ...]:
    """Position of each element's frame rows among the length-k sequences, in element order.

    A fixed fact of the cell's labels, the anchor and k, shared by both flavors.
    """
    pos = sequence_position(k, len(labels) - 1)
    return tuple(pos[_row_index(el, labels)] for el in _elements(AbstractSimplex(labels), e, k, "primal"))


def _wedge_rows(frames: tuple[np.ndarray, np.ndarray], elem: TnBasisElement, labels: tuple[int, ...]) -> AltForm:
    """The wedge of an element's rows of its anchor's frames."""
    primal, dual = frames
    frame = dual if elem.flavor == "dual" else primal
    return wedge_all([flat(frame[i - 1]) for i in _row_index(elem, labels)], d=len(frame))


def realize(elem: TnBasisElement, T: GeometricSimplex) -> AltForm:
    """The constant-coefficient form of a basis element, in ambient coordinates."""
    return _wedge_rows(_frames(T, elem.e), elem, T.labels)


def pairing_matrix(T: GeometricSimplex, e: AbstractSimplex, k: int) -> np.ndarray:
    """Gram matrix of the primal elements against the dual elements.

    Both families are k-th compounds of their frame matrices, so by
    Cauchy-Binet the Gram matrix is the k-th compound of the d x d product
    of the primal frame with the dual one, in element order.  That product
    is block diagonal (the identity on e's tangents, the diagonal n-e-f
    pairing on its normals), so the matrix is diagonal with nonzero
    diagonal: the two families are scaled dual bases.
    """
    idx = _compound_positions(T.labels, e, k)
    primal, dual = _frames(T, e)
    return compound(primal @ dual.T, k)[np.ix_(idx, idx)]


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
    frames = _frames(T, elem.e)
    dual_form = _wedge_rows(frames, elem, T.labels)
    face = AbstractSimplex(tuple(j for j in T.labels if j in elem.e or j not in elem.f))
    partner = TnBasisElement(elem.e, face, complement(elem.sigma, elem.e.dim))
    partner_inner = _wedge_rows(frames, partner, T.labels)
    at = f"e={elem.e.vertices}, f={elem.f.vertices}, sigma={elem.sigma}, d={T.dim}, k={dual_form.k}"

    denominator = volume_coefficient(wedge(dual_form, partner_inner))
    scale = dual_form.norm() * partner_inner.norm()
    if abs(denominator) <= DEGENERACY_RTOL * scale:
        raise ValueError(f"degenerate Hodge pairing at {at}: {abs(denominator):.3e} <= {DEGENERACY_RTOL} * {scale:.3e}")
    c = inner(dual_form, dual_form) / denominator

    starred = hodge_star(dual_form)
    residual = (starred - c * partner_inner).norm() / starred.norm()
    if residual > PAIRING_RTOL:
        raise ValueError(f"Hodge collinearity at {at}: relative residual {residual:.3e} > {PAIRING_RTOL}")
    return c, partner


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
    idx = _compound_positions(T.labels, e, k)
    primal, dual = _frames(T, e)
    return compound(dual if flavor == "dual" else primal, k)[list(idx)]
