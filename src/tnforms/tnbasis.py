"""Tangential-normal bases of alternating forms anchored at a subsimplex.

Anchors and faces are named by the cell's own vertex labels, so two cells
that share a face name it, and the elements on it, alike.  The cell is
full-dimensional, a d-simplex in R^d.  For an anchor e of dimension s,
``nef_frames(T, T.full_simplex(), e)`` gives a d x d frame matrix: e's s
orthonormal tangents, then one normal per label outside e, ascending; the
normals are the barycentric gradients (primal and hodge flavors) or the
t-n vectors (dual flavor).  Each basis k-form wedges k rows, so a basis is
the k-th compound of the frame matrix: sigma's tangents and the normals of
f minus e, or, for a hodge element, the star of sigma's tangents wedged
with the normals outside f.  Elements are ordered by face dimension, then
face, then tangential sequence, which makes downstream degree-of-freedom
matrices block lower triangular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    AbstractSimplex,
    IncreasingSequence,
    complement,
    increasing_sequences,
    supersimplices,
)
from .errors import DEGENERACY_RTOL, PAIRING_RTOL
from .exterior import AltForm, _hodge_table, compound, flat, hodge_star, inner, sequence_position, volume_coefficient, wedge, wedge_all
from .simplex import GeometricSimplex, nef_frames

FLAVORS = ("primal", "dual", "hodge")


@dataclass(frozen=True)
class TnBasisElement:
    """One tangential-normal basis form, named by (anchor, face, sequence, flavor).

    For the primal and dual flavors ``sigma`` picks tangent vectors of the
    anchor; for the hodge flavor it stores the complementary sequence, making
    the pairing between degrees k and d-k explicit.
    """

    e: AbstractSimplex
    f: AbstractSimplex
    sigma: IncreasingSequence
    flavor: str = "primal"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not self.e.issubset(self.f):
            raise ValueError("anchor must be contained in the face")
        if self.sigma.n != self.e.dim:
            raise ValueError("sequence range must equal the anchor dimension")


def decompose_altk(
    T: GeometricSimplex, e: AbstractSimplex, k: int, flavor: str = "primal"
) -> list[TnBasisElement]:
    """Basis elements of the k-form space anchored at e, grouped by face.

    Yields exactly C(d, k) elements: for each face dimension ell in the
    admissible window, each face f containing e contributes one element per
    increasing sequence of s + k - ell tangent indices.
    """
    d = T.dim
    s = e.dim
    cell = T.full_simplex()
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if not e.issubset(cell):
        raise ValueError(f"anchor e={e.vertices} is not a face of the cell with labels {T.labels}")
    out = []
    for ell in range(max(s, k), min(k + s, d) + 1):
        for f in supersimplices(e, ell, cell):
            for sig in increasing_sequences(s + k - ell, s):
                stored = complement(sig) if flavor == "hodge" else sig
                out.append(TnBasisElement(e, f, stored, flavor))
    return out


def _frames(T: GeometricSimplex, e: AbstractSimplex) -> tuple[np.ndarray, np.ndarray]:
    """The primal and dual frame matrices of anchor e, (d, d) each, on a d-cell in R^d."""
    if T.dim != T.ambient_dim:
        raise ValueError(f"t-n bases need a full-dimensional cell, got dim {T.dim} in ambient dim {T.ambient_dim}")
    fs = nef_frames(T, T.full_simplex(), e)
    return np.vstack([fs.tangents, fs.normals_face]), np.vstack([fs.tangents, fs.normals_tn])


def _row_index(elem: TnBasisElement, labels: tuple[int, ...]) -> tuple[int, ...]:
    """The 1-based, increasing frame rows an element wedges, given the cell's labels.

    Its sigma tangents, then the normals of f minus e, or, for the hodge
    flavor, of the vertices outside f.
    """
    normals = [j for j in labels if j not in elem.e]
    picked = [j for j in normals if (j in elem.f) != (elem.flavor == "hodge")]
    return elem.sigma.entries + tuple(elem.e.dim + 1 + normals.index(j) for j in picked)


def _wedge_rows(frames: tuple[np.ndarray, np.ndarray], elem: TnBasisElement, labels: tuple[int, ...]) -> AltForm:
    """The wedge of an element's rows of its anchor's frames; a hodge element's form before the star."""
    primal, dual = frames
    frame = dual if elem.flavor == "dual" else primal
    return wedge_all([flat(frame[i - 1]) for i in _row_index(elem, labels)], d=len(frame))


def realize(elem: TnBasisElement, T: GeometricSimplex) -> AltForm:
    """The constant-coefficient form of a basis element, in ambient coordinates."""
    form = _wedge_rows(_frames(T, elem.e), elem, T.labels)
    return hodge_star(form) if elem.flavor == "hodge" else form


def pairing_matrix(T: GeometricSimplex, e: AbstractSimplex, k: int) -> np.ndarray:
    """Gram matrix of the primal elements against the dual elements.

    Both families are k-th compounds of their frame matrices, so by
    Cauchy-Binet the Gram matrix is the k-th compound of the d x d product
    of the primal frame with the dual one, in element order.  That product
    is block diagonal (the identity on e's tangents, the diagonal n-e-f
    pairing on its normals), so the matrix is diagonal with nonzero
    diagonal: the two families are scaled dual bases.
    """
    pos = sequence_position(k, T.dim)
    idx = [pos[_row_index(el, T.labels)] for el in decompose_altk(T, e, k)]
    primal, dual = _frames(T, e)
    return compound(primal @ dual.T, k)[np.ix_(idx, idx)]


def hodge_coefficient(T: GeometricSimplex, elem: TnBasisElement) -> tuple[float, TnBasisElement]:
    """Proportionality constant linking a dual element to its starred partner.

    The ambient Hodge star sends the dual-flavor form to a multiple of the
    complementary primal-style form built from sigma-complement tangents and
    the gradients of the vertices outside f.  Returns (c, partner), raising when the
    pairing or collinearity fails its tolerance in :mod:`tnforms.errors`.
    """
    if elem.flavor != "dual":
        raise ValueError("hodge coefficient is defined for dual-flavor elements")
    frames = _frames(T, elem.e)
    dual_form = _wedge_rows(frames, elem, T.labels)
    partner = TnBasisElement(elem.e, elem.f, complement(elem.sigma), "hodge")
    partner_inner = _wedge_rows(frames, partner, T.labels)
    at = f"e={elem.e.vertices}, f={elem.f.vertices}, sigma={elem.sigma.entries}, d={T.dim}, k={dual_form.k}"

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

    Row i is the minor of the anchor's frame matrix on element i's rows, so
    the whole basis is gathered from one compound; hodge rows are minors of
    degree d - k, then starred.
    """
    m = T.dim - k if flavor == "hodge" else k
    pos = sequence_position(m, T.dim)
    idx = [pos[_row_index(el, T.labels)] for el in decompose_altk(T, e, k, flavor)]
    primal, dual = _frames(T, e)
    rows = compound(dual if flavor == "dual" else primal, m)[idx]
    if flavor != "hodge":
        return rows
    dst, sign = _hodge_table(m, T.dim)
    starred = np.empty_like(rows)
    starred[:, dst] = sign * rows
    return starred
