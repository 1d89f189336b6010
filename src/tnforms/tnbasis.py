"""Tangential-normal bases of alternating forms anchored at a subsimplex.

Fixing an anchor e of dimension s, the space of constant k-forms splits
over the faces f containing e.  Each basis element wedges flats of e's
orthonormal tangent vectors with either full barycentric gradients (primal
flavor), the tangential-normal vectors dual to them (dual flavor), or an
ambient Hodge star of the complementary data (hodge flavor).  Elements are
ordered by face dimension, then face, then tangential sequence, which makes
downstream degree-of-freedom matrices block lower triangular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    AbstractSimplex,
    IncreasingSequence,
    binomial,
    complement,
    increasing_sequences,
    opposite,
    supersimplices,
)
from .errors import DEGENERACY_RTOL, PAIRING_RTOL
from .exterior import AltForm, flat, hodge_star, inner, volume_coefficient, wedge, wedge_all
from .simplex import GeometricSimplex, surface_gradient, tangent_basis

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

    def form_degree(self, ambient_dim: int) -> int:
        ell, s = self.f.dim, self.e.dim
        if self.flavor == "hodge":
            return ell - len(self.sigma)
        return len(self.sigma) + (ell - s)


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
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    out = []
    for ell in range(max(s, k), min(k + s, d) + 1):
        for f in supersimplices(e, ell, d):
            for sig in increasing_sequences(s + k - ell, s):
                stored = complement(sig) if flavor == "hodge" else sig
                out.append(TnBasisElement(e, f, stored, flavor))
    return out


def _tangent_flats(T: GeometricSimplex, e: AbstractSimplex, sigma: IncreasingSequence) -> list[AltForm]:
    basis = tangent_basis(T, e)
    return [flat(basis[i - 1]) for i in sigma]


def _face_difference(f: AbstractSimplex, e: AbstractSimplex) -> tuple[int, ...]:
    return tuple(i for i in f.vertices if i not in e.vertices)


def _hodge_factors(
    T: GeometricSimplex, e: AbstractSimplex, f: AbstractSimplex, sigma: IncreasingSequence
) -> list[AltForm]:
    """Flats of e's sigma tangents, then of the gradients of the face opposite f."""
    rest = opposite(f, T.dim).vertices if f.dim < T.dim else ()
    return _tangent_flats(T, e, sigma) + [flat(barycentric_gradient_of(T, j)) for j in rest]


def realize(elem: TnBasisElement, T: GeometricSimplex) -> AltForm:
    """The constant-coefficient form of a basis element, in ambient coordinates."""
    d = T.dim
    e, f = elem.e, elem.f
    if elem.flavor == "hodge":
        return hodge_star(wedge_all(_hodge_factors(T, e, f, elem.sigma), d=d))
    factors = _tangent_flats(T, e, elem.sigma)
    for j in _face_difference(f, e):
        if elem.flavor == "primal":
            vec = barycentric_gradient_of(T, j)
        else:
            g = AbstractSimplex(tuple(sorted(e.vertices + (j,))))
            vec = surface_gradient(T, g, j)
        factors.append(flat(vec))
    return wedge_all(factors, d=d)


def barycentric_gradient_of(T: GeometricSimplex, label: int) -> np.ndarray:
    return T._gradients[T.labels.index(label)].copy()


def pairing_matrix(T: GeometricSimplex, e: AbstractSimplex, k: int) -> np.ndarray:
    """Gram matrix of the primal elements against the dual elements.

    With both lists in the canonical order the matrix is diagonal with
    nonzero diagonal: the two families are scaled dual bases.
    """
    return realize_all(T, e, k, "primal") @ realize_all(T, e, k, "dual").T


def hodge_coefficient(T: GeometricSimplex, elem: TnBasisElement) -> tuple[float, TnBasisElement]:
    """Proportionality constant linking a dual element to its starred partner.

    The ambient Hodge star sends the dual-flavor form to a multiple of the
    complementary primal-style form built from sigma-complement tangents and
    the gradients of the opposite face.  Returns (c, partner), raising when the
    pairing or collinearity fails its tolerance in :mod:`tnforms.errors`.
    """
    if elem.flavor != "dual":
        raise ValueError("hodge coefficient is defined for dual-flavor elements")
    dual_form = realize(elem, T)
    sigma_c = complement(elem.sigma)
    partner = TnBasisElement(elem.e, elem.f, sigma_c, "hodge")
    partner_inner = wedge_all(_hodge_factors(T, elem.e, elem.f, sigma_c), d=T.dim)
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
    """Stacked coefficient matrix of the realized basis, one form per row."""
    elems = decompose_altk(T, e, k, flavor)
    return np.array([realize(el, T).coeffs for el in elems]).reshape(len(elems), binomial(T.dim, k))
