"""Tangential-normal bases of alternating forms anchored at a subsimplex.

Anchors and faces are named by the cell's own vertex labels, so two cells
that share a face name it, and the elements on it, alike.  The cell is
full-dimensional, a d-simplex in R^d.  An anchor e of dimension s has
two d x d frame matrices, those ``nef_frames(T, T.full_simplex(), e)``
gives: e's s orthonormal tangents, then one normal per label outside e,
ascending; the normals are the barycentric gradients (primal flavor) or
the t-n vectors (dual flavor).  The cell keeps them in one record per
anchor (``simplex._tn_frames``), filled on the anchor's first read: per
flavor, in ``FLAVORS`` order, the stored rows of its n-e-f table, and the
same rows scaled by exact powers of two with their exponents, which
``hodge_coefficient`` takes its minors of.  The fill is where the cell is
checked to be full-dimensional.  The four entry points that read frames
read the record once per call, so nothing is stacked or rescaled per
call.  A basis k-form wedges k of the d rows, sigma's tangents and the
normals of f minus e, so a basis is the k-th compound of the frame
matrix, and which rows each element takes depends on s, d and k alone.
The star of a dual element is a multiple of the primal element of degree
d - k that wedges the complementary rows (``hodge_coefficient``, on the
two coefficient arrays), so normal traces, the tangential traces of
starred forms, need no basis of their own.
Elements are ordered by face dimension, then face, then tangential
sequence, which makes downstream degree-of-freedom matrices block lower
triangular.
Faces are named by the cell's position masks (``simplex._mask``, whose one
ValueError names an anchor or face the cell lacks), which this module holds
as opaque keys: an anchor is a mask, and an element at it is
(normal-offset mask, sigma), bit i of the former for the i-th label
outside the anchor.  ``combinatorics._deposit(anchor mask, n)`` turns
normal-offset masks into face masks and back, and the cell's abstract
simplex names each face mask once (``simplex._masked_face``).  All five
entry points read one label-free table per (s, d), ``_element_table``: per
degree, the elements and their compound positions, one array from which
``realize_all`` and ``pairing_matrix`` gather; per element, its frame rows,
its complementary rows and its Hodge partner.  No call scans labels.
The elements ``decompose_altk`` and ``hodge_coefficient`` return are valid
by construction and built without re-validation (``TnBasisElement._of``):
each entry point checks, of the degree, the anchor (``_anchor``, one
message for all five), the flavor and the face, those it takes, once per
call and in that order.  The anchor's record is read between flavor and
face; only its fill checks, full dimension then pairing, and a fill that
fails stores nothing, so it raises again on the next call.  Only elements
made from outside data are checked element by element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import AbstractSimplex, _deposit, complement, sequence_position, sequences
from .errors import DEGENERACY_RTOL, PAIRING_RTOL
from .exterior import AltForm, _form, compound, flat, hodge_star, volume_coefficient, wedge, wedge_all
from .simplex import GeometricSimplex, _mask, _masked_face, _tn_frames

FLAVORS = ("primal", "dual")


@dataclass(frozen=True)
class TnBasisElement:
    """One tangential-normal basis form, named by (anchor, face, sequence, flavor).

    ``sigma`` is an increasing tuple in 1..dim e picking tangent vectors of the anchor.
    Its entries go through ``operator.index``, as simplex labels do: any
    sequence of ints gives the same element, and a float entry is a TypeError.
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
        object.__setattr__(self, "sigma", tuple(map(operator.index, self.sigma)))
        if self.sigma not in sequence_position(len(self.sigma), self.e.dim):
            raise ValueError(f"sigma={self.sigma} is not an increasing sequence in 1..{self.e.dim} (dim e)")

    @classmethod
    def _of(cls, e: AbstractSimplex, f: AbstractSimplex, sigma: tuple[int, ...], flavor: str) -> "TnBasisElement":
        """An element named from ``_element_table``, valid by construction; not re-checked."""
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
    at, (_, elements) = _anchor_table(T, e, k)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    faces = _deposit(at, len(T.labels))[0]
    return [TnBasisElement._of(e, _masked_face(T, faces[m]), sigma, flavor) for sigma, m in elements]


@lru_cache(maxsize=None)
def _element_table(s: int, d: int):
    """Every element at an s-dimensional anchor of a d-cell, of every degree, as frame rows; labels play no part.

    An element of degree k wedges k of the d rows: tangents 1..s, then normal
    rows s + 1 + i, i the 0-based offset among the labels outside the anchor.
    Per degree k, sorted by normal count, normal rows and rows, the row sets
    give (positions, elements): their positions in ``sequences(k, d)`` as one
    read-only ``np.intp`` array, the element order ``realize_all`` and
    ``pairing_matrix`` gather compound rows and columns in, and the elements
    as (sigma, normal-offset mask), bit i of the mask set for offset i.  Per
    (mask, sigma), 2^d in all, an entry holds the element's 0-based frame
    rows, the complementary rows, and the mask and sigma of its Hodge
    partner, which wedges those complementary rows.  The row arrays are
    read-only and shared: an element's complementary rows are its partner's
    rows.
    """
    full, degrees, rows = (1 << (d - s)) - 1, [], {}
    for k in range(d + 1):
        order = sorted(sequences(k, d), key=lambda r: (sum(i > s for i in r), [i for i in r if i > s], r))
        positions = np.array([sequence_position(k, d)[r] for r in order], dtype=np.intp)
        positions.flags.writeable = False
        elements = tuple((tuple(i for i in r if i <= s), sum(1 << i - s - 1 for i in r if i > s)) for r in order)
        degrees.append((positions, elements))
        for (sigma, m), r in zip(elements, order):
            rows[m, sigma] = np.array(r, dtype=np.intp) - 1
            rows[m, sigma].flags.writeable = False
    taus = {sigma: complement(sigma, s) for j in range(s + 1) for sigma in sequences(j, s)}
    return tuple(degrees), {(m, sig): (r, rows[full ^ m, taus[sig]], full ^ m, taus[sig]) for (m, sig), r in rows.items()}


def _anchor(T: GeometricSimplex, e: AbstractSimplex) -> int:
    """The position mask of anchor e in the cell: the one anchor check of every t-n entry point."""
    return _mask(T, e.vertices, "anchor e=")


def _anchor_table(T: GeometricSimplex, e: AbstractSimplex, k: int):
    """Anchor e's position mask and its degree-k elements; the degree is checked, then the anchor, then the table is built."""
    d = len(T.labels) - 1
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return _anchor(T, e), _element_table(e.dim, d)[0][k]


def _entry(T: GeometricSimplex, elem: TnBasisElement, at: int):
    """The element's ``_element_table`` entry and its anchor's face masks; raises when f is not a face of the cell."""
    n = len(T.labels)
    faces, normal_mask = _deposit(at, n)
    m = normal_mask[_mask(T, elem.f.vertices, "face f=")]  # a face of the cell holding e is a face through e
    return _element_table(elem.e.dim, n - 1)[1][m, elem.sigma], faces


def realize(elem: TnBasisElement, T: GeometricSimplex) -> AltForm:
    """The constant-coefficient form of a basis element, in ambient coordinates.

    It is the wedge of the element's frame rows; on a cell near the ends of
    the float range it raises ``realize_all``'s ValueError where a
    coefficient overflows.
    """
    at = _anchor(T, elem.e)
    frame = _tn_frames(T, at).frames[FLAVORS.index(elem.flavor)]
    (rows, *_), _ = _entry(T, elem, at)
    d, k = len(frame), len(rows)
    coeffs = _minors(lambda: wedge_all([flat(frame[i]) for i in rows], d=d).coeffs, elem.e, k, elem.flavor, d)
    return _form(d, k, coeffs)


def _minors(build, e: AbstractSimplex, k: int, flavor: str, d: int) -> np.ndarray:
    """The minors ``build()`` returns, taken with overflow ignored; a non-finite one is a ValueError naming (e, k, flavor, d)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing minor is the error below, not a warning
        out = build()
    if not math.isfinite(np.abs(out).max(initial=0.0)):  # a NaN minor makes the maximum NaN
        where = f"e={e.vertices}, k={k}, flavor={flavor}, d={d}"
        raise ValueError(f"realized basis at {where} is not representable: a minor of the frame overflows")
    return out


def pairing_matrix(T: GeometricSimplex, e: AbstractSimplex, k: int) -> np.ndarray:
    """Gram matrix of the primal elements against the dual elements.

    Both families are k-th compounds of their frame matrices, so by
    Cauchy-Binet the Gram matrix is the k-th compound of the d x d product
    of the primal frame with the dual one, in element order.  That product
    is block diagonal (the identity on e's tangents, the diagonal n-e-f
    pairing on its normals), so the matrix is diagonal with nonzero
    diagonal: the two families are scaled dual bases.
    """
    at, (positions, _) = _anchor_table(T, e, k)
    primal, dual = _tn_frames(T, at).frames
    return compound(primal.dot(dual.T), k).take(positions, axis=0).take(positions, axis=1)


def hodge_coefficient(T: GeometricSimplex, elem: TnBasisElement) -> tuple[float, TnBasisElement]:
    """The constant c and primal partner with star(realize(elem)) = c realize(partner).

    For a dual element (e, f, sigma) of degree k on a cell with labels V the
    partner is the primal element (e, e + (V - f), complement(sigma)) of
    degree d - k: the complementary tangents wedged with the gradients of the
    labels outside f.  Over the dual elements of (e, k) the partners run
    once through ``decompose_altk(T, e, d - k)``.  Raises when the pairing or
    collinearity fails its tolerance in :mod:`tnforms.errors`, or when c, on a
    cell near the ends of the float range, is not a representable float.
    """
    at = _anchor(T, elem.e)
    if elem.flavor != "dual":
        where = _context(elem, T.dim, len(elem.sigma) + elem.f.dim - elem.e.dim)
        raise ValueError(f"hodge coefficient is defined for dual-flavor elements, got {elem.flavor} at {where}")
    _, scaled, exps = _tn_frames(T, at)
    (rows, partner_rows, partner_mask, tau), faces = _entry(T, elem, at)
    d, k = T.dim, len(rows)
    partner = TnBasisElement._of(elem.e, _masked_face(T, faces[partner_mask]), tau, "primal")
    # each form is the maximal minors of its rows; the partner wedges the complementary primal rows.
    # The minors are taken of the record's scaled rows, each row's largest entry in [1/2, 1): they are
    # then no larger than k!, no product below over- or underflows on a representable cell, the two
    # checks decide as unscaled, and a and b are the true forms times 2^-ea and 2^-eb, the sums of the
    # rows' stored exponents.  Scaling the cell by a power of two scales every frame row by one power
    # of two, so a and b, and c's mantissa, are bit for bit those of the unscaled cell.  Flavor 1 is
    # dual, flavor 0 primal.
    a = compound(scaled[1].take(rows, axis=0), k)[0]
    b = compound(scaled[0].take(partner_rows, axis=0), d - k)[0]
    ea = sum(map(exps[1].__getitem__, rows))
    eb = sum(map(exps[0].__getitem__, partner_rows))
    dual_form = _form(d, k, a)

    denominator = volume_coefficient(wedge(dual_form, _form(d, d - k, b)))
    aa = float(a.dot(a))
    scale = math.sqrt(aa) * math.sqrt(b.dot(b))
    if abs(denominator) <= DEGENERACY_RTOL * scale:
        where = _context(elem, d, k)
        scaled = f"{abs(denominator):.3e} <= {DEGENERACY_RTOL} * {scale:.3e}, both times 2^{ea + eb}"
        raise ValueError(f"degenerate Hodge pairing at {where}: {scaled}")
    c = aa / denominator

    starred = hodge_star(dual_form).coeffs
    r = starred - b * c
    residual = math.sqrt(r.dot(r)) / math.sqrt(starred.dot(starred))
    if residual > PAIRING_RTOL:
        where = _context(elem, d, k)
        raise ValueError(f"Hodge collinearity at {where}: relative residual {residual:.3e} > {PAIRING_RTOL}")
    # the true c is (2^ea a . 2^ea a) / (2^ea a ^ 2^eb b): one exponent sum brings it back, subnormals included
    try:
        scaled_back = math.ldexp(c, ea - eb)
    except OverflowError:
        scaled_back = math.inf
    if scaled_back == 0.0 or math.isinf(scaled_back):
        where = _context(elem, d, k)
        raise ValueError(f"Hodge coefficient at {where} is not representable: {c!r} * 2^{ea - eb}")
    return scaled_back, partner


def _context(elem: TnBasisElement, d: int, k: int) -> str:
    """The (e, f, sigma, d, k) of a failing Hodge check, built only when one raises."""
    return f"e={elem.e.vertices}, f={elem.f.vertices}, sigma={elem.sigma}, d={d}, k={k}"


def realize_all(
    T: GeometricSimplex, e: AbstractSimplex, k: int, flavor: str = "primal"
) -> np.ndarray:
    """Stacked coefficient matrix of the realized basis, one form per row.

    Row i is the k x k minor of the anchor's primal or dual frame matrix on
    element i's rows, so the whole basis is gathered from one compound of
    degree k.  On a cell near the ends of the float range a minor can
    overflow; the compound is taken with overflow ignored and a non-finite
    entry raises a ValueError naming (e, k, flavor, d).
    """
    at, (positions, _) = _anchor_table(T, e, k)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    frame = _tn_frames(T, at).frames[FLAVORS.index(flavor)]
    return _minors(lambda: compound(frame, k), e, k, flavor, T.dim).take(positions, axis=0)
