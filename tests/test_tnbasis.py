import math
import re
import warnings
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tnforms.combinatorics import (
    AbstractSimplex,
    binomial,
    complement,
    sequence_position,
    sequences,
    simplex,
    subsimplices,
    _deposit,
)
from tnforms.errors import DEGENERACY_RTOL, PAIRING_RTOL
from tnforms.exterior import (
    AltForm,
    compound,
    flat,
    hodge_star,
    restrict_to_frame,
    volume_coefficient,
    wedge,
    wedge_all,
)
from tnforms.exterior import _form, _star
from tnforms.simplex import (
    GeometricSimplex,
    all_subsimplices,
    barycentric_gradients,
    _mask,
    _masked_face,
    induced_facet_frame,
    nef_frames,
    random_simplex,
    reference_simplex,
    surface_gradient,
    tangent_basis,
    _tn_frames,
)
from tnforms.tnbasis import (
    FLAVORS,
    TnBasisElement,
    decompose_altk,
    hodge_coefficient,
    pairing_matrix,
    realize,
    realize_all,
)
import tnforms.simplex as simplex_module
import tnforms.tnbasis as tnbasis
from tnforms.tnbasis import _anchor, _element_table, _entry

RNG = np.random.default_rng(2024)


# Reference realization: the per-element factor loop the frame matrix
# replaced, wedging by chained pairwise products.


def _ref_realize(elem, T):
    d, e, f = T.dim, elem.e, elem.f
    grads = dict(zip(T.labels, barycentric_gradients(T)))
    one = AltForm(d, 0, np.ones(1))
    factors = [flat(tangent_basis(T, e)[i - 1]) for i in elem.sigma]
    for j in f.vertices:
        if j not in e:
            vec = grads[j] if elem.flavor == "primal" else surface_gradient(T, simplex(*e.vertices, j), j)
            factors.append(flat(vec))
    return reduce(wedge, factors, one)


def _ref_realize_all(T, e, k, flavor):
    return np.array([_ref_realize(el, T).coeffs for el in decompose_altk(T, e, k, flavor)])


# Reference enumeration: the face loop the label-free basis table replaced,
# the faces through e named by the cell's labels, then one element per sigma,
# and the compound position of each element's frame rows.


def _ref_supersimplices(e, ell, cell):
    others = [i for i in cell.vertices if i not in e.vertices]
    return sorted(AbstractSimplex(tuple(sorted(e.vertices + extra))) for extra in combinations(others, ell - e.dim))


def _ref_elements(cell, e, k, flavor="primal"):
    d, s = cell.dim, e.dim
    return [
        TnBasisElement(e, f, sig, flavor)
        for ell in range(max(s, k), min(k + s, d) + 1)
        for f in _ref_supersimplices(e, ell, cell)
        for sig in sequences(s + k - ell, s)
    ]


def _degree(s, d, k):
    """The degree-k part of ``_element_table(s, d)``: compound positions in element order, and (sigma, normal-offset mask)."""
    return _element_table(s, d)[0][k]


def _offsets(mask):
    """The normal offsets a normal-offset mask's bits name, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _ref_decompose_altk(T, e, k, flavor="primal"):
    """The former label merge: each face's labels sorted from e's and those its normal offsets name, validated."""
    elements = _degree(e.dim, T.dim, k)[1]
    assert set(T.labels).issuperset(e.vertices)
    outside = tuple(j for j in T.labels if j not in e)
    return [
        TnBasisElement(e, AbstractSimplex(tuple(sorted(e.vertices + tuple(outside[i] for i in _offsets(m))))), sigma, flavor)
        for sigma, m in elements
    ]


def _ref_row_index(elem, labels):
    """The 1-based, increasing frame rows an element wedges: its sigma tangents, then the normals of f minus e."""
    normals = [j for j in labels if j not in elem.e]
    rows = elem.sigma + tuple(elem.e.dim + 1 + i for i, j in enumerate(normals) if j in elem.f)
    assert len(rows) == len(elem.sigma) + elem.f.dim - elem.e.dim
    return rows


def _ref_compound_positions(labels, e, k):
    normals = [j for j in labels if j not in e]
    pos = sequence_position(k, len(labels) - 1)
    return tuple(
        pos[el.sigma + tuple(e.dim + 1 + i for i, j in enumerate(normals) if j in el.f)]
        for el in _ref_elements(AbstractSimplex(labels), e, k)
    )


def _table_rows(s, d, k):
    """The frame rows of each degree-k element of ``_element_table(s, d)``: sigma, then the normal rows."""
    return [sigma + tuple(s + 1 + i for i in _offsets(m)) for sigma, m in _degree(s, d, k)[1]]


# Reference hodge rows: the former hodge flavor, whose element (e, f, sigma)
# of degree k was the star of the complementary tangents tau wedged with the
# gradients outside f, as a factor loop and as the compound branch realize_all
# had.  The primal partners of hodge_coefficient are pinned against them.


def _ref_hodge_realize(T, e, f, tau):
    grads = dict(zip(T.labels, barycentric_gradients(T)))
    factors = [flat(tangent_basis(T, e)[i - 1]) for i in tau] + [flat(grads[j]) for j in T.labels if j not in f]
    return hodge_star(reduce(wedge, factors, AltForm(T.dim, 0, np.ones(1))))


def _ref_hodge_rows(T, e, k):
    d, s = T.dim, e.dim
    normals = [j for j in T.labels if j not in e]
    pos = sequence_position(d - k, d)
    idx = [
        pos[complement(el.sigma, s) + tuple(s + 1 + normals.index(j) for j in normals if j not in el.f)]
        for el in decompose_altk(T, e, k)
    ]
    return _star(compound(_tn_frames(T, _anchor(T, e)).frames[0], d - k)[idx], d - k, d)


def _flattened(v, flatness):
    """v with its last vertex moved to height flatness * diameter above the opposite facet."""
    v = v.copy()
    q = np.linalg.qr((v[1:-1] - v[0]).T, mode="complete")[0]
    normal = q[:, -1]
    height = float(np.dot(v[-1] - v[0], normal))
    diameter = max(np.linalg.norm(a - b) for a in v for b in v)
    v[-1] += (math.copysign(flatness * diameter, height) - height) * normal
    return v


def inner(a, b):
    """The inner product of two forms of one space, in which the dx_sigma are orthonormal."""
    assert (a.d, a.k) == (b.d, b.k)
    return float(np.dot(a.coeffs, b.coeffs))


# Reference Hodge coefficient and pairing: the chains the coefficient-array
# code replaced, flat rows wedged by wedge_all with the arithmetic on AltForms,
# and the np.ix_ gather of the compound, on the frames nef_frames returns.


def _ref_frames(T, e):
    """The anchor's primal and dual frame matrices as ``nef_frames`` returns them for f = the cell."""
    fs = nef_frames(T, T.full_simplex(), e)
    return fs.frame_face, fs.frame_tn


def _ref_wedge_rows(frame, elem, labels):
    return wedge_all([flat(frame[i - 1]) for i in _ref_row_index(elem, labels)], d=len(frame))


def _ref_altform_hodge_coefficient(T, elem):
    primal, dual = _ref_frames(T, elem.e)
    dual_form = _ref_wedge_rows(dual, elem, T.labels)
    face = AbstractSimplex(tuple(j for j in T.labels if j in elem.e or j not in elem.f))
    partner = TnBasisElement(elem.e, face, complement(elem.sigma, elem.e.dim))
    partner_inner = _ref_wedge_rows(primal, partner, T.labels)
    denominator = volume_coefficient(wedge(dual_form, partner_inner))
    assert abs(denominator) > DEGENERACY_RTOL * dual_form.norm() * partner_inner.norm()
    c = inner(dual_form, dual_form) / denominator
    starred = hodge_star(dual_form)
    return c, partner, (starred - c * partner_inner).norm() / starred.norm()


def _ref_pairing_matrix(T, e, k):
    idx = _degree(e.dim, T.dim, k)[0]
    primal, dual = _ref_frames(T, e)
    return compound(primal @ dual.T, k)[np.ix_(idx, idx)]


def _ref_compound_realize_all(T, e, k, flavor):
    """The compound rows of the frame ``nef_frames`` returns, in element order."""
    primal, dual = _ref_frames(T, e)
    return compound(dual if flavor == "dual" else primal, k).take(_degree(e.dim, T.dim, k)[0], axis=0)


# Reference Hodge coefficient on frames rescaled per call: every frame row
# the coefficient reads is scaled by an exact power of two before the
# compounds, and the exponents are summed, on each call, from the frames
# nef_frames returns; the anchor records store the same scaled rows and
# exponents once per cell.


def _ref_hodge_coefficient(T, elem):
    at = _anchor(T, elem.e)
    if elem.flavor != "dual":
        raise ValueError("hodge coefficient is defined for dual-flavor elements")
    if T.dim != T.ambient_dim:
        raise ValueError(f"t-n bases need a full-dimensional cell, got dim {T.dim} in ambient dim {T.ambient_dim}")
    primal, dual = _ref_frames(T, elem.e)
    (rows, partner_rows, partner_mask, tau), faces = _entry(T, elem, at)
    d, k = T.dim, len(rows)
    partner = TnBasisElement(elem.e, _masked_face(T, faces[partner_mask]), tau, "primal")
    stacked = np.concatenate((dual.take(rows, axis=0), primal.take(partner_rows, axis=0)))
    exps = np.frexp(abs(stacked).max(axis=1, keepdims=True, initial=0.0))[1]
    stacked = np.ldexp(stacked, -exps)
    a, b = compound(stacked[:k], k)[0], compound(stacked[k:], d - k)[0]
    exps = exps.ravel().tolist()
    ea, eb = sum(exps[:k]), sum(exps[k:])
    dual_form = _form(d, k, a)
    denominator = volume_coefficient(wedge(dual_form, _form(d, d - k, b)))
    aa = float(a.dot(a))
    scale = math.sqrt(aa) * math.sqrt(b.dot(b))
    where = tnbasis._context(elem, d, k)
    if abs(denominator) <= DEGENERACY_RTOL * scale:
        scaled = f"{abs(denominator):.3e} <= {DEGENERACY_RTOL} * {scale:.3e}, both times 2^{ea + eb}"
        raise ValueError(f"degenerate Hodge pairing at {where}: {scaled}")
    c = aa / denominator
    starred = hodge_star(dual_form).coeffs
    r = starred - b * c
    residual = math.sqrt(r.dot(r)) / math.sqrt(starred.dot(starred))
    if residual > PAIRING_RTOL:
        raise ValueError(f"Hodge collinearity at {where}: relative residual {residual:.3e} > {PAIRING_RTOL}")
    try:
        scaled_back = math.ldexp(c, ea - eb)
    except OverflowError:
        scaled_back = math.inf
    if scaled_back == 0.0 or math.isinf(scaled_back):
        raise ValueError(f"Hodge coefficient at {where} is not representable: {c!r} * 2^{ea - eb}")
    return scaled_back, partner


class TestDecomposition:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_element_count(self, d):
        T = random_simplex(d, RNG)
        for e in all_subsimplices(T):
            for k in range(d + 1):
                assert len(decompose_altk(T, e, k)) == binomial(d, k)

    def test_vertex_anchor_structure(self):
        # s = 0: every element sits on a k-face through the anchor vertex
        T = random_simplex(3, RNG)
        elems = decompose_altk(T, simplex(0), 2)
        assert all(el.f.dim == 2 and 0 in el.f and len(el.sigma) == 0 for el in elems)
        assert len(elems) == 3

    def test_full_anchor_standard_basis(self):
        # s = d on the reference simplex: tangents are the ambient axes
        T = reference_simplex(3)
        elems = decompose_altk(T, simplex(0, 1, 2, 3), 2)
        mats = realize_all(T, simplex(0, 1, 2, 3), 2)
        assert np.allclose(mats, np.eye(3))
        assert all(el.f.dim == 3 for el in elems)

    def test_edge_anchor_grouping_d3_k1(self):
        T = random_simplex(3, RNG)
        e = simplex(1, 2)
        elems = decompose_altk(T, e, 1)
        by_dim = {}
        for el in elems:
            by_dim.setdefault(el.f.dim, []).append(el)
        assert len(by_dim[1]) == 1  # tangential element on the edge itself
        assert len(by_dim[2]) == 2  # one per face containing the edge
        assert len(elems) == 3

    def test_group_sizes_match_binomials(self):
        d = 4
        T = random_simplex(d, RNG)
        for e in all_subsimplices(T):
            s = e.dim
            for k in range(d + 1):
                elems = decompose_altk(T, e, k)
                for ell in range(max(s, k), min(k + s, d) + 1):
                    per_face = {}
                    for el in elems:
                        if el.f.dim == ell:
                            per_face[el.f] = per_face.get(el.f, 0) + 1
                    expected_faces = binomial(d - s, ell - s)
                    assert len(per_face) == expected_faces
                    assert all(c == binomial(s, ell - k) for c in per_face.values())

    def test_anchor_outside_cell_rejected(self):
        # all five entry points name an anchor outside the cell alike, before the
        # flavor of an element is looked at
        T = random_simplex(3, RNG)
        for e in (simplex(7), simplex(2, 9), simplex(0, 7)):
            msg = rf"^anchor e={re.escape(str(e.vertices))} is not a face of the cell with labels \(0, 1, 2, 3\)$"
            for call in (
                lambda: decompose_altk(T, e, 1),
                lambda: pairing_matrix(T, e, 1),
                lambda: realize_all(T, e, 1),
                lambda: realize(TnBasisElement(e, e, ()), T),
                lambda: hodge_coefficient(T, TnBasisElement(e, e, (), "dual")),
                lambda: hodge_coefficient(T, TnBasisElement(e, e, ())),
            ):
                with pytest.raises(ValueError, match=msg):
                    call()

    @pytest.mark.parametrize("d", range(8))
    def test_table_matches_deleted_enumeration(self, d):
        # the label-free table gives the face loop's elements and positions on
        # default and spread labels, for every anchor and degree
        for labels in (tuple(range(d + 1)), tuple(range(2, 3 * d + 3, 3))):
            T = GeometricSimplex(reference_simplex(d).vertices, labels=labels)
            cell = T.full_simplex()
            for e in (g for s in range(d + 1) for g in subsimplices(cell, s)):
                for k in range(d + 1):
                    assert decompose_altk(T, e, k) == _ref_elements(cell, e, k)
                    assert tuple(_degree(e.dim, d, k)[0].tolist()) == _ref_compound_positions(labels, e, k)

    @given(st.integers(0, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d), st.integers(0, d))))
    def test_table_properties(self, dsk):
        d, s, k = dsk
        positions, elements = _degree(s, d, k)
        rows = _table_rows(s, d, k)
        # one read-only position array, a permutation of the compound's rows and columns
        assert positions.dtype == np.intp and positions.shape == (binomial(d, k),)
        assert not positions.flags.writeable
        assert sorted(positions.tolist()) == list(range(binomial(d, k)))
        assert [sequences(k, d)[i] for i in positions] == rows
        # face dimension s + (number of normals) never decreases
        counts = [bin(m).count("1") for _, m in elements]
        assert counts == sorted(counts)
        # the complementary rows of degree k run once through those of degree d - k
        assert sorted(complement(r, d) for r in rows) == sorted(_table_rows(s, d, d - k))

    @given(st.integers(0, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))))
    def test_one_table_per_anchor_dimension(self, ds):
        # the degree lists name exactly the entries, 2^d elements in all; every
        # partner's partner is the element, and its rows are the complement
        d, s = ds
        degrees, entries = _element_table(s, d)
        keys = [(m, sigma) for _, elements in degrees for sigma, m in elements]
        assert len(degrees) == d + 1 and len(keys) == len(set(keys)) == len(entries) == 2**d
        assert set(keys) == entries.keys()
        for k in range(d + 1):
            assert [tuple(entries[m, sigma][0] + 1) for sigma, m in degrees[k][1]] == _table_rows(s, d, k)
        for key, (rows, partner_rows, *partner) in entries.items():
            assert not (rows.flags.writeable or partner_rows.flags.writeable)
            back_rows, back_partner_rows, *back = entries[tuple(partner)]
            assert tuple(back) == key and back_rows is partner_rows and back_partner_rows is rows
            assert tuple(partner_rows + 1) == complement(tuple(rows + 1), d)

    def test_face_outside_cell_rejected(self):
        T = random_simplex(3, RNG)
        with pytest.raises(ValueError, match=r"face f=\(0, 7\) is not a face of the cell with labels \(0, 1, 2, 3\)"):
            realize(TnBasisElement(simplex(0), simplex(0, 7), ()), T)
        dual = TnBasisElement(simplex(0, 1), simplex(0, 1, 7), (1,), "dual")
        with pytest.raises(ValueError, match=r"face f=\(0, 1, 7\) is not a face of the cell with labels \(0, 1, 2, 3\)"):
            hodge_coefficient(T, dual)

    def test_relabelled_cell_matches_default_labels(self):
        # labels only name the faces: under the label map a relabelled cell has
        # the same elements, bases and pairings, bit for bit
        base = random_simplex(3, RNG)
        T = GeometricSimplex(base.vertices, labels=(2, 5, 7, 9))
        to = dict(zip(base.labels, T.labels))

        def mapped(g):
            return simplex(*(to[i] for i in g))

        for e in all_subsimplices(base):
            for k in range(4):
                for flavor in FLAVORS:
                    got = [(el.e, el.f, el.sigma) for el in decompose_altk(T, mapped(e), k, flavor)]
                    want = [(mapped(el.e), mapped(el.f), el.sigma) for el in decompose_altk(base, e, k, flavor)]
                    assert got == want
                    assert np.array_equal(realize_all(T, mapped(e), k, flavor), realize_all(base, e, k, flavor))
                assert np.array_equal(pairing_matrix(T, mapped(e), k), pairing_matrix(base, e, k))
                for el, el0 in zip(decompose_altk(T, mapped(e), k, "dual"), decompose_altk(base, e, k, "dual")):
                    (c, partner), (c0, partner0) = hodge_coefficient(T, el), hodge_coefficient(base, el0)
                    assert c == c0
                    assert (partner.e, partner.f, partner.sigma) == (mapped(partner0.e), mapped(partner0.f), partner0.sigma)

    def test_shared_facet_gives_identical_dual_rows(self):
        # two cells sharing facet F derive identical frames from it, so every
        # dual element whose face lies in F has the same row on both
        A = random_simplex(3, RNG)
        p = A.vertices
        B = GeometricSimplex(np.vstack([p[1:], 2 * p[1:].mean(axis=0) - p[0]]), labels=(1, 2, 3, 4))
        F = simplex(1, 2, 3)
        matched = 0
        for e in [g for s in range(3) for g in subsimplices(F, s)]:
            for k in range(4):
                a, b = (
                    {
                        (el.f, el.sigma): row
                        for el, row in zip(decompose_altk(T, e, k, "dual"), realize_all(T, e, k, "dual"))
                        if el.f.issubset(F)
                    }
                    for T in (A, B)
                )
                assert a.keys() == b.keys()
                for key in a:
                    assert np.array_equal(a[key], b[key])
                matched += len(a)
        assert matched == 28

    def test_embedded_cell_rejected(self):
        # on a triangle in R^3 the ambient star of a 2-form is a 1-form, not a
        # 0-form, so t-n bases are built on full-dimensional cells only.  The
        # anchor's record checks it before it builds or stores anything, so
        # every call raises, the cell keeps no record and builds no n-e-f frame,
        # and decompose_altk, which reads no frame, still works
        T = GeometricSimplex(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        msg = "^t-n bases need a full-dimensional cell, got dim 2 in ambient dim 3$"
        for e in all_subsimplices(T) * 2:
            assert len(decompose_altk(T, e, 1, "dual")) == 2
            calls = (
                lambda: realize_all(T, e, 1),
                lambda: realize(decompose_altk(T, e, 0)[0], T),
                lambda: pairing_matrix(T, e, 1),
                lambda: hodge_coefficient(T, decompose_altk(T, e, 1, "dual")[0]),
            )
            for call in calls:
                with pytest.raises(ValueError, match=msg):
                    call()
        assert T._tn == {} and T._nef == {}

    def test_flavor_validation(self):
        T = random_simplex(2, RNG)
        for flavor in ("nope", "hodge"):
            with pytest.raises(ValueError, match="unknown flavor"):
                decompose_altk(T, simplex(0), 1, flavor)
            with pytest.raises(ValueError, match="unknown flavor"):
                realize_all(T, simplex(0), 1, flavor)
            with pytest.raises(ValueError, match="unknown flavor"):
                TnBasisElement(simplex(0), simplex(0, 1), (), flavor)
        with pytest.raises(ValueError, match="got k=5, d=2"):
            decompose_altk(T, simplex(0), 5)

    def test_sigma_entries_are_integers(self):
        # sigma is checked as labels are: any sequence of ints names the same element, a float entry is a TypeError
        e = f = simplex(0, 1, 2)
        want = TnBasisElement(e, f, (1, 2))
        for sigma in ([1, 2], np.array([1, 2]), (np.int64(1), np.int64(2))):
            got = TnBasisElement(e, f, sigma)
            assert got == want and hash(got) == hash(want) and type(got.sigma) is tuple
            assert all(type(i) is int for i in got.sigma)
        for sigma in ((1.0,), [1, 2.0], np.array([1.0])):
            with pytest.raises(TypeError):
                TnBasisElement(e, f, sigma)
        with pytest.raises(ValueError, match=r"sigma=\(2, 1\)"):
            TnBasisElement(e, f, [2, 1])

    def test_validation(self):
        # sigma must be an increasing sequence in 1..dim e
        e = f = simplex(0, 1, 2)
        with pytest.raises(ValueError, match=r"sigma=\(2, 1\) .* 1\.\.2"):
            TnBasisElement(e, f, (2, 1))
        with pytest.raises(ValueError, match=r"sigma=\(3,\) .* 1\.\.2"):
            TnBasisElement(e, f, (3,))
        with pytest.raises(ValueError, match=r"anchor e=\(0, 3\) must be contained in the face f=\(0, 1, 2\)"):
            TnBasisElement(simplex(0, 3), f, ())


def _fields(el):
    return el.e.vertices, el.f.vertices, el.sigma, el.flavor


def _label_sets(d):
    """Default labels, evenly spread labels and uneven ones, for a d-cell."""
    return tuple(range(d + 1)), tuple(range(2, 3 * d + 3, 3)), tuple(range(2, 3 * d + 2, 3)) + (30,)


class TestUncheckedElements:
    @pytest.mark.parametrize("d", range(7))
    def test_match_validated_elements(self, d):
        # elements named from the table equal, and hash like, the validated
        # ones, on default, spread and uneven labels, for every anchor, degree and flavor
        for labels in _label_sets(d):
            T = GeometricSimplex(reference_simplex(d).vertices, labels=labels)
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    for flavor in FLAVORS:
                        got, want = decompose_altk(T, e, k, flavor), _ref_decompose_altk(T, e, k, flavor)
                        assert got == want
                        assert [_fields(el) for el in got] == [_fields(el) for el in want]
                        assert [hash(el) for el in got] == [hash(el) for el in want]
                        assert all(type(i) is int for el in got for i in el.f.vertices)

    @pytest.mark.parametrize("d", range(5))
    def test_hodge_partner_is_a_validated_element(self, d):
        T = GeometricSimplex(random_simplex(d, RNG).vertices, labels=tuple(range(2, 3 * d + 3, 3)))
        for e in all_subsimplices(T):
            for k in range(d + 1):
                for el in decompose_altk(T, e, k, "dual"):
                    _, partner = hodge_coefficient(T, el)
                    want = TnBasisElement(partner.e, AbstractSimplex(partner.f.vertices), partner.sigma)
                    assert partner == want and hash(partner) == hash(want)
                    assert _fields(partner) == _fields(want)

    def test_error_order(self):
        # the degree is checked first, then the anchor, then the flavor
        T = random_simplex(3, RNG)
        with pytest.raises(ValueError, match="got k=5, d=3"):
            decompose_altk(T, simplex(7), 5, "nope")
        with pytest.raises(ValueError, match=r"anchor e=\(7,\) is not a face"):
            decompose_altk(T, simplex(7), 1, "nope")
        with pytest.raises(ValueError, match="unknown flavor 'nope'"):
            decompose_altk(T, simplex(0), 1, "nope")
        with pytest.raises(ValueError, match="got k=5, d=3"):
            realize_all(T, simplex(7), 5, "nope")
        with pytest.raises(ValueError, match="got k=5, d=3"):
            pairing_matrix(T, simplex(7), 5)
        with pytest.raises(ValueError, match=r"anchor e=\(7,\) is not a face"):
            realize_all(T, simplex(7), 1, "nope")
        with pytest.raises(ValueError, match="unknown flavor 'nope'"):
            realize_all(T, simplex(0), 1, "nope")
        # an element's flavor is checked after its anchor and before its face,
        # and the error names the element's (e, f, sigma, d, k)
        primal = {
            "e=(0,), f=(0, 7), sigma=(), d=3, k=1": TnBasisElement(simplex(0), simplex(0, 7), ()),
            "e=(0, 1), f=(0, 1, 2), sigma=(1,), d=3, k=2": TnBasisElement(simplex(0, 1), simplex(0, 1, 2), (1,)),
        }
        for where, elem in primal.items():
            msg = rf"^hodge coefficient is defined for dual-flavor elements, got primal at {re.escape(where)}$"
            with pytest.raises(ValueError, match=msg):
                hodge_coefficient(T, elem)

    def test_no_element_is_validated_per_call(self, monkeypatch):
        # no face or element is re-validated, and naming faces and partners reads
        # masks, never AbstractSimplex.__contains__, on a fresh cell too
        base = GeometricSimplex(random_simplex(4, RNG).vertices, labels=(2, 5, 8, 11, 30))
        anchors = all_subsimplices(base)
        elements = [el for e in anchors for k in range(5) for el in decompose_altk(base, e, k, "dual")]
        T = GeometricSimplex(base.vertices, labels=base.labels)
        calls = []
        for cls in (AbstractSimplex, TnBasisElement):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: calls.append(self) or check(self))
        contains = AbstractSimplex.__contains__
        monkeypatch.setattr(AbstractSimplex, "__contains__", lambda self, j: calls.append(j) or contains(self, j))
        for e in anchors:
            for k in range(5):
                for flavor in FLAVORS:
                    decompose_altk(T, e, k, flavor)
        for el in elements:
            hodge_coefficient(T, el)
        assert calls == []


class TestMaskTables:
    # rows, partners and faces are read from label-free tables keyed by position
    # masks; the tables are sized by dimensions, and a cell's face cache by its faces

    @pytest.mark.parametrize("d", range(7))
    def test_rows_match_row_index_oracle(self, d):
        # for every anchor, degree and sigma the table's rows are the oracle's,
        # 0-based, and its complementary rows are the partner's
        for labels in _label_sets(d)[:2]:
            T = GeometricSimplex(reference_simplex(d).vertices, labels=labels)
            for e in all_subsimplices(T):
                at, seen = _anchor(T, e), set()
                for k in range(d + 1):
                    for el in decompose_altk(T, e, k, "dual"):
                        (rows, partner_rows, partner_mask, tau), faces = _entry(T, el, at)
                        want = _ref_row_index(el, labels)
                        assert tuple(rows.tolist()) == tuple(i - 1 for i in want)
                        assert tuple(partner_rows.tolist()) == tuple(i - 1 for i in complement(want, d))
                        partner = TnBasisElement(e, _masked_face(T, faces[partner_mask]), tau)
                        assert _ref_row_index(partner, labels) == complement(want, d)
                        assert faces[partner_mask] == _mask(T, partner.f.vertices)
                        seen.add((el.f, el.sigma))
                assert len(seen) == len(_element_table(e.dim, d)[1]) == 2**d

    def test_tables_are_sized_by_dimensions(self):
        # the element table holds 2^d entries per (s, d) and the deposit table at
        # most 3^n per n, whatever the cell, its labels or the number of calls
        _element_table.cache_clear()
        _deposit.cache_clear()

        def sweep(T, realized):
            for e in all_subsimplices(T):
                for k in range(T.dim + 1):
                    for el in decompose_altk(T, e, k, "dual"):
                        hodge_coefficient(T, el)
                        if realized:
                            realize(el, T)

        dims, rng = range(6), np.random.default_rng(130)
        for d in dims:
            sweep(random_simplex(d, rng), True)
        sizes = _element_table.cache_info().currsize, _deposit.cache_info().currsize
        assert sizes == (sum(d + 1 for d in dims), sum(2 ** (d + 1) - 1 for d in dims))
        for d in dims:
            sweep(GeometricSimplex(random_simplex(d, rng).vertices, labels=_label_sets(d)[2]), False)
        assert (_element_table.cache_info().currsize, _deposit.cache_info().currsize) == sizes
        elements = sum(len(_element_table(s, d)[1]) for d in dims for s in range(d + 1))
        assert elements <= sum((d + 1) * 2**d for d in dims)
        for n in range(1, 8):
            assert sum(len(_deposit(at, n)[0]) for at in range(1, 2**n)) <= 3**n

    @pytest.mark.parametrize("d", range(7))
    def test_face_cache_is_bounded_by_the_faces(self, d):
        T = GeometricSimplex(random_simplex(d, np.random.default_rng(140 + d)).vertices, labels=_label_sets(d)[2])
        for _ in range(2):
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    for flavor in FLAVORS:
                        for el in decompose_altk(T, e, k, flavor):
                            assert T.full_simplex()._faces[_mask(T, el.f.vertices)] is el.f
                    hodge_coefficient(T, decompose_altk(T, e, k, "dual")[-1])
            assert len(T.full_simplex()._faces) <= 2 ** (d + 1) - 1
        assert sorted(T.full_simplex()._faces) == list(range(1, 2 ** (d + 1)))


class TestZeroSimplex:
    def test_every_t_n_call(self):
        T = reference_simplex(0)
        e = T.full_simplex()
        assert np.array_equal(pairing_matrix(T, e, 0), [[1.0]])
        for flavor in FLAVORS:
            assert np.array_equal(realize_all(T, e, 0, flavor), [[1.0]])
            (el,) = decompose_altk(T, e, 0, flavor)
            assert np.array_equal(realize(el, T).coeffs, [1.0])
        c, partner = hodge_coefficient(T, decompose_altk(T, e, 0, "dual")[0])
        assert c == 1.0 and partner == TnBasisElement(e, e, ())


class TestRealization:
    def test_k1_full_anchor_orthonormal(self):
        T = random_simplex(3, RNG)
        mats = realize_all(T, simplex(0, 1, 2, 3), 1)
        assert np.allclose(mats @ mats.T, np.eye(3), atol=1e-12)

    def test_k1_dual_structure(self):
        # dual flavor at a vertex anchor: the tangential-normal edge vectors
        T = random_simplex(3, RNG)
        e = simplex(0)
        elems = decompose_altk(T, e, 1, "dual")
        from tnforms.simplex import surface_gradient

        for el in elems:
            (j,) = tuple(set(el.f.vertices) - {0})
            want = surface_gradient(T, el.f, j)
            assert np.allclose(realize(el, T).coeffs, want, atol=1e-12)

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_span_equivalence(self, d, k):
        T = random_simplex(d, RNG)
        for e in all_subsimplices(T):
            for flavor in FLAVORS:
                mats = realize_all(T, e, k, flavor)
                assert np.linalg.matrix_rank(mats, tol=1e-10) == binomial(d, k)

    def test_one_frame_fill_per_anchor_per_cell(self, monkeypatch):
        # every entry point of both flavors reads an anchor's frames from one
        # record per cell, filled on the first read and never through
        # nef_frames; decompose_altk reads none
        fills = []
        fill = simplex_module._fill_tn
        monkeypatch.setattr(simplex_module, "_fill_tn", lambda T, at: fills.append((T, at)) or fill(T, at))
        monkeypatch.setattr(simplex_module, "nef_frames", None)
        assert not hasattr(tnbasis, "nef_frames")
        cells = [random_simplex(4, RNG), GeometricSimplex(random_simplex(3, RNG).vertices, labels=(2, 5, 7, 9))]
        for T in cells:
            for _ in range(2):
                for e in all_subsimplices(T):
                    for k in range(T.dim + 1):
                        for flavor in FLAVORS:
                            realize_all(T, e, k, flavor)
                            for el in decompose_altk(T, e, k, flavor):
                                realize(el, T)
                        pairing_matrix(T, e, k)
                        for el in decompose_altk(T, e, k, "dual"):
                            hodge_coefficient(T, el)
        assert fills == [(T, _anchor(T, e)) for T in cells for e in all_subsimplices(T)]
        fills.clear()
        T = random_simplex(3, RNG)
        for e in all_subsimplices(T):
            for k in range(4):
                decompose_altk(T, e, k, "dual")
        assert fills == []

    def test_failing_anchor_raises_on_every_call_and_stores_no_record(self):
        # an anchor whose pairing misses PAIRING_RTOL raises nef_frames's
        # message on each call of each entry point, and leaves no record
        rng = np.random.default_rng(801)
        for _ in range(20):
            T = GeometricSimplex(_flattened(random_simplex(4, rng).vertices, 1e-7))
            failing = {}
            for e in all_subsimplices(T):
                try:
                    nef_frames(T, T.full_simplex(), e)
                except ValueError as exc:
                    failing[e] = str(exc)
            if failing:
                break
        else:
            pytest.fail("no sliver with a failing anchor")
        for e, msg in failing.items():
            assert "not diagonal: ratio" in msg
            calls = (
                lambda: pairing_matrix(T, e, 1),
                lambda: pairing_matrix(T, e, 1),
                lambda: realize_all(T, e, 1, "dual"),
                lambda: realize(decompose_altk(T, e, 1)[0], T),
                lambda: hodge_coefficient(T, decompose_altk(T, e, 1, "dual")[0]),
            )
            for call in calls:
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == msg and _anchor(T, e) not in T._tn
        passing = [e for e in all_subsimplices(T) if e not in failing]
        for e in passing:
            pairing_matrix(T, e, 1)
        assert sorted(T._tn) == sorted(_anchor(T, e) for e in passing)

    def test_element_positions_are_cached_by_dimensions(self):
        T1, e = random_simplex(3, RNG), simplex(0, 2)
        T2 = GeometricSimplex(random_simplex(3, RNG).vertices, labels=(2, 5, 7, 9))
        pairing_matrix(T1, e, 2)
        size = _element_table.cache_info().currsize
        # the other flavor, another anchor of the same dimension, a cell with
        # other labels and another degree add no table
        realize_all(T1, e, 2, "dual")
        realize_all(T1, simplex(1, 3), 2)
        pairing_matrix(T2, simplex(5, 9), 2)
        decompose_altk(T2, simplex(2, 7), 2, "dual")
        pairing_matrix(T1, e, 1)
        assert _element_table.cache_info().currsize == size
        positions = _degree(1, 3, 2)[0]
        assert positions.dtype == np.intp and not positions.flags.writeable
        # one table per (dim e, d)
        _element_table.cache_clear()
        for d in range(1, 7):
            T = random_simplex(d, RNG)
            for g in all_subsimplices(T):
                for k in range(d + 1):
                    pairing_matrix(T, g, k)
                    decompose_altk(T, g, k)
        assert _element_table.cache_info().currsize == sum(d + 1 for d in range(1, 7))

    def test_rejected_anchors_build_no_table(self):
        # the anchor is checked before the table is built, so an anchor with more
        # labels than the cell leaves no table keyed by its size; the degree is still checked first
        T = reference_simplex(3)
        decompose_altk(T, simplex(0, 1), 1)
        size = _element_table.cache_info().currsize
        for m in range(5, 40):
            with pytest.raises(ValueError, match=r"^anchor e=\(0, 1, 2, .* is not a face"):
                decompose_altk(T, simplex(*range(m)), 1)
            with pytest.raises(ValueError, match="got k=5, d=3"):
                decompose_altk(T, simplex(*range(m)), 5)
        assert _element_table.cache_info().currsize == size

    def test_k0_constant(self):
        T = random_simplex(2, RNG)
        elems = decompose_altk(T, simplex(1), 0)
        assert len(elems) == 1
        assert np.allclose(realize(elems[0], T).coeffs, [1.0])


class TestAgainstReference:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_anchor_degree_and_flavor(self, d):
        T = random_simplex(d, np.random.default_rng(70 + d))
        for e in all_subsimplices(T):
            for k in range(d + 1):
                want = {flavor: _ref_realize_all(T, e, k, flavor) for flavor in FLAVORS}
                for flavor in FLAVORS:
                    got = realize_all(T, e, k, flavor)
                    assert np.abs(got - want[flavor]).max() <= 1e-13 * np.abs(want[flavor]).max()
                    # the single-element path gives the same rows, bit for bit
                    for row, el in zip(got, decompose_altk(T, e, k, flavor)):
                        assert np.array_equal(row, realize(el, T).coeffs)
                gram = want["primal"] @ want["dual"].T
                assert np.abs(pairing_matrix(T, e, k) - gram).max() <= 1e-13 * np.abs(gram).max()
                # the two hodge oracles agree
                loop = np.array(
                    [_ref_hodge_realize(T, e, el.f, complement(el.sigma, e.dim)).coeffs for el in decompose_altk(T, e, k)]
                )
                assert np.abs(_ref_hodge_rows(T, e, k) - loop).max() <= 1e-13 * np.abs(loop).max()

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hodge_rows_are_starred_primal_partners(self, d):
        # the deleted hodge row of (e, f, sigma) is, bit for bit, the star of the
        # primal row of hodge_coefficient's partner, and the partners of the dual
        # elements of degree k run once through the primal elements of degree d - k
        T = random_simplex(d, np.random.default_rng(70 + d))
        for e in all_subsimplices(T):
            for k in range(d + 1):
                position = {(el.f, el.sigma): i for i, el in enumerate(decompose_altk(T, e, d - k))}
                dual = decompose_altk(T, e, k, "dual")
                partners = [hodge_coefficient(T, el)[1] for el in dual]
                assert all(p.flavor == "primal" and len(p.sigma) + p.f.dim - p.e.dim == d - k for p in partners)
                # a partner wedges the complementary frame rows
                for el, p in zip(dual, partners):
                    assert _ref_row_index(p, T.labels) == complement(_ref_row_index(el, T.labels), d)
                idx = [position[p.f, p.sigma] for p in partners]
                assert sorted(idx) == list(range(binomial(d, k)))
                starred = _star(realize_all(T, e, d - k), d - k, d)[idx]
                assert np.array_equal(_ref_hodge_rows(T, e, k), starred)


class TestCoefficientArrays:
    # hodge_coefficient and pairing_matrix on stored frame rows and coefficient
    # arrays give the former AltForm chains' results bit for bit

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hodge_coefficient_matches_altform_chain(self, d):
        unit = random_simplex(d, np.random.default_rng(90 + d))
        for labels in _label_sets(d)[::2]:
            T = GeometricSimplex(unit.vertices, labels=labels)
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    for el in decompose_altk(T, e, k, "dual"):
                        c, partner = hodge_coefficient(T, el)
                        ref_c, ref_partner, residual = _ref_altform_hodge_coefficient(T, el)
                        assert type(c) is float and c.hex() == ref_c.hex()
                        assert partner == ref_partner and hash(partner) == hash(ref_partner)
                        assert _fields(partner) == _fields(ref_partner) and residual <= 1e-12

    @pytest.mark.parametrize("d", range(1, 7))
    def test_pairing_matrix_matches_ix_gather(self, d):
        unit = random_simplex(d, np.random.default_rng(110 + d))
        for T in (unit, GeometricSimplex(unit.vertices, labels=tuple(range(3, 2 * d + 5, 2)))):
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    got, want = pairing_matrix(T, e, k), _ref_pairing_matrix(T, e, k)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_frames_are_stored_rows(self):
        # both frame matrices are read-only views of the cell's one n-e-f array,
        # read from one record per anchor as (primal, dual) pairs; its scaled rows
        # are theirs times exact powers of two, each row's largest |entry| in [1/2, 1)
        T = random_simplex(4, RNG)
        for e in all_subsimplices(T):
            record = _tn_frames(T, _anchor(T, e))
            assert record is _tn_frames(T, _anchor(T, e))
            assert len(record.frames) == len(record.scaled) == len(record.exps) == len(FLAVORS) == 2
            primal, dual = record.frames
            assert primal.shape == dual.shape == (4, 4)
            assert not (primal.flags.writeable or dual.flags.writeable)
            assert primal.base is not None and primal.base is dual.base
            fs = nef_frames(T, T.full_simplex(), e)
            assert np.array_equal(primal, np.vstack([fs.tangents, fs.normals_face]))
            assert np.array_equal(dual, np.vstack([fs.tangents, fs.normals_tn]))
            for frame, rows, exps in zip(record.frames, record.scaled, record.exps):
                assert not rows.flags.writeable and len(exps) == 4 and all(type(j) is int for j in exps)
                assert np.ldexp(rows, np.array(exps)[:, None]).tobytes() == frame.tobytes()
                top = np.abs(rows).max(axis=1)
                assert np.all((0.5 <= top) & (top < 1.0))


def _parent_cells(d):
    """The d-cells the t-n outputs are pinned on: a random cell, relabelled at 2^-150 and scaled by 2^140; at
    d = 4 three slivers of flatness 1e-7, and at d = 3, 4 cells at the volume-representability edge."""
    unit = random_simplex(d, np.random.default_rng(150 + d))
    cells = [unit, GeometricSimplex(2.0**-150 * unit.vertices, labels=_label_sets(d)[2])]
    cells.append(GeometricSimplex(2.0**140 * unit.vertices))
    if d == 4:
        rng = np.random.default_rng(801)
        slivers = [GeometricSimplex(_flattened(random_simplex(4, rng).vertices, 1e-7)) for _ in range(20)]
        cells += [slivers[i] for i in (0, 9, 19)]  # each fails Hodge collinearity; the last two fail anchor pairings too
    far = {3: ((-349, 0), (-349, 1), (-330, 0)), 4: ((-266, 0),)}.get(d, ())
    cells += [GeometricSimplex(2.0**j * random_simplex(d, np.random.default_rng(seed)).vertices) for j, seed in far]
    return cells


def _outcome(call):
    """The call's result, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _realize_all_overflow(e, k, flavor, d):
    """The text of ``realize_all``'s error on a frame with an overflowing minor."""
    where = f"e={e.vertices}, k={k}, flavor={flavor}, d={d}"
    return f"realized basis at {where} is not representable: a minor of the frame overflows"


def _array_bits(a):
    return a if isinstance(a, str) else (a.dtype, a.shape, a.tobytes())


def _hodge_bits(out):
    return out if isinstance(out, str) else (out[0].hex(), _fields(out[1]))


class TestAgainstParentFrames:
    """Every t-n output and error is bit for bit that of the frames nef_frames returns, rescaled per call."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_anchor_and_dual_element(self, d):
        # the compounds of unscaled frames over- or underflow at the representability edge, alike
        raised = set()
        for T in _parent_cells(d):
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    with np.errstate(all="ignore"):
                        got = _outcome(lambda: pairing_matrix(T, e, k))
                        assert _array_bits(got) == _array_bits(_outcome(lambda: _ref_pairing_matrix(T, e, k)))
                        for flavor in FLAVORS:
                            got = _outcome(lambda: realize_all(T, e, k, flavor))
                            want = _outcome(lambda: _ref_compound_realize_all(T, e, k, flavor))
                            if not isinstance(want, str) and not np.isfinite(want).all():
                                want = _realize_all_overflow(e, k, flavor, d)  # a named error, not NaN or inf
                            assert _array_bits(got) == _array_bits(want)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        for el in decompose_altk(T, e, k, "dual"):
                            got = _hodge_bits(_outcome(lambda: hodge_coefficient(T, el)))
                            assert got == _hodge_bits(_outcome(lambda: _ref_hodge_coefficient(T, el))), el
                            if isinstance(got, str):
                                raised.add(got.split(" at ")[0])
        want = {3: {"Hodge coefficient"}, 4: {"Hodge coefficient", "Hodge collinearity", "pairing"}}.get(d, set())
        assert raised == want


class TestPairing:
    def test_full_anchor_identity(self):
        T = random_simplex(3, RNG)
        p = pairing_matrix(T, simplex(0, 1, 2, 3), 2)
        assert np.allclose(p, np.eye(3), atol=1e-12)

    def test_edge_anchor_diagonal_values(self):
        # diagonal entries are products of squared tangential-normal lengths
        from tnforms.simplex import surface_gradient

        T = random_simplex(3, RNG)
        e = simplex(0, 1)
        elems = decompose_altk(T, e, 1)
        p = pairing_matrix(T, e, 1)
        assert np.max(np.abs(p - np.diag(np.diag(p)))) < 1e-12
        for i, el in enumerate(elems):
            expect = 1.0
            for j in set(el.f.vertices) - set(e.vertices):
                g = surface_gradient(T, simplex(*(e.vertices + (j,))), j)
                expect *= np.linalg.norm(g) ** 2
            assert abs(p[i, i] - expect) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_diagonal_sweep(self, d):
        for trial in range(5):
            T = random_simplex(d, RNG)
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    p = pairing_matrix(T, e, k)
                    off = np.abs(p - np.diag(np.diag(p)))
                    assert np.max(off, initial=0.0) < 1e-12
                    assert np.min(np.abs(np.diag(p))) > 1e-12


    def test_matches_gram_of_inner_products(self):
        T = random_simplex(6, RNG)
        for e in (simplex(0), simplex(1, 4), simplex(0, 2, 3, 5)):
            for k in range(7):
                primal = [realize(el, T) for el in decompose_altk(T, e, k, "primal")]
                dual = [realize(el, T) for el in decompose_altk(T, e, k, "dual")]
                want = np.array([[inner(w, v) for v in dual] for w in primal])
                assert np.abs(pairing_matrix(T, e, k) - want).max() <= 1e-13 * np.abs(want).max()


class TestHodgeCoefficient:
    def test_planar_rotation(self):
        # star of t1-flat is t2-flat for the positively oriented reference frame
        T = reference_simplex(2)
        e = simplex(0, 1, 2)
        elems = decompose_altk(T, e, 1, "dual")
        c, partner = hodge_coefficient(T, elems[0])
        assert abs(c - 1.0) < 1e-12
        assert (partner.f, partner.sigma, partner.flavor) == (e, (2,), "primal")
        assert np.allclose(realize(elems[0], T).coeffs, [1.0, 0.0])
        assert np.allclose(realize(partner, T).coeffs, [0.0, 1.0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_simplices_consistency(self, d):
        for _ in range(5):
            T = random_simplex(d, RNG)
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    for el in decompose_altk(T, e, k, "dual"):
                        c, partner = hodge_coefficient(T, el)
                        assert abs(c) > 1e-12
                        outside = tuple(j for j in T.labels if j not in el.f)
                        assert partner.e == el.e and partner.f == simplex(*sorted(e.vertices + outside))
                        starred = hodge_star(realize(el, T))
                        assert (starred - c * realize(partner, T)).norm() <= 1e-11 * starred.norm()

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_scaled_cells_match_unit_cell(self, d):
        # The dual form carries dim f - dim e gradients and its partner the
        # d - dim f gradients of the opposite face, each scaling as 1/s, so c
        # scales as s^(d + dim e - 2 dim f) and the partner does not change.
        # At the far scales, s^d near the ends of the float range, a, b and c
        # are representable but a . a, b . b or star a . star a are not: c is
        # still found, with no warning, to the same law.
        unit = random_simplex(d, np.random.default_rng(50 + d))
        elems = [el for e in all_subsimplices(unit) for k in range(d + 1) for el in decompose_altk(unit, e, k, "dual")]
        want = [hodge_coefficient(unit, el) for el in elems]
        far = {3: (1e-100, 1e100), 4: (1e-75, 1e75), 5: (1e-60, 1e60), 6: (1e-45, 1e45)}[d]
        for scale in (1e-6, 1e3, 1e6) + far:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                T = GeometricSimplex(scale * unit.vertices)
                for el, (c0, partner0) in zip(elems, want):
                    c, partner = hodge_coefficient(T, el)
                    assert partner == partner0
                    assert abs(c / c0 * scale ** (2 * el.f.dim - d - el.e.dim) - 1.0) < (1e-12 if scale in far else 1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_power_of_two_scaling_keeps_the_mantissa(self, d):
        # compound's minors of every order are products and sums alone, so
        # they scale exactly: scaling the cell by 2^j keeps each c's mantissa
        # and moves its exponent by j (d + dim e - 2 dim f).
        rng = np.random.default_rng(60 + d)
        for _ in range(3):
            unit = random_simplex(d, rng)
            elems = [el for e in all_subsimplices(unit) for k in range(d + 1) for el in decompose_altk(unit, e, k, "dual")]
            want = [math.frexp(hodge_coefficient(unit, el)[0]) for el in elems]
            for j in (-40, 37):
                T = GeometricSimplex(2.0**j * unit.vertices)
                for el, (mantissa, exponent) in zip(elems, want):
                    shift = j * (d + el.e.dim - 2 * el.f.dim)
                    assert math.frexp(hodge_coefficient(T, el)[0]) == (mantissa, exponent + shift), (j, el)

    @pytest.mark.parametrize("d,j,seed", [(3, -349, 0), (3, -349, 1), (3, -349, 2), (3, -349, 3), (4, -266, 0), (3, -330, 0)])
    def test_far_scales_return_c_or_name_representability(self, d, j, seed):
        # At the volume-representability edge, with no warning on the way,
        # each c is the unit cell's c times 2^(j (d + dim e - 2 dim f)),
        # subnormals included, and a c past the float range raises an error
        # that names it, not "degenerate Hodge pairing ... inf".
        unit = random_simplex(d, np.random.default_rng(seed))
        T = GeometricSimplex(2.0**j * unit.vertices)
        elems = [el for e in all_subsimplices(unit) for k in range(d + 1) for el in decompose_altk(unit, e, k, "dual")]
        unrepresentable = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for el in elems:
                c0, partner0 = hodge_coefficient(unit, el)
                try:
                    want = math.ldexp(c0, j * (d + el.e.dim - 2 * el.f.dim))
                except OverflowError:
                    want = math.inf
                if want == 0.0 or math.isinf(want):
                    where = f"e={el.e.vertices}, f={el.f.vertices}, sigma={el.sigma}, d={d}, k={el.f.dim - el.e.dim + len(el.sigma)}"
                    with pytest.raises(ValueError, match=rf"^Hodge coefficient at {re.escape(where)} is not representable"):
                        hodge_coefficient(T, el)
                    unrepresentable += 1
                else:
                    c, partner = hodge_coefficient(T, el)
                    assert c == want and partner == partner0, el
        assert unrepresentable == (0 if j == -330 else d + 1)  # the top-degree element at each vertex

    @pytest.mark.parametrize("d,j,seed", [(3, -349, 0), (3, -349, 1), (4, -266, 0), (3, -330, 0)])
    def test_far_scales_realize_or_name_representability(self, d, j, seed):
        # Every (anchor, degree, flavor) gives finite rows, bit for bit the
        # compound of the frames nef_frames returns, or a ValueError naming
        # (e, k, flavor, d), with no warning on the way.
        unit = random_simplex(d, np.random.default_rng(seed))
        T = GeometricSimplex(2.0**j * unit.vertices)
        raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    for flavor in FLAVORS:
                        try:
                            rows = realize_all(T, e, k, flavor)
                        except ValueError as exc:
                            assert str(exc) == _realize_all_overflow(e, k, flavor, d)
                            raised += 1
                            continue
                        assert np.isfinite(rows).all()
                        assert np.array_equal(rows, _ref_compound_realize_all(T, e, k, flavor))
        assert raised == (0 if j == -330 else 2 * (d + 1))  # the top degree at each vertex, both flavors

    @pytest.mark.parametrize("d,j,seed", [(3, -349, 0), (3, -349, 1), (4, -266, 0), (3, -330, 0)])
    def test_far_scales_realize_as_realize_all(self, d, j, seed):
        # realize used to warn of overflow on the top degree at each vertex of
        # the first cell; each element's form is now its realize_all row bit
        # for bit, or raises realize_all's error, with no warning on the way
        T = GeometricSimplex(2.0**j * random_simplex(d, np.random.default_rng(seed)).vertices)
        raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in all_subsimplices(T):
                for k in range(d + 1):
                    for flavor in FLAVORS:
                        rows = _outcome(lambda: realize_all(T, e, k, flavor))
                        for i, el in enumerate(decompose_altk(T, e, k, flavor)):
                            form = _outcome(lambda: realize(el, T))
                            if isinstance(form, str):
                                assert form == rows == _realize_all_overflow(e, k, flavor, d)
                                raised += 1
                            else:
                                assert _array_bits(form.coeffs) == _array_bits(rows[i])
        assert raised == (0 if j == -330 else 2 * (d + 1))

    def test_requires_dual_flavor(self):
        T = random_simplex(2, RNG)
        el = decompose_altk(T, simplex(0), 1, "primal")[0]
        with pytest.raises(ValueError):
            hodge_coefficient(T, el)

    def test_hodge_partner_realizes_star(self):
        # the partner is realized like any primal element of degree d - k, and
        # starring the dual element gives c times it
        d, k = 3, 1
        T = random_simplex(d, RNG)
        primal = decompose_altk(T, simplex(1), d - k)
        rows = realize_all(T, simplex(1), d - k)
        for el in decompose_altk(T, simplex(1), k, "dual"):
            c, partner = hodge_coefficient(T, el)
            realized = realize(partner, T)
            assert np.array_equal(realized.coeffs, rows[primal.index(partner)])
            lhs = hodge_star(realize(el, T))
            assert (lhs - c * realized).norm() <= 1e-12 * lhs.norm()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_normal_trace_is_tangential_trace_of_star(self, d):
        # u = star(primal element (e, f, sigma)) is a former hodge-flavor form;
        # its normal trace on a facet F_i with i in f - e, the tangential trace
        # of star u, vanishes: star u is +-the primal form, which wedges grad lambda_i
        T = random_simplex(d, np.random.default_rng(40 + d))
        cases = 0
        for e in all_subsimplices(T):
            for m in range(d):
                for el in decompose_altk(T, e, m):
                    u = hodge_star(realize(el, T))
                    for i in el.f.vertices:
                        if i not in e:
                            frame, _ = induced_facet_frame(T, simplex(*(j for j in T.labels if j != i)))
                            assert restrict_to_frame(frame, hodge_star(u)).norm() <= 1e-13 * u.norm()
                            cases += 1
        assert cases > 0


class TestOrdering:
    def test_canonical_order(self):
        T = random_simplex(3, RNG)
        elems = decompose_altk(T, simplex(0, 2), 2)
        keys = [(el.f.dim, el.f.vertices, el.sigma) for el in elems]
        assert keys == sorted(keys)
