import re
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
)
from tnforms.errors import DEGENERACY_RTOL
from tnforms.exterior import (
    AltForm,
    compound,
    flat,
    hodge_star,
    inner,
    restrict_to_frame,
    volume_coefficient,
    wedge,
    wedge_all,
)
from tnforms.exterior import _star
from tnforms.simplex import (
    GeometricSimplex,
    all_subsimplices,
    barycentric_gradients,
    _deposit,
    _masked_face,
    _position_mask,
    induced_facet_frame,
    nef_frames,
    random_simplex,
    reference_simplex,
    surface_gradient,
    tangent_basis,
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
import tnforms.tnbasis as tnbasis
from tnforms.tnbasis import _anchor, _basis_table, _element_table, _entry, _frames

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


def _offsets(mask):
    """The normal offsets a normal-offset mask's bits name, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _ref_decompose_altk(T, e, k, flavor="primal"):
    """The former label merge: each face's labels sorted from e's and those its normal offsets name, validated."""
    elements = _basis_table(e.dim, T.dim, k)[1]
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
    """The frame rows of each element of ``_basis_table(s, d, k)``: sigma, then the normal rows."""
    return [sigma + tuple(s + 1 + i for i in _offsets(m)) for sigma, m in _basis_table(s, d, k)[1]]


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
    return _star(compound(_frames(T, e)[0], d - k)[idx], d - k, d)


# Reference Hodge coefficient and pairing: the chains the coefficient-array
# code replaced, flat rows wedged by wedge_all with the arithmetic on AltForms,
# and the np.ix_ gather of the compound.


def _ref_wedge_rows(frame, elem, labels):
    return wedge_all([flat(frame[i - 1]) for i in _ref_row_index(elem, labels)], d=len(frame))


def _ref_hodge_coefficient(T, elem):
    primal, dual = _frames(T, elem.e)
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
    idx = _basis_table(e.dim, T.dim, k)[0]
    primal, dual = _frames(T, e)
    return compound(primal @ dual.T, k)[np.ix_(idx, idx)]


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
                    assert _basis_table(e.dim, d, k)[0] == _ref_compound_positions(labels, e, k)

    @given(st.integers(0, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d), st.integers(0, d))))
    def test_table_properties(self, dsk):
        d, s, k = dsk
        idx, elements, flat_index = _basis_table(s, d, k)
        rows = _table_rows(s, d, k)
        assert sorted(idx) == list(range(binomial(d, k)))
        # the pairing gather: entry (i, j) is the flat position of (idx[i], idx[j])
        n = binomial(d, k)
        assert not flat_index.flags.writeable
        assert np.array_equal(flat_index, np.arange(n * n).reshape(n, n)[np.ix_(idx, idx)])
        assert [sequences(k, d)[i] for i in idx] == rows
        # face dimension s + (number of normals) never decreases
        counts = [bin(m).count("1") for _, m in elements]
        assert counts == sorted(counts)
        # the complementary rows of degree k run once through those of degree d - k
        assert sorted(complement(r, d) for r in rows) == sorted(_table_rows(s, d, d - k))

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
        # 0-form, so t-n bases are built on full-dimensional cells only
        T = GeometricSimplex(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        e = simplex(0)
        msg = "full-dimensional cell, got dim 2 in ambient dim 3"
        with pytest.raises(ValueError, match=msg):
            realize_all(T, e, 1)
        with pytest.raises(ValueError, match=msg):
            realize(decompose_altk(T, e, 0)[0], T)
        with pytest.raises(ValueError, match=msg):
            pairing_matrix(T, e, 1)
        with pytest.raises(ValueError, match=msg):
            hodge_coefficient(T, decompose_altk(T, e, 1, "dual")[0])

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
        # an element's flavor is checked after its anchor and before its face
        with pytest.raises(ValueError, match="defined for dual-flavor elements"):
            hodge_coefficient(T, TnBasisElement(simplex(0), simplex(0, 7), ()))

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
                        assert faces[partner_mask] == _position_mask(T, partner.f.vertices)
                        seen.add((el.f, el.sigma))
                assert len(seen) == len(_element_table(e.dim, d)) == 2**d

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
        elements = sum(len(_element_table(s, d)) for d in dims for s in range(d + 1))
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
                            assert T._masked[_position_mask(T, el.f.vertices)] is el.f
                    hodge_coefficient(T, decompose_altk(T, e, k, "dual")[-1])
            assert len(T._masked) <= 2 ** (d + 1) - 1
        assert sorted(T._masked) == list(range(1, 2 ** (d + 1)))


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

    def test_one_frame_build_per_call(self, monkeypatch):
        import tnforms.tnbasis as tnbasis

        calls = []

        def counted(*args):
            calls.append(args)
            return nef_frames(*args)

        monkeypatch.setattr(tnbasis, "nef_frames", counted)
        T, e = random_simplex(4, RNG), simplex(1, 3)
        for flavor in FLAVORS:
            realize_all(T, e, 2, flavor)
        hodge_coefficient(T, decompose_altk(T, e, 2, "dual")[0])
        pairing_matrix(T, e, 2)
        assert len(calls) == 4

    def test_element_positions_are_cached_by_dimensions(self):
        T1, e = random_simplex(3, RNG), simplex(0, 2)
        T2 = GeometricSimplex(random_simplex(3, RNG).vertices, labels=(2, 5, 7, 9))
        pairing_matrix(T1, e, 2)
        size = _basis_table.cache_info().currsize
        # the other flavor, another anchor of the same dimension and a cell with
        # other labels add no table
        realize_all(T1, e, 2, "dual")
        realize_all(T1, simplex(1, 3), 2)
        pairing_matrix(T2, simplex(5, 9), 2)
        decompose_altk(T2, simplex(2, 7), 2, "dual")
        assert _basis_table.cache_info().currsize == size
        assert all(type(i) is int for i in _basis_table(1, 3, 2)[0])
        # one table per (dim e, d, k)
        _basis_table.cache_clear()
        for d in range(1, 7):
            T = random_simplex(d, RNG)
            for g in all_subsimplices(T):
                for k in range(d + 1):
                    pairing_matrix(T, g, k)
                    decompose_altk(T, g, k)
        assert _basis_table.cache_info().currsize <= sum((d + 1) ** 2 for d in range(1, 7))

    def test_rejected_anchors_build_no_table(self):
        # the anchor is checked before the table is built, so an anchor with more
        # labels than the cell leaves no table keyed by its size; the degree is still checked first
        T = reference_simplex(3)
        decompose_altk(T, simplex(0, 1), 1)
        size = _basis_table.cache_info().currsize
        for m in range(5, 40):
            with pytest.raises(ValueError, match=r"^anchor e=\(0, 1, 2, .* is not a face"):
                decompose_altk(T, simplex(*range(m)), 1)
            with pytest.raises(ValueError, match="got k=5, d=3"):
                decompose_altk(T, simplex(*range(m)), 5)
        assert _basis_table.cache_info().currsize == size

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
                    if d <= 4:
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
                        ref_c, ref_partner, residual = _ref_hodge_coefficient(T, el)
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
        # both frame matrices are read-only views of the cell's one n-e-f array
        T = random_simplex(4, RNG)
        for e in all_subsimplices(T):
            primal, dual = _frames(T, e)
            assert primal.shape == dual.shape == (4, 4)
            assert not (primal.flags.writeable or dual.flags.writeable)
            assert primal.base is not None and primal.base is dual.base
            fs = nef_frames(T, T.full_simplex(), e)
            assert np.array_equal(primal, np.vstack([fs.tangents, fs.normals_face]))
            assert np.array_equal(dual, np.vstack([fs.tangents, fs.normals_tn]))


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
        unit = random_simplex(d, np.random.default_rng(50 + d))
        elems = [el for e in all_subsimplices(unit) for k in range(d + 1) for el in decompose_altk(unit, e, k, "dual")]
        want = [hodge_coefficient(unit, el) for el in elems]
        for scale in (1e-6, 1e3, 1e6):
            T = GeometricSimplex(scale * unit.vertices)
            for el, (c0, partner0) in zip(elems, want):
                c, partner = hodge_coefficient(T, el)
                assert partner == partner0
                assert abs(c / c0 * scale ** (2 * el.f.dim - d - el.e.dim) - 1.0) < 1e-10

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
