from functools import reduce

import numpy as np
import pytest

from tnforms.combinatorics import binomial, complement, sequence_position, simplex, subsimplices
from tnforms.exterior import AltForm, compound, flat, hodge_star, inner, restrict_to_frame, wedge
from tnforms.exterior import _star
from tnforms.simplex import (
    GeometricSimplex,
    all_subsimplices,
    barycentric_gradients,
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
from tnforms.tnbasis import _frames

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
        T = random_simplex(3, RNG)
        for e in (simplex(7), simplex(2, 9)):
            with pytest.raises(ValueError, match=r"e=\(.*\) is not a face of the cell with labels \(0, 1, 2, 3\)"):
                decompose_altk(T, e, 1)
            with pytest.raises(ValueError, match="is not a face of the cell"):
                pairing_matrix(T, e, 1)

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
        with pytest.raises(ValueError):
            decompose_altk(T, simplex(0), 5)

    def test_validation(self):
        # sigma must be an increasing sequence in 1..dim e
        e = f = simplex(0, 1, 2)
        with pytest.raises(ValueError, match=r"sigma=\(2, 1\) .* 1\.\.2"):
            TnBasisElement(e, f, (2, 1))
        with pytest.raises(ValueError, match=r"sigma=\(3,\) .* 1\.\.2"):
            TnBasisElement(e, f, (3,))


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

    def test_element_positions_are_cached_by_labels(self):
        from tnforms.tnbasis import _compound_positions

        T1, T2, e = random_simplex(3, RNG), random_simplex(3, RNG), simplex(0, 2)
        pairing_matrix(T1, e, 2)
        misses = _compound_positions.cache_info().misses
        # the other flavor and a cell with the same labels build no element again
        realize_all(T1, e, 2, "dual")
        pairing_matrix(T2, e, 2)
        realize_all(T2, e, 2, "primal")
        assert _compound_positions.cache_info().misses == misses
        assert all(type(i) is int for i in _compound_positions(T1.labels, e, 2))

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
                partners = [hodge_coefficient(T, el)[1] for el in decompose_altk(T, e, k, "dual")]
                assert all(p.flavor == "primal" and len(p.sigma) + p.f.dim - p.e.dim == d - k for p in partners)
                idx = [position[p.f, p.sigma] for p in partners]
                assert sorted(idx) == list(range(binomial(d, k)))
                starred = _star(realize_all(T, e, d - k), d - k, d)[idx]
                assert np.array_equal(_ref_hodge_rows(T, e, k), starred)


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
        elems = [decompose_altk(unit, e, k, "dual")[0] for e in all_subsimplices(unit) for k in range(d + 1)]
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
