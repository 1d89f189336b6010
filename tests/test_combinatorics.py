import inspect
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tnforms.combinatorics as combinatorics
from tnforms.combinatorics import (
    AbstractSimplex,
    binomial,
    complement,
    inversion_sign,
    sequences,
    simplex,
    subsimplices,
    _face_index,
)
from tnforms.simplex import GeometricSimplex, reference_simplex
from tnforms.tnbasis import decompose_altk


def _cell(labels):
    """A geometric cell on these labels; decompose_altk reads only its labels."""
    return GeometricSimplex(reference_simplex(len(labels) - 1).vertices, labels=labels)


def _faces(T, e, k):
    """The distinct faces that decompose_altk puts the degree-k elements of anchor e on."""
    return sorted({el.f for el in decompose_altk(T, e, k)})


def _ref_subsimplices(f, s):
    """The s-faces of f as one checked simplex per combination of its labels: the reference for the face tables."""
    return [AbstractSimplex(c) for c in combinations(f.vertices, s + 1)]


def sign_oracle(perm):
    """Sign via the determinant of the permutation matrix."""
    n = len(perm)
    P = np.zeros((n, n))
    for i, p in enumerate(perm):
        P[i, p - 1] = 1.0
    return int(round(np.linalg.det(P)))


class TestIncreasingSequences:
    def test_singletons(self):
        assert sequences(1, 2) == ((1,), (2,))

    def test_empty_sequence(self):
        assert sequences(0, 3) == ((),)

    def test_two_of_four(self):
        assert sequences(2, 4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    @pytest.mark.parametrize("n", range(9))
    def test_counts(self, n):
        for m in range(n + 1):
            assert len(sequences(m, n)) == binomial(n, m)

    def test_domain_errors(self):
        # outside 0 <= m <= n there is no sequence
        assert sequences(-1, 3) == sequences(4, 3) == ()


class TestComplement:
    def test_examples(self):
        assert complement((1, 3), 4) == (2, 4)
        assert complement((), 3) == (1, 2, 3)
        assert complement(tuple(range(1, 6)), 5) == ()

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, max(n, 1)), max_size=n))))
    def test_involution(self, data):
        n, chosen = data
        s = tuple(sorted(c for c in chosen if c <= n))
        assert complement(complement(s, n), n) == s


class TestPermutationSign:
    # the sign of the permutation (s, s^c) of 1..n, for s increasing
    def test_identity(self):
        assert inversion_sign((1, 2) + (3,)) == 1

    def test_single_inversion(self):
        assert inversion_sign((2,) + (1, 3)) == -1

    @given(st.integers(1, 7), st.data())
    def test_against_determinant_oracle(self, n, data):
        m = data.draw(st.integers(0, n))
        s = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=m, max_size=m))))
        sc = complement(s, n)
        assert inversion_sign(s + sc) == sign_oracle(s + sc)

    def test_split_product_rule(self):
        # sign(s, s^c) * sign(s^c, s) = (-1)^(m (n - m)), exhaustively for n <= 6
        for n in range(7):
            for m in range(n + 1):
                for s in sequences(m, n):
                    sc = complement(s, n)
                    assert inversion_sign(s + sc) * inversion_sign(sc + s) == (-1) ** (m * (n - m))


class TestSimplices:
    def test_edges_of_triangle(self):
        f = simplex(0, 1, 2)
        assert [g.vertices for g in subsimplices(f, 1)] == [(0, 1), (0, 2), (1, 2)]

    def test_faces_of_tetrahedron(self):
        f = simplex(0, 1, 2, 3)
        faces = subsimplices(f, 2)
        assert len(faces) == 4
        assert faces[0].vertices == (0, 1, 2)

    def test_vertices_of_edge(self):
        assert [g.vertices for g in subsimplices(simplex(0, 1), 0)] == [(0,), (1,)]

    def test_range_error(self):
        with pytest.raises(ValueError):
            subsimplices(simplex(0, 1), 2)

    @pytest.mark.parametrize("d", range(8))
    def test_subsimplices_are_the_combinations_of_the_labels(self, d):
        for labels in (tuple(range(d + 1)), tuple(range(1, 2 * d + 2, 2)), tuple(3 * i * i + 4 for i in range(d + 1))):
            f = AbstractSimplex(labels)
            for s in range(d + 1):
                faces = subsimplices(f, s)
                assert faces == _ref_subsimplices(f, s)
                assert all(type(g.vertices) is tuple and all(type(i) is int for i in g) for g in faces)
                assert all(a is b for a, b in zip(faces, subsimplices(f, s)))  # the simplex's own face objects
            assert list(f._faces.values()) == [g for s in range(d + 1) for g in _ref_subsimplices(f, s)]
            assert all(f._faces[f._masks[g.vertices]] is g for g in f._faces.values())

    def test_face_tables_call_no_public_function(self, monkeypatch):
        # the tables are filled from the private face enumeration, never from sequences,
        # whose calls the benchmark counts, and name faces without the checked constructor
        def called(*args, **kwargs):
            raise AssertionError("a public function was called")

        _face_index.cache_clear()
        f = AbstractSimplex((1, 4, 6, 9, 10))
        for name, obj in vars(combinatorics).items():
            if not name.startswith("_") and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                monkeypatch.setattr(combinatorics, name, called)
        monkeypatch.setattr(AbstractSimplex, "__post_init__", called)
        with pytest.raises(AssertionError):
            combinatorics.sequences(1, 2)
        assert len(f._masks) == len(f._faces) == 31
        assert f._faces[f._masks[(4, 9)]].vertices == (4, 9)

    def test_faces_through_anchor(self):
        # degree 1 at a vertex: the edges through it
        assert [g.vertices for g in _faces(_cell((0, 1, 2, 3)), simplex(1), 1)] == [(0, 1), (1, 2), (1, 3)]
        # faces are named by the cell's own labels; degree 2 at an edge adds
        # the edge's two triangles to the edge itself
        got = _faces(_cell((2, 5, 7, 9)), simplex(5, 9), 2)
        assert [g.vertices for g in got if g.dim == 2] == [(2, 5, 9), (5, 7, 9)]
        # an anchor outside the cell has no faces there
        with pytest.raises(ValueError, match="not a face"):
            decompose_altk(_cell((0, 1, 2)), simplex(7), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            AbstractSimplex((1, 1))
        with pytest.raises(ValueError):
            AbstractSimplex(())
        with pytest.raises(ValueError, match="non-negative"):
            AbstractSimplex((-1, 0, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            AbstractSimplex((2, 1, 0))

    def test_labels_must_be_integers(self):
        # a float label is rejected, not truncated; numpy integers are labels
        for labels in ((1.5, 2), (1.0, 2), (np.float64(1.0), 2)):
            with pytest.raises(TypeError):
                AbstractSimplex(labels)
        got = AbstractSimplex((np.int64(1), np.int32(4))).vertices
        assert got == (1, 4) and all(type(v) is int for v in got)


def _split_count(T, e, k):
    """C(d, k) split by the dimension ell of the faces through an s-dimensional anchor e.

    Each ell-face containing e carries C(s, k - (ell - s)) tangential choices;
    the faces are those decompose_altk puts the elements on, and there are
    C(d - s, ell - s) of each dimension ell.
    """
    s, d, faces = e.dim, T.dim, _faces(T, e, k)
    per_dim = [sum(f.dim == ell for f in faces) for ell in range(d + 1)]
    window = range(max(s, k), min(k + s, d) + 1)
    assert per_dim == [binomial(d - s, ell - s) if ell in window else 0 for ell in range(d + 1)]
    return sum(per_dim[ell] * binomial(s, k - (ell - s)) for ell in window)


class TestVandermonde:
    # the faces of the t-n elements satisfy the Vandermonde identity
    # C(d, k) = sum_ell C(d - s, ell - s) C(s, k - ell + s)

    def test_d3_k1_s1(self):
        # the edge itself times 1 plus its 2 triangles times 1
        assert _split_count(_cell((0, 1, 2, 3)), simplex(1, 2), 1) == 3

    @pytest.mark.parametrize("d", range(7))
    def test_s_zero_single_term(self, d):
        T = _cell(tuple(range(5, 6 + d)))
        for k in range(d + 1):
            faces = _faces(T, simplex(5 + d), k)
            assert len(faces) == binomial(d, k) and all(f.dim == k for f in faces)

    def test_exhaustive(self):
        for d in range(7):
            T = _cell(tuple(range(1, 2 * d + 2, 2)))
            for k in range(d + 1):
                for s in range(d + 1):
                    for e in subsimplices(T.full_simplex(), s):
                        assert _split_count(T, e, k) == binomial(d, k)
