import numpy as np
import pytest
from hypothesis import given, strategies as st

from tnforms.combinatorics import (
    AbstractSimplex,
    binomial,
    complement,
    inversion_sign,
    sequences,
    simplex,
    subsimplices,
    supersimplices,
)


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

    def test_supersimplices(self):
        got = supersimplices(simplex(1), 1, simplex(0, 1, 2, 3))
        assert [g.vertices for g in got] == [(0, 1), (1, 2), (1, 3)]
        # faces are named by the cell's own labels
        got = supersimplices(simplex(5, 9), 2, simplex(2, 5, 7, 9))
        assert [g.vertices for g in got] == [(2, 5, 9), (5, 7, 9)]
        # an anchor outside the cell has no faces there
        with pytest.raises(ValueError, match="not a face"):
            supersimplices(simplex(7), 1, simplex(0, 1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            AbstractSimplex((1, 1))
        with pytest.raises(ValueError):
            AbstractSimplex(())


def _split_count(cell, e, k):
    """C(d, k) split by the dimension ell of the faces through an s-dimensional anchor e.

    Each ell-face containing e carries C(s, k - (ell - s)) tangential choices.
    """
    s = e.dim
    return sum(
        len(supersimplices(e, ell, cell)) * binomial(s, k - (ell - s))
        for ell in range(max(s, k), min(k + s, cell.dim) + 1)
    )


class TestVandermonde:
    # the faces that supersimplices enumerates satisfy the Vandermonde
    # identity C(d, k) = sum_ell C(d - s, ell - s) C(s, k - ell + s)

    def test_d3_k1_s1(self):
        # the edge itself times 1 plus its 2 triangles times 1
        assert _split_count(simplex(0, 1, 2, 3), simplex(1, 2), 1) == 3

    @pytest.mark.parametrize("d", range(7))
    def test_s_zero_single_term(self, d):
        cell = AbstractSimplex(tuple(range(5, 6 + d)))
        for k in range(d + 1):
            assert len(supersimplices(simplex(5 + d), k, cell)) == binomial(d, k)

    def test_exhaustive(self):
        for d in range(7):
            cell = AbstractSimplex(tuple(range(1, 2 * d + 2, 2)))
            for k in range(d + 1):
                for s in range(d + 1):
                    for e in subsimplices(cell, s):
                        assert _split_count(cell, e, k) == binomial(d, k)
