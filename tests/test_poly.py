import re
import tracemalloc
import warnings
from functools import lru_cache
from math import factorial, prod

import numpy as np
import pytest
import sympy

from tnforms import poly
from tnforms.combinatorics import AbstractSimplex, binomial, simplex, subsimplices
from tnforms.poly import (
    MAX_DEGREE,
    bernstein_moments,
    embed_lattice_index,
    interpolation_points,
    lattice,
    lattice_carrier,
    lattice_dimension,
    monomial_values_at,
    multiply_bernstein,
    nodal_to_bernstein,
    nodal_vandermonde,
    restrict_lattice_index,
)
from tnforms.simplex import (
    GeometricSimplex,
    barycentric_coordinates,
    random_simplex,
    reference_simplex,
)

RNG = np.random.default_rng(99)


@lru_cache(maxsize=None)
def lattice_position(dim, r):
    """Position of every multi-index of degree r in the lattice order."""
    return {a: i for i, a in enumerate(lattice(dim, r))}


def _bernstein_eval(coeffs, r, x, T):
    """sum_alpha c_alpha lambda(x)^alpha at one point x of T."""
    return float(monomial_values_at(T.dim, r, barycentric_coordinates(T, x))[0] @ np.asarray(coeffs))


def duffy_quadrature_integral(alpha, T, order):
    """Independent moment oracle: tensor Gauss-Legendre through the Duffy map."""
    m = T.dim
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    total = 0.0
    from itertools import product

    for combo in product(range(order), repeat=m):
        u = nodes[list(combo)]
        w = np.prod(weights[list(combo)])
        x = np.empty(m)
        remaining = 1.0
        jac = 1.0
        for j in range(m):
            x[j] = u[j] * remaining
            jac *= remaining
            remaining -= x[j]
        lam = np.concatenate([[1.0 - x.sum()], x])
        total += w * jac * np.prod(lam ** np.asarray(alpha))
    return total * T.volume * factorial(m)


class TestLattice:
    def test_dim1_degree1(self):
        assert lattice(1, 1) == [(0, 1), (1, 0)]

    def test_dim2_degree2(self):
        got = lattice(2, 2)
        assert len(got) == 6
        assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_constant(self):
        assert lattice(3, 0) == [(0, 0, 0, 0)]

    def test_negative_degree_is_empty(self):
        assert lattice(2, -1) == []

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: lattice(-1, 2),
            lambda: monomial_values_at(-1, 2, np.zeros((3, 0))),
            lambda: multiply_bernstein(np.ones(1), 0, np.ones(1), 0, dim=-1),
            lambda: nodal_vandermonde(-1, 2),
            lambda: nodal_to_bernstein(-1, 2),
            lambda: lattice_dimension(-1, 2),
        ],
        ids=[
            "lattice",
            "monomial_values_at",
            "multiply_bernstein",
            "nodal_vandermonde",
            "nodal_to_bernstein",
            "lattice_dimension",
        ],
    )
    def test_negative_dim_rejected(self, entry):
        # used to recurse without end, to RecursionError; lattice_dimension returned 0
        with pytest.raises(ValueError, match=r"dim=-1"):
            entry()

    @pytest.mark.parametrize("dim,r", [(1, 4), (2, 3), (3, 5)])
    def test_counts(self, dim, r):
        assert len(lattice(dim, r)) == binomial(r + dim, dim)


class TestInterpolationPoints:
    def test_degree_one_gives_vertices(self):
        T = random_simplex(2, RNG)
        pts = interpolation_points(T, 1)
        # lattice order (0,0,1), (0,1,0), (1,0,0) lists vertices 2, 1, 0
        assert np.allclose(pts, T.vertices[[2, 1, 0]])

    def test_edge_midpoint_carrier(self):
        T = GeometricSimplex(np.array([[0.0], [1.0]]))
        pts = interpolation_points(T, 2)
        idx = lattice(1, 2).index((1, 1))
        assert np.allclose(pts[idx], [0.5])
        assert lattice_carrier((1, 1)) == (0, 1)

    def test_interior_carrier(self):
        assert lattice_carrier((1, 2, 1)) == (0, 1, 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            interpolation_points(random_simplex(2, RNG), 0)


def _lagrange_values(T, r, points):
    """Every Lagrange basis function of degree r at each point, one row per point."""
    lams = np.array([barycentric_coordinates(T, x) for x in points])
    return monomial_values_at(T.dim, r, lams) @ nodal_to_bernstein(T.dim, r)


class TestLagrange:
    def test_degree_one_is_barycentric(self):
        T = random_simplex(2, RNG)
        points = RNG.uniform(size=(5, 2))
        lams = np.array([barycentric_coordinates(T, x) for x in points])
        # lattice order (0,0,1), (0,1,0), (1,0,0) lists lambda_2, lambda_1, lambda_0
        assert np.max(np.abs(_lagrange_values(T, 1, points) - lams[:, ::-1])) < 1e-12

    @pytest.mark.parametrize("d,r", [(1, 3), (2, 3), (2, 4), (3, 2), (3, 4)])
    def test_nodal_duality(self, d, r):
        T = random_simplex(d, RNG)
        vals = _lagrange_values(T, r, interpolation_points(T, r))
        assert np.max(np.abs(vals - np.eye(lattice_dimension(d, r)))) < 1e-10

    def test_partition_of_unity(self):
        T = random_simplex(3, RNG)
        vals = _lagrange_values(T, 3, RNG.uniform(size=(5, 3)))
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-11


class TestBernstein:
    def test_vertex_value(self):
        T = GeometricSimplex(np.array([[0.0], [1.0]]))
        # lattice (0,1), (1,0): coefficient of lambda_0
        assert abs(_bernstein_eval([0.0, 1.0], 1, np.array([0.0]), T) - 1.0) < 1e-14

    def test_bubble_vanishes_on_boundary(self):
        T = random_simplex(2, RNG)
        # b_T = lambda_0 lambda_1 lambda_2 at boundary lattice points
        coeffs = np.zeros(lattice_dimension(2, 3))
        coeffs[lattice(2, 3).index((1, 1, 1))] = 1.0
        pts = interpolation_points(T, 3)
        for alpha, x in zip(lattice(2, 3), pts):
            if 0 in alpha:
                assert abs(_bernstein_eval(coeffs, 3, x, T)) < 1e-12

    def test_against_symbolic_expansion(self):
        # oracle: expand lambda^alpha into monomials in (x, y) with sympy
        T = reference_simplex(2)
        x, y = sympy.symbols("x y")
        lams = [1 - x - y, x, y]
        r = 3
        coeffs = RNG.standard_normal(lattice_dimension(2, r))
        expr = sum(
            c * lams[0] ** a[0] * lams[1] ** a[1] * lams[2] ** a[2]
            for c, a in zip(coeffs, lattice(2, r))
        )
        poly = sympy.expand(expr)
        for _ in range(10):
            pt = RNG.uniform(size=2)
            want = float(poly.subs({x: pt[0], y: pt[1]}))
            assert abs(_bernstein_eval(coeffs, r, pt, T) - want) < 1e-11


def moment(alpha, T):
    """Entry of the moment vector for lambda^alpha."""
    r = sum(alpha)
    return bernstein_moments(T, r)[lattice_position(T.dim, r)[alpha]]


class TestMoments:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_moments_build_no_face_table(self, d):
        # the moments scale the cell's construction-time volume: no face QR runs
        T = random_simplex(d, RNG)
        assert bernstein_moments(T, 0).tolist() == [T.volume]
        bernstein_moments(T, 3)
        assert "_levels" not in vars(T)

    def test_constant_moment_is_volume(self):
        T = random_simplex(3, RNG)
        assert abs(moment((0, 0, 0, 0), T) - T.volume) < 1e-14

    def test_interval_lambda0_lambda1(self):
        T = GeometricSimplex(np.array([[0.0], [2.0]]))
        # integral of x (1 - x) scaled to length-2 interval
        assert abs(moment((1, 1), T) - T.volume / 6.0) < 1e-14

    def test_triangle_centroid_coordinate(self):
        T = random_simplex(2, RNG)
        assert abs(moment((1, 0, 0), T) - T.volume / 3.0) < 1e-14

    @pytest.mark.parametrize("d,r", [(1, 4), (2, 3), (3, 2)])
    def test_against_duffy_quadrature(self, d, r):
        T = random_simplex(d, RNG)
        vec = bernstein_moments(T, r)
        pos = lattice_position(d, r)
        for alpha in lattice(d, r):
            want = duffy_quadrature_integral(alpha, T, order=r + 2)
            got = vec[pos[alpha]]
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_vertex_moment_is_evaluation(self):
        v = GeometricSimplex(np.array([[0.7, 0.1]]))
        assert moment((5,), v) == 1.0


class TestProductsAndConversions:
    def test_multiply_bernstein(self):
        T = random_simplex(2, RNG)
        c1 = RNG.standard_normal(lattice_dimension(2, 2))
        c2 = RNG.standard_normal(lattice_dimension(2, 1))
        prod = multiply_bernstein(c1, 2, c2, 1, 2)
        x = RNG.uniform(size=2)
        a = _bernstein_eval(c1, 2, x, T)
        b = _bernstein_eval(c2, 1, x, T)
        ab = _bernstein_eval(prod, 3, x, T)
        assert abs(ab - a * b) < 1e-11

    @pytest.mark.parametrize("d,r", [(1, 3), (2, 4), (3, 3)])
    def test_nodal_roundtrip(self, d, r):
        V = nodal_vandermonde(d, r)
        Vinv = nodal_to_bernstein(d, r)
        n = lattice_dimension(d, r)
        assert np.max(np.abs(V @ Vinv - np.eye(n))) < 1e-9

    @pytest.mark.parametrize("d,r", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
    def test_equals_correctly_rounded_exact_inverse(self, d, r):
        # oracle: the inverse of the rational Vandermonde, each entry rounded once by int / int
        nodes = lattice(d, r)
        V = sympy.Matrix([[sympy.prod([sympy.Rational(b, r) ** a for a, b in zip(alpha, beta)]) for alpha in nodes] for beta in nodes])
        want = np.array([[int(x.p) / int(x.q) for x in row] for row in V.inv().tolist()])
        assert np.array_equal(nodal_to_bernstein(d, r), want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_numerators_are_exact_below_2_53(self, d):
        # Every product and partial sum of Silvester's integer numerators is at
        # most the sum of its terms' magnitudes, accumulated here in exact int64;
        # below 2^53 the float product is exact, so the matrix is those integers
        # divided once by gamma!.
        for r in range(1, MAX_DEGREE + 1):
            num, largest = _ref_lagrange_numerators(d, r)
            assert largest < 2**53, r
            gamma_factorials = np.array([prod(map(factorial, g)) for g in lattice(d, r)], dtype=float)
            assert np.array_equal(nodal_to_bernstein(d, r), num.astype(float) / gamma_factorials), r

    def test_round_trip_on_dim_4_degree_8(self):
        V, N = nodal_vandermonde(4, 8), nodal_to_bernstein(4, 8)
        rng = np.random.default_rng(31)
        for _ in range(20):
            c = rng.standard_normal(len(V))
            assert np.abs(N @ (V @ c) - c).max() <= 2e-11 * np.abs(c).max()

    def test_ill_conditioned_conversion_rejected(self, monkeypatch):
        monkeypatch.setattr(poly, "MAX_CONDITION", 10.0)
        with pytest.raises(ValueError, match=r"ill-conditioned at \(dim=2, r=4\)"):
            nodal_to_bernstein.__wrapped__(2, 4)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            nodal_vandermonde(2, 11)

    def test_extension_restricts_back(self):
        # polynomial on a face, extended by barycentric functions, restricts to itself
        T = random_simplex(3, RNG)
        f = simplex(0, 2)
        face = GeometricSimplex(T.vertices[list(f.vertices)], labels=f.vertices)
        r = 3
        face_coeffs = RNG.standard_normal(lattice_dimension(1, r))
        full = np.zeros(lattice_dimension(3, r))
        for c, beta in zip(face_coeffs, lattice(1, r)):
            full[lattice(3, r).index(embed_lattice_index(beta, f, T.full_simplex()))] = c
        for x in interpolation_points(face, r):
            assert abs(_bernstein_eval(full, r, x, T) - _bernstein_eval(face_coeffs, r, x, face)) < 1e-10

    def test_restrict_embed_roundtrip(self):
        f = simplex(1, 3)
        beta = (2, 1)
        assert restrict_lattice_index(embed_lattice_index(beta, f, simplex(*range(5))), f, simplex(*range(5))) == beta
        assert restrict_lattice_index((2, 0, 1), simplex(0, 2), simplex(0, 1, 2)) == (2, 1)

    def test_relabelled_cell(self):
        # both used to index alpha by label, as if labels were positions
        cell, e = simplex(2, 5, 7, 9), simplex(5, 7)
        assert embed_lattice_index((1, 2), e, cell) == (0, 1, 2, 0)
        assert restrict_lattice_index((0, 1, 2, 0), e, cell) == (1, 2)

    @pytest.mark.parametrize("labels", [(2, 5, 7, 9), (1, 3, 4, 8), (0, 10, 11, 30)])
    def test_relabelled_cell_matches_the_default_labels_under_the_label_map(self, labels):
        cell, default = simplex(*labels), simplex(0, 1, 2, 3)
        to_label = dict(zip(default.vertices, labels))
        for s in range(4):
            for g in subsimplices(default, s):
                e = AbstractSimplex(tuple(to_label[i] for i in g.vertices))
                for r in range(4):
                    for beta in lattice(s, r):
                        alpha = embed_lattice_index(beta, e, cell)
                        assert alpha == embed_lattice_index(beta, g, default)
                        assert restrict_lattice_index(alpha, e, cell) == beta == restrict_lattice_index(alpha, g, default)

    def test_restrict_rejects_mass_outside_e(self):
        # used to return (1,), a degree-1 index from a degree-2 one
        with pytest.raises(ValueError, match=r"\(1, 1, 0\) is positive outside the labels \(0,\) of e"):
            restrict_lattice_index((1, 1, 0), simplex(0), simplex(0, 1, 2))

    @pytest.mark.parametrize("alpha", [(), (1,), (1, 0)])
    def test_restrict_rejects_a_short_index(self, alpha):
        # (1,) used to raise a bare IndexError
        with pytest.raises(ValueError, match=rf"{re.escape(str(alpha))} has {len(alpha)} entries, not one per label of \(0, 1, 2\)"):
            restrict_lattice_index(alpha, simplex(0, 2), simplex(0, 1, 2))

    def test_restrict_rejects_a_long_index_and_a_foreign_e(self):
        with pytest.raises(ValueError, match=r"\(1, 0, 0, 0\) has 4 entries, not one per label of \(0, 1, 2\)"):
            restrict_lattice_index((1, 0, 0, 0), simplex(0, 2), simplex(0, 1, 2))
        with pytest.raises(ValueError, match=r"e=\(0, 3\) is not a face of the cell with labels \(0, 1, 2\)"):
            restrict_lattice_index((1, 0, 0), simplex(0, 3), simplex(0, 1, 2))

    @pytest.mark.parametrize("alpha,labels", [((1, 2, 3), (0, 2)), ((1,), (0, 2)), ((1, 2), (0, 4))])
    def test_embed_rejects_a_mismatch(self, alpha, labels):
        # the first used to drop the 3, the last to raise a bare IndexError
        with pytest.raises(ValueError, match=r"does not embed in the labels \(0, 1, 2, 3\)"):
            embed_lattice_index(alpha, simplex(*labels), simplex(0, 1, 2, 3))


@lru_cache(maxsize=None)
def _ref_raise(dim, t):
    """Per m, the position of alpha + e_m in lattice(dim, t + 1) for each alpha in lattice(dim, t)."""
    pos = lattice_position(dim, t + 1)
    return [np.array([pos[a[:m] + (a[m] + 1,) + a[m + 1 :]] for a in lattice(dim, t)]) for m in range(dim + 1)]


def _ref_lagrange_numerators(dim, r):
    """Node by node, the product of r lambda_i - j sum lambda over j < gamma_i, in int64, and a bound on every intermediate."""
    nodes = lattice(dim, r)
    num = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    largest = 0
    for col, gamma in enumerate(nodes):
        cur, mag = np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        for t, (i, j) in enumerate((i, j) for i, g in enumerate(gamma) for j in range(g)):
            nxt = np.zeros(lattice_dimension(dim, t + 1), dtype=np.int64)
            nxt_mag = np.zeros_like(nxt)
            for m, to in enumerate(_ref_raise(dim, t)):
                nxt[to] += cur * ((r if m == i else 0) - j)
                nxt_mag[to] += mag * abs((r if m == i else 0) - j)
            cur, mag = nxt, nxt_mag
            largest = max(largest, int(mag.max()))
        num[:, col] = cur
    return num, largest


def _ref_monomial_values(dim, r, lams):
    """The per-point product loop that monomial_values_at replaced."""
    idx = np.array(lattice(dim, r), dtype=int).reshape(-1, dim + 1)
    rows = [np.prod(np.power(lam[None, :], idx), axis=1) for lam in np.atleast_2d(lams)]
    return np.array(rows).reshape(len(rows), len(idx))


class TestMonomialValues:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    def test_matches_per_point_loop(self, dim):
        inside = RNG.dirichlet(np.ones(dim + 1), size=32)
        outside = RNG.standard_normal((8, dim + 1))
        vertices = np.eye(dim + 1, dtype=int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # finite rows warn nothing
            for lams in (inside, outside, inside[0], vertices, inside[:0]):
                for r in range(-1, MAX_DEGREE + 1):
                    got = monomial_values_at(dim, r, lams)
                    assert got.shape == (len(np.atleast_2d(lams)), lattice_dimension(dim, r))
                    assert got.dtype == np.float64 and got.flags.c_contiguous
                    assert np.array_equal(got, _ref_monomial_values(dim, r, lams))

    def test_vertex_rows_match_per_point_loop(self):
        # many rows make a last-bit change in pow show, at dim = 0 (one monomial, lambda_0^r) and above
        for dim in range(5):
            lams = RNG.standard_normal((2048, dim + 1))
            for r in range(-1, MAX_DEGREE + 1):
                assert np.array_equal(monomial_values_at(dim, r, lams), _ref_monomial_values(dim, r, lams))

    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    def test_non_finite_rows_match_per_point_loop(self, dim):
        lams = RNG.standard_normal((64, dim + 1))
        lams[RNG.random(lams.shape) < 0.3] = np.inf
        lams[RNG.random(lams.shape) < 0.2] = -np.inf
        lams[RNG.random(lams.shape) < 0.2] = np.nan
        lams[RNG.random(lams.shape) < 0.2] = 0.0
        lams[RNG.random(lams.shape) < 0.1] = -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf * 0 in the products, here and in the loop
            for r in range(-1, MAX_DEGREE + 1):
                got, want = monomial_values_at(dim, r, lams), _ref_monomial_values(dim, r, lams)
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_nodal_vandermonde_matches_per_point_loop(self, dim):
        for r in range(1, MAX_DEGREE + 1):
            pts = np.array(lattice(dim, r), dtype=float) / r
            assert np.array_equal(nodal_vandermonde(dim, r), _ref_monomial_values(dim, r, pts))

    @pytest.mark.parametrize("width", [2, 4])
    def test_wrong_row_width_rejected(self, width):
        with pytest.raises(ValueError, match=rf"dim \+ 1 = 3 .*\(5, {width}\)"):
            monomial_values_at(2, 2, np.full((5, width), 0.25))

    def test_working_set_is_bounded_by_the_result(self):
        pts = np.array(lattice(4, 8), dtype=float) / 8
        monomial_values_at(4, 8, pts)  # the offset table is cached from here on
        tracemalloc.start()
        try:
            got = monomial_values_at(4, 8, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (495, 495)
        assert peak <= 3 * got.nbytes


def _ref_multiply_bernstein(c1, r1, c2, r2, dim):
    """The product as a loop over the lattice pairs, in table order."""
    pos = lattice_position(dim, r1 + r2)
    out = np.zeros(lattice_dimension(dim, r1 + r2))
    for a, x in zip(lattice(dim, r1), c1):
        for b, y in zip(lattice(dim, r2), c2):
            out[pos[tuple(i + j for i, j in zip(a, b))]] += x * y
    return out


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
def test_multiply_bernstein_matches_pair_loop(dim):
    for r1 in range(-1, 5):
        for r2 in range(-1, 5):
            c1 = RNG.standard_normal(lattice_dimension(dim, r1))
            c2 = RNG.standard_normal(lattice_dimension(dim, r2))
            got = multiply_bernstein(c1, r1, c2, r2, dim)
            assert got.dtype == np.float64
            assert np.array_equal(got, _ref_multiply_bernstein(c1, r1, c2, r2, dim))


def test_product_length_mismatch_rejected():
    # swapped vectors would pass bincount's total-length check and give a wrong product
    c1, c2 = np.ones(lattice_dimension(2, 2)), np.ones(lattice_dimension(2, 3))
    with pytest.raises(ValueError, match=r"^degrees \(2, 3\) on dim 2 need coefficient lengths \(6, 10\), got \(10, 6\)$"):
        multiply_bernstein(c2, 2, c1, 3, 2)
    with pytest.raises(ValueError, match=r"^degrees \(2, 3\) on dim 2 need coefficient lengths \(6, 10\), got \(6, 9\)$"):
        multiply_bernstein(c1, 2, c2[:-1], 3, 2)
    with pytest.raises(ValueError, match=r"^degrees \(-1, 1\) on dim 1 need coefficient lengths \(0, 2\), got \(1, 2\)$"):
        multiply_bernstein(np.ones(1), -1, np.ones(2), 1, 1)


def _ref_product_index(dim, r1, r2):
    """The pair loop over position dicts that the lattice rank replaced."""
    pos = lattice_position(dim, r1 + r2)
    l1, l2 = lattice(dim, r1), lattice(dim, r2)
    table = np.empty((len(l1), len(l2)), dtype=int)
    for i, a in enumerate(l1):
        for j, b in enumerate(l2):
            table[i, j] = pos[tuple(x + y for x, y in zip(a, b))]
    return table


def _ref_moment_weights(dim, r):
    """The factorial loop that the factorial table replaced."""
    return np.array(
        [np.prod([factorial(a) for a in alpha]) * factorial(dim) / factorial(r + dim) for alpha in lattice(dim, r)],
        dtype=float,
    )


def _ref_lattice(dim, r):
    """The recursion that stars and bars replaced: the first entry, ascending, then the lattice of one dimension less."""
    if r < 0:
        return []
    if dim == 0:
        return [(r,)]
    return [(first,) + rest for first in range(r + 1) for rest in _ref_lattice(dim - 1, r - first)]


class TestTables:
    @pytest.mark.parametrize("dim", range(8))
    def test_lattice_array(self, dim):
        for r in range(-1, MAX_DEGREE + 1):
            got = poly._lattice_array(dim, r)
            assert got.dtype == np.intp and got.shape == (lattice_dimension(dim, r), dim + 1)
            assert not got.flags.writeable
            assert lattice(dim, r) == _ref_lattice(dim, r)
            assert got.tolist() == [list(a) for a in lattice(dim, r)]

    @pytest.mark.parametrize("dim", range(7))
    def test_product_index_matches_pair_loop(self, dim):
        for r1 in range(-1, 6):
            for r2 in range(-1, 6):
                got, want = poly._product_index(dim, r1, r2), _ref_product_index(dim, r1, r2)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
                assert not got.flags.writeable

    @pytest.mark.parametrize("dim", range(7))
    def test_moment_weights_match_factorial_loop(self, dim):
        for r in range(-1, MAX_DEGREE + 1):
            got, want = poly._moment_weights(dim, r), _ref_moment_weights(dim, r)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    @pytest.mark.parametrize("dim,r", [(3, 20), (5, 19), (2, 24)])
    def test_moment_weights_do_not_wrap(self, dim, r):
        # the int64 products of the factorial loop wrap once r! dim! passes 2^63
        want = np.array([prod(map(factorial, a)) * factorial(dim) / factorial(r + dim) for a in lattice(dim, r)])
        got = poly._moment_weights(dim, r)
        assert np.max(np.abs(got - want) / want) <= 4 * np.finfo(float).eps

    def test_product_index_working_set(self):
        # no dense (r + 1)^(dim + 1) lookup: a cold table peaks near its own size
        for table in (poly._product_index, poly._lattice_array):
            table.cache_clear()
        tracemalloc.start()
        try:
            got = poly._product_index(6, 5, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (462, 462)
        assert peak <= 6 * got.nbytes


def _points_per_face(d, r):
    """Lattice points of degree r grouped by carrier: {ell: counts of every ell-face}."""
    carried = {}
    for alpha in lattice(d, r):
        carrier = lattice_carrier(alpha)
        carried[carrier] = carried.get(carrier, 0) + 1
    cell = simplex(*range(d + 1))
    per_level = {ell: [carried.pop(f.vertices, 0) for f in subsimplices(cell, ell)] for ell in range(d + 1)}
    assert not carried
    return per_level


class TestLagrangeDecomposition:
    # Each lattice point is carried by the face where its multi-index is
    # positive, so an ell-face carries the interior points of its own degree-r
    # lattice: dim P_{r - ell - 1} of them, the bubble count of P_r.
    def test_quadratic_triangle(self):
        assert _points_per_face(2, 2) == {0: [1, 1, 1], 1: [1, 1, 1], 2: [0]}

    def test_linear_tetrahedron(self):
        assert _points_per_face(3, 1) == {0: [1] * 4, 1: [0] * 6, 2: [0] * 4, 3: [0]}

    def test_quartic_tetrahedron(self):
        assert _points_per_face(3, 4) == {0: [1] * 4, 1: [3] * 6, 2: [3] * 4, 3: [1]}

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_totals_match(self, d):
        for r in range(1, 6):
            per_level = _points_per_face(d, r)
            for ell, counts in per_level.items():
                assert counts == [lattice_dimension(ell, r - ell - 1)] * binomial(d + 1, ell + 1)
            assert sum(map(sum, per_level.values())) == lattice_dimension(d, r)


class TestBarycentricVanishing:
    def test_lambda_vanishes_off_face(self):
        # lambda_i restricted to f is zero whenever i is outside f
        T = random_simplex(3, RNG)
        for f in subsimplices(T.full_simplex(), 1):
            face = GeometricSimplex(T.vertices[list(f.vertices)], labels=f.vertices)
            pts = interpolation_points(face, 3)
            for x in pts:
                lam = barycentric_coordinates(T, x)
                for i in range(4):
                    if i not in f.vertices:
                        assert abs(lam[i]) < 1e-11
