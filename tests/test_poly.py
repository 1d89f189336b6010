import tracemalloc

import numpy as np
import pytest
import sympy

from tnforms.combinatorics import binomial, simplex, subsimplices
from tnforms.poly import (
    MAX_DEGREE,
    bernstein_moments,
    embed_lattice_index,
    interpolation_points,
    lagrange_decomposition_dims,
    lagrange_eval,
    lattice,
    lattice_carrier,
    lattice_dimension,
    lattice_position,
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
    subsimplex_geometry,
)

RNG = np.random.default_rng(99)


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
    from math import factorial

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


class TestLagrange:
    def test_degree_one_is_barycentric(self):
        T = random_simplex(2, RNG)
        x = RNG.uniform(size=2)
        lam = barycentric_coordinates(T, x)
        for i, alpha in enumerate([(0, 0, 1), (0, 1, 0), (1, 0, 0)]):
            assert abs(lagrange_eval(alpha, x, T) - lam[2 - i]) < 1e-12

    @pytest.mark.parametrize("d,r", [(1, 3), (2, 3), (2, 4), (3, 2), (3, 4)])
    def test_nodal_duality(self, d, r):
        T = random_simplex(d, RNG)
        pts = interpolation_points(T, r)
        for a_idx, alpha in enumerate(lattice(d, r)):
            vals = [lagrange_eval(alpha, x, T) for x in pts]
            expect = np.zeros(len(pts))
            expect[a_idx] = 1.0
            assert np.max(np.abs(np.array(vals) - expect)) < 1e-10

    def test_partition_of_unity(self):
        T = random_simplex(3, RNG)
        for _ in range(5):
            x = RNG.uniform(size=3)
            total = sum(lagrange_eval(alpha, x, T) for alpha in lattice(3, 3))
            assert abs(total - 1.0) < 1e-11


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

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            nodal_vandermonde(2, 11)

    def test_extension_restricts_back(self):
        # polynomial on a face, extended by barycentric functions, restricts to itself
        T = random_simplex(3, RNG)
        f = simplex(0, 2)
        face = subsimplex_geometry(T, f)
        r = 3
        face_coeffs = RNG.standard_normal(lattice_dimension(1, r))
        full = np.zeros(lattice_dimension(3, r))
        for c, beta in zip(face_coeffs, lattice(1, r)):
            full[lattice(3, r).index(embed_lattice_index(beta, f, 4))] = c
        for x in interpolation_points(face, r):
            assert abs(_bernstein_eval(full, r, x, T) - _bernstein_eval(face_coeffs, r, x, face)) < 1e-10

    def test_restrict_embed_roundtrip(self):
        f = simplex(1, 3)
        beta = (2, 1)
        assert restrict_lattice_index(embed_lattice_index(beta, f, 5), f) == beta


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
        for lams in (inside, outside, inside[0], vertices):
            for r in range(-1, MAX_DEGREE + 1):
                got = monomial_values_at(dim, r, lams)
                assert got.shape == (len(np.atleast_2d(lams)), lattice_dimension(dim, r))
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert np.array_equal(got, _ref_monomial_values(dim, r, lams))

    def test_vertex_rows_match_per_point_loop(self):
        # dim = 0 has one monomial, lambda_0^r; many rows make a last-bit change in pow show
        lams = RNG.standard_normal((2048, 1))
        for r in range(-1, MAX_DEGREE + 1):
            assert np.array_equal(monomial_values_at(0, r, lams), _ref_monomial_values(0, r, lams))

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


class TestLagrangeDecomposition:
    def test_quadratic_triangle(self):
        table = lagrange_decomposition_dims(2, 2)
        assert table["total"] == 6 == table["expected"]
        assert table["per_level"][0] == {"faces": 3, "dim_per_face": 1}
        assert table["per_level"][1] == {"faces": 3, "dim_per_face": 1}
        assert table["per_level"][2]["dim_per_face"] == 0

    def test_linear_tetrahedron(self):
        table = lagrange_decomposition_dims(3, 1)
        assert table["total"] == 4
        assert table["per_level"][0]["faces"] == 4

    def test_quartic_tetrahedron(self):
        table = lagrange_decomposition_dims(3, 4)
        assert table["total"] == 35 == table["expected"]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_totals_match(self, d):
        for r in range(1, 6):
            table = lagrange_decomposition_dims(d, r)
            assert table["total"] == table["expected"]


class TestBarycentricVanishing:
    def test_lambda_vanishes_off_face(self):
        # lambda_i restricted to f is zero whenever i is outside f
        T = random_simplex(3, RNG)
        for f in subsimplices(T.full_simplex(), 1):
            face = subsimplex_geometry(T, f)
            pts = interpolation_points(face, 3)
            for x in pts:
                lam = barycentric_coordinates(T, x)
                for i in range(4):
                    if i not in f.vertices:
                        assert abs(lam[i]) < 1e-11
