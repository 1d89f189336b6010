import math
import re
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tnforms import exterior
from tnforms.combinatorics import binomial, inversion_sign, sequence_position, sequences
from tnforms.errors import ORTHONORMAL_RTOL
from tnforms.exterior import (
    AltForm,
    Frame,
    compound,
    contraction,
    evaluate,
    flat,
    hodge_star,
    hodge_star_in_subspace,
    pullback_embed,
    restrict_to_frame,
    volume_coefficient,
    wedge,
    wedge_all,
)
from tnforms.exterior import _star

RNG = np.random.default_rng(1234)

# a matrix entry of size 2^-100..2^100, of either sign, or zero
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda x, negative: -x if negative else x, st.floats(2.0**-100, 2.0**100), st.booleans()),
)


def _matrices(min_rows=0):
    """Matrices of at most 6 x 6, with at least ``min_rows`` rows, of _ENTRY entries."""
    return st.tuples(st.integers(min_rows, 6), st.integers(0, 6)).flatmap(
        lambda shape: st.lists(_ENTRY, min_size=math.prod(shape), max_size=math.prod(shape)).map(
            lambda v: np.reshape(np.array(v, dtype=float), shape)
        )
    )


def _integer_entries(data, size):
    """``size`` small integers as floats, drawn from ``data``: the sums and products of the identities stay exact."""
    return np.array(data.draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)), dtype=float)


def _integer_form(data, d, k):
    """A (d, k)-form of ``_integer_entries`` coefficients."""
    return AltForm(d, k, _integer_entries(data, binomial(d, k)))


def basis_form(d, k, sigma):
    """The basis form dx_sigma."""
    c = np.zeros(binomial(d, k))
    c[sequence_position(k, d)[tuple(sigma)]] = 1.0
    return AltForm(d, k, c)


def random_form(d, k, rng=RNG):
    return AltForm(d, k, rng.standard_normal(binomial(d, k)))


def inner(a, b):
    """The inner product of two forms of one space, in which the dx_sigma are orthonormal."""
    assert (a.d, a.k) == (b.d, b.k)
    return float(np.dot(a.coeffs, b.coeffs))


# Reference loops over index sequences, one per table-driven operation:
# the oracle that the cached tables and compound matrices are checked against.


def _ref_merge_sign(sigma, tau):
    """Sign and sorted union of two disjoint ascending tuples, or None on overlap."""
    if set(sigma) & set(tau):
        return None
    inversions = sum(1 for a in sigma for b in tau if a > b)
    merged = tuple(sorted(sigma + tau))
    return (-1 if inversions % 2 else 1), merged


def _ref_wedge(omega, eta):
    """The sum over disjoint pairs (si, sj), by rising si then sj, of sign * a_si * b_sj, by merged sequence in a dict."""
    d, p, q = omega.d, omega.k, eta.k
    out = {}
    for a, si in zip(omega.coeffs, sequences(p, d)):
        for b, sj in zip(eta.coeffs, sequences(q, d)):
            ms = _ref_merge_sign(si, sj)
            if ms is not None:
                sign, merged = ms
                out[merged] = out.get(merged, 0.0) + sign * a * b
    return AltForm(d, p + q, [out[tau] for tau in sequences(p + q, d)])


def _ref_contraction(omega, v):
    d, k = omega.d, omega.k
    out = np.zeros(binomial(d, k - 1))
    pos = sequence_position(k - 1, d)
    for idx, sig in enumerate(sequences(k, d)):
        a = omega.coeffs[idx]
        if a == 0.0:
            continue
        for i in range(k):
            sub = sig[:i] + sig[i + 1 :]
            out[pos[sub]] += a * (-1) ** i * v[sig[i] - 1]
    return AltForm(d, k - 1, out)


def _ref_permutation_sign(perm):
    """Sign of a permutation of 1..n, the determinant of its permutation matrix."""
    P = np.zeros((len(perm), len(perm)))
    P[np.arange(len(perm)), np.array(perm, dtype=int) - 1] = 1.0
    return int(round(np.linalg.det(P)))


def _ref_hodge_star(omega):
    d, k = omega.d, omega.k
    out = np.zeros(binomial(d, d - k))
    pos = sequence_position(d - k, d)
    for idx, sig in enumerate(sequences(k, d)):
        a = omega.coeffs[idx]
        if a == 0.0:
            continue
        rest = tuple(i for i in range(1, d + 1) if i not in sig)
        out[pos[rest]] += _ref_permutation_sign(sig + rest) * a
    return AltForm(d, d - k, out)


def _ref_evaluate(omega, vectors):
    k, d = omega.k, omega.d
    if k == 0:
        return float(omega.coeffs[0])
    V = np.column_stack(vectors)
    total = 0.0
    for idx, sig in enumerate(sequences(k, d)):
        a = omega.coeffs[idx]
        if a == 0.0:
            continue
        rows = [s - 1 for s in sig]
        total += a * np.linalg.det(V[rows, :])
    return float(total)


def _ref_restrict_to_frame(frame, omega):
    ell, k = frame.size, omega.k
    out = np.empty(binomial(ell, k))
    for idx, tau in enumerate(sequences(k, ell)):
        out[idx] = _ref_evaluate(omega, [frame.vectors[t - 1] for t in tau])
    return AltForm(ell, k, out)


def _ref_pullback_embed(frame, omega_sub):
    ell, k, d = frame.size, omega_sub.k, frame.ambient_dim
    acc = AltForm(d, k, np.zeros(binomial(d, k)))
    for idx, tau in enumerate(sequences(k, ell)):
        c = omega_sub.coeffs[idx]
        if c == 0.0:
            continue
        term = AltForm(d, 0, np.ones(1))
        for t in tau:
            term = _ref_wedge(term, flat(frame.vectors[t - 1]))
        acc = acc + c * term
    return acc


# compound's minors are checked against exact arithmetic, and the fused
# subspace star against the composition it replaced, byte for byte.


def _exact_minor_error(entries, got):
    """|got - minor| and sum |Leibniz term| of one k x k minor, in exact rational arithmetic."""
    k = len(entries)
    exact, size = Fraction(0), Fraction(0)
    for perm in permutations(range(k)):
        term = inversion_sign(perm) * math.prod(Fraction(entries[r][perm[r]]) for r in range(k))
        exact, size = exact + term, size + abs(term)
    return abs(Fraction(got) - exact), size


def _ref_hodge_star_in_subspace(frame, omega):
    """Restrict to the frame, star there, embed back: three forms built."""
    restricted = restrict_to_frame(frame, omega)
    residual = float(np.linalg.norm(restricted.coeffs @ frame._compound(omega.k) - omega.coeffs))
    if residual > ORTHONORMAL_RTOL * omega.norm():
        raise ValueError(f"form not tangential to the span: relative residual {residual / omega.norm():.3e}")
    return pullback_embed(frame, hodge_star(restricted))


def random_frame(ell, d, rng=RNG):
    """ell orthonormal rows in R^d."""
    return Frame(np.linalg.qr(rng.standard_normal((d, d)))[0][:ell])


def assert_matches(got, ref, rtol=1e-13):
    assert (got.d, got.k) == (ref.d, ref.k)
    assert np.linalg.norm(got.coeffs - ref.coeffs) <= rtol * np.linalg.norm(ref.coeffs)


DIMS = range(1, 7)


class TestAgainstReference:
    @pytest.mark.parametrize("d", range(8))
    def test_wedge(self, d):
        # the shuffle table adds each coefficient's terms in the order of the
        # pair sum, so the two agree exactly (up to the sign of a zero)
        for p in range(d + 1):
            for q in range(d - p + 1):
                w, e = random_form(d, p), random_form(d, q)
                got = wedge(w, e)
                assert (got.d, got.k) == (d, p + q) and np.array_equal(got.coeffs, _ref_wedge(w, e).coeffs), (p, q)

    @pytest.mark.parametrize("d", DIMS)
    def test_wedge_all_of_one_forms(self, d):
        for k in range(d + 1):
            factors = [random_form(d, 1) for _ in range(k)]
            chained = AltForm(d, 0, np.ones(1))
            for w in factors:
                chained = wedge(chained, w)
            assert_matches(wedge_all(factors, d=d), chained)
        # only 1-forms: a factor of another degree is rejected
        for other in (0, 2):
            if other <= d:
                with pytest.raises(ValueError, match=rf"wedge_all takes 1-forms, got degrees \[1, {other}\]"):
                    wedge_all([random_form(d, 1), random_form(d, other)], d=d)
        # one ambient space: a factor on another R^n is named, as in wedge
        with pytest.raises(ValueError, match=re.escape(f"ambient dimension mismatch: 1-forms on d = {[d, d + 1]}")):
            wedge_all([random_form(d, 1), random_form(d + 1, 1)], d=d)

    @pytest.mark.parametrize("d", DIMS)
    def test_contraction(self, d):
        # the (1, d - k) shuffle table of the starred wedge adds each
        # coefficient's terms by v's rising index, as the reference loop does,
        # so the two agree exactly
        slot, out, sign = exterior._shuffle_table(1, d - 1, d)
        assert np.array_equal(slot[0], np.arange(d)) and np.array_equal(sign, (-1.0) ** np.arange(d))
        for k in range(1, d + 1):
            w, v = random_form(d, k), RNG.standard_normal(d)
            got = contraction(w, v)
            assert (got.d, got.k) == (d, k - 1) and np.array_equal(got.coeffs, _ref_contraction(w, v).coeffs)

    @pytest.mark.parametrize("d", range(9))
    def test_hodge_star(self, d):
        # one signed reversal stars a single form and a stack of coefficient
        # rows alike: as S runs forward through sequences(k, d), its
        # complement T runs backward through sequences(d - k, d), so the
        # right column of the (k, d - k) shuffle table is the reversed range
        for k in range(d + 1):
            left, right, sign = exterior._shuffle_table(k, d - k, d)
            n = binomial(d, k)
            assert np.array_equal(left, np.arange(n)[None]) and np.array_equal(right, np.arange(n)[None, ::-1])
            rows = RNG.standard_normal((3, n))
            for row, starred in zip(rows, _star(rows, k, d)):
                w = AltForm(d, k, row)
                assert hodge_star(w).coeffs.tobytes() == _ref_hodge_star(w).coeffs.tobytes() == starred.tobytes()

    @pytest.mark.parametrize("d", DIMS)
    def test_evaluate(self, d):
        for k in range(d + 1):
            w, vecs = random_form(d, k), list(RNG.standard_normal((k, d)))
            ref = _ref_evaluate(w, vecs)
            assert abs(evaluate(w, vecs) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("d", DIMS)
    def test_restrict_and_pullback(self, d):
        for ell in range(1, d + 1):
            frame = random_frame(ell, d)
            for k in range(d + 1):
                w = random_form(d, k)
                if k > ell:
                    with pytest.raises(ValueError, match=f"k={k} form to a frame of size ell={ell}"):
                        restrict_to_frame(frame, w)
                    continue
                assert_matches(restrict_to_frame(frame, w), _ref_restrict_to_frame(frame, w))
                w_sub = random_form(ell, k)
                assert_matches(pullback_embed(frame, w_sub), _ref_pullback_embed(frame, w_sub))


class TestCompound:
    def test_orders_minors_lexicographically(self):
        A = RNG.standard_normal((3, 4))
        C = compound(A, 2)
        assert C.shape == (3, 6)
        for r, rows in enumerate(sequences(2, 3)):
            for c, cols in enumerate(sequences(2, 4)):
                assert abs(C[r, c] - np.linalg.det(A[np.ix_(np.subtract(rows, 1), np.subtract(cols, 1))])) < 1e-14

    def test_edge_degrees(self):
        A = RNG.standard_normal((3, 4))
        assert np.array_equal(compound(A, 0), np.ones((1, 1)))
        assert compound(A, 4).shape == (0, 1)
        # the first compound is A exactly, where LU's sign * exp(log|det|)
        # moves most 1 x 1 minors by an ulp; a transposed view as well
        for B in (A, 1e-100 * A.T, 1e100 * A.T):
            got = compound(B, 1)
            assert got.shape == B.shape and got.tobytes() == np.ascontiguousarray(B).tobytes()

    @pytest.mark.parametrize("k, bound", [(2, 2), (3, 5), (4, 10), (5, 17), (6, 30)])
    def test_closed_forms_meet_the_a_priori_bound(self, k, bound):
        # |minor - exact| <= bound * u * sum |Leibniz term|, u = 2^-53: the
        # plan's first-order bound e_k, with e_1 = 0 and e_j = e_a + e_b +
        # C(j, a) for a = j // 2, b = j - a (the factors' errors, one rounded
        # product, then a sum of C(j, a) terms in order).  On random, widely
        # scaled, low-rank, near-singular and integer matrices (exact
        # cancellation); the rational minor is of the float entries
        rng = np.random.default_rng(53 + k)
        m = max(5, k)
        cases = [rng.standard_normal((m, m + 1)) for _ in range(3)]
        # scales past 1e+-(270 / k) are cut there, so every minor stays representable
        cases += [10.0 ** np.clip(e, -270 / k, 270 / k) * rng.standard_normal((m - 1, m)) for e in (-90, -20, 20, 90)]
        low_rank = rng.standard_normal((m, k - 1)) @ rng.standard_normal((k - 1, m))
        cases += [low_rank, low_rank + 1e-12 * rng.standard_normal((m, m))]
        cases += [rng.integers(-3, 4, (m, m)).astype(float)]
        u = Fraction(1, 2**53)
        for A in cases:
            m, n = A.shape
            got = compound(A, k)
            assert got.shape == (binomial(m, k), binomial(n, k))
            for r, rows in enumerate(sequences(k, m)):
                for c, cols in enumerate(sequences(k, n)):
                    entries = [[A[i - 1, j - 1] for j in cols] for i in rows]
                    error, size = _exact_minor_error(entries, got[r, c])
                    assert error <= bound * u * size, (A.shape, rows, cols)

    @given(st.integers(0, 6), st.data(), _matrices())
    def test_closed_forms_scale_exactly(self, k, data, A):
        # A nonzero minor of order i over entries of size 2^-E..2^E is at
        # least 2^(-iE - 52(i - 1)): each of the i - 1 sums that build it,
        # one per split of its rows, keeps at least the ulp of a term.
        # Entries of size 2^-100..2^100 scaled by 2^j have E = 100 + |j|;
        # with kE + 52(k - 1) <= 1022 every product and nonzero sum stays
        # normal, and scaling is exact
        limit = (1022 - 52 * max(k - 1, 0)) // max(k, 1) - 100
        j = data.draw(st.integers(-limit, limit))
        got, want = compound(2.0**j * A, k), 2.0 ** (j * k) * compound(A, k)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(_matrices(min_rows=2), st.data())
    def test_row_swap_negates_second_compound(self, A, data):
        m = A.shape[0]
        p, q = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True).map(sorted))
        swapped = A.copy()
        swapped[[p, q]] = swapped[[q, p]]
        at = sequence_position(2, m)[p + 1, q + 1]
        # + 0.0 makes every zero +0, the one difference x - y and -(y - x) may show
        got, want = compound(swapped, 2)[at] + 0.0, -compound(A, 2)[at] + 0.0
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [(0,), (3,), (2, 3)])
    def test_leading_axes_are_a_batch(self, batch):
        # each matrix of a stack gets its own compound, bit for bit
        rng = np.random.default_rng(47)
        for m in range(5):
            for n in range(6):
                A = rng.standard_normal(batch + (m, n))
                for k in range(min(m, n) + 2):
                    got = compound(A, k)
                    per = [compound(a, k) for a in A.reshape((math.prod(batch), m, n))]
                    ref = np.array(per).reshape(batch + (binomial(m, k), binomial(n, k)))
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (batch, m, n, k)

    @pytest.mark.parametrize("A, k", [(np.ones((3, 4)), -1), (np.ones(4), 1), (np.float64(2.0), 0)])
    def test_bad_input_is_named(self, A, k):
        with pytest.raises(ValueError, match=re.escape(f"got k={k}, shape {np.shape(A)}")):
            compound(A, k)

    def test_cauchy_binet(self):
        A, B = RNG.standard_normal((4, 5)), RNG.standard_normal((5, 3))
        for k in range(4):
            assert np.allclose(compound(A @ B, k), compound(A, k) @ compound(B, k), atol=1e-12)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_plan_takes_only_the_row_sets_read_above(self, k):
        # Each order below k holds only the row sets the order above reads:
        # for a k x n matrix, k <= 6, at most two, so its step takes at most
        # 2 C(n, j) minors where a full lower compound would take C(k, j)
        # C(n, j).  The pruning stays because it was measured: in an
        # in-process A/B on a 2-core Xeon, a variant with full lower
        # compounds made tn_sweep 6 % slower per op and its median op 10 %
        # slower, and took a lone 6 x 6 determinant from 21.9 to 32.7 us
        for n in range(k, 9):
            shape, steps = exterior._laplace_plan(k, k, n)
            assert shape == (1, binomial(n, k))
            for j, left, right, sign in steps:
                assert left.shape == right.shape == (left.shape[0], binomial(j, j // 2)) and sign.shape == left.shape[1:]
                assert left.shape[0] <= (1 if j == k else 2) * binomial(n, j), (n, j)


class TestWedge:
    def test_unit_coefficients(self):
        w = wedge(basis_form(3, 1, (1,)), basis_form(3, 1, (2,)))
        assert np.allclose(w.coeffs, basis_form(3, 2, (1, 2)).coeffs)

    def test_one_form_squares_to_zero(self):
        w = random_form(4, 1)
        assert wedge(w, w).norm() < 1e-14

    def test_bilinear_expansion(self):
        dx1, dx2 = basis_form(2, 1, (1,)), basis_form(2, 1, (2,))
        got = wedge(dx1 + dx2, dx2)
        assert np.allclose(got.coeffs, basis_form(2, 2, (1, 2)).coeffs)

    @given(st.data())
    def test_graded_anticommutativity(self, data):
        # omega ^ eta = (-1)^(pq) eta ^ omega, exactly on small-integer coefficients
        d = data.draw(st.integers(1, 7))
        p = data.draw(st.integers(0, d))
        q = data.draw(st.integers(0, d - p))
        w, e = _integer_form(data, d, p), _integer_form(data, d, q)
        assert np.array_equal(wedge(w, e).coeffs, (-1) ** (p * q) * wedge(e, w).coeffs)

    def test_associativity(self):
        for d in range(2, 6):
            w, e, h = random_form(d, 1), random_form(d, 1), random_form(d, d - 2) if d > 2 else random_form(d, 0)
            lhs = wedge(wedge(w, e), h)
            rhs = wedge(w, wedge(e, h))
            assert (lhs - rhs).norm() < 1e-12

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            wedge(random_form(2, 1), random_form(2, 2))

    @pytest.mark.parametrize("d", range(7))
    def test_stack_of_rows(self, d):
        # both gathers act along the last axis, so a stack of coefficient rows on
        # either side, or on both, is wedged row by row, each row bit for bit as
        # on its own; a stack once gave its first row's wedge only
        got = wedge(exterior._form(3, 1, np.arange(6.0).reshape(2, 3)), AltForm(3, 1, [1.0, 0.0, 0.0]))
        assert np.array_equal(got.coeffs, [[-1.0, -2.0, 0.0], [-4.0, -5.0, 0.0]])
        for p in range(d + 1):
            for q in range(d + 1 - p):
                n, m, out = binomial(d, p), binomial(d, q), binomial(d, p + q)
                for shape in [(0,), (1,), (5,), (2, 3)]:
                    left, right = RNG.standard_normal(shape + (n,)), RNG.standard_normal(shape + (m,))
                    a, b = RNG.standard_normal(n), RNG.standard_normal(m)
                    for omega, eta in [(left, b), (a, right), (left, right)]:
                        got = wedge(exterior._form(d, p, omega), exterior._form(d, q, eta))
                        assert (got.d, got.k, got.coeffs.shape) == (d, p + q, shape + (out,))
                        rows_p = np.broadcast_to(omega, shape + (n,)).reshape(-1, n)
                        rows_q = np.broadcast_to(eta, shape + (m,)).reshape(-1, m)
                        for row_p, row_q, wedged in zip(rows_p, rows_q, got.coeffs.reshape(-1, out)):
                            assert np.array_equal(wedged, wedge(AltForm(d, p, row_p), AltForm(d, q, row_q)).coeffs)


class TestContraction:
    def test_first_slot(self):
        w = contraction(basis_form(3, 2, (1, 2)), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(w.coeffs, basis_form(3, 1, (2,)).coeffs)

    def test_second_slot_sign(self):
        w = contraction(basis_form(3, 2, (1, 2)), np.array([0.0, 1.0, 0.0]))
        assert np.allclose(w.coeffs, -basis_form(3, 1, (1,)).coeffs)

    def test_double_contraction_vanishes(self):
        for d in range(2, 5):
            for k in range(2, d + 1):
                w = random_form(d, k)
                v = RNG.standard_normal(d)
                assert contraction(contraction(w, v), v).norm() < 1e-12

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            contraction(random_form(3, 0), np.zeros(3))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 2), ()])
    def test_wrong_vector_size_is_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"contraction needs a vector of d = 3 entries, got shape {shape}")):
            contraction(random_form(3, 2), np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (1, 1, 3)])
    def test_takes_any_shape_of_d_entries(self, shape):
        w, v = random_form(3, 2), RNG.standard_normal(3)
        assert contraction(w, v.reshape(shape)).coeffs.tobytes() == contraction(w, v).coeffs.tobytes()
        assert contraction(w, list(v)).coeffs.tobytes() == contraction(w, v).coeffs.tobytes()

    @given(st.data())
    def test_adjoint_of_wedge_with_flat(self, data):
        # <omega .| v, eta> = <omega, v-flat ^ eta>: contraction is the
        # adjoint of v-flat ^, though it is computed as a starred wedge; small
        # integer entries keep both sides exact
        d = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, d))
        omega, eta, v = _integer_form(data, d, k), _integer_form(data, d, k - 1), _integer_entries(data, d)
        assert inner(contraction(omega, v), eta) == inner(omega, wedge(flat(v), eta))

    @given(st.data())
    def test_starred_wedge(self, data):
        # omega .| v = (-1)^(d(k - 1)) star(v-flat ^ star omega), exactly on
        # small integer entries
        d = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, d))
        omega, v = _integer_form(data, d, k), _integer_entries(data, d)
        starred = (-1) ** (d * (k - 1)) * hodge_star(wedge(flat(v), hodge_star(omega))).coeffs
        assert np.array_equal(contraction(omega, v).coeffs, starred)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_stack_of_rows(self, d):
        # the star and wedge kernels act along the last axis, so a stack of
        # coefficient rows is contracted with one v in one call, each row
        # bit for bit as on its own
        v = RNG.standard_normal(d)
        for k in range(1, d + 1):
            n, m = binomial(d, k), binomial(d, k - 1)
            for shape in [(0,), (1,), (5,), (2, 3)]:
                rows = RNG.standard_normal(shape + (n,))
                got = contraction(exterior._form(d, k, rows), v)
                assert (got.d, got.k, got.coeffs.shape) == (d, k - 1, shape + (m,))
                for row, contracted in zip(rows.reshape(-1, n), got.coeffs.reshape(-1, m)):
                    assert np.array_equal(contracted, contraction(AltForm(d, k, row), v).coeffs)

    def test_leibniz_identity(self):
        # (w ^ e) .| v = (w .| v) ^ e + (-1)^p w ^ (e .| v)
        for d in range(2, 6):
            for p in range(1, d):
                for q in range(1, d - p + 1):
                    w, e = random_form(d, p), random_form(d, q)
                    v = RNG.standard_normal(d)
                    lhs = contraction(wedge(w, e), v)
                    rhs = wedge(contraction(w, v), e) + (-1) ** p * wedge(w, contraction(e, v))
                    assert (lhs - rhs).norm() < 1e-11


class TestHodgeStar:
    def test_d3_dx1(self):
        assert np.allclose(hodge_star(basis_form(3, 1, (1,))).coeffs, basis_form(3, 2, (2, 3)).coeffs)

    def test_d2_dx2(self):
        assert np.allclose(hodge_star(basis_form(2, 1, (2,))).coeffs, -basis_form(2, 1, (1,)).coeffs)

    @given(st.data())
    def test_double_star(self, data):
        # star star = (-1)^(k(d - k)), exactly: the star only permutes coefficients and flips signs
        d = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(0, d))
        w = _integer_form(data, d, k)
        assert np.array_equal(hodge_star(hodge_star(w)).coeffs, (-1) ** (k * (d - k)) * w.coeffs)

    def test_isometry(self):
        for d in range(1, 6):
            for k in range(d + 1):
                w, e = random_form(d, k), random_form(d, k)
                assert abs(inner(hodge_star(w), hodge_star(e)) - inner(w, e)) < 1e-12

    def test_against_volume_identity_oracle(self):
        # star is pinned down by  w ^ star(e) = <w, e> vol  over the full basis
        for d in range(1, 6):
            for k in range(d + 1):
                for sig in sequences(k, d):
                    e = basis_form(d, k, sig)
                    se = hodge_star(e)
                    for tau in sequences(k, d):
                        w = basis_form(d, k, tau)
                        lhs = volume_coefficient(wedge(w, se))
                        assert abs(lhs - inner(w, e)) < 1e-14


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner(basis_form(3, 2, (1, 2)), basis_form(3, 2, (1, 2))) == 1.0
        assert inner(basis_form(3, 2, (1, 2)), basis_form(3, 2, (1, 3))) == 0.0

    def test_volume_form_identity_random(self):
        for _ in range(20):
            d = int(RNG.integers(1, 6))
            k = int(RNG.integers(0, d + 1))
            w, e = random_form(d, k), random_form(d, k)
            lhs = wedge(w, hodge_star(e))
            assert abs(volume_coefficient(lhs) - inner(w, e)) < 1e-12


class TestFlatSharp:
    def test_basis_vector(self):
        w = flat(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(w.coeffs, basis_form(3, 1, (1,)).coeffs)

    def test_flat_applied_is_dot(self):
        for _ in range(10):
            u, w = RNG.standard_normal(4), RNG.standard_normal(4)
            assert abs(evaluate(flat(u), [w]) - np.dot(u, w)) < 1e-12

    def test_flat_needs_a_vector(self):
        # a matrix or a scalar is not read as a vector on R^(its size)
        for v in (np.ones((2, 3)), np.ones((1, 3)), np.float64(2.0), [[1.0, 2.0]]):
            with pytest.raises(ValueError, match=r"flat needs a 1-D vector, got shape \("):
                flat(v)
        # the form owns its coefficients; lists are vectors
        u = np.array([1.0, 2.0])
        w = flat(u)
        u[0] = 5.0
        assert w.coeffs.tolist() == [1.0, 2.0] and flat([3, 4]).coeffs.tolist() == [3.0, 4.0]


class TestSubspaceHodge:
    def xy_frame(self):
        return Frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_xy_plane_rotation(self):
        got = hodge_star_in_subspace(self.xy_frame(), basis_form(3, 1, (1,)))
        assert np.allclose(got.coeffs, basis_form(3, 1, (2,)).coeffs, atol=1e-14)

    def test_involution_on_tangential_forms(self):
        rows = np.linalg.qr(RNG.standard_normal((4, 4)))[0][:3]
        frame = Frame(rows)
        for k in range(4):
            w_sub = random_form(3, k)
            w = pullback_embed(frame, w_sub)
            twice = hodge_star_in_subspace(frame, hodge_star_in_subspace(frame, w))
            assert (twice - (-1) ** (k * (3 - k)) * w).norm() < 1e-12

    def test_full_space_matches_ambient(self):
        frame = Frame(np.eye(4))
        w = random_form(4, 2)
        got = hodge_star_in_subspace(frame, w)
        assert (got - hodge_star(w)).norm() < 1e-12

    def test_non_tangential_rejected(self):
        with pytest.raises(ValueError):
            hodge_star_in_subspace(self.xy_frame(), basis_form(3, 1, (3,)))

    def test_degree_above_frame_size_rejected(self):
        with pytest.raises(ValueError, match="k=3 form to a frame of size ell=2"):
            hodge_star_in_subspace(self.xy_frame(), basis_form(3, 3, (1, 2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_form_rejected(self, bad):
        w = AltForm(3, 1, [bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="relative residual nan"), np.errstate(invalid="ignore"):
            hodge_star_in_subspace(self.xy_frame(), w)

    def test_builds_one_form(self, monkeypatch):
        # only the result: restriction, residual and star stay coefficient arrays
        frame, w = self.xy_frame(), basis_form(3, 1, (1,))
        built, form = [], exterior._form
        monkeypatch.setattr(exterior, "_form", lambda *args: built.append(args) or form(*args))
        hodge_star_in_subspace(frame, w)
        assert len(built) == 1

    def test_matches_composition(self):
        rng = np.random.default_rng(43)
        for d in range(1, 7):
            for ell in range(d + 1):
                frame = random_frame(ell, d, rng)
                for k in range(ell + 1):
                    w = pullback_embed(frame, random_form(ell, k, rng))
                    got, ref = hodge_star_in_subspace(frame, w), _ref_hodge_star_in_subspace(frame, w)
                    assert (got.d, got.k) == (ref.d, ref.k) and got.coeffs.tobytes() == ref.coeffs.tobytes()
                    if 0 < k and ell < d:
                        bent, messages = w + random_form(d, k, rng), []
                        for star in (hodge_star_in_subspace, _ref_hodge_star_in_subspace):
                            with pytest.raises(ValueError, match="not tangential") as exc:
                                star(frame, bent)
                            messages.append(str(exc.value))
                        assert messages[0] == messages[1]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tangentiality_is_relative(self, scale):
        # a normal part of 1e-5 relative to the form is rejected at every size
        dx1, dx3 = basis_form(3, 1, (1,)), basis_form(3, 1, (3,))
        hodge_star_in_subspace(self.xy_frame(), scale * dx1)
        with pytest.raises(ValueError, match=r"relative residual 1\.000e-05"):
            hodge_star_in_subspace(self.xy_frame(), scale * dx1 + 1e-5 * scale * dx3)


class TestFrame:
    def test_orthonormal_rows_accepted(self):
        rows = np.linalg.qr(RNG.standard_normal((4, 4)))[0][:2]
        assert Frame(rows).size == 2

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
            [[2.0, 0.0, 0.0]],
            [[1.0, 1e-4, 0.0]],
            [[np.nan, 0.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]],
        ],
    )
    def test_non_orthonormal_rows_rejected(self, rows):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            Frame(np.array(rows))

    def test_keeps_a_read_only_copy(self):
        rows = np.linalg.qr(RNG.standard_normal((4, 4)))[0][:3]
        frame = Frame(rows)
        w = random_form(4, 2)
        before = restrict_to_frame(frame, w).coeffs
        assert np.array_equal(before, compound(rows, 2) @ w.coeffs)
        for k in range(frame.size + 2):
            ref = compound(rows, k)
            assert frame._compound(k).tobytes() == ref.tobytes() and frame._compound(k).shape == ref.shape
        rows[0] = rows[1]
        assert np.array_equal(restrict_to_frame(frame, w).coeffs, before)
        with pytest.raises(ValueError):
            frame.vectors[0, 0] = 1.0


class TestEmbedding:
    def test_full_dimension_identity(self):
        w = random_form(3, 2)
        assert (pullback_embed(Frame(np.eye(3)), w) - w).norm() < 1e-14

    def test_embedded_evaluations(self):
        rows = np.linalg.qr(RNG.standard_normal((3, 3)))[0][:2]
        frame = Frame(rows)
        w = pullback_embed(frame, basis_form(2, 2, (1, 2)))
        t1, t2 = rows
        n = np.cross(t1, t2)
        assert abs(evaluate(w, [t1, t2]) - 1.0) < 1e-12
        assert abs(evaluate(w, [t1, n])) < 1e-12

    def test_restrict_recovers(self):
        rows = np.linalg.qr(RNG.standard_normal((5, 5)))[0][:3]
        frame = Frame(rows)
        for k in range(4):
            w_sub = random_form(3, k)
            back = restrict_to_frame(frame, pullback_embed(frame, w_sub))
            assert (back - w_sub).norm() < 1e-12


class TestFormChecks:
    @pytest.mark.parametrize("k", [-1, 4])
    def test_degree_outside_0_to_d(self, k):
        with pytest.raises(ValueError, match=re.escape(f"need 0 <= k <= d, got k={k}, d=3")):
            AltForm(3, k, np.ones(1))

    def test_wrong_coefficient_count(self):
        with pytest.raises(ValueError, match=re.escape("expected 3 coefficients for (d, k) = (3, 2), got 2")):
            AltForm(3, 2, np.ones(2))

    def test_negation(self):
        w = random_form(4, 2)
        neg = -w
        assert (neg.d, neg.k) == (4, 2) and np.array_equal(neg.coeffs, -w.coeffs)

    @pytest.mark.parametrize("other", [(3, 2), (4, 1)])
    def test_sum_and_difference_need_one_space(self, other):
        a, b = random_form(3, 1), random_form(*other)
        for op in (lambda: a + b, lambda: a - b):
            with pytest.raises(ValueError, match=re.escape(f"form space mismatch: (3,1) vs ({other[0]},{other[1]})")):
                op()

    def test_frame_needs_a_2d_array(self):
        with pytest.raises(ValueError, match=re.escape("frame vectors must form a 2-D array (rows = vectors)")):
            Frame(np.array([1.0, 0.0, 0.0]))

    def test_empty_wedge_needs_d(self):
        with pytest.raises(ValueError, match=re.escape("ambient dimension needed for the empty wedge")):
            wedge_all([])


class TestErrorsNameTheirDimensions:
    def test_wedge(self):
        with pytest.raises(ValueError, match=re.escape("ambient dimension mismatch: d = 3 and d = 4")):
            wedge(random_form(3, 1), random_form(4, 1))

    def test_frame_and_form_spaces(self):
        frame = random_frame(2, 3)
        for op in (restrict_to_frame, hodge_star_in_subspace):
            with pytest.raises(ValueError, match=re.escape("ambient dimension mismatch: a form on d = 4, a frame in d = 3")):
                op(frame, random_form(4, 1))
        with pytest.raises(ValueError, match=re.escape("not expressed over the frame's vectors: form on d = 3, frame size 2")):
            pullback_embed(frame, random_form(3, 1))

    def test_volume_coefficient(self):
        with pytest.raises(ValueError, match=re.escape("needs a top-degree form, got (d, k) = (3, 2)")):
            volume_coefficient(random_form(3, 2))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 2), ()])
    def test_evaluate_names_a_wrong_size_vector(self, shape):
        # the vector count is checked first, then each vector's size, in contraction's words
        w = random_form(3, 2)
        with pytest.raises(ValueError, match=re.escape("expected 2 vectors, got 1")):
            evaluate(w, [np.ones(shape)])
        with pytest.raises(ValueError, match=re.escape(f"evaluate needs a vector of d = 3 entries, got shape {shape}")):
            evaluate(w, [np.ones(3), np.ones(shape)])

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3)])
    def test_evaluate_takes_any_shape_of_d_entries(self, shape):
        w, vecs = random_form(3, 2), RNG.standard_normal((2, 3))
        assert evaluate(w, [vecs[0].reshape(shape), list(vecs[1])]) == evaluate(w, list(vecs))
