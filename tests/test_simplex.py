import dataclasses
import math
import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from tnforms import exterior
from tnforms.combinatorics import AbstractSimplex, simplex, subsimplices
from tnforms.errors import PAIRING_RTOL, DegenerateSimplexError
from tnforms.exterior import Frame, _orthonormal, compound
from tnforms.simplex import (
    DEGENERACY_RTOL,
    GeometricSimplex,
    TnFrameSet,
    all_subsimplices,
    barycentric_coordinates,
    barycentric_gradients,
    gram_schmidt,
    induced_facet_frame,
    nef_frames,
    oriented_subframe,
    random_simplex,
    reference_simplex,
    surface_gradient,
    tangent_basis,
)
from tnforms.simplex import _check_pairing, _orthonormal_rows

RNG = np.random.default_rng(7)


def subsimplex_geometry(T, f):
    """The embedded geometric realization of a subsimplex, keeping its labels."""
    idx = [T.labels.index(i) for i in f.vertices]
    return GeometricSimplex(T.vertices[idx], labels=f.vertices)


def _pairing_ratio(p):
    """Largest off-diagonal |entry| over the least diagonal entry, per matrix of a stack (..., r, r).

    The ratio is inf for a matrix with a diagonal entry <= 0.  Works on the
    flattened r*r axis, where the diagonal is every (r + 1)-th entry.
    """
    r = p.shape[-1]
    flat = p.reshape(p.shape[:-2] + (r * r,))
    diag = flat[..., :: r + 1]
    off = np.abs(flat)
    off[..., :: r + 1] = 0.0
    positive = np.all(diag > 0.0, axis=-1)
    ratio = np.full(positive.shape, np.inf)
    np.divide(off.max(axis=-1, initial=0.0), diag.min(axis=-1, initial=np.inf), out=ratio, where=positive)
    return ratio


def validate(fr):
    """Raise unless a frame set's pairing is diagonal to PAIRING_RTOL, as ``nef_frames`` checks it."""
    _check_pairing(fr.e.vertices, fr.f.vertices, float(_pairing_ratio(fr.pairing())))


# Reference geometry: the modified Gram-Schmidt loop, normal-equation
# gradients and projected surface gradients the face table replaced.


def _ref_gram_schmidt(vectors):
    v = np.array(vectors, dtype=float)
    scale = np.max(np.abs(v)) if v.size else 1.0
    for i in range(v.shape[0]):
        for j in range(i):
            v[i] -= np.dot(v[i], v[j]) * v[j]
        norm = np.linalg.norm(v[i])
        if norm <= DEGENERACY_RTOL * max(scale, 1.0):
            raise DegenerateSimplexError("linearly dependent vectors in frame build")
        v[i] /= norm
    return v


def _ref_gradients(T):
    e = T.edge_matrix
    g = e @ np.linalg.inv(e.T @ e)
    grads = np.empty((T.dim + 1, T.ambient_dim))
    grads[1:] = g.T
    grads[0] = -g.sum(axis=1)
    return grads


def _ref_tangents(T, f):
    pts = T.vertices[[T.labels.index(i) for i in f.vertices]]
    return _ref_gram_schmidt(pts[1:] - pts[0])


def _ref_surface_gradient(T, f, i):
    gi = _ref_gradients(T)[T.labels.index(i)]
    if f.dim == 0:
        return np.zeros(T.ambient_dim)
    basis = _ref_tangents(T, f)
    return basis.T @ (basis @ gi)


def _ref_volume(T):
    e = T.edge_matrix
    return math.sqrt(max(np.linalg.det(e.T @ e), 0.0)) / math.factorial(T.dim)


def _ref_pairing_ratio(p):
    """The pairing ratio over the two matrix axes, with the diagonal zeroed by a fancy index."""
    r = p.shape[-1]
    diag = np.diagonal(p, axis1=-2, axis2=-1)
    off = np.abs(p)
    off[..., range(r), range(r)] = 0.0
    positive = np.all(diag > 0.0, axis=-1)
    ratio = np.full(positive.shape, np.inf)
    np.divide(off.max(axis=(-2, -1), initial=0.0), diag.min(axis=-1, initial=np.inf), out=ratio, where=positive)
    return ratio


def _ref_random_simplex(d, rng, scale=1.0):
    """The two-SVD loop random_simplex replaced: its own SVD of each candidate, then the constructor's."""
    base = np.eye(d + 1, d, k=-1)
    while True:
        v = scale * (base + 0.3 * rng.uniform(-1.0, 1.0, size=base.shape))
        e = (v[1:] - v[0]).T
        svals = np.linalg.svd(e, compute_uv=False)
        if d == 0 or svals[-1] > 0.15 * svals[0]:
            return GeometricSimplex(v)


def _ref_geometric_simplex(vertices, labels=None):
    """The constructor that tested the vertices, then took the edge matrix from a cached property.

    Returns (vertices, labels, edge_matrix, singular values, content), or
    raises the constructor's error.
    """
    v = np.array(vertices, dtype=float)
    if v.ndim != 2:
        raise ValueError("vertices must be a 2-D array (rows = points)")
    if not math.isfinite(np.abs(v).max(initial=0.0)):
        raise DegenerateSimplexError("non-finite vertex coordinates")
    m = v.shape[0] - 1
    if m > v.shape[1]:
        raise ValueError(f"{m}-simplex cannot live in R^{v.shape[1]}")
    labels = tuple(range(m + 1)) if labels is None else tuple(labels)
    if len(labels) != m + 1:
        raise ValueError("one label per vertex required")
    full = AbstractSimplex(labels)
    with np.errstate(over="ignore"):
        edges = (v[1:] - v[0]).T
        top = np.abs(edges).max(initial=0.0)
        if not math.isfinite(top):
            raise DegenerateSimplexError("an edge overflows: the volume is not representable")
        exp = math.frexp(top)[1]
        svals = np.ldexp(np.linalg.svd(np.ldexp(edges, -exp), compute_uv=False), exp) if m else np.ones(1)
    if not math.isfinite(svals[0]):
        raise DegenerateSimplexError(f"largest singular value {svals[0]:.3e}: the volume is not representable")
    if svals[-1] <= DEGENERACY_RTOL * svals[0]:
        raise DegenerateSimplexError(f"singular values {svals[-1]:.3e} <= {DEGENERACY_RTOL} * {svals[0]:.3e}")
    content = math.prod(svals.tolist())
    if not (0.0 < content and math.isfinite(content)):
        raise DegenerateSimplexError(f"singular values multiply to {content:.3e}: the volume is not representable")
    return v, full.vertices, edges, svals, content


def _construction_bits(build):
    """Every stored field of a construction as bytes, or its error's type and text."""
    try:
        v, labels, edges, svals, content = build()
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [(a.dtype, a.shape, a.tobytes()) for a in (v, edges, svals)]
    return arrays, labels, type(labels[0]), content.hex()


def _constructor_cases():
    """(vertices, labels) pairs over every check of the constructor and the values it stores."""
    cases = []
    for d in range(8):
        unit = random_simplex(d, np.random.default_rng([d, 36])).vertices
        cases += [(unit, None), (unit[: d // 2 + 1], None)]  # full-dimensional and embedded
        cases += [(2.0**j * unit, None) for j in (-1000, -500, -340, 340, 500, 1000)]
    embedded = np.random.default_rng(11).standard_normal((3, 4))
    cases += [(embedded, (2, 5, 7)), (embedded, np.array([0, 3, 9])), (embedded[:1], (4,))]
    for bad in [(-1, 0, 1), (2, 1, 3), (1, 1, 2), (0, 1), (0, 1, 2, 3), (0.0, 1.0, 2.0), ()]:
        cases.append((embedded, bad))
    tri = np.eye(3, 2, k=-1)
    for at in [(0, 0), (0, 1), (2, 1), (1, 0)]:
        for value in (np.nan, np.inf, -np.inf):
            v = tri.copy()
            v[at] = value
            cases += [(v, None), (v, (0, 1)), (np.vstack([v, [0.5, 0.5]]), None)]  # then label and dimension checks
    cases += [(np.array([[np.nan, 0.0]]), None), (np.array([[np.inf]]), (3,)), (np.array([[-np.inf, 1.0, 2.0]]), None)]
    both = np.array([[np.inf, 0.0], [np.inf, 1.0], [np.inf, 2.0]])  # every edge inf - inf
    cases += [(both, None), (np.array([[np.nan, 0.0], [np.nan, 0.0]]), None)]
    overflow = np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]])
    cases += [(overflow, None), (overflow, (0, 1)), (np.vstack([overflow, [0.0, 0.0]]), None)]
    cases.append((np.array([[0.0, 0.0], [1.5e308, 1.5e308], [1.5e308, 1.4e308]]), None))  # the largest singular value
    far_segment = np.array([[1e200, 0.0, 1e200], [1e200, 1e-200, 1e200]])  # underflows if scaled by its vertices' reach
    cases += [(far_segment[:, :2], None), (far_segment, (3, 8))]
    cases += [(np.array([[1.4e308], [1.5e308]]), None), (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), None)]
    cases += [(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-13]]), None), (np.zeros((2, 3)), None)]
    cases += [(np.zeros((0, 2)), None), (np.zeros((0, 2)), ()), (np.zeros((0, 2)), (0,)), (np.zeros((1, 0)), None)]
    cases += [(np.zeros((2, 0)), None), (np.zeros((4, 2)), None), (np.zeros(3), None), (np.zeros((2, 2, 2)), None)]
    cases += [([[0, 0], [1, 0], [0, 1]], [0, 1, 2]), ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], range(3))]
    return cases


def _faces(T):
    cell = simplex(*T.labels)
    return [f for s in range(T.dim + 1) for f in subsimplices(cell, s)]


def _flatten_last_vertex(v, flatness):
    """Move the last vertex to height flatness * diameter above the opposite facet."""
    base = v[:-1]
    q, _ = np.linalg.qr((base[1:] - base[0]).T, mode="complete")
    normal = q[:, -1]
    height = float(np.dot(v[-1] - base[0], normal))
    diameter = max(np.linalg.norm(a - b) for a in v for b in v)
    out = v.copy()
    out[-1] = v[-1] + (math.copysign(flatness * diameter, height) - height) * normal
    return out


def _ref_face_geometry(T):
    """(tangents, gradients) of every face of T from the face's own subsimplex geometry, by labels."""
    out = {}
    for f in _faces(T):
        g = subsimplex_geometry(T, f)
        out[f.vertices] = (tangent_basis(g, f), barycentric_gradients(g))
    return out


def _ref_nef_frames(geometry, f, e):
    """n-e-f frames from public calls alone: f's gradients, and the gradient of lambda_i in e + i."""
    rest = tuple(i for i in f.vertices if i not in e.vertices)
    tn = []
    for i in rest:
        up = tuple(sorted(e.vertices + (i,)))
        tn.append(geometry[up][1][up.index(i)])
    grads_f = geometry[f.vertices][1]
    tangents = geometry[e.vertices][0]
    return TnFrameSet(
        e=e,
        f=f,
        frame_face=np.vstack([tangents, grads_f[[f.vertices.index(i) for i in rest]]]),
        frame_tn=np.vstack([tangents, np.array(tn).reshape(len(rest), grads_f.shape[1])]),
    )


# Reference face pass: one QR per face dimension, and one n-e-f group per
# (|f|, |e|) built by slice assignments, the layout the single pass replaced.


def _ref_vertex_sets(n, size):
    """Every size-subset of range(n), lexicographic, one per row."""
    return np.array(list(combinations(range(n), size)), dtype=np.intp).reshape(-1, size)


def _ref_levels(T):
    """(tangents, gradients, ok) per face dimension, one QR and one solve each."""
    n, d = T.vertices.shape
    tangents = np.empty((n, 0, d))
    levels = [(tangents, np.full((n, 1, d), -0.0), _orthonormal(tangents))]
    for s in range(1, n):
        pts = T.vertices[_ref_vertex_sets(n, s + 1)]
        q, r = _orthonormal_rows(pts[:, 1:] - pts[:, :1])
        grads = np.empty(pts.shape)
        grads[:, 1:] = np.linalg.solve(r, q)
        grads[:, 0] = -grads[:, 1:].sum(axis=1)
        levels.append((q, grads, _orthonormal(q)))
    return levels


def _ref_nef_group(T, nf, ne):
    """{(f labels, e labels): (ratio, normal labels, frame_face, frame_tn)} for |f| = nf, |e| = ne."""
    n = len(T.labels)
    levels = _ref_levels(T)
    at = {size: {face: j for j, face in enumerate(combinations(range(n), size))} for size in (nf, ne, ne + 1)}
    keys, anchor_at, face_at, face_row, tn_at, tn_row = [], [], [], [], [], []
    for F in combinations(range(n), nf):
        for E in combinations(F, ne):
            rest = [i for i in F if i not in E]
            up = [tuple(sorted(E + (i,))) for i in rest]
            keys.append((F, E, rest))
            anchor_at.append(at[ne][E])
            face_at.append([at[nf][F]] * len(rest))
            face_row.append([F.index(i) for i in rest])
            tn_at.append([at[ne + 1][u] for u in up])
            tn_row.append([u.index(i) for i, u in zip(rest, up)])
    gather = [np.array(col, dtype=np.intp).reshape(len(keys), nf - ne) for col in (face_at, face_row, tn_at, tn_row)]
    frames = np.empty((2, len(keys), nf - 1, T.ambient_dim))
    frames[:, :, : ne - 1] = levels[ne - 1][0].take(np.array(anchor_at, dtype=np.intp), axis=0)
    frames[0, :, ne - 1 :] = levels[nf - 1][1][gather[0], gather[1]]
    frames[1, :, ne - 1 :] = levels[min(ne, n - 1)][1][gather[2], gather[3]]
    face, tn = frames[:, :, ne - 1 :]
    ratio = _pairing_ratio(tn @ np.swapaxes(face, -1, -2)).tolist()
    label = T.labels.__getitem__
    return {
        (tuple(map(label, F)), tuple(map(label, E))): (ratio[j], tuple(map(label, rest)), frames[0, j], frames[1, j])
        for j, (F, E, rest) in enumerate(keys)
    }


def _with_normals_tn(fr, normals_tn):
    """The frame set with its t-n normal rows replaced."""
    return fr._replace(frame_tn=np.vstack([fr.tangents, normals_tn]))


def _reference_cells():
    cells = [random_simplex(d, np.random.default_rng(d)) for d in range(1, 7)]
    embedded = np.random.default_rng(11).standard_normal((3, 4))
    return cells + [GeometricSimplex(embedded, labels=(2, 5, 7))]


class TestFaceTableAgainstReference:
    @pytest.mark.parametrize("T", _reference_cells(), ids=lambda T: f"{T.dim}in{T.ambient_dim}")
    def test_every_face(self, T):
        g_ref = _ref_gradients(T)
        assert np.abs(barycentric_gradients(T) - g_ref).max() <= 1e-11 * np.abs(g_ref).max()
        assert abs(T.volume - _ref_volume(T)) <= 1e-13 * _ref_volume(T)
        for f in _faces(T):
            assert np.abs(tangent_basis(T, f) - _ref_tangents(T, f)).max(initial=0.0) <= 1e-13
            for i, gi in zip(T.labels, g_ref):
                err = np.linalg.norm(surface_gradient(T, f, i) - _ref_surface_gradient(T, f, i))
                assert err <= 1e-11 * np.linalg.norm(gi)

    def test_table_is_read_only(self):
        T = random_simplex(3, RNG)
        with pytest.raises(ValueError):
            tangent_basis(T, simplex(0, 2))[0, 0] = 1.0
        with pytest.raises(ValueError):
            T._gradients[0, 0] = 1.0
        barycentric_gradients(T)[0, 0] = 1.0  # the public copy stays writable


class TestScaleAndSlivers:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_tiny_cell_builds_every_frame(self, d):
        unit = random_simplex(d, np.random.default_rng(100 + d))
        T = GeometricSimplex(1e-14 * unit.vertices)
        faces = _faces(T)
        for f in faces:
            assert np.abs(tangent_basis(T, f) - tangent_basis(unit, f)).max(initial=0.0) < 1e-13
        for f in faces:
            for e in faces:
                if e.issubset(f):
                    fr = nef_frames(T, f, e)
                    ref = nef_frames(unit, f, e)
                    assert np.allclose(1e-14 * fr.normals_face, ref.normals_face, rtol=1e-11, atol=0)
                    assert np.allclose(1e-14 * fr.normals_tn, ref.normals_tn, rtol=1e-11, atol=0)
        for F in subsimplices(T.full_simplex(), d - 1):
            frame, n = induced_facet_frame(T, F)
            assert abs(np.linalg.det(np.vstack([n, frame.vectors])) - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 1e-310])
    def test_unrepresentable_volume_rejected(self, scale):
        # the volume underflows to 0, overflows to inf, or (subnormal coordinates) the gradients are NaN
        unit = random_simplex(3, np.random.default_rng(13)).vertices
        with pytest.raises(DegenerateSimplexError, match="the volume is not representable"):
            GeometricSimplex(scale * unit)

    def test_overflowing_edge_is_the_volume_error(self):
        # finite vertices whose edge v_1 - v_0 leaves the float range: no numpy warning, no SVD of inf
        v = np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSimplexError, match="^an edge overflows: the volume is not representable$"):
                GeometricSimplex(v)

    @pytest.mark.parametrize("d,seed", [(4, 0), (5, 0), (6, 0), (6, 1), (6, 2)])
    def test_overflowing_singular_value_is_the_volume_error(self, d, seed):
        # finite edges whose largest singular value overflows: a well-shaped cell, not a degenerate one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSimplexError, match=r"^largest singular value inf: the volume is not representable$"):
                random_simplex(d, np.random.default_rng(seed), 1e308)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overflowing_coordinate_is_the_volume_error(self, seed):
        # scale times a perturbed reference coordinate leaves the float range: the volume error, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSimplexError, match=r"the volume is not representable$"):
                random_simplex(3, np.random.default_rng(seed), 1.7e308)

    def test_far_scale_builds_where_every_coordinate_is_representable(self):
        # no coordinate of a vertex; a segment at seed 0 whose coordinates stay in range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert random_simplex(0, np.random.default_rng(0), 1.7e308).volume == 1.0
            assert np.isfinite(random_simplex(1, np.random.default_rng(0), -1.7e308).volume)

    def test_far_cell_with_representable_edges_builds(self):
        # coordinates beyond half the float range take the guarded edge path and build as usual
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T = GeometricSimplex(np.array([[1.4e308], [1.5e308]]))
        assert T.volume == 1.5e308 - 1.4e308
        assert np.allclose(T.volume * barycentric_gradients(T), [[-1.0], [1.0]], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("d,scale", [(5, 1e-14), (3, 1e-100)])
    def test_small_representable_cell_builds(self, d, scale):
        unit = random_simplex(d, np.random.default_rng(13))
        T = GeometricSimplex(scale * unit.vertices)
        assert T.volume == pytest.approx(scale**d * unit.volume, rel=1e-12)
        assert np.isfinite(barycentric_gradients(T)).all()
        assert np.allclose(scale * barycentric_gradients(T), barycentric_gradients(unit), rtol=1e-11, atol=0)

    def test_gram_schmidt_floor_is_relative(self):
        rows = RNG.standard_normal((3, 5))
        assert np.abs(gram_schmidt(1e-14 * rows) - gram_schmidt(rows)).max() < 1e-13
        with pytest.raises(DegenerateSimplexError):
            gram_schmidt(1e-14 * np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sliver_gradient_identity(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(5):
            v = _flatten_last_vertex(random_simplex(d, rng).vertices.copy(), 1e-7)
            g = barycentric_gradients(GeometricSimplex(v))
            expected = np.vstack([-np.ones(d), np.eye(d)])
            assert np.abs(g @ (v[1:] - v[0]).T - expected).max() <= 1e-8


class TestBarycentricGradients:
    def test_unit_interval(self):
        T = GeometricSimplex(np.array([[0.0], [1.0]]))
        g = barycentric_gradients(T)
        assert np.allclose(g, [[-1.0], [1.0]])

    def test_reference_triangle(self):
        g = barycentric_gradients(reference_simplex(2))
        assert np.allclose(g[1], [1.0, 0.0])
        assert np.allclose(g[2], [0.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_gradients_sum_to_zero(self, d):
        for _ in range(5):
            T = random_simplex(d, RNG)
            assert np.max(np.abs(barycentric_gradients(T).sum(axis=0))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_interpolation_conditions(self, d):
        T = random_simplex(d, RNG)
        g = barycentric_gradients(T)
        for j in range(d + 1):
            lam = barycentric_coordinates(T, T.vertices[j])
            assert np.allclose(lam, np.eye(d + 1)[j], atol=1e-12)
        # gradient of lambda_i dotted with edge v_j - v_0 recovers the nodal difference
        for i in range(d + 1):
            for j in range(1, d + 1):
                got = g[i] @ (T.vertices[j] - T.vertices[0])
                want = (1.0 if i == j else 0.0) - (1.0 if i == 0 else 0.0)
                assert abs(got - want) < 1e-12

    def test_degenerate_rejected(self):
        flat_pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateSimplexError):
            GeometricSimplex(flat_pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertices_rejected(self, bad):
        # rejected before the SVD, which does not converge on NaN and lets inf through
        with pytest.raises(DegenerateSimplexError, match="non-finite"):
            GeometricSimplex(np.array([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]]))

    @pytest.mark.parametrize(
        "labels,msg",
        [((2, 1, 0), "strictly increasing"), ((-1, 0, 1), "non-negative"), ((0, 0, 1), "strictly increasing")],
    )
    def test_labels_checked_as_an_abstract_simplex(self, labels, msg):
        v = reference_simplex(2).vertices
        with pytest.raises(ValueError, match=msg):
            GeometricSimplex(v, labels=labels)
        with pytest.raises(ValueError, match="one label per vertex"):
            GeometricSimplex(v, labels=(0, 1))

    def test_non_integral_labels_rejected(self):
        v = reference_simplex(2).vertices
        with pytest.raises(TypeError):
            GeometricSimplex(v, labels=(0, 1.7, 3))
        T = GeometricSimplex(v, labels=np.array([0, 2, 5]))
        assert T.labels == (0, 2, 5) and all(type(i) is int for i in T.labels)

    def test_embedded_gradients_tangential(self):
        # a triangle embedded in R^3: gradients lie in its plane
        T = GeometricSimplex(RNG.standard_normal((3, 3)))
        g = barycentric_gradients(T)
        normal = np.cross(T.vertices[1] - T.vertices[0], T.vertices[2] - T.vertices[0])
        assert np.max(np.abs(g @ normal)) < 1e-10


class TestBarycentricCoordinates:
    """Coordinates of a point off an embedded cell's plane are those of its orthogonal projection."""

    @staticmethod
    def _embedded(shift):
        rng = np.random.default_rng(31)
        v = rng.uniform(-1.0, 1.0, size=(3, 4)) + shift
        x = v.T @ np.array([0.2, 0.5, 0.3]) + 0.7 * np.linalg.svd((v[1:] - v[0]).T)[0][:, -1]  # off the plane
        return GeometricSimplex(v), x

    @staticmethod
    def _projection_coordinates(T, x):
        c = np.linalg.lstsq(T.edge_matrix, x - T.vertices[0], rcond=None)[0]
        return np.concatenate([[1.0 - c.sum()], c])

    @pytest.mark.parametrize("shift", [0.0, 10.0, 1e3])
    def test_off_plane_point_far_from_origin(self, shift):
        T, x = self._embedded(shift)
        lam = barycentric_coordinates(T, x)
        assert abs(lam.sum() - 1.0) <= 1e-12
        assert np.allclose(lam, self._projection_coordinates(T, x), rtol=0, atol=1e-12)
        assert np.allclose(lam, [0.2, 0.5, 0.3], rtol=0, atol=1e-12)

    def test_unchanged_under_a_common_translation(self):
        T, x = self._embedded(10.0)
        t = np.array([100.0, -50.0, 25.0, 7.0])
        moved = barycentric_coordinates(GeometricSimplex(T.vertices + t), x + t)
        assert np.allclose(moved, barycentric_coordinates(T, x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_full_dimensional_cell_matches_the_linear_system(self, d):
        T = random_simplex(d, RNG)
        x = RNG.uniform(-1.0, 1.0, size=d)
        want = np.linalg.solve(np.vstack([np.ones(d + 1), T.vertices.T]), np.concatenate([[1.0], x]))
        assert np.allclose(barycentric_coordinates(T, x), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (4,), (2, 2), ()])
    def test_wrong_point_size_is_named(self, shape):
        msg = f"barycentric_coordinates needs a point of d = 3 entries, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            barycentric_coordinates(random_simplex(3, RNG), np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3)])
    def test_takes_any_shape_of_d_entries(self, shape):
        T, x = random_simplex(3, RNG), RNG.standard_normal(3)
        assert barycentric_coordinates(T, x.reshape(shape)).tobytes() == barycentric_coordinates(T, x).tobytes()
        assert barycentric_coordinates(T, list(x)).tobytes() == barycentric_coordinates(T, x).tobytes()


class TestVolume:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_reference_volume(self, d):
        from math import factorial

        assert abs(reference_simplex(d).volume - 1.0 / factorial(d)) < 1e-14

    def test_vertex_volume_is_one(self):
        v = GeometricSimplex(np.array([[0.3, 0.4]]))
        assert v.volume == 1.0

    @pytest.mark.parametrize("d", range(7))
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_read_from_construction(self, d, scale):
        # the volume is the singular-value product the constructor checked, over m!, bit for bit;
        # reading it builds no face table, on a full-dimensional or an embedded cell
        rng = np.random.default_rng(d)
        cells = [random_simplex(d, rng, scale), GeometricSimplex(scale * rng.standard_normal((d + 1, d + 2)))]
        for T in cells:
            assert T.volume == math.prod(T._svals.tolist()) / math.factorial(T.dim)
            assert "_levels" not in vars(T)

    @pytest.mark.parametrize("p", [-480, 480])
    def test_far_cell_scales_exactly(self, p):
        # LAPACK rescales a matrix past about 2^459 or below 2^-459 by an inexact ratio; the constructor's
        # power-of-two prescale keeps such a cell's singular values, and so its volume, exact multiples
        unit = random_simplex(2, np.random.default_rng(2))
        far = GeometricSimplex(2.0**p * unit.vertices)
        assert far._svals.tobytes() == (2.0**p * unit._svals).tobytes()
        assert far.volume == 2.0 ** (2 * p) * unit.volume


class TestSurfaceGradient:
    def test_full_simplex_projection_is_identity(self):
        T = random_simplex(3, RNG)
        g = barycentric_gradients(T)
        full = simplex(0, 1, 2, 3)
        for i in range(4):
            assert np.allclose(surface_gradient(T, full, i), g[i], atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_vertex_gradient_is_negative_zero(self, d):
        # minus the empty sum, as the QR levels above derive lambda_0
        negative_zero = np.full(d, -0.0).tobytes()
        T = random_simplex(d, RNG)
        for i in T.labels:
            assert surface_gradient(T, simplex(i), i).tobytes() == negative_zero
        assert barycentric_gradients(GeometricSimplex(T.vertices[:1])).tobytes() == negative_zero

    def test_vertex_projection_is_zero(self):
        T = random_simplex(3, RNG)
        assert np.allclose(surface_gradient(T, simplex(1), 2), 0.0)

    def test_label_outside_the_cell_is_named(self):
        T = random_simplex(3, RNG)
        with pytest.raises(ValueError, match=r"^vertex i=\(9,\) is not a face of the cell with labels \(0, 1, 2, 3\)$"):
            surface_gradient(T, simplex(0, 1), 9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scaled_duality_orthogonality(self, d):
        # grad_{f+i} lambda_i is orthogonal to grad lambda_j for j != i outside f
        for _ in range(10):
            T = random_simplex(d, RNG)
            g = barycentric_gradients(T)
            for f in all_subsimplices(T):
                if f.dim == d:
                    continue
                star = [j for j in T.labels if j not in f]
                for i in star:
                    gi = surface_gradient(T, simplex(*(f.vertices + (i,))), i)
                    for j in star:
                        if j == i:
                            continue
                        scale = np.linalg.norm(gi) * np.linalg.norm(g[j])
                        assert abs(gi @ g[j]) < 1e-12 * max(scale, 1.0)


class TestTnFrames:
    def test_vertex_anchor_gives_edge_tangents(self):
        T = random_simplex(3, RNG)
        fs = nef_frames(T, T.full_simplex(), simplex(0))
        for row, i in zip(fs.normals_tn, fs.normal_labels):
            edge = T.vertices[i] - T.vertices[0]
            cosine = row @ edge / (np.linalg.norm(row) * np.linalg.norm(edge))
            assert abs(cosine - 1.0) < 1e-12  # parallel, pointing at vertex i

    def test_edge_anchor_of_tetrahedron(self):
        T = random_simplex(3, RNG)
        fs = nef_frames(T, T.full_simplex(), simplex(0, 1))
        assert fs.normal_labels == (2, 3)
        p = fs.pairing()
        assert np.all(np.abs(np.diag(p)) > 0)
        assert abs(p[0, 1]) < 1e-12 and abs(p[1, 0]) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pairing_diagonal_random(self, d):
        for _ in range(10):
            T = random_simplex(d, RNG)
            for e in all_subsimplices(T):
                fs = nef_frames(T, T.full_simplex(), e)
                p = fs.pairing()
                if p.size == 0:
                    continue
                off = p - np.diag(np.diag(p))
                assert np.max(np.abs(off)) < 1e-12 * max(1.0, np.max(np.abs(np.diag(p))))

    def test_diagonal_is_squared_norm(self):
        T = random_simplex(3, RNG)
        for e in all_subsimplices(T):
            fs = nef_frames(T, T.full_simplex(), e)
            p = fs.pairing()
            for idx in range(p.shape[0]):
                assert abs(p[idx, idx] - np.linalg.norm(fs.normals_tn[idx]) ** 2) < 1e-11

    def test_tangents_span_edge_vectors(self):
        T = random_simplex(4, RNG)
        e = simplex(0, 2, 3)
        tang = nef_frames(T, T.full_simplex(), e).tangents
        for i in (2, 3):
            v = T.vertices[i] - T.vertices[0]
            residual = v - tang.T @ (tang @ v)
            assert np.linalg.norm(residual) < 1e-12


class TestNefFrames:
    def test_full_face_reduces_to_tn(self):
        # with f the cell, the face normals are the cell's barycentric gradients
        T = random_simplex(3, RNG)
        g = barycentric_gradients(T)
        for e in all_subsimplices(T):
            fr = nef_frames(T, T.full_simplex(), e)
            assert np.array_equal(fr.normals_face, g[list(fr.normal_labels)].reshape(-1, 3))

    def test_equal_faces_give_empty_normals(self):
        T = random_simplex(3, RNG)
        fr = nef_frames(T, simplex(0, 2), simplex(0, 2))
        assert fr.normal_labels == () and fr.normals_face.shape == fr.normals_tn.shape == (0, 3)
        assert np.array_equal(fr.tangents, tangent_basis(T, simplex(0, 2)))

    def test_codimension_one_parallel(self):
        T = random_simplex(3, RNG)
        fr = nef_frames(T, simplex(0, 1, 2), simplex(0, 1))
        u = fr.normals_face[0] / np.linalg.norm(fr.normals_face[0])
        v = fr.normals_tn[0] / np.linalg.norm(fr.normals_tn[0])
        assert min(np.linalg.norm(u - v), np.linalg.norm(u + v)) < 1e-12

    def test_span_agreement(self):
        T = random_simplex(4, RNG)
        f, e = simplex(0, 1, 3), simplex(1)
        fr = nef_frames(T, f, e)
        stacked = np.vstack([fr.normals_face, fr.normals_tn])
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == f.dim - e.dim

    def test_requires_containment(self):
        T = random_simplex(3, RNG)
        for f, e in [((0, 1), (2,)), ((0, 1), (1, 2)), ((0, 1), (0, 1, 2)), ((1,), (0,))]:
            msg = re.escape(f"anchor e={e} must be contained in the face f={f}")
            with pytest.raises(ValueError, match=msg):
                nef_frames(T, simplex(*f), simplex(*e))

    def test_pairing_ratio_matches_reference(self):
        rng = np.random.default_rng(17)
        for r in range(5):
            good = rng.standard_normal((6, r, r)) + 3.0 * np.eye(r)
            bad = good.copy()
            if r:
                bad[0, 0, 0] = 0.0
                bad[1, -1, -1] = -1.0
                bad[2, 0, 0] = np.nan
                bad[3, -1, 0] = np.nan
                bad[4, 0, -1] = np.inf
                bad[5, -1, -1] = np.inf
            stack = np.concatenate([good, bad])
            for p in (stack, stack.reshape(3, 4, r, r), stack[0], stack[:0]):
                got, ref = _pairing_ratio(p), _ref_pairing_ratio(p)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (r, p.shape)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
    def test_validate_is_relative_to_the_diagonal(self, scale):
        # an off-diagonal entry of 3e-3 times the diagonal is rejected at every size
        T = GeometricSimplex(scale * random_simplex(3, np.random.default_rng(11)).vertices)
        fr = nef_frames(T, T.full_simplex(), simplex(0, 1))
        shift = np.linalg.pinv(fr.normals_face) @ np.array([0.0, 3e-3 * fr.pairing().diagonal().min()])
        bad = _with_normals_tn(fr, fr.normals_tn + np.outer([1.0, 0.0], shift))
        p = bad.pairing()
        assert abs(p[0, 1]) / p.diagonal().min() == pytest.approx(3e-3, rel=1e-6)
        with pytest.raises(ValueError, match=r"e=\(0, 1\), f=\(0, 1, 2, 3\) not diagonal: ratio 3\.000e-03"):
            validate(bad)
        with pytest.raises(ValueError, match="ratio inf"):
            validate(_with_normals_tn(fr, -fr.normals_tn))


def _pair_cells():
    """Scaled and relabelled cells of every d = 1..6."""
    cells = []
    for d in range(1, 7):
        unit = random_simplex(d, np.random.default_rng(300 + d))
        for scale in (1e-3, 1.0, 1e3):
            cells.append(GeometricSimplex(scale * unit.vertices))
        cells.append(GeometricSimplex(unit.vertices, labels=tuple(range(2, 3 * d + 5, 3))))
    return cells


class TestNefTable:
    @pytest.mark.parametrize("T", _pair_cells(), ids=lambda T: f"d{T.dim}-{T.labels[0]}-{np.abs(T.vertices).max():.0e}")
    def test_every_pair_matches_reference(self, T):
        faces, geometry = _faces(T), _ref_face_geometry(T)
        for f in faces:
            for e in faces:
                if e.issubset(f):
                    got, ref = nef_frames(T, f, e), _ref_nef_frames(geometry, f, e)
                    assert type(got) is TnFrameSet and got.e == e and got.normal_labels == ref.normal_labels
                    for name in ("tangents", "normals_face", "normals_tn"):
                        assert np.array_equal(getattr(got, name), getattr(ref, name)), (f, e, name)

    def test_failing_pair_leaves_its_group_usable(self):
        # on slivers of flatness 1e-7 some pairs miss PAIRING_RTOL; others of the same (|f|, |e|) pass
        rng = np.random.default_rng(801)
        for _ in range(20):
            T = GeometricSimplex(_flatten_last_vertex(random_simplex(4, rng).vertices.copy(), 1e-7))
            faces, geometry = _faces(T), _ref_face_geometry(T)
            pairs = [(f, e) for f in faces for e in faces if e.issubset(f)]
            outcome = {}
            for f, e in pairs:
                try:
                    validate(_ref_nef_frames(geometry, f, e))
                    outcome[f, e] = None
                except ValueError as exc:
                    outcome[f, e] = str(exc)
            failing = [(f, e) for (f, e), msg in outcome.items() if msg is not None]
            if failing:
                break
        else:
            pytest.fail("no sliver with a failing pair")
        f, e = failing[0]
        with pytest.raises(ValueError) as exc:
            nef_frames(T, f, e)
        assert str(exc.value) == outcome[f, e]
        assert "not diagonal: ratio" in str(exc.value)
        passing = [(g, a) for (g, a), msg in outcome.items() if msg is None and (len(g), len(a)) == (len(f), len(e))]
        assert passing
        for g, a in passing:
            assert np.array_equal(nef_frames(T, g, a).normals_tn, _ref_nef_frames(geometry, g, a).normals_tn)
        raised = set()
        for g, a in pairs:
            try:
                nef_frames(T, g, a)
            except ValueError:
                raised.add((g, a))
        assert raised == set(failing)

    def test_t_n_bases_build_only_cell_groups(self):
        from tnforms.tnbasis import pairing_matrix

        T = random_simplex(4, RNG)
        for e in all_subsimplices(T):
            for k in range(T.dim + 1):
                pairing_matrix(T, e, k)
        assert {f.bit_count() for f, _ in T._nef} == {T.dim + 1}
        assert {e.bit_count() for _, e in T._nef} == set(range(1, T.dim + 2))

    def test_frames_are_read_only(self):
        T = random_simplex(3, RNG)
        fr = nef_frames(T, simplex(0, 1, 3), simplex(1))
        for arr in (fr.tangents, fr.normals_face, fr.normals_tn, fr.frame_face, fr.frame_tn):
            with pytest.raises(ValueError):
                arr[...] = 0.0

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_slices_are_views_into_the_group(self, d):
        # the three former fields are row slices of the two stored frame
        # matrices, and every pair's matrices with one face size live in one
        # (2, pairs, |f| - 1, d) array
        T = random_simplex(d, RNG)
        faces = _faces(T)
        homes = {}
        for f in faces:
            for e in faces:
                if not e.issubset(f):
                    continue
                fr = nef_frames(T, f, e)
                assert fr.frame_face.shape == fr.frame_tn.shape == (f.dim, d)
                assert fr.tangents.shape == (e.dim, d) and fr.normals_tn.shape == (f.dim - e.dim, d)
                home = homes.setdefault(len(f), fr.frame_face.base)
                pairs = math.comb(d + 1, len(f)) * (2 ** len(f) - 1)
                assert fr.frame_tn.base is home and home.shape == (2, pairs, f.dim, d)
                for arr in (fr.tangents, fr.normals_face, fr.normals_tn):
                    assert not arr.flags.writeable and arr.base is home
                assert np.array_equal(fr.tangents, fr.frame_tn[: e.dim])
                assert np.array_equal(np.vstack([fr.tangents, fr.normals_face]), fr.frame_face)


def _single_pass_cells():
    """Every d = 1..6 at scales 1e-14, 1 and 1e3, an embedded cell and a relabelled one."""
    cells = []
    for d in range(1, 7):
        unit = random_simplex(d, np.random.default_rng(400 + d)).vertices
        cells += [GeometricSimplex(scale * unit) for scale in (1e-14, 1.0, 1e3)]
    rng = np.random.default_rng(12)
    cells.append(GeometricSimplex(rng.standard_normal((4, 6))))
    cells.append(GeometricSimplex(random_simplex(4, rng).vertices, labels=(1, 3, 4, 8, 11)))
    return cells


def _ref_nef_table(T):
    """Every pair's reference entry, all (|f|, |e|) groups merged."""
    n = len(T.labels)
    table = {}
    for nf in range(1, n + 1):
        for ne in range(1, nf + 1):
            table.update(_ref_nef_group(T, nf, ne))
    return table


def _mask(T, labels):
    """The position mask of a face of T named by its labels, bit i for T's i-th label."""
    return sum(1 << T.labels.index(j) for j in labels)


def _assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _cell_id(T):
    return f"d{T.dim}in{T.ambient_dim}-{T.labels[0]}-{np.abs(T.vertices).max():.0e}"


class TestSinglePassAgainstReference:
    """The padded QR and the per-face-size tables against the per-dimension and per-(|f|, |e|) builds, bit for bit."""

    @pytest.mark.parametrize("T", _single_pass_cells(), ids=_cell_id)
    def test_levels(self, T):
        ref = _ref_levels(T)
        assert len(T._levels) == len(ref) == T.dim + 1
        for level, want in zip(T._levels, ref):
            for got, stack in zip(level[:3], want):
                _assert_same_bits(got, stack)

    @pytest.mark.parametrize("T", _single_pass_cells(), ids=_cell_id)
    def test_nef_entries(self, T):
        ref = _ref_nef_table(T)
        for f in {f for f, _ in ref}:
            nef_frames(T, simplex(*f), simplex(*f))  # builds f's size
        assert T._nef.keys() == {(_mask(T, f), _mask(T, e)) for f, e in ref}
        for (f, e), (ratio, labels, face, tn) in ref.items():
            got_ratio, got_face, got_tn, got_product = T._nef[_mask(T, f), _mask(T, e)]
            _assert_same_bits(got_ratio, ratio)
            if f == T.labels:  # only the cell's own pairs keep the frame product the t-n records read
                assert not got_product.flags.writeable
                _assert_same_bits(got_product, got_face.dot(got_tn.T))
            else:
                assert got_product is None
            assert TnFrameSet(simplex(*e), simplex(*f), got_face, got_tn).normal_labels == labels, (f, e)
            _assert_same_bits(got_face, face)
            _assert_same_bits(got_tn, tn)

    def test_sliver_raises_where_the_reference_ratio_fails(self):
        rng = np.random.default_rng(801)
        for _ in range(20):
            T = GeometricSimplex(_flatten_last_vertex(random_simplex(4, rng).vertices.copy(), 1e-7))
            ref = _ref_nef_table(T)
            if any(ratio > PAIRING_RTOL for ratio, *_ in ref.values()):
                break
        else:
            pytest.fail("no sliver with a failing pair")
        outcome = {True: 0, False: 0}
        for (f, e), (ratio, labels, face, tn) in ref.items():
            outcome[ratio > PAIRING_RTOL] += 1
            if ratio > PAIRING_RTOL:
                msg = re.escape(f"pairing at e={e}, f={f} not diagonal: ratio {ratio:.3e}")
                with pytest.raises(ValueError, match=msg):
                    nef_frames(T, simplex(*f), simplex(*e))
            else:
                fr = nef_frames(T, simplex(*f), simplex(*e))
                assert fr.normal_labels == labels
                _assert_same_bits(fr.frame_face, face)
                _assert_same_bits(fr.frame_tn, tn)
        assert outcome[True] and outcome[False]


def _same_under_label_map(T, U):
    """Assert that every (f, e) of T, contained or not, gives U under the label map what it gives T, bit for bit.

    Returns T's error messages.
    """
    label = dict(zip(T.labels, U.labels))
    faces, raised = all_subsimplices(T), []
    for f in faces:
        for e in faces:
            g, a = (simplex(*map(label.get, x.vertices)) for x in (f, e))
            try:
                got = nef_frames(T, f, e)
            except ValueError as exc:
                with pytest.raises(ValueError) as mapped:
                    nef_frames(U, g, a)
                # both messages name e first, then f: a pairing error or e not contained in f
                want = str(exc).replace(f"e={e.vertices}", f"e={a.vertices}", 1)
                want = want.replace(f"f={f.vertices}", f"f={g.vertices}", 1)
                assert want != str(exc) and str(mapped.value) == want
                raised.append(str(exc))
                continue
            ref = nef_frames(U, g, a)
            assert ref.e is a and ref.f is g
            assert ref.normal_labels == tuple(map(label.get, got.normal_labels))
            _assert_same_bits(ref.frame_face, got.frame_face)
            _assert_same_bits(ref.frame_tn, got.frame_tn)
    assert T._nef.keys() == U._nef.keys()
    for key, (ratio, face, tn, product) in T._nef.items():
        assert U._nef[key][0] == ratio
        _assert_same_bits(U._nef[key][1], face)
        _assert_same_bits(U._nef[key][2], tn)
        assert (U._nef[key][3] is None) == (product is None)
        if product is not None:
            _assert_same_bits(U._nef[key][3], product)
    return raised


def _spread(T):
    """T's vertices labelled 3, 6, 9, ..."""
    return GeometricSimplex(T.vertices, labels=tuple(range(3, 3 * len(T.labels) + 1, 3)))


class TestLabelFreeTable:
    """A cell's n-e-f table is keyed by position masks: any labelling of the same vertices builds the same one."""

    @pytest.mark.parametrize("d", range(7))
    def test_spread_labels_give_the_same_frames(self, d):
        T = random_simplex(d, np.random.default_rng(500 + d))
        raised = _same_under_label_map(T, _spread(T))
        n = d + 1  # every pair of the 2^n - 1 faces but the 3^n - 2^n with e in f
        assert len(raised) == (2**n - 1) ** 2 - (3**n - 2**n) and all("must be contained" in msg for msg in raised)

    def test_spread_labels_give_the_same_pairing_errors(self):
        rng = np.random.default_rng(801)
        for _ in range(20):
            T = GeometricSimplex(_flatten_last_vertex(random_simplex(4, rng).vertices.copy(), 1e-7))
            nef_frames(T, T.full_simplex(), T.full_simplex())
            if any(ratio > PAIRING_RTOL for ratio, *_ in T._nef.values()):
                break
        else:
            pytest.fail("no sliver with a failing pair")
        raised = _same_under_label_map(T, _spread(T))
        assert any("not diagonal" in msg for msg in raised)


class TestFaceLookup:
    def test_labels_outside_the_cell_are_named(self):
        T = random_simplex(3, RNG)
        msg = r"\(0, 9\) is not a face of the cell with labels \(0, 1, 2, 3\)"
        with pytest.raises(ValueError, match=msg):
            nef_frames(T, simplex(0, 9), simplex(0))
        with pytest.raises(ValueError, match=msg):
            tangent_basis(T, simplex(0, 9))
        with pytest.raises(ValueError, match=msg):
            surface_gradient(T, simplex(0, 9), 0)

    def test_nef_frames_names_the_face_and_the_anchor(self):
        T = random_simplex(3, RNG)
        with pytest.raises(ValueError, match=r"^face f=\(0, 9\) is not a face of the cell with labels \(0, 1, 2, 3\)$"):
            nef_frames(T, simplex(0, 9), simplex(9))
        with pytest.raises(ValueError, match=r"^anchor e=\(9,\) is not a face of the cell with labels \(0, 1, 2, 3\)$"):
            nef_frames(T, simplex(0, 1), simplex(9))

    @pytest.mark.parametrize("d", range(7))
    def test_cells_on_one_abstract_simplex_share_their_faces(self, d):
        # default-labelled cells share one abstract simplex per vertex count, so
        # every face, however it is asked for, is one object
        a, b = random_simplex(d, np.random.default_rng(520 + d)), reference_simplex(d)
        faces = all_subsimplices(a)
        assert len(faces) == 2 ** (d + 1) - 1 and all(f is g for f, g in zip(faces, all_subsimplices(b), strict=True))
        assert all(f is g for f, g in zip(faces, (g for s in range(d + 1) for g in subsimplices(b.full_simplex(), s))))
        relabelled = all_subsimplices(_spread(a))
        assert [f.vertices for f in relabelled] == [tuple(3 * i + 3 for i in f.vertices) for f in faces]

    def test_relabelled_cell_rejects_default_labels(self):
        T = GeometricSimplex(random_simplex(2, RNG).vertices, labels=(2, 5, 8))
        with pytest.raises(ValueError, match=r"\(0, 1\) is not a face of the cell with labels \(2, 5, 8\)"):
            nef_frames(T, simplex(0, 1), simplex(1))
        assert nef_frames(T, simplex(2, 5, 8), simplex(5)).normal_labels == (2, 8)


class TestOrientedSubframe:
    def test_counterclockwise_full_frame(self):
        T = GeometricSimplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        fr = oriented_subframe(T, simplex(0, 1, 2))
        assert np.linalg.det(fr.vectors) > 0

    def test_edge_unit_tangent(self):
        T = random_simplex(3, RNG)
        fr = oriented_subframe(T, simplex(1, 3))
        v = T.vertices[3] - T.vertices[1]
        assert np.allclose(fr.vectors[0], v / np.linalg.norm(v))

    def test_shared_face_consistency(self):
        # two cells over the same face return the same frame
        pts = RNG.standard_normal((5, 3))
        T1 = GeometricSimplex(pts[[0, 1, 2, 3]], labels=(0, 1, 2, 3))
        T2 = GeometricSimplex(pts[[0, 1, 2, 4]], labels=(0, 1, 2, 4))
        f = simplex(0, 1, 2)
        a, b = oriented_subframe(T1, f), oriented_subframe(T2, f)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("scale", [1e-14, 1e3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_compounds_read_the_face_table(self, d, scale):
        T = GeometricSimplex(scale * random_simplex(d, np.random.default_rng(300 + d)).vertices)
        for f in _faces(T)[d + 1 :]:  # the faces of dimension >= 1
            frame = oriented_subframe(T, f)
            for k in range(f.dim + 2):
                ref = compound(np.array(frame.vectors), k)
                assert frame._compound(k).tobytes() == ref.tobytes() and frame._compound(k).shape == ref.shape

    @pytest.mark.parametrize("d", [2, 4])
    def test_rows_are_the_checked_frame_rows(self, d):
        T = random_simplex(d, RNG)
        for f in _faces(T)[d + 1 :]:
            frame = oriented_subframe(T, f)
            assert frame.vectors.tobytes() == Frame(tangent_basis(T, f)).vectors.tobytes()
            with pytest.raises(ValueError):
                frame.vectors[0, 0] = 1.0

    def test_one_compound_per_face_dimension_and_degree(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exterior, "compound", lambda A, k: calls.append((len(A[0]), k)) or compound(A, k))
        T = random_simplex(4, RNG)
        for _ in range(2):
            for f in _faces(T)[5:]:
                frame = oriented_subframe(T, f)
                for k in range(f.dim + 1):
                    frame._compound(k)
        assert sorted(calls) == [(s, k) for s in range(1, 5) for k in range(s + 1)]

    def test_failed_orthonormality_flag_raises_the_frame_message(self, monkeypatch):
        monkeypatch.setattr(exterior, "ORTHONORMAL_RTOL", -1.0)
        T = random_simplex(3, RNG)
        with pytest.raises(ValueError, match="frame vectors are not orthonormal"):
            oriented_subframe(T, simplex(0, 2))


# Reference facet frame: the fresh outward normal, determinant test and
# checked Frame of the rows the facet record replaced.


def _ref_induced_facet_frame(T, facet):
    (i,) = set(T.labels) - set(facet.vertices)
    g = barycentric_gradients(T)[T.labels.index(i)]
    n = -g / np.linalg.norm(g)
    rows = tangent_basis(T, facet).copy()
    if np.linalg.det(np.vstack([n, rows])) < 0:
        rows[-1] = -rows[-1]
    return Frame(rows), n


class TestFacetFrames:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_reference_bit_for_bit(self, d):
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 1e3):
            T = GeometricSimplex(scale * random_simplex(d, rng).vertices)
            for F in subsimplices(T.full_simplex(), d - 1):
                (frame, n), (ref, ref_n) = induced_facet_frame(T, F), _ref_induced_facet_frame(T, F)
                assert frame.vectors.tobytes() == ref.vectors.tobytes()
                assert n.tobytes() == ref_n.tobytes()
                for k in range(d):
                    assert frame._compound(k).tobytes() == ref._compound(k).tobytes()

    def test_rows_are_read_only_and_normals_fresh(self):
        T = random_simplex(3, RNG)
        F = simplex(0, 2, 3)
        frame, n = induced_facet_frame(T, F)
        with pytest.raises(ValueError):
            frame.vectors[0, 0] = 1.0
        n[:] = 0.0
        assert np.linalg.norm(induced_facet_frame(T, F)[1]) == pytest.approx(1.0)
        for G in subsimplices(T.full_simplex(), 2):
            assert np.linalg.norm(induced_facet_frame(T, G)[1]) == pytest.approx(1.0)

    def test_errors(self, monkeypatch):
        segment = GeometricSimplex(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="needs ambient dimension >= 2"):
            induced_facet_frame(segment, simplex(0))
        embedded = GeometricSimplex(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        T = random_simplex(3, RNG)
        with pytest.raises(ValueError, match="induced facet frame needs a full-dimensional cell, got dim 2 in ambient dim 3"):
            induced_facet_frame(embedded, simplex(0, 1))
        with pytest.raises(ValueError, match="facet must have codimension one"):
            induced_facet_frame(T, simplex(0, 1))
        monkeypatch.setattr(exterior, "ORTHONORMAL_RTOL", -1.0)
        with pytest.raises(ValueError, match="frame vectors are not orthonormal"):
            induced_facet_frame(random_simplex(3, RNG), simplex(0, 1, 2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_induced_orientation(self, d):
        T = random_simplex(d, RNG)
        for F in subsimplices(T.full_simplex(), d - 1):
            frame, n = induced_facet_frame(T, F)
            assert np.linalg.det(np.vstack([n, frame.vectors])) > 0
            assert np.max(np.abs(frame.vectors @ n)) < 1e-12

    @pytest.mark.parametrize("facet", [(0, 1, 7), (0, 5, 7)])
    def test_facet_labels_outside_the_cell_are_named(self, facet):
        T = random_simplex(3, RNG)
        msg = re.escape(f"{facet} is not a face of the cell with labels (0, 1, 2, 3)")
        with pytest.raises(ValueError, match=msg):
            induced_facet_frame(T, simplex(*facet))

    def test_outward_normal_points_away(self):
        T = random_simplex(3, RNG)
        centroid = T.vertices.mean(axis=0)
        for F in subsimplices(T.full_simplex(), 2):
            n = induced_facet_frame(T, F)[1]
            face_centroid = T.vertices[list(F.vertices)].mean(axis=0)
            assert n @ (face_centroid - centroid) > 0


class TestHelpers:
    def test_subsimplex_geometry_labels(self):
        T = random_simplex(3, RNG)
        g = subsimplex_geometry(T, simplex(1, 3))
        assert g.labels == (1, 3)
        assert np.array_equal(g.vertices[0], T.vertices[1])

    def test_labelled_subsimplex_builds_every_face(self):
        T = random_simplex(4, RNG)
        g = subsimplex_geometry(T, simplex(1, 2, 3))
        assert g.full_simplex() == simplex(1, 2, 3)
        faces = all_subsimplices(g)
        assert len(faces) == 7
        for f in faces:
            assert np.array_equal(tangent_basis(g, f), tangent_basis(T, f))

    def test_random_simplex_deterministic(self):
        a = random_simplex(3, np.random.default_rng(5)).vertices
        b = random_simplex(3, np.random.default_rng(5)).vertices
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [0.0, -0.0, math.nan, math.inf])
    def test_random_simplex_rejects_a_bad_scale(self, scale):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"non-zero scale, got {scale}"):
            random_simplex(3, rng, scale)
        assert rng.bit_generator.state == state  # raised before any draw

    def test_random_simplex_negative_scale(self):
        a = random_simplex(3, np.random.default_rng(5), -2.0).vertices
        b = random_simplex(3, np.random.default_rng(5)).vertices
        assert np.array_equal(a, -2.0 * b)

    def test_random_vertex(self):
        T = random_simplex(0, np.random.default_rng(5))
        assert T.vertices.shape == (1, 0) and T.dim == 0 and T.labels == (0,)

    @pytest.mark.parametrize("d", [-1, -3])
    def test_negative_dimension_rejected(self, d):
        with pytest.raises(ValueError, match=f"got d={d}"):
            reference_simplex(d)
        with pytest.raises(ValueError, match=f"got d={d}"):
            random_simplex(d, np.random.default_rng(5))

    def test_tangent_basis_of_vertex_empty(self):
        T = random_simplex(2, RNG)
        assert tangent_basis(T, simplex(1)).shape == (0, 2)


class _Draws:
    """A generator stand-in whose ``uniform`` returns the given arrays in turn."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def uniform(self, low, high, size):
        out = next(self.draws)
        assert out.shape == size
        return out


class TestCellConstruction:
    @pytest.mark.parametrize("scale", [1e-14, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("d", range(7))
    def test_random_simplex_matches_the_two_svd_loop(self, d, scale):
        rng, ref_rng = np.random.default_rng([d, 23]), np.random.default_rng([d, 23])
        for _ in range(50):
            T, ref = random_simplex(d, rng, scale), _ref_random_simplex(d, ref_rng, scale)
            assert T.vertices.tobytes() == ref.vertices.tobytes() and T.vertices.shape == ref.vertices.shape
            assert T.labels == ref.labels
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_a_degenerate_candidate_raises(self):
        # the one departure from the two-SVD loop, which resampled it: the constructor's check comes first
        flat = np.array([[0.0, 0.0], [0.0, 0.0], [2.0 / 0.3, -1.0 / 0.3]])  # the last vertex lands on (2, 0)
        regular = np.zeros((3, 2))
        assert _ref_random_simplex(2, _Draws(flat, regular)).vertices.tobytes() == np.eye(3, 2, k=-1).tobytes()
        with pytest.raises(DegenerateSimplexError, match="singular values"):
            random_simplex(2, _Draws(flat, regular))

    @pytest.mark.parametrize("d", range(7))
    def test_singular_values_are_kept_read_only(self, d):
        T = random_simplex(d, RNG, 10.0 ** RNG.uniform(-3.0, 3.0))
        want = np.linalg.svd(T.edge_matrix, compute_uv=False) if d else np.ones(1)
        assert T._svals.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            T._svals[0] = 1.0

    def test_fields_and_errors_match_the_reference_constructor(self):
        for vertices, labels in _constructor_cases():
            want = _construction_bits(lambda: _ref_geometric_simplex(vertices, labels))

            def build():
                T = GeometricSimplex(vertices, labels=labels)
                return T.vertices, T.labels, T.edge_matrix, T._svals, T._content

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _construction_bits(build) == want, (vertices, labels)

    def test_default_labels_share_one_immutable_full_simplex(self):
        rng = np.random.default_rng(36)
        for d in range(7):
            cells = [random_simplex(d, rng), GeometricSimplex(random_simplex(d, rng).vertices), reference_simplex(d)]
            full = cells[0].full_simplex()
            assert all(T.full_simplex() is full for T in cells)
            assert full == simplex(*range(d + 1)) and all(T.labels == tuple(range(d + 1)) for T in cells)
            with pytest.raises(dataclasses.FrozenInstanceError):
                full.vertices = (7,)
        labelled = GeometricSimplex(np.eye(3, 2, k=-1), labels=(0, 1, 2))
        assert labelled.full_simplex() == reference_simplex(2).full_simplex()

    def test_one_errstate_per_call(self, monkeypatch):
        entered = []
        errstate = np.errstate

        def counted(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        sliver = np.array([[0.0, 0.0], [0.0, 0.0], [2.0 / 0.3, -0.9 / 0.3]])  # the last vertex lands on (2, 0.1)
        regular = np.zeros((3, 2))
        for resamples in (0, 1, 5):
            entered.clear()
            T = random_simplex(2, _Draws(*[sliver] * resamples, regular))  # the regular cell comes after every sliver
            assert T.vertices.tobytes() == np.eye(3, 2, k=-1).tobytes()
            assert len(entered) == 1
        for d in range(7):
            entered.clear()
            random_simplex(d, np.random.default_rng(d))
            assert len(entered) == 1
        entered.clear()
        with pytest.raises(DegenerateSimplexError, match="^a coordinate overflows: the volume is not representable$"):
            random_simplex(3, np.random.default_rng(0), 1.7e308)
        assert len(entered) == 1
        entered.clear()
        GeometricSimplex(regular + np.eye(3, 2, k=-1))
        assert len(entered) == 1

    def test_a_cell_owns_its_vertices(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        T = GeometricSimplex(v)
        v[2] = [0.0, 1e-20]  # used to make T a degenerate triangle that still read volume 0.5
        assert T.vertices.tobytes() == np.eye(3, 2, k=-1).tobytes() and T.volume == 0.5
        assert not np.shares_memory(T.vertices, v)

    def test_vertices_are_read_only(self):
        T = GeometricSimplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            T.vertices[2] = [0.0, 1e-20]  # used to skip every construction check
        with pytest.raises(ValueError):
            T.edge_matrix[1] = [0.0, 1e-20]
        R = reference_simplex(2)
        assert not R.vertices.flags.writeable
        assert not np.shares_memory(R.vertices, reference_simplex(2).vertices)

    @pytest.mark.parametrize(
        "labels, msg",
        [(None, "at least one vertex"), ((), "at least one vertex"), ((0,), "one label per vertex required")],
    )
    def test_no_vertices_rejected(self, labels, msg):
        with pytest.raises(ValueError, match=msg):
            GeometricSimplex(np.zeros((0, 2)), labels=labels)

    def test_one_svd_per_candidate(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        sliver = np.array([[0.0, 0.0], [0.0, 0.0], [2.0 / 0.3, -0.9 / 0.3]])  # the last vertex lands on (2, 0.1)
        regular = np.zeros((3, 2))
        T = random_simplex(2, _Draws(sliver, regular))
        assert T.vertices.tobytes() == np.eye(3, 2, k=-1).tobytes()
        assert len(calls) == 2  # the resampled sliver, then the accepted cell
        calls.clear()
        _ref_random_simplex(2, _Draws(sliver, regular))
        assert len(calls) == 3  # the two-SVD loop decomposed the accepted cell twice
