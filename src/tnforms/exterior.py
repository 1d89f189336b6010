"""Exterior algebra of constant-coefficient alternating forms on R^d.

A k-form is stored as its coefficient vector over the lexicographically
ordered increasing sequences of length k, always in the ambient positively
oriented orthonormal frame dx_1, ..., dx_d.  Subspace computations go
through explicit orthonormal :class:`Frame` objects; the frame's row order
defines the orientation used by the subspace Hodge star.

Operations never loop over index sequences when called.  Each sign and
index fact is an integer table cached by degrees and dimension only, built
from the tuples of ``combinatorics.sequences``:
``_wedge_table(p, q, d)`` holds each disjoint pair of sequences with the
position and sign of their merge and ``_contraction_table`` each dropped
slot; a wedge or a contraction is one gather and one ``np.bincount``.  The
star is a signed permutation: ``_hodge_table`` holds, for each output
sequence, the input sequence it is the ``complement`` of and the sign, and
``_star`` is one gather along the last axis, of one form or of a stack of
coefficient rows.  ``compound(A, k)`` holds all k x k minors of A from one
batched determinant over one gather along the last axis of A's flattened
matrices, at the flat positions ``_minor_index(k, m, n)`` caches for an
(m, n) matrix; leading axes of A are a batch, so one call serves a stack
of frames.  Evaluation, wedges of 1-forms, restriction to a frame
(``C_k(F) @ a``) and its pullback (``c @ C_k(F)``) are then products.  The
subspace star fuses the three: with r = C_k(F) a, it is
``_star(r) @ C_{l-k}(F)``, and r C_k(F) - a is the part of a normal to the
frame; it builds one form, the result.

The tables fix the shape of every kernel result, so ``wedge``,
``contraction``, ``hodge_star``, ``restrict_to_frame``, ``pullback_embed``
and ``hodge_star_in_subspace`` build it through ``_form``, which skips the
checks of ``AltForm.__post_init__``; only forms made from outside data are
checked.  A :class:`Frame` is one row of a read-only stack of row sets, and
its k-th compound is that row of ``compound`` of the whole stack, built once
per k in a cache the stack's frames share: a plain frame is a stack of one,
the face frames of a cell (``simplex.oriented_subframe``) are the rows of
the cell's tangent stack of their dimension.  ``_orthonormal`` is the one
orthonormality test, of a frame or of every row set of a stack at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import binomial, complement, inversion_sign, sequence_position, sequences
from .errors import ORTHONORMAL_RTOL


@dataclass(frozen=True, eq=False)
class AltForm:
    """Constant-coefficient alternating k-form on R^d."""

    d: int
    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if not (0 <= self.k <= self.d):
            raise ValueError(f"need 0 <= k <= d, got k={self.k}, d={self.d}")
        if c.shape[0] != binomial(self.d, self.k):
            raise ValueError(
                f"expected {binomial(self.d, self.k)} coefficients for "
                f"(d, k) = ({self.d}, {self.k}), got {c.shape[0]}"
            )
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "AltForm") -> "AltForm":
        _check_same_space(self, other)
        return AltForm(self.d, self.k, self.coeffs + other.coeffs)

    def __sub__(self, other: "AltForm") -> "AltForm":
        _check_same_space(self, other)
        return AltForm(self.d, self.k, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "AltForm":
        return AltForm(self.d, self.k, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AltForm":
        return AltForm(self.d, self.k, -self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _form(d: int, k: int, coeffs: np.ndarray) -> AltForm:
    """An AltForm over a kernel's result, a 1-D float array of C(d, k) entries; not re-checked."""
    form = object.__new__(AltForm)
    form.__dict__.update(d=d, k=k, coeffs=coeffs)
    return form


def _check_same_space(a: AltForm, b: AltForm):
    if a.d != b.d or a.k != b.k:
        raise ValueError(f"form space mismatch: ({a.d},{a.k}) vs ({b.d},{b.k})")


def compound(A: np.ndarray, k: int) -> np.ndarray:
    """The k-th compound matrix of A: all k x k minors from one batched determinant.

    Entry (r, c) is the minor on the r-th row sequence and the c-th column
    sequence of length k, both in lexicographic order.  Leading axes are a
    batch: A of shape (..., m, n) gives (..., C(m, k), C(n, k)), each matrix
    bit for bit its own compound.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or k < 0:
        raise ValueError(f"compound needs k >= 0 and a matrix or a stack of them, got k={k}, shape {A.shape}")
    m, n = A.shape[-2:]
    return np.linalg.det(A.reshape(A.shape[:-2] + (m * n,)).take(_minor_index(k, m, n), axis=-1))


@lru_cache(maxsize=None)
def _index_array(k: int, d: int) -> np.ndarray:
    """0-based entries of the length-k sequences in 1..d, one sequence per row."""
    seqs = sequences(k, d)
    return np.array(seqs, dtype=np.intp).reshape(len(seqs), k) - 1


@lru_cache(maxsize=None)
def _minor_index(k: int, m: int, n: int) -> np.ndarray:
    """Flat positions in an (m, n) matrix of every k x k minor's entries, (C(m, k), C(n, k), k, k); read-only."""
    rows, cols = _index_array(k, m), _index_array(k, n)
    index = rows[:, None, :, None] * n + cols[None, :, None, :]
    index.flags.writeable = False
    return index


def _columns(rows) -> tuple[np.ndarray, ...]:
    return tuple(np.array(column) for column in zip(*rows))


@lru_cache(maxsize=None)
def _wedge_table(p: int, q: int, d: int) -> tuple[np.ndarray, ...]:
    """(i, j, out, sign): dx_si ^ dx_sj = sign dx_out over every disjoint pair."""
    pos = sequence_position(p + q, d)
    return _columns(
        (i, j, pos[tuple(sorted(si + sj))], inversion_sign(si + sj))
        for i, si in enumerate(sequences(p, d))
        for j, sj in enumerate(sequences(q, d))
        if not set(si) & set(sj)
    )


@lru_cache(maxsize=None)
def _contraction_table(k: int, d: int) -> tuple[np.ndarray, ...]:
    """(src, slot, dst, sign): dropping entry i of sequence src leaves dst, sign (-1)^i."""
    pos = sequence_position(k - 1, d)
    return _columns(
        (src, sig[i] - 1, pos[sig[:i] + sig[i + 1 :]], (-1) ** i)
        for src, sig in enumerate(sequences(k, d))
        for i in range(k)
    )


@lru_cache(maxsize=None)
def _hodge_table(k: int, d: int) -> tuple[np.ndarray, ...]:
    """(src, sign): the i-th coefficient of a starred k-form is sign[i] times its coefficient src[i]."""
    pos = sequence_position(k, d)
    sigs = [complement(rest, d) for rest in sequences(d - k, d)]
    return _columns((pos[sig], inversion_sign(sig + rest)) for sig, rest in zip(sigs, sequences(d - k, d)))


def _star(coeffs: np.ndarray, k: int, d: int) -> np.ndarray:
    """Hodge star of k-form coefficients along the last axis: one signed gather."""
    src, sign = _hodge_table(k, d)
    return sign * coeffs.take(src, axis=-1)


def wedge(omega: AltForm, eta: AltForm) -> AltForm:
    """Wedge product; degrees add and antisymmetry carries the usual sign."""
    if omega.d != eta.d:
        raise ValueError("ambient dimension mismatch")
    d, p, q = omega.d, omega.k, eta.k
    if p + q > d:
        raise ValueError(f"wedge degree {p}+{q} exceeds ambient dimension {d}")
    i, j, out, sign = _wedge_table(p, q, d)
    coeffs = np.bincount(out, weights=sign * omega.coeffs[i] * eta.coeffs[j], minlength=binomial(d, p + q))
    return _form(d, p + q, coeffs)


def wedge_all(forms: list[AltForm], d: int | None = None) -> AltForm:
    """Wedge a list of 1-forms: the maximal minors of their stacked coefficients; the empty product is 1."""
    if not forms:
        if d is None:
            raise ValueError("ambient dimension needed for the empty wedge")
        return AltForm(d, 0, np.ones(1))
    if any(w.k != 1 for w in forms):
        raise ValueError(f"wedge_all takes 1-forms, got degrees {[w.k for w in forms]}")
    if any(w.d != forms[0].d for w in forms):
        raise ValueError("ambient dimension mismatch")
    return AltForm(forms[0].d, len(forms), compound(np.vstack([w.coeffs for w in forms]), len(forms))[0])


def contraction(omega: AltForm, v: np.ndarray) -> AltForm:
    """Interior product omega .| v, plugging v into the first slot."""
    if omega.k == 0:
        raise ValueError("cannot contract a 0-form")
    d, k = omega.d, omega.k
    v = np.asarray(v, dtype=float).reshape(d)
    src, slot, dst, sign = _contraction_table(k, d)
    coeffs = np.bincount(dst, weights=sign * omega.coeffs[src] * v[slot], minlength=binomial(d, k - 1))
    return _form(d, k - 1, coeffs)


def hodge_star(omega: AltForm) -> AltForm:
    """Hodge star in the ambient positively oriented orthonormal frame."""
    d, k = omega.d, omega.k
    return _form(d, d - k, _star(omega.coeffs, k, d))


def inner(omega: AltForm, eta: AltForm) -> float:
    """Inner product; the dx_sigma form an orthonormal basis."""
    _check_same_space(omega, eta)
    return float(np.dot(omega.coeffs, eta.coeffs))


def flat(v: np.ndarray) -> AltForm:
    """The 1-form v-flat with the same components as v."""
    v = np.asarray(v, dtype=float).reshape(-1)
    return AltForm(v.shape[0], 1, v.copy())


def evaluate(omega: AltForm, vectors) -> float:
    """Apply the multilinear functional to k vectors."""
    k, d = omega.k, omega.d
    vecs = [np.asarray(v, dtype=float).reshape(d) for v in vectors]
    if len(vecs) != k:
        raise ValueError(f"expected {k} vectors, got {len(vecs)}")
    return float(compound(np.reshape(vecs, (k, d)), k)[0] @ omega.coeffs)


def volume_coefficient(omega: AltForm) -> float:
    """Coefficient of the volume form dx_1 ^ ... ^ dx_d of a top-degree form."""
    if omega.k != omega.d:
        raise ValueError("volume coefficient needs a top-degree form")
    return float(omega.coeffs[0])


def _orthonormal(stack: np.ndarray, where: np.ndarray | bool = True) -> np.ndarray:
    """Per row set of a stack (..., s, n): is its Gram matrix within ORTHONORMAL_RTOL of the identity?

    ``where`` (..., s, s) masks the Gram entries tested, every one by
    default.  The ``<=`` test is false on NaN, so non-finite rows fail.
    """
    s = stack.shape[-2]
    gram = stack @ np.swapaxes(stack, -1, -2)
    gram.reshape(gram.shape[:-2] + (s * s,))[..., :: s + 1] -= 1.0
    return np.abs(gram).max(axis=(-2, -1), initial=0.0, where=where) <= ORTHONORMAL_RTOL


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered orthonormal frame of a subspace of R^d, one vector per row.

    The row order is meaningful: it fixes the orientation used by the
    subspace Hodge star.  Rows that fail ``_orthonormal`` are rejected,
    non-finite rows too.  A frame is row ``_at`` of a read-only stack of row
    sets, ``vectors`` that row's view, and reads its k-th compound from the
    stack's compound, built once per k into the ``_compounds`` cache that
    every frame of the stack shares.  ``Frame(rows)`` is a stack of one over
    a read-only copy of the rows, so the compounds stay valid; a face frame
    of ``simplex.oriented_subframe`` is a row of its cell's tangent stack,
    tested there.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError("frame vectors must form a 2-D array (rows = vectors)")
        if not _orthonormal(v):
            raise ValueError("frame vectors are not orthonormal")
        v.flags.writeable = False
        self.__dict__.update(vectors=v, _stack=v[None], _at=0, _compounds={})

    @classmethod
    def _of_row(cls, stack: np.ndarray, at: int, compounds: dict[int, np.ndarray]) -> "Frame":
        """Row ``at`` of a read-only stack whose rows passed ``_orthonormal``; ``compounds`` is the stack's cache."""
        frame = object.__new__(cls)
        frame.__dict__.update(vectors=stack[at], _stack=stack, _at=at, _compounds=compounds)
        return frame

    def _compound(self, k: int) -> np.ndarray:
        """The k-th compound of the rows: a row of the stack's compound, built once per k; read-only."""
        c = self._compounds.get(k)
        if c is None:
            c = self._compounds[k] = compound(self._stack, k)
            c.flags.writeable = False
        return c[self._at]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]


def _check_degree(frame: Frame, omega: AltForm) -> tuple[int, int]:
    """(frame size ell, form degree k) of a form on the frame's ambient space with k <= ell; raises otherwise."""
    ell, k = frame.size, omega.k
    if omega.d != frame.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if k > ell:
        raise ValueError(f"cannot restrict a k={k} form to a frame of size ell={ell}: need k <= ell")
    return ell, k


def restrict_to_frame(frame: Frame, omega: AltForm) -> AltForm:
    """Coefficients of omega restricted to the frame's span, in frame coordinates.

    Raises when omega's degree exceeds the frame's size.
    """
    ell, k = _check_degree(frame, omega)
    return _form(ell, k, frame._compound(k) @ omega.coeffs)


def pullback_embed(frame: Frame, omega_sub: AltForm) -> AltForm:
    """Embed a form given in frame coordinates back into the ambient space.

    This is the pullback along the orthogonal projection onto the frame's
    span: the result agrees with ``omega_sub`` on tangential vectors and
    annihilates the orthogonal complement.
    """
    ell = frame.size
    if omega_sub.d != ell:
        raise ValueError("form not expressed over the frame's vectors")
    return _form(frame.ambient_dim, omega_sub.k, omega_sub.coeffs @ frame._compound(omega_sub.k))


def hodge_star_in_subspace(frame: Frame, omega: AltForm) -> AltForm:
    """Hodge star of a tangential form taken inside the frame's span.

    The form is restricted to frame coordinates (r = C_k(F) omega), starred
    in the frame's dimension and orientation, and embedded back
    (star(r) C_{ell-k}(F)), building only the result.  Raises unless omega's
    part orthogonal to the span, |r C_k(F) - omega|, is at most
    ORTHONORMAL_RTOL |omega|; a non-finite form fails that test.
    """
    ell, k = _check_degree(frame, omega)
    a = omega.coeffs
    c = frame._compound(k)
    r = c @ a
    normal = r @ c - a
    residual, size = math.sqrt(normal @ normal), math.sqrt(a @ a)
    if not (residual <= ORTHONORMAL_RTOL * size):
        raise ValueError(f"form not tangential to the span: relative residual {residual / size:.3e}")
    return _form(frame.ambient_dim, ell - k, _star(r, k, ell) @ frame._compound(ell - k))
