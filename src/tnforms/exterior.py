"""Exterior algebra of constant-coefficient alternating forms on R^d.

A k-form is stored as its coefficient vector over the lexicographically
ordered increasing sequences of length k, always in the ambient positively
oriented orthonormal frame dx_1, ..., dx_d.  Subspace computations go
through explicit orthonormal :class:`Frame` objects; the frame's row order
defines the orientation used by the subspace Hodge star.

Operations never loop over index sequences when called.  Every sign and
index fact is one integer table, cached by degrees and dimension only and
built from the tuples of ``combinatorics.sequences`` and the positions of
``sequence_position``: ``_shuffle_table(p, q, d)`` holds, for each
(p + q)-sequence tau of 1..d and each p-sequence S of its positions, the
positions of tau[S] and tau[T], T = ``complement(S, p + q)``, and the
``inversion_sign`` of S + T, so that dx_tau[S] ^ dx_tau[T] = sign dx_tau.  Two
kernels read it, both along the last axis of a stack of coefficient rows.
A wedge is two gathers and ``_shuffle_sum``, their signed sum.  The star
of a k-form is a signed reversal by the signs of the (k, d - k) table,
since the complements of ``sequences(k, d)`` are ``sequences(d - k, d)``
reversed.  Contraction with v is the starred wedge, iota_v omega =
(-1)^(d(k - 1)) star(v-flat ^ star omega): a star, a wedge through the
(1, d - k) table and a star.  ``compound(A, k)`` holds all k x k minors of
A; leading axes of A are a batch, so one call serves a stack of frames.
The 0th and 1st compounds are ones and A itself, exact.  For k >= 2 one cached
``_laplace_plan(k, m, n)`` takes every minor of an (m, n) matrix by
generalised Laplace expansion: an order-j minor is a signed sum of products of a minor of order
j // 2 on its first rows and one of order j - j // 2 on the rest, both read
from lower orders, down to A's flat entries.  Order k's row sets are
``sequences(k, m)``, each lower order holds the sorted halves R[:j // 2]
and R[j // 2:] the order above reads, and the column sequences split as
the rows of ``_shuffle_table(j // 2, j - j // 2, n)``: each step is a
wedge, two gathers and one ``_shuffle_sum``.  Products and sums alone make
every minor exactly scaled when A is scaled by a power of two.
Evaluation, wedges of 1-forms, restriction to a frame (``C_k(F) @ a``) and
its pullback (``c @ C_k(F)``) are then products.  The subspace star fuses
the three: with r = C_k(F) a, it is ``_star(r) @ C_{l-k}(F)``, and
r C_k(F) - a is the part of a normal to the frame; it builds one form, the
result.

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
    """An AltForm over a kernel's result, C(d, k) float entries along the last axis; not re-checked.

    A public form holds one row.  Over a stack of rows, ``hodge_star``,
    ``wedge`` and ``contraction`` act on every row in one call.
    """
    form = object.__new__(AltForm)
    form.__dict__.update(d=d, k=k, coeffs=coeffs)
    return form


def _check_same_space(a: AltForm, b: AltForm):
    if a.d != b.d or a.k != b.k:
        raise ValueError(f"form space mismatch: ({a.d},{a.k}) vs ({b.d},{b.k})")


def compound(A: np.ndarray, k: int) -> np.ndarray:
    """The k-th compound matrix of A: all k x k minors, by generalised Laplace expansion.

    Entry (r, c) is the minor on the r-th row sequence and the c-th column
    sequence of length k, both in lexicographic order.  Leading axes are a
    batch: A of shape (..., m, n) gives (..., C(m, k), C(n, k)), each matrix
    bit for bit its own compound.  The 0th compound is ones and the 1st is a
    copy of A, both exact.  For k >= 2 each step of ``_laplace_plan`` takes
    the order-j minors that a higher step reads (only those row sets): two
    gathers of lower-order minors through the table a wedge reads,
    ``_shuffle_table(j // 2, j - j // 2, n)``, and their ``_shuffle_sum``.
    A BLAS product with the signs would order a row's sum by the number of
    rows, so a minor would depend on the minors taken beside it.  Products
    and sums alone: a minor is within 2, 5, 10, 17 and 30 u (k = 2..6,
    u = 2^-53) of the sum of its absolute Leibniz terms, to first order, and
    exactly scaled when A is scaled by a power of two.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or k < 0:
        raise ValueError(f"compound needs k >= 0 and a matrix or a stack of them, got k={k}, shape {A.shape}")
    if k == 0:
        return np.ones(A.shape[:-2] + (1, 1))
    if k == 1:
        return A.copy()
    m, n = A.shape[-2:]
    shape, steps = _laplace_plan(k, m, n)
    minors = {1: A.reshape(A.shape[:-2] + (m * n,))}
    for j, left, right, sign in steps:
        minors[j] = _shuffle_sum(minors[j // 2].take(left, axis=-1), minors[j - j // 2].take(right, axis=-1), sign)
    return minors[k].reshape(A.shape[:-2] + shape)


def _shuffle_sum(terms: np.ndarray, other: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The sum over the last axis of sign * terms * other, term by term in order; ``terms`` is overwritten.

    ``terms`` has the result's full shape, plus the last axis; ``other``
    may broadcast into it, as one v into a stack of contracted rows.

    A shuffle table of at most 3 columns has the signs +, + - or + - +, so
    up to 3 terms the sum is array operations, in fewer calls than
    ``np.einsum`` sets up; above, ``np.einsum``'s loop adds them in order.
    """
    if len(sign) > 3:
        return np.einsum("...t,...t,t->...", terms, other, sign)
    terms *= other
    total = terms[..., 0] - terms[..., 1] if len(sign) > 1 else terms[..., 0]
    return total + terms[..., 2] if len(sign) > 2 else total


@lru_cache(maxsize=None)
def _laplace_plan(k: int, m: int, n: int) -> tuple[tuple[int, int], tuple[tuple, ...]]:
    """Shape (C(m, k), C(n, k)) and steps (j, left, right, sign), by rising j, of an (m, n) matrix's k-th compound.

    The minors of order 1 are the matrix's flat entries, and those of order
    j >= 2 a flat array over (row set, column sequence).  Order k holds the
    row sets ``sequences(k, m)``, and a lower order the sorted tuples that
    a higher one reads: R[:j // 2] and R[j // 2:] of each of its row sets R.
    ``left`` and ``right`` (minors, C(j, j // 2)) hold the flat positions of
    the two factors of each term of ``_shuffle_table(j // 2, j - j // 2, n)``,
    whose rows are the column sequences.  Read-only.
    """
    rows = {1: set(sequences(1, m)), k: set(sequences(k, m))}  # order 1 is every row of the matrix
    for j in range(k, 1, -1):  # an order's row sets are complete once every higher order is done
        if j in rows:
            a = j // 2
            rows.setdefault(a, set()).update(R[:a] for R in rows[j])
            rows.setdefault(j - a, set()).update(R[a:] for R in rows[j])
    rows = {j: {R: i for i, R in enumerate(sorted(sets))} for j, sets in rows.items()}  # row set -> position

    def flat(parts: list, col: np.ndarray, s: int) -> np.ndarray:
        """Flat positions of the order-s minors on the row sets ``parts`` and the column sequences at ``col``."""
        at = np.array([rows[s][part] for part in parts], dtype=np.intp)
        index = np.add.outer(at * binomial(n, s), col).reshape(-1, col.shape[1])
        index.flags.writeable = False
        return index

    steps = []
    for j in sorted(rows)[1:]:
        a, left, right, sign = j // 2, *_shuffle_table(j // 2, j - j // 2, n)
        steps.append((j, flat([R[:a] for R in rows[j]], left, a), flat([R[a:] for R in rows[j]], right, j - a), sign))
    return (binomial(m, k), binomial(n, k)), tuple(steps)


@lru_cache(maxsize=None)
def _shuffle_table(p: int, q: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, sign): dx_tau[S] ^ dx_tau[T] = sign[S] dx_tau, for every (p + q)-sequence tau of 1..d.

    Per tau in ``sequences(p + q, d)`` (rows) and S in
    ``sequences(p, p + q)`` (columns), ``left`` and ``right`` hold the
    positions of tau[S] in ``sequences(p, d)`` and of tau[T],
    T = ``complement(S, p + q)``, in ``sequences(q, d)``; ``sign`` holds
    each S's shuffle sign, the ``inversion_sign`` of S + T.  Read-only.
    """
    shuffles = [(S, complement(S, p + q)) for S in sequences(p, p + q)]

    def positions(part: int) -> np.ndarray:
        """Per tau (rows) and shuffle (columns): the position of tau at the shuffle's ``part``."""
        pos = sequence_position((p, q)[part], d)
        at = [pos[tuple([tau[i - 1] for i in shuffle[part]])] for tau in sequences(p + q, d) for shuffle in shuffles]
        return np.array(at, dtype=np.intp).reshape(-1, len(shuffles))

    table = positions(0), positions(1), np.array([inversion_sign(S + T) for S, T in shuffles], dtype=float)
    for array in table:
        array.flags.writeable = False
    return table


def _star(coeffs: np.ndarray, k: int, d: int) -> np.ndarray:
    """Hodge star of k-form coefficients along the last axis: one signed reversal.

    a ^ b = <star a, b> vol, so star dx_S = sign[S] dx_T over the one row of
    ``_shuffle_table(k, d - k, d)``; its T = ``complement(S, d)`` run through
    ``sequences(d - k, d)`` in reverse, as S runs forward.
    """
    return _shuffle_table(k, d - k, d)[2][::-1] * coeffs[..., ::-1]


def wedge(omega: AltForm, eta: AltForm) -> AltForm:
    """Wedge product; degrees add and antisymmetry carries the usual sign.

    A wedge is a Laplace step: coefficient tau is the signed sum, over the
    columns S of ``_shuffle_table(p, q, d)`` in order, of omega at tau[S]
    times eta at tau[T].  Both gathers act on the last axis, so either
    operand, or both, may be a stack of rows, wedged row by row.
    """
    if omega.d != eta.d:
        raise ValueError(f"ambient dimension mismatch: d = {omega.d} and d = {eta.d}")
    d, p, q = omega.d, omega.k, eta.k
    if p + q > d:
        raise ValueError(f"wedge degree {p}+{q} exceeds ambient dimension {d}")
    left, right, sign = _shuffle_table(p, q, d)
    terms, other = omega.coeffs.take(left, axis=-1), eta.coeffs.take(right, axis=-1)
    if terms.ndim < other.ndim:  # the sum overwrites the gather of the larger stack
        terms, other = other, terms
    return _form(d, p + q, _shuffle_sum(terms, other, sign))


def wedge_all(forms: list[AltForm], d: int | None = None) -> AltForm:
    """Wedge a list of 1-forms: the maximal minors of their stacked coefficients; the empty product is 1."""
    if not forms:
        if d is None:
            raise ValueError("ambient dimension needed for the empty wedge")
        return AltForm(d, 0, np.ones(1))
    if any(w.k != 1 for w in forms):
        raise ValueError(f"wedge_all takes 1-forms, got degrees {[w.k for w in forms]}")
    if any(w.d != forms[0].d for w in forms):
        raise ValueError(f"ambient dimension mismatch: 1-forms on d = {sorted({w.d for w in forms})}")
    return AltForm(forms[0].d, len(forms), compound(np.vstack([w.coeffs for w in forms]), len(forms))[0])


def contraction(omega: AltForm, v: np.ndarray) -> AltForm:
    """Interior product omega .| v, plugging v into the first slot; v holds d entries, in any shape.

    Contraction is the starred wedge, iota_v omega = (-1)^(d(k - 1))
    star(v-flat ^ star omega): the wedge reads ``_shuffle_table(1, d - k, d)``
    as ``wedge`` does, and each coefficient adds its terms by v's rising
    index.  Only star and wedge kernels act, along the last axis, so omega's
    coefficients may be a stack of rows, contracted with one v in one call.
    """
    if omega.k == 0:
        raise ValueError("cannot contract a 0-form")
    d, k = omega.d, omega.k
    v = _vector(v, d, "contraction needs a vector")
    left, right, sign = _shuffle_table(1, d - k, d)
    wedged = _shuffle_sum(_star(omega.coeffs, k, d).take(right, axis=-1), v.take(left), sign)
    return _form(d, k - 1, (-1.0) ** (d * (k - 1)) * _star(wedged, d - k + 1, d))


def hodge_star(omega: AltForm) -> AltForm:
    """Hodge star in the ambient positively oriented orthonormal frame."""
    d, k = omega.d, omega.k
    return _form(d, d - k, _star(omega.coeffs, k, d))


def flat(v: np.ndarray) -> AltForm:
    """The 1-form v-flat with the same components as v, a 1-D array."""
    v = np.array(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"flat needs a 1-D vector, got shape {v.shape}")
    return AltForm(v.shape[0], 1, v)


def _vector(v, d: int, what: str) -> np.ndarray:
    """v, d entries in any shape, as a 1-D float array; otherwise a ValueError: what, of d entries, got v's shape."""
    v = np.asarray(v, dtype=float)
    if v.size != d:
        raise ValueError(f"{what} of d = {d} entries, got shape {v.shape}")
    return v.reshape(d)


def evaluate(omega: AltForm, vectors) -> float:
    """Apply the multilinear functional to k vectors, each of d entries in any shape."""
    k, d = omega.k, omega.d
    vectors = list(vectors)
    if len(vectors) != k:
        raise ValueError(f"expected {k} vectors, got {len(vectors)}")
    vecs = [_vector(v, d, "evaluate needs a vector") for v in vectors]
    return float(compound(np.reshape(vecs, (k, d)), k)[0] @ omega.coeffs)


def volume_coefficient(omega: AltForm) -> float:
    """Coefficient of the volume form dx_1 ^ ... ^ dx_d of a top-degree form."""
    if omega.k != omega.d:
        raise ValueError(f"volume coefficient needs a top-degree form, got (d, k) = ({omega.d}, {omega.k})")
    return float(omega.coeffs[0])


def _orthonormal(stack: np.ndarray) -> np.ndarray:
    """Per row set of a stack (..., s, n): is its whole Gram matrix within ORTHONORMAL_RTOL of the identity?

    The ``<=`` test is false on NaN, so non-finite rows fail.
    """
    s = stack.shape[-2]
    gram = stack @ np.swapaxes(stack, -1, -2)
    gram.reshape(gram.shape[:-2] + (s * s,))[..., :: s + 1] -= 1.0
    return np.abs(gram).max(axis=(-2, -1), initial=0.0) <= ORTHONORMAL_RTOL


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
        raise ValueError(f"ambient dimension mismatch: a form on d = {omega.d}, a frame in d = {frame.ambient_dim}")
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
        raise ValueError(f"form not expressed over the frame's vectors: form on d = {omega_sub.d}, frame size {ell}")
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
