"""Combinatorial index calculus for simplices and alternating forms.

Two labeling conventions coexist on purpose:

* abstract simplex vertices are non-negative labels, and a face is named
  by the labels of the cell it lies in, or by its position mask, bit i for
  the cell's i-th label.  Faces are enumerated and named here alone: the
  cached ``_face_index(n)`` lists the faces of range(n) by size, then
  lexicographic, with their masks, and an :class:`AbstractSimplex` keeps
  the one face table built from it (see the class).  ``subsimplices``
  builds only the faces of the size it lists, equal to those of the table
  but not the same objects.  ``_deposit`` lists the faces through an
  anchor by normal offset, the i-th position outside the anchor,
  ascending, as a t-n frame's normal rows are;
* an increasing sequence is a plain ascending tuple of ints in
  ``{1, ..., n}``; it indexes the components of alternating forms and the
  tangential choices of t-n basis elements.  Sequences are enumerated only
  here, by the cached ``sequences(k, n)`` with its inverse
  ``sequence_position(k, n)``.

All enumerations are lexicographic, which fixes a deterministic ordering
for every basis and degree-of-freedom numbering built on top of them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb


def binomial(n: int, m: int) -> int:
    """Binomial coefficient with the convention C(n, m) = 0 outside 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    return comb(n, m)


@dataclass(frozen=True, order=True)
class AbstractSimplex:
    """A nonempty set of integer vertex labels, stored in ascending order.

    Labels go through ``operator.index``: numpy integers pass, and a float
    label is a TypeError rather than truncated.  Its faces, all 2^n - 1 of
    them for n labels, are named by one table built on first use, once per
    object: ``_masks`` maps each face's labels to its position mask, and
    ``_faces``, built from it, maps the mask back to one face object, so
    every cell on one labels object names a face by one shared object.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(map(operator.index, self.vertices))
        if not verts:
            raise ValueError("abstract simplex needs at least one vertex")
        if min(verts) < 0:
            raise ValueError(f"vertex labels must be non-negative: {verts}")
        if sorted(set(verts)) != list(verts):
            raise ValueError(f"vertex labels must be strictly increasing: {verts}")
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def _of(cls, labels: tuple[int, ...]) -> "AbstractSimplex":
        """A simplex on labels the library enumerated itself: a nonempty ascending tuple of ints; not re-checked."""
        simplex = object.__new__(cls)
        simplex.__dict__["vertices"] = labels
        return simplex

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __contains__(self, label: int) -> bool:
        return label in self.vertices

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def issubset(self, other: "AbstractSimplex") -> bool:
        return set(other.vertices).issuperset(self.vertices)

    @cached_property
    def _masks(self) -> dict[tuple[int, ...], int]:
        """Every face's labels mapped to its position mask, in ``_face_index`` order: the one label translation."""
        faces, masks, _ = _face_index(len(self.vertices))
        return {tuple(map(self.vertices.__getitem__, face)): mask for face, mask in zip(faces, masks)}

    @cached_property
    def _faces(self) -> dict[int, "AbstractSimplex"]:
        """Every face keyed by its position mask, in ``_face_index`` order, built from ``_masks``."""
        return {mask: AbstractSimplex._of(labels) for labels, mask in self._masks.items()}


def simplex(*labels: int) -> AbstractSimplex:
    """Convenience constructor accepting labels in any order."""
    return AbstractSimplex(tuple(sorted(labels)))


@lru_cache(maxsize=None)
def sequences(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographic tuple of all increasing sequences of length k in 1..n; empty outside 0 <= k <= n."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def sequence_position(k: int, n: int) -> dict[tuple[int, ...], int]:
    """Position of each increasing sequence of length k in 1..n within ``sequences(k, n)``."""
    return {s: i for i, s in enumerate(sequences(k, n))}


def complement(sigma: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The increasing sequence of 1..n not in sigma, so sigma and it partition 1..n."""
    return tuple(i for i in range(1, n + 1) if i not in sigma)


def inversion_sign(entries: tuple[int, ...]) -> int:
    """(-1) to the number of inversions of a sequence of distinct integers."""
    inversions = sum(1 for i, a in enumerate(entries) for b in entries[i + 1 :] if a > b)
    return -1 if inversions % 2 else 1


def subsimplices(f: AbstractSimplex, s: int) -> list[AbstractSimplex]:
    """All s-dimensional subsimplices of f, lexicographically sorted.

    Only the C(n, s + 1) faces asked for are built, never f's 2^n - 1 face
    table; each call builds new objects, equal to those ``f._faces`` holds.
    """
    if s < 0 or s > f.dim:
        raise ValueError(f"need 0 <= s <= dim f = {f.dim}, got {s}")
    return list(map(AbstractSimplex._of, combinations(f.vertices, s + 1)))


@lru_cache(maxsize=None)
def _face_index(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], dict[int, int]]:
    """Every face of range(n), by size then lexicographic: (faces, masks, at).

    ``faces[j]`` is a face's positions and ``masks[j]`` its position mask,
    bit i for position i; ``at[mask]`` is the face's row among the faces of
    its size.  Face names (``AbstractSimplex._masks``), a cell's levels and
    its n-e-f pairs follow this one enumeration.
    """
    levels = [tuple(combinations(range(n), size)) for size in range(1, n + 1)]
    masks = [[sum(1 << i for i in face) for face in level] for level in levels]
    return sum(levels, ()), sum(map(tuple, masks), ()), {m: j for level in masks for j, m in enumerate(level)}


@lru_cache(maxsize=None)
def _deposit(at: int, n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The faces through the anchor at position mask ``at`` of a simplex with n labels, by normal-offset mask, and back.

    Offset i is the i-th position outside the anchor, ascending, so the face
    of a normal-offset mask is the anchor's positions plus those its bits
    name.  Returns the face position masks indexed by normal-offset mask, and
    the dict that inverts it.
    """
    outside = [1 << i for i in range(n) if not at >> i & 1]
    faces = tuple(at + sum(b for i, b in enumerate(outside) if m >> i & 1) for m in range(1 << len(outside)))
    return faces, {face: m for m, face in enumerate(faces)}

