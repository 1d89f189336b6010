"""Combinatorial index calculus for simplices and alternating forms.

Two labeling conventions coexist on purpose:

* abstract simplex vertices are non-negative labels, and a face is named
  by the labels of the cell it lies in;
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
from functools import lru_cache
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
    label is a TypeError rather than truncated.
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
    """All s-dimensional subsimplices of f, lexicographically sorted."""
    if s < 0 or s > f.dim:
        raise ValueError(f"need 0 <= s <= dim f = {f.dim}, got {s}")
    return [AbstractSimplex(c) for c in combinations(f.vertices, s + 1)]

