"""Combinatorial index calculus for simplices and alternating forms.

Two labeling conventions coexist on purpose:

* abstract simplex vertices are non-negative labels, and a face is named
  by the labels of the cell it lies in;
* increasing sequences are 1-based, strictly increasing maps into
  ``{1, ..., n}``, and index components of alternating forms.

All enumerations are lexicographic, which fixes a deterministic ordering
for every basis and degree-of-freedom numbering built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb


def binomial(n: int, m: int) -> int:
    """Binomial coefficient with the convention C(n, m) = 0 outside 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    return comb(n, m)


@dataclass(frozen=True, order=True)
class IncreasingSequence:
    """Strictly increasing tuple of integers in 1..n (possibly empty)."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(i) for i in self.entries))
        if self.n < 0:
            raise ValueError(f"range bound must be non-negative, got {self.n}")
        for a, b in zip(self.entries, self.entries[1:]):
            if a >= b:
                raise ValueError(f"entries not strictly increasing: {self.entries}")
        if self.entries and (self.entries[0] < 1 or self.entries[-1] > self.n):
            raise ValueError(f"entries {self.entries} outside 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True, order=True)
class AbstractSimplex:
    """A nonempty set of vertex labels, stored in ascending order."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        if not verts:
            raise ValueError("abstract simplex needs at least one vertex")
        if any(v < 0 for v in verts):
            raise ValueError(f"vertex labels must be non-negative: {verts}")
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ValueError(f"vertex labels must be strictly increasing: {verts}")
        object.__setattr__(self, "vertices", verts)

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
        return set(self.vertices) <= set(other.vertices)


def simplex(*labels: int) -> AbstractSimplex:
    """Convenience constructor accepting labels in any order."""
    return AbstractSimplex(tuple(sorted(labels)))


def increasing_sequences(m: int, n: int) -> list[IncreasingSequence]:
    """All increasing sequences of length m into 1..n, lexicographically sorted."""
    if m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return [IncreasingSequence(c, n) for c in combinations(range(1, n + 1), m)]


def complement(sigma: IncreasingSequence) -> IncreasingSequence:
    """Complementary sequence within 1..n, so sigma and its complement partition 1..n."""
    chosen = set(sigma.entries)
    rest = tuple(i for i in range(1, sigma.n + 1) if i not in chosen)
    return IncreasingSequence(rest, sigma.n)


def inversion_sign(entries: tuple[int, ...]) -> int:
    """(-1) to the number of inversions of a sequence of distinct integers."""
    inversions = sum(1 for i, a in enumerate(entries) for b in entries[i + 1 :] if a > b)
    return -1 if inversions % 2 else 1


def permutation_sign(sigma: IncreasingSequence, tau: IncreasingSequence) -> int:
    """Sign of the permutation (sigma(1..m), tau(1..n-m)) of 1..n."""
    if sigma.n != tau.n:
        raise ValueError("sequences must share the range bound n")
    if sorted(sigma.entries + tau.entries) != list(range(1, sigma.n + 1)):
        raise ValueError("sequences must partition {1, ..., n}")
    return inversion_sign(sigma.entries + tau.entries)


def subsimplices(f: AbstractSimplex, s: int) -> list[AbstractSimplex]:
    """All s-dimensional subsimplices of f, lexicographically sorted."""
    if s < 0 or s > f.dim:
        raise ValueError(f"need 0 <= s <= dim f = {f.dim}, got {s}")
    return [AbstractSimplex(c) for c in combinations(f.vertices, s + 1)]


def supersimplices(e: AbstractSimplex, ell: int, cell: AbstractSimplex) -> list[AbstractSimplex]:
    """All ell-dimensional faces of cell containing e, lexicographically sorted."""
    if ell < e.dim or ell > cell.dim:
        raise ValueError(f"need dim e <= ell <= dim cell, got {ell}")
    others = [i for i in cell.vertices if i not in e.vertices]
    out = []
    for extra in combinations(others, ell - e.dim):
        out.append(AbstractSimplex(tuple(sorted(e.vertices + extra))))
    out.sort()
    return out
