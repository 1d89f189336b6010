"""A fixed calibration kernel that tracks the speed of the machine during a run.

The 2-vCPU virtual machine this benchmark was written on changes speed by
up to a factor of two over seconds to tens of seconds, while CPU time still
equals wall time: the cause is the host, not the scheduler.  The runner interleaves this kernel with the
timed operations and divides each operation's wall time by the kernel's
mean time in the same one-second window, in units of ``REFERENCE_S``.  The
result is wall time at a fixed reference speed, which moves only when the
library does.

The kernel mixes what ``tnforms`` spends its time on: Python loops over
index tuples, dicts and sets, small NumPy arrays, and LAPACK calls on a
mid-sized matrix, which the set-up's Vandermonde inverses lean on and
which follow the machine's slow phases more closely than Python alone.
It does not import ``tnforms``, so no change to the library can change
it.  Editing it changes every time metric and so needs a new baseline.
"""

from itertools import combinations
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3  # one kernel run counts as this many reference seconds

_D = 5
_SEQS = {k: list(combinations(range(1, _D + 1), k)) for k in range(_D + 1)}
_POS = {k: {s: i for i, s in enumerate(_SEQS[k])} for k in _SEQS}
_A = np.linspace(0.1, 1.0, len(_SEQS[2]))
_B = np.linspace(-1.0, 0.5, len(_SEQS[2]))
_V0 = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4) / 16
_M = np.random.default_rng(0).standard_normal((48, 48))


def kernel() -> float:
    """One run: an index-sequence wedge product, Gram-Schmidt sweeps, an SVD and an inverse."""
    out = np.zeros(len(_SEQS[4]))
    for i, si in enumerate(_SEQS[2]):
        for j, sj in enumerate(_SEQS[2]):
            if set(si) & set(sj):
                continue
            inversions = sum(1 for x in si for y in sj if x > y)
            out[_POS[4][tuple(sorted(si + sj))]] += (-1 if inversions % 2 else 1) * _A[i] * _B[j]
    v = _V0.copy()
    det = 0.0
    for _ in range(10):
        for i in range(4):
            for j in range(i):
                v[i] -= np.dot(v[i], v[j]) * v[j]
            v[i] /= np.linalg.norm(v[i])
        det += np.linalg.det(v)
    return float(out.sum() + det + np.linalg.svd(_M, compute_uv=False)[0] + np.linalg.inv(_M)[0, 0])


def speed_factor(runs: int = 25) -> float:
    """Mean kernel time over ``runs`` runs, in units of ``REFERENCE_S``."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sum(times) / len(times) / REFERENCE_S
