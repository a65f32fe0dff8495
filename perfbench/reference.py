"""Fixed reference computations that measure how fast the machine runs
while the benchmark runs, so that timings can be reported at one nominal
machine speed.

On a shared host the speed the benchmark gets drifts by 2x and more, in
phases from under a second to minutes. Short reference calls spread evenly
through a run slow down with the program, so

    normalized = raw * nominal reference time / mean reference time of the run

takes a timing to the nominal speed. There are two kernels, because
small-array and large-array work do not always slow down alike:

- ``small`` mixes what a training step spends its time on: interpreter
  loops over small label arrays and many small numpy calls (unique,
  bincount, log sums, a small distance matrix);
- ``large`` is what held-out evaluation spends its time on: a distance
  matrix built through a broadcast difference tensor of about 7 MB, and a
  row-wise argsort of it.

Both use numpy alone, never the clusterembed package, so a change to the
package cannot change them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Mean time of one call of each kernel on a 2-vCPU Intel Xeon VM with one
# BLAS thread. They only set the unit: a normalized timing reads as the
# seconds it would take at that speed.
NOMINAL_SMALL_S = 0.005
NOMINAL_LARGE_S = 0.005

_RNG = np.random.default_rng(0)
_LABELS = _RNG.integers(0, 32, size=(18, 128))
_POINTS = _RNG.normal(size=(40, 16))
_CLOUD = _RNG.normal(size=(240, 16))


def _small() -> float:
    acc = 0.0
    for y1, y2 in zip(_LABELS, _LABELS[::-1]):
        _, canon = np.unique(y1, return_inverse=True)
        first_seen: dict[int, int] = {}
        for v in canon:
            first_seen.setdefault(int(v), len(first_seen))
        joint = np.bincount(y1 * 32 + y2, minlength=32 * 32).reshape(32, 32)
        row, col = joint.sum(axis=1), joint.sum(axis=0)
        nz_i, nz_j = np.nonzero(joint)
        counts = joint[nz_i, nz_j]
        acc += float(np.sum(counts * np.log(counts * 128.0 / (row[nz_i] * col[nz_j]))))
        for start in range(0, 40, 8):
            block = _POINTS[start:start + 8]
            dist = np.sqrt(((block[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=-1))
            acc += float(dist.min(axis=0).sum())
    return acc


def _large() -> float:
    dist = np.sqrt(((_CLOUD[:, None, :] - _CLOUD[None, :, :]) ** 2).sum(axis=-1))
    order = np.argsort(dist, axis=1)
    return float(dist[np.arange(len(_CLOUD)), order[:, 1]].sum())


class SpeedMeter:
    """Reference-kernel times collected over a stretch of a run."""

    def __init__(self) -> None:
        self.small: list[float] = []
        self.large: list[float] = []
        # warm-up: a process's first call of each is several times slower
        _small()
        _large()

    def sample(self, pairs: int = 1) -> None:
        """Time ``pairs`` calls of each kernel, alternating between them."""
        for _ in range(pairs):
            for kernel, times in ((_small, self.small), (_large, self.large)):
                tic = perf_counter()
                kernel()
                times.append(perf_counter() - tic)

    def factors(self, since: int = 0) -> tuple[float, float]:
        """Factors that take a timing made while the samples from index
        ``since`` on were taken to the nominal speed, for small- and
        large-array work."""
        return (NOMINAL_SMALL_S / statistics.mean(self.small[since:]),
                NOMINAL_LARGE_S / statistics.mean(self.large[since:]))
