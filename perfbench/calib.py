"""Host speed, measured with a fixed reference kernel between ops.

The benchmark runs on shared hosts whose speed drifts by a third and more
over tens of seconds (a neighbour's load, clock changes), with no steal
time showing.  The drift slows the reference kernel and the library alike,
so an op time divided by the kernel's median time around it keeps its
value across host states.  The kernel touches no ``symhess`` code: a
change in the library moves the scaled times exactly as it moves the raw
ones.

The kernel is made of parts, one per kind of work the library does, and
each workload runs the parts its ops are made of (``Workload.speed_parts``).
A speed factor is the reference time of the parts (``REF_PART_S``) over
their measured median time; a scaled time is a raw time times the factor,
the time the op takes at the host speed where the parts take their
reference time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median part times on a 2-vCPU "Intel Xeon Processor" VM, Python 3.11,
# numpy 2.4, OpenBLAS with one thread.  Only a scale: any fixed values work.
REF_PART_S = {"rank1": 0.0020, "rotate": 0.0012, "interp": 0.0018}
WINDOW = 4

_RNG = np.random.default_rng(12345)
_BIG = _RNG.standard_normal((400, 400))
_U, _W = _RNG.standard_normal(400), _RNG.standard_normal(400)
_ROT = np.array([[0.6, 0.8], [-0.8, 0.6]])


def _rank1(big: np.ndarray) -> None:
    """O(n^2) trailing updates, as in the compact transforms."""
    for _ in range(3):
        big -= np.outer(_U, _W) * 1e-3


def _rotate(big: np.ndarray) -> None:
    """2 x 2 rotations of row pairs, as in a Givens sweep."""
    for i in range(150):
        rows = [i % 399, i % 399 + 1]
        big[rows] = _ROT @ big[rows]


def _interp(big: np.ndarray) -> None:
    """Interpreted Python, as in the reduction loops and the metric loops."""
    counts: dict[int, int] = {}
    for i in range(12000):
        counts[i % 31] = counts.get(i % 31, 0) + i
    big[0, 0] += counts[0] * 1e-12


PARTS = {"rank1": _rank1, "rotate": _rotate, "interp": _interp}


def kernel(parts=tuple(PARTS)) -> float:
    """Run the named parts on a fresh copy of a 400 x 400 matrix."""
    big = _BIG.copy()
    for name in parts:
        PARTS[name](big)
    return float(big[0, 0])


class SpeedMeter:
    """Kernel samples taken between ops; the run's speed factor."""

    def __init__(self, parts=tuple(PARTS)):
        self.parts = tuple(parts)
        self.ref = sum(REF_PART_S[p] for p in self.parts)
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel(self.parts)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """The speed factor of the whole run."""
        return self.ref / statistics.median(self.samples)

    def local_factors(self) -> list[float]:
        """One speed factor per sample, from the median of the samples
        within ``WINDOW`` places of it, so an op time is scaled by the
        host speed at the time it ran."""
        k = self.samples
        return [self.ref / statistics.median(k[max(0, i - WINDOW):i + WINDOW + 1])
                for i in range(len(k))]
