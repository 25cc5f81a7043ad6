"""Host-speed calibration of the benchmark's timings.

The benchmark shares a few cores of a host whose speed drifts by a third
or more over seconds to minutes as other tenants load it; the drift is
in the process's own CPU time too, so it is not time spent descheduled.
So the host's speed is measured alongside the package, with a fixed
calibration chunk: small numpy products, einsums of vector- and
jet-shaped operands, a Cholesky factor and a solve, the kind of
small-array work the package does.

Every timed segment of a workload run (one call into the package) is
followed by one chunk, and while a segment runs, a timer signal runs a
fifth of a chunk every ``PERIOD_S``.  A segment's wall time, less the
time its samples took, is scaled by ``REF_S`` over the mean of the
chunks just before and after it and of its samples (each counted five
times over).  A scaled time is in seconds at the reference speed, the
speed at which one chunk takes ``REF_S``.

The chunk does not touch ``weylspin``, so a change to the package moves
scaled times as it moves wall times, while a change of host speed moves
a segment and the chunks around and inside it alike and cancels.
"""

from __future__ import annotations

import signal
from statistics import mean, median
from time import perf_counter

import numpy as np

# One chunk takes about this long on a quiet 2-core x86-64 Xeon host.
REF_S = 0.010
REPS = 300
# A sample inside a segment is a chunk of REPS // SAMPLE_PARTS.
SAMPLE_PARTS = 5
PERIOD_S = 0.25
# The set-up is scaled by the median of this many chunks that follow it.
SETUP_CHUNKS = 5

_RNG = np.random.default_rng(20260101)
_A = _RNG.uniform(-1.0, 1.0, (4, 4))
_B = _RNG.uniform(-1.0, 1.0, (4, 4, 4))
_X = _RNG.uniform(-1.0, 1.0, (4, 4, 4, 4))
_S = _A @ _A.T + 4.0 * np.eye(4)
# Bound at import, before a traced run replaces ``numpy.einsum`` with a
# counting wrapper, so the chunk's calls are not counted as the package's.
_EINSUM = np.einsum


def chunk(reps=REPS):
    """Wall time of one calibration chunk, in seconds."""
    t = perf_counter()
    for _ in range(reps):
        x = _A @ _A
        y = x + 2.0 * _A
        _EINSUM("ij,jkl->ikl", _A, _B)
        np.linalg.cholesky(_S)
        y.sum()
    for _ in range(reps // 5):
        z = _EINSUM("abij,bcjk->acik", _X, _X)
        np.linalg.solve(_S, _A)
        np.stack([z[0], z[1]]).sum(axis=0)
    return perf_counter() - t


def sample():
    """Time of one in-segment sample, counted as a whole chunk."""
    return chunk(REPS // SAMPLE_PARTS) * SAMPLE_PARTS


class Scaler:
    """Scales the wall times of consecutive segments of one run.

    Construct it right after set-up ends: it warms the chunk up once,
    then times one chunk.  Wrap each segment in ``begin`` and ``end``,
    and call ``close`` when the run is over.  With ``period`` 0 there
    is no timer and no sample inside a segment.
    """

    def __init__(self, measure=chunk, period=PERIOD_S):
        self.measure = measure
        measure()
        self.chunks = [measure()]
        self.samples = []
        self.paused = 0.0
        self.wall = 0.0
        self.scaled = 0.0
        self.period = period
        self._begun = None
        if period:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, period, period)

    def _sample(self, signum, frame):
        # Outside a segment the tick is dropped, so neither the chunks nor
        # the benchmark's own bookkeeping are sampled.
        if self._begun is None:
            return
        t = perf_counter()
        self.samples.append(sample())
        self.paused += perf_counter() - t

    def close(self):
        """Stop the timer and restore the signal's handler."""
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._handler)

    def begin(self):
        self._begun = (perf_counter(), self.paused, len(self.samples))

    def end(self):
        """Scaled time of the segment since ``begin``."""
        (t0, paused, n), self._begun = self._begun, None
        wall = perf_counter() - t0 - (self.paused - paused)
        return self.scale(wall, self.samples[n:])

    def scale(self, wall, inner=()):
        """Scaled time of a segment that just ended, given the samples
        taken inside it; adds both times to the run's totals."""
        self.chunks.append(self.measure())
        scaled = wall * REF_S / mean([self.chunks[-2], self.chunks[-1], *inner])
        self.wall += wall
        self.scaled += scaled
        return scaled

    def scale_setup(self, wall):
        """Scaled time of the set-up that ended just before construction.

        One chunk alone varies too much, so this uses the median of the
        first ``SETUP_CHUNKS`` chunks (fewer if the run had fewer)."""
        return wall * REF_S / median(self.chunks[:SETUP_CHUNKS])
