"""A fixed reference task that measures how fast the machine is running.

The shared host this benchmark runs on changes speed by up to 1.9x in
phases from a minute to tens of minutes long, in CPU time as much as in
wall time, so two runs of the same code minutes apart can differ by more
than a regression bound.  The timed phase therefore runs this task between
its operations and reports its times scaled to a machine on which one unit
takes ``REFERENCE_S``: the scaled figures follow the program, not the host.

One unit is a 128 x 128 complex Hermitian eigensolve and a short sum of
``Fraction`` objects, in about 3:1 time (3.5 ms and 1.1 ms at the reference speed).  Of the candidates tried against
rounds of ``complete`` and ``pencil`` over nine turbulent minutes (this
mix, a 64 x 64 eigensolve with a small dictionary loop, a large dictionary
walk, and each of these alone), this one followed both workloads' speed
best: their round times over it spread by 0.07 in 18-second windows, the
unscaled ones by 0.24 and 0.28.  It uses numpy and the standard library
alone and never calls ``cpmaps``, so no change to the library can change
it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Wall time of one unit at the reference speed, a fixed constant near the
# mean unit time on the 2-core development machine.
REFERENCE_S = 0.005

_rng = np.random.default_rng(0)
_G = _rng.normal(size=(128, 128)) + 1j * _rng.normal(size=(128, 128))
_H = _G + _G.conj().T


def _exact_arithmetic() -> Fraction:
    total = Fraction(0)
    for i in range(1, 450):
        total += Fraction(i % 17 + 1, i)
    return total


def unit() -> float:
    """Run one unit of the reference task; return its wall time in seconds."""
    start = time.perf_counter()
    np.linalg.eigh(_H)
    _exact_arithmetic()
    return time.perf_counter() - start


# Share of the work's time spent on reference units.
SHARE = 0.1


class Sampler:
    """Interleaves reference units with the work, ``SHARE`` of its time.

    Called after every operation, so the units sample the host's speed
    evenly over the timed phase, and a slow spell that the operations sat
    in is sampled in proportion to its length.
    """

    def __init__(self):
        self.busy = 0.0
        self.spent = 0.0
        self.units = []
        self.taken = 0  # units already spent by ``slowdown``

    def keep_up(self, busy_s: float) -> float:
        """Count ``busy_s`` seconds of work; run units until they are ``SHARE`` of it.

        Returns the wall time this call took, to leave out of the work's time.
        """
        start = time.perf_counter()
        self.busy += busy_s
        while self.spent < SHARE * self.busy:
            self.units.append(unit())
            self.spent += self.units[-1]
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """Host time over reference time since the last call: above 1 on a slower host.

        The mean of the units run since then, and at least one is run.
        """
        if self.taken == len(self.units):
            self.units.append(unit())
            self.spent += self.units[-1]
        fresh, self.taken = self.units[self.taken:], len(self.units)
        return sum(fresh) / len(fresh) / REFERENCE_S
