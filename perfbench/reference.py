"""A fixed piece of exact arithmetic that measures how fast the host runs right now.

On a shared host the same okubic item can run up to 1.5× slower for
stretches of a fraction of a second to minutes, depending on the other
tenants. The benchmark times this loop next to every item and reports
item times scaled to the speed at which the loop takes ``NOMINAL_S``
(see README.md, "Host speed"). The loop is the same on every commit
because it does not use okubic: it mimics okubic's hot path (big-integer
products, a gcd normalisation and a slotted object per result) with its
own code.
"""

from __future__ import annotations

import random
from math import gcd
from time import perf_counter

# The time the loop takes at nominal speed, by definition.  About what it
# takes on an uncontended core of the 2-core host the benchmark was
# written on.  It makes PASSES passes of about 10 ms: a single pass gave
# a noisier host speed, and with it noisier item times.
NOMINAL_S = 0.030
PASSES = 3


class _Quad:
    """a + b√3 over a common denominator d, reduced like okubic's F3."""

    __slots__ = ("an", "bn", "d")


def _quad(an: int, bn: int, d: int) -> _Quad:
    g = gcd(gcd(an, bn), d)
    if g > 1:
        an //= g
        bn //= g
        d //= g
    out = _Quad.__new__(_Quad)
    object.__setattr__(out, "an", an)
    object.__setattr__(out, "bn", bn)
    object.__setattr__(out, "d", d)
    return out


_rng = random.Random(0)
_VALUES = tuple(
    _quad(_rng.randint(-9, 9), _rng.randint(-9, 9), _rng.choice((1, 2, 3, 6)))
    for _ in range(80)
)
del _rng


def run() -> float:
    """Do the fixed work once; return its wall time in seconds."""
    start = perf_counter()
    for _ in range(PASSES):
        for x in _VALUES:
            acc = _quad(0, 0, 1)
            for y in _VALUES:
                # acc += x·y, in the common-denominator form
                pa = x.an * y.an + 3 * x.bn * y.bn
                pb = x.an * y.bn + x.bn * y.an
                pd = x.d * y.d
                acc = _quad(acc.an * pd + pa * acc.d, acc.bn * pd + pb * acc.d, acc.d * pd)
    return perf_counter() - start
