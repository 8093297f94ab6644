"""Deterministic random streams.

Counter-based Philox generators keyed by (seed, run index, stream purpose),
so independent draws (initial conditions, switching paths, Monte Carlo runs)
never share or consume each other's state.  Identical keys reproduce
identical streams on every platform numpy supports.
"""

import numpy as np

from .errors import ValidationError

STREAM_INIT = 0
STREAM_MODE_PATH = 1

_MASK = (1 << 64) - 1


def rng_for(seed, run_index=0, stream=STREAM_INIT):
    """Return a ``numpy.random.Generator`` for one (seed, run, stream) triple."""
    if run_index < 0:
        raise ValidationError("run_index must be nonnegative")
    key = np.array([seed & _MASK, ((run_index << 3) | stream) & _MASK],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
