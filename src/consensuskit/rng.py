"""Deterministic random streams.

Counter-based Philox generators keyed by (seed, run index, stream purpose),
so independent draws (initial conditions, switching paths, Monte Carlo runs)
never share or consume each other's state.  Identical keys reproduce
identical streams on every platform numpy supports.  A seed is an integer
in [0, 2**64), the Philox key word it becomes; any other is refused, so no
two seeds share a stream.
"""

import numpy as np

from .errors import ValidationError

STREAM_INIT = 0
STREAM_MODE_PATH = 1

_MASK = (1 << 64) - 1


def check_seed(seed, field="seed"):
    """Refuse a seed that is not an integer in [0, 2**64) at ``field``."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed <= _MASK):
        raise ValidationError(
            f"seed must be an integer in [0, 2**64), got {seed!r}",
            field=field)


def rng_for(seed, run_index=0, stream=STREAM_INIT):
    """Return a ``numpy.random.Generator`` for one (seed, run, stream) triple."""
    check_seed(seed)
    if run_index < 0:
        raise ValidationError("run_index must be nonnegative")
    key = np.array([seed, ((run_index << 3) | stream) & _MASK],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
