"""Deterministic random streams.

Counter-based Philox generators keyed by (seed, run index, stream purpose),
so independent draws (initial conditions, switching paths, Monte Carlo runs)
never share or consume each other's state.  Identical keys reproduce
identical streams on every platform numpy supports.  A seed is an integer
in [0, 2**64), the Philox key word it becomes, and a run index one in
[0, 2**61), which fills the other key word but the three bits of the
stream; any other is refused, so no two keys share a stream.
"""

import numpy as np

from .errors import ValidationError

STREAM_INIT = 0
STREAM_MODE_PATH = 1

_MASK = (1 << 64) - 1
_RUN_INDEX_STOP = 1 << 61  # the run index takes a key word but 3 bits


def is_integer(value):
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed, field="seed"):
    """Refuse a seed that is not an integer in [0, 2**64) at ``field``."""
    if not (is_integer(seed) and 0 <= seed <= _MASK):
        raise ValidationError(
            f"seed must be an integer in [0, 2**64), got {seed!r}",
            field=field)


def rng_for(seed, run_index=0, stream=STREAM_INIT):
    """Return a ``numpy.random.Generator`` for one (seed, run, stream) triple."""
    check_seed(seed)
    if not (is_integer(run_index) and 0 <= run_index < _RUN_INDEX_STOP):
        raise ValidationError(
            "run_index must be nonnegative and an integer below 2**61, got "
            f"{run_index!r}", field="run_index")
    key = np.array([seed, (int(run_index) << 3) | stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
