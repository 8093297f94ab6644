import os
import tempfile

import numpy as np
import pytest

from consensuskit.agents import builtin
from consensuskit.errors import ValidationError
from consensuskit.graph import DiGraph, directed_cycle
from consensuskit.synthesis import design_companion, rank_one_gain


def _files_here():
    """The working directory's entries, each with its file's mtime."""
    with os.scandir() as entries:
        return {e.name: e.stat().st_mtime_ns if e.is_file() else None
                for e in entries}


# hypothesis caches the constants of the modules under test in its storage
# directory, ./.hypothesis unless this is set, while collecting the tests;
# the directory is removed when the run ends
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)

_START = {}


def pytest_sessionstart(session):
    # before the tests are collected, so that what collection writes counts
    _START["cwd"], _START["files"] = os.getcwd(), _files_here()


@pytest.fixture(scope="session", autouse=True)
def working_directory_untouched():
    """Fail the run if collecting or running the tests adds or rewrites a
    file in the working directory: outputs belong under tmp_path."""
    cwd, before = _START["cwd"], _START["files"]
    yield
    assert os.getcwd() == cwd
    after = _files_here()
    touched = sorted(name for name, mtime in after.items()
                     if name not in before or before[name] != mtime)
    assert not touched, f"tests left or rewrote {touched} in {cwd}"


@pytest.fixture(scope="session")
def target():
    """The standard third-order target with poles at -1 and -2."""
    return design_companion([-1.0, -2.0])


@pytest.fixture(scope="session")
def unit_gain(target):
    return rank_one_gain(target, mu=1.0, q1=1.0, r_hat=1.0)


@pytest.fixture(scope="session")
def five_agents():
    return [builtin(f"agent{i}") for i in (1, 2, 3, 4, 5)]


@pytest.fixture(scope="session")
def five_cycle():
    return directed_cycle(5)


def rand_stable_matrix(rng, n, margin=0.5):
    """A random strictly stable matrix (shifted past its spectral abscissa)."""
    m = rng.standard_normal((n, n))
    shift = max(0.0, np.linalg.eigvals(m).real.max())
    return m - (shift + margin) * np.eye(n)


def rand_spd(rng, n, floor=0.1):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


def empty_graph(n):
    """The graph on n nodes with no edges."""
    return DiGraph(np.zeros((n, n)))


def default_switching_pair(n=5):
    """Two sparse mode graphs whose union is the directed n-cycle.

    Mode 0 carries the first two cycle edges, mode 1 the rest.  Neither
    mode alone has a spanning tree or is balanced, but the union is the
    full cycle, so the switching assumptions hold.
    """
    if n < 3:
        raise ValidationError("need at least 3 nodes")
    edges = [(k, (k + 1) % n, 1.0) for k in range(n)]
    g1 = DiGraph.from_edges(n, edges[:2])
    g2 = DiGraph.from_edges(n, edges[2:])
    return g1, g2
