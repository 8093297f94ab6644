import os

import numpy as np
import pytest

import consensuskit as ck


def _files_here():
    """The working directory's entries, each with its file's mtime."""
    with os.scandir() as entries:
        return {e.name: e.stat().st_mtime_ns if e.is_file() else None
                for e in entries}


@pytest.fixture(scope="session", autouse=True)
def working_directory_untouched():
    """Fail the run if a test adds or rewrites a file in the working
    directory: outputs belong under tmp_path."""
    cwd, before = os.getcwd(), _files_here()
    yield
    assert os.getcwd() == cwd
    after = _files_here()
    touched = sorted(name for name, mtime in after.items()
                     if name not in before or before[name] != mtime)
    assert not touched, f"tests left or rewrote {touched} in {cwd}"


@pytest.fixture(scope="session")
def target():
    """The standard third-order target with poles at -1 and -2."""
    return ck.design_companion([-1.0, -2.0])


@pytest.fixture(scope="session")
def unit_gain(target):
    return ck.rank_one_gain(target, mu=1.0, q1=1.0, r_hat=1.0)


@pytest.fixture(scope="session")
def five_agents():
    return [ck.builtin(f"agent{i}") for i in (1, 2, 3, 4, 5)]


@pytest.fixture(scope="session")
def five_cycle():
    return ck.directed_cycle(5)


def rand_stable_matrix(rng, n, margin=0.5):
    """A random strictly stable matrix (shifted past its spectral abscissa)."""
    m = rng.standard_normal((n, n))
    shift = max(0.0, np.linalg.eigvals(m).real.max())
    return m - (shift + margin) * np.eye(n)


def rand_spd(rng, n, floor=0.1):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)
