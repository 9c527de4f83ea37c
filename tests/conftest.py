import numpy as np
import pytest

from anisofrac.gridfn import Grid, GridFunction


def bump_profile(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def hat_profile(t):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(t, dtype=float)))


@pytest.fixture(scope="session")
def grid129():
    return Grid(((-1.0, 1.0),), 129)


@pytest.fixture(scope="session")
def hat129(grid129):
    return GridFunction.from_callable(grid129, hat_profile)


@pytest.fixture(scope="session")
def bump129(grid129):
    return GridFunction.from_callable(grid129, bump_profile)


@pytest.fixture(scope="session")
def one129(grid129):
    return GridFunction(grid129, np.ones(129), boundary_flag=False)
