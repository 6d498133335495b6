import numpy as np
import pytest

from atrig import preset
from atrig.spectral import _decompose


@pytest.fixture(autouse=True)
def empty_root_memo():
    """Every test starts with no memoized decomposition, so a test that
    counts root findings or patches the eigenvalue solver sees its own."""
    _decompose.cache_clear()


@pytest.fixture
def h2():
    return preset("hyperbolic", 2)


@pytest.fixture
def h3():
    return preset("hyperbolic", 3)


@pytest.fixture
def c2():
    return preset("complicated", 2)


@pytest.fixture
def gamma2():
    return preset("nil", 2)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
