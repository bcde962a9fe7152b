import numpy as np
import pytest

from sec_transfer.fixtures import ladder_spectrum


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def two_qubit_spec():
    return ladder_spectrum(2, 2)


@pytest.fixture
def qutrit_qubit_spec():
    return ladder_spectrum(3, 2)

