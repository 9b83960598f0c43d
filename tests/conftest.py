import os

import numpy as np
import pytest

from eprsim.twophoton import TwoPhotonState


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Every process a test starts, the engine's worker processes included,
    has ended and been reaped when the test ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def random_states(rng):
    """A reproducible ensemble of normalized two-photon states."""

    def make(count: int) -> list[TwoPhotonState]:
        states = []
        for _ in range(count):
            amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            states.append(TwoPhotonState(amps / np.linalg.norm(amps)))
        return states

    return make
