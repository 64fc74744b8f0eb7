import numpy as np
import pytest


def pytest_configure(config):
    # an overflow or invalid value in a library path fails the test that hit it
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260826)
