from __future__ import annotations

import numpy as np
import pytest

from rsvp import autodiff as ad


@pytest.fixture(autouse=True)
def _float32_default():
    """Every test starts and ends at the float32 training default, so a
    dtype that leaks out of a test fails it instead of the next one."""
    assert ad.default_dtype() is np.float32, "a test started with a leaked default dtype"
    yield
    leaked = ad.default_dtype()
    ad._default_dtype = np.float32  # so that only the leaking test fails
    assert leaked is np.float32, f"the test left the default dtype at {leaked.__name__}"


@pytest.fixture
def float64():
    """Runs the test with float64 as the default dtype."""
    with ad.precision("float64"):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
