"""Session-wide test setup.

Turns on the solver's residual self-check for every solve issued during
the test run.
"""

import pytest

import msip.kernel


@pytest.fixture(scope="session", autouse=True)
def _strict_numerics():
    previous = msip.kernel.CHECK_RESIDUALS
    msip.kernel.CHECK_RESIDUALS = True
    yield
    msip.kernel.CHECK_RESIDUALS = previous
