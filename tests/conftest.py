import numpy as np
import pytest

from spikekit import numerics


@pytest.fixture
def float64_gemms(monkeypatch):
    """Hard-mode GEMMs in float64 (``numerics.HARD_DTYPE``) for the length of a test.

    The exact tests pin the engine's float64 arithmetic, bit for bit or to
    about 1e-13; with this precision the engine computes what it computed
    before its hard GEMMs were single precision.
    """
    monkeypatch.setattr(numerics, "HARD_DTYPE", np.float64)
