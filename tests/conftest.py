"""Shared set-up of the test session."""

import pytest

from poincare_ext import group, irreps, quantization


@pytest.fixture(autouse=True, scope="session")
def decided_tables():
    """Decide the once-per-process identity tables before any test plants a
    defect: a defect then reaches only the undecorated decision
    (`__wrapped__`), never the tables every report reads."""
    irreps.decided_identities()
    quantization.decided_identities()
    group.decided_ad_spectrum()
