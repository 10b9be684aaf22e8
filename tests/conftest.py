"""Shared set-up of the test session."""

import pytest

from poincare_ext import cohomology, dynamics, group, irreps, orbits, quantization


@pytest.fixture(autouse=True, scope="session")
def decided_tables():
    """Decide the once-per-process identity tables before any test plants a
    defect: a defect then reaches only the undecorated decision
    (`__wrapped__`), never the tables every report reads."""
    irreps.decided_identities()
    irreps.decided_group_identities()
    quantization.decided_identities()
    quantization.decided_covariance()
    group.decided_ad_spectrum()
    cohomology.decided_dims()
    group.decided_series()
    orbits.decided_cases()
    group.decided_coadjoint()
    dynamics.decided_identities()
