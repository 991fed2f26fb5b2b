"""Fixtures shared across the test modules."""

import pytest

from fano_enriques.catalog import reproduce


@pytest.fixture(scope="session")
def reproduction():
    """One run of the census, the three catalog searches and the worked
    examples, shared by every test that reads it; tests must not mutate it."""
    return reproduce()
