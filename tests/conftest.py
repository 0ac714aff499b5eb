import functools

import pytest

from yangbaxter import EnumFilter, oracle_enumerate


@pytest.fixture(scope="session")
def oracle_population():
    """oracle_enumerate(n, filter) for a census signature, computed once per
    test session: the n = 3 scans take seconds each, and several test
    modules compare against the same population."""

    @functools.cache
    def population(n, sig):
        return oracle_enumerate(n, EnumFilter.from_signature(sig))

    return population
