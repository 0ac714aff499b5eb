import functools

import pytest

from yangbaxter import EnumFilter, enumerate_solutions, oracle_enumerate


@pytest.fixture(scope="session")
def oracle_population():
    """oracle_enumerate(n, filter) for a census signature, computed once per
    test session: the n = 3 scans take seconds each, and several test
    modules compare against the same population."""

    @functools.cache
    def population(n, sig):
        return oracle_enumerate(n, EnumFilter.from_signature(sig))

    return population


@pytest.fixture(scope="session")
def suite_populations():
    """The suite's populations, {n: solutions in stream order}: every
    solution at n <= 2 and the left non-degenerate ones at n = 3.  Streamed
    once per test session for the tests that take them as input; the tests
    of the stream itself call enumerate_solutions."""
    return {
        1: tuple(enumerate_solutions(1)),
        2: tuple(enumerate_solutions(2)),
        3: tuple(enumerate_solutions(3, EnumFilter(require_left_nd=True))),
    }


@pytest.fixture(scope="session")
def nd4_population():
    """The 1,800 non-degenerate solutions at n = 4 in stream order, streamed
    once per test session for the tests that take them as input; the tests
    of the stream itself call enumerate_solutions."""
    return tuple(enumerate_solutions(4, EnumFilter(require_nd=True)))
