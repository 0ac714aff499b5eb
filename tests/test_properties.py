"""Property tests: what the tower deciders and the identity battery say about a
solution does not depend on how its carrier is labeled."""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from yangbaxter import EnumFilter, check_omega_identities, enumerate_solutions, relabel, tower_verdicts
from yangbaxter.suite import K_PERM_MAX, K_RED_MAX

# the suite's populations at n <= 3, and the non-degenerate one at n = 4
POPULATIONS = {
    "n1": (1, EnumFilter()),
    "n2": (2, EnumFilter()),
    "n3 left_nd": (3, EnumFilter(require_left_nd=True)),
    "n4 nd": (4, EnumFilter(require_nd=True)),
}


@functools.cache
def _population(name):
    n, filt = POPULATIONS[name]
    return tuple(enumerate_solutions(n, filt))


@st.composite
def relabeled_solutions(draw):
    sol = draw(st.sampled_from(_population(draw(st.sampled_from(sorted(POPULATIONS))))))
    pi = tuple(draw(st.permutations(range(sol.n))))
    return sol, relabel(sol, pi)


def _holds(verdicts):
    return tuple({k: holds for k, (holds, _) in levels.items()} for levels in verdicts)


@settings(max_examples=40, deadline=None, database=None)
@given(relabeled_solutions())
def test_tower_verdicts_and_identities_survive_relabeling(pair):
    sol, image = pair
    assert _holds(tower_verdicts(image, K_PERM_MAX, K_RED_MAX)) == _holds(
        tower_verdicts(sol, K_PERM_MAX, K_RED_MAX)
    )
    # the n <= 3 reports at the suite's height, n = 4 one lower
    max_m = 3 if sol.n < 4 else 2
    report = check_omega_identities(image, max_m)
    assert report["permutational_level_bound"] == (
        check_omega_identities(sol, max_m)["permutational_level_bound"]
    )
    for name, result in report.items():
        if isinstance(result, dict):
            assert result["failures"] == [], (name, result)
