"""Property tests: what the tower deciders and the identity battery say about a
solution does not depend on how its carrier is labeled, and the diagonal U of
a non-degenerate solution is a bijection that relabeling conjugates."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from yangbaxter import check_omega_identities, diagonal_maps, relabel, tower_verdicts
from yangbaxter.core import perm_inverse
from yangbaxter.suite import K_PERM_MAX, K_RED_MAX


@st.composite
def relabeled_solutions(draw, populations):
    sol = draw(st.sampled_from(populations[draw(st.sampled_from(sorted(populations)))]))
    pi = tuple(draw(st.permutations(range(sol.n))))
    return sol, relabel(sol, pi)


def _holds(verdicts):
    return tuple({k: holds for k, (holds, _) in levels.items()} for levels in verdicts)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_tower_verdicts_and_identities_survive_relabeling(suite_populations, nd4_population, data):
    # the suite's populations at n <= 3 and the non-degenerate one at n = 4
    populations = {
        "n1": suite_populations[1],
        "n2": suite_populations[2],
        "n3 left_nd": suite_populations[3],
        "n4 nd": nd4_population,
    }
    sol, image = data.draw(relabeled_solutions(populations))
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


@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_diagonal_u_is_a_bijection_that_relabeling_conjugates(nd4_population, data):
    # the theorem the rack route's U prune rests on, on the watch-list
    # route's n = 4 non-degenerate stream: U(x) = sigma_x^-1(x) is a
    # bijection, and U of the solution relabeled by pi is pi U pi^-1
    sol = data.draw(st.sampled_from(nd4_population))
    pi = tuple(data.draw(st.permutations(range(sol.n))))
    U = diagonal_maps(sol).U
    assert sorted(U) == list(range(sol.n))
    pinv = perm_inverse(pi)
    assert diagonal_maps(relabel(sol, pi)).U == tuple(pi[U[pinv[x]]] for x in range(sol.n))
