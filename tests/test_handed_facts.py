"""A function handed a fact its caller already holds returns what it returns
when it decides that fact itself: the same value, or the same error type,
message and witness.  analyze and the suite decide each fact once per
solution and hand it on this way."""

import pytest

from yangbaxter import (
    DomainError,
    NotNondegenerate,
    QCycleSet,
    check_diagonal_identities,
    check_diagonal_theorems,
    diagonal_maps,
    from_solution,
    orbit_decomposition,
    properties,
    to_solution,
)
from yangbaxter.core import bijective_witness
from yangbaxter.orbits import _decomposable, _orbit_partition


def _outcome(fn, *args):
    """fn(*args), or the type, message and witness of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc), exc.witness


@pytest.mark.parametrize("population", ["n<=3", "n=4-nd"])
def test_handed_facts_give_the_same_results(population, suite_populations, nd4_population):
    if population == "n<=3":
        sols = [*suite_populations[1], *suite_populations[2], *suite_populations[3]]
    else:
        sols = nd4_population
    degenerate = 0
    for sol in sols:
        props = properties(sol)
        maps = diagonal_maps(sol, props)
        assert maps == diagonal_maps(sol), sol
        assert props.witnesses.get("bijective") == bijective_witness(sol), sol
        assert _outcome(check_diagonal_identities, sol, maps) == _outcome(
            check_diagonal_identities, sol
        ), sol
        assert _outcome(check_diagonal_theorems, sol, maps, props) == _outcome(
            check_diagonal_theorems, sol
        ), sol

        # the partition analyze reads, against the full decomposition
        decomposition = _outcome(orbit_decomposition, sol)
        if props.nondegenerate:
            partition = _orbit_partition(sol)
            assert partition == decomposition.partition, sol
            assert _decomposable(partition) == decomposition.decomposable, sol
        else:
            assert decomposition[0] is NotNondegenerate, sol
            degenerate += 1

        # from_solution builds its q-cycle set without the constructor's checks
        q = _outcome(from_solution, sol)
        if props.left_nondegenerate:
            checked = QCycleSet(q.dot, q.colon)
            assert (q.n, q.dot, q.colon) == (checked.n, checked.dot, checked.colon), sol
            assert to_solution(q) == sol
    assert degenerate > 0 if population == "n<=3" else degenerate == 0
