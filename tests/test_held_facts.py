"""Each fact about a solution is decided on its first read and held on that
solution object: a held fact equals the one a fresh copy decides, a second
read returns the same object, and a failing read raises the same error type,
message and witness every time.  Holding facts changes nothing else about
the solution."""

import pickle
import weakref

import pytest

from yangbaxter import (
    DomainError,
    FiniteSolution,
    NotNondegenerate,
    QCycleSet,
    SymbolUnavailable,
    from_solution,
    orbit_decomposition,
    to_solution,
)
from yangbaxter.core import _braid_violations, _preimages, invert, properties
from yangbaxter.diagonals import diagonal_maps
from yangbaxter.documents import solution_to_document
from yangbaxter.fixtures import left_only3, lyubashenko3, z3group
from yangbaxter.omega import (
    ALL_SYMBOLS,
    DEFAULT_ALPHABET,
    FULL_ALPHABET,
    SIGMA_HAT_INV,
    SIGMA_INV,
    _held_levels,
    _tower_levels,
    action_tables,
    check_omega_identities,
    check_star_conditions,
    tower_verdicts,
)
from yangbaxter.orbits import _decomposable, _orbit_partition
from yangbaxter.retract import (
    check_compatibility,
    retract,
    retract_levels,
    retract_relation,
    retract_tower,
)


def _compatibility(sol, kind, op):
    """check_compatibility over sol's own partition of the kind, each held."""
    return check_compatibility(sol, retract_relation(sol, kind), op)


# every held function, with the argument tuples it is read at
HELD_READS = [
    (properties, ()),
    (_braid_violations, ()),
    (_preimages, ()),
    (invert, ()),
    (from_solution, ()),
    (retract_relation, ("forward",)),
    (retract_relation, ("inverse",)),
    (retract_relation, ("colon",)),
    (retract, ()),
    (retract_tower, ()),
    (retract_levels, ()),
    (diagonal_maps, ()),
    (check_star_conditions, ()),
    (tower_verdicts, (2, 3)),
    (tower_verdicts, (3, 4)),
    *((_compatibility, (kind, op)) for kind in ("forward", "colon") for op in ALL_SYMBOLS),
]


def _outcome(fn, *args):
    """("value", fn(*args)), or ("raised", type, message, witness) for the
    DomainError it raises."""
    try:
        return "value", fn(*args)
    except DomainError as exc:
        return "raised", type(exc), str(exc), exc.witness


def _fresh(sol):
    return FiniteSolution(sol.sigma, sol.tau)


def _population(population, suite_populations, nd4_population):
    if population == "n<=3":
        return [*suite_populations[1], *suite_populations[2], *suite_populations[3]]
    return nd4_population


@pytest.mark.parametrize("population", ["n<=3", "n=4-nd"])
def test_held_facts_equal_fresh_ones(population, suite_populations, nd4_population):
    failing = 0
    for sol in _population(population, suite_populations, nd4_population):
        for fn, args in HELD_READS:
            first = _outcome(fn, sol, *args)
            assert first == _outcome(fn, _fresh(sol), *args), (fn.__name__, args, sol)
            second = _outcome(fn, sol, *args)
            if first[0] == "raised":
                # a failure is raised again, not held
                assert second == first, (fn.__name__, args, sol)
                failing += 1
            else:
                assert second[1] is first[1], (fn.__name__, args, sol)
        # for each alphabet the tower readers build, a build held at height 3
        # serves height 2 with the maps a fresh height-2 build gives, in the
        # same order
        suite_alphabet = tuple(action_tables(sol, FULL_ALPHABET, skip_unavailable=True))
        for alphabet in (DEFAULT_ALPHABET, FULL_ALPHABET, suite_alphabet, (SIGMA_INV, SIGMA_HAT_INV)):
            try:
                tables = action_tables(sol, alphabet)
            except SymbolUnavailable:
                continue
            levels = _held_levels(sol, tables, alphabet, 3)
            assert _held_levels(sol, tables, alphabet, 2) is levels
            fresh = _tower_levels(tables, alphabet, sol.n, 2)
            assert [list(level.items()) for level in levels[:3]] == [
                list(level.items()) for level in fresh
            ], (sol, alphabet)
    assert failing > 0 if population == "n<=3" else failing == 0


@pytest.mark.parametrize("population", ["n<=3", "n=4-nd"])
def test_shortcuts_equal_the_checked_routes(population, suite_populations, nd4_population):
    # analyze reads the orbit partition without the suborbits, and
    # from_solution builds its q-cycle set without the constructor's checks
    for sol in _population(population, suite_populations, nd4_population):
        decomposition = _outcome(orbit_decomposition, sol)
        if properties(sol).nondegenerate:
            partition = _orbit_partition(sol)
            assert partition == decomposition[1].partition, sol
            assert _decomposable(partition) == decomposition[1].decomposable, sol
        else:
            assert decomposition[1] is NotNondegenerate, sol
        if properties(sol).left_nondegenerate:
            q = from_solution(sol)
            checked = QCycleSet(q.dot, q.colon)
            assert (q.n, q.dot, q.colon) == (checked.n, checked.dot, checked.colon), sol
            assert to_solution(q) == sol


def test_failures_are_raised_again_with_the_same_witness():
    sol = left_only3()
    for fn in (invert, retract, retract_tower, retract_levels):
        with pytest.raises(DomainError) as first:
            fn(sol)
        with pytest.raises(DomainError) as second:
            fn(sol)
        assert first.value is not second.value
        assert (type(first.value), str(first.value), first.value.witness) == (
            type(second.value), str(second.value), second.value.witness
        )
        assert first.value.witness is not None


@pytest.mark.parametrize("make", [left_only3, lyubashenko3, z3group])
def test_a_solution_holding_facts_is_unchanged(make):
    sol = make()
    for fn, args in HELD_READS:
        _outcome(fn, sol, *args)
    check_omega_identities(sol, 3)
    # arguments are held by position and by keyword alike
    assert retract_relation(sol, kind="forward") == retract_relation(sol, "forward")
    fresh = make()
    assert sol == fresh and hash(sol) == hash(fresh) and repr(sol) == repr(fresh)
    assert solution_to_document(sol) == solution_to_document(fresh)
    # a copy holds the tables only, and decides each fact again
    assert vars(pickle.loads(pickle.dumps(sol))) == vars(fresh)
    # no held fact refers back to its solution, so it is freed without the
    # cycle collector
    ref = weakref.ref(sol)
    del sol
    assert ref() is None
