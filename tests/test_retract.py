from itertools import product

import pytest

from yangbaxter import (
    ALL_SYMBOLS,
    CompatibilityError,
    DomainError,
    FiniteSolution,
    NotLeftNondegenerate,
    NotNondegenerate,
    Partition,
    RetractResult,
    SymbolUnavailable,
    check_compatibility,
    check_relation_coincidence,
    check_retract,
    check_retract_duality,
    is_irretractable,
    is_trivial,
    mpl,
    mpl_prime,
    retract,
    retract_relation,
    retract_tower,
)
from yangbaxter.core import require_nondegenerate
from yangbaxter.retract import retract_levels
from yangbaxter.fixtures import (
    derived2,
    left_only3,
    lyubashenko,
    lyubashenko3,
    projection,
    singleton,
    z3group,
)
from yangbaxter.omega import action_table


def test_forward_relation_blocks_left_only3():
    part = retract_relation(left_only3(), "forward")
    assert part.blocks() == [(0, 1), (2,)]


def test_all_relations_single_block_on_constant_families():
    sol = lyubashenko3()
    for kind in ("forward", "inverse", "colon"):
        assert retract_relation(sol, kind).blocks() == [(0, 1, 2)]


def test_all_relations_single_block_on_projection():
    sol = projection(2)
    for kind in ("forward", "inverse", "colon"):
        assert retract_relation(sol, kind).blocks() == [(0, 1)]


def test_colon_relation_needs_left_nondegeneracy():
    # z3group is left non-degenerate, so the colon relation is defined there
    assert retract_relation(z3group(), "colon").n == 3
    right_only = FiniteSolution(((0, 0), (0, 0)), ((0, 1), (0, 1)))
    with pytest.raises(NotLeftNondegenerate):
        retract_relation(right_only, "colon")


def test_compatibility_witness_reproduces_split_blocks():
    sol = left_only3()
    part = retract_relation(sol, "forward")
    assert check_compatibility(sol, part, "sigma") is None
    w = check_compatibility(sol, part, "tau")
    assert w == (0, 0, 0, 1)
    x1, x2, y1, y2 = w
    # the two right actions land on 1 and 2, which sit in different blocks
    assert sol.tau[x1][y1] == 1
    assert sol.tau[x2][y2] == 2
    assert not part.same_block(1, 2)


def _compatibility_scan(table, partition):
    """Reference: the first of all n^4 quadruples, in lexicographic order,
    that breaks compatibility."""
    same = partition.same_block
    for x1, x2, y1, y2 in product(range(partition.n), repeat=4):
        if same(x1, x2) and same(y1, y2) and not same(table[x1][y1], table[x2][y2]):
            return (x1, x2, y1, y2)
    return None


def test_compatibility_witness_matches_full_scan(suite_populations):
    # the suite populations up to n = 3, against every partition of the carrier
    population = [*suite_populations[1], *suite_populations[2], *suite_populations[3]]
    partitions = {
        n: {Partition.from_keys(keys) for keys in product(range(n), repeat=n)}
        for n in (1, 2, 3)
    }
    witnesses = 0
    for sol in population:
        for op in ALL_SYMBOLS:
            try:
                table = action_table(sol, op)
            except SymbolUnavailable:
                continue
            for part in partitions[sol.n]:
                expected = _compatibility_scan(table, part)
                assert check_compatibility(sol, part, op) == expected, (sol, op, part)
                witnesses += expected is not None
    assert witnesses > 0


def test_retract_raises_on_incompatible_relation():
    with pytest.raises(CompatibilityError) as exc:
        retract(left_only3())
    assert exc.value.op == "tau"
    assert exc.value.witness == (0, 0, 0, 1)


def test_retract_collapses_constant_families():
    res = retract(lyubashenko3())
    assert res.quotient.n == 1
    assert res.projection == (0, 0, 0)
    assert check_retract(lyubashenko3(), res) == []
    # a two-element quotient whose tables the projection does not carry
    wrong = RetractResult(quotient=lyubashenko((1, 0), (1, 0)), projection=(0, 0, 0))
    assert {name for name, _ in check_retract(lyubashenko3(), wrong)} == {
        "sigma_homomorphism", "tau_homomorphism"
    }


def test_retract_of_singleton_is_itself():
    res = retract(singleton())
    assert res.quotient == singleton()
    assert res.projection == (0,)


def test_mpl_values():
    assert mpl(singleton()) == 0
    assert mpl(lyubashenko3()) == 1
    assert mpl(projection(2)) == 1
    with pytest.raises(NotNondegenerate):
        mpl(left_only3())


def test_mpl_prime_values():
    assert mpl_prime(projection(2)) == 0
    assert mpl_prime(lyubashenko3()) == 1
    assert mpl_prime(singleton()) == 0


def test_is_trivial():
    assert is_trivial(projection(3))
    assert not is_trivial(lyubashenko3())


def test_irretractable():
    assert is_irretractable(singleton())
    assert not is_irretractable(lyubashenko3())
    assert not is_irretractable(left_only3())


def test_irretractable_solutions_have_no_level():
    # found by enumeration: identity left translations, right rows three
    # distinct involutions; the forward relation is trivial, so the tower
    # stalls immediately and neither level notion applies
    sol = FiniteSolution(
        ((0, 1, 2), (0, 1, 2), (0, 1, 2)),
        ((0, 2, 1), (2, 1, 0), (1, 0, 2)),
    )
    assert is_irretractable(sol)
    assert mpl(sol) is None
    assert mpl_prime(sol) is None


def test_relation_coincidence_on_fixtures():
    for sol in (projection(2), lyubashenko3()):
        assert check_relation_coincidence(sol)["disagreements"] == []


def test_retract_duality_on_fixtures():
    for sol in (projection(2), lyubashenko3()):
        report = check_retract_duality(sol)
        assert report["mutually_inverse"] == []
        assert report["mpl_equal"] == []


def _mpl_loop(sol):
    """Reference: mpl as a loop of its own, one retract per height."""
    require_nondegenerate(sol, "mpl")
    cur = sol
    k = 0
    while cur.n > 1:
        step = retract(cur)
        if step.quotient.n == cur.n:
            return None
        cur = step.quotient
        k += 1
    return k


def _mpl_prime_loop(sol):
    """Reference: mpl_prime as a loop of its own, one retract per height."""
    require_nondegenerate(sol, "mpl_prime")
    cur = sol
    k = 0
    while not is_trivial(cur):
        step = retract(cur)
        if step.quotient.n == cur.n:
            return None
        cur = step.quotient
        k += 1
    return k


def _outcome(fn, sol):
    """fn(sol), or the type and message of what it raised."""
    try:
        return fn(sol)
    except DomainError as exc:
        return type(exc), str(exc)


def test_tower_views_match_the_per_height_loops(suite_populations, nd4_population):
    # the suite populations up to n = 3, the n = 4 nd population and the fixtures
    sols = [
        *suite_populations[1],
        *suite_populations[2],
        *suite_populations[3],
        *nd4_population,
        singleton(), projection(2), projection(3), left_only3(), lyubashenko3(),
        derived2(), z3group(),
    ]
    assert len(sols) == 1 + 43 + 354 + 1800 + 7
    levels = {}
    for sol in sols:
        expected = _outcome(_mpl_loop, sol), _outcome(_mpl_prime_loop, sol)
        assert (_outcome(mpl, sol), _outcome(mpl_prime, sol)) == expected, sol
        levels[expected] = levels.get(expected, 0) + 1
        try:
            tower = retract_tower(sol)
        except CompatibilityError as exc:
            # a degenerate solution whose first retract already fails
            with pytest.raises(CompatibilityError) as ref:
                retract(sol)
            assert (ref.value.op, ref.value.witness) == (exc.op, exc.witness)
            continue
        quotients = (sol, *(step.quotient for step in tower))
        for prev, step in zip(quotients, tower):
            assert step == retract(prev), sol
        # the walk stops at the first quotient of size one or the first
        # step that keeps the size, and that quotient retracts to itself
        sizes = [q.n for q in quotients]
        assert all(1 < a and b < a for a, b in zip(sizes[:-1], sizes[1:-1])), sol
        assert sizes[-1] == 1 or sizes[-1] == sizes[-2], sol
        assert retract(quotients[-1]).quotient == quotients[-1], sol
        if not isinstance(expected[0], tuple):
            assert retract_levels(sol) == expected, sol
    # stalled and collapsing towers of several heights, and degenerate inputs
    values = {v for pair in levels for v in pair}
    assert {None, 0, 1, 2, 3} <= values
    assert any(isinstance(v, tuple) and v[0] is NotNondegenerate for v in values)


def test_retract_tower_fixtures():
    assert [step.quotient.n for step in retract_tower(singleton())] == [1]
    assert [step.quotient.n for step in retract_tower(projection(3))] == [1]
    assert [step.quotient.n for step in retract_tower(lyubashenko3())] == [1]
    assert retract_tower(lyubashenko3())[0] == retract(lyubashenko3())
    with pytest.raises(CompatibilityError):
        retract_tower(left_only3())
    with pytest.raises(NotNondegenerate, match="^mpl_prime needs"):
        mpl_prime(left_only3())
    with pytest.raises(NotNondegenerate, match="^mpl needs"):
        mpl(left_only3())
