import pytest

from yangbaxter import (
    InvalidQCycle,
    NotLeftNondegenerate,
    QCycleSet,
    check_qcycle_correspondence,
    from_solution,
    is_regular,
    qcycle_diagonals,
    to_solution,
    validate_braid,
    validate_qcycle,
)
from yangbaxter.fixtures import (
    left_only3,
    lyubashenko3,
    projection,
    qcycle_constant,
    singleton,
    z3group,
)
from yangbaxter.search import EnumFilter, enumerate_solutions


def test_constant_colon_is_valid_but_not_regular():
    q = qcycle_constant()
    assert validate_qcycle(q) == []
    assert not is_regular(q)


def test_projection_on_second_argument_both_ways_is_valid():
    # dot and colon both project on the second argument: every axiom is a tautology
    rows = tuple(tuple(range(3)) for _ in range(3))
    q = QCycleSet(rows, rows)
    assert validate_qcycle(q) == []
    assert is_regular(q)


def test_perturbed_colon_breaks_axioms():
    q0 = qcycle_constant()
    colon = [list(row) for row in q0.colon]
    colon[0][0] = 1
    q = QCycleSet(q0.dot, colon)
    assert validate_qcycle(q) != []
    bad = check_qcycle_correspondence(to_solution(q0), q)
    assert bad and {name for name, _ in bad} == {"qcycle_axiom"}


def test_correspondence_check_flags_a_foreign_qcycle():
    # a valid q-cycle set, but it translates back to the projection, and its
    # colon rows invert the identity, not the inverted-solution left rows of
    # the 3-cycle solution
    bad = check_qcycle_correspondence(lyubashenko3(), from_solution(projection(3)))
    assert bad == [("solution_round_trip", projection(3))] + [
        ("colon_inverts_hat_row", x) for x in range(3)
    ]


def test_to_solution_rejects_invalid():
    rows = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    colon = [[0] * 3 for _ in range(3)]
    colon[0][0] = 1
    with pytest.raises(InvalidQCycle):
        to_solution(QCycleSet(rows, colon))


def test_from_solution_requires_left_nondegeneracy():
    from yangbaxter import FiniteSolution

    right_only = FiniteSolution(((0, 0), (0, 0)), ((0, 1), (0, 1)))
    with pytest.raises(NotLeftNondegenerate):
        from_solution(right_only)


def test_constant_colon_solution_is_braid_valid():
    sol = to_solution(qcycle_constant())
    assert validate_braid(sol) == []
    assert sol.sigma == ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert sol.tau == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_round_trip_on_fixtures():
    for sol in (singleton(), projection(2), left_only3(), lyubashenko3(), z3group()):
        q = from_solution(sol)
        assert validate_qcycle(q) == []
        assert check_qcycle_correspondence(sol, q) == []
        assert to_solution(q) == sol
        assert from_solution(to_solution(q)) == q


def test_round_trip_on_complete_left_nd_population_n2():
    for sol in enumerate_solutions(2, EnumFilter(require_left_nd=True)):
        q = from_solution(sol)
        assert check_qcycle_correspondence(sol, q) == []
        assert to_solution(q) == sol
        assert from_solution(to_solution(q)) == q


def test_lyubashenko_conversion_tables():
    q = from_solution(lyubashenko3())
    finv = (2, 0, 1)
    assert q.dot == tuple(finv for _ in range(3))
    # colon applies the constant right family to the second argument
    assert q.colon == tuple((1, 2, 0) for _ in range(3))


def test_regular_solution_gives_regular_qcycle():
    assert is_regular(from_solution(lyubashenko3()))
    assert is_regular(from_solution(projection(3)))


def test_qcycle_diagonals_constant_colon():
    U, U_hat, failures = qcycle_diagonals(qcycle_constant())
    assert U == (0, 1, 2)
    assert U_hat == (0, 0, 0)
    assert failures == []


def test_qcycle_diagonals_identity_case():
    rows = tuple(tuple(range(3)) for _ in range(3))
    U, U_hat, failures = qcycle_diagonals(QCycleSet(rows, rows))
    assert U == U_hat == (0, 1, 2)
    assert failures == []


def test_qcycle_diagonals_from_lyubashenko_commute():
    q = from_solution(lyubashenko3())
    U, U_hat, failures = qcycle_diagonals(q)
    assert failures == []
    assert U == (2, 0, 1)
    assert U_hat == (1, 2, 0)
