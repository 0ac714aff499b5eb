"""Acceptance gate: worked examples reproduced exactly, plus exhaustive
verification of every theorem over the complete desk-scale populations.

Each criterion prints one PASS line (visible under pytest -s); a failed
assertion inside a criterion marks it failed.
"""

import time
from itertools import product

import pytest

from yangbaxter import (
    CompatibilityError,
    EnumFilter,
    census,
    check_compatibility,
    check_frozen_census,
    check_omega_identities,
    check_orbit_theorem,
    check_relation_coincidence,
    check_retract_duality,
    check_star_conditions,
    diagonal_maps,
    is_decomposable,
    is_k_permutational,
    is_k_reductive,
    is_trivial,
    load_frozen_census,
    mpl,
    mpl_prime,
    oracle_enumerate,
    properties,
    qcycle_diagonals,
    retract,
    retract_relation,
    to_solution,
    from_solution,
    validate_braid,
    validate_qcycle,
)
from yangbaxter.diagonals import check_diagonal_theorems
from yangbaxter.fixtures import left_only3, qcycle_constant
from yangbaxter.omega import SIGMA_HAT_INV, SIGMA_INV, FULL_ALPHABET
from yangbaxter.search import FROZEN_CELLS

K_RANGE = (0, 1, 2, 3)


def _passed(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


@pytest.fixture(scope="module")
def populations(suite_populations):
    """Complete populations: unrestricted at n <= 2, left non-degenerate at
    n = 3 (a superset of every class the criteria quantify over at n = 3)."""
    return {n: list(sols) for n, sols in suite_populations.items()}


@pytest.fixture(scope="module")
def nd_population(populations):
    out = []
    for sols in populations.values():
        out.extend(s for s in sols if properties(s).nondegenerate)
    return out


@pytest.fixture(scope="module")
def nd_population_n4(nd4_population):
    return list(nd4_population)


def test_criterion_01_worked_example_exact(populations):
    t0 = time.perf_counter()
    sol = left_only3()
    assert validate_braid(sol) == []
    p = properties(sol)
    assert p.left_nondegenerate is True
    assert p.right_nondegenerate is False
    assert p.bijective is False
    part = retract_relation(sol, "forward")
    assert part.blocks() == [(0, 1), (2,)]
    witness = check_compatibility(sol, part, "tau")
    assert witness == (0, 0, 0, 1)
    x1, x2, y1, y2 = witness
    assert sol.tau[x1][y1] == 1 and sol.tau[x2][y2] == 2  # images b and c
    assert not part.same_block(1, 2)
    with pytest.raises(CompatibilityError) as exc:
        retract(sol)
    assert exc.value.op == "tau" and exc.value.witness == witness
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"worked example reproduced exactly in {elapsed:.3f}s")


def test_criterion_02_nondegenerate_implies_bijective(nd_population, nd_population_n4):
    t0 = time.perf_counter()
    for sol in nd_population:
        assert properties(sol).bijective, sol
    small_elapsed = time.perf_counter() - t0
    assert small_elapsed < 300
    t0 = time.perf_counter()
    for sol in nd_population_n4:
        assert properties(sol).bijective, sol
    big_elapsed = time.perf_counter() - t0
    assert big_elapsed < 3600
    _passed(
        2,
        f"all {len(nd_population)} nd solutions (n<=3) and "
        f"{len(nd_population_n4)} (n=4) bijective "
        f"[{small_elapsed:.1f}s, {big_elapsed:.1f}s]",
    )


def test_criterion_03_diagonal_theorems(nd_population, nd_population_n4):
    checked = 0
    for sol in nd_population + nd_population_n4:
        n = sol.n
        d = diagonal_maps(sol)
        assert sorted(d.U) == list(range(n)) and sorted(d.T) == list(range(n))
        report = check_diagonal_theorems(sol)
        assert all(not ws for ws in report.values()), (sol, report)
        identity = tuple(range(n))
        sqf = all(sol.r(x, x) == (x, x) for x in range(n))
        assert sqf == (d.U == identity and d.T == identity)
        checked += 1
    _passed(3, f"diagonal bijectivity/inverse/commutation theorems on {checked} solutions")


def test_criterion_04_retract_theory(nd_population):
    checked = 0
    for sol in nd_population:
        if not properties(sol).bijective:
            continue
        assert check_relation_coincidence(sol)["disagreements"] == []
        duality = check_retract_duality(sol)
        assert duality["mutually_inverse"] == [] and duality["mpl_equal"] == []
        checked += 1
    _passed(4, f"relations coincide and retract duality holds on {checked} solutions")


def test_criterion_05_multipermutation_equivalences(nd_population):
    for sol in nd_population:
        level = mpl(sol)
        for k in K_RANGE:
            expected = level is not None and level <= k
            assert is_k_permutational(sol, k)[0] == expected, (sol, k)
            assert is_k_permutational(sol, k, FULL_ALPHABET)[0] == expected, (sol, k)
            assert (
                is_k_permutational(sol, k, (SIGMA_INV, SIGMA_HAT_INV))[0] == expected
            ), (sol, k)
    _passed(5, f"tower characterizations of the level agree on {len(nd_population)} solutions")


def test_criterion_06_reductivity_chain(nd_population):
    for sol in nd_population:
        red = {k: is_k_reductive(sol, k)[0] for k in range(1, 5)}
        perm = {k: is_k_permutational(sol, k)[0] for k in range(0, 4)}
        level = mpl(sol)
        level_prime = mpl_prime(sol)

        for k in (1, 2, 3):
            if red[k]:
                assert perm[k], (sol, k)
        for k in (0, 1, 2, 3):
            if perm[k]:
                assert red[k + 1], (sol, k)

        sqf = all(sol.r(x, x) == (x, x) for x in range(sol.n))
        if sqf and level is not None and level <= 3:
            assert red[max(level, 1)], sol

        if check_star_conditions(sol)[0]:
            for k in (1, 2, 3):
                assert perm[k] == red[k], (sol, k)

        distributive = all(
            sol.sigma[y][sol.sigma[x][z]] == sol.sigma[sol.sigma[y][x]][sol.sigma[y][z]]
            and sol.tau[y][sol.tau[x][z]] == sol.tau[sol.tau[y][x]][sol.tau[y][z]]
            for x, y, z in product(range(sol.n), repeat=3)
        )
        if distributive:
            for k in (2, 3):
                assert red[k] == perm[k], (sol, k)

        for k in (1, 2, 3, 4):
            if red[k]:
                cur = sol
                for _ in range(k - 1):
                    cur = retract(cur).quotient
                assert is_trivial(cur), (sol, k)

        if red[1]:
            assert level_prime == 0
        for k in (2, 3, 4):
            if red[k] and not red[k - 1]:
                assert level_prime == k - 1, (sol, k)

        if level is not None:
            assert level_prime is not None and level_prime <= level <= level_prime + 1
    _passed(6, f"reductivity chain verified on {len(nd_population)} solutions")


def test_criterion_07_orbits_and_decomposability(nd_population):
    for sol in nd_population:
        level = mpl(sol)
        red = {k: is_k_reductive(sol, k)[0] for k in range(1, 5)}
        for k in (1, 2, 3, 4):
            if red[k]:
                assert check_orbit_theorem(sol, k) == [], (sol, k)
        sqf = all(sol.r(x, x) == (x, x) for x in range(sol.n))
        if sol.n > 1 and sqf and level is not None:
            assert is_decomposable(sol), sol
        if sol.n > 1 and level is not None and level <= 4 and red.get(level, False):
            assert is_decomposable(sol), sol
    _passed(7, f"orbit and decomposability theorems on {len(nd_population)} solutions")


def test_criterion_08_qcycle_correspondence(populations, nd4_population):
    # analyze turns the q-cycle set of a solution back without validating it
    # again, so the axioms are checked here on every population it reads,
    # the n = 4 non-degenerate one included
    count = 0
    qsets = [qcycle_constant()]
    for sols in [*populations.values(), nd4_population]:
        for sol in sols:
            if not properties(sol).left_nondegenerate:
                continue
            q = from_solution(sol)
            assert validate_qcycle(q) == []
            assert to_solution(q) == sol
            assert from_solution(to_solution(q)) == q
            qsets.append(q)
            count += 1
    for q in qsets:
        U, U_hat, failures = qcycle_diagonals(q)
        assert failures == []
    q = qcycle_constant()
    U, U_hat, _ = qcycle_diagonals(q)
    assert U == tuple(range(q.n)) and U_hat == tuple(0 for _ in range(q.n))
    _passed(8, f"q-cycle round trips on {count} solutions, diagonals commute on {len(qsets)} q-cycle sets")


def test_criterion_09_omega_identity_suite(populations):
    checked = 0
    for sols in populations.values():
        for sol in sols:
            report = check_omega_identities(sol, 3)
            for name, result in report.items():
                if isinstance(result, dict):
                    assert result["mode"] == "exhaustive"
                    assert result["failures"] == [], (sol, name)
            checked += 1
    _passed(9, f"tower rewriting identities exhaustively verified on {checked} solutions")


def test_criterion_10_enumeration_integrity(populations, oracle_population):
    assert populations[2] == oracle_enumerate(2)
    assert populations[3] == oracle_population(3, "left_nd")
    frozen = load_frozen_census()
    assert set(frozen) == set(FROZEN_CELLS)
    for n, sig in FROZEN_CELLS:
        filt = EnumFilter.from_signature(sig)
        result = census(n, filt)
        assert check_frozen_census(n, filt, result) == "match", (n, sig)
    _passed(10, "pruned search equals oracle; frozen census reproduced")
