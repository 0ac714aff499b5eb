from itertools import product

import pytest

from yangbaxter import (
    EnumFilter,
    FiniteSolution,
    NotKReductive,
    NotNondegenerate,
    check_orbit_theorem,
    enumerate_solutions,
    is_decomposable,
    is_k_permutational,
    is_k_reductive,
    orbit_decomposition,
    validate_braid,
)
from yangbaxter.fixtures import left_only3, lyubashenko3, projection, singleton
from yangbaxter.orbits import orbit_theorem_levels


def disjoint_union_of_singletons():
    # two one-element solutions glued side by side: both blocks invariant
    return projection(2)


def test_projection_orbits_are_singletons():
    decomp = orbit_decomposition(projection(2))
    assert decomp.partition.blocks() == [(0,), (1,)]
    assert [s.elements for s in decomp.suborbits] == [(0,), (1,)]
    assert all(s.solution == singleton() for s in decomp.suborbits)


def test_constant_cycle_families_act_transitively():
    decomp = orbit_decomposition(lyubashenko3())
    assert decomp.partition.blocks() == [(0, 1, 2)]
    assert decomp.suborbits[0].solution == lyubashenko3()


def test_orbits_require_nondegeneracy():
    with pytest.raises(NotNondegenerate):
        orbit_decomposition(left_only3())


def test_suborbits_are_braid_valid_and_reindexed():
    # block-diagonal union of a 2-element projection and a singleton
    sigma = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    tau = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    block_diagonal = FiniteSolution(sigma, tau)
    assert orbit_decomposition(block_diagonal).partition.num_blocks() == 3
    nd = EnumFilter(require_left_nd=True, require_right_nd=True)
    population = [sol for n in (1, 2, 3) for sol in enumerate_solutions(n, nd)]
    for sol in [block_diagonal] + population:
        decomp = orbit_decomposition(sol)
        assert [sub.elements for sub in decomp.suborbits] == decomp.partition.blocks()
        for sub in decomp.suborbits:
            block, local = sub.elements, sub.solution
            # closed under every translation, by any carrier element
            for y, x in product(range(sol.n), block):
                assert sol.sigma[y][x] in block and sol.tau[y][x] in block
            # local index i stands for block[i]
            for a, b in product(range(len(block)), repeat=2):
                assert block[local.sigma[a][b]] == sol.sigma[block[a]][block[b]]
                assert block[local.tau[a][b]] == sol.tau[block[a]][block[b]]
            assert validate_braid(local) == []


def test_decomposability():
    assert is_decomposable(disjoint_union_of_singletons())
    assert not is_decomposable(lyubashenko3())
    assert not is_decomposable(singleton())


def test_orbit_theorem_projection():
    # 1-reductive, so every orbit restriction must ignore its base at height 0
    assert check_orbit_theorem(projection(2), 1) == []


def test_orbit_theorem_two_reductive():
    assert check_orbit_theorem(lyubashenko3(), 2) == []


def test_orbit_theorem_requires_reductivity():
    with pytest.raises(NotKReductive):
        check_orbit_theorem(lyubashenko3(), 1)


def test_orbit_theorem_levels_match_per_height_orbit_checks():
    # every height from one build per orbit gives the per-height verdicts and
    # witnesses, on reductive and non-reductive heights alike
    reductive_heights = 0
    for sol in enumerate_solutions(3, EnumFilter(require_left_nd=True, require_right_nd=True)):
        decomposition = orbit_decomposition(sol)
        levels = orbit_theorem_levels(decomposition, 4)
        assert list(levels) == [1, 2, 3, 4]
        for k in range(1, 5):
            expected = []
            for sub in decomposition.suborbits:
                ok, witness = is_k_permutational(sub.solution, k - 1)
                if not ok:
                    expected.append((sub.elements, witness))
            assert levels[k] == expected, (sol, k)
            if is_k_reductive(sol, k)[0]:
                reductive_heights += 1
                assert check_orbit_theorem(sol, k) == expected == []
    assert reductive_heights > 0
