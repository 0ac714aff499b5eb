from itertools import permutations, product
from math import factorial

import pytest

from yangbaxter import derived
from yangbaxter.core import involutive_witness, perm_inverse, square_free_witness
from yangbaxter.search import CensusResult, EnumFilter, census, enumerate_solutions

# labeled racks and rack classes on n = 1..5 points (classes: OEIS A181771)
LABELED_RACKS = {1: 1, 2: 2, 3: 13, 4: 114, 5: 1708}
RACK_CLASSES = {1: 1, 2: 2, 3: 6, 4: 19, 5: 74}


def _is_rack(op):
    """Every row of op is a bijection and y |> (x |> z) = (y |> x) |> (y |> z)."""
    n = len(op)
    return all(sorted(row) == list(range(n)) for row in op) and all(
        op[y][op[x][z]] == op[op[y][x]][op[y][z]] for y, x, z in product(range(n), repeat=3)
    )


def _relabeled(op, pi):
    pinv = perm_inverse(pi)
    return tuple(tuple(pi[op[a][b]] for b in pinv) for a in pinv)


def _derived_rack(sol):
    """op[y][x] = sigma_y(tau_{sigma_x^-1(y)}(x)), read off the tables."""
    n = sol.n
    sinv = [perm_inverse(row) for row in sol.sigma]
    return tuple(
        tuple(sol.sigma[y][sol.tau[sinv[x][y]][x]] for x in range(n)) for y in range(n)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_labeled_racks_are_every_rack_in_order(n):
    perms = sorted(permutations(range(n)))
    expected = [op for op in product(perms, repeat=n) if _is_rack(op)]
    assert list(derived.labeled_racks(n)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rack_counts(n):
    racks = list(derived.labeled_racks(n))
    assert len(racks) == LABELED_RACKS[n]
    assert all(_is_rack(op) for op in racks)
    classes = derived.rack_classes(n)
    assert len(classes) == RACK_CLASSES[n]
    assert sum(factorial(n) // len(automorphisms) for _, automorphisms in classes) == len(racks)
    covered = set()
    for rack, automorphisms in classes:
        orbit = {_relabeled(rack, pi) for pi in permutations(range(n))}
        assert rack == min(orbit) and not orbit & covered
        covered |= orbit
        assert automorphisms == [pi for pi in permutations(range(n)) if _relabeled(rack, pi) == rack]
    assert covered == set(racks)
    assert [rack for rack, _ in classes] == sorted(rack for rack, _ in classes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nd_solutions_are_fixed_by_rack_and_left_table(n):
    # the route rests on this: the derived operation is a rack, each row
    # sigma_x is one of its automorphisms, and the two give back tau
    count = 0
    for sol in enumerate_solutions(n, EnumFilter(require_left_nd=True, require_right_nd=True)):
        op = _derived_rack(sol)
        assert _is_rack(op), sol
        assert all(_relabeled(op, row) == op for row in sol.sigma), sol
        assert derived.right_table(op, sol.sigma) == sol.tau, sol
        count += 1
    assert count == {1: 1, 2: 4, 3: 66, 4: 1800}[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_involutive_racks_are_trivial_and_square_free_racks_are_quandles(n):
    # the rack census searches only these racks for the two filters
    trivial = tuple(tuple(range(n)) for _ in range(n))
    seen = {"involutive": 0, "square_free": 0}
    for sol in enumerate_solutions(n, EnumFilter(require_left_nd=True, require_right_nd=True)):
        op = _derived_rack(sol)
        if involutive_witness(sol) is None:
            assert op == trivial, sol
            seen["involutive"] += 1
        if square_free_witness(sol) is None:
            assert all(op[x][x] == x for x in range(n)), sol
            seen["square_free"] += 1
    assert seen == {1: {"involutive": 1, "square_free": 1}, 2: {"involutive": 2, "square_free": 1},
                    3: {"involutive": 12, "square_free": 12},
                    4: {"involutive": 168, "square_free": 202}}[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rack_route_equals_the_watch_list_stream(n):
    # every labeled rack with every head row gives the whole nd population
    found = []
    for rack in derived.labeled_racks(n):
        group = [pi for pi in permutations(range(n)) if _relabeled(rack, pi) == rack]
        sols = list(derived.solutions(rack, group, group))
        assert all(_derived_rack(sol) == rack for sol in sols)
        found.extend(sols)
    found.sort(key=lambda sol: (sol.sigma, sol.tau))
    nd = EnumFilter(require_left_nd=True, require_right_nd=True)
    assert found == list(enumerate_solutions(n, nd))


def test_forced_rows_are_the_only_rows_tried(monkeypatch):
    # the rack law forces L_k once rows y and x with y |> x = k are placed,
    # and component 1 forces sigma_k once rows x, y and sigma_x(y) with
    # t = k are placed, so holds sees only the forced row there; when every
    # row was tried, census(4, nd) made 19,945 holds calls and
    # labeled_racks(4) 5,784.  rack_classes searches only the racks whose
    # row 0 is the least of its orbit under the relabelings that fix 0; when
    # it searched every rack, census(4, nd) made 6,334 holds calls.  The
    # solution search's holds first rejects a row k whose U(k) =
    # sigma_k^-1(k) repeats a placed row's (the diagonal U of a
    # non-degenerate solution is a bijection); before that prune,
    # census(4, nd) made 5,331 holds calls
    calls = {"holds": 0}
    row_tables = derived._row_tables

    def counting(n, group, heads, holds, *args):
        def counted(rows, ids, k):
            calls["holds"] += 1
            return holds(rows, ids, k)

        return row_tables(n, group, heads, counted, *args)

    monkeypatch.setattr(derived, "_row_tables", counting)
    nd = EnumFilter(require_left_nd=True, require_right_nd=True)
    assert census(4, nd) == CensusResult(raw=1800, iso=253)
    assert calls["holds"] == 4608
    calls["holds"] = 0
    assert len(derived.rack_classes(4)) == RACK_CLASSES[4]
    assert calls["holds"] == 543
    calls["holds"] = 0
    assert len(list(derived.labeled_racks(4))) == LABELED_RACKS[4]
    assert calls["holds"] == 1546


def test_solutions_keep_only_validated_pairs(monkeypatch):
    rack, automorphisms = derived.rack_classes(3)[0]
    assert list(derived.solutions(rack, automorphisms, automorphisms))
    monkeypatch.setattr(derived, "validate_braid", lambda sol: [(0, 0, 0)])
    assert list(derived.solutions(rack, automorphisms, automorphisms)) == []


def test_solutions_keep_only_right_permutation_rows(monkeypatch):
    rack, automorphisms = derived.rack_classes(3)[0]
    monkeypatch.setattr(derived, "right_nondegenerate", lambda sol: False)
    assert list(derived.solutions(rack, automorphisms, automorphisms)) == []
