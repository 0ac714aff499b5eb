import copy
import hashlib
from dataclasses import replace
from itertools import permutations, product

import pytest

from yangbaxter import (
    EnumFilter,
    ParseError,
    SizeTooLarge,
    census,
    canonical_form,
    check_frozen_census,
    enumerate_solutions,
    is_isomorphic,
    load_frozen_census,
    oracle_census,
    oracle_enumerate,
    properties,
    relabel,
    validate_braid,
)
from yangbaxter.core import FiniteSolution, _flat_key, _relabeled_key, perm_inverse
from yangbaxter import derived, search
from yangbaxter.fixtures import left_only3
from yangbaxter.search import FROZEN_CELLS, CensusResult

# SHA-256 of the n = 4 non-degenerate stream, one line per solution (sigma
# then tau, rows concatenated, one digit per entry, a space between the two
# tables), the same lines in the same order as perfbench/data/nd-n4.txt
ND4_STREAM_SHA256 = "d9c99a6a26689960dbd08c6af7dd6f270ea213edda0a40f9a61eee092ee35249"


def test_single_element_population():
    assert len(list(enumerate_solutions(1))) == 1


def test_pruned_equals_oracle_n2_unrestricted():
    pruned = list(enumerate_solutions(2))
    oracle = oracle_enumerate(2)
    assert pruned == oracle


def test_pruned_equals_oracle_n2_filters():
    for sig in ("left_nd", "nd", "bijective", "nd+involutive"):
        filt = EnumFilter.from_signature(sig)
        assert list(enumerate_solutions(2, filt)) == oracle_enumerate(2, filt)


@pytest.mark.parametrize("sig", [sig for n, sig in FROZEN_CELLS if n == 3])
def test_pruned_equals_oracle_n3(sig, oracle_population):
    filt = EnumFilter.from_signature(sig)
    assert list(enumerate_solutions(3, filt)) == oracle_population(3, sig)


def _component1_values(sigma, x, y):
    """Values t for the cell tau[y][x] with sigma_x sigma_y = sigma_{sigma_x(y)} sigma_t,
    by direct evaluation at every point."""
    n = len(sigma)
    return [
        t
        for t in range(n)
        if all(sigma[x][sigma[y][z]] == sigma[sigma[x][y]][sigma[t][z]] for z in range(n))
    ]


def test_left_table_prune_is_exact_n3(monkeypatch):
    # every one of the 27^3 left tables at n = 3, without a filter
    rows = list(product(range(3), repeat=3))
    admitted = {}
    for sigma in product(rows, repeat=3):
        cells = [_component1_values(sigma, x, y) for y, x in product(range(3), repeat=2)]
        if all(cells):
            admitted[sigma] = cells
    assert 0 < len(admitted) < len(rows) ** 3

    reached = []
    tau_completions = search._tau_completions

    def recording(n, sigma, cells, right_perms):
        reached.append(sigma)
        assert cells == admitted[sigma], sigma
        return tau_completions(n, sigma, cells, right_perms)

    monkeypatch.setattr(search, "_tau_completions", recording)
    emitted = list(enumerate_solutions(3))
    # each admitted left table reaches the right-table search, in
    # lexicographic order, and no other does
    assert reached == list(admitted)
    assert {sol.sigma for sol in emitted} <= admitted.keys()
    assert len(emitted) == 5707


def _reference_rest_consistent(n, sigma, tau):
    """Every instance of braid components 2 and 3 whose lookups are all
    determined holds; undetermined instances are skipped."""
    for x, y in product(range(n), repeat=2):
        v1 = tau[y][x]
        if v1 is None:
            continue
        sxy = sigma[x][y]
        srow_y = sigma[y]
        for z in range(n):
            v2 = tau[srow_y[z]][x]
            v3 = tau[z][y]
            lhs2 = tau[sigma[v1][z]][sxy]
            if lhs2 is not None and v2 is not None and v3 is not None:
                if lhs2 != sigma[v2][v3]:
                    return False
            if v2 is None or v3 is None:
                continue
            lhs3 = tau[v3][v2]
            rhs3 = tau[z][v1]
            if lhs3 is not None and rhs3 is not None and lhs3 != rhs3:
                return False
    return True


def _reference_tau_completions(n, sigma, cells, right_perms):
    """The right-table search with a full rescan of components 2 and 3 after
    every placement."""
    tau = [[None] * n for _ in range(n)]
    used = [set() for _ in range(n)]

    def place(idx):
        if idx == n * n:
            yield tuple(tuple(r) for r in tau)
            return
        row, col = divmod(idx, n)
        for t in cells[idx]:
            if right_perms and t in used[row]:
                continue
            tau[row][col] = t
            used[row].add(t)
            if _reference_rest_consistent(n, sigma, tau):
                yield from place(idx + 1)
            used[row].discard(t)
        tau[row][col] = None

    yield from place(0)


@pytest.mark.parametrize("right_perms", [False, True], ids=["none", "right_nd"])
def test_watch_lists_match_full_rescan_n3(right_perms):
    # every n = 3 left table that component 1 admits
    rows = list(product(range(3), repeat=3))
    admitted = completions = 0
    for sigma, cells in search._left_tables(3, rows, rows):
        assert all(cells), sigma
        admitted += 1
        expected = list(_reference_tau_completions(3, sigma, cells, right_perms))
        assert list(search._tau_completions(3, sigma, cells, right_perms)) == expected, sigma
        completions += len(expected)
    assert admitted == 703 and completions > 0


def _product_left_tables(n, rows):
    """The left tables the search drew before its row backtracker: the first
    n - 1 rows in every combination, then a last row among the rows that
    each cell fixed by the placed rows, and served by none of them, allows."""
    cache = {}

    def solution_rows(sigma, x, y):
        # the rows p with sigma_{sigma_x(y)} p = sigma_x sigma_y
        key = (sigma[sigma[x][y]], tuple(sigma[x][v] for v in sigma[y]))
        if key not in cache:
            outer, target = key
            cache[key] = {p for p in rows if all(outer[v] == w for v, w in zip(p, target))}
        return cache[key]

    last = n - 1
    for placed in product(rows, repeat=last):
        allowed = set(rows)
        for x, y in product(range(last), repeat=2):
            if placed[x][y] == last:
                continue
            needed = solution_rows(placed, x, y)
            if needed.isdisjoint(placed):
                allowed &= needed
        for row in rows:
            if row in allowed:
                yield placed + (row,)


def test_left_tables_match_the_product_route_n4():
    # the row backtracker keeps exactly the tables of the former route that
    # leave no right-table cell empty
    rows = search._row_options(4, True)
    tables = list(search._left_tables(4, rows, rows))
    former = list(_product_left_tables(4, rows))
    full = [
        sigma
        for sigma in former
        if all(_component1_values(sigma, x, y) for x, y in product(range(4), repeat=2))
    ]
    assert len(former) == 13104 and len(full) == 1656
    assert [sigma for sigma, _ in tables] == full
    assert all(all(cells) for _, cells in tables)


def test_nd4_stream_is_pinned():
    lines = (
        " ".join("".join(map(str, sum(table, ()))) for table in (sol.sigma, sol.tau))
        for sol in enumerate_solutions(4, EnumFilter(require_nd=True))
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ND4_STREAM_SHA256


def test_stream_is_lexicographic_and_valid():
    prev = None
    for sol in enumerate_solutions(2):
        key = (sol.sigma, sol.tau)
        assert prev is None or prev < key
        prev = key
        assert validate_braid(sol) == []


def test_filters_are_exact():
    filt = EnumFilter(require_nd=True, require_involutive=True)
    emitted = list(enumerate_solutions(2, filt))
    for sol in emitted:
        p = properties(sol)
        assert p.nondegenerate and p.involutive
    # nothing filtered away that should remain
    wider = [s for s in enumerate_solutions(2) if properties(s).nondegenerate and properties(s).involutive]
    assert emitted == wider


def test_left_nd_stream_contains_left_only3():
    assert left_only3() in list(enumerate_solutions(3, EnumFilter(require_left_nd=True)))


def test_up_to_iso_emits_sorted_canonical_representatives():
    filt = EnumFilter(require_nd=True, up_to_iso=True)
    reps = list(enumerate_solutions(2, filt))
    assert reps == sorted(reps, key=lambda s: (s.sigma, s.tau))
    assert all(canonical_form(s) == s for s in reps)
    # no two representatives isomorphic, and every solution matches one
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert is_isomorphic(a, b) is None
    for sol in enumerate_solutions(2, EnumFilter(require_nd=True)):
        assert canonical_form(sol) in reps


def test_census_counts_raw_and_iso():
    result = census(2, EnumFilter(require_nd=True))
    assert result.raw == 4
    assert result.iso == 4


def test_census_matches_oracle_census_n2():
    for sig in ("none", "left_nd", "nd"):
        filt = EnumFilter.from_signature(sig)
        assert census(2, filt) == oracle_census(2, filt)


def test_all_frozen_cells_reproduce():
    frozen = load_frozen_census()
    assert set(frozen) == set(FROZEN_CELLS)
    for n, sig in FROZEN_CELLS:
        filt = EnumFilter.from_signature(sig)
        result = census(n, filt)
        assert check_frozen_census(n, filt, result) == "match", (n, sig, result)


def test_check_frozen_census_gives_three_verdicts():
    nd = EnumFilter(require_nd=True)
    assert check_frozen_census(2, nd, CensusResult(raw=4, iso=4)) == "match"
    assert check_frozen_census(2, nd, CensusResult(raw=5, iso=4)) == (
        "MISMATCH expected raw=4 iso=4"
    )
    unfrozen = EnumFilter(require_nd=True, require_bijective=True)
    assert check_frozen_census(2, unfrozen, CensusResult(raw=4, iso=4)) == "cell not frozen"


@pytest.mark.parametrize(
    "sig, drawn, kept",
    [("nd+involutive", 74, 74), ("nd+square_free", 169, 48), ("nd", 344, 344)],
)
def test_rack_census_searches_only_the_racks_the_filter_admits(sig, drawn, kept, monkeypatch):
    # an involutive solution's derived rack is trivial and a square-free
    # one's is a quandle; searching all 19 rack classes drew 344 solutions
    # for each filter
    racks, passed = [], []
    rack_solutions, passes = search._rack_solutions, search._passes

    def drawing(rack, automorphisms, products, heads):
        for sol in rack_solutions(rack, automorphisms, products, heads):
            racks.append(rack)
            yield sol

    def passing(sol, filt):
        if passes(sol, filt):
            passed.append(sol)
            return True
        return False

    monkeypatch.setattr(search, "_rack_solutions", drawing)
    monkeypatch.setattr(search, "_passes", passing)
    filt = EnumFilter.from_signature(sig)
    result = census(4, filt)
    assert check_frozen_census(4, filt, result) == "match"
    assert (len(racks), len(passed)) == (drawn, kept)
    if filt.require_involutive:
        assert set(racks) == {tuple(tuple(range(4)) for _ in range(4))}
    if filt.require_square_free:
        assert all(rack[x][x] == x for rack in racks for x in range(4))


# the n = 4 cells check the rack route against the watch-list stream
@pytest.mark.parametrize("n, sig", FROZEN_CELLS)
def test_census_iso_counts_canonical_forms(n, sig):
    filt = EnumFilter.from_signature(sig)
    stream = list(enumerate_solutions(n, filt))
    forms = sorted({canonical_form(sol) for sol in stream}, key=lambda s: (s.sigma, s.tau))
    result = census(n, filt)
    assert result.raw == len(stream)
    assert result.iso == len(forms)
    assert list(enumerate_solutions(n, replace(filt, up_to_iso=True))) == forms


def _conjugate_head(head, pi):
    """The head row of a solution with head row head after relabeling by pi,
    read off core.relabel (pi fixes 0)."""
    n = len(head)
    return relabel(FiniteSolution((head,) * n, (head,) * n), pi).sigma[0]


@pytest.mark.parametrize("perms_only", [True, False], ids=["perms", "rows"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_head_orbits_partition_the_rows(n, perms_only):
    fixing = [pi for pi in permutations(range(n)) if pi[0] == 0]
    rows = search._row_options(n, perms_only)
    orbits = derived._head_orbits(rows, permutations(range(n)))
    covered = []
    for rep, size in orbits:
        orbit = {_conjugate_head(rep, pi) for pi in fixing}
        assert rep == min(orbit) and size == len(orbit), rep
        covered.extend(orbit)
    assert sorted(covered) == rows
    assert [rep for rep, _ in orbits] == sorted(rep for rep, _ in orbits)
    if n == 4 and perms_only:
        assert [size for _, size in orbits] == [1, 3, 2, 3, 3, 6, 6]


@pytest.mark.parametrize(
    "n, perms_only", [(1, False), (2, False), (3, False), (1, True), (2, True), (3, True), (4, True)]
)
def test_marked_heads_are_read_off_the_product_table(n, perms_only):
    # _marked_images finds the head row pi sigma_{pi^-1(0)} pi^-1 of each
    # relabeled solution by its id in the product table; it must be the row
    # _conjugate builds, for every relabeling and every row in every place;
    # each key it builds must be the flat key of the relabeled solution
    rows = search._row_options(n, perms_only)
    group = list(permutations(range(n)))
    marking = search._Marking(rows, derived._products(rows), group)
    relabelings = [(pi, perm_inverse(pi)) for pi in group]
    for start in range(len(rows)):
        sigma = tuple(rows[(start + x) % len(rows)] for x in range(n))
        sol = FiniteSolution._from_tables(sigma, sigma)
        key = _flat_key((sigma, sigma))
        for target, row in enumerate(rows):
            marking.heads = {target}
            chosen = [
                (pi, pinv)
                for pi, pinv in relabelings
                if derived._conjugate(sigma[pinv[0]], pi, pinv) == row
            ]
            marked = search._marked_images(sol, key, marking)
            assert marked == [_relabeled_key(sol, pi, pinv) for pi, pinv in chosen], (sigma, row)
            images = [relabel(sol, pi) for pi, _ in chosen]
            assert marked == [_flat_key((image.sigma, image.tau)) for image in images]


@pytest.mark.parametrize("sig", ["none"] + [sig for n, sig in FROZEN_CELLS if n == 3])
def test_head_counts_are_constant_on_orbits_n3(sig):
    filt = EnumFilter.from_signature(sig)
    fixing = [pi for pi in permutations(range(3)) if pi[0] == 0]
    counts = {
        head: sum(1 for _ in search._raw_stream(3, filt, [head]))
        for head in search._row_options(3, filt.left_rows_permutations)
    }
    assert sum(counts.values()) == len(list(enumerate_solutions(3, filt)))
    for head, count in counts.items():
        assert {counts[_conjugate_head(head, pi)] for pi in fixing} == {count}, head


def _recorded_marks(monkeypatch):
    """Record (solution, pi, key) for each key _marked_images returns: it is
    called on one relabeling of the marking at a time, whose translate table
    starts with the bytes of pi, and the keys must come out the same."""
    marks = []
    marked_images = search._marked_images

    def recording(sol, key, marking):
        keys = []
        for relabeling in marking.relabelings:
            one = copy.copy(marking)
            one.relabelings = [relabeling]
            pi = tuple(relabeling[3][:sol.n])
            for image in marked_images(sol, key, one):
                marks.append((sol, pi, image))
                keys.append(image)
        assert keys == marked_images(sol, key, marking)
        return keys

    monkeypatch.setattr(search, "_marked_images", recording)
    return marks


def test_census_marks_only_relabelings_onto_representative_heads(monkeypatch):
    # no solution with another head row comes up in the searched stream
    filt = EnumFilter(require_left_nd=True)
    rows = search._row_options(3, True)
    reps = {rep for rep, _ in derived._head_orbits(rows, permutations(range(3)))}
    heads = []
    marks = _recorded_marks(monkeypatch)
    assert census(3, filt) == CensusResult(raw=354, iso=90)
    for sol, pi, key in marks:
        relabeled = relabel(sol, pi)
        assert key == _flat_key((relabeled.sigma, relabeled.tau))
        # the first n bytes are the relabeled head row
        heads.append(tuple(key[:sol.n]))
    assert len(reps) == 4
    assert heads and set(heads) <= reps < set(rows)


@pytest.mark.parametrize("n, iso", [(3, 26), (4, 253)])
def test_rack_census_marks_only_automorphisms_onto_representative_heads(n, iso, monkeypatch):
    # each relabeling that marks a solution over a class's least rack R lies
    # in Aut(R) and gives a representative head of R's orbits
    classes = {}
    for rack, automorphisms in derived.rack_classes(n):
        reps = {rep for rep, _ in derived._head_orbits(automorphisms, automorphisms)}
        classes[rack] = (set(automorphisms), reps)
    racks = {}
    rack_solutions = search._rack_solutions

    def tagging(rack, automorphisms, products, heads):
        for sol in rack_solutions(rack, automorphisms, products, heads):
            racks[sol] = rack
            yield sol

    monkeypatch.setattr(search, "_rack_solutions", tagging)
    recorded = _recorded_marks(monkeypatch)
    assert census(n, EnumFilter(require_nd=True)).iso == iso
    marks = [(racks[sol], pi, tuple(key[:sol.n])) for sol, pi, key in recorded]
    assert marks
    for rack, pi, head in marks:
        automorphisms, reps = classes[rack]
        assert pi in automorphisms and head in reps, (rack, pi, head)
    # the heads searched are fewer than Aut(R) for some rack
    assert any(reps < automorphisms for automorphisms, reps in classes.values())


def test_census_pool_is_sized_by_representative_heads(monkeypatch):
    # the pool of head rows the watch-list census searches is one per orbit
    searched = []
    raw_stream = search._raw_stream

    def recording(n, filt, heads):
        searched.append(list(heads))
        return raw_stream(n, filt, heads)

    monkeypatch.setattr(search, "_raw_stream", recording)
    filt = EnumFilter(require_left_nd=True)
    # the 6 head rows at n = 3 fall into 4 orbits
    assert census(3, filt) == CensusResult(raw=354, iso=90)
    orbits = derived._head_orbits(search._row_options(3, True), permutations(range(3)))
    assert searched == [[rep for rep, _ in orbits]] and len(searched[0]) == 4
    # the 2 at n = 2 fall into 2
    assert census(2, filt) == CensusResult(raw=14, iso=10)
    assert len(searched) == 2 and len(searched[1]) == 2


def test_size_limits(monkeypatch):
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "_raw_stream", no_search)
    with pytest.raises(SizeTooLarge):
        list(enumerate_solutions(5, EnumFilter()))
    # n = 4 finishes only with left permutation rows
    for sig in ("none", "right_nd", "bijective", "involutive", "square_free"):
        filt = EnumFilter.from_signature(sig)
        with pytest.raises(SizeTooLarge):
            list(enumerate_solutions(4, filt))
        with pytest.raises(SizeTooLarge):
            census(4, filt)
    for sig in ("left_nd", "nd", "left_nd+bijective", "nd+involutive"):
        assert search._check_bounds(4, EnumFilter.from_signature(sig)) is None
    with pytest.raises(SizeTooLarge):
        census(5, EnumFilter(require_nd=True))
    with pytest.raises(SizeTooLarge):
        list(enumerate_solutions(6, EnumFilter(require_nd=True)))
    with pytest.raises(SizeTooLarge):
        list(enumerate_solutions(0, EnumFilter()))
    with pytest.raises(SizeTooLarge):
        oracle_enumerate(3, EnumFilter())


def test_filter_signature_round_trip():
    for n, sig in FROZEN_CELLS:
        assert EnumFilter.from_signature(sig).signature() == sig
    # every combination of the six flags, labelled in field order
    labels = ("left_nd", "right_nd", "nd", "bijective", "involutive", "square_free")
    for flags in product([False, True], repeat=len(labels)):
        filt = EnumFilter(*flags)
        sig = "+".join(label for label, on in zip(labels, flags) if on) or "none"
        assert filt.signature() == sig
        assert EnumFilter.from_signature(sig) == filt
    for sig in ("left-nd", "nd+iso", "", "none+nd"):
        with pytest.raises(ParseError):
            EnumFilter.from_signature(sig)
