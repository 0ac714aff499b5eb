import multiprocessing
import os

import pytest

from yangbaxter import (
    EnumFilter,
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
    validate_braid,
)
from yangbaxter.fixtures import left_only3
from yangbaxter.search import FROZEN_CELLS


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


def test_pruned_equals_oracle_n3_left_nd():
    filt = EnumFilter(require_left_nd=True)
    pruned = list(enumerate_solutions(3, filt))
    oracle = oracle_enumerate(3, filt)
    assert pruned == oracle


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
        assert check_frozen_census(n, filt, result) is None, (n, sig, result)


def test_worker_count_does_not_change_stream():
    filt = EnumFilter()
    seq = list(enumerate_solutions(2, filt, workers=1))
    par = list(enumerate_solutions(2, filt, workers=2))
    assert seq == par
    filt = EnumFilter(require_left_nd=True)
    assert list(enumerate_solutions(3, filt, workers=2)) == list(
        enumerate_solutions(3, filt, workers=1)
    )


def test_worker_pool_is_clamped(monkeypatch):
    sizes = []

    class RecordingPool:
        # records the requested size and maps in-process: no worker starts
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    stream = list(enumerate_solutions(2, EnumFilter(), workers=10**6))
    # n = 2 without filters splits into one task per left row, 4 in all
    assert sizes == [min(4, os.cpu_count() or 1)]
    assert stream == list(enumerate_solutions(2, EnumFilter()))


def test_census_deterministic_across_workers():
    filt = EnumFilter(require_nd=True)
    assert census(3, filt, workers=1) == census(3, filt, workers=2)


def test_size_limits():
    with pytest.raises(SizeTooLarge):
        list(enumerate_solutions(5, EnumFilter()))
    with pytest.raises(SizeTooLarge):
        list(enumerate_solutions(6, EnumFilter(require_nd=True)))
    with pytest.raises(SizeTooLarge):
        list(enumerate_solutions(0, EnumFilter()))
    with pytest.raises(SizeTooLarge):
        oracle_enumerate(3, EnumFilter())


def test_filter_signature_round_trip():
    for n, sig in FROZEN_CELLS:
        assert EnumFilter.from_signature(sig).signature() == sig
