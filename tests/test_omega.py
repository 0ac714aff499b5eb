import random
import sys
from itertools import product

import pytest

from yangbaxter import (
    EnumFilter,
    FiniteSolution,
    NotKPermutational,
    NotLeftNondegenerate,
    SymbolUnavailable,
    check_omega_identities,
    check_star_conditions,
    closed_form_T_inverse,
    closed_form_U_inverse,
    enumerate_solutions,
    is_k_permutational,
    is_k_reductive,
    omega_eval,
    permutational_levels,
    reductive_levels,
)
from yangbaxter.core import left_nondegenerate, right_nondegenerate
from yangbaxter.fixtures import (
    derived2,
    left_only3,
    lyubashenko3,
    projection,
    singleton,
    z3group,
)
from yangbaxter.omega import (
    ALL_SYMBOLS,
    DEFAULT_ALPHABET,
    INVERSE_OF,
    FULL_ALPHABET,
    HATTED,
    SIGMA,
    SIGMA_HAT,
    SIGMA_HAT_INV,
    SIGMA_INV,
    TAU,
    TAU_HAT,
    TAU_INV,
    _getter,
    action_tables,
    check_reductive_inverse_start,
    reductive_inverse_start_levels,
    tower_verdicts,
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_getter_composes_every_pair_of_maps(n):
    maps = list(product(range(n), repeat=n))
    for f in maps:
        after = _getter(f)
        for g in maps:
            assert after(g) == tuple(g[v] for v in f), (f, g)


def test_getter_composes_sampled_maps_on_four_points():
    rng = random.Random(20261020)
    maps = list(product(range(4), repeat=4))
    for f in rng.sample(maps, 64):
        after = _getter(f)
        for g in rng.sample(maps, 64):
            assert after(g) == tuple(g[v] for v in f), (f, g)


def test_empty_tower_returns_base():
    assert omega_eval(left_only3(), (), 2, ()) == 2


def test_right_towers_separate_two_elements_of_left_only3():
    # the height-two right tower fixes both 1 and 2, so towers distinguish them
    sol = left_only3()
    assert omega_eval(sol, (TAU, TAU), 1, (0, 0)) == 1
    assert omega_eval(sol, (TAU, TAU), 2, (0, 0)) == 2
    # while identity left translations make left towers base-independent
    assert omega_eval(sol, (SIGMA, SIGMA), 1, (0, 0)) == 0
    assert omega_eval(sol, (SIGMA, SIGMA), 2, (0, 0)) == 0


def test_group_translation_tower_returns_base():
    assert omega_eval(z3group(), (SIGMA, SIGMA), 2, (0, 0)) == 2


def test_word_argument_lengths_must_match():
    with pytest.raises(ValueError):
        omega_eval(singleton(), (SIGMA,), 0, ())


def test_symbol_unavailable_on_degenerate_side():
    with pytest.raises(SymbolUnavailable):
        omega_eval(left_only3(), (TAU_INV,), 0, (0,))
    with pytest.raises(SymbolUnavailable):
        action_tables(left_only3(), ("sigma_hat",))
    # degenerate on both sides: sigma_inv, asked for first, names the error
    # whatever the string hash seed
    with pytest.raises(SymbolUnavailable, match="sigma_inv"):
        check_reductive_inverse_start(FiniteSolution(((0, 0), (0, 0)), ((0, 0), (0, 0))), 1)


def _defined_tables(sol):
    """Each symbol's table read off its definition, for the symbols whose
    definition holds: sigma and tau are the solution's tables, the inverse
    pair map r^-1(u, v) = (sigma_hat[u][v], tau_hat[v][u]) gives the hatted
    ones when r is a bijection, and row x of a *_inv table sends z to the one
    w that row x of its base sends to z, when every row has such a w."""
    carrier = range(sol.n)
    tables = {SIGMA: sol.sigma, TAU: sol.tau}
    preimages = {}
    for x, y in product(carrier, repeat=2):
        preimages.setdefault(sol.r(x, y), []).append((x, y))
    if all(len(preimages.get((u, v), ())) == 1 for u, v in product(carrier, repeat=2)):
        tables[SIGMA_HAT] = tuple(tuple(preimages[u, v][0][0] for v in carrier) for u in carrier)
        tables[TAU_HAT] = tuple(tuple(preimages[u, v][0][1] for u in carrier) for v in carrier)
    for base, table in list(tables.items()):
        solves = [[[w for w in carrier if table[x][w] == z] for z in carrier] for x in carrier]
        if all(len(ws) == 1 for row in solves for ws in row):
            tables[INVERSE_OF[base]] = tuple(tuple(ws[0] for ws in row) for row in solves)
    return tables


def test_action_tables_match_the_definitions(level_solutions):
    unavailable = dict.fromkeys(ALL_SYMBOLS, 0)
    for sol in level_solutions:
        expected = _defined_tables(sol)
        tables = action_tables(sol, ALL_SYMBOLS, skip_unavailable=True)
        # the same tables, in the order asked for
        assert list(tables.items()) == [(s, expected[s]) for s in ALL_SYMBOLS if s in expected], sol
        for s in ALL_SYMBOLS:
            if s in expected:
                assert action_tables(sol, (s,)) == {s: expected[s]}, (sol, s)
            else:
                # unavailable exactly where its definition fails
                unavailable[s] += 1
                with pytest.raises(SymbolUnavailable):
                    action_tables(sol, (s,))
    # every symbol but sigma and tau is missing somewhere and present elsewhere
    assert unavailable[SIGMA] == unavailable[TAU] == 0
    assert all(
        0 < unavailable[s] < len(level_solutions) for s in ALL_SYMBOLS if s not in DEFAULT_ALPHABET
    ), unavailable


def test_unknown_symbol_raises_or_is_left_out():
    sol = lyubashenko3()
    with pytest.raises(SymbolUnavailable, match="unknown symbol 'rho'"):
        action_tables(sol, (SIGMA, "rho"))
    assert action_tables(sol, (SIGMA, "rho"), skip_unavailable=True) == {SIGMA: sol.sigma}


def test_k_permutational_examples():
    ok, witness = is_k_permutational(lyubashenko3(), 1)
    assert ok and witness is None
    ok, _ = is_k_permutational(singleton(), 0)
    assert ok
    for k in range(4):
        ok, _ = is_k_permutational(singleton(), k, ("sigma", "sigma_inv", "tau", "tau_inv"))
        assert ok


def test_left_only3_never_permutational():
    sol = left_only3()
    for k in (1, 2, 3):
        ok, witness = is_k_permutational(sol, k)
        assert not ok
        word, x, y, zs = witness
        # the witness replays, and only right translations can separate bases
        assert omega_eval(sol, word, x, zs) != omega_eval(sol, word, y, zs)
        assert TAU in word


def test_k_reductive_examples():
    ok, _ = is_k_reductive(projection(2), 1)
    assert ok

    sol = lyubashenko3()
    ok, witness = is_k_reductive(sol, 1)
    assert not ok
    word, x, zs = witness
    assert omega_eval(sol, word, x, zs) != zs[0]
    ok, _ = is_k_reductive(sol, 2)
    assert ok

    for k in (1, 2, 3, 4):
        ok, _ = is_k_reductive(z3group(), k)
        assert not ok


def test_one_reductive_solutions_are_square_free():
    sol = projection(3)
    ok, _ = is_k_reductive(sol, 1)
    assert ok
    assert all(sol.r(x, x) == (x, x) for x in range(3))


def test_star_conditions():
    ok, sfix, tfix = check_star_conditions(projection(2))
    assert ok and sfix == (0, 1) and tfix == (0, 1)

    ok, sfix, tfix = check_star_conditions(lyubashenko3())
    assert not ok
    assert sfix == (None, None, None) and tfix == (None, None, None)

    ok, sfix, tfix = check_star_conditions(left_only3())
    assert not ok
    assert all(w is not None for w in sfix)
    assert tfix[0] is None and tfix[1] is None and tfix[2] is not None


def _reference_star_conditions(sol):
    """check_star_conditions by its definition: for each x, the first
    subscript, trying x itself first and then the others in increasing
    order, whose translation fixes x."""
    n = sol.n
    sigma_fixers, tau_fixers = [], []
    for x in range(n):
        order = (x, *(y for y in range(n) if y != x))
        sigma_fixers.append(next((y for y in order if sol.sigma[y][x] == x), None))
        tau_fixers.append(next((z for z in order if sol.tau[z][x] == x), None))
    ok = all(w is not None for w in sigma_fixers) and all(w is not None for w in tau_fixers)
    return ok, tuple(sigma_fixers), tuple(tau_fixers)


def test_star_conditions_match_the_definition(suite_populations, nd4_population):
    sols = [*suite_populations[1], *suite_populations[2], *suite_populations[3], *nd4_population]
    outcomes = set()
    for sol in sols:
        expected = _reference_star_conditions(sol)
        assert check_star_conditions(sol) == expected, sol
        outcomes.add(expected[0])
    # both verdicts occur, and some fixer is not the element itself
    assert outcomes == {True, False}
    assert any(
        w not in (x, None) for sol in sols for fixers in check_star_conditions(sol)[1:]
        for x, w in enumerate(fixers)
    )


def test_closed_form_u_inverse_lyubashenko():
    table = closed_form_U_inverse(lyubashenko3(), 1)
    assert table == (1, 2, 0)


def test_closed_form_on_projection():
    assert closed_form_U_inverse(projection(2), 1) == (0, 1)
    assert closed_form_U_inverse(projection(2), 1, reductive=True) == (0, 1)
    assert closed_form_T_inverse(projection(2), 1) == (0, 1)


def test_closed_form_errors():
    with pytest.raises(NotKPermutational):
        closed_form_U_inverse(z3group(), 2)
    from yangbaxter import FiniteSolution

    right_only = FiniteSolution(((0, 0), (0, 0)), ((0, 1), (0, 1)))
    with pytest.raises(NotLeftNondegenerate):
        closed_form_U_inverse(right_only, 1)


def test_omega_identities_on_fixtures():
    for sol in (lyubashenko3(), projection(2), left_only3(), z3group()):
        report = check_omega_identities(sol, 3)
        for name, result in report.items():
            if isinstance(result, dict):
                assert result["failures"] == [], (name, result)


def _supported_reference(sol, groups):
    """The first symbol of each group whose action tables all exist."""
    out = []
    for group in groups:
        try:
            action_tables(sol, group)
        except SymbolUnavailable:
            continue
        out.append(group[0])
    return tuple(out)


def test_omega_identities_default_alphabet_is_every_supported_symbol(level_solutions):
    sizes = set()
    for sol in level_solutions:
        usable = _supported_reference(sol, [(s,) for s in ALL_SYMBOLS])
        pairs = [(s, INVERSE_OF[s]) for s in usable if INVERSE_OF[s] in usable]
        invertible = _supported_reference(sol, pairs)
        report = check_omega_identities(sol, 2)
        assert report == check_omega_identities(sol, 2, symbols=usable), sol
        assert report["inverse_seed_m1"]["checked"] == len(invertible) * sol.n, sol
        sizes.add(len(usable))
    # solutions with every symbol, only sigma and tau, and partial alphabets
    assert {2, 8} < sizes


@pytest.mark.parametrize(
    "sol, usable",
    [(lyubashenko3(), ALL_SYMBOLS), (left_only3(), (SIGMA, SIGMA_INV, TAU))],
    ids=["bijective", "degenerate"],
)
def test_omega_identities_invert_once(sol, usable, monkeypatch):
    omega_module = sys.modules["yangbaxter.omega"]
    real, calls = omega_module.invert, []
    monkeypatch.setattr(omega_module, "invert", lambda s: calls.append(s) or real(s))
    report = check_omega_identities(sol, 3)
    assert len(calls) == 1
    # the hatted symbols come from that one inversion, or are left out
    calls.clear()
    assert report == check_omega_identities(sol, 3, symbols=usable)
    # an explicit alphabet inverts once too, and only when it holds a hatted symbol
    assert len(calls) == (1 if set(usable) & set(HATTED) else 0)


def test_omega_identities_unsupported_explicit_symbol_raises():
    with pytest.raises(SymbolUnavailable):
        check_omega_identities(left_only3(), 1, symbols=(SIGMA, TAU, TAU_INV))
    with pytest.raises(SymbolUnavailable):
        check_omega_identities(left_only3(), 1, symbols=(SIGMA, SIGMA_HAT_INV))
    # the first symbol in order that the solution lacks names the error,
    # whatever the string hash seed
    for symbols, message in (((TAU_INV, SIGMA_HAT), "tau_inv"), ((SIGMA_HAT, TAU_INV), "hatted")):
        with pytest.raises(SymbolUnavailable, match=message):
            check_omega_identities(left_only3(), 1, symbols=symbols)
        with pytest.raises(SymbolUnavailable, match=message):
            action_tables(left_only3(), symbols)
        with pytest.raises(SymbolUnavailable, match=message):
            permutational_levels(left_only3(), 1, symbols)
        with pytest.raises(SymbolUnavailable, match=message):
            omega_eval(left_only3(), symbols, 0, (0, 0))


def test_tower_reports_do_not_depend_on_the_order_of_reads(suite_populations):
    # the {sigma, tau} maps are held at the greatest height asked for, so
    # the reader that builds them first gives the other the same maps
    sols = [
        *suite_populations[2],
        *suite_populations[3],
        lyubashenko3(), projection(3), left_only3(), z3group(),
    ]
    for sol in sols:
        # the suite's alphabet, and a build taller than the verdicts need
        for max_m, symbols in ((3, _suite_symbols(sol)), (4, None)):
            first = FiniteSolution(sol.sigma, sol.tau)
            verdicts = tower_verdicts(first, 2, 3)
            identities = check_omega_identities(first, max_m, symbols=symbols)
            second = FiniteSolution(sol.sigma, sol.tau)
            assert check_omega_identities(second, max_m, symbols=symbols) == identities, sol
            assert tower_verdicts(second, 2, 3) == verdicts, (sol, max_m)


def test_omega_identities_report_permutational_bound():
    report = check_omega_identities(lyubashenko3(), 3)
    assert report["permutational_level_bound"] == 1
    report = check_omega_identities(z3group(), 3)
    assert report["permutational_level_bound"] is None


def test_reductive_inverse_start_identity():
    # lyubashenko3 is 2-reductive, so the inverse-start variant must hold at 2
    assert check_reductive_inverse_start(lyubashenko3(), 2) == []
    assert check_reductive_inverse_start(projection(2), 1) == []


@pytest.mark.parametrize("k", [0, -2])
def test_reductive_inverse_start_below_1_raises(k):
    # k = 0 once read levels[-1] and reported made-up failures; k = -2 raised IndexError
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_reductive_inverse_start(lyubashenko3(), k)
    with pytest.raises(ValueError, match="k must be >= 1"):
        reductive_inverse_start_levels(lyubashenko3(), (1, k))


def test_default_alphabet_is_sigma_tau():
    assert DEFAULT_ALPHABET == (SIGMA, TAU)
    assert SIGMA_INV == "sigma_inv"


# Reference deciders: the brute-force scan over every word, base and argument
# list, folded independently of the library's tower maps.


def _fold(tables, word, x, zs):
    for s, z in zip(word, zs):
        x = tables[s][x][z]
    return x


def _scan_permutational(sol, k, alphabet):
    tables = action_tables(sol, set(alphabet))
    carrier = range(sol.n)
    return all(
        len({_fold(tables, word, x, zs) for x in carrier}) == 1
        for word in product(alphabet, repeat=k)
        for zs in product(carrier, repeat=k)
    )


def _scan_reductive(sol, k):
    tables = action_tables(sol, set(DEFAULT_ALPHABET))
    carrier = range(sol.n)
    return all(
        _fold(tables, word, x, zs) == _fold(tables, word[1:], zs[0], zs[1:])
        for word in product(DEFAULT_ALPHABET, repeat=k)
        for x in carrier
        for zs in product(carrier, repeat=k)
    )


def _assert_matches_scan(sol, k_perm, k_red, alphabets):
    for alphabet in alphabets:
        for k in range(k_perm + 1):
            ok, witness = is_k_permutational(sol, k, alphabet)
            assert ok == _scan_permutational(sol, k, alphabet), (sol, k, alphabet)
            if not ok:
                word, x, y, zs = witness
                assert set(word) <= set(alphabet)
                assert omega_eval(sol, word, x, zs) != omega_eval(sol, word, y, zs)
    for k in range(1, k_red + 1):
        ok, witness = is_k_reductive(sol, k)
        assert ok == _scan_reductive(sol, k), (sol, k)
        if not ok:
            word, x, zs = witness
            assert omega_eval(sol, word, x, zs) != omega_eval(sol, word[1:], zs[0], zs[1:])


def test_deciders_match_scan_on_suite_populations(suite_populations):
    sols = [*suite_populations[1], *suite_populations[2], *suite_populations[3]]
    assert len(sols) == 1 + 43 + 354
    for sol in sols:
        _assert_matches_scan(sol, 3, 4, [DEFAULT_ALPHABET])
    # the inverse alphabets the suite compares against the level
    for sol in enumerate_solutions(3, EnumFilter(require_left_nd=True, require_right_nd=True)):
        _assert_matches_scan(sol, 3, 0, [FULL_ALPHABET, (SIGMA_INV, SIGMA_HAT_INV)])


def test_deciders_match_scan_on_nondegenerate_n4(nd4_population):
    count = 0
    for sol in nd4_population:
        _assert_matches_scan(sol, 2, 2, [DEFAULT_ALPHABET])
        count += 1
    assert count == 1800


# Per-height reference deciders: a transcription of the deciders that built
# the tower maps afresh for each height and read that height alone.  The
# all-levels deciders must give the same verdict and the same witness for
# every height, since the maps of each height, their order and their
# back-pointers do not depend on how far the build goes.


def _reference_levels(tables, alphabet, n, height):
    steps = [(s, z, tuple(row[z] for row in tables[s])) for s in alphabet for z in range(n)]
    levels = [{tuple(range(n)): None}]
    for _ in range(height):
        level = {}
        for f in levels[-1]:
            for s, z, g in steps:
                level.setdefault(tuple(g[v] for v in f), (f, s, z))
        levels.append(level)
    return levels


def _reference_path(levels, h, f):
    word, zs = [], []
    for level in reversed(levels[1 : h + 1]):
        f, s, z = level[f]
        word.append(s)
        zs.append(z)
    return tuple(reversed(word)), tuple(reversed(zs))


def _reference_permutational(sol, k, alphabet):
    tables = action_tables(sol, set(alphabet))
    levels = _reference_levels(tables, alphabet, sol.n, k)
    for f in levels[k]:
        for y in range(1, sol.n):
            if f[y] != f[0]:
                word, zs = _reference_path(levels, k, f)
                return False, (word, 0, y, zs)
    return True, None


def _reference_first_step_failures(sol, k, first_symbols):
    tables = action_tables(sol, set(DEFAULT_ALPHABET) | set(first_symbols.values()))
    levels = _reference_levels(tables, DEFAULT_ALPHABET, sol.n, k - 1)
    failures = []
    for g in levels[k - 1]:
        for s, x, z in product(DEFAULT_ALPHABET, range(sol.n), range(sol.n)):
            if g[tables[first_symbols[s]][x][z]] != g[z]:
                word, zs = _reference_path(levels, k - 1, g)
                failures.append(((s,) + word, x, (z,) + zs))
    return failures


def _reference_reductive(sol, k):
    failures = _reference_first_step_failures(sol, k, {SIGMA: SIGMA, TAU: TAU})
    return (False, failures[0]) if failures else (True, None)


# the suite's battery listed its symbols in this order before it took
# FULL_ALPHABET's; a reordered alphabet builds the same maps
OLD_SUITE_ORDER = (SIGMA, TAU, SIGMA_INV, TAU_INV)
LEVEL_ALPHABETS = [DEFAULT_ALPHABET, FULL_ALPHABET, OLD_SUITE_ORDER, (SIGMA_INV, SIGMA_HAT_INV)]
K_LEVELS = 4


@pytest.fixture(scope="module")
def level_solutions(suite_populations):
    sols = [*suite_populations[1], *suite_populations[2], *suite_populations[3]]
    sols += [singleton(), projection(2), projection(3), left_only3(), lyubashenko3(),
             derived2(), z3group()]
    # two table pairs that break the braid relation: the deciders read tables only
    sols.append(FiniteSolution(((0, 1), (1, 0)), ((0, 1), (0, 1))))
    sols.append(FiniteSolution(((1, 2, 0), (0, 2, 1), (2, 1, 0)), ((0, 2, 1), (1, 0, 2), (2, 0, 1))))
    return sols


def test_all_levels_deciders_match_per_height_reference(level_solutions):
    sols = level_solutions
    assert len(sols) == 1 + 43 + 354 + 7 + 2
    covered = {alphabet: 0 for alphabet in LEVEL_ALPHABETS}
    for sol in sols:
        holds = {}
        for alphabet in LEVEL_ALPHABETS:
            try:
                expected = {k: _reference_permutational(sol, k, alphabet) for k in range(K_LEVELS + 1)}
            except SymbolUnavailable:
                with pytest.raises(SymbolUnavailable):
                    permutational_levels(sol, K_LEVELS, alphabet)
                continue
            covered[alphabet] += 1
            assert permutational_levels(sol, K_LEVELS, alphabet) == expected, (sol, alphabet)
            for k in range(K_LEVELS + 1):
                assert is_k_permutational(sol, k, alphabet) == expected[k]
            holds[alphabet] = {k: ok for k, (ok, _) in expected.items()}
        # the order of an alphabet changes witnesses, never a verdict
        assert holds.get(OLD_SUITE_ORDER) == holds.get(FULL_ALPHABET), sol
        expected = {k: _reference_reductive(sol, k) for k in range(1, K_LEVELS + 1)}
        assert reductive_levels(sol, K_LEVELS) == expected, sol
        for k in range(1, K_LEVELS + 1):
            assert is_k_reductive(sol, k) == expected[k]
        # one build for both, to the greater height either bound needs
        perm = {k: _reference_permutational(sol, k, DEFAULT_ALPHABET) for k in range(K_LEVELS + 1)}
        for k_perm, k_red in ((K_LEVELS, K_LEVELS), (K_LEVELS - 1, K_LEVELS), (2, 1), (-1, 0)):
            assert tower_verdicts(sol, k_perm, k_red) == (
                {k: perm[k] for k in range(k_perm + 1)},
                {k: expected[k] for k in range(1, k_red + 1)},
            ), (sol, k_perm, k_red)
    # every alphabet is exercised, the hatted one on the bijective solutions
    assert covered[DEFAULT_ALPHABET] == len(sols)
    assert covered[FULL_ALPHABET] > 60 and covered[(SIGMA_INV, SIGMA_HAT_INV)] > 60
    assert covered[OLD_SUITE_ORDER] == covered[FULL_ALPHABET]


def test_all_levels_deciders_bounds():
    sol = lyubashenko3()
    assert list(permutational_levels(sol, 0)) == [0]
    assert reductive_levels(sol, 0) == {}
    assert list(reductive_levels(sol, 3)) == [1, 2, 3]
    with pytest.raises(ValueError):
        permutational_levels(sol, -1)
    with pytest.raises(ValueError):
        is_k_reductive(sol, 0)


def test_reductive_inverse_start_matches_per_height_reference(level_solutions):
    checked = 0
    for sol in level_solutions:
        expected = {}
        for k in range(1, K_LEVELS + 1):
            try:
                expected[k] = _reference_first_step_failures(sol, k, {SIGMA: SIGMA_INV, TAU: TAU_INV})
            except SymbolUnavailable:
                with pytest.raises(SymbolUnavailable):
                    check_reductive_inverse_start(sol, k)
                continue
            assert check_reductive_inverse_start(sol, k) == expected[k], (sol, k)
            checked += bool(expected[k])
        if expected:
            # every height from one build, and any subset of the heights
            assert reductive_inverse_start_levels(sol, range(1, K_LEVELS + 1)) == expected, sol
            assert reductive_inverse_start_levels(sol, (3, 1)) == {3: expected[3], 1: expected[1]}
    # failures are compared too, not only empty lists
    assert checked > 0


def _assert_levels_match_reference(sol, alphabets, height):
    """_tower_levels keeps the reference's maps, their order and their
    back-pointers at every height; dict == would ignore the order, and the
    witnesses follow it.  Returns how many alphabets the solution supports."""
    tower_levels = sys.modules["yangbaxter.omega"]._tower_levels
    supported = 0
    for alphabet in alphabets:
        try:
            tables = action_tables(sol, set(alphabet))
        except SymbolUnavailable:
            continue
        supported += 1
        got = tower_levels(tables, alphabet, sol.n, height)
        expected = _reference_levels(tables, alphabet, sol.n, height)
        assert [list(level.items()) for level in got] == [
            list(level.items()) for level in expected
        ], (sol, alphabet)
    return supported


def test_tower_levels_keep_reference_order(level_solutions):
    for sol in level_solutions:
        alphabets = [*LEVEL_ALPHABETS, _suite_symbols(sol), tuple(reversed(_suite_symbols(sol)))]
        assert _assert_levels_match_reference(sol, alphabets, K_LEVELS) >= 3, sol


def test_tower_levels_keep_reference_order_on_nondegenerate_n4(nd4_population):
    count = 0
    for sol in nd4_population:
        alphabets = [*LEVEL_ALPHABETS, _suite_symbols(sol)]
        assert _assert_levels_match_reference(sol, alphabets, 3) == len(alphabets), sol
        count += 1
    assert count == 1800


# Scalar-fold reference for check_omega_identities: a transcription of the
# version that evaluated every inverse_shift and drop_base case as its own
# fold of the whole word.  The rewrite reads each case from one fold of the
# tower behind the first step, so whole reports must agree, failures and
# their order included.  The tables and the level decider are looked up in
# the library at call time, so a corrupted one reaches both versions.


def _reference_omega_identities(sol, max_m, symbols=None):
    n = sol.n
    carrier = range(n)
    if symbols is None:
        tables = action_tables(sol, ALL_SYMBOLS, skip_unavailable=True)
    else:
        tables = {s: action_tables(sol, (s,))[s] for s in symbols}
    usable = tuple(tables) if symbols is None else tuple(symbols)
    invertible = tuple(s for s in usable if INVERSE_OF[s] in tables)
    levels = _reference_levels(tables, usable, n, max_m)
    report = {"seed": 0}

    def record(name, checked, failures):
        report[name] = {"checked": checked, "mode": "exhaustive", "failures": failures}

    for m in range(1, max_m + 1):
        level, shorter = levels[m], levels[m - 1]
        failures = []
        for f in level:
            word, zs = _reference_path(levels, m, f)
            failures.extend(
                (word, x, zs, f[x]) for x in carrier if _fold(tables, word, x, zs) != f[x]
            )
        prepended = {tuple(f[v] for v in g) for f in shorter for g in levels[1]}
        failures.extend(("prepend", f) for f in prepended ^ level.keys())
        record(f"peel_one_m{m}", len(level) * n + len(shorter) * len(levels[1]), failures)

        checked, failures = 0, []
        for j in range(m + 1):
            split = {tuple(b[v] for v in a) for a in levels[j] for b in levels[m - j]}
            checked += len(levels[j]) * len(levels[m - j])
            failures.extend(("split", j, f) for f in split ^ level.keys())
        record(f"peel_prefix_m{m}", checked, failures)

        failures = [
            (g, x)
            for g in invertible
            for x in carrier
            if _fold(tables, (g,) * m, x, (tables[INVERSE_OF[g]][x][x],) * m) != x
        ]
        record(f"inverse_seed_m{m}", len(invertible) * n, failures)

        failures = []
        for f in shorter:
            rest, zs = _reference_path(levels, m - 1, f)
            rhs = [_fold(tables, rest, z1, zs) for z1 in carrier]
            for g, x, z1 in product(invertible, carrier, carrier):
                lhs = _fold(tables, (g,) + rest, x, (tables[INVERSE_OF[g]][x][z1],) + zs)
                if lhs != rhs[z1]:
                    failures.append((g, rest, x, z1, zs))
        record(f"inverse_shift_m{m}", len(invertible) * len(shorter) * n * n, failures)

    tables = action_tables(sol, DEFAULT_ALPHABET)
    levels = _reference_levels(tables, DEFAULT_ALPHABET, n, max_m - 1)
    nonconstant = sys.modules["yangbaxter.omega"]._first_nonconstant
    perm_level = next((k for k in range(max_m) if nonconstant(levels, k) is None), None)
    report["permutational_level_bound"] = perm_level
    if perm_level is not None:
        for k in range(perm_level, max_m):
            failures = []
            for f in levels[k]:
                rest, zs = _reference_path(levels, k, f)
                rhs = [_fold(tables, rest, y, zs) for y in carrier]
                for s, x, z1 in product(DEFAULT_ALPHABET, carrier, carrier):
                    word = (s,) + rest
                    lhs = _fold(tables, word, x, (z1,) + zs)
                    failures.extend((word, x, y, (z1,) + zs) for y in carrier if lhs != rhs[y])
            record(f"drop_base_k{k}", len(levels[k]) * len(DEFAULT_ALPHABET) * n**3, failures)
    return report


def _suite_symbols(sol):
    symbols = [SIGMA, TAU]
    if left_nondegenerate(sol):
        symbols.insert(1, SIGMA_INV)
    if right_nondegenerate(sol):
        symbols.append(TAU_INV)
    return tuple(symbols)


def test_omega_identities_match_scalar_fold_reference_on_suite_populations(suite_populations):
    sols = [*suite_populations[1], *suite_populations[2], *suite_populations[3]]
    assert len(sols) == 1 + 43 + 354
    for sol in sols:
        for symbols in (_suite_symbols(sol), None):
            expected = _reference_omega_identities(sol, 3, symbols)
            assert check_omega_identities(sol, 3, symbols=symbols) == expected, (sol, symbols)


def test_omega_identities_match_scalar_fold_reference_on_nondegenerate_n4(nd4_population):
    count = 0
    for sol in nd4_population:
        assert check_omega_identities(sol, 2) == _reference_omega_identities(sol, 2), sol
        count += 1
    assert count == 1800


def _shift_first_row(real):
    def corrupted(table, symbol):
        rows = real(table, symbol)
        return (rows[0][1:] + rows[0][:1], *rows[1:])
    return corrupted


def _one_level_early(real):
    def corrupted(levels, k):
        if k + 1 < len(levels) and real(levels, k + 1) is None:
            return None
        return real(levels, k)
    return corrupted


@pytest.mark.parametrize(
    "hooked, corrupt, entry",
    [
        ("_inverse_rows", _shift_first_row, "inverse_shift_m1"),
        ("_first_nonconstant", _one_level_early, "drop_base_k0"),
    ],
    ids=["inverse_shift", "drop_base"],
)
def test_omega_identities_match_scalar_fold_reference_when_corrupted(
    hooked, corrupt, entry, monkeypatch
):
    omega_module = sys.modules["yangbaxter.omega"]
    monkeypatch.setattr(omega_module, hooked, corrupt(getattr(omega_module, hooked)))
    for sol in (lyubashenko3(), projection(3)):
        report = check_omega_identities(sol, 3)
        assert report[entry]["failures"], sol
        assert report == _reference_omega_identities(sol, 3), sol
