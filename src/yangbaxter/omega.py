"""Tower evaluation over the translation maps of a solution.

A tower of height k starts at a base element and repeatedly applies chosen
translation families: the next value is the image of the next argument under
the translation indexed by the current value.  Height-k towers over a chosen
alphabet of families decide the two tower-collapse properties:

* level-k permutational: every height-k tower is independent of its base;
* k-reductive: every height-k tower equals the height-(k-1) tower obtained
  by promoting the first argument to the base.

Every tower is a composition of step maps X -> X, so the height-k towers
form a set of at most n**n distinct maps, built level by level from the
height-(k-1) maps.  Both properties are decided on these sets, which makes
every verdict exact for any n and k.  Each job has one place:

* action_tables builds every action table: sigma and tau are the solution's,
  sigma_hat and tau_hat come from one inversion of it, and each *_inv table
  is the row inverses of its base, held on the solution per symbol;
* _tower_levels builds the distinct maps of each height, each with one
  back-pointer to a map one step shorter that it extends;
* _getter is the one composition kernel: every composition of two maps in
  the build, the readers, the folds and the identity checks goes through it,
  an operator.itemgetter over the inner map's values;
* two readers decide on those maps: _first_nonconstant finds the first map
  that is not constant (level-k permutational), and _first_step_failures
  the towers whose first step changes their value (k-reductive, and the
  inverse-start identity);
* check_omega_identities carries one scalar fold per map from every base
  (_folds), each its parent's fold read through the step's table column,
  makes one getter per map (_Getters), and compares whole maps and folds,
  listing single points only for a map that fails;
* _tower_path follows the back-pointers of a map to one word and argument
  list; it is the only path builder, and runs only for a witness or a
  failure.

Each build is held on the solution per alphabet, at the greatest height
asked for so far (_held_levels, the only caller of _tower_levels), and every
reader reads it: permutational_levels, reductive_levels, tower_verdicts,
the inverse-start identity, and check_omega_identities for its own alphabet
and drop_base.  is_k_permutational and is_k_reductive are the one-height
views, and each tower_verdicts result is held too.
"""

from itertools import product
from operator import itemgetter

from .core import _held, invert, is_permutation, left_nondegenerate, right_nondegenerate, row_inverses
from .diagonals import diagonal_maps
from .errors import (
    ClosedFormMismatch,
    NotBijective,
    NotKPermutational,
    NotKReductive,
    NotLeftNondegenerate,
    NotRightNondegenerate,
    SymbolUnavailable,
)

SIGMA = "sigma"
SIGMA_INV = "sigma_inv"
TAU = "tau"
TAU_INV = "tau_inv"
SIGMA_HAT = "sigma_hat"
SIGMA_HAT_INV = "sigma_hat_inv"
TAU_HAT = "tau_hat"
TAU_HAT_INV = "tau_hat_inv"

ALL_SYMBOLS = (
    SIGMA, SIGMA_INV, TAU, TAU_INV,
    SIGMA_HAT, SIGMA_HAT_INV, TAU_HAT, TAU_HAT_INV,
)
HATTED = (SIGMA_HAT, SIGMA_HAT_INV, TAU_HAT, TAU_HAT_INV)
DEFAULT_ALPHABET = (SIGMA, TAU)
FULL_ALPHABET = (SIGMA, SIGMA_INV, TAU, TAU_INV)

INVERSE_OF = {
    SIGMA: SIGMA_INV, SIGMA_INV: SIGMA,
    TAU: TAU_INV, TAU_INV: TAU,
    SIGMA_HAT: SIGMA_HAT_INV, SIGMA_HAT_INV: SIGMA_HAT,
    TAU_HAT: TAU_HAT_INV, TAU_HAT_INV: TAU_HAT,
}


def _inverse_rows(table, symbol):
    if not all(is_permutation(row) for row in table):
        raise SymbolUnavailable(f"{symbol} needs every underlying row to be a bijection")
    return row_inverses(table)


def action_tables(sol, symbols, skip_unavailable=False):
    """The action table of each requested symbol: table[x][z] applies the
    translation indexed by x to z.  sigma and tau are the solution's tables,
    sigma_hat and tau_hat those of its inverse, which the first hatted symbol
    computes once, and each *_inv table is the row inverses of its base,
    held on sol per symbol.  Raises SymbolUnavailable, for the first symbol
    in order that it concerns, when the solution lacks the invertibility a
    symbol needs or the symbol is unknown; with skip_unavailable that symbol
    is left out instead."""
    bases = {SIGMA: sol.sigma, TAU: sol.tau}
    tables = {}
    for s in symbols:
        try:
            if s not in INVERSE_OF:
                raise SymbolUnavailable(f"unknown symbol {s!r}")
            if s in HATTED and SIGMA_HAT not in bases:
                # None stands for an inversion that failed, so it is tried once
                bases[SIGMA_HAT] = bases[TAU_HAT] = None
                try:
                    inv_sol = invert(sol)
                except NotBijective as exc:
                    raise SymbolUnavailable(
                        "hatted symbols need a bijective pair map", witness=exc.witness
                    ) from exc
                bases[SIGMA_HAT], bases[TAU_HAT] = inv_sol.sigma, inv_sol.tau
            root = s if s in bases else INVERSE_OF[s]
            if bases[root] is None:
                continue
            if root == s:
                tables[s] = bases[s]
            else:
                # held on sol per symbol; a failure is raised again each time
                facts = sol.__dict__.setdefault("_facts", {})
                key = (_inverse_rows, s)
                if key not in facts:
                    facts[key] = _inverse_rows(bases[root], s)
                tables[s] = facts[key]
        except SymbolUnavailable:
            if not skip_unavailable:
                raise
    return tables


def action_table(sol, symbol):
    return action_tables(sol, (symbol,))[symbol]


def _eval(tables, word, x, zs):
    acc = x
    for sym, z in zip(word, zs):
        acc = tables[sym][acc][z]
    return acc


def omega_eval(sol, word, x, zs):
    """Evaluate the height-len(word) tower with base x and arguments zs.

    The first symbol of the word acts first: the running value starts at x
    and each step replaces it by the image of the next argument under the
    translation indexed by the running value.
    """
    word = tuple(word)
    zs = tuple(zs)
    if len(word) != len(zs):
        raise ValueError(f"word length {len(word)} != argument count {len(zs)}")
    tables = action_tables(sol, dict.fromkeys(word))
    return _eval(tables, word, x, zs)


def _getter(f):
    """The composition kernel: a callable that sends a map g, as the tuple
    of its values, to g after f, (g[f[0]], ..., g[f[n-1]]), in one C call.
    On one point itemgetter would return the bare item, so it is wrapped."""
    if len(f) == 1:
        v = f[0]
        return lambda g: (g[v],)
    return itemgetter(*f)


def _tower_levels(tables, alphabet, n, height):
    """The maps of all towers of height 0..height over the alphabet.

    A step with symbol s and argument z sends the running value a to
    tables[s][a][z], so every tower is a composition of step maps X -> X,
    the first step innermost.  levels[h] holds each distinct height-h map,
    as a tuple of its values on the bases 0..n-1, with one back-pointer
    (parent map, symbol, argument) to a height-(h-1) map it extends.
    Only the first step of each distinct step map can give a back-pointer,
    so the others are dropped, and the successors of a map are composed
    once, however many heights it recurs at.
    """
    steps = {}
    for s in alphabet:
        # the step map of argument z is column z of the table
        for z, g in enumerate(zip(*tables[s])):
            steps.setdefault(g, (s, z))
    identity = tuple(range(n))
    # a step after the identity is the step itself
    successors = {identity: {g: (identity, s, z) for g, (s, z) in steps.items()}}
    levels = [{identity: None}]
    for _ in range(height):
        level = {}
        for f in levels[-1]:
            after = successors.get(f)
            if after is None:
                after = successors[f] = {}
                compose = _getter(f)
                for g, (s, z) in steps.items():
                    after.setdefault(compose(g), (f, s, z))
            for h, pointer in after.items():
                level.setdefault(h, pointer)
        levels.append(level)
    return levels


def _held_levels(sol, tables, alphabet, height):
    """_tower_levels over sol's action tables of the alphabet, held on sol
    per alphabet at the greatest height asked for so far: the maps of a
    height do not depend on how far the build goes, so a taller build serves
    every lower height.  It is the only caller of _tower_levels."""
    builds = sol.__dict__.setdefault("_facts", {})
    key = (_held_levels, alphabet)
    levels = builds.get(key)
    if levels is None or len(levels) <= height:
        levels = builds[key] = _tower_levels(tables, alphabet, sol.n, height)
    return levels


def _tower_path(levels, h, f):
    """A word and arguments whose height-h tower has the map f."""
    word, zs = [], []
    for level in reversed(levels[1 : h + 1]):
        f, s, z = level[f]
        word.append(s)
        zs.append(z)
    return tuple(reversed(word)), tuple(reversed(zs))


def _first_nonconstant(levels, k):
    """None when every height-k map is constant, else (f, y) for the first
    map f and the first base y that f tells apart from base 0."""
    for f in levels[k]:
        if f.count(f[0]) != len(f):
            return f, next(y for y in range(1, len(f)) if f[y] != f[0])
    return None


def _permutational_verdicts(levels, k_max):
    verdicts = {}
    for k in range(k_max + 1):
        first = _first_nonconstant(levels, k)
        if first is None:
            verdicts[k] = (True, None)
        else:
            f, y = first
            word, zs = _tower_path(levels, k, f)
            verdicts[k] = (False, (word, 0, y, zs))
    return verdicts


def permutational_levels(sol, k_max, alphabet=DEFAULT_ALPHABET):
    """is_k_permutational for every k = 0..k_max, from one build of the
    tower maps over the alphabet: {k: (holds, witness)}."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    levels = _held_levels(sol, action_tables(sol, alphabet), tuple(alphabet), k_max)
    return _permutational_verdicts(levels, k_max)


def is_k_permutational(sol, k, alphabet=DEFAULT_ALPHABET):
    """Whether every height-k tower over the alphabet ignores its base element.

    Returns (True, None) or (False, (word, x, y, zs)) where the two bases x
    and y give the tower different values on arguments zs.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return permutational_levels(sol, k, alphabet)[k]


def _first_step_rows(tables, first_symbols):
    """(s, x, row, a getter of row) for each first symbol s of {sigma, tau}
    and base x, where row, tables[first_symbols[s]][x], is what it reads."""
    return [
        (s, x, row, _getter(row)) for s in DEFAULT_ALPHABET for x, row in enumerate(tables[first_symbols[s]])
    ]


def _first_step_failures(rows, levels, h):
    """Height-(h+1) towers over {sigma, tau} whose first step, read through
    its row in rows, changes their value from that of the height-h tower
    started at the first argument.  levels holds the {sigma, tau} tower
    maps up to height h at least.  Yields (word, x, zs)."""
    for g in levels[h]:
        path = None
        for s, x, row, after in rows:
            # g after the first step's row equals g unless some z fails
            if after(g) == g:
                continue
            if path is None:
                path = _tower_path(levels, h, g)
            word, zs = path
            for z in range(len(g)):
                if g[row[z]] != g[z]:
                    yield (s,) + word, x, (z,) + zs


def _reductive_verdicts(tables, levels, k_max):
    rows = _first_step_rows(tables, {SIGMA: SIGMA, TAU: TAU})
    witnesses = {k: next(_first_step_failures(rows, levels, k - 1), None) for k in range(1, k_max + 1)}
    return {k: (witness is None, witness) for k, witness in witnesses.items()}


def reductive_levels(sol, k_max):
    """is_k_reductive for every k = 1..k_max, from the {sigma, tau} tower
    maps up to height k_max - 1: {k: (holds, witness)}, empty when
    k_max < 1."""
    tables = action_tables(sol, DEFAULT_ALPHABET)
    return _reductive_verdicts(tables, _held_levels(sol, tables, DEFAULT_ALPHABET, k_max - 1), k_max)


@_held
def tower_verdicts(sol, k_perm_max, k_red_max):
    """permutational_levels over {sigma, tau} up to k_perm_max and
    reductive_levels up to k_red_max, from one build of the tower maps up to
    the greater height either needs; a map is empty when its bound is below
    its first height.  Each verdict and witness is the one-height
    decider's."""
    tables = action_tables(sol, DEFAULT_ALPHABET)
    tower = _held_levels(sol, tables, DEFAULT_ALPHABET, max(k_perm_max, k_red_max - 1))
    return _permutational_verdicts(tower, k_perm_max), _reductive_verdicts(tables, tower, k_red_max)


def is_k_reductive(sol, k):
    """Whether every height-k tower over {sigma, tau} equals the height-(k-1)
    tower that starts at the first argument instead of the base.

    Returns (True, None) or (False, (word, x, zs)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return reductive_levels(sol, k)[k]


@_held
def check_star_conditions(sol):
    """Whether every element is fixed by some left and some right translation.

    Returns (ok, sigma_fixers, tau_fixers); the fixer tuples hold, for each x,
    a witness subscript whose translation fixes x, or None.  The verdict is
    held on sol, so every reader gets the same one.
    """
    sigma_fixers, tau_fixers = _fixers(sol.sigma), _fixers(sol.tau)
    ok = None not in sigma_fixers and None not in tau_fixers
    return ok, sigma_fixers, tau_fixers


def _fixers(table):
    """For each x, x itself when its own translation fixes it (so square-free
    solutions witness themselves), else the least subscript whose
    translation fixes x, or None: column x of the table lists the images of
    x under each translation."""
    return tuple(
        x if column[x] == x else column.index(x) if x in column else None
        for x, column in enumerate(zip(*table))
    )


def _closed_form(sol, height, symbol):
    """For each x, the height-fold tower of the symbol's family started at x
    and fed x at every step."""
    tables = action_tables(sol, (symbol,))
    word = (symbol,) * height
    return tuple(_eval(tables, word, x, (x,) * height) for x in range(sol.n))


def closed_form_inverse(sol, height, symbol):
    """The closed form of the given height through SIGMA or TAU, checked to
    invert that family's diagonal (U or T) on both sides.  It is the inverse
    on a level-height permutational or (height+1)-reductive solution that is
    non-degenerate on that side; the caller holds that verdict.  Raises
    ClosedFormMismatch, with the failing points as witness, otherwise."""
    table = _closed_form(sol, height, symbol)
    name = {SIGMA: "U", TAU: "T"}[symbol]
    diagonal = getattr(diagonal_maps(sol), name)
    bad = [x for x in range(sol.n) if table[diagonal[x]] != x or diagonal[table[x]] != x]
    if bad:
        raise ClosedFormMismatch(f"closed form does not invert {name}", witness=bad)
    return table


def _closed_form_height(sol, k, reductive):
    """The tower height of the closed form at k, once the verdict it rests on
    is decided."""
    if reductive:
        ok, witness = is_k_reductive(sol, k)
        if not ok:
            raise NotKReductive(f"solution is not {k}-reductive", witness=witness)
        return k - 1
    ok, witness = is_k_permutational(sol, k)
    if not ok:
        raise NotKPermutational(f"solution is not level-{k} permutational", witness=witness)
    return k


def closed_form_U_inverse(sol, k, reductive=False):
    """U inverse as a single tower: apply the left translation family k times
    (k-1 times in the reductive case) starting and ending at the same element.
    Raises ClosedFormMismatch unless the result inverts U on both sides."""
    if not left_nondegenerate(sol):
        raise NotLeftNondegenerate("U is only defined for left non-degenerate solutions")
    return closed_form_inverse(sol, _closed_form_height(sol, k, reductive), SIGMA)


def closed_form_T_inverse(sol, k, reductive=False):
    """Dual closed form for T inverse, through the right translation family."""
    if not right_nondegenerate(sol):
        raise NotRightNondegenerate("T is only defined for right non-degenerate solutions")
    return closed_form_inverse(sol, _closed_form_height(sol, k, reductive), TAU)


class _Getters(dict):
    """{f: _getter(f)}, each made on the first read of its map f."""

    def __missing__(self, f):
        after = self[f] = _getter(f)
        return after


def _folds(tables, levels, height, getters):
    """For each height h up to height, {f: fold} over the height-h maps in
    order: the scalar fold of f's back-pointer path from every base.  Each
    is its parent's fold read through the step's table column, so no fold
    above height 0 is read from its map.  getters is a _Getters."""
    columns = {s: tuple(zip(*table)) for s, table in tables.items()}
    # the empty tower: the identity map, which levels[0] holds alone
    folds = [{f: f for f in levels[0]}]
    for level in levels[1 : height + 1]:
        parents = folds[-1]
        folds.append(
            {f: getters[parents[p]](columns[s][z]) for f, (p, s, z) in level.items()}
        )
    return folds


def check_omega_identities(sol, max_m, seed=0, symbols=None):
    """Verify the general tower rewriting identities on this solution.

    peel_one       every tower map replays, from every base, as the scalar
                   fold of its word; and the height-m maps built by adding
                   a last step are those built by adding a first step;
    peel_prefix    the height-m maps are the compositions of a height-j map
                   followed by a height-(m-j) map, for every split j;
    inverse_seed   towers repeatedly fed the inverse image of the base
                   return the base;
    inverse_shift  a step followed through an inverse-seeded argument shifts
                   the whole tower down by one;
    drop_base      on a level-k permutational solution, a height-(k+1) tower
                   forgets both its base and its first argument.

    The first two compare the composed tower maps with the scalar fold and
    with each other, a whole map at a time; inverse_seed evaluates the
    scalar fold from every base, one step past the height below.  Each map
    carries its scalar fold from every base, extended from its back-pointer
    parent's by one step, and a failing map traces its word and arguments
    back through its back-pointers.  inverse_shift and drop_base read each
    case, whatever its first step and base, from the fold of the tower
    behind the first step, so every case is covered; inverse_shift reads all
    cases of one fold in one call, and lists them only when it fails.
    They hold for every solution (drop_base for permutational levels only),
    so any reported failure is an implementation bug, not a property of the
    input.  symbols restricts the tower alphabet; by default every symbol
    the solution supports is used.  seed has no effect and is echoed in the
    report.  Returns a dict of per-identity results with checked counts and
    failure witnesses.
    """
    n = sol.n
    carrier = range(n)
    if symbols is None:
        tables = action_tables(sol, ALL_SYMBOLS, skip_unavailable=True)
    else:
        tables = action_tables(sol, symbols)
    usable = tuple(tables) if symbols is None else tuple(symbols)
    # only pair a symbol with its inverse when both sit in the alphabet
    invertible = tuple(s for s in usable if INVERSE_OF[s] in tables)
    # one getter per map in this call, however often the map is read
    getters = _Getters()

    def composed(inner, outer):
        """The maps of every map in outer after every map in inner."""
        maps = set()
        for f in inner:
            maps.update(map(getters[f], outer))
        return maps

    levels = _held_levels(sol, tables, usable, max_m)
    folds = _folds(tables, levels, max_m, getters)
    report = {"seed": seed}
    # The tower (g,) + rest fed (a,) + zs from x is the tower rest fed zs from
    # tables[g][x][a], so inverse_shift and drop_base read rhs, the fold of
    # rest from every start value, at the value the first step reaches.  An
    # inverse-seeded first step that sends z1 back to z1 cannot fail.
    moved = []
    for g, x, z1 in product(invertible, carrier, carrier):
        w = tables[g][x][tables[INVERSE_OF[g]][x][z1]]
        if w != z1:
            moved.append((g, x, z1, w))
    # a fold shifts every moved case when it reads the same at each w as at
    # its z1
    reached = _getter([w for *_, w in moved]) if moved else None
    fed = _getter([z1 for _, _, z1, _ in moved]) if moved else None
    # the inverse-seeded towers from every base, one height at a time
    seeds = [(g, x, tables[INVERSE_OF[g]][x][x]) for g in invertible for x in carrier]
    seeded = [x for _, x, _ in seeds]

    def record(name, checked, failures):
        report[name] = {"checked": checked, "mode": "exhaustive", "failures": failures}

    for m in range(1, max_m + 1):
        level, shorter = levels[m], levels[m - 1]

        failures = []
        for f, fold in folds[m].items():
            if fold != f:
                word, zs = _tower_path(levels, m, f)
                failures.extend((word, x, zs, f[x]) for x in carrier if fold[x] != f[x])
        # composing every height-(m-1) map after every single step
        prepended = composed(levels[1], shorter)
        failures.extend(("prepend", f) for f in prepended ^ level.keys())
        record(f"peel_one_m{m}", len(level) * n + len(shorter) * len(levels[1]), failures)

        checked = 0
        failures = []
        for j in range(m + 1):
            # the split j = 1 is the set prepended, built the same way
            split = prepended if j == 1 else composed(levels[j], levels[m - j])
            checked += len(levels[j]) * len(levels[m - j])
            failures.extend(("split", j, f) for f in split ^ level.keys())
        record(f"peel_prefix_m{m}", checked, failures)

        seeded = [_eval(tables, (g,), acc, (a,)) for (g, _, a), acc in zip(seeds, seeded)]
        failures = [(g, x) for (g, x, _), acc in zip(seeds, seeded) if acc != x]
        record(f"inverse_seed_m{m}", len(invertible) * n, failures)

        failures = []
        if moved:
            for f, rhs in folds[m - 1].items():
                if reached(rhs) != fed(rhs):
                    rest, zs = _tower_path(levels, m - 1, f)
                    failures.extend(
                        (g, rest, x, z1, zs) for g, x, z1, w in moved if rhs[w] != rhs[z1]
                    )
        record(f"inverse_shift_m{m}", len(invertible) * len(shorter) * n * n, failures)

    # the {sigma, tau} maps decide the level and feed drop_base
    tables = action_tables(sol, DEFAULT_ALPHABET)
    tower = _held_levels(sol, tables, DEFAULT_ALPHABET, max_m - 1)
    perm_level = next((k for k in range(max_m) if _first_nonconstant(tower, k) is None), None)
    report["permutational_level_bound"] = perm_level
    if perm_level is not None:
        folds = _folds(tables, tower, max_m - 1, getters)
        for k in range(perm_level, max_m):
            failures = []
            for f, rhs in folds[k].items():
                if rhs.count(rhs[0]) == n:
                    continue  # every lhs is a value of rhs, so it equals every rhs[y]
                # some lhs differs from some rhs[y], so this map fails
                rest, zs = _tower_path(tower, k, f)
                for s, x, z1 in product(DEFAULT_ALPHABET, carrier, carrier):
                    lhs = rhs[tables[s][x][z1]]
                    failures.extend(
                        ((s,) + rest, x, y, (z1,) + zs) for y in carrier if lhs != rhs[y]
                    )
            record(f"drop_base_k{k}", len(tower[k]) * len(DEFAULT_ALPHABET) * n**3, failures)
    return report


def reductive_inverse_start_levels(sol, ks):
    """check_reductive_inverse_start for each k in ks, from one build of the
    {sigma, tau} tower maps up to height max(ks) - 1: {k: failures}."""
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    if not ks:
        return {}
    tables = action_tables(sol, FULL_ALPHABET)
    rows = _first_step_rows(tables, {SIGMA: SIGMA_INV, TAU: TAU_INV})
    levels = _held_levels(sol, tables, DEFAULT_ALPHABET, max(ks) - 1)
    return {k: list(_first_step_failures(rows, levels, k - 1)) for k in ks}


def check_reductive_inverse_start(sol, k):
    """Derived identity of k-reductive solutions: replacing the first step by
    the inverse of any first family still collapses to the height-(k-1) tower.
    Needs non-degeneracy to evaluate the inverse families.  Returns the
    failing (word, x, zs) of every distinct height-(k-1) tower map.  Raises
    ValueError when k < 1."""
    return reductive_inverse_start_levels(sol, (k,))[k]
