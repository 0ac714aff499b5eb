"""Exhaustive enumeration of braid-valid table pairs on small carriers.

Two independent routes produce the same populations:

* ``enumerate_solutions`` is the production search.  It fixes the left table
  row by row (permutation rows when a left-sided filter asks for them), then
  fills the right table cell by cell.  The first braid component,
  sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)}, reads the right table
  only at the cell tau[y][x], so the left table alone decides which values
  that cell may take: the t whose row sigma_t solves
  sigma_{sigma_x(y)} p = sigma_x sigma_y.  Both sides are lookups in the
  product table of the row options, ``derived._products`` (the table the
  rack route reads), and in its fibres: for each row, the rows grouped by
  their product with it.  The left rows are placed one at a time by
  ``derived._row_tables``.  A cell whose rows x, y and sigma_x(y) are
  placed, but which no placed row serves, needs one of the rows still to
  come; a prefix is cut when such a cell allows no row at all, when no row
  is left, or when the cells that need one single row need more distinct
  rows than are left.  So every left table that reaches the right-table
  search gives each cell some value.  The right-table search walks each
  cell's allowed values in row-major order.  Each instance of the second
  and third components sits on the watch list of a cell it reads and is
  checked once, when the last cell it reads is placed; the search
  backtracks on the first violation.

* ``oracle_enumerate`` is the deliberately unpruned cross-check: a full scan
  of every candidate table pair, testing the braid relation by literal
  composition of the two triple maps (vectorized over the right-table batch,
  but never skipping a candidate).

``census`` and the ``up_to_iso`` stream of ``enumerate_solutions`` share one
class pass, which picks the route.  The two-sided nd filters go through derived
racks (see ``derived``): the rack classes are found from the racks with a
representative row 0, and each class's least rack R is searched for left
tables with rows in Aut(R), cut where the diagonal U repeats a value.  Every
other filter goes through the watch-list search.  In both, a relabeling that
fixes 0 (and, for the rack route, lies in Aut(R)) conjugates the head row
sigma_0 and carries the solutions with one head onto those with the
conjugate head, so the pass searches only the least head row of each
conjugacy orbit (7 of the 24 at n = 4 with permutation rows in the
watch-list pass) and counts each solution found once per head in its orbit;
the rack route multiplies by the n! / |Aut R| racks of R's class.  Classes
are counted by marking orbits: the first solution of a class in the searched
stream marks those relabelings of itself (in Aut(R) for the rack route)
whose head row is a representative, and later members are found marked.
Each relabeled head row is found by its id in the product table of the
pass's row set (Aut(R), or the row options), which is closed under
composition and holds the relabelings; the rack route builds Aut(R)'s table
once, for its search and its marking.  Each marked key is built from the
solution's flat key by one bytes translate and one itemgetter per
relabeling.  The ``up_to_iso`` stream takes the canonical form (least of all
relabelings) of each class's first solution.  The watch-list stream of a
two-sided filter stays the cross-check of the rack route.

Census counts frozen into the shipped regression file come from a route that
production does not use for the cell: the oracle wherever it finishes, and
the watch-list stream with one canonical form per solution for the
two-sided non-degenerate cells at n = 4.  The build refuses to trust a
production count that diverges from a frozen one.
"""

from dataclasses import dataclass
from importlib import resources
from itertools import permutations, product
from math import factorial
from operator import itemgetter

import numpy as np

from .core import (
    FiniteSolution,
    _flat_key,
    bijective_witness,
    canonical_form,
    involutive_witness,
    perm_inverse,
    square_free_witness,
)
from .derived import (
    _head_orbits,
    _products,
    _row_tables,
    _solutions as _rack_solutions,
    rack_classes,
)
from .errors import ParseError, SizeTooLarge

MAX_N_UNRESTRICTED = 3
MAX_N_NONDEGENERATE = 4


@dataclass(frozen=True)
class EnumFilter:
    require_left_nd: bool = False
    require_right_nd: bool = False
    require_bijective: bool = False
    require_involutive: bool = False
    require_square_free: bool = False

    @staticmethod
    def labels():
        """The census-cell labels, each mapped to the fields it sets, in
        signature order; nd sets both sides.  The command line's filter
        flags are these labels."""
        return {
            "left_nd": ("require_left_nd",),
            "right_nd": ("require_right_nd",),
            "nd": ("require_left_nd", "require_right_nd"),
            "bijective": ("require_bijective",),
            "involutive": ("require_involutive",),
            "square_free": ("require_square_free",),
        }

    def signature(self):
        """The cell's one label: the labels whose fields are all set, with nd
        in place of left_nd+right_nd, or "none"."""
        table = self.labels()
        names = [label for label in table if all(getattr(self, name) for name in table[label])]
        if "nd" in names:
            names = [label for label in names if label not in ("left_nd", "right_nd")]
        return "+".join(names) if names else "none"

    @staticmethod
    def from_signature(sig):
        """The filter of "+"-joined labels in any order, or of "none"."""
        labels = EnumFilter.labels()
        kwargs = {}
        for label in [] if sig == "none" else sig.split("+"):
            if label not in labels:
                raise ParseError(f"unknown filter label {label!r}")
            kwargs.update(dict.fromkeys(labels[label], True))
        return EnumFilter(**kwargs)


@dataclass(frozen=True)
class CensusResult:
    raw: int
    iso: int


def _check_bounds(n, filt):
    """Accept only the sizes the search finishes at: any filter up to
    MAX_N_UNRESTRICTED, and filters with left permutation rows (left_nd or
    nd) up to MAX_N_NONDEGENERATE."""
    if n < 1:
        raise SizeTooLarge("carrier size must be at least 1")
    if n <= MAX_N_UNRESTRICTED:
        return
    if n <= MAX_N_NONDEGENERATE and filt.require_left_nd:
        return
    raise SizeTooLarge(
        f"n={n} with filter {filt.signature()} is out of reach: search without "
        f"left permutation rows stops at {MAX_N_UNRESTRICTED}, left or two-sided "
        f"non-degenerate search at {MAX_N_NONDEGENERATE}"
    )


def _row_options(n, perms_only):
    if perms_only:
        return sorted(permutations(range(n)))
    return [tuple(r) for r in product(range(n), repeat=n)]


def _passes(sol, filt):
    # row-shape filters are enforced by generation; only pair-map predicates remain
    if filt.require_bijective and bijective_witness(sol) is not None:
        return False
    if filt.require_involutive and involutive_witness(sol) is not None:
        return False
    if filt.require_square_free and square_free_witness(sol) is not None:
        return False
    return True


def _fibres(products):
    """For each row i of a product table, the positions j grouped by their
    product with it: entry [i][c] is the set of j with products[i][j] == c."""
    fibres = []
    for row in products:
        groups = [set() for _ in row]
        for j, c in enumerate(row):
            groups[c].add(j)
        fibres.append([frozenset(group) for group in groups])
    return fibres


def _cell_values(sigma, ids, products, fibres):
    """The values braid component 1 allows in each right-table cell, in
    row-major cell order; ids are the positions of sigma's rows in the row
    options, products and fibres their tables.

    The cell tau[y][x] may hold t exactly when sigma_t is in the fibre of
    sigma_x sigma_y under p -> sigma_{sigma_x(y)} p.
    """
    n = len(sigma)
    cells = []
    for y, x in product(range(n), repeat=2):
        fibre = fibres[ids[sigma[x][y]]][products[ids[x]][ids[y]]]
        cells.append([t for t in range(n) if ids[t] in fibre])
    return cells


def _left_tables(n, rows, heads):
    """The left tables with rows in rows and first row in heads, in
    lexicographic order, whose every right-table cell allows some value,
    each with those values (see _cell_values); rows are closed under
    composition.

    A pair (x, y) whose rows x, y and sigma_x(y) are placed fixes the
    solution rows of the cell tau[y][x]; when none of them is placed, the
    cell needs one of the rows still to place.  A prefix is cut when such a
    cell has no solution row, when no row is left to place, or when the
    cells that need one single row need more distinct rows than are left.
    """
    products = _products(rows)
    fibres = _fibres(products)
    # the needs still open once rows 0..k are placed, for the current
    # prefix: the search is depth-first, so row k + 1 reads needs[k]
    needs = [()] * n

    def holds(sigma, ids, k):
        left = n - 1 - k
        unmet = [need for need in (needs[k - 1] if k else ()) if ids[k] not in need]
        if unmet and not left:
            return False
        # the pairs whose rows x, y and sigma_x(y) row k completes
        for x in range(k + 1):
            row, after = sigma[x], products[ids[x]]
            for y in range(k + 1):
                w = row[y]
                if w > k or (w < k and x < k and y < k):
                    continue
                need = fibres[ids[w]][after[ids[y]]]
                if need.isdisjoint(ids):
                    if not left or not need:
                        return False
                    unmet.append(need)
        needs[k] = unmet
        return len({i for need in unmet if len(need) == 1 for i in need}) <= left

    for sigma, ids in _row_tables(n, rows, heads, holds):
        yield sigma, _cell_values(sigma, ids, products, fibres)


def _tau_completions(n, sigma, cells, right_perms):
    """Depth-first stream of complete right tables consistent with sigma, in
    lexicographic order; cells lists the values component 1 allows per cell.

    Cells are placed in row-major order into the flat table tau (cell
    (row, col) at index row * n + col), so of any set of cells the one with
    the largest index is placed last.  An instance (x, y, z) of the second
    and third braid components,

        tau_{sigma_{v1}(z)}(sigma_x(y)) = sigma_{v2}(v3)   and
        tau_{v3}(v2) = tau_z(v1),

    with v1 = tau_y(x), v2 = tau_x(sigma_y(z)) and v3 = tau_y(z), waits on
    the last of its three fixed cells.  Once that is placed, the second
    component asks one known cell to hold sigma_{v2}(v3) and the third asks
    two known cells to agree.  Each is checked at once if its cells are all
    placed; otherwise it joins the watch list of its last cell until that is
    placed, and leaves it again on backtrack.  So every instance is checked
    exactly once on a path, at the first node where it is fully determined.
    """
    size = n * n
    tau = [None] * size
    used = [set() for _ in range(n)]
    ready = [[] for _ in range(size)]  # instances by the last of their fixed cells
    for x, y, z in product(range(n), repeat=3):
        a, b, c = y * n + x, sigma[y][z] * n + x, z * n + y
        ready[max(a, b, c)].append((a, b, c, z, sigma[x][y]))
    wanted = [[] for _ in range(size)]  # values a cell must hold (component 2)
    equal = [[] for _ in range(size)]  # earlier cells a cell must equal (component 3)

    def assign(idx, t):
        """Check and register the instances that cell idx, now holding t,
        completes; the watch lists that grew, or None on a violation."""
        for k in wanted[idx]:
            if k != t:
                return None
        for other in equal[idx]:
            if tau[other] != t:
                return None
        grown = []
        for a, b, c, z, sxy in ready[idx]:
            v1, v2, v3 = tau[a], tau[b], tau[c]
            d, k = sigma[v1][z] * n + sxy, sigma[v2][v3]
            e, f = v3 * n + v2, z * n + v1
            if e > f:
                e, f = f, e
            if d > idx:
                wanted[d].append(k)
                grown.append(wanted[d])
            elif tau[d] != k:
                break
            if f > idx:
                equal[f].append(e)
                grown.append(equal[f])
            elif tau[e] != tau[f]:
                break
        else:
            return grown
        unwatch(grown)
        return None

    def unwatch(grown):
        for watch in reversed(grown):
            watch.pop()

    def place(idx):
        if idx == size:
            yield tuple(tuple(tau[r * n:(r + 1) * n]) for r in range(n))
            return
        row = idx // n
        for t in cells[idx]:
            if right_perms and t in used[row]:
                continue
            tau[idx] = t
            used[row].add(t)
            grown = assign(idx, t)
            if grown is not None:
                yield from place(idx + 1)
                unwatch(grown)
            used[row].discard(t)
        tau[idx] = None

    yield from place(0)


def _raw_stream(n, filt, heads):
    """The solutions whose head row sigma_0 is one of heads, in
    lexicographic order."""
    rows = _row_options(n, filt.require_left_nd)
    for sigma, cells in _left_tables(n, rows, heads):
        for tau in _tau_completions(n, sigma, cells, filt.require_right_nd):
            sol = FiniteSolution._from_tables(sigma, tau)
            if _passes(sol, filt):
                yield sol


class _Marking:
    """The relabeling group of one class pass, read by ids in its row set.

    rows is the sorted row set the pass searches, closed under composition
    and holding every relabeling in group (a list of permutations), and
    products its product table (see derived._products).  orbits maps each
    representative head row (see _head_orbits) to its orbit's size, and
    heads holds the representatives' ids.  relabelings lists, for each pi
    in group and in its order, (pi^-1(0), id of pi, id of pi^-1, table,
    source): table is the 256-byte bytes.translate table that applies pi to
    each entry, and source the itemgetter of the 2n^2 flat-key positions
    (see _flat_key) from which entry (pi(i), pi(j)) of each relabeled table
    is read.
    """

    def __init__(self, rows, products, group):
        self.index = index = {row: i for i, row in enumerate(rows)}
        self.products = products
        self.orbits = dict(_head_orbits(rows, group))
        self.heads = {index[row] for row in self.orbits}
        n = len(rows[0])
        self.relabelings = []
        for pi in group:
            pinv = perm_inverse(pi)
            table = bytes(pi) + bytes(range(n, 256))
            source = itemgetter(*[t + i * n + j for t in (0, n * n) for i in pinv for j in pinv])
            self.relabelings.append((pinv[0], index[pi], index[pinv], table, source))


def _marked_images(sol, key, marking):
    """The flat keys of the relabelings of sol in the marking whose head row
    is a representative; key is the flat key of sol.

    The head row of sol relabeled by pi is pi sigma_h pi^-1 with
    h = pi^-1(0); its id is read off the product table, since sigma's rows
    and the relabelings all lie in the marking's row set.  Each image's key
    is built from key in one pass: the translate table applies pi to every
    entry, and the source getter moves entry (i, j) to (pi(i), pi(j)).  The
    bytes are those of core._relabeled_key.
    """
    index, products, heads = marking.index, marking.products, marking.heads
    ids = [index[row] for row in sol.sigma]
    return [
        bytes(source(key.translate(table)))
        for h, p, q, table, source in marking.relabelings
        if products[products[p][ids[h]]][q] in heads
    ]


def _classes(sols, marking):
    """The weighted count of sols and the first solution of each class.

    sols is a stream of the solutions with a representative head row; each
    counts its head orbit's size.  A solution not yet marked opens a class
    and marks its relabelings in the marking whose head row is a
    representative; when the marking's group keeps the population, no other
    key comes up in the stream, and every later member of the class is
    found marked.
    """
    orbits = marking.orbits
    raw = 0
    marked = set()
    firsts = []
    for sol in sols:
        raw += orbits[sol.sigma[0]]
        key = _flat_key((sol.sigma, sol.tau))
        if key in marked:
            continue
        marked.update(_marked_images(sol, key, marking))
        firsts.append(sol)
    return raw, firsts


def _rack_admits(rack, filt):
    """Whether the filter's pair-map predicates allow rack as a derived rack:
    y |> x = sigma_y(tau_u(x)) with sigma_x(u) = y, so an involutive
    solution's rack is trivial (y |> x = x) and a square-free solution's is a
    quandle (x |> x = x)."""
    n = len(rack)
    if filt.require_involutive and any(row != tuple(range(n)) for row in rack):
        return False
    if filt.require_square_free and any(rack[x][x] != x for x in range(n)):
        return False
    return True


def _class_pass(n, filt):
    """The raw count and the first solution found of each isomorphism class,
    from one search over representative heads.

    A relabeling that fixes 0 takes any head to the least row of its orbit,
    so every class meets that search.  Filters with permutation rows on both
    sides go rack class by rack class (see derived): isomorphic solutions
    have isomorphic derived racks, and a relabeling keeps the solutions over
    a rack R exactly when it lies in Aut(R), so the n! / |Aut R| racks of
    R's class have as many solutions each as R, and the classes over R are
    the Aut(R)-orbits on its solutions; the rack classes the filter rules
    out (see _rack_admits) are not searched.  Every other filter goes through
    the watch-list search, marking with all relabelings.
    """
    if filt.require_left_nd and filt.require_right_nd:
        raw, firsts = 0, []
        for rack, automorphisms in rack_classes(n):
            if not _rack_admits(rack, filt):
                continue
            # one product table for the search and the marking
            products = _products(automorphisms)
            marking = _Marking(automorphisms, products, automorphisms)
            sols = _rack_solutions(rack, automorphisms, products, list(marking.orbits))
            found, more = _classes((sol for sol in sols if _passes(sol, filt)), marking)
            raw += factorial(n) // len(automorphisms) * found
            firsts += more
        return raw, firsts
    rows = _row_options(n, filt.require_left_nd)
    marking = _Marking(rows, _products(rows), list(permutations(range(n))))
    return _classes(_raw_stream(n, filt, list(marking.orbits)), marking)


def enumerate_solutions(n, filt=EnumFilter(), up_to_iso=False):
    """Deterministic stream of all braid-valid solutions matching the filter.

    Output is in lexicographic order of the flattened table pair; with
    up_to_iso, the canonical form (least relabeling) of each isomorphism
    class is emitted instead, again in lexicographic order.
    """
    _check_bounds(n, filt)
    if up_to_iso:
        _, firsts = _class_pass(n, filt)
        forms = [canonical_form(sol) for sol in firsts]
        yield from sorted(forms, key=lambda sol: _flat_key((sol.sigma, sol.tau)))
        return
    yield from _raw_stream(n, filt, _row_options(n, filt.require_left_nd))


def census(n, filt=EnumFilter()):
    """Raw and up-to-isomorphism counts for one (n, filter) cell, from one
    class pass (see _class_pass): raw is the length of the full stream and
    iso the number of distinct canonical forms in it."""
    _check_bounds(n, filt)
    raw, firsts = _class_pass(n, filt)
    return CensusResult(raw=raw, iso=len(firsts))


# ---------------------------------------------------------------------------
# unpruned oracle


def _braid_mask(sigma_arr, tau_batch):
    """Literal braid check of one left table against a batch of right tables:
    compose the two triple maps step by step and compare all components."""
    count = tau_batch.shape[0]
    n = sigma_arr.shape[0]
    idx = np.arange(count)

    def apply_pair(a, b):
        return sigma_arr[a, b], tau_batch[idx, b, a]

    ok = np.ones(count, dtype=bool)
    for x, y, z in product(range(n), repeat=3):
        u, v = apply_pair(y, z)
        p, q = apply_pair(x, u)
        s, w = apply_pair(q, v)
        a, b = apply_pair(x, y)
        c, d = apply_pair(b, z)
        e, f = apply_pair(a, c)
        ok &= (p == e) & (s == f) & (w == d)
        if not ok.any():
            break
    return ok


def oracle_enumerate(n, filt=EnumFilter()):
    """Full-scan enumeration with a literal braid check; no pruning at all.

    Only offered where a dumb scan finishes in desk time: any filter at
    n <= 2, and filters forcing permutation rows on at least one side at
    n = 3.  Output is sorted into the same lexicographic order as the
    production stream.
    """
    left_perms, right_perms = filt.require_left_nd, filt.require_right_nd
    if not (n <= 2 or n == 3 and (left_perms or right_perms)):
        raise SizeTooLarge(
            f"the unpruned oracle only covers n <= 2, or n = 3 with a "
            f"one-sided non-degeneracy filter (got n={n}, {filt.signature()})"
        )
    # at n = 3, scan the reversed solution so the big batch sits on the right side
    flipped = n == 3 and not left_perms
    if flipped:
        left_perms, right_perms = right_perms, left_perms

    sigma_tables = _row_options(n, left_perms)
    tau_tables = _row_options(n, right_perms)
    sigma_full = [tuple(rows) for rows in product(sigma_tables, repeat=n)]
    tau_full = [tuple(rows) for rows in product(tau_tables, repeat=n)]
    tau_batch = np.array(tau_full, dtype=np.int64)

    found = []
    for sigma in sigma_full:
        mask = _braid_mask(np.array(sigma, dtype=np.int64), tau_batch)
        for i in np.flatnonzero(mask):
            tau = tau_full[i]
            sol = FiniteSolution(tau, sigma) if flipped else FiniteSolution(sigma, tau)
            if _passes(sol, filt):
                found.append(sol)
    found.sort(key=lambda sol: (sol.sigma, sol.tau))
    return found


def oracle_census(n, filt=EnumFilter()):
    sols = oracle_enumerate(n, filt)
    classes = {canonical_form(sol) for sol in sols}
    return CensusResult(raw=len(sols), iso=len(classes))


# ---------------------------------------------------------------------------
# frozen census regression file

CENSUS_HEADER = "# yangbaxter census format 1"
FROZEN_CELLS = (
    (1, "none"),
    (1, "left_nd"),
    (1, "nd"),
    (2, "none"),
    (2, "left_nd"),
    (2, "right_nd"),
    (2, "nd"),
    (2, "bijective"),
    (2, "nd+involutive"),
    (2, "nd+square_free"),
    (3, "left_nd"),
    (3, "right_nd"),
    (3, "nd"),
    (3, "left_nd+bijective"),
    (3, "nd+involutive"),
    (3, "nd+square_free"),
    (4, "nd"),
    (4, "nd+involutive"),
    (4, "nd+square_free"),
)


def format_frozen_census(counts):
    """counts: {(n, signature): CensusResult} -> file text, sorted."""
    lines = [CENSUS_HEADER]
    for (n, sig) in sorted(counts):
        c = counts[(n, sig)]
        lines.append(f"n={n} filter={sig} raw={c.raw} iso={c.iso}")
    return "\n".join(lines) + "\n"


def parse_frozen_census(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CENSUS_HEADER:
        raise ParseError("census file missing or wrong format header")
    counts = {}
    for ln in lines[1:]:
        try:
            fields = dict(part.split("=", 1) for part in ln.split())
            key = (int(fields["n"]), fields["filter"])
            counts[key] = CensusResult(raw=int(fields["raw"]), iso=int(fields["iso"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad census line {ln!r}") from exc
    return counts


def load_frozen_census():
    text = (
        resources.files("yangbaxter").joinpath("data", "census_frozen.txt").read_text()
    )
    return parse_frozen_census(text)


def check_frozen_census(n, filt, result):
    """The verdict on a census result from its cell of the frozen file:
    "match", "cell not frozen", or "MISMATCH expected raw=R iso=I"."""
    expected = load_frozen_census().get((n, filt.signature()))
    if expected is None:
        return "cell not frozen"
    if expected == result:
        return "match"
    return f"MISMATCH expected raw={expected.raw} iso={expected.iso}"
