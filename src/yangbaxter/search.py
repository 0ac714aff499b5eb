"""Exhaustive enumeration of braid-valid table pairs on small carriers.

Two independent routes produce the same populations:

* ``enumerate_solutions`` is the production search.  It fixes the left table
  row by row (permutation rows when a left-sided filter asks for them), then
  fills the right table cell by cell.  The first braid component,
  sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)}, reads the right table
  only at the cell tau[y][x], so the left table alone decides which values
  that cell may take: the t whose row sigma_t solves
  sigma_{sigma_x(y)} p = sigma_x sigma_y.  A left table with a cell that
  allows no value is skipped before any right-table search, and once all left
  rows but the last are placed, the last row is drawn only from the rows that
  the cells fixed by the placed rows still need.  The right-table search
  walks each cell's allowed values in row-major order.  Each instance of the
  second and third components sits on the watch list of a cell it reads and
  is checked once, when the last cell it reads is placed; the search
  backtracks on the first violation.

* ``oracle_enumerate`` is the deliberately unpruned cross-check: a full scan
  of every candidate table pair, testing the braid relation by literal
  composition of the two triple maps (vectorized over the right-table batch,
  but never skipping a candidate).

``census`` and the ``up_to_iso`` stream share one class pass.  A relabeling
that fixes 0 conjugates the head row sigma_0 and carries the solutions with
one head onto those with the conjugate head, so the pass searches only the
least head row of each conjugacy orbit (7 of the 24 at n = 4 with
permutation rows) and counts each solution found once per head in its
orbit.  Classes are counted by marking orbits: the first solution of a class
in the searched stream marks those relabelings of itself whose head row is a
representative, later members are found marked, and the least marked
relabeling is the class's canonical form.

Census counts frozen into the shipped regression file were generated by the
oracle once; the build refuses to trust a pruned count that diverges from a
frozen one.
"""

import multiprocessing
import os
from dataclasses import dataclass
from importlib import resources
from itertools import permutations, product

import numpy as np

from .core import (
    FiniteSolution,
    _relabeled_tables,
    bijective_witness,
    canonical_form,
    involutive_witness,
    perm_inverse,
    square_free_witness,
)
from .errors import ParseError, SizeTooLarge

MAX_N_UNRESTRICTED = 3
MAX_N_NONDEGENERATE = 4

_FLAG_ORDER = (
    "require_left_nd",
    "require_right_nd",
    "require_nd",
    "require_bijective",
    "require_involutive",
    "require_square_free",
)
_FLAG_LABELS = {
    "require_left_nd": "left_nd",
    "require_right_nd": "right_nd",
    "require_nd": "nd",
    "require_bijective": "bijective",
    "require_involutive": "involutive",
    "require_square_free": "square_free",
}


@dataclass(frozen=True)
class EnumFilter:
    require_left_nd: bool = False
    require_right_nd: bool = False
    require_nd: bool = False
    require_bijective: bool = False
    require_involutive: bool = False
    require_square_free: bool = False
    up_to_iso: bool = False

    @property
    def left_rows_permutations(self):
        return self.require_left_nd or self.require_nd

    @property
    def right_rows_permutations(self):
        return self.require_right_nd or self.require_nd

    def signature(self):
        """Canonical census-cell label; up_to_iso is not part of the cell
        because every census records both raw and iso counts."""
        names = [_FLAG_LABELS[f] for f in _FLAG_ORDER if getattr(self, f)]
        return "+".join(names) if names else "none"

    @staticmethod
    def from_signature(sig):
        labels = {} if sig == "none" else {part: True for part in sig.split("+")}
        kwargs = {}
        reverse = {v: k for k, v in _FLAG_LABELS.items()}
        for label in labels:
            if label not in reverse:
                raise ParseError(f"unknown filter label {label!r}")
            kwargs[reverse[label]] = True
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
    if n <= MAX_N_NONDEGENERATE and filt.left_rows_permutations:
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


class _FirstComponent:
    """Braid component 1, sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)},
    decided on the left table alone.

    The component reads the right table only at the cell tau[y][x], so that
    cell may hold t exactly when the row sigma_t solves
    sigma_{sigma_x(y)} p = sigma_x sigma_y.  Row compositions and solution
    sets are cached per row pair, for the rows of one stream.
    """

    def __init__(self, row_opts):
        self._row_opts = row_opts
        self._composed = {}
        self._solutions = {}

    def solution_rows(self, sigma, x, y):
        """The left rows p with sigma_{sigma_x(y)} p = sigma_x sigma_y."""
        key = (sigma[x], sigma[y])
        comp = self._composed.get(key)
        if comp is None:
            outer, inner = key
            comp = self._composed[key] = tuple(outer[v] for v in inner)
        key = (sigma[sigma[x][y]], comp)
        rows = self._solutions.get(key)
        if rows is None:
            outer, target = key
            rows = self._solutions[key] = frozenset(
                p for p in self._row_opts if all(outer[v] == w for v, w in zip(p, target))
            )
        return rows

    def last_rows(self, placed):
        """The rows that may complete a left table whose rows but the last
        are placed, in lexicographic order.

        A pair (x, y) whose rows x, y and sigma_x(y) are all placed fixes the
        solution rows of the cell tau[y][x]; when none of them is placed,
        only the last row can serve that cell.
        """
        last = len(placed)
        allowed = None
        for x, y in product(range(last), repeat=2):
            if placed[x][y] == last:
                continue
            rows = self.solution_rows(placed, x, y)
            if rows.isdisjoint(placed):
                allowed = rows if allowed is None else allowed & rows
        if allowed is None:
            return self._row_opts
        return [row for row in self._row_opts if row in allowed]

    def left_tables(self, n, heads):
        """Left tables with the given first rows, in lexicographic order,
        skipping the last rows ruled out by last_rows."""
        if n == 1:
            for head in heads:
                yield (head,)
            return
        for head in heads:
            for middle in product(self._row_opts, repeat=n - 2):
                placed = (head,) + middle
                for last in self.last_rows(placed):
                    yield placed + (last,)

    def cell_values(self, sigma):
        """The values component 1 allows in each right-table cell, in
        row-major cell order, or None when some cell allows none."""
        n = len(sigma)
        cells = []
        for y, x in product(range(n), repeat=2):
            rows = self.solution_rows(sigma, x, y)
            values = [t for t in range(n) if sigma[t] in rows]
            if not values:
                return None
            cells.append(values)
        return cells


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
    lexicographic order; one component-1 cache serves all the heads."""
    first = _FirstComponent(_row_options(n, filt.left_rows_permutations))
    for sigma in first.left_tables(n, heads):
        cells = first.cell_values(sigma)
        if cells is None:
            continue
        for tau in _tau_completions(n, sigma, cells, filt.right_rows_permutations):
            sol = FiniteSolution(sigma, tau)
            if _passes(sol, filt):
                yield sol


def _worker(args):
    n, filt, head = args
    return list(_raw_stream(n, filt, [head]))


def _head_stream(n, filt, heads, workers):
    """_raw_stream over heads, split into one pool task per head when
    workers > 1; the stream and its order do not depend on workers."""
    if workers <= 1:
        return _raw_stream(n, filt, heads)
    tasks = [(n, filt, head) for head in heads]
    with multiprocessing.Pool(min(workers, len(tasks), os.cpu_count() or 1)) as pool:
        chunks = pool.map(_worker, tasks)
    return (sol for chunk in chunks for sol in chunk)


def _conjugate(row, pi, pinv):
    """The row pi row pi^-1; pinv is the inverse of pi."""
    return tuple(pi[row[j]] for j in pinv)


def _head_orbits(n, perms_only):
    """The orbits of the head rows under h -> pi h pi^-1 for the relabelings
    pi with pi(0) = 0, as (least row of the orbit, orbit size) pairs in row
    order.

    Such a pi carries a solution with head row h onto one with head row
    pi h pi^-1, so it is a bijection between the solutions of conjugate
    heads, and every filter is kept, being invariant under relabeling.
    """
    fixing = [(pi, perm_inverse(pi)) for pi in permutations(range(n)) if pi[0] == 0]
    seen = set()
    orbits = []
    for row in _row_options(n, perms_only):
        if row in seen:
            continue
        orbit = {_conjugate(row, pi, pinv) for pi, pinv in fixing}
        seen |= orbit
        orbits.append((row, len(orbit)))
    return orbits


def _flat_key(tables):
    """The entries of a (sigma, tau) pair as one bytes object; for tables of
    one size, bytes order is the lexicographic order of the tables."""
    return bytes(v for table in tables for row in table for v in row)


def _class_pass(n, filt, workers):
    """The raw count and the canonical (sigma, tau) tables of each
    isomorphism class, from one search over the representative heads.

    Every class meets that search, because a relabeling that fixes 0 takes
    any head to the least row of its orbit.  A found solution stands for
    its orbit's size of solutions in the full stream.  A solution not yet
    marked opens a class and marks its relabelings whose head row is a
    representative; no other key comes up in the searched stream.  The
    least of them is the canonical form: the lexicographically least
    relabeling has the least head row of its orbit, since conjugating by a
    relabeling that fixes 0 never takes it lower.
    """
    orbits = dict(_head_orbits(n, filt.left_rows_permutations))
    relabelings = [(pi, perm_inverse(pi)) for pi in permutations(range(n))]
    raw = 0
    marked = set()
    classes = []
    for sol in _head_stream(n, filt, list(orbits), workers):
        raw += orbits[sol.sigma[0]]
        if _flat_key((sol.sigma, sol.tau)) in marked:
            continue
        images = []
        for pi, pinv in relabelings:
            # the head row of the relabeled solution
            if _conjugate(sol.sigma[pinv[0]], pi, pinv) in orbits:
                tables = _relabeled_tables(sol, pi)
                images.append((_flat_key(tables), tables))
        marked.update(key for key, _ in images)
        classes.append(min(images))
    return raw, classes


def enumerate_solutions(n, filt=EnumFilter(), workers=1):
    """Deterministic stream of all braid-valid solutions matching the filter.

    Output is in lexicographic order of the flattened table pair; with
    up_to_iso set, the canonical form (least relabeling) of each
    isomorphism class is emitted instead, again in lexicographic order.
    The stream is identical for any worker count.
    """
    _check_bounds(n, filt)
    if filt.up_to_iso:
        _, classes = _class_pass(n, filt, workers)
        for _, tables in sorted(classes):
            yield FiniteSolution(*tables)
        return
    heads = _row_options(n, filt.left_rows_permutations)
    yield from _head_stream(n, filt, heads, workers)


def census(n, filt=EnumFilter(), workers=1):
    """Raw and up-to-isomorphism counts for one (n, filter) cell.

    One search runs from the least head row of each conjugacy orbit of head
    rows; each solution it finds counts its orbit's size toward raw, and
    each class it meets is counted once by marking the class's relabelings
    (see _class_pass).  So raw is the length of the full stream and iso the
    number of distinct canonical forms in it."""
    _check_bounds(n, filt)
    raw, classes = _class_pass(n, filt, workers)
    return CensusResult(raw=raw, iso=len(classes))


# ---------------------------------------------------------------------------
# unpruned oracle


def _flip(sigma, tau):
    return tau, sigma


def _oracle_feasible(n, filt):
    if n <= 2:
        return True
    if n == 3 and (filt.left_rows_permutations or filt.right_rows_permutations):
        return True
    return False


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
    if not _oracle_feasible(n, filt):
        raise SizeTooLarge(
            f"the unpruned oracle only covers n <= 2, or n = 3 with a "
            f"one-sided non-degeneracy filter (got n={n}, {filt.signature()})"
        )
    flipped = False
    left_perms = filt.left_rows_permutations
    right_perms = filt.right_rows_permutations
    if n == 3 and not left_perms:
        # scan the reversed solution so the big batch sits on the right side
        flipped = True
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
            if flipped:
                s, t = _flip(sigma, tau)
            else:
                s, t = sigma, tau
            sol = FiniteSolution(s, t)
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
    """None when the cell matches the frozen file (or is not frozen there),
    otherwise a mismatch description."""
    frozen = load_frozen_census()
    key = (n, filt.signature())
    if key not in frozen:
        return None
    expected = frozen[key]
    if expected == CensusResult(raw=result.raw, iso=result.iso):
        return None
    return {
        "cell": key,
        "expected": expected,
        "got": CensusResult(raw=result.raw, iso=result.iso),
    }
