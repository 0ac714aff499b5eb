"""Non-degenerate solutions through their derived racks.

The guitar map J(x, y) = (x, sigma_x(y)) conjugates a left non-degenerate
solution r into the map (x, y) -> (y, y |> x), where

    y |> x = sigma_y(tau_{sigma_x^-1(y)}(x)).

When r is non-degenerate, |> is a rack: every left translation
L_y(x) = y |> x is a bijection and L_y L_x = L_{L_y(x)} L_y.  Every row
sigma_x is an automorphism of the rack, and the right table follows from the
rack and the left table,

    tau_u(x) = sigma_w^-1(w |> x)   with w = sigma_x(u)

(Soloviev 2000; Lebed and Vendramin, Adv. Math. 2017).  So the
non-degenerate solutions are found rack by rack: find the classes of racks,
then the left tables whose rows are automorphisms of a class's least rack.
A relabeling that fixes 0 conjugates row 0 of a table, a rack's as well as
a solution's, so both searches start only from the least row 0 of each
conjugacy orbit (see _head_orbits).

Both are placed row by row, and each law forces rows as well as checking
them.  The rack law L_y L_x = L_{y |> x} L_y forces L_k = L_y L_x L_y^-1 as
soon as rows y and x are placed and y |> x = k.  Braid component 1,
sigma_x sigma_y = sigma_w sigma_t with w = sigma_x(y) and
t = sigma_w^-1(w |> x), forces sigma_k = sigma_w^-1 sigma_x sigma_y as soon
as rows x, y and w are placed and t = k; two placed pairs that force
different rows cut the prefix.  Every law is still checked on each row
placed.  The solution search also cuts row k when its diagonal value
U(k) = sigma_k^-1(k) equals U(x) for a placed row x < k: the diagonal maps
of a non-degenerate solution are bijections ("Diagonals of solutions of
the Yang-Baxter equation", arXiv:2402.15652), and U reads only the left
table.  The right table is read off the rack and the inverses of the left
rows, looked up by their positions in the automorphism group.  A candidate
is kept only when its right rows are permutations and ``validate_braid``
finds no violation, so the theorems can only drop solutions, never add
one; the watch-list search in ``search``, which uses neither, is the
cross-check.

Operation tables are indexed like the solution tables: op[y][x] = y |> x.
"""

from itertools import permutations

from .core import (
    FiniteSolution,
    _relabeled_table,
    perm_inverse,
    right_nondegenerate,
    validate_braid,
)


def _products(maps):
    """The product table of a list of maps closed under composition, such as
    a group of permutations or all n^n maps: entry [i][j] is the index of
    maps[i] maps[j] (maps[j] acts first)."""
    index = {row: i for i, row in enumerate(maps)}
    return [[index[tuple(map(a.__getitem__, b))] for b in maps] for a in maps]


def _inverses(group):
    """The inverse of each permutation of a group, and its position in the
    group."""
    index = {row: i for i, row in enumerate(group)}
    inverse = [perm_inverse(row) for row in group]
    return inverse, [index[row] for row in inverse]


def _only(forced):
    """The ids a row may take, given the set of ids that placed pairs force
    on it: None when none is forced, (i,) when all force row i, and ()
    when two differ."""
    if not forced:
        return None
    return tuple(forced) if len(forced) == 1 else ()


def _row_tables(n, group, heads, holds, forced=None):
    """The n-row tables with rows in group and row 0 in heads, in order, for
    which holds(rows, ids, k) accepts every prefix of rows 0..k, each with
    its ids; ids are the rows' positions in group.

    forced(rows, ids, k), when given, names the only ids row k >= 1 may
    take once rows 0..k-1 are placed: None when any row of group may come,
    an empty tuple when none can.  It only narrows the rows tried, so it
    must let through every row that holds accepts; holds still decides each
    row placed.
    """
    index = {row: i for i, row in enumerate(group)}
    rows, ids = [], []

    def place(k):
        if k == n:
            yield tuple(rows), tuple(ids)
            return
        only = forced(rows, ids, k) if forced and k else None
        if only is not None:
            options = [group[i] for i in only]
        else:
            options = heads if k == 0 else group
        for row in options:
            rows.append(row)
            ids.append(index[row])
            if holds(rows, ids, k):
                yield from place(k + 1)
            rows.pop()
            ids.pop()

    yield from place(0)


def _conjugate(row, pi, pinv):
    """The row pi row pi^-1; pinv is the inverse of pi."""
    return tuple(pi[row[j]] for j in pinv)


def _head_orbits(rows, group):
    """The orbits of rows under h -> pi h pi^-1 for the relabelings pi in
    group with pi(0) = 0, as (least row of the orbit, orbit size) pairs in
    row order; rows is sorted and closed under these conjugations.

    Such a pi carries a table with row 0 equal to h onto one with row 0
    equal to pi h pi^-1: a rack onto a rack, and a solution onto a
    solution.  When pi keeps the population (every relabeling keeps the
    racks and every filter, and an automorphism of a derived rack keeps the
    solutions over that rack) it is a bijection between the tables of
    conjugate heads.
    """
    fixing = [(pi, perm_inverse(pi)) for pi in group if pi[0] == 0]
    seen = set()
    orbits = []
    for row in rows:
        if row in seen:
            continue
        orbit = {_conjugate(row, pi, pinv) for pi, pinv in fixing}
        seen |= orbit
        orbits.append((row, len(orbit)))
    return orbits


def _racks(perms, heads):
    """The racks with row 0 in heads, as operation tables, in lexicographic
    order; perms is every permutation of the points, sorted.

    Rows are placed in order, each a permutation; the law
    L_y L_x = L_{L_y(x)} L_y for (y, x) is checked once the rows y, x and
    y |> x are all placed, and it forces row y |> x when that is the next
    row to place.
    """
    products = _products(perms)
    inverse, inverse_ids = _inverses(perms)

    def holds(op, ids, k):
        for y in range(k + 1):
            row, after = op[y], products[ids[y]]
            for x in range(k + 1):
                w = row[x]
                if w > k or (w < k and x < k and y < k):
                    continue
                if after[ids[x]] != products[ids[w]][ids[y]]:
                    return False
        return True

    def forced(op, ids, k):
        """L_k = L_y L_x L_y^-1 for each placed y with x = L_y^-1(k) placed."""
        found = set()
        for y in range(k):
            a = ids[y]
            x = inverse[a][k]
            if x < k:
                found.add(products[products[a][ids[x]]][inverse_ids[a]])
        return _only(found)

    return (op for op, _ in _row_tables(len(perms[0]), perms, heads, holds, forced))


def labeled_racks(n):
    """Every rack on {0, ..., n-1}, as its operation table, in lexicographic
    order."""
    perms = sorted(permutations(range(n)))
    return _racks(perms, perms)


def rack_classes(n):
    """The isomorphism classes of racks on n points, as (least rack of the
    class, its automorphisms) pairs in rack order.

    The automorphisms are the relabelings that fix the rack, in
    lexicographic order; a class has n! / |Aut| labeled racks.  Only the
    racks whose row 0 is the least row of its orbit under the relabelings
    that fix 0 (see _head_orbits) are searched: a class's least rack has
    such a row 0, or a relabeling fixing 0 would give a lesser one, so it is
    still the first of its class found, and its relabelings onto such a row
    0 mark the other members found later.  No other relabeling can meet the
    search, so no other is built; every automorphism keeps row 0 and is
    among them.
    """
    perms = sorted(permutations(range(n)))
    heads = [row for row, _ in _head_orbits(perms, perms)]
    reps = set(heads)
    relabelings = [(pi, perm_inverse(pi)) for pi in perms]
    seen = set()
    classes = []
    for op in _racks(perms, heads):
        if op in seen:
            continue
        images = {}
        for pi, pinv in relabelings:
            if _conjugate(op[pinv[0]], pi, pinv) in reps:
                images.setdefault(_relabeled_table(op, pi, pinv), []).append(pi)
        seen.update(images)
        classes.append((op, images[op]))
    return classes


def _right_table(rack, sigma, sinv):
    """tau_u(x) = sigma_w^-1(w |> x) with w = sigma_x(u); sinv holds the
    inverses of sigma's rows."""
    # column u of sigma lists w = sigma_x(u) for each x
    return tuple(
        tuple([sinv[w][rack[w][x]] for x, w in enumerate(column)])
        for column in zip(*sigma)
    )


def right_table(rack, sigma):
    """The right table tau_u(x) = sigma_w^-1(w |> x), w = sigma_x(u), of the
    left table sigma over the rack."""
    return _right_table(rack, sigma, [perm_inverse(row) for row in sigma])


def _solutions(rack, automorphisms, products, heads):
    """solutions(rack, automorphisms, heads), with products the product table
    of automorphisms (see _products)."""
    inverse, inverse_ids = _inverses(automorphisms)
    rack_inverse = [perm_inverse(row) for row in rack]
    # U(x) = sigma_x^-1(x) of the placed rows, by row: holds at row k reads
    # entries 0..k-1, which the depth-first search keeps for the prefix
    diagonal = [None] * len(rack)

    def holds(sigma, ids, k):
        """U injective on rows 0..k, then component 1 on each pair whose
        four rows are placed and include row k, the last placed."""
        u = inverse[ids[k]][k]
        if u in diagonal[:k]:
            return False
        diagonal[k] = u
        for x in range(k + 1):
            row, left = sigma[x], products[ids[x]]
            for y in range(k + 1):
                w = row[y]
                if w > k:
                    continue
                t = inverse[ids[w]][rack[w][x]]
                if t > k or (t < k and w < k and x < k and y < k):
                    continue
                if left[ids[y]] != products[ids[w]][ids[t]]:
                    return False
        return True

    def forced(sigma, ids, k):
        """sigma_k = sigma_w^-1 sigma_x sigma_y for each placed w whose pair
        gives t = k: w |> x = sigma_w(k) fixes x, and sigma_x(y) = w fixes y,
        both placed."""
        found = set()
        for w in range(k):
            x = rack_inverse[w][sigma[w][k]]
            if x < k:
                y = inverse[ids[x]][w]
                if y < k:
                    found.add(products[inverse_ids[ids[w]]][products[ids[x]][ids[y]]])
        return _only(found)

    for sigma, ids in _row_tables(len(rack), automorphisms, heads, holds, forced):
        sinv = [inverse[i] for i in ids]
        sol = FiniteSolution._from_tables(sigma, _right_table(rack, sigma, sinv))
        if right_nondegenerate(sol) and not validate_braid(sol):
            yield sol


def solutions(rack, automorphisms, heads):
    """The non-degenerate solutions whose derived rack is rack and whose head
    row sigma_0 is one of heads, head by head, each in lexicographic order of
    the left table.

    automorphisms is the rack's automorphism group, sorted, and heads a
    subset of it.  Every solution yielded has permutation rows on both sides
    and passed validate_braid.
    """
    return _solutions(rack, automorphisms, _products(automorphisms), heads)
