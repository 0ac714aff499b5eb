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
non-degenerate solutions are found rack by rack: enumerate the racks, then
the left tables whose rows are automorphisms of the rack.  Braid component 1,
sigma_x sigma_y = sigma_w sigma_t with w = sigma_x(y) and
t = sigma_w^-1(w |> x), prunes a left table as soon as its four rows are
placed.  A candidate is kept only when its right rows are permutations and
``validate_braid`` finds no violation, so the route never rests on the
theorem alone.

Operation tables are indexed like the solution tables: op[y][x] = y |> x.
"""

from itertools import permutations, product

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
    return [[index[tuple(a[v] for v in b)] for b in maps] for a in maps]


def _row_tables(n, group, heads, holds):
    """The n-row tables with rows in group and row 0 in heads, in order, for
    which holds(rows, ids, k) accepts every prefix of rows 0..k, each with
    its ids; ids are the rows' positions in group."""
    index = {row: i for i, row in enumerate(group)}
    rows, ids = [], []

    def place(k):
        if k == n:
            yield tuple(rows), tuple(ids)
            return
        for row in heads if k == 0 else group:
            rows.append(row)
            ids.append(index[row])
            if holds(rows, ids, k):
                yield from place(k + 1)
            rows.pop()
            ids.pop()

    yield from place(0)


def labeled_racks(n):
    """Every rack on {0, ..., n-1}, as its operation table, in lexicographic
    order.

    Rows are placed in order, each a permutation; the law
    L_y L_x = L_{L_y(x)} L_y for (y, x) is checked once the rows y, x and
    y |> x are all placed.
    """
    perms = sorted(permutations(range(n)))
    products = _products(perms)

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

    return (op for op, _ in _row_tables(n, perms, perms, holds))


def rack_classes(n):
    """The isomorphism classes of racks on n points, as (least rack of the
    class, its automorphisms) pairs in rack order.

    The automorphisms are the relabelings that fix the rack, in
    lexicographic order; a class has n! / |Aut| labeled racks.
    """
    relabelings = [(pi, perm_inverse(pi)) for pi in permutations(range(n))]
    seen = set()
    classes = []
    for op in labeled_racks(n):
        if op in seen:
            continue
        images = {}
        for pi, pinv in relabelings:
            images.setdefault(_relabeled_table(op, pi, pinv), []).append(pi)
        seen.update(images)
        classes.append((op, images[op]))
    return classes


def right_table(rack, sigma):
    """The right table tau_u(x) = sigma_w^-1(w |> x), w = sigma_x(u), of the
    left table sigma over the rack."""
    n = len(rack)
    sinv = [perm_inverse(row) for row in sigma]
    return tuple(
        tuple(sinv[sigma[x][u]][rack[sigma[x][u]][x]] for x in range(n))
        for u in range(n)
    )


def solutions(rack, automorphisms, heads):
    """The non-degenerate solutions whose derived rack is rack and whose head
    row sigma_0 is one of heads, head by head, each in lexicographic order of
    the left table.

    automorphisms is the rack's automorphism group, sorted, and heads a
    subset of it.  Every solution yielded has permutation rows on both sides
    and passed validate_braid.
    """
    products = _products(automorphisms)
    inverse = [perm_inverse(row) for row in automorphisms]

    def holds(sigma, ids, k):
        """Component 1 on each pair whose four rows are placed and include
        row k, the last placed."""
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

    for sigma, _ in _row_tables(len(rack), automorphisms, heads, holds):
        sol = FiniteSolution(sigma, right_table(rack, sigma))
        if right_nondegenerate(sol) and not validate_braid(sol):
            yield sol
