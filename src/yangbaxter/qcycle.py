"""Two-operation cycle structures matching left non-degenerate solutions.

A q-cycle set carries operations dot and colon subject to three mixed
distributive axioms, with every dot translation invertible; it is regular
when the colon translations are invertible too.  Left non-degenerate
solutions and q-cycle sets translate into each other by inverting left
translation rows, and the translation is bijective in both directions.
"""

from itertools import product

from .core import (
    FiniteSolution,
    _as_table,
    _braid_violations,
    _held,
    invert,
    is_permutation,
    left_nondegenerate,
    perm_inverse,
    properties,
    row_inverses,
)
from .errors import InvalidQCycle, MalformedTable, NotLeftNondegenerate


class QCycleSet:
    """Immutable dot/colon table pair; validity is checked by validate_qcycle."""

    def __init__(self, dot, colon):
        n = len(dot)
        if n == 0:
            raise MalformedTable("carrier must be nonempty")
        self.n = n
        self.dot = _as_table(dot, n, "dot")
        self.colon = _as_table(colon, n, "colon")

    @classmethod
    def _from_tables(cls, dot, colon):
        """The q-cycle set of two tables the library built itself, each n
        rows of n ints in 0..n-1, without the constructor's checks."""
        q = cls.__new__(cls)
        q.n = len(dot)
        q.dot = tuple(map(tuple, dot))
        q.colon = tuple(map(tuple, colon))
        return q

    def __eq__(self, other):
        return (
            isinstance(other, QCycleSet)
            and self.dot == other.dot
            and self.colon == other.colon
        )

    def __hash__(self):
        return hash((self.dot, self.colon))

    def __repr__(self):
        return f"QCycleSet(dot={list(map(list, self.dot))}, colon={list(map(list, self.colon))})"


def validate_qcycle(q):
    """All axiom violations: per-triple failures of the three mixed laws plus
    any dot row that is not a bijection.  Empty list means valid."""
    n = q.n
    d, c = q.dot, q.colon
    violations = []
    for x in range(n):
        if not is_permutation(d[x]):
            violations.append(("dot_row_not_bijective", (x,)))
    for x, y, z in product(range(n), repeat=3):
        if d[d[x][y]][d[x][z]] != d[c[y][x]][d[y][z]]:
            violations.append(("dot_over_dot", (x, y, z)))
        if c[d[x][y]][d[x][z]] != d[c[y][x]][c[y][z]]:
            violations.append(("colon_over_dot", (x, y, z)))
        if c[d[x][y]][c[x][z]] != c[c[y][x]][c[y][z]]:
            violations.append(("colon_over_colon", (x, y, z)))
    return violations


def is_regular(q):
    return all(is_permutation(row) for row in q.colon)


@_held
def from_solution(sol):
    """The q-cycle set of a left non-degenerate solution: dot rows are the
    inverted left translations, colon mixes the right action through them.
    It is held on sol, so every reader gets the same q-cycle set."""
    if not left_nondegenerate(sol):
        raise NotLeftNondegenerate("only left non-degenerate solutions convert")
    n = sol.n
    sig_inv = row_inverses(sol.sigma)
    dot = sig_inv
    colon = tuple(
        tuple(sol.tau[sig_inv[y][x]][y] for y in range(n)) for x in range(n)
    )
    return QCycleSet._from_tables(dot, colon)


def _solution_of(q):
    """The solution tables of q, whose dot rows are bijections; the axioms
    are not checked."""
    n = q.n
    dot_inv = tuple(perm_inverse(row) for row in q.dot)
    sigma = dot_inv
    tau = tuple(
        tuple(q.colon[dot_inv[x][y]][x] for x in range(n)) for y in range(n)
    )
    return FiniteSolution._from_tables(sigma, tau)


def to_solution(q):
    """The left non-degenerate solution of a valid q-cycle set; inverse of
    from_solution in both directions."""
    bad = validate_qcycle(q)
    if bad:
        raise InvalidQCycle(f"axioms fail, first violation {bad[0]}", witness=bad[0])
    return _solution_of(q)


def check_qcycle_correspondence(sol, q):
    """Where q = from_solution(sol) breaks the correspondence (expected none).

    Lists (name, point) pairs: the axiom violations of q; the braid
    violations and degenerate left rows of back = to_solution(q); the two
    round trips, with back as the point, when back is not sol or when back
    is left non-degenerate and from_solution(back) is not q; and, when the
    pair map of sol is bijective, the colon rows of q that do not invert the
    left rows of the inverse solution.
    """
    failures = [("qcycle_axiom", v) for v in validate_qcycle(q)]
    if failures:
        return failures
    back = _solution_of(q)
    round_trip = back == sol
    if round_trip:
        # the same tables: read the facts held on sol
        back = sol
    failures.extend(("solution_braid", v) for v in _braid_violations(back))
    degenerate = [x for x in range(back.n) if not is_permutation(back.sigma[x])]
    failures.extend(("solution_left_row", x) for x in degenerate)
    if not round_trip:
        failures.append(("solution_round_trip", back))
    if not degenerate and from_solution(back) != q:
        failures.append(("qcycle_round_trip", back))
    if not properties(sol).bijective:
        return failures
    inv = invert(sol)
    failures.extend(
        ("colon_inverts_hat_row", x)
        for x in range(q.n)
        if q.colon[x] != perm_inverse(inv.sigma[x])
    )
    return failures


def qcycle_diagonals(q):
    """The two diagonals dot[x][x] and colon[x][x] plus the carrier points
    where they fail to commute (expected none for valid q-cycle sets)."""
    n = q.n
    U = tuple(q.dot[x][x] for x in range(n))
    U_hat = tuple(q.colon[x][x] for x in range(n))
    failures = [x for x in range(n) if U[U_hat[x]] != U_hat[U[x]]]
    return U, U_hat, failures
