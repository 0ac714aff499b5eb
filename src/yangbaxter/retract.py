"""Retract equivalences, quotient solutions and multipermutation levels.

Three equivalences collapse carrier elements with identical action data: the
forward relation compares the raw translation rows, the inverse relation
compares the rows of the inverse solution, and the colon relation compares
the inverse left translations together with the mixed right action
tau[sigma_z^-1(x)](z).  Quotients by the forward relation drive the retract
tower; its stabilization height gives the two multipermutation level notions.
"""

from dataclasses import dataclass
from itertools import product

from .core import (
    FiniteSolution,
    _held,
    invert,
    left_nondegenerate,
    require_nondegenerate,
    row_inverses,
    validate_braid,
)
from .errors import CompatibilityError, NotLeftNondegenerate
from .omega import SIGMA, TAU, action_table


@dataclass(frozen=True)
class Partition:
    """Blocks of an equivalence on {0..n-1}; block_of maps each element to the
    minimum of its block, so representatives are fixed points."""

    n: int
    block_of: tuple

    @staticmethod
    def from_keys(keys):
        first = {}
        block_of = []
        for x, key in enumerate(keys):
            block_of.append(first.setdefault(key, x))
        return Partition(n=len(block_of), block_of=tuple(block_of))

    def _members(self):
        """{representative: the members of its block in increasing order}."""
        groups = {}
        for x, rep in enumerate(self.block_of):
            groups.setdefault(rep, []).append(x)
        return groups

    def blocks(self):
        groups = self._members()
        return [tuple(groups[rep]) for rep in sorted(groups)]

    def same_block(self, x, y):
        return self.block_of[x] == self.block_of[y]

    def num_blocks(self):
        return len(set(self.block_of))

    def quotient(self, *tables):
        """The projection onto the blocks, numbered by increasing
        representative, and each table induced on the representatives."""
        reps = sorted(set(self.block_of))
        index = {rep: i for i, rep in enumerate(reps)}
        projection = tuple(index[rep] for rep in self.block_of)
        return projection, [[[projection[t[a][b]] for b in reps] for a in reps] for t in tables]


@dataclass(frozen=True)
class RetractResult:
    quotient: FiniteSolution
    projection: tuple


RELATION_KINDS = ("forward", "inverse", "colon")


@_held
def retract_relation(sol, kind="forward"):
    """The partition induced by one of the three row-comparison equivalences."""
    n = sol.n
    if kind == "forward":
        keys = [(sol.sigma[x], sol.tau[x]) for x in range(n)]
    elif kind == "inverse":
        inv = invert(sol)
        keys = [(inv.sigma[x], inv.tau[x]) for x in range(n)]
    elif kind == "colon":
        if not left_nondegenerate(sol):
            raise NotLeftNondegenerate("the colon relation needs left non-degeneracy")
        sig_inv = row_inverses(sol.sigma)
        keys = [
            (sol.sigma[x], tuple(sol.tau[sig_inv[z][x]][z] for z in range(n)))
            for x in range(n)
        ]
    else:
        raise ValueError(f"unknown relation kind {kind!r}")
    return Partition.from_keys(keys)


@_held
def check_compatibility(sol, partition, op):
    """First quadruple (x1, x2, y1, y2) of related subscripts and related
    arguments whose op-images land in different blocks, or None when the
    partition is compatible with the operation.  op is any action symbol name
    accepted by the tower machinery.  The witness is held on sol per
    partition and op."""
    return _first_incompatible(action_table(sol, op), partition)


def _first_incompatible(table, partition):
    """check_compatibility on the action table of the operation."""
    block_of = partition.block_of
    # compatible when every image lies in the block of its representatives'
    # image; only an incompatible partition is walked for its witness
    reps = [table[rep] for rep in block_of]
    if all(
        block_of[v] == block_of[rep_row[rep]]
        for row, rep_row in zip(table, reps)
        for v, rep in zip(row, block_of)
    ):
        return None
    n = partition.n
    members = partition._members()
    # each block's representative is its least member, so this walks the
    # related quadruples in lexicographic order
    for x1 in range(n):
        for x2 in members[block_of[x1]]:
            for y1 in range(n):
                for y2 in members[block_of[y1]]:
                    if block_of[table[x1][y1]] != block_of[table[x2][y2]]:
                        return (x1, x2, y1, y2)
    return None


@_held
def retract(sol):
    """Quotient by the forward relation with the induced tables.

    Raises CompatibilityError when the relation fails to respect one of the
    defining operations, which can happen for degenerate solutions only.
    """
    partition = retract_relation(sol, "forward")
    # the action tables of sigma and tau are the solution's own
    for op, table in ((SIGMA, sol.sigma), (TAU, sol.tau)):
        witness = _first_incompatible(table, partition)
        if witness is not None:
            raise CompatibilityError(op, witness)
    projection, (qsigma, qtau) = partition.quotient(sol.sigma, sol.tau)
    return RetractResult(quotient=FiniteSolution._from_tables(qsigma, qtau), projection=projection)


def check_retract(sol, result):
    """Where result = retract(sol) fails to be a retract (expected none).

    Lists (name, point) pairs: the braid violations of the quotient, and the
    pairs (x, y) on which the projection fails to carry sigma or tau onto the
    quotient tables.
    """
    p, q = result.projection, result.quotient
    failures = [("quotient_braid", v) for v in validate_braid(q)]
    for x, y in product(range(sol.n), repeat=2):
        if p[sol.sigma[x][y]] != q.sigma[p[x]][p[y]]:
            failures.append(("sigma_homomorphism", (x, y)))
        if p[sol.tau[x][y]] != q.tau[p[x]][p[y]]:
            failures.append(("tau_homomorphism", (x, y)))
    return failures


def is_irretractable(sol):
    return retract_relation(sol, "forward").num_blocks() == sol.n


def is_trivial(sol):
    identity = tuple(range(sol.n))
    return all(row == identity for row in sol.sigma) and all(
        row == identity for row in sol.tau
    )


@_held
def retract_tower(sol):
    """retract(sol), then the retract of each quotient in turn, up to the
    first quotient of size one or the first step that keeps the size; that
    last quotient retracts to itself, so it stands for every greater height."""
    steps, cur = [], sol
    while True:
        steps.append(retract(cur))
        if steps[-1].quotient.n in (1, cur.n):
            return tuple(steps)
        cur = steps[-1].quotient


@_held
def retract_levels(sol):
    """(mpl, mpl_prime) read from retract_tower(sol): the least heights at
    which the tower reaches one element and a trivial solution, None where
    it stabilizes first.  Height 0 is sol itself."""
    quotients = (sol, *(step.quotient for step in retract_tower(sol)))
    level = next((k for k, q in enumerate(quotients) if q.n == 1), None)
    level_prime = next((k for k, q in enumerate(quotients) if is_trivial(q)), None)
    return level, level_prime


def mpl(sol):
    """Least height at which the iterated retract collapses to one element,
    or None when the tower stabilizes on a larger irretractable solution."""
    require_nondegenerate(sol, "mpl")
    return retract_levels(sol)[0]


def mpl_prime(sol):
    """Least height at which the iterated retract becomes a trivial solution,
    possibly of size above one; None when the tower stabilizes non-trivially."""
    require_nondegenerate(sol, "mpl_prime")
    return retract_levels(sol)[1]


def check_relation_coincidence(sol):
    """For non-degenerate bijective solutions the three relations agree.

    Returns a dict with the three block tables and a list of the relation
    pairs that differ (expected empty).
    """
    require_nondegenerate(sol, "check_relation_coincidence")
    parts = {kind: retract_relation(sol, kind) for kind in RELATION_KINDS}
    disagreements = [
        (a, b)
        for i, a in enumerate(RELATION_KINDS)
        for b in RELATION_KINDS[i + 1 :]
        if parts[a].block_of != parts[b].block_of
    ]
    return {
        "blocks": {kind: parts[kind].block_of for kind in RELATION_KINDS},
        "disagreements": disagreements,
    }


def check_retract_duality(sol):
    """The retract of the inverse solution is the inverse of the retract, and
    both have the same multipermutation level.  Returns a failure dict per
    check (all entries expected empty/True)."""
    require_nondegenerate(sol, "check_retract_duality")
    inv = invert(sol)
    ret, ret_inv = retract_tower(sol)[0], retract_tower(inv)[0]
    report = {"mutually_inverse": [], "mpl_equal": []}
    if ret.projection != ret_inv.projection:
        report["mutually_inverse"].append(("projections differ", ret.projection, ret_inv.projection))
    elif invert(ret.quotient) != ret_inv.quotient:
        report["mutually_inverse"].append(
            ("quotient tables differ", ret.quotient, ret_inv.quotient)
        )
    level, level_inv = retract_levels(sol)[0], retract_levels(inv)[0]
    if level != level_inv:
        report["mpl_equal"].append((level, level_inv))
    return report
