"""Orbit decomposition and decomposability of non-degenerate solutions.

An orbit is a minimal nonempty carrier subset closed under every left and
right translation and their inverses.  The partition is computed as the
connected components of the union of all translation images; on a finite
non-degenerate solution the translations are permutations, so forward images
already generate the closure under inverses.
"""

from dataclasses import dataclass
from itertools import product

from .core import FiniteSolution, require_nondegenerate
from .errors import NotKReductive
from .omega import is_k_reductive, permutational_levels
from .retract import Partition


@dataclass(frozen=True)
class Suborbit:
    """One orbit as a standalone solution; elements[i] is the parent carrier
    element behind local index i, in increasing parent order."""

    elements: tuple
    solution: FiniteSolution


@dataclass(frozen=True)
class OrbitDecomposition:
    partition: Partition
    suborbits: tuple

    @property
    def decomposable(self):
        """More than one element and more than one orbit."""
        return _decomposable(self.partition)


def _decomposable(partition):
    return partition.n > 1 and partition.num_blocks() > 1


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _orbit_partition(sol):
    """The orbit partition of a non-degenerate sol, the connected components
    of the translation images; non-degeneracy is the caller's to check."""
    n = sol.n
    parent = list(range(n))
    for y, x in product(range(n), repeat=2):
        for image in (sol.sigma[y][x], sol.tau[y][x]):
            a, b = _find(parent, x), _find(parent, image)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return Partition(n=n, block_of=tuple(_find(parent, x) for x in range(n)))


def orbit_decomposition(sol):
    require_nondegenerate(sol, "orbit_decomposition")
    partition = _orbit_partition(sol)
    suborbits = []
    for block in partition.blocks():
        index = {e: i for i, e in enumerate(block)}
        sub_sigma = [[index[sol.sigma[a][b]] for b in block] for a in block]
        sub_tau = [[index[sol.tau[a][b]] for b in block] for a in block]
        sub = FiniteSolution._from_tables(sub_sigma, sub_tau)
        suborbits.append(Suborbit(elements=tuple(block), solution=sub))
    return OrbitDecomposition(partition=partition, suborbits=tuple(suborbits))


def is_decomposable(sol):
    return orbit_decomposition(sol).decomposable


def orbit_theorem_levels(decomposition, k_max):
    """For every k = 1..k_max, the orbits of the decomposition whose
    restriction does not collapse towers of height k-1, with witnesses, from
    one build of each orbit's tower maps: {k: failures}.  The orbit theorem
    says the list is empty at every k the solution is k-reductive."""
    verdicts = [permutational_levels(sub.solution, k_max - 1) for sub in decomposition.suborbits]
    return {
        k: [
            (sub.elements, levels[k - 1][1])
            for sub, levels in zip(decomposition.suborbits, verdicts)
            if not levels[k - 1][0]
        ]
        for k in range(1, k_max + 1)
    }


def check_orbit_theorem(sol, k):
    """Every orbit of a non-degenerate k-reductive solution collapses towers
    of height k-1: returns the list of orbits whose restriction fails, with
    witnesses (expected empty)."""
    ok, witness = is_k_reductive(sol, k)
    if not ok:
        raise NotKReductive(f"solution is not {k}-reductive", witness=witness)
    return orbit_theorem_levels(orbit_decomposition(sol), k)[k]
