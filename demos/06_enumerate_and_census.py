"""Exhaustive enumeration on small carriers, with filters and census counts.

The production search fills the left table, then forces the right table cell
by cell against the braid identities.  An unpruned full-scan oracle checks
the same populations independently.  Census counts of non-degenerate filters
come from derived racks; counts frozen from routes independent of the census
(the oracle, and at n = 4 the cell-by-cell search) ship with the package and
every run must reproduce them bit-exactly.
"""

from collections import Counter

from yangbaxter import (
    EnumFilter,
    census,
    enumerate_solutions,
    is_decomposable,
    mpl,
    oracle_enumerate,
    properties,
)

print("population sizes at n = 2:")
for sig in ("none", "left_nd", "nd", "bijective", "nd+involutive"):
    filt = EnumFilter.from_signature(sig)
    c = census(2, filt)
    print(f"  {sig:15s} raw={c.raw:3d} up-to-iso={c.iso:3d}")

print("\npruned search vs unpruned oracle at n = 2 (must agree exactly):")
print("  equal:", list(enumerate_solutions(2)) == oracle_enumerate(2))

print("\nnon-degenerate population at n = 3, classified:")
levels = Counter()
decomposable = 0
for sol in enumerate_solutions(3, EnumFilter.from_signature("nd")):
    levels[mpl(sol)] += 1
    if is_decomposable(sol):
        decomposable += 1
print("  multipermutation levels:", dict(sorted(levels.items(), key=str)))
print("  decomposable:", decomposable)

print("\none representative per isomorphism class (n = 2, non-degenerate):")
for sol in enumerate_solutions(2, EnumFilter.from_signature("nd"), up_to_iso=True):
    p = properties(sol)
    print(f"  sigma={sol.sigma} tau={sol.tau} involutive={p.involutive}")
