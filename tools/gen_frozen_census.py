"""Regenerate the frozen census regression file from routes that production
does not use for the cell.

The two-sided non-degenerate cells at n = 4 come from the watch-list stream
(``enumerate_solutions`` without ``up_to_iso``) with one ``canonical_form``
per solution, because production counts those cells through derived racks.
Every other cell comes from the unpruned oracle.  Never take a count from
``census`` itself: the regression test then proves the production count
reproduces an independent route on every run.

Run from the repository root:  python3 tools/gen_frozen_census.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from yangbaxter.core import canonical_form
from yangbaxter.search import (
    FROZEN_CELLS,
    CensusResult,
    EnumFilter,
    enumerate_solutions,
    format_frozen_census,
    oracle_census,
)

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "yangbaxter" / "data" / "census_frozen.txt"
WATCH_LIST_CELLS = {(4, "nd"), (4, "nd+involutive"), (4, "nd+square_free")}


def watch_list_census(n, filt):
    sols = list(enumerate_solutions(n, filt))
    return CensusResult(raw=len(sols), iso=len({canonical_form(sol) for sol in sols}))


def main():
    counts = {}
    for n, sig in FROZEN_CELLS:
        t0 = time.time()
        filt = EnumFilter.from_signature(sig)
        route = watch_list_census if (n, sig) in WATCH_LIST_CELLS else oracle_census
        counts[(n, sig)] = route(n, filt)
        print(f"n={n} {sig}: {counts[(n, sig)]} from {route.__name__} ({time.time() - t0:.1f}s)")
    OUT.write_text(format_frozen_census(counts))
    print("wrote", OUT)


if __name__ == "__main__":
    main()
