"""Span tracing of the calls between yangbaxter modules, from outside ``src/``.

``Tracer.install`` replaces every module-level function that one layer module
imported from another with a wrapper that records a span, at the name the
caller looks it up under (``yangbaxter.suite.check_omega_identities`` is
wrapped, ``yangbaxter.omega.check_omega_identities`` is not).  Calls inside a
module therefore stay unwrapped and count toward that module's self time.
Generator functions get one span per ``next()``.  Methods and class
constructors are not wrapped; their time counts toward the calling layer.

Spans are kept in flat arrays while the workload runs and are summarized and
written out only after it ends.
"""

import csv
import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Modules under src/yangbaxter that do measurable work.  ``errors`` and
# ``fixtures`` hold exception classes and constructors only.
LAYERS = (
    "cli", "documents", "suite", "search", "core",
    "omega", "retract", "diagonals", "qcycle", "orbits",
)
HARNESS = "harness"


def _count_census(result, counters):
    counters["search.solutions"] += result.raw


def _count_identities(report, counters):
    for value in report.values():
        if isinstance(value, dict) and "checked" in value:
            counters["omega.identity_cases"] += value["checked"]
            counters["omega.sampled_reports"] += value["mode"] == "sampled"


# Counts read off a layer's return value, at the same boundary as its span.
RESULT_COUNTERS = {
    "search.census": _count_census,
    "omega.check_omega_identities": _count_identities,
}
# Counts of the items a traced generator yields.
YIELD_COUNTERS = {"search.enumerate_solutions": "search.solutions"}


class Tracer:
    """Spans as (name, start, end, parent, pass id) in parallel arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.current_pass = -1
        self.counters = Counter()
        self._stack = []
        self._patched = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name):
        nid = self.name_id(name)
        begin, finish, counters = self.begin, self.finish, self.counters
        if inspect.isgeneratorfunction(fn):
            yield_key = YIELD_COUNTERS.get(name)

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = begin(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(idx)
                    if yield_key:
                        counters[yield_key] += 1
                    yield item

            return traced_gen

        on_result = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if on_result:
                on_result(result, counters)
            return result

        return traced

    def install(self):
        """Wrap every cross-module function reference, and ``cli.main``."""
        for layer in LAYERS:
            module = sys.modules[f"yangbaxter.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ == module.__name__:
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner in LAYERS:
                    self._patch(module, attr, f"{owner}.{obj.__name__}")
        # the harness looks the entry point up as ``cli.main``
        self._patch(sys.modules["yangbaxter.cli"], "main", "cli.main")

    def _patch(self, module, attr, name):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name))
        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self):
        """Self time and span count per span name, over all recorded spans.

        A span's self time is its duration minus the durations of its direct
        children, so the self times of all spans under a root add up to the
        root's duration.
        """
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        self_s = defaultdict(float)
        calls = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            self_s[name] += duration[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path):
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "pass"])
            for i in range(len(self.name)):
                out.writerow([
                    i, self.names[self.name[i]], f"{self.start[i]:.9f}",
                    f"{self.end[i]:.9f}", self.parent[i], self.pass_id[i],
                ])
