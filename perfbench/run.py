#!/usr/bin/env python3
"""Benchmark of the yangbaxter command line, driven in-process.

    python3 perfbench/run.py --workload suite-n3 --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one caller: ``yangbaxter.cli.main`` is
called with the next argument list only after the previous call returned,
with one worker and stdout captured.  A pass runs every operation of the
workload once; passes repeat while the mean pass so far still fits in
``--seconds``, and at least one pass always runs.  Every output is checked.
End-to-end times are in reference seconds (see ``speed.py``): wall time scaled
by the CPU speed sampled while it was measured, so that the host's speed swings
cancel.  Per-layer times are plain wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes (see ``tracing.py``) for the other
half, and reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with the machine description, goes to ``perfbench/out/``.

DESIGN.md beside this file records why the workloads are what they are.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DATA = HERE / "data"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import speed\n"
    "with speed.Sampler() as s:\n"
    "    t, busy = time.perf_counter(), s.busy\n"
    "    import yangbaxter.cli\n"
    "    t1, busy = time.perf_counter(), s.busy - busy\n"
    "print((t1 - t - busy) * s.scale(t, t1))\n"
)
ANALYZE_FLAGS = (
    "--diag", "--retract", "--mpl", "--mpl-prime", "--kperm", "--kred",
    "--star", "--qcycle", "--orbits", "--invert", "--max-k", "2", "--json",
)


class _Workload:
    """``make_ops`` builds the argument lists of one pass and the documents
    they read, as {path: text}; ``observe`` turns one operation's exit code
    and stdout into a record, None for a failed operation."""

    def failures(self, records):
        return records.count(None)

    def pass_digest(self, records):
        return None


@dataclass(frozen=True)
class Suite(_Workload):
    """``yangbaxter suite --n-max N``: one operation per pass."""

    name: str
    n_max: int
    populations: dict  # carrier size -> population count

    def make_ops(self, seed, workdir):
        return [["suite", "--n-max", str(self.n_max), "--json"]], {}

    def observe(self, rc, out):
        if rc != 0:
            return None
        report = json.loads(out)
        counts = {int(n): p["count"] for n, p in report["populations"].items()}
        return (report["counterexamples"] == 0 and counts == self.populations) or None


@dataclass(frozen=True)
class Census(_Workload):
    """``yangbaxter enumerate N --nd --census``: one operation per pass."""

    name: str
    n: int
    raw: int
    iso: int

    def make_ops(self, seed, workdir):
        return [["enumerate", str(self.n), "--nd", "--census", "--json"]], {}

    def observe(self, rc, out):
        if rc != 0:
            return None
        report = json.loads(out)
        return (report["raw"], report["iso"]) == (self.raw, self.iso) or None


def _invariants(report):
    """The fields of an analyze report that do not change under relabeling."""
    return {
        "properties": {k: v for k, v in report["properties"].items() if k != "witnesses"},
        "mpl": report["mpl"],
        "mpl_prime": report["mpl_prime"],
        "k_permutational": {k: v["holds"] for k, v in report["k_permutational"].items()},
        "k_reductive": {k: v["holds"] for k, v in report["k_reductive"].items()},
        "orbit_blocks": len(report["orbits"]["blocks"]),
        "qcycle_regular": report["qcycle"]["regular"],
        "star_conditions": report["star_conditions"]["holds"],
        "quotient_n": report["retract"]["quotient_n"],
    }


def _key(invariants):
    return json.dumps(invariants, sort_keys=True)


def digest(counts):
    """SHA-256 of a multiset of invariant keys, independent of order."""
    return hashlib.sha256(json.dumps(sorted(counts.items())).encode()).hexdigest()


def load_expected(path):
    data = json.loads(path.read_text())
    counts = Counter({_key(inv): c for inv, c in data["invariants"]})
    if digest(counts) != data["digest"]:
        raise ValueError(f"{path}: invariant counts do not match the recorded digest")
    return counts


def _relabel(tables, pi):
    n = len(pi)
    inv = [0] * n
    for i, v in enumerate(pi):
        inv[v] = i
    return [[pi[tables[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def _read_population(path, n):
    """(sigma, tau) table pairs, one solution per line of single digits."""
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            flat = [[int(c) for c in half] for half in line.split()]
            yield tuple([half[i * n:(i + 1) * n] for i in range(n)] for half in flat)


@dataclass(frozen=True)
class Analyze(_Workload):
    """``yangbaxter analyze DOC ...`` once per non-degenerate solution of size n.

    Set-up reads the frozen population, relabels each solution by a
    permutation drawn from the seed, serializes it as a document and shuffles
    the order.  The multiset of relabeling-invariant report fields must equal
    the frozen one.
    """

    name: str
    n: int

    def make_ops(self, seed, workdir):
        rng = random.Random(seed)
        ops, files = [], {}
        for i, (sigma, tau) in enumerate(_read_population(DATA / f"nd-n{self.n}.txt", self.n)):
            pi = list(range(self.n))
            rng.shuffle(pi)
            doc = {
                "format_version": 1,
                "kind": "solution",
                "n": self.n,
                "sigma": _relabel(sigma, pi),
                "tau": _relabel(tau, pi),
            }
            path = workdir / f"sol_{i:05d}.json"
            files[path] = json.dumps(doc)
            ops.append(["analyze", str(path), *ANALYZE_FLAGS])
        rng.shuffle(ops)
        return ops, files

    def observe(self, rc, out):
        if rc != 0:
            return None
        report = json.loads(out)
        sound = (
            report["n"] == self.n
            and not any(report["diagonal_identities"].values())
            and not any(report["diagonal_theorems"].values())
            and report["qcycle"]["round_trip_ok"]
        )
        return _key(_invariants(report)) if sound else None

    def failures(self, records):
        observed = Counter(r for r in records if r is not None)
        unexpected = observed - load_expected(DATA / f"{self.name}.json")
        return records.count(None) + sum(unexpected.values())

    def pass_digest(self, records):
        return digest(Counter(r for r in records if r is not None))


WORKLOADS = {
    w.name: w
    for w in (
        # 1 + 43 + 354 solutions: the frozen, oracle-backed census cells
        # n=1 none, n=2 none and n=3 left_nd.
        Suite("suite-n3", 3, {1: 1, 2: 43, 3: 354}),
        # 253 classes = 23 involutive + 230 non-involutive, the size-4 counts
        # of Akgun, Mereb and Vendramin, arXiv:2008.04483.
        Census("census-n4-nd", 4, 1800, 253),
        Analyze("analyze-n4-nd", 4),
        # Small variants for the self-tests; values from the frozen census.
        Suite("suite-n2", 2, {1: 1, 2: 43}),
        Census("census-n3-nd", 3, 66, 26),
        Analyze("analyze-n3-nd", 3),
    )
}


@dataclass
class Pass:
    latencies: list
    intervals: list  # (start, end) of each operation
    elapsed: float   # wall time of the pass, sampling included
    failed: int
    digest: str

    @property
    def wall(self):
        return sum(self.latencies)


def run_passes(workload, ops, seconds, tracer=None, sampler=None):
    """Closed-loop passes over ops for about seconds: a further pass starts
    only while the mean pass so far still fits, so a run's length does not
    depend on how the last pass lines up with the deadline.

    With an active sampler, the time it spent sampling is taken out of each
    latency; ``rescale`` turns the latencies into reference seconds once the
    sampler has stopped."""
    from yangbaxter import cli

    passes = []
    measured = 0.0
    op_span = tracer.name_id(f"{tracing.HARNESS}.op") if tracer else None
    while not passes or measured * (len(passes) + 1) / len(passes) <= seconds:
        if tracer:
            tracer.current_pass = len(passes)
        gc.collect()
        latencies, intervals, records = [], [], []
        for argv in ops:
            buf = io.StringIO()
            busy = sampler.busy if sampler else 0.0
            t0 = perf_counter()
            if tracer:
                span = tracer.begin(op_span)
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if tracer:
                tracer.finish(span)
            t1 = perf_counter()
            intervals.append((t0, t1))
            latencies.append(t1 - t0 - (sampler.busy - busy if sampler else 0.0))
            try:
                records.append(workload.observe(rc, buf.getvalue()))
            except (ValueError, LookupError, TypeError, AttributeError):
                records.append(None)  # output malformed or missing fields
        elapsed = intervals[-1][1] - intervals[0][0]
        passes.append(Pass(latencies, intervals, elapsed, workload.failures(records),
                           workload.pass_digest(records)))
        measured += elapsed
    return passes


def rescale(passes, sampler):
    """Latencies in reference seconds, from the speed sampled around each."""
    for p in passes:
        p.latencies = [t * sampler.scale(a, b) for t, (a, b) in zip(p.latencies, p.intervals)]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def import_seconds():
    """Import time of ``yangbaxter.cli`` in a fresh interpreter, in reference
    seconds."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout)


def set_up(workload, seed, workdir):
    """Import plus input construction, repeated; returns (ops, median
    reference seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        with speed.Sampler() as sampler:
            t0, busy = perf_counter(), sampler.busy
            ops, files = workload.make_ops(seed, workdir)
            t1, busy = perf_counter(), sampler.busy - busy
        times.append(t_import + (t1 - t0 - busy) * sampler.scale(t0, t1))
    # Writing the documents is left out of setup_s: on this kind of shared
    # disk its time varies several-fold from run to run and is not the
    # program's work.
    for path, text in files.items():
        path.write_text(text)
    return ops, statistics.median(times)


def end_to_end_metrics(passes, setup_s):
    latencies = [t for p in passes for t in p.latencies]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "latency_ms.p50": (1000 * percentile(latencies, 50), "ms"),
        "latency_ms.p99": (1000 * percentile(latencies, 99), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer_metrics(tracer, traced, untraced):
    self_s, calls = tracer.summary()
    k = len(traced)
    layer_self, layer_calls = Counter(), Counter()
    for name, t in self_s.items():
        layer = name.partition(".")[0]
        layer_self[layer] += t
        layer_calls[layer] += calls[name]
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = (layer_calls[layer] / k, "count")
        m[f"{layer}.self_s"] = (layer_self[layer] / k, "s")
    solutions = tracer.counters["search.solutions"] / k
    m["search.solutions"] = (solutions, "count")
    m["search.solutions_per_s"] = (_rate(solutions, layer_self["search"] / k), "1/s")
    for fn in ("core.validate_braid", "core.invert", "core.canonical_form"):
        m[f"{fn}.calls"] = (calls[fn] / k, "count")
        m[f"{fn}.self_s"] = (self_s[fn] / k, "s")
    for fn in ("core.properties", "omega.is_k_permutational", "omega.is_k_reductive",
               "omega.check_omega_identities"):
        m[f"{fn}.self_s"] = (self_s[fn] / k, "s")
    cases = tracer.counters["omega.identity_cases"] / k
    m["omega.identity_cases"] = (cases, "count")
    m["omega.identity_cases_per_s"] = (
        _rate(cases, self_s["omega.check_omega_identities"] / k), "1/s")
    m["omega.sampled_reports"] = (tracer.counters["omega.sampled_reports"] / k, "count")
    m["retract.check_compatibility.calls"] = (calls["retract.check_compatibility"] / k, "count")
    traced_wall = statistics.fmean(p.wall for p in traced)
    m["harness.self_s"] = (layer_self[tracing.HARNESS] / k, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.unaccounted_s"] = (traced_wall - sum(layer_self.values()) / k, "s")
    m["trace.overhead_s"] = (traced_wall - statistics.fmean(p.wall for p in untraced), "s")
    return m


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block():
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def run(workload, seed, seconds, trace):
    """Set up, measure and check one workload; returns the full result dict."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import yangbaxter.cli  # noqa: F401  (import once before timing; imports numpy)

    machine = machine_block()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = None
    try:
        ops, setup_s = set_up(workload, seed, workdir)
        if trace:
            untraced = run_passes(workload, ops, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, ops, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics = per_layer_metrics(tracer, traced, untraced)
        else:
            with speed.Sampler() as sampler:
                passes = run_passes(workload, ops, seconds, sampler=sampler)
            rescale(passes, sampler)
            metrics = end_to_end_metrics(passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_end"] = os.getloadavg()
    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if tracer:
        tracer.write(OUT / f"spans-{stem}.csv.gz")
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_elapsed_s": [p.elapsed for p in passes],
        "latency_samples": sum(len(p.latencies) for p in passes),
        "digests": sorted({p.digest for p in passes if p.digest}),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "yangbaxter" / "cli.py").is_file():
        print(f"error: no yangbaxter sources under {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("machine:", json.dumps(result["machine"]))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {result['failed']}/{result['attempted']} = {result['fail_ratio']:.6g}")
    for d in result["digests"]:
        print(f"invariant digest = {d}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
