"""Benchmark harness for isodelaunay.

    python3 bench/run.py --workload region_pipeline --seed 1 --seconds 30 --trace 0

Runs one workload in this process, single-threaded, on inputs generated from
the seed, for the given number of seconds, and checks every answer against
the oracles in ``oracles.py``.  Timed metrics are speed-normalised
seconds (see ``clock.py``): the host's speed is sampled during every timed
interval and the interval is scaled to a fixed reference speed.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See README.md beside this file for what each metric
means.
"""

import time

T_START = time.perf_counter()

import os

# Cap every BLAS/OpenMP pool at one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

from clock import Probe, WallClock
from spans import ROOT_SPAN, NullRecorder, Recorder, per_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("ribbon", "homology", "angles", "matching", "region", "develop",
           "origami", "surgery", "cli")
SETUP_REPEATS = 5
# the tail is the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10

# per-layer self-time metrics and the span names each one sums
SELF_TIME_SPANS = {
    "region.analyze": ("region.analyze",),
    "region.sample": ("region.sample",),
    "region.build_polytope": ("region.build_polytope",),
    "origami.enumerate": ("origami.enumerate",),
    "origami.network": ("origami.network",),
    "origami.build_graph": ("origami.build_graph",),
    "matching.find": ("matching.find",),
    "matching.verify": ("matching.verify",),
    "homology.cycle_basis": ("homology.cycle_basis",),
    "develop.make_delaunay": ("develop.make_delaunay",),
    "develop.develop": ("develop.develop",),
    "develop.is_geometric_delaunay": ("develop.is_geometric_delaunay",),
    "develop.angles_of": ("develop.angles_of",),
    "angles.holonomy": ("angles.holonomy", "angles.is_trivial_holonomy"),
    "ribbon.validate": ("ribbon.validate",),
    "ribbon.topology": ("ribbon.topology",),
    "surgery.sum_matchings": ("surgery.sum_matchings",),
    "cli.run": ("cli.run",),
}
CALL_COUNTS = ("matching.find", "matching.verify", "homology.cycle_basis")
# counters that check() returns, with their units
COUNTERS = {
    "region.lp_rows": "count",
    "region.lp_cols": "count",
    "region.sample_yield": "ratio",
    "origami.classes": "count",
    "matching.find.found_ratio": "ratio",
    "matching.find.complete_ratio": "ratio",
    "homology.rank": "count",
    "develop.flips": "count",
    "develop.degenerate_edges": "count",
    "angles.holonomy.calls": "count",
    "angles.max_holonomy_dev": "abs",
    "cli.stdout_bytes": "B",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("region_pipeline", "origami_sweep", "flip_develop"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import the library from this checkout's src/, and nothing else."""
    if not (SRC / "isodelaunay" / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {SRC / 'isodelaunay'}")
    sys.path.insert(0, str(SRC))
    import isodelaunay
    import workloads

    if Path(isodelaunay.__file__).resolve().parent != (SRC / "isodelaunay").resolve():
        sys.exit(f"bench: imported isodelaunay from {isodelaunay.__file__}, not {SRC}")
    return workloads


class Tally:
    """Op times, failures and counters of one run.

    ``times`` are the clock's seconds (speed-normalised under a ``Probe``),
    ``wall`` the same ops in wall seconds.
    """

    def __init__(self):
        self.times: list[float] = []
        self.wall: list[float] = []
        self.surfaces: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.counters: dict[int, dict] = {}

    def run(self, wl, clock, rec, inp, op_id: int) -> None:
        """One op, timed, then its checks; an exception or a failed check fails it."""
        self.attempted += 1
        try:
            mark = clock.mark()
            with rec.op(op_id):
                out = wl.op(rec, inp)
            interval = clock.since(mark)
            self.counters[op_id] = wl.check(inp, out)
        except Exception:
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return
        self.times.append(interval.seconds)
        self.wall.append(interval.wall)
        self.surfaces.append(wl.surfaces(inp))


def setup(wl, clock, seed: int):
    """Generate inputs and run the warm-up op, SETUP_REPEATS times.

    Returns the inputs, their digest, the median seconds of one repeat and
    whether the warm-ups passed and every repeat produced the same inputs.
    """
    import inputs

    seconds, digests, ok = [], set(), True
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        pool = wl.make_inputs(seed)
        warm = Tally()
        warm.run(wl, WallClock(), NullRecorder(), wl.warmup_input(seed), -1)
        seconds.append(clock.since(mark).seconds)
        digests.add(inputs.digest(pool))
        ok = ok and warm.failed == 0
    return pool, min(digests), statistics.median(seconds), ok and len(digests) == 1


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it, but never below the median: a run of fewer than
    2 * TAIL_BEYOND + 1 ops supports no tail above the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def throughput(times: list[float], surfaces: list[int], cycle: int) -> float:
    """Surfaces per second over the longest run of whole input-mix cycles.

    A run that stops part-way through a cycle would otherwise weigh the
    sizes at the start of the cycle more than the mix states; a run shorter
    than one cycle counts every op.
    """
    n = len(times) - len(times) % cycle or len(times)
    return sum(surfaces[:n]) / sum(times[:n])


def quartiles(times: list[float]) -> list[float]:
    if len(times) < 2:
        return [times[0]] * 3
    return statistics.quantiles(times, n=4)


def out_of_time(start: float, seconds: float, wall: list[float]) -> bool:
    """True once a further op of median wall length would end after ``seconds``."""
    typical = statistics.median(wall) if wall else 0.0
    return time.perf_counter() - start + typical > seconds


def measure(wl, probe: Probe, pool, seconds: float) -> Tally:
    rec = NullRecorder()
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while i == 0 or not out_of_time(start, seconds, tally.wall):
        tally.run(wl, probe, rec, pool[i % len(pool)], i)
        i += 1
    return tally


def measure_traced(wl, pool, seconds: float):
    """Each input once untraced and once traced, alternating which goes first.

    Span and op times here are wall seconds: no probe runs, so no sample
    lands inside a span.
    """
    rec, null, clock = Recorder(), NullRecorder(), WallClock()
    traced, plain = Tally(), Tally()
    start = time.perf_counter()
    i = 0
    while i == 0 or not out_of_time(start, seconds, [a + b for a, b in zip(traced.wall, plain.wall)]):
        inp = pool[i % len(pool)]
        order = ((plain, null), (traced, rec)) if i % 2 == 0 else ((traced, rec), (plain, null))
        for tally, recorder in order:
            tally.run(wl, clock, recorder, inp, i)
        i += 1
    return rec, traced, plain


def layer_metrics(rec, traced: Tally, plain: Tally) -> dict:
    ops = {op: names for op, names in per_op(rec.spans).items()
           if op in traced.counters}
    metrics = {}

    def median_of(values, unit):
        return {"value": statistics.median(values) if values else 0.0, "unit": unit}

    for metric, names in SELF_TIME_SPANS.items():
        per_op_self = [sum(spans[n][0] for n in names if n in spans)
                       for spans in ops.values() if any(n in spans for n in names)]
        metrics[f"{metric}.self_s"] = median_of(per_op_self, "s")
    for metric in CALL_COUNTS:
        calls = [spans[metric][1] for spans in ops.values() if metric in spans]
        metrics[f"{metric}.calls"] = median_of(calls, "count")
    for name, unit in COUNTERS.items():
        values = [c[name] for c in traced.counters.values() if name in c]
        metrics[name] = median_of(values, unit)
    rates = [traced.counters[op]["develop.flips"] / spans["develop.make_delaunay"][0]
             for op, spans in ops.items() if "develop.make_delaunay" in spans]
    metrics["develop.flips_per_s"] = median_of(rates, "1/s")
    # share of each op's wall time that its module spans cover
    roots = [s for s in rec.spans if s.name == ROOT_SPAN and s.op in ops]
    coverage = [1.0 - ops[s.op][ROOT_SPAN][0] / (s.end - s.start) for s in roots]
    metrics["trace.coverage"] = median_of(coverage, "ratio")
    if traced.times and plain.times:
        ratio = statistics.median(traced.times) / statistics.median(plain.times)
    else:
        ratio = 0.0
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    total = 0
    for path in sorted((SRC / "isodelaunay").glob("*.py")):
        lines = sum(1 for line in path.read_text().splitlines()
                    if line.strip() and not line.strip().startswith("#"))
        total += lines
        if path.stem in MODULES:
            metrics[f"sloc.{path.stem}"] = {"value": lines, "unit": "lines"}
    metrics["sloc.total"] = {"value": total, "unit": "lines"}
    return metrics


def environment() -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    probe = Probe()
    probe.start()
    try:
        return bench(args, probe)
    finally:
        probe.stop()


def bench(args, probe: Probe) -> int:
    # the standard-library imports above the probe's start count as wall time
    mark = probe.mark()
    before_probe_s = mark.wall - T_START
    workloads = import_library()
    import_s = before_probe_s + probe.since(mark).seconds
    wl = workloads.WORKLOADS[args.workload]
    pool, digest, setup_once_s, setup_ok = setup(wl, probe, args.seed)
    setup_s = import_s + setup_once_s
    report = {"workload": args.workload, "seed": args.seed, "inputs": len(pool),
              "inputs_digest": digest, "trace": args.trace, "env": environment()}

    if args.trace:
        probe.stop()
        rec, traced, plain = measure_traced(wl, pool, args.seconds)
        attempted = traced.attempted + plain.attempted
        failed = traced.failed + plain.failed
        metrics = layer_metrics(rec, traced, plain)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        rec.write(spans_path)
        report.update(ops=len(traced.times), spans=len(rec.spans),
                      spans_file=str(spans_path.relative_to(ROOT)))
    else:
        tally = measure(wl, probe, pool, args.seconds)
        probe.stop()
        attempted, failed = tally.attempted, tally.failed
        times = tally.times or [0.0]
        q1, _, q3 = quartiles(times)
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "surfaces_per_s": {"value": throughput(tally.times, tally.surfaces, wl.cycle)
                               if tally.times else 0.0,
                               "unit": "1/s"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        report.update(ops=len(tally.times), op_s_q1=q1, op_s_q3=q3, op_s_tail_pct=tail_pct,
                      op_s=[round(t, 4) for t in tally.times],
                      op_wall_s=[round(t, 4) for t in tally.wall],
                      probe_samples=len(probe.slices),
                      probe_slice_s_median=statistics.median(probe.slices),
                      surfaces=sum(tally.surfaces), timed_s=sum(tally.times),
                      fail_ratio=failed / attempted, setup_import_s=import_s,
                      setup_repeat_s=setup_once_s)
    print(json.dumps(report, sort_keys=True))
    result = {"correct": setup_ok and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
