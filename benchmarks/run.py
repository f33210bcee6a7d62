"""Benchmark of the bihooks command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload llt-cold --seed 1 --seconds 10 --trace 0

Run from any directory; the package is imported from ``src`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one untraced and one traced batch.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md next to this file.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import harness
import tracer
from harness import CROSSCHECK_SUITES, llt_ops, verify_op

# name -> (ops, whether ops read a cache that set-up fills)
WORKLOADS = {
    "llt-cold": (llt_ops, False),
    "llt-warm": (lambda: [verify_op("llt")], True),
    "crosscheck": (lambda: [verify_op(s, extra) for s, extra in CROSSCHECK_SUITES],
                   False),
}
# fresh interpreters that each time a cold import, at each sampling point:
# before each batch and after the last
IMPORT_REPEATS = 8
# a batch takes 6 to 15 s, so a median needs at least two of them
MIN_BATCHES = 2

END_TO_END = {
    "setup_s": "s", "import_s": "s", "batch_s": "s", "op_max_s": "s",
    "work_per_s": "1/s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
LRU_CACHES = ("fock._f_targets", "partitions.partitions", "partitions.bipartitions",
              "crystal.good_peel", "tableaux.graded_dimension")
SUITES = ("combinatorics", "crystal", "schur", "structure", "degrees", "words", "llt")


def per_layer_units() -> dict:
    units = {}
    for name, _, _ in tracer.SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in tracer.YIELD_COUNTED:
        units[f"{name}.yielded"] = "count"
    for name in LRU_CACHES:
        units[f"{name}.hits"] = "count"
        units[f"{name}.misses"] = "count"
    units.update({
        "fock.cache.hits": "count", "fock.cache.misses": "count",
        "fock.prefix.applications": "count", "fock.prefix.distinct": "count",
        "fock.matrix.entries": "count", "fock.matrix.max_abs_coeff": "coeff",
        "fock.matrix.degree_span": "exponent", "render.bytes_out": "B",
    })
    for suite in SUITES:
        units[f"verify.{suite}.cases"] = "count"
        units[f"verify.{suite}.failures"] = "count"
        units[f"verify.{suite}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def run_batches(cli, ops, caches, rng, seconds, cache_dir, between):
    """Closed loop, one op at a time: whole batches, each in a fresh order
    drawn from ``rng``, until ``seconds`` have passed and at least
    MIN_BATCHES are done.  ``between`` runs before each batch and after
    the last one."""
    batches = []
    t0 = time.perf_counter()
    while len(batches) < MIN_BATCHES or time.perf_counter() - t0 < seconds:
        between()
        order = list(ops)
        rng.shuffle(order)
        batches.append([harness.run_op(cli, op, caches, cache_dir) for op in order])
    between()
    return batches


def end_to_end(batches, setup_s, import_s) -> dict:
    median = statistics.median
    return {
        "setup_s": setup_s,
        "import_s": import_s,
        "batch_s": median([sum(r.seconds for r in b) for b in batches]),
        "op_max_s": median([max(r.seconds for r in b) for b in batches]),
        "work_per_s": median([sum(r.work for r in b) / sum(r.seconds for r in b)
                              for b in batches]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": sum(r.ok for b in batches for r in b)
                    / sum(len(b) for b in batches),
    }


def prefix_counts(points) -> tuple[int, int]:
    """Divided-power applications over the first approximations of every
    regular mu at the given (e, n), and the distinct prefixes among their
    reversed peel runs: the work a shared-prefix trie would still do."""
    from bihooks import crystal, fock, partitions
    applications, distinct = 0, 0
    for e, n in points:
        prefixes = set()
        for bp in partitions.bipartitions(n):
            if crystal.is_regular(bp, e):
                runs = tuple(reversed(fock.peel_runs(bp, e)))
                applications += len(runs)
                prefixes.update(runs[:k] for k in range(1, len(runs) + 1))
        distinct += len(prefixes)
    return applications, distinct


def per_layer(cli, ops, caches, rng, cache_dir, spans_path) -> tuple[dict, list]:
    """One untraced batch for the exact counters and the baseline time,
    then the same ops in the same order under the tracer."""
    order = list(ops)
    rng.shuffle(order)
    plain = [harness.run_op(cli, op, caches, cache_dir) for op in order]
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = []
        for op in order:
            trace.begin_op(op.label)
            traced.append(harness.run_op(cli, op, caches, cache_dir))
    finally:
        trace.uninstall()
    if trace.missing:
        print(f"not traced, gone from the package: {trace.missing}", file=sys.stderr)

    metrics = dict.fromkeys(per_layer_units(), 0)
    for name, tot in trace.totals().items():
        metrics[f"{name}.calls"] = tot["calls"]
        metrics[f"{name}.self_s"] = tot["self_s"]
    for name, count in trace.yielded.items():
        metrics[f"{name}.yielded"] = count
    counts = Counter()
    for r in plain:
        counts.update({k: v for k, v in r.counts.items()
                       if not k.startswith(("fock.matrix.", "verify."))})
    for name in LRU_CACHES:
        metrics[f"{name}.hits"] = counts[f"{name}.hits"]
        metrics[f"{name}.misses"] = counts[f"{name}.misses"]
    # --no-cache bypasses the cache, so every llt call computes: a miss
    basis_calls = trace.calls_by_op("fock.canonical_basis")
    for r in plain:
        calls = basis_calls[r.op.label]
        misses = calls if r.op.kind == "llt" else r.counts.get("fock.cache.misses", 0)
        metrics["fock.cache.misses"] += misses
        metrics["fock.cache.hits"] += calls - misses
        metrics["render.bytes_out"] += r.stdout_bytes
        if r.op.kind == "llt":
            metrics["fock.matrix.entries"] += r.counts.get("fock.matrix.entries", 0)
            for key in ("fock.matrix.max_abs_coeff", "fock.matrix.degree_span"):
                metrics[key] = max(metrics[key], r.counts.get(key, 0))
        else:
            suite = r.op.argv[2]
            for key in ("cases", "failures"):
                metrics[f"verify.{suite}.{key}"] = r.counts.get(f"verify.{suite}.{key}", 0)
            metrics[f"verify.{suite}.s"] = r.wall
    points = [(int(op.argv[2]), int(op.argv[4])) for op in ops if op.kind == "llt"]
    harness.reset_state(caches)
    metrics["fock.prefix.applications"], metrics["fock.prefix.distinct"] = \
        prefix_counts(points)
    metrics["trace.overhead_s"] = sum(r.wall for r in traced) - sum(r.wall for r in plain)
    trace.write(spans_path)
    return metrics, plain + traced


def fill_child(cache_dir: str):
    """The llt-warm set-up, run in a fresh process: package import, then
    the cache fill.  Prints its time on the reference host."""
    with harness.HostClock() as clock:
        harness.import_cli()
        harness.fill_cache(cache_dir)
    print(clock.scaled)


def timed_fill(cache_dir: str) -> float:
    """Time of one llt-warm set-up, scaled to the reference host."""
    _, out = harness.run_child([os.path.abspath(__file__), "--fill-child",
                                "--cache-dir", cache_dir], cache_dir)
    return float(out)


def run(args) -> tuple[dict, list]:
    make_ops, warm = WORKLOADS[args.workload]
    cli = harness.import_cli()
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=harness.WORK_ROOT)
    try:
        cache_dir = os.path.join(work, "cache")
        os.makedirs(cache_dir)
        os.environ["BIHOOKS_CACHE_DIR"] = cache_dir
        # the first import writes bytecode; users import with it present
        harness.run_child(["-c", harness.IMPORT_PROBE], cache_dir)
        # one fill costs about 20 s, so llt-warm sets up once per run
        fill_s = timed_fill(cache_dir) if warm else None
        caches = harness.discover_caches()
        rng = random.Random(args.seed)
        op_cache = cache_dir if warm else None
        if args.trace:
            harness.SAMPLING = False
            spans = os.path.join(harness.ROOT, ".bench_out",
                                 f"spans-{args.workload}.bin")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            return per_layer(cli, make_ops(), caches, rng, op_cache, spans)
        # import samples are spread over the run, so that one slow or fast
        # spell of the host does not decide import_s or setup_s
        imports = []
        batches = run_batches(
            cli, make_ops(), caches, rng, args.seconds, op_cache,
            lambda: imports.extend(harness.import_seconds(cache_dir, IMPORT_REPEATS)))
        # the lower quartile, because a stall of the host only ever adds time
        import_s = statistics.quantiles(imports, n=4)[0]
        # without a cache to fill, a set-up is one cold import
        setup_s = fill_s if warm else statistics.median(imports)
        return (end_to_end(batches, setup_s, import_s), [r for b in batches for r in b])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fill-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.fill_child:
            fill_child(args.cache_dir)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        metrics, results = run(args)
    except harness.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.op.label}: {r.detail}", file=sys.stderr)
    units = per_layer_units() if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:10s} {name:40s} {metrics[name]:>16.6g} {unit}")
    print(f"{args.workload:10s} {'(unscaled wall time of all ops)':40s} "
          f"{sum(r.wall for r in results):>16.6g} s")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
