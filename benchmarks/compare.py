"""Compare two sets of benchmark results of one workload.

    python3 benchmarks/run.py --workload llt-cold --seed 1 > base-1.txt   # etc.
    python3 benchmarks/compare.py --base base-*.txt --new new-*.txt

Each file holds the stdout of one run; its last line is the result
object.  For every metric this prints the median of each side, the
spread between its quartiles as a share of the median, the change of the
new median against the base median, and, for end-to-end metrics, the
verdict against the bound in BENCHMARK.json:

* ``worse`` - the new median is worse by more than the bound;
* ``unresolved`` - a side's own spread is wider than the bound, and not
  every new run beats every base run;
* ``ok`` - otherwise.

With as many new files as base files, taken as pairs in the order given,
``wins`` counts the pairs where the new run is better.  A gain is claimed
only with wins in at least nine tenths of the pairs and a change larger
than the base spread.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {path} reports {result['failed']} failed ops", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    paired = len(base) == len(new)
    print(f"{'metric':40s} {'base':>12s} {'spread':>7s} {'new':>12s} {'spread':>7s} "
          f"{'change':>8s} {'wins':>6s} verdict")
    for name in base[0]:
        b = [r[name] for r in base]
        n = [r[name] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        sign = -1 if info.get(name, {}).get("better", "lower") == "lower" else 1
        change = (mn - mb) / abs(mb) if mb else 0.0
        wins = (f"{sum(sign * (y - x) > 0 for x, y in zip(b, n))}/{len(b)}"
                if paired else "-")
        verdict = ""
        bound = info.get(name, {}).get("bound")
        if bound is not None:
            if -sign * change > bound:
                verdict = "worse"
            elif max(spread(b), spread(n)) > bound and \
                    not all(sign * (y - x) > 0 for x in b for y in n):
                verdict = "unresolved"
            else:
                verdict = "ok"
        print(f"{name:40s} {mb:12.6g} {spread(b):7.3f} {mn:12.6g} {spread(n):7.3f} "
              f"{change:+8.3f} {wins:>6s} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
