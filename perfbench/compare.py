"""Compare benchmark results written by run.py.

    python3 perfbench/compare.py --base A1.json A2.json ... --head B1.json B2.json ...

Each side is a set of result files of one workload and one trace mode.
For every metric the script prints both medians and head/base; an
end-to-end metric whose head median is worse than the base median by more
than its bound in BENCHMARK.json is marked REGRESSED, and the exit code is
then 1.  Results from different kernel backends, workloads or trace modes
are not comparable: the script refuses them with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SAME = ("workload", "trace", "kernel_backend")


class Incomparable(Exception):
    pass


def load(paths):
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def check_comparable(base, head):
    """Raise Incomparable unless every result shares workload, trace mode
    and kernel backend."""
    first = base[0]["context"]
    for res in base + head:
        for key in SAME:
            if res["context"][key] != first[key]:
                raise Incomparable(f"{key} differs: {first[key]!r} vs {res['context'][key]!r}")


def summarize(results):
    """Median, quartiles and unit of every metric over a set of results."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        out[name] = {"median": statistics.median(values), "q1": q[0], "q3": q[2],
                     "unit": results[0]["metrics"][name]["unit"], "runs": len(values)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    try:
        check_comparable(base, head)
    except Incomparable as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sb, sh = summarize(base), summarize(head)
    regressed = False
    for name, b in sb.items():
        h = sh[name]
        ratio = h["median"] / b["median"] if b["median"] else float("nan")
        mark = ""
        if name in bounds:
            worse = ratio - 1 if better[name] == "lower" else 1 - ratio
            if worse > bounds[name]["bound"]:
                mark, regressed = "REGRESSED", True
        print(f"{name:44s} {b['median']:12.6g} {h['median']:12.6g} {ratio:8.4f} "
              f"{b['unit']:6s} {mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
