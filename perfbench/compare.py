"""Compare end-to-end results of a base and a new commit, workload by workload.

    python3 perfbench/compare.py --base base/*.json --new new/*.json

Each file is a result that run.py wrote (.perfbench_out/<workload>-seed<n>-
trace0.json; copy them aside between commits).  Results from different
kernel backends are never compared: the command refuses and exits 2.

For every workload and end-to-end metric it prints each side's median and
quartiles and a verdict against the metric's bound in BENCHMARK.json:
`ok` (the new median is not worse by more than the bound), `worse`, or
`unresolved` when the base runs themselves spread wider than the bound and
the new runs do not all beat every base run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        runs.setdefault(result["meta"]["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    q1, med, q3 = quartiles(base)
    new_med = statistics.median(new)
    if sign * (new_med - med) > bound * abs(med):
        return "worse"
    if (q3 - q1) / abs(med) > bound:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        return "ok" if all_better else "unresolved"
    return "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    base, new = load(args.base), load(args.new)
    backends = {
        r["meta"]["kernel_backend"] for side in (base, new) for rs in side.values() for r in rs
    }
    if len(backends) != 1:
        print(f"error: results come from different kernel backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    print(f"backend {backends.pop()}")


    def cell(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'workload':<11} {'metric':<12} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'change':>7} {'bound':>5} verdict")
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            print(f"{workload:<11} {name:<12} {cell(bq):<32} {cell(nq):<32} "
                  f"{nq[1] / bq[1] - 1:>+7.1%} {m['bound']:>5} "
                  f"{verdict(b, n, m['bound'], m['better'] == 'lower')} (n={len(b)}/{len(n)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
