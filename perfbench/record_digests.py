"""Record the report digest of every job the given seeds generate.

    python3 perfbench/record_digests.py --seeds 0-29

Runs each distinct job once (untimed) and writes perfbench/digests.json,
a map from job key (command, arguments and job file) to the sha256 of its
report.  run.py then fails any job whose report no longer matches.  Record
only from a commit whose reports are trusted (tier-1 tests green) and
refuse to record if any job fails its other checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-29", help="range lo-hi, inclusive")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    qhact = run.load_engine()
    if qhact is None:
        print(f"error: no qhact sources under {run.SRC}", file=sys.stderr)
        return 2

    runner = run.Runner(qhact, {})
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            for seed in range(lo, hi + 1):
                jobdir = os.path.join(tmp, f"{workload}-{seed}")
                for job in workloads.generate(workload, seed, jobdir):
                    if job.key not in digests:
                        digests[job.key] = runner.run(job)[3]
            print(f"{workload}: {len(digests)} digests so far", flush=True)
    if runner.failures:
        print(json.dumps(runner.failures, indent=1), file=sys.stderr)
        return 1
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
