"""qhact benchmark: seeded job batches through the public entry points.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the engine is imported from its `src/`.
Workloads (see workloads.py for why each exists):

  census      search jobs: matrix, affine, plane and Weyl classifications
  invariants  fixed rings, trace series and Molien checks of plane actions
  verify      module-algebra verification, max rank, compatibility, qdet

The load is a closed loop: one client in one process runs one job at a
time, each job a call into `qhact.cli.main(["<cmd>", "--job", FILE,
"--json"])` (or, for the monomial affine sweep, into
`qhact.classify.enumerate_taft_affine`).  The batch is written to disk
before any timing, then run pass after pass until --seconds is used up.
Every report is checked; a job that fails its check, exits with an
unexpected code or raises counts as failed and the run goes on.

--trace 0 prints the end-to-end metrics: wall_s (one pass over the batch,
job start to checked report, from each job's best time over the passes),
job_p50_s and job_p90_s (percentiles over the jobs of each job's best
latency), setup_s (median fresh-interpreter time until `import qhact.cli`
is done, sampled across the run) and peak_rss_mb.  --trace 1 runs the same
untraced passes, then one traced pass with wrappers on every layer
(tracing.py), then the replay micro-cases (replay.py), and prints the
per-layer metrics.  The last stdout line is one JSON object; the full
result, with run metadata, raw per-job times and report digests, goes to
.perfbench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_INTERVAL = 2.0
SETUP_MIN_LAUNCHES = 15


def load_engine():
    """Import qhact from the checkout's sources, or None when there are none."""
    if not os.path.isfile(os.path.join(SRC, "qhact", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    import qhact.cli

    return qhact


def commit_id():
    """The checked-out commit, read from .git when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_metadata(qhact, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": qhact.KERNEL_BACKEND,
        "qhact_pure": os.environ.get("QHACT_PURE", ""),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
    }


class SetupProbe:
    """Wall time of a fresh interpreter until `import qhact.cli` is done.

    Launched between jobs at most every SETUP_INTERVAL seconds, so the
    samples spread over the whole run instead of one moment of it."""

    def __init__(self):
        self.times = []
        self._next = 0.0

    def launch(self):
        code = f"import sys; sys.path.insert(0, {SRC!r}); import qhact.cli"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        self.times.append(time.perf_counter() - start)
        self._next = time.perf_counter() + SETUP_INTERVAL

    def between_jobs(self):
        if time.perf_counter() >= self._next:
            self.launch()

    def median(self):
        while len(self.times) < SETUP_MIN_LAUNCHES:
            self.launch()
        return statistics.median(self.times)


def affine_monomial(path):
    """The monomial-grid affine sweep, which the command line does not expose."""
    from qhact.classify import SearchGrid, enumerate_taft_affine
    from qhact.cyclotomic import Cyc

    with open(path) as fh:
        job = json.load(fh)
    p = [[Cyc.from_json(e) for e in row] for row in job["p"]]
    grid = SearchGrid(level=job["level"], g_shape="monomial")
    fams = enumerate_taft_affine(p, job["m"], grid)
    report = {
        "count": len(fams),
        "families": [
            {
                "tag": f.tag,
                "lambda": f.lam.to_json(),
                "grouplike": {
                    "perm": list(f.g.perm),
                    "alpha": [s.to_json() for s in f.g.scalars],
                },
                "dimension": f.dim,
            }
            for f in fams
        ],
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


class Runner:
    """Runs jobs one at a time and checks every report."""

    def __init__(self, qhact, digests):
        self.cli = qhact.cli
        self.digests = digests
        self.failures = []
        self.attempted = 0

    def run(self, job):
        """Returns (latency_s, busy_s, report bytes, digest): the time until
        the report is back and until it is checked.  Records a failure."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        reason = None
        # start every job from a clean heap, as a fresh `qhact` process would,
        # so collector pauses depend on the job and not on what ran before it
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.command == "affine-monomial":
                    code = affine_monomial(job.path)
                else:
                    code = self.cli.main([job.command, "--job", job.path, "--json", *job.extra])
        except Exception as exc:  # a raising job is a failed job, not a failed run
            code, reason = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if reason is None and code != 0:
            reason = f"exit code {code}: {err.getvalue().strip()[:300]}"
        if reason is None:
            try:
                reason = job.check(json.loads(text))
            except Exception as exc:  # a malformed report fails its job
                reason = f"report not checkable: {type(exc).__name__}: {exc}"
        if reason is None and self.digests.get(job.key, digest) != digest:
            reason = "report differs from the recorded digest"
        if reason is not None:
            self.failures.append({"job": job.name, "reason": reason})
        return latency, time.perf_counter() - start, len(text), digest

    def run_pass(self, jobs, tracer=None, setup=None):
        """One pass over the batch; returns (busy times, latencies, bytes,
        digests) in job order, where a job's busy time runs from its start
        to its checked report."""
        busy, latencies, nbytes, digests = [], [], 0, {}
        for job in jobs:
            if setup is not None:
                setup.between_jobs()
            if tracer is not None:
                tracer.start_job(job.name)
            latency, elapsed, size, digest = self.run(job)
            busy.append(elapsed)
            latencies.append(latency)
            nbytes += size
            digests[job.key] = digest
        return busy, latencies, nbytes, digests


def run_passes(runner, jobs, seconds, setup=None):
    """Passes until the next one would end after `seconds` (at least one).
    Returns each job's busy times and latencies over the passes, and the
    report digests."""
    busy, latencies, digests = [], [], {}
    start = time.perf_counter()
    while True:
        b, lat, _, digests = runner.run_pass(jobs, setup=setup)
        busy.append(b)
        latencies.append(lat)
        if time.perf_counter() - start + sum(b) > seconds:
            return list(zip(*busy)), list(zip(*latencies)), digests


def per_job_best(samples):
    """Each job's best time over the passes.  Other tenants of the machine
    only ever add time, in bursts of several seconds, so the best of a few
    passes is the steadiest estimate of what the job itself costs."""
    return [min(times) for times in samples]


def end_to_end(busy, latencies, setup_s):
    """wall_s is one pass (each job's best busy time, summed); the latency
    percentiles run over the jobs' best latencies."""
    typical = per_job_best(latencies)
    return {
        "wall_s": (sum(per_job_best(busy)), "s"),
        "job_p50_s": (statistics.median(typical), "s"),
        "job_p90_s": (statistics.quantiles(typical, n=10)[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner, jobs, jobdir, untraced_wall, stem):
    import replay
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        busy, _, nbytes, digests = runner.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    wall = sum(busy)
    tracer.write_spans(os.path.join(OUT, stem))
    metrics = tracer.layer_metrics(wall)
    metrics["cli.report_bytes"] = (nbytes, "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace_overhead_ratio"] = (wall / untraced_wall, "ratio")
    metrics.update(replay.replay(replay.record(runner, jobdir)))
    counts = {name: tracer.count(name) for name in tracer.names}
    return metrics, digests, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qhact = load_engine()
    if qhact is None:
        print(f"error: no qhact sources under {SRC}", file=sys.stderr)
        return 2

    meta = run_metadata(qhact, args)
    digests = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as fh:
            digests = json.load(fh)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    jobs = workloads.generate(args.workload, args.seed, jobdir)

    runner = Runner(qhact, digests)
    setup = None if args.trace else SetupProbe()
    busy, latencies, digests = run_passes(runner, jobs, args.seconds, setup)
    counts = None
    if args.trace:
        untraced = sum(per_job_best(busy))
        metrics, digests, counts = per_layer(runner, jobs, jobdir, untraced, stem)
    else:
        metrics = end_to_end(busy, latencies, setup.median())

    failed = len(runner.failures)
    result = {
        "meta": meta,
        "jobs": [job.name for job in jobs],
        "busy_s": busy,
        "latency_s": latencies,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": counts,
        "digests": digests,
    }
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"jobs={len(jobs)} passes={len(busy[0])} job_samples={len(jobs) * len(busy[0])} "
          f"setup_samples={len(setup.times) if setup else 0} "
          f"fail_ratio={failed / runner.attempted:.4f} ({failed}/{runner.attempted})")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure['job']}: {failure['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
