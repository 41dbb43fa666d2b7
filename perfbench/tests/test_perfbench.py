"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest perfbench/tests -q

The determinism test runs the benchmark in subprocesses and takes about two
minutes; `-m "not slow"` skips it.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import qhact  # noqa: E402
import qhact.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# small jobs that together reach every traced function
SMALL_JOBS = {
    "census": ("affine-diag-5", "plane-3-4", "m2-ord5"),
    "invariants": ("grid-3-3",),
    "verify": ("max-rank-M2", "qdet-N2"),
}


def _jobs(tmp_path, workload, seed=1):
    return workloads.generate(workload, seed, str(tmp_path / f"{workload}-{seed}"))


def test_wrapper_counts_equal_cprofile_ncalls(tmp_path):
    """Every binding of every traced function is wrapped: a call that
    bypassed a wrapper would show in cProfile but not in the count."""
    targets = {**{name: name for name in tracing.SPAN_TARGETS}, **tracing.COUNT_TARGETS}
    originals = {name: tracing.resolve(target) for target, name in targets.items()}
    small = [
        job
        for workload, names in SMALL_JOBS.items()
        for job in _jobs(tmp_path, workload)
        if job.name in names
    ]
    tracer = tracing.Tracer()
    runner = run.Runner(qhact, {})
    profile = cProfile.Profile()
    tracer.install()
    try:
        for job in small:
            tracer.start_job(job.name)
            profile.enable()
            runner.run(job)
            profile.disable()
    finally:
        tracer.uninstall()
    assert runner.failures == []
    stats = pstats.Stats(profile).stats
    ncalls = {key[:3]: value[1] for key, value in stats.items()}
    for name, fn in originals.items():
        code = fn.__code__
        profiled = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert tracer.count(name) == profiled, name
        assert profiled > 0, f"{name} is never reached by the small jobs"
    # wrappers are gone again
    for target, name in targets.items():
        assert tracing.resolve(target) is originals[name]


def test_failed_checks_count_without_crashing(tmp_path):
    runner = run.Runner(qhact, {})
    good = _jobs(tmp_path, "verify")[0]
    bad_input = workloads.Job("bad-input", "search", str(tmp_path / "missing.json"))
    wrong = workloads.Job(good.name, good.command, good.path, good.extra, lambda r: "wrong")
    raising = workloads.Job(good.name, good.command, good.path, good.extra, lambda r: r["nope"])
    digest = workloads.Job(good.name, good.command, good.path, good.extra, good.check, "k")
    runner.digests = {"k": "0" * 64}
    for job in (good, bad_input, wrong, raising, digest):
        runner.run(job)
    assert runner.attempted == 5
    reasons = [f["reason"] for f in runner.failures]
    assert len(reasons) == 4
    assert reasons[0].startswith("exit code 2")
    assert reasons[1] == "wrong"
    assert "KeyError" in reasons[2]
    assert "digest" in reasons[3]


def test_compare_refuses_mixed_backends(tmp_path):
    paths = []
    for backend in ("python", "cython"):
        result = {"meta": {"workload": "census", "kernel_backend": backend},
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        paths.append(tmp_path / f"{backend}.json")
        paths[-1].write_text(json.dumps(result))
    cmd = [sys.executable, os.path.join(BENCH, "compare.py"),
           "--base", str(paths[0]), "--new", str(paths[1])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "different kernel backends" in proc.stderr


def _traced(workload, seed):
    """One traced benchmark run in a fresh interpreter; returns its result."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace1.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.slow
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bound = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}["wall_s"]
    first = _traced(workload, 1)
    second = _traced(workload, 1)
    assert first["counts"] == second["counts"]
    assert first["digests"] == second["digests"]
    other = _traced(workload, 2)
    for name in ("classify.solve_skew_space", "ncalg.nf_word", "linalg.rref"):
        a, b = first["counts"][name], other["counts"][name]
        assert abs(a - b) <= bound * max(a, b), (name, a, b)
