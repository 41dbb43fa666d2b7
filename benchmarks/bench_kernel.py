"""Benchmark the compiled cyclotomic kernel against the pure-Python twin.

Micro benchmarks time conv_reduce directly on both implementations, and
Cyc.__mul__ (on the kernel in use) for each class of operands: a factor
+-1, two roots of unity, and two general values.  The end-to-end benchmark
reruns a representative engine workload in a subprocess with QHACT_PURE=1
and compares wall-clock times.

Run:  python3 benchmarks/bench_kernel.py [--end-to-end]
"""

import argparse
import os
import random
import subprocess
import sys
import time

from qhact import _cycore_py
from qhact.cyclotomic import Cyc, _ctx, zeta

try:
    from qhact import _cycore
except ImportError:
    _cycore = None


def bench_conv(impl, level, reps, seed=1234):
    rng = random.Random(seed)
    deg, _, rows = _ctx(level)
    vecs = [
        (
            [rng.randrange(-999, 1000) for _ in range(deg)],
            [rng.randrange(-999, 1000) for _ in range(deg)],
        )
        for _ in range(64)
    ]
    start = time.perf_counter()
    for r in range(reps):
        a, b = vecs[r % 64]
        impl.conv_reduce(a, b, rows, deg)
    return time.perf_counter() - start


def mul_operands(level, seed=1234):
    """64 operand pairs per class at one level: (+-1, x), (root, root) and
    (general, general), x and general values with small random integer
    coefficients over a small denominator."""
    rng = random.Random(seed)
    deg = _ctx(level)[0]

    def general():
        return Cyc(level, [rng.randrange(-9, 10) for _ in range(deg)], rng.randrange(1, 6))

    def root():
        return zeta(level, rng.randrange(level)) * rng.choice((1, -1))

    units = (Cyc.one(level), -Cyc.one(level))
    return {
        "+-1 * x": [(rng.choice(units), general()) for _ in range(64)],
        "root * root": [(root(), root()) for _ in range(64)],
        "general": [(general(), general()) for _ in range(64)],
    }


def bench_mul(pairs, reps):
    """Microseconds per Cyc.__mul__ call over the pairs, best of 3 rounds."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        for r in range(reps):
            a, b = pairs[r % 64]
            a * b
        t = (time.perf_counter() - start) / reps * 1e6
        best = t if best is None else min(best, t)
    return best


WORKLOAD = """
import time
from qhact import KERNEL_BACKEND
from qhact.cyclotomic import zeta
from qhact.classify import enumerate_taft_matrix, plane_instance
from qhact.invariants import fixed_dims

start = time.perf_counter()
q = zeta(5)
enumerate_taft_matrix(2, q, q * q)
inst, _ = plane_instance(6, 4)
fixed_dims(inst, 48)
print(f"{KERNEL_BACKEND} workload: {time.perf_counter() - start:.2f}s")
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--end-to-end", action="store_true")
    parser.add_argument("--reps", type=int, default=20000)
    args = parser.parse_args()

    print(f"{'level':>6} {'deg':>4} {'python':>10} {'cython':>10} {'speedup':>8}", flush=True)
    for level in (5, 7, 12, 23, 36):
        deg = _ctx(level)[0]
        t_py = bench_conv(_cycore_py, level, args.reps)
        if _cycore is not None:
            t_cy = bench_conv(_cycore, level, args.reps)
            print(
                f"{level:>6} {deg:>4} {t_py:>9.3f}s {t_cy:>9.3f}s {t_py / t_cy:>7.2f}x",
                flush=True,
            )
        else:
            print(f"{level:>6} {deg:>4} {t_py:>9.3f}s {'n/a':>10} {'n/a':>8}")

    print(f"\nCyc.__mul__, us per call:\n{'level':>6} {'class':>12} {'us':>8}", flush=True)
    for level in (5, 12, 35):
        for name, pairs in mul_operands(level).items():
            print(f"{level:>6} {name:>12} {bench_mul(pairs, args.reps):>8.2f}", flush=True)

    if args.end_to_end:
        print("\nend-to-end (matrix search + fixed-ring dims):", flush=True)
        for pure in (False, True):
            env = dict(os.environ)
            if pure:
                env["QHACT_PURE"] = "1"
            else:
                env.pop("QHACT_PURE", None)
            subprocess.run([sys.executable, "-c", WORKLOAD], env=env, check=True)


if __name__ == "__main__":
    main()
