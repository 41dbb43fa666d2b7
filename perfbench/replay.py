"""Replay micro-cases on operands recorded from real engine calls.

Two probe jobs run with recording wrappers installed: a census search (the
O_q(M_2) sweep at ord q = 5, lambda = q^2) yields `conv_reduce` operand
pairs, `Cyc.inv` operands and `rref` systems; an invariants job (the (6,4)
fixed ring to degree 40) yields the long words `nf_word` sees.  A
deterministic reservoir keeps a fixed-size sample of each.  The samples are
then replayed against the current layer code, which gives L0-L4 busy time
per operation without tracing millions of calls.
"""

from __future__ import annotations

import random
import statistics
import time
from functools import partial

import workloads
from tracing import LONG_WORD, Rebinder, resolve

PROBE_CENSUS = {"target": "matrix", "N": 2, "ord_q": 5, "lambda": "q^2"}
PROBE_INVARIANTS = {"k": 6, "m": 4, "checks": ["match"], "case": "hypersurface",
                    "degree_bound": 40}
SAMPLE = {"conv_reduce": 3000, "inv": 600, "rref": 300, "nf_word": 400}
ROUNDS = 5


class Reservoir:
    """Uniform fixed-size sample of a call stream (seeded, so repeatable)."""

    def __init__(self, size):
        self.size = size
        self.seen = 0
        self.items = []
        self._rng = random.Random(0)

    def offer(self, item_fn):
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item_fn())
        else:
            k = self._rng.randrange(self.seen)
            if k < self.size:
                self.items[k] = item_fn()


def probe_jobs(jobdir):
    """The two probe jobs, checked like any other job."""
    census = workloads.write_job(
        jobdir, "probe-census", "search", PROBE_CENSUS,
        check=partial(workloads.check_tags, ["r1", "r2", "r3"]))
    invariants = workloads.write_job(
        jobdir, "probe-invariants", "invariants", PROBE_INVARIANTS,
        check=partial(workloads.check_invariants, 6, 4))
    return census, invariants


def record(runner, jobdir):
    """Run the probe jobs with recording wrappers; return the samples."""
    samples = {kind: Reservoir(size) for kind, size in SAMPLE.items()}
    rebinder = Rebinder()

    conv = resolve("_kernel.conv_reduce")
    inv = resolve("cyclotomic.Cyc.inv")
    rref = resolve("linalg.rref")
    nf_word = resolve("ncalg.nf_word")

    def conv_rec(a, b, rows, deg):
        samples["conv_reduce"].offer(lambda: (list(a), list(b), rows, deg))
        return conv(a, b, rows, deg)

    def inv_rec(x):
        samples["inv"].offer(lambda: x)
        return inv(x)

    def rref_rec(rows):
        samples["rref"].offer(lambda: [dict(r) for r in rows])
        return rref(rows)

    def nf_rec(pres, word):
        if len(word) > LONG_WORD:
            samples["nf_word"].offer(lambda: (pres, tuple(word)))
        return nf_word(pres, word)

    census, invariants = probe_jobs(jobdir)
    try:
        rebinder.replace(conv, conv_rec)
        rebinder.replace(inv, inv_rec)
        rebinder.replace(rref, rref_rec)
        runner.run(census)
        rebinder.restore()
        rebinder.replace(nf_word, nf_rec)
        runner.run(invariants)
    finally:
        rebinder.restore()
    return {kind: r.items for kind, r in samples.items()}


def _median_round(fn):
    return statistics.median(fn() for _ in range(ROUNDS))


def replay(samples):
    """Median over rounds of the time to replay each sample."""
    import qhact._kernel as kernel
    from qhact import linalg, ncalg
    from qhact.cyclotomic import Cyc

    clock = time.perf_counter

    def conv_round():
        start = clock()
        for a, b, rows, deg in samples["conv_reduce"]:
            kernel.conv_reduce(a, b, rows, deg)
        return clock() - start

    def inv_round():
        start = clock()
        for x in samples["inv"]:
            Cyc.inv(x)
        return clock() - start

    def rref_round():
        start = clock()
        for rows in samples["rref"]:
            linalg.rref(rows)
        return clock() - start

    def fresh_words():
        fresh = {}
        words = []
        for pres, word in samples["nf_word"]:
            if id(pres) not in fresh:
                fresh[id(pres)] = ncalg.presentation_from_json(ncalg.presentation_to_json(pres))
            words.append((fresh[id(pres)], word))
        return words

    def nf_rounds():
        cold, warm = [], []
        for _ in range(ROUNDS):
            words = fresh_words()
            for times in (cold, warm):
                start = clock()
                for pres, word in words:
                    ncalg.nf_word(pres, word)
                times.append(clock() - start)
        return statistics.median(cold), statistics.median(warm)

    n = {kind: max(1, len(items)) for kind, items in samples.items()}
    nf_cold, nf_warm = nf_rounds()
    return {
        "kernel.conv_reduce.replay_us": (_median_round(conv_round) / n["conv_reduce"] * 1e6, "us"),
        "cyclotomic.Cyc.inv.replay_us": (_median_round(inv_round) / n["inv"] * 1e6, "us"),
        "linalg.rref.replay_s": (_median_round(rref_round), "s"),
        "ncalg.nf_word.replay_cold_us": (nf_cold / n["nf_word"] * 1e6, "us"),
        "ncalg.nf_word.replay_warm_us": (nf_warm / n["nf_word"] * 1e6, "us"),
    }
