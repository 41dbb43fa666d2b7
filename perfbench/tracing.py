"""Per-layer tracing of qhact from outside the program.

Wrappers are installed at every binding of a traced function: the module
that defines it, every qhact module that imported it by name (classify binds
`act_skew_raw`, invariants binds `operator_matrix`, cli binds the drivers),
and, for the `Cyc` methods, the class and each alias such as `__rmul__`.

L2-L6 functions get spans (name, start, end, parent span, job) kept in
memory.  L0 and L1 are called millions of times, so they only get exact
call counts; their busy time comes from the replay micro-cases.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# spans for L2-L6, named <module>.<function>
SPAN_TARGETS = (
    "ncalg.nf_word", "ncalg.normalize", "ncalg.multiply",
    "hopf.act_skew_raw", "hopf.act_grouplike", "hopf.act_grouplike_raw",
    "hopf.operator_matrix", "hopf.verify_module_algebra",
    "linalg.rref", "linalg.nullspace", "linalg.s_mul", "linalg.d_mul",
    "classify.solve_skew_space", "classify.preserves_relations",
    "classify.compatibility", "classify.max_rank",
    "classify.enumerate_taft_matrix", "classify.enumerate_taft_qplane",
    "classify.enumerate_taft_affine",
    "invariants.fixed_space", "invariants.molien_check",
    "invariants.trace_series_direct", "invariants.commutativity_check",
    "qdet.centrality_check", "qdet.laplace_check", "qdet.ideal_stability",
    "cli.main",
)

# counts only, for L0 and L1: target -> metric name
COUNT_TARGETS = {
    "_kernel.conv_reduce": "kernel.conv_reduce",
    "_kernel.content": "kernel.content",
    "cyclotomic.Cyc.inv": "cyclotomic.Cyc.inv",
    "cyclotomic.Cyc.lift": "cyclotomic.Cyc.lift",
    "cyclotomic.Cyc.__mul__": "cyclotomic.Cyc.mul",
    "cyclotomic.Cyc.__init__": "cyclotomic.Cyc.new",
}

LONG_WORD = 24  # ncalg.nf_word caches words up to this length


def resolve(target):
    """The function object a target such as "cyclotomic.Cyc.inv" names."""
    module, *path = target.split(".")
    obj = sys.modules[f"qhact.{module}"]
    for part in path:
        obj = getattr(obj, part)
    return obj


def bindings(fn):
    """Every (namespace, name) in the loaded qhact modules, or in a class
    they define, that is bound to fn."""
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "qhact" and not modname.startswith("qhact."):
            continue
        spaces = [mod] + [
            v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == modname
        ]
        for space in spaces:
            for name, value in list(vars(space).items()):
                if value is fn:
                    out.append((space, name))
    return out


class Rebinder:
    """Replaces functions at all their bindings and puts them back."""

    def __init__(self):
        self._undo = []

    def replace(self, fn, wrapper):
        sites = bindings(fn)
        if not sites:
            raise RuntimeError(f"no binding found for {fn!r}")
        for space, name in sites:
            self._undo.append((space, name, fn))
            setattr(space, name, wrapper)

    def restore(self):
        for space, name, fn in reversed(self._undo):
            setattr(space, name, fn)
        self._undo.clear()


class Tracer:
    """Call counts for all targets, spans for SPAN_TARGETS, and the work
    ratios the per-layer metrics need."""

    def __init__(self):
        self.names = list(SPAN_TARGETS) + list(COUNT_TARGETS.values())
        self.calls = [0] * len(self.names)
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self.job_names = []
        self._stack = []
        self._rebinder = Rebinder()
        self.nf_long = 0
        self.nf_repeat = 0
        self._nf_seen = set()
        self._nf_pres = {}
        self.rref_rows = 0
        self.nullspace_zero = 0
        self.skew_useful = 0
        self.relations_kept = 0

    # installation ---------------------------------------------------------

    def install(self):
        observers = {
            "ncalg.nf_word": self._observe_nf_word,
            "linalg.rref": self._observe_rref,
            "linalg.nullspace": self._observe_nullspace,
            "classify.solve_skew_space": self._observe_skew,
            "classify.preserves_relations": self._observe_relations,
        }
        for nid, name in enumerate(SPAN_TARGETS):
            fn = resolve(name)
            self._rebinder.replace(fn, self._span_wrapper(fn, nid, observers.get(name)))
        for nid, target in enumerate(COUNT_TARGETS, len(SPAN_TARGETS)):
            fn = resolve(target)
            self._rebinder.replace(fn, self._count_wrapper(fn, nid))

    def uninstall(self):
        self._rebinder.restore()

    def start_job(self, name):
        self.job = len(self.job_names)
        self.job_names.append(name)
        self._nf_seen.clear()
        self._nf_pres.clear()

    def _count_wrapper(self, fn, nid):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, nid, observe):
        calls = self.calls
        stack = self._stack
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def spanned(*args, **kwargs):
            calls[nid] += 1
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return spanned

    # observers (run after the span closes, so they cost no span time) ------

    def _observe_nf_word(self, args, result):
        pres, word = args
        word = tuple(word)
        if len(word) > LONG_WORD:
            self.nf_long += 1
        # presentations stay referenced for the job, so their ids are unique
        self._nf_pres[id(pres)] = pres
        key = hash((id(pres), word))
        if key in self._nf_seen:
            self.nf_repeat += 1
        else:
            self._nf_seen.add(key)

    def _observe_rref(self, args, result):
        self.rref_rows += len(args[0])

    def _observe_nullspace(self, args, result):
        self.nullspace_zero += not result

    def _observe_skew(self, args, result):
        self.skew_useful += bool(result[1])

    def _observe_relations(self, args, result):
        self.relations_kept += bool(result)

    # results --------------------------------------------------------------

    def count(self, name):
        return self.calls[self.names.index(name)]

    def self_times(self):
        """Total self time per span name: duration minus the time child
        spans cover."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        cover = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                cover[parent] += dur[i]
        totals = [0.0] * len(SPAN_TARGETS)
        for i, nid in enumerate(self.span_name):
            totals[nid] += dur[i] - cover[i]
        return dict(zip(SPAN_TARGETS, totals))

    def write_spans(self, stem):
        """Spans go to <stem>-spans.bin as five native arrays, one after the
        other, described by <stem>-spans.json."""
        arrays = [("name", self.span_name), ("parent", self.span_parent),
                  ("job", self.span_job), ("start", self.span_start), ("end", self.span_end)]
        with open(f"{stem}-spans.bin", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(
                {
                    "names": list(SPAN_TARGETS),
                    "jobs": self.job_names,
                    "count": len(self.span_start),
                    "arrays": [[field, arr.typecode, arr.itemsize] for field, arr in arrays],
                    "clock": "time.perf_counter seconds",
                },
                fh,
            )

    def layer_metrics(self, wall):
        """Per-layer metrics of one traced pass of wall seconds."""
        c = self.count
        share = {name: t / wall for name, t in self.self_times().items()}

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("kernel.conv_reduce", "kernel.content", "cyclotomic.Cyc.inv",
                     "cyclotomic.Cyc.lift", "cyclotomic.Cyc.mul", "cyclotomic.Cyc.new"):
            out[f"{name}.calls"] = (c(name), "count")
        for name in ("ncalg.nf_word", "ncalg.normalize", "ncalg.multiply",
                     "hopf.act_skew_raw", "hopf.verify_module_algebra", "hopf.operator_matrix",
                     "linalg.rref", "linalg.s_mul", "linalg.d_mul",
                     "classify.solve_skew_space", "classify.compatibility", "classify.max_rank",
                     "cli.main"):
            out[f"{name}.calls"] = (c(name), "count")
            out[f"{name}.self_share"] = (share[name], "ratio")
        nf = c("ncalg.nf_word")
        out["ncalg.nf_word.repeat_ratio"] = (ratio(self.nf_repeat, nf), "ratio")
        out["ncalg.nf_word.long_ratio"] = (ratio(self.nf_long, nf), "ratio")
        grouplike = c("hopf.act_grouplike") + c("hopf.act_grouplike_raw")
        out["hopf.act_grouplike.calls"] = (grouplike, "count")
        out["hopf.act_grouplike.self_share"] = (
            share["hopf.act_grouplike"] + share["hopf.act_grouplike_raw"], "ratio")
        out["linalg.rref.rows_in"] = (self.rref_rows, "count")
        out["linalg.nullspace.calls"] = (c("linalg.nullspace"), "count")
        out["linalg.nullspace.zero_kernel_ratio"] = (
            ratio(self.nullspace_zero, c("linalg.nullspace")), "ratio")
        out["classify.solve_skew_space.useful_ratio"] = (
            ratio(self.skew_useful, c("classify.solve_skew_space")), "ratio")
        out["classify.preserves_relations.calls"] = (c("classify.preserves_relations"), "count")
        out["classify.preserves_relations.pass_ratio"] = (
            ratio(self.relations_kept, c("classify.preserves_relations")), "ratio")
        out["classify.enumerate.self_share"] = (
            sum(share[f"classify.enumerate_taft_{kind}"] for kind in ("matrix", "qplane", "affine")),
            "ratio")
        for name in ("invariants.fixed_space", "invariants.molien_check",
                     "invariants.trace_series_direct", "invariants.commutativity_check",
                     "qdet.centrality_check", "qdet.laplace_check", "qdet.ideal_stability"):
            out[f"{name}.self_share"] = (share[name], "ratio")
        return out
