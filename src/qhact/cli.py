"""Batch command-line front end.

One JSON job file in, one deterministic report out (JSON via --json, or a
markdown rendering derived from the same JSON).  Exit codes: 0 success /
all checks passed, 1 a verification-style check failed, 2 malformed input.

Subcommands: verify, search, compat, max-rank, invariants, qdet, suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import qdet as qdet_mod
from .classify import (
    SearchGrid,
    all_matrix_families,
    compatibility,
    enumerate_taft_affine,
    enumerate_taft_matrix,
    enumerate_taft_qplane,
    family_parameter,
    generic_affine_p,
    matrix_family,
    max_rank,
    plane_instance,
)
from .cyclotomic import Cyc, InputError, as_int, lcm, zeta
from .hopf import (
    GrouplikeAction,
    ScalarJson,
    inner_faithfulness,
    instance_from_json,
    instance_to_json,
    verify_module_algebra,
)
from .invariants import (
    FixedRingCase,
    commutativity_check,
    fixed_dims,
    is_reflection,
    molien_check,
    presentation_match,
    reflection_expected,
    series_equal,
    trace_series_direct,
    trace_series_product,
)
from .ncalg import quantum_matrix


def parse_scalar(value, q=None, field="scalar"):
    """Job scalars: integers, fraction strings, q-power strings like "q^-2"
    (relative to the job's ambient q), or full {level, coeffs} objects."""
    if isinstance(value, bool):  # an int to Python, but no scalar in a job
        raise InputError(f"{field}: expected a scalar, got {value!r}")
    if isinstance(value, int):
        return Cyc.rational(value)
    if isinstance(value, dict):
        return Cyc.from_json(value)
    if isinstance(value, str):
        s = value.strip()
        if s == "q":
            s = "q^1"
        if s.startswith("q^"):
            if q is None:
                raise InputError(f"{field}: q-power syntax needs ord_q in the job")
            try:
                e = int(s[2:])
            except ValueError as exc:
                raise InputError(f"{field}: bad exponent in {value!r}") from exc
            return q**e
        try:
            return Cyc.rational(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{field}: cannot parse scalar {value!r}") from exc
    raise InputError(f"{field}: cannot parse scalar {value!r}")


def _require(job, key, field=None):
    try:
        return job[key]
    except (KeyError, TypeError):
        raise InputError(f"missing job field: {field or key}") from None


def _require_int(job, key, low=None, high=None):
    """Integer job[key], refused outside low..high where a bound is given."""
    return as_int(_require(job, key), key, low, high)


def _flag_int(opts, flag, low):
    """The integer option --flag, or None when it is not given; refused,
    naming the flag, below low."""
    value = getattr(opts, flag.replace("-", "_"))
    if value is not None and value < low:
        raise InputError(f"--{flag} must be at least {low}, got {value}")
    return value


def _degree_bound(opts, job, default):
    """--degree-bound when given, else job["degree_bound"], else default.
    An explicit 0 counts; values below 0 are refused."""
    bound = _flag_int(opts, "degree-bound", 0)
    if bound is not None:
        return bound
    return _require_int(job, "degree_bound", 0) if "degree_bound" in job else default


def _int_list(job, key, default=None, low=None, high=None):
    """List of integers in job[key], each in low..high where a bound is
    given; required unless a default is given."""
    values = _require(job, key) if default is None else job.get(key, default)
    if not isinstance(values, list):
        raise InputError(f"job field {key}: expected a list of integers")
    return [as_int(v, f"{key}[{i}]", low, high) for i, v in enumerate(values)]


def _checks(job, default):
    """The list of check names in job["checks"], or default."""
    checks = job.get("checks", default)
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise InputError("job field checks: expected a list of check names")
    return checks


def _family_json(fam, enc):
    """The report of one family; its scalars and eta rows come from enc,
    the ScalarJson of the whole report."""
    return {
        "tag": fam.tag,
        "lambda": enc.scalar(fam.lam),
        "grouplike": {
            "perm": list(fam.g.perm),
            "alpha": [enc.scalar(s) for s in fam.g.scalars],
        },
        "dimension": fam.dim,
        "basis": [[enc.row(row) for row in x.eta] for x in fam.basis],
    }


# command handlers ----------------------------------------------------------------


def cmd_verify(job, opts):
    inst = instance_from_json(_require(job, "instance"))
    d_check = _degree_bound(opts, {}, 3)
    inner = job.get("inner_faithful", False)
    if not isinstance(inner, bool):
        raise InputError(f"job field inner_faithful: expected true or false, got {inner!r}")
    report = verify_module_algebra(inst, d_check=d_check)
    out = report.to_json()
    if inner:
        verdict = inner_faithfulness(inst)
        if isinstance(verdict, tuple):
            out["inner_faithfulness"] = {"verdict": verdict[0], "reason": verdict[1]}
        else:
            out["inner_faithfulness"] = {"verdict": verdict}
    return out, 0 if report.ok else 1


def cmd_search(job, opts):
    target = _require(job, "target")
    level = _flag_int(opts, "level", 1)
    grid = None if level is None else SearchGrid(level=level)
    if target == "matrix":
        N = _require_int(job, "N", 2)
        q = zeta(_require_int(job, "ord_q", 3))
        lam = parse_scalar(_require(job, "lambda"), q, "lambda")
        tau = job.get("tau", True)
        if not isinstance(tau, bool):
            raise InputError(f"job field tau: expected true or false, got {tau!r}")
        fams = enumerate_taft_matrix(N, q, lam, grid=grid, include_tau=tau)
        ref = q
    elif target in ("plane", "weyl"):
        k, m = _require_int(job, "k", 2), _require_int(job, "m", 3)
        fams = enumerate_taft_qplane(k, m, grid=grid, algebra=target)
        ref = None
    elif target == "affine":
        m = _require_int(job, "m")
        if "p" in job:
            rows = job["p"]
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise InputError("job field p: expected a list of lists of scalars")
            p = [[parse_scalar(e, None, "p") for e in row] for row in rows]
        else:
            p = generic_affine_p(_require_int(job, "t"), _require_int(job, "order", 3))
        fams = enumerate_taft_affine(p, m, grid=grid)
        ref = None
    else:
        raise InputError(f"unknown search target {target!r}")
    enc = ScalarJson(ref)
    out = {
        "target": target,
        "count": len(fams),
        "families": [_family_json(f, enc) for f in fams],
    }
    return out, 0


def _table_actions(job):
    target = _require(job, "target")
    if target not in ("M2", "M3", "M4"):
        raise InputError(f"unknown table target {target!r}")
    N = int(target[1])
    q = zeta(_require_int(job, "ord_q", 3))
    return N, q


def _table_family(job, N, q, kind, side):
    """The family kind on O_q(M_N), with its shifted row a or column b read
    from a_<side> or b_<side>.  A field the family does not take is refused,
    not ignored."""
    param = family_parameter(N, kind)
    for name in "ab":
        field = f"{name}_{side}"
        if field in job and (param is None or param[0] != name):
            raise InputError(f"job field {field}: family {kind} on O_q(M_{N}) takes no {name}")
    if param is None:
        return matrix_family(N, q, kind)
    name, low, high = param
    return matrix_family(N, q, kind, **{name: _require_int(job, f"{name}_{side}", low, high)})


def cmd_compat(job, opts):
    N, q = _table_actions(job)
    rows = _int_list(job, "rows", low=1, high=8)
    if len(rows) != 2:
        raise InputError("rows must be a two-element list")
    r, c = rows
    aj, ai = _table_family(job, N, q, r, "r"), _table_family(job, N, q, c, "c")
    res = compatibility(ai, aj, q)
    out = {"cell": [r, c], "i_action": ai.tag, "j_action": aj.tag}
    out.update(res.to_json(q))
    return out, 0


def cmd_maxrank(job, opts):
    target = _require(job, "target")
    if target in ("M2", "M3", "M4"):
        N, q = _table_actions(job)
        actions = all_matrix_families(N, q)
        ref = q
    elif target == "affine":
        m = _require_int(job, "m")
        p = generic_affine_p(_require_int(job, "t"), _require_int(job, "order", 3))
        actions = enumerate_taft_affine(p, m)
        ref = None
    else:
        raise InputError(f"unknown max-rank target {target!r}")
    res = max_rank(actions, ref)
    out = {
        "target": target,
        "theta": res.theta,
        "clique": [actions[v].tag for v in res.clique],
    }
    if res.witness is not None:
        rep = verify_module_algebra(res.witness)
        out["witness"] = instance_to_json(res.witness)
        out["witness_verifies"] = rep.ok
        qls = res.witness.qls
        enc = ScalarJson(ref)
        out["character_table"] = [
            [enc.scalar(chi.eval(g, res.witness.level)) for g in qls.gs] for chi in qls.chis
        ]
    return out, 0


def cmd_invariants(job, opts):
    k, m = _require_int(job, "k", 1), _require_int(job, "m", 1)
    checks = _checks(job, ["commutativity", "reflection", "trace", "molien"])
    D = _degree_bound(opts, job, 20)
    inst, mu = plane_instance(k, m)
    results = {}
    ok = True
    for check in checks:
        if check == "fixed_dims":
            results[check] = fixed_dims(inst, D)
        elif check == "commutativity":
            results[check] = commutativity_check(inst, D)
            ok = ok and results[check]
        elif check == "reflection":
            flag, xi = is_reflection(GrouplikeAction.diagonal([mu, mu**m]))
            expected = reflection_expected(mu, m)
            results[check] = {"is_reflection": flag, "expected": expected}
            ok = ok and flag == expected
        elif check == "trace":
            g = inst.gen_actions[0]
            direct = trace_series_direct(inst.pres, g, D)
            prod = trace_series_product(list(g.scalars), [1, 1], D)
            results[check] = series_equal(direct, prod)
            ok = ok and results[check]
        elif check == "molien":
            n = lcm(k, m)
            if n > 12:
                results[check] = "skipped: group order > 12"
            else:
                eq, _, dims = molien_check(inst.pres, [inst.gen_actions[0]], D)
                results[check] = {"equal": eq, "fixed_dims": dims}
                ok = ok and eq
        elif check == "match":
            case_tag = _require(job, "case")
            case = FixedRingCase(case_tag, k, m)
            matched, dims, cand = presentation_match(inst, case, D)
            results[check] = {"match": matched, "dims": dims, "candidate": cand}
            ok = ok and matched
        else:
            raise InputError(f"job field checks: unknown invariants check {check!r}")
    return {"k": k, "m": m, "degree_bound": D, "results": results}, 0 if ok else 1


def cmd_qdet(job, opts):
    N = _require_int(job, "N", 1)
    q = zeta(_require_int(job, "ord_q", 1))
    pres = quantum_matrix(N, q)
    checks = _checks(job, ["centrality", "laplace"])
    if "stability" in checks and N < 2:
        raise InputError(f"job field N: stability needs N >= 2, got {N}")
    results = {}
    ok = True
    for check in checks:
        if check == "centrality":
            results[check] = qdet_mod.centrality_check(pres)
            ok = ok and results[check]
        elif check == "laplace":
            cols = _int_list(job, "columns", list(range(N)), 0, N - 1)
            col_results = {str(c): qdet_mod.laplace_check(pres, c) for c in cols}
            results[check] = col_results
            ok = ok and all(col_results.values())
        elif check == "stability":
            wanted = set(_int_list(job, "rows", low=1, high=8)) if "rows" in job else None
            flags = {}
            for pa in all_matrix_families(N, q):
                if wanted is not None:
                    kind = int(pa.tag[1]) if pa.tag[0] in "rf" else None
                    if kind not in wanted:
                        continue
                g_fix, x_kill = qdet_mod.ideal_stability(pa.instance())
                flags[pa.tag] = {"g_fixes_det": g_fix, "x_kills_det": x_kill}
            results[check] = flags
        else:
            raise InputError(f"job field checks: unknown qdet check {check!r}")
    return {"N": N, "results": results}, 0 if ok else 1


def cmd_suite(job, opts):
    from .suite import CRITERIA, run_suite

    job = job or {}
    criteria = _int_list(job, "criteria") if "criteria" in job else None
    if criteria and not set(criteria) <= set(CRITERIA):
        raise InputError(f"criteria: unknown ids {sorted(set(criteria) - set(CRITERIA))}")
    ord_q = _require_int(job, "ord_q") if "ord_q" in job else None
    if opts.workers > 1:
        results = _run_suite_parallel(sorted(criteria or CRITERIA), ord_q, opts.workers)
    else:
        results = run_suite(criteria, ord_q=ord_q)
    ok = all(r["status"] != "fail" for r in results)
    return {"results": results, "all_pass": ok}, 0 if ok else 1


def _suite_worker(args):
    from .suite import run_suite

    cid, ord_q = args
    return run_suite([cid], ord_q=ord_q)[0]


def _run_suite_parallel(selected, ord_q, workers):
    """The selected criteria over a process pool of at most one worker per
    criterion: under fork the pool starts all its workers at once."""
    jobs = [(cid, ord_q) for cid in selected]
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_suite_worker, jobs))
    except OSError:
        results = [_suite_worker(job) for job in jobs]
    return sorted(results, key=lambda r: r["id"])


# rendering -------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(f):
    if f != f:
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "Infinity" if f > 0 else "-Infinity"
    return float.__repr__(f)


def _key_text(key):
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def report_text(obj):
    """The text of json.dumps(obj, indent=2, sort_keys=True), written
    directly: with indent set, json encodes through its pure-Python
    generator.  Values are tested in json's order (str, None, True, False,
    int, float, list or tuple, dict), a dict is sorted on its original keys
    before they are converted, and any other key or value raises TypeError.

    Report trees share objects (hopf.ScalarJson), so a container met again
    at the same indent is not written again: its text is the slice of out
    it first wrote, joined on the second meeting.  Every id in the memo is
    that of a live object inside obj, and obj must not change meanwhile."""
    out = []
    put = out.append
    done = {}  # (id, indent) -> text, or the (start, end) of its first writing

    def scalar(o):
        # json's text of a value that is no container, or None
        if isinstance(o, str):
            return _encode_str(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float_text(o)
        return None

    def write(o, nl):
        # o is no scalar: a list or tuple, a dict, or a TypeError
        mark = (id(o), len(nl))
        seen = done.get(mark)
        if seen is not None:
            if seen.__class__ is tuple:
                seen = done[mark] = "".join(out[seen[0]:seen[1]])
            put(seen)
            return
        start = len(out)
        inner = nl + "  "
        if isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            sep = "[" + inner
            for item in o:
                text = _encode_str(item) if isinstance(item, str) else scalar(item)
                if text is None:
                    put(sep)
                    write(item, inner)
                else:
                    put(sep + text)
                sep = "," + inner
            put(nl + "]")
            done[mark] = (start, len(out))
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            sep = "{" + inner
            for key, value in sorted(o.items()):
                if not isinstance(key, str):
                    key = _key_text(key)
                head = sep + _encode_str(key) + ": "
                text = _encode_str(value) if isinstance(value, str) else scalar(value)
                if text is None:
                    put(head)
                    write(value, inner)
                else:
                    put(head + text)
                sep = "," + inner
            put(nl + "}")
            done[mark] = (start, len(out))
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    text = scalar(obj)
    if text is not None:
        return text
    write(obj, "\n")
    return "".join(out)


def render_markdown(command, report):
    lines = [f"# qhact {command} report", ""]
    if command == "suite":
        lines.append("| id | criterion | status | seconds | detail |")
        lines.append("|---:|-----------|--------|--------:|--------|")
        for r in report["results"]:
            lines.append(
                f"| {r['id']} | {r['name']} | {r['status']} | {r.get('seconds', '')} | {r['detail']} |"
            )
        lines.append("")
        lines.append(f"**All pass:** {report['all_pass']}")
    elif command == "search":
        lines.append(f"Found **{report['count']}** families for target `{report['target']}`.")
        lines.append("")
        lines.append("| tag | dim |")
        lines.append("|-----|----:|")
        for fam in report["families"]:
            lines.append(f"| {fam['tag']} | {fam['dimension']} |")
    else:
        lines.append("```json")
        lines.append(report_text(report))
        lines.append("```")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "verify": cmd_verify,
    "search": cmd_search,
    "compat": cmd_compat,
    "max-rank": cmd_maxrank,
    "invariants": cmd_invariants,
    "qdet": cmd_qdet,
    "suite": cmd_suite,
}


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on the first main call and kept: parsing
    leaves no state in it, each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="qhact", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--job", help="JSON job file (omit for suite defaults)")
    parser.add_argument("--json", action="store_true", help="emit the raw JSON report")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--degree-bound", type=int, dest="degree_bound")
    parser.add_argument("--level", type=int, help="ambient level override")
    return parser


def main(argv=None):
    opts = _parser().parse_args(argv)
    if opts.workers < 1:
        print(json.dumps({"error": f"--workers must be at least 1, got {opts.workers}"}),
              file=sys.stderr)
        return 2

    job = None
    if opts.job:
        try:
            with open(opts.job) as fh:
                job = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(json.dumps({"error": f"cannot read job file: {exc}"}), file=sys.stderr)
            return 2
    elif opts.command != "suite":
        print(json.dumps({"error": "this command requires --job FILE"}), file=sys.stderr)
        return 2
    if job is not None and not isinstance(job, dict):
        print(json.dumps({"error": "the job file must hold a JSON object"}), file=sys.stderr)
        return 2

    try:
        report, code = COMMANDS[opts.command](job, opts)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    try:
        if opts.json:
            print(report_text(report))
        else:
            print(render_markdown(opts.command, report), end="")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; 1 would mean a failed check, so exit as a
        # process killed by SIGPIPE does, and let nothing else reach the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
