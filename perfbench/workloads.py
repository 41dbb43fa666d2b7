"""Seeded job batches for the qhact benchmark, and the checks on their reports.

A workload is a list of jobs.  Each job is one JSON file handed to the
`qhact` command line (in process, through `qhact.cli.main`), or, where the
command line exposes no entry point, to a public `qhact.classify` function.
The seed picks parameters among choices of equal cost, so the work a batch
does barely depends on it; every job file is written before any timing.

Each job carries the answer its report must give.  Where the paper states
the answer (family tags, maximum ranks, fixed-ring matches, determinant
identities, verification verdicts) the check compares against it; the
affine and plane census counts follow from the paper's classification.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from math import gcd

@dataclass
class Job:
    """One job: a CLI subcommand (or a direct call) on one job file."""

    name: str
    command: str  # a qhact subcommand, or "affine-monomial" for the direct call
    path: str
    extra: tuple = ()
    check: object = None  # report dict -> failure reason or None
    key: str = field(default="")


def write_job(jobdir, name, command, payload, extra=(), check=None):
    path = os.path.join(jobdir, f"{name}.json")
    text = json.dumps(payload, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text)
    key = hashlib.sha256("\0".join([command, *extra, text]).encode()).hexdigest()[:20]
    return Job(name, command, path, tuple(extra), check, key)


def _lcm(a, b):
    return a * b // gcd(a, b)


def _units(n):
    return [a for a in range(1, n) if gcd(a, n) == 1]


# ---------------------------------------------------------------------------
# checks (each returns None when the report is right, else the reason)


def _tags(report):
    return sorted(f["tag"] for f in report["families"])


def check_tags(want, report):
    got = _tags(report)
    return None if got == sorted(want) else f"tags {got} != {sorted(want)}"


def check_plane(k, m, algebra, report):
    """Plane: one (a) and one (b) family per primitive m-th root lambda.
    Weyl: (a) exactly when lambda = mu^2 and (b) when lambda = mu^-2."""
    n = _lcm(k, m)
    lam_exps = [(n // m) * j % n for j in _units(m)]
    if algebra == "plane":
        want = ["a", "b"] * len(lam_exps)
    else:
        mu2 = 2 * (n // k) % n
        want = ["a"] * lam_exps.count(mu2) + ["b"] * lam_exps.count(-mu2 % n)
    return check_tags(want, report)


def check_affine(t, m, report):
    """Generic p at t = 3: only trivial extensions of plane actions, one per
    ordered pair (i <- j) and primitive m-th root lambda, all diagonal."""
    got = _tags(report)
    want = t * (t - 1) * len(_units(m))
    if len(got) != want or any(not tag.startswith("pair(") for tag in got):
        return f"{len(got)} families {sorted(set(got))}, want {want} pair families"
    if any(f["grouplike"]["perm"] != list(range(t)) for f in report["families"]):
        return "a non-identity permutation admits an action"
    return None


def check_invariants(k, m, report):
    res = report["results"]
    if "match" in res:
        match = res["match"]
        ok = match["match"] and match["dims"] == match["candidate"]
        return None if ok else "fixed-ring dimensions do not match the presentation"
    if res["commutativity"] is not True:
        return "fixed ring not commutative"
    if res["reflection"]["is_reflection"] != res["reflection"]["expected"]:
        return "reflection dichotomy fails"
    if res["trace"] is not True:
        return "trace series routes disagree"
    if _lcm(k, m) <= 12:
        if res["molien"]["equal"] is not True:
            return "Molien identity fails"
    elif not str(res["molien"]).startswith("skipped"):
        return "Molien ran past its group-order cap"
    return None


def check_verdict(report):
    return None if report["verdict"] == "pass" else f"verdict {report['verdict']}"


def check_max_rank(theta, report):
    if report["theta"] != theta:
        return f"max rank {report['theta']} != {theta}"
    return None if report.get("witness_verifies") else "witness fails verification"


def check_compat(ord_q, cell, forced_sides, report):
    """cell: None (incompatible) or (zeta exponent, unity exponent or None)."""
    if cell is None or (cell[1] is not None and cell[1] % ord_q):
        return None if not report["compatible"] else "unexpectedly compatible"
    if not report["compatible"]:
        return "unexpectedly incompatible"
    got = report.get("zeta_as_q_power")
    if got is None or (got - cell[0]) % ord_q:
        return f"zeta q^{got} != q^{cell[0]}"
    return None if report["forced_zero"] == forced_sides else "forced zeros differ"


def check_qdet(stable, report):
    res = report["results"]
    if res["centrality"] is not True:
        return "det_q not central"
    if not all(res["laplace"].values()):
        return "Laplace expansion fails"
    for tag, flags in res["stability"].items():
        both = flags["g_fixes_det"] and flags["x_kills_det"]
        kind = int(tag[1])
        if both != (kind in stable):
            return f"stability flags of {tag} are {flags}"
    return None


# ---------------------------------------------------------------------------
# workload generators


def _conjugated_generic_p(t, order, a):
    """The generic antisymmetric matrix of the acceptance suite, Galois
    conjugated by zeta -> zeta^a: every answer and every cost class is kept."""
    from qhact.cyclotomic import zeta

    p = [[zeta(order, 0) for _ in range(t)] for _ in range(t)]
    exp = 1
    for i in range(t):
        for j in range(i + 1, t):
            p[i][j] = zeta(order, a * exp % order)
            p[j][i] = zeta(order, -a * exp % order)
            exp = exp % (order - 1) + 1
    return p


def _p_json(p):
    return [[e.to_json() for e in row] for row in p]


# lambda = q^e for the printed O_q(M_2) rows (rows 1-3: q^2, 4-6: q^-2, 7: q^4, 8: q^-4)
M2_ROWS_BY_LAMBDA = {2: (1, 2, 3), -2: (4, 5, 6), 4: (7,), -4: (8,)}
# O_q(M_3): kinds 1-4 have lambda = q^2, kinds 5-8 lambda = q^-2
M3_TAGS_BY_LAMBDA = {
    2: ("f1[b=2]", "f1[b=3]", "f2[a=2]", "f2[a=3]", "f3", "f4"),
    -2: ("f5[b=1]", "f5[b=2]", "f6[a=1]", "f6[a=2]", "f7", "f8"),
}


def census(rng, jobdir):
    jobs = []
    for ord_q in (5, 7):
        j = rng.randrange(1, ord_q)
        want = [
            f"r{r}"
            for e, rows in M2_ROWS_BY_LAMBDA.items()
            if (j - e) % ord_q == 0
            for r in rows
        ]
        payload = {"target": "matrix", "N": 2, "ord_q": ord_q, "lambda": f"q^{j}"}
        jobs.append(
            write_job(jobdir, f"m2-ord{ord_q}", "search", payload, check=partial(check_tags, want))
        )
    j = rng.choice((1, 2))
    want = [tag for e, tags in M3_TAGS_BY_LAMBDA.items() if (j - e) % 3 == 0 for tag in tags]
    payload = {"target": "matrix", "N": 3, "ord_q": 3, "lambda": f"q^{j}", "tau": False}
    jobs.append(write_job(jobdir, "m3-ord3", "search", payload, check=partial(check_tags, want)))
    for order in (5, 7):
        p = _p_json(_conjugated_generic_p(3, order, rng.choice(_units(order))))
        payload = {"target": "affine", "t": 3, "order": order, "m": order, "p": p}
        check = partial(check_affine, 3, order)
        jobs.append(write_job(jobdir, f"affine-diag-{order}", "search", payload, check=check))
        payload = {"p": p, "m": order, "level": order}
        jobs.append(write_job(jobdir, f"affine-mono-{order}", "affine-monomial", payload, check=check))
    for algebra in ("plane", "weyl"):
        for k in range(3, 7):
            for m in range(3, 7):
                payload = {"target": algebra, "k": k, "m": m}
                check = partial(check_plane, k, m, algebra)
                jobs.append(write_job(jobdir, f"{algebra}-{k}-{m}", "search", payload, check=check))
    return jobs


def invariants(rng, jobdir):
    jobs = []
    for k, m, case, degree in ((3, 6, "divides_km", 36), (6, 3, "veronese", 36), (6, 4, "hypersurface", 72)):
        payload = {"k": k, "m": m, "checks": ["match"], "case": case, "degree_bound": degree}
        check = partial(check_invariants, k, m)
        jobs.append(write_job(jobdir, f"match-{k}-{m}", "invariants", payload, check=check))
    for k in range(3, 7):
        for m in range(3, 7):
            payload = {
                "k": k,
                "m": m,
                "checks": ["commutativity", "reflection", "trace", "molien"],
                "degree_bound": 20,
            }
            check = partial(check_invariants, k, m)
            jobs.append(write_job(jobdir, f"grid-{k}-{m}", "invariants", payload, check=check))
    return jobs


def verify(rng, jobdir):
    from qhact.classify import (
        affine_pair_family,
        all_matrix_families,
        example_affine_sharp,
        example_m2_rank3,
        example_matrix_max_rank,
        example_weyl_nonfiltered,
    )
    from qhact.cyclotomic import zeta
    from qhact.hopf import dual_action, instance_to_json
    from qhact.ncalg import quantum_affine
    from qhact.suite import M2_PAIR_TABLE, MN_PAIR_SAMPLES

    jobs = []

    def add_verify(name, inst, degree):
        payload = {"instance": instance_to_json(inst)}
        extra = ("--degree-bound", str(degree)) if degree else ()
        jobs.append(write_job(jobdir, name, "verify", payload, extra, check_verdict))

    for ord_q, N, degree in ((5, 2, 4), (7, 2, 4), (5, 3, 3)):
        q = zeta(ord_q)
        for pa in all_matrix_families(N, q):
            coeffs = {lab: q ** rng.randrange(1, ord_q) for lab, _ in pa.parts}
            add_verify(f"family-M{N}-ord{ord_q}-{pa.tag}", pa.instance(coeffs), degree)
    q = zeta(5)
    add_verify("witness-m2-rank3", example_m2_rank3(q), 4)
    add_verify("witness-m3-max-rank", example_matrix_max_rank(3, q), 3)
    pres = quantum_affine(_conjugated_generic_p(3, 5, rng.choice(_units(5))))
    add_verify("witness-affine-sharp", example_affine_sharp(pres), 5)
    a = rng.choice(_units(5))
    add_verify("witness-weyl", example_weyl_nonfiltered(zeta(5, a), zeta(5, 2 * a % 5)), None)
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    for i, j in rng.sample(pairs, 4):
        lam = zeta(5, rng.choice(_units(5)))
        inst = affine_pair_family(pres, lam, i, j).instance()
        add_verify(f"koszul-dual-{i + 1}-{j + 1}", dual_action(inst), 4)

    for target, theta in (("M2", 3), ("M3", 4), ("M4", 6)):
        payload = {"target": target, "ord_q": 5}
        jobs.append(
            write_job(jobdir, f"max-rank-{target}", "max-rank", payload,
                      check=partial(check_max_rank, theta))
        )

    cells = [(r, c) for r in range(1, 9) for c in range(1, 9)]
    for r, c in rng.sample(cells, 12):
        cell = M2_PAIR_TABLE.get((r, c))
        want = None if cell is None else (cell["zeta"], cell.get("unity"))
        forced = sorted(f"{side}:{lab}" for side, lab in (cell or {}).get("forced", []))
        payload = {"target": "M2", "rows": [r, c], "ord_q": 5}
        jobs.append(
            write_job(jobdir, f"compat-M2-{r}-{c}", "compat", payload,
                      check=partial(check_compat, 5, want, forced))
        )
    for idx in rng.sample(range(len(MN_PAIR_SAMPLES)), 8):
        (ck, cargs), (rk, rargs), expected = MN_PAIR_SAMPLES[idx]
        payload = {"target": "M3", "rows": [rk, ck], "ord_q": 5}
        payload.update({f"{k}_c": v for k, v in cargs.items()})
        payload.update({f"{k}_r": v for k, v in rargs.items()})
        want = None if expected is None else (expected, None)
        jobs.append(
            write_job(jobdir, f"compat-M3-{idx}", "compat", payload,
                      check=partial(check_compat, 5, want, []))
        )

    for N, stable in ((2, {1, 2, 4, 5}), (3, {1, 2, 5, 6})):
        payload = {"N": N, "ord_q": 5, "checks": ["centrality", "laplace", "stability"]}
        jobs.append(
            write_job(jobdir, f"qdet-N{N}", "qdet", payload, check=partial(check_qdet, stable))
        )
    return jobs


GENERATORS = {"census": census, "invariants": invariants, "verify": verify}
WORKLOADS = tuple(GENERATORS)


def generate(workload, seed, jobdir):
    """Write the batch of one workload and seed into jobdir; return its jobs
    in the (seeded) order they run."""
    os.makedirs(jobdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng, jobdir)
    rng.shuffle(jobs)
    return jobs
