"""The reproduction suite: one callable per acceptance criterion.

Each criterion function returns a dict with id, name, status (pass / fail /
skip), and a detail string; run_suite executes a selection and attaches
wall-clock runtimes.  All comparisons are exact.
"""

from __future__ import annotations

import random
import time

from .cyclotomic import Cyc, as_q_power, lcm, root_of_unity, zeta
from . import linalg, qdet
from .classify import (
    SUPPORT_CAP,
    CompatResult,
    _diag_candidates,
    _grouplike,
    all_matrix_families,
    compatibility,
    enumerate_taft_affine,
    enumerate_taft_matrix,
    enumerate_taft_qplane,
    example_affine_sharp,
    example_m2_rank3,
    example_matrix_max_rank,
    example_weyl_nonfiltered,
    generic_affine_p,
    m2_family,
    max_rank,
    mn_family,
    plane_instance,
    primitive_lambdas,
    respects_filtration,
    solve_power_scalar,
    solve_skew_space,
    spans_equal,
    verify_family,
)
from .hopf import (
    GrouplikeAction,
    TaftSpec,
    dual_action,
    eta_from_entries,
    inner_faithfulness,
    operator_matrix,
    taft_instance,
    verify_module_algebra,
)
from .invariants import (
    FixedRingCase,
    commutativity_check,
    is_reflection,
    molien_check,
    presentation_match,
    reflection_expected,
    series_equal,
    trace_series_direct,
    trace_series_product,
)
from .ncalg import (
    confluence_check,
    multiply,
    normalize,
    quantized_weyl,
    quantum_affine,
    quantum_exterior,
    quantum_matrix,
)


def _result(cid, name, ok, detail=""):
    return {
        "id": cid,
        "name": name,
        "status": "pass" if ok else "fail",
        "detail": detail,
    }


def _skip(cid, name, reason):
    return {"id": cid, "name": name, "status": "skip", "detail": reason}


# ---------------------------------------------------------------------------


def criterion_1():
    """Rank-one census on the quantum plane and first Weyl algebra."""
    name = "plane/Weyl rank-one census"
    for k, m in [(3, 3), (3, 4), (4, 3), (5, 5)]:
        n = lcm(k, m)
        mu = root_of_unity(n, n // k)
        fams = enumerate_taft_qplane(k, m, algebra="plane")
        # expected: for each primitive m-th root lam, one (a) and one (b)
        prim = primitive_lambdas(n, m)
        if len(fams) != 2 * len(prim) or any(f.tag not in ("a", "b") for f in fams):
            return _result(1, name, False, f"plane census off at (k,m)=({k},{m})")
        for f in fams:
            verify_family(f, m, n=n)
        fams_w = enumerate_taft_qplane(k, m, algebra="weyl")
        expected_w = []
        for lam in prim:
            if lam == mu * mu:
                expected_w.append("a")
            if lam == (mu * mu).inv():
                expected_w.append("b")
        if sorted(f.tag for f in fams_w) != sorted(expected_w):
            return _result(
                1, name, False, f"Weyl census off at (k,m)=({k},{m}): "
                f"{sorted(f.tag for f in fams_w)} vs {sorted(expected_w)}"
            )
        for f in fams_w:
            verify_family(f, m, n=n)
    return _result(1, name, True, "censuses exact at (3,3),(3,4),(4,3),(5,5)")


def criterion_2(ord_q=5):
    """Eight matrix-plane families: verification and exhaustive search."""
    name = "O_q(M_2) family table"
    if ord_q < 5:
        return _skip(2, name, f"needs ord(q) >= 5, got {ord_q}")
    for order in (ord_q, 7):
        q = zeta(order)
        for row in range(1, 9):
            pa = m2_family(q, row)
            for c in (1, 2):
                coeffs = {lab: Cyc.rational(c, q.L) for lab, _ in pa.parts}
                rep = verify_module_algebra(pa.instance(coeffs))
                if not rep.ok:
                    return _result(2, name, False, f"row {row} fails at ord(q)={order}, scalar {c}")
    q = zeta(ord_q)
    found = enumerate_taft_matrix(2, q, q * q)
    if sorted(f.tag for f in found) != ["r1", "r2", "r3"]:
        return _result(2, name, False, f"search at lambda=q^2 found {sorted(f.tag for f in found)}")
    found4 = enumerate_taft_matrix(2, q, q**4)
    if sorted(f.tag for f in found4) != ["r7"]:
        return _result(2, name, False, f"search at lambda=q^4 found {sorted(f.tag for f in found4)}")
    q3 = zeta(3)
    found3a = enumerate_taft_matrix(2, q3, q3 * q3)
    found3b = enumerate_taft_matrix(2, q3, (q3 * q3).inv())
    if "x1" not in {f.tag for f in found3a} or "x2" not in {f.tag for f in found3b}:
        return _result(2, name, False, "ord(q)=3 extra families not found")
    return _result(2, name, True, "8 rows verify at ord 5 and 7; searches exact; ord-3 extras found")


# printed pair-compatibility table for O_q(M_2); cell (r, c) applies to
# B_i of type c and B_j of type r.  zeta as a q-exponent; "unity" is an
# exponent u with the cell valid only when q^u = 1; forced lists (side, label).
M2_PAIR_TABLE = {
    (1, 2): {"zeta": 0}, (1, 5): {"zeta": 0},
    (1, 6): {"zeta": -2, "forced": [("i", "delta")]},
    (1, 8): {"zeta": -2},
    (2, 1): {"zeta": 0}, (2, 4): {"zeta": 0},
    (2, 6): {"zeta": -2, "forced": [("i", "epsilon")]},
    (2, 8): {"zeta": -2},
    (3, 4): {"zeta": -2, "forced": [("j", "epsilon")]},
    (3, 5): {"zeta": -2, "forced": [("j", "delta")]},
    (3, 6): {"zeta": 2},
    (3, 7): {"zeta": -4, "unity": 6},
    (4, 2): {"zeta": 0}, (4, 5): {"zeta": 0},
    (4, 3): {"zeta": 2, "forced": [("i", "epsilon")]},
    (4, 7): {"zeta": 2},
    (5, 1): {"zeta": 0}, (5, 4): {"zeta": 0},
    (5, 3): {"zeta": 2, "forced": [("i", "delta")]},
    (5, 7): {"zeta": 2},
    (6, 1): {"zeta": 2, "forced": [("j", "delta")]},
    (6, 2): {"zeta": 2, "forced": [("j", "epsilon")]},
    (6, 3): {"zeta": -2},
    (6, 8): {"zeta": 4, "unity": 6},
    (7, 3): {"zeta": 4, "unity": 6},
    (7, 4): {"zeta": -2}, (7, 5): {"zeta": -2},
    (8, 1): {"zeta": 2}, (8, 2): {"zeta": 2},
    (8, 6): {"zeta": -4, "unity": 6},
}


def _check_cell(q, res: CompatResult, cell):
    """Compare a recomputed pair against a printed cell evaluated at q."""
    if cell is None or ("unity" in cell and q ** cell["unity"] != 1):
        return not res.compatible
    if not res.compatible:
        return False
    if res.zeta != q ** cell["zeta"]:
        return False
    expected_forced = frozenset(cell.get("forced", []))
    return res.forced_zero == expected_forced


def criterion_3():
    """Full 8 x 8 pair table recomputed from scratch."""
    name = "O_q(M_2) pair-compatibility table"
    q = zeta(5)
    rows = {r: m2_family(q, r) for r in range(1, 9)}
    for r in range(1, 9):
        for c in range(1, 9):
            res = compatibility(rows[c], rows[r], q)
            if not _check_cell(q, res, M2_PAIR_TABLE.get((r, c))):
                return _result(3, name, False, f"cell ({r},{c}) mismatch at ord 5")
    q6 = zeta(6)
    rows6 = {r: m2_family(q6, r) for r in range(1, 9)}
    for (r, c), cell in M2_PAIR_TABLE.items():
        if cell.get("unity") == 6:
            res = compatibility(rows6[c], rows6[r], q6)
            if not _check_cell(q6, res, cell):
                return _result(3, name, False, f"cell ({r},{c}) mismatch at ord 6")
    return _result(3, name, True, "all 64 cells match at ord 5; unity cells match at ord 6")


def criterion_4():
    """Rank bound 3 on O_q(M_2) and the explicit rank-3 witness."""
    name = "max rank on O_q(M_2)"
    q = zeta(5)
    res = max_rank([m2_family(q, r) for r in range(1, 9)], q)
    if res.theta != 3:
        return _result(4, name, False, f"max rank {res.theta} != 3")
    if not verify_module_algebra(res.witness).ok:
        return _result(4, name, False, "search witness fails verification")
    w = example_m2_rank3(q)
    checks = (
        verify_module_algebra(w).ok,
        w.qls.validate().ok,
        inner_faithfulness(w) == "inner_faithful",
        w.qls.lam(0) == q * q,
    )
    if not all(checks):
        return _result(4, name, False, f"explicit rank-3 witness checks: {checks}")
    return _result(4, name, True, "max rank 3; explicit witness passes all three checks")


# sampled cells of the printed pair table for O_q(M_N), N >= 3, evaluated at
# N = 3.  Entries: (c-family spec, r-family spec, expected zeta exponent or None)
MN_PAIR_SAMPLES = [
    # the two all-incompatible blocks
    ((3, {}), (3, {}), None), ((4, {}), (3, {}), None),
    ((3, {}), (4, {}), None), ((4, {}), (4, {}), None),
    ((7, {}), (7, {}), None), ((8, {}), (7, {}), None),
    ((7, {}), (8, {}), None), ((8, {}), (8, {}), None),
    # type-1 pairs need |b_i - b_j| > 1: impossible at N = 3
    ((1, {"b": 2}), (1, {"b": 3}), None),
    ((1, {"b": 2}), (1, {"b": 2}), None),
    ((2, {"a": 2}), (1, {"b": 2}), 0),
    ((4, {}), (1, {"b": 3}), 0),
    ((4, {}), (1, {"b": 2}), None),
    ((5, {"b": 1}), (1, {"b": 3}), -1),
    ((5, {"b": 2}), (1, {"b": 3}), None),
    ((5, {"b": 2}), (1, {"b": 2}), -1),
    ((6, {"a": 1}), (1, {"b": 2}), 0),
    ((7, {}), (1, {"b": 2}), 0),
    ((7, {}), (1, {"b": 3}), None),
    ((8, {}), (1, {"b": 2}), -1),
    ((7, {}), (2, {"a": 2}), -1),
    ((5, {"b": 1}), (5, {"b": 2}), None),
    ((7, {}), (5, {"b": 1}), 0),
    ((7, {}), (5, {"b": 2}), None),
    ((6, {"a": 2}), (3, {}), 0),
    ((6, {"a": 1}), (3, {}), None),
    ((7, {}), (3, {}), 2),
    ((3, {}), (7, {}), -2),
    ((2, {"a": 2}), (6, {"a": 1}), None),
    ((2, {"a": 3}), (6, {"a": 1}), 1),
]


def criterion_5():
    """O_q(M_3) families, sampled pair table, and the rank bounds 2N-2."""
    name = "O_q(M_N) families and max rank (N = 3, 4)"
    q = zeta(5)
    for pa in all_matrix_families(3, q):
        for c in (1, 2):
            coeffs = {lab: Cyc.rational(c, q.L) for lab, _ in pa.parts}
            if not verify_module_algebra(pa.instance(coeffs)).ok:
                return _result(5, name, False, f"family {pa.tag} fails at scalar {c}")
    for (ck, cargs), (rk, rargs), expected in MN_PAIR_SAMPLES:
        ai = mn_family(3, q, ck, **cargs)
        aj = mn_family(3, q, rk, **rargs)
        res = compatibility(ai, aj, q)
        if expected is None:
            if res.compatible:
                return _result(
                    5, name, False, f"cell ({aj.tag},{ai.tag}) unexpectedly compatible"
                )
        else:
            if not res.compatible or res.zeta != q**expected or res.forced_zero:
                return _result(5, name, False, f"cell ({aj.tag},{ai.tag}) mismatch")
    res3 = max_rank(all_matrix_families(3, q), q)
    if res3.theta != 4 or not verify_module_algebra(res3.witness).ok:
        return _result(5, name, False, f"N=3 max rank {res3.theta} != 4")
    w3 = example_matrix_max_rank(3, q)
    if not (
        verify_module_algebra(w3).ok
        and w3.qls.validate().ok
        and inner_faithfulness(w3) == "inner_faithful"
    ):
        return _result(5, name, False, "N=3 patched witness fails")
    res4 = max_rank(all_matrix_families(4, q), q)
    if res4.theta != 6:
        return _result(5, name, False, f"N=4 max rank {res4.theta} != 6")
    return _result(
        5,
        name,
        True,
        f"12 families verify; {len(MN_PAIR_SAMPLES)} pair cells match; max ranks 4 and 6",
    )


def _affine_search_with_oracle(p, m, sample_stride=7):
    """Pruned affine search plus an unpruned cross-check on a deterministic
    subsample of grouplike candidates."""
    fams = enumerate_taft_affine(p, m)
    pres = quantum_affine(p)
    t = pres.ngens
    L = lcm(pres.level, m)
    lams = primitive_lambdas(L, m)
    ells = [as_q_power(lam, root_of_unity(L, 1)) for lam in lams]
    for count, (perm, exps) in enumerate(_diag_candidates(t, L), 1):
        if count % sample_stride:
            continue
        g = _grouplike(perm, exps, L)
        for lam, ell in zip(lams, ells):
            _, unpruned = solve_skew_space(pres, perm, exps, ell, L, unpruned=True)
            matching = [f for f in fams if f.lam == lam and f.g == g]
            pruned = list(matching[0].basis) if matching else []
            if unpruned and not pruned:
                # solutions must all fail the support-cap or power check to be absent
                kept = [
                    x
                    for x in unpruned
                    if len(x.support()) <= SUPPORT_CAP
                    and solve_power_scalar(pres, g, x, m, L) is not None
                ]
                if kept:
                    return fams, False
            elif pruned:
                if not spans_equal(unpruned, pruned, t):
                    return fams, False
    return fams, True


def criterion_6():
    """Affine trivial-extension classification at t = 3."""
    name = "quantum affine space classification (t = 3)"
    p5 = generic_affine_p(3, 5)
    fams, oracle_ok = _affine_search_with_oracle(p5, 5)
    if not oracle_ok:
        return _result(6, name, False, "pruned search disagrees with the unpruned oracle")
    if not fams or any(not f.tag.startswith("pair(") for f in fams):
        return _result(6, name, False, "non-pair family found at m=5")
    for f in fams:
        verify_family(f, 5)
    # chain pattern at m = 3: p23 = lam^{-1} p12, p13 = p12^2
    w = zeta(9)
    lam = w**3
    one = Cyc.one(9)
    p12, p23, p13 = w, lam.inv() * w, w * w
    p_chain = [
        [one, p12, p13],
        [p12.inv(), one, p23],
        [p13.inv(), p23.inv(), one],
    ]
    fams3 = enumerate_taft_affine(p_chain, 3)
    chains = [f for f in fams3 if f.tag.startswith("chain")]
    if not chains:
        return _result(6, name, False, "no chain families at the m=3 pattern")
    for f in chains:
        verify_family(f, 3)
    # the non-nilpotent cycle with gamma != 0
    alpha = zeta(9)
    lam = alpha**-3
    a3, a2, a1 = alpha, lam * alpha, lam * lam * alpha
    p12c, p23c, p31c = lam * lam * alpha, lam * alpha, alpha
    p_cycle = [
        [one, p12c, p31c.inv()],
        [p12c.inv(), one, p23c],
        [p31c, p23c.inv(), one],
    ]
    pres = quantum_affine(p_cycle)
    g = GrouplikeAction.diagonal([a1, a2, a3])
    eta = eta_from_entries(3, {(0, 1): one, (1, 2): one, (2, 0): one}, 9)
    gamma = (alpha**3 - 1).inv()
    inst = taft_instance(pres, TaftSpec(9, 3, lam, gamma), g, eta)
    rep = verify_module_algebra(inst)
    if not rep.ok:
        return _result(6, name, False, "gamma != 0 cycle instance fails verification")
    # the power identity must genuinely bite: X^3 is nonzero
    X = operator_matrix(inst.pres, inst.attached_grouplike(0), 1, inst.skews[0])
    X3 = linalg.s_pow(X, 3, inst.level)
    if linalg.s_is_zero(X3):
        return _result(6, name, False, "cycle skew matrix is unexpectedly nilpotent")
    return _result(
        6,
        name,
        True,
        f"{len(fams)} pair families at m=5 (oracle-checked); chains at m=3; "
        "gamma != 0 cycle verifies",
    )


def criterion_7():
    """Sharpness of the affine rank bound 2(t-1) at t = 3."""
    name = "affine max rank sharpness (t = 3)"
    p5 = generic_affine_p(3, 5)
    pres = quantum_affine(p5)
    witness = example_affine_sharp(pres)
    if witness.qls.theta != 4 or not verify_module_algebra(witness).ok:
        return _result(7, name, False, "rank-4 construction fails")
    res = max_rank(enumerate_taft_affine(p5, 5))
    if res.theta != 4:
        return _result(7, name, False, f"max rank over the discovered set is {res.theta} != 4")
    return _result(7, name, True, "rank-4 witness verifies; max rank over 24 found families is 4")


def criterion_8():
    """Fixed-ring Hilbert series against the three matched presentations."""
    name = "fixed-ring presentation matching"
    inst36, _ = plane_instance(3, 6)
    ok1, _, _ = presentation_match(inst36, FixedRingCase("divides_km", 3, 6), 36)
    inst63, _ = plane_instance(6, 3)
    ok2, _, _ = presentation_match(inst63, FixedRingCase("veronese", 6, 3), 36)
    inst64, _ = plane_instance(6, 4)
    case3 = FixedRingCase("hypersurface", 6, 4)
    if case3.s != 2:
        return _result(8, name, False, "hypersurface exponent s != 2")
    ok3, _, _ = presentation_match(inst64, case3, 72)
    if not (ok1 and ok2 and ok3):
        return _result(8, name, False, f"series matches: {(ok1, ok2, ok3)}")
    return _result(8, name, True, "series match to degrees 36, 36, 72")


def criterion_9():
    """Commutative fixed rings, the reflection dichotomy, Molien, and the
    two trace-series routes."""
    name = "invariant-theory checks"
    for k in range(3, 7):
        for m in range(3, 7):
            inst, mu = plane_instance(k, m)
            if not commutativity_check(inst, 20):
                return _result(9, name, False, f"fixed ring not commutative at (k,m)=({k},{m})")
            flag, xi = is_reflection(
                GrouplikeAction.diagonal([mu, mu**m])
            )
            if flag != reflection_expected(mu, m):
                return _result(9, name, False, f"reflection criterion off at ({k},{m})")
            if flag and xi != mu:
                return _result(9, name, False, f"reflection eigenvalue off at ({k},{m})")
            n = lcm(k, m)
            g = inst.gen_actions[0]
            direct = trace_series_direct(inst.pres, g, 30)
            prod = trace_series_product(list(g.scalars), [1, 1], 30)
            if not series_equal(direct, prod):
                return _result(9, name, False, f"trace series mismatch at ({k},{m})")
            if n <= 12:
                ok, _, _ = molien_check(inst.pres, [g], 30)
                if not ok:
                    return _result(9, name, False, f"Molien fails at ({k},{m})")
    return _result(9, name, True, "grid 3..6 passes: commutativity, reflections, traces, Molien")


def criterion_10():
    """Transport of every found affine action to the Koszul dual."""
    name = "Koszul-dual actions"
    p5 = generic_affine_p(3, 5)
    fams = enumerate_taft_affine(p5, 5)
    count = 0
    for fam in fams:
        for inst in verify_family(fam, 5):
            dual = dual_action(inst)
            if not verify_module_algebra(dual).ok:
                return _result(10, name, False, f"dual of {fam.tag} fails")
            count += 1
    return _result(10, name, True, f"{count} dual actions verify on the exterior algebra")


def criterion_11():
    """Quantized Weyl algebras: the explicit t=2 action and the rank-one census."""
    name = "quantized Weyl actions"
    inst = example_weyl_nonfiltered(zeta(5), zeta(5, 2))
    if not verify_module_algebra(inst).ok:
        return _result(11, name, False, "t=2 Weyl example fails verification")
    if respects_filtration(inst):
        return _result(11, name, False, "t=2 Weyl example unexpectedly preserves the filtration")
    fams = enumerate_taft_qplane(3, 3, algebra="weyl")
    mu = zeta(3)
    tags = {}
    for f in fams:
        tags[f.tag] = f.lam
    if set(tags) != {"a", "b"} or tags["a"] != mu * mu or tags["b"] != (mu * mu).inv():
        return _result(11, name, False, "Weyl census at (3,3) off")
    return _result(11, name, True, "Weyl example verifies (filtration broken); census matches lambda = mu^(+-2)")


def criterion_12():
    """Quantum determinant: centrality, Laplace, and ideal stability."""
    name = "quantum determinant and descent"
    for N in (2, 3):
        for order in (3, 5, 7):
            pres = quantum_matrix(N, zeta(order))
            if not qdet.centrality_check(pres):
                return _result(12, name, False, f"det_q not central at N={N}, ord {order}")
            for col in range(N):
                if not qdet.laplace_check(pres, col):
                    return _result(12, name, False, f"Laplace fails at N={N}, ord {order}, col {col}")
            if qdet.laplace_check(pres, 0, flip_sign=True) and N > 1:
                return _result(12, name, False, "sign-flipped Laplace unexpectedly passes")
    q = zeta(5)
    stable_m2 = {1, 2, 4, 5}
    for row in range(1, 9):
        inst = m2_family(q, row).instance()
        flags = qdet.ideal_stability(inst)
        if (flags == (True, True)) != (row in stable_m2):
            return _result(12, name, False, f"M2 row {row} stability flags {flags}")
    stable_mn = {1, 2, 5, 6}
    for pa in all_matrix_families(3, q):
        kind = int(pa.tag[1])
        flags = qdet.ideal_stability(pa.instance())
        if (flags == (True, True)) != (kind in stable_mn):
            return _result(12, name, False, f"M3 family {pa.tag} stability flags {flags}")
    return _result(12, name, True, "centrality and Laplace at N=2,3 orders 3,5,7; stability exactly on the descent families")


def criterion_13(samples=10_000):
    """Engine soundness: confluence grid plus randomized idempotence and
    associativity."""
    name = "rewriting soundness"
    rng = random.Random(20260808)
    for order in range(3, 9):
        z = zeta(order)
        presentations = [
            quantum_affine(generic_affine_p(3, order)),
            quantum_exterior(generic_affine_p(3, order)),
            quantum_matrix(2, z),
            quantized_weyl(generic_affine_p(2, order), [z, z]),
        ]
        for pres in presentations:
            if not confluence_check(pres).ok:
                return _result(13, name, False, f"confluence fails: {pres} at order {order}")
    if not confluence_check(quantum_matrix(3, zeta(5))).ok:
        return _result(13, name, False, "confluence fails for the 3x3 matrix algebra")

    presentations = [
        quantum_affine(generic_affine_p(3, 5)),
        quantum_exterior(generic_affine_p(3, 5)),
        quantum_matrix(2, zeta(5)),
        quantized_weyl(generic_affine_p(2, 5), [zeta(5), zeta(5, 2)]),
    ]

    def rand_poly(pres):
        terms = {}
        for _ in range(3):
            d = rng.randrange(3)
            w = tuple(rng.randrange(pres.ngens) for _ in range(d))
            terms[w] = Cyc.rational(rng.randrange(-3, 4), pres.level)
        return normalize(pres, terms)

    for it in range(samples):
        pres = presentations[it % 4]
        a, b, c = rand_poly(pres), rand_poly(pres), rand_poly(pres)
        if normalize(pres, a) != a:
            return _result(13, name, False, "normalize not idempotent")
        if multiply(pres, multiply(pres, a, b), c) != multiply(pres, a, multiply(pres, b, c)):
            return _result(13, name, False, "multiplication not associative")
    return _result(13, name, True, f"confluence grid passes; {samples} randomized samples clean")


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
}


def run_suite(criteria=None, ord_q=None):
    """Run the selected criteria (all by default); returns the summary list.

    A criterion that raises becomes a fail row carrying the exception text,
    named by its docstring."""
    selected = sorted(criteria) if criteria else sorted(CRITERIA)
    results = []
    for cid in selected:
        fn = CRITERIA[cid]
        start = time.monotonic()
        try:
            res = fn(ord_q=ord_q) if cid == 2 and ord_q is not None else fn()
        except Exception as exc:  # a criterion that raises has failed
            name = " ".join((fn.__doc__ or f"criterion {cid}").split())
            res = _result(cid, name, False, f"raised {type(exc).__name__}: {exc}")
        res["seconds"] = round(time.monotonic() - start, 2)
        results.append(res)
    return results
