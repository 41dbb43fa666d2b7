import random
from math import gcd

import pytest

from qhact.cyclotomic import Cyc, InputError, lcm, zeta
from qhact import hopf
from qhact.hopf import (
    AbelianGroup,
    ActionInstance,
    Character,
    GrouplikeAction,
    QLSData,
    SkewAction,
    TaftSpec,
    act_grouplike,
    act_grouplike_raw,
    act_skew,
    act_skew_raw,
    dual_action,
    eta_from_entries,
    inner_faithfulness,
    instance_from_json,
    instance_to_json,
    is_faithful_qls,
    operator_matrix,
    taft_instance,
    verify_module_algebra,
)
from qhact import linalg
from qhact.classify import (
    affine_pair_family,
    all_matrix_families,
    example_affine_sharp,
    example_m2_rank3,
    example_matrix_max_rank,
    example_weyl_nonfiltered,
    generic_affine_p,
    m2_family,
    plane_instance,
)
from qhact.ncalg import (
    NCPoly,
    from_word,
    multiply,
    p_add,
    quantum_affine,
    quantum_exterior,
    quantum_matrix,
    quantum_plane,
)


def _s_scale(A, c):
    """c A, storing no zero entry: the scalar multiple the sparse operators
    of linalg are checked against."""
    if c.is_zero():
        return [{} for _ in A]
    return [{i: c * v for i, v in col.items()} for col in A]


def plane_a(k, m, eta_val=1, lam_exp=1):
    """Quantum plane action of shape (a): g = diag(mu, lam^-1 mu), x.v = eta u."""
    level = lcm(k, m)
    mu = zeta(k).lift(level)
    lam = zeta(m, lam_exp).lift(level)
    n = lcm(k, m)
    pres = quantum_plane(mu)
    g = GrouplikeAction.diagonal([mu, lam.inv() * mu])
    eta = eta_from_entries(2, {(0, 1): Cyc.rational(eta_val, level)}, level)
    spec = TaftSpec(n, m, lam)
    return taft_instance(pres, spec, g, eta)


def test_act_grouplike_examples():
    inst = plane_a(3, 3)
    pres = inst.pres
    mu = zeta(3).lift(3)
    lam = zeta(3).lift(3)
    uv = from_word(pres, (0, 1))
    out = act_grouplike(pres, inst.gen_actions[0], uv)
    assert out.terms == {(0, 1): lam.inv() * mu * mu}
    ident = GrouplikeAction.identity(2, 3)
    assert act_grouplike(pres, ident, uv) == uv


def test_act_grouplike_transpose_on_m2():
    q = zeta(5)
    pres = quantum_matrix(2, q)
    # transpose permutation on flat indices (A,B,C,D) -> (A,C,B,D)
    alpha = [Cyc.one(5), zeta(5, 2), zeta(5, 3), Cyc.one(5)]
    g = GrouplikeAction((0, 2, 1, 3), alpha)
    B = from_word(pres, (1,))
    out = act_grouplike(pres, g, B)
    assert out.terms == {(2,): zeta(5, 2)}


def test_act_skew_examples():
    inst = plane_a(3, 4, eta_val=2)
    pres = inst.pres
    mu = zeta(3).lift(12)
    eta = Cyc.rational(2, 12)
    uv = from_word(pres, (0, 1))
    out = act_skew(pres, inst, 0, uv)
    assert out.terms == {(0, 0): mu * eta}
    one = NCPoly({(): Cyc.one(12)})
    assert act_skew(pres, inst, 0, one).is_zero()
    uu = from_word(pres, (0, 0))
    assert act_skew(pres, inst, 0, uu).is_zero()


def _taft_inner_faithful(inst, n):
    """Rank-one criterion: x nonzero and the grouplike matrix has order n."""
    if inst.qls.theta != 1:
        raise InputError("rank-one criterion needs exactly one skew primitive")
    if inst.skews[0].is_zero():
        return False
    return inst.gen_actions[0].order() == n


def test_verify_plane_a_passes():
    for k, m in [(3, 3), (3, 4), (4, 3), (5, 5)]:
        inst = plane_a(k, m)
        rep = verify_module_algebra(inst)
        assert rep.ok, (k, m, rep.violations)
        assert _taft_inner_faithful(inst, lcm(k, m))


def test_verify_perturbed_fails_with_witness():
    inst = plane_a(3, 3)
    level = inst.level
    mu = zeta(3).lift(level)
    bad_g = GrouplikeAction.diagonal([mu * mu, inst.gen_actions[0].scalars[1]])
    bad = taft_instance(
        inst.pres, TaftSpec(3, 3, zeta(3).lift(level)), bad_g, inst.skews[0]
    )
    rep = verify_module_algebra(bad)
    assert not rep.ok
    assert any(v["axiom"] == "skew-kills-relation" for v in rep.violations)


def test_verify_m2_row7():
    q = zeta(5)
    pres = quantum_matrix(2, q)
    alpha = [q**-4, q**-2, q**-2, Cyc.one(5)]
    g = GrouplikeAction.diagonal(alpha)
    eta = eta_from_entries(4, {(3, 0): Cyc.one(5)}, 5)
    spec = TaftSpec(5, (q**4).mult_order(), q**4)
    inst = taft_instance(pres, spec, g, eta)
    assert verify_module_algebra(inst).ok


def test_shape_mismatch_is_input_error():
    pres = quantum_plane(zeta(5))
    g = GrouplikeAction.diagonal([zeta(5), zeta(5), zeta(5)])
    eta = eta_from_entries(3, {}, 5)
    with pytest.raises(InputError):
        taft_instance(pres, TaftSpec(5, 5, zeta(5)), g, eta)


def test_validate_qls_z9_example():
    G = AbelianGroup((9,))
    chi1 = Character(G, (3,))
    chi2 = Character(G, (6,))
    qls = QLSData(G, [(1,), (4,)], [chi1, chi2])
    assert qls.validate().ok
    # chi_1(g_1) = omega^3 of order 3
    assert qls.m(0) == 3 and qls.m(1) == 3

    trivial = QLSData(G, [(1,)], [Character(G, (0,))])
    assert not trivial.validate().ok

    G3 = AbelianGroup((3, 3))
    bad = QLSData(
        G3,
        [(1, 0), (0, 1)],
        [Character(G3, (1, 1)), Character(G3, (0, 1))],
    )
    # chi_1(g_2) chi_2(g_1) = zeta_3 * 1 != 1
    assert not bad.validate().ok


def test_taft_character_is_the_discrete_log_of_lambda():
    # chi(g) = lambda: the exponent e in 0..n-1 with zeta_n^e = lambda,
    # for lambda written at its own level and at a multiple of it
    for n in range(1, 13):
        for e in range(n):
            m = n // gcd(n, e)
            for lam in (zeta(n, e), zeta(n, e).lift(2 * n)):
                assert TaftSpec(n, m, lam).to_qls().chis[0].exps == (e,)


def test_faithful_qls():
    # T_n(lam, m, 0): faithful iff m = n
    taft = TaftSpec(6, 3, zeta(3))
    flag, gens = is_faithful_qls(taft.to_qls())
    assert not flag
    assert gens == [(3,)]  # kernel generated by g^m
    taft2 = TaftSpec(6, 6, zeta(6))
    flag2, gens2 = is_faithful_qls(taft2.to_qls())
    assert flag2 and gens2 == []
    # rank one over cyclic G with chi a generator of the dual
    G = AbelianGroup((8,))
    qls = QLSData(G, [(2,)], [Character(G, (3,))])
    assert is_faithful_qls(qls)[0]


def test_inner_faithfulness():
    inst = plane_a(3, 3)
    assert inner_faithfulness(inst) == "inner_faithful"
    zero_x = taft_instance(
        inst.pres,
        TaftSpec(3, 3, zeta(3)),
        inst.gen_actions[0],
        eta_from_entries(2, {}, 3),
    )
    assert inner_faithfulness(zero_x) == "not_inner_faithful"
    # m < n with a full-order grouplike matrix: the rank-one criterion holds
    inst2 = plane_a(6, 3)
    assert inner_faithfulness(inst2) == "inner_faithful"
    # neither the chi data nor the matrices are faithful: gate refuses
    level = 6
    g_small = GrouplikeAction.diagonal([zeta(3).lift(level), zeta(3, 2).lift(level)])
    eta = eta_from_entries(2, {(0, 1): Cyc.one(level)}, level)
    inst3 = taft_instance(
        quantum_plane(zeta(3).lift(level)), TaftSpec(6, 3, zeta(3).lift(level)), g_small, eta
    )
    verdict = inner_faithfulness(inst3)
    assert verdict[0] == "hypotheses_unmet"


def test_operator_matrix():
    inst = plane_a(3, 4)
    pres = inst.pres
    g, x = inst.gen_actions[0], inst.skews[0]
    # x^2 at degree 1 is the square of the letter images
    X1 = operator_matrix(pres, g, 1, x)
    x2 = linalg.s_mul(X1, X1)
    XX = linalg.s_mul(_oracle_matrix(pres, g, 1, x), _oracle_matrix(pres, g, 1, x))
    assert all(
        XX[j].get(i, Cyc.zero(inst.level)) == x2[j].get(i, Cyc.zero(inst.level))
        for i in range(2)
        for j in range(2)
    )
    # g x - lambda x g vanishes on degree 2 for a verified instance
    lam = inst.lam(0)
    G2, X2 = operator_matrix(pres, g, 2), operator_matrix(pres, g, 2, x)
    gx = linalg.s_mul(G2, X2)
    xg = linalg.s_mul(X2, G2)
    assert linalg.s_is_zero(linalg.s_sub(gx, _s_scale(xg, lam)))


def test_operator_matrix_degree_one_is_the_generator_matrices(raw_calls):
    # degree one is read off perm, scalars and eta, with no act_*_raw call,
    # and equals the letter-by-letter images, at the instance's level
    weyl = example_weyl_nonfiltered(zeta(5), zeta(5, 2))
    assert not weyl.pres.is_graded()
    instances = (
        plane_a(3, 4),
        example_affine_sharp(quantum_affine(generic_affine_p(3, 5))),
        dual_action(plane_a(3, 4)),
        m2_family(zeta(5), 3).instance(),
        example_m2_rank3(zeta(5)),
        weyl,
    )
    for inst in instances:
        pres = inst.pres
        mats = [(g, None, operator_matrix(pres, g, 1)) for g in inst.gen_actions]
        for i, x in enumerate(inst.skews):
            g = inst.attached_grouplike(i)
            mats.append((g, x, operator_matrix(pres, g, 1, x)))
        assert raw_calls == {"grouplike": 0, "skew": 0}, pres
        for g, x, mat in mats:
            assert mat == _oracle_matrix(pres, g, 1, x), (pres, x)
            assert all(v.L == inst.level and not v.is_zero() for col in mat for v in col.values())


def test_operator_matrix_words_keeps_those_columns():
    inst = plane_a(3, 4)
    pres = inst.pres
    g, x = inst.gen_actions[0], inst.skews[0]
    for d in range(5):
        basis = pres.basis(d)
        picks = [c for c in range(len(basis)) if c % 2 == 0]
        words = [basis[c] for c in picks]
        for mat, sub in (
            (operator_matrix(pres, g, d), operator_matrix(pres, g, d, words=words)),
            (operator_matrix(pres, g, d, x), operator_matrix(pres, g, d, x, words)),
        ):
            assert len(mat) == len(basis)
            assert sub == [mat[c] for c in picks]


def test_leibniz_consistency():
    inst = plane_a(4, 3)
    pres = inst.pres
    g = inst.gen_actions[0]
    for a_word in [(0,), (1,), (0, 1)]:
        for b_word in [(1,), (1, 1), (0,)]:
            a = from_word(pres, a_word)
            b = from_word(pres, b_word)
            lhs = act_skew(pres, inst, 0, multiply(pres, a, b))
            rhs = p_add(
                multiply(pres, act_grouplike(pres, g, a), act_skew(pres, inst, 0, b)),
                multiply(pres, act_skew(pres, inst, 0, a), b),
            )
            assert lhs == rhs


def test_scaling_invariance():
    # gamma = 0: rescaling the skew matrix preserves every check
    inst = plane_a(5, 5)
    for c in (1, 2):
        eta = eta_from_entries(2, {(0, 1): Cyc.rational(c, inst.level)}, inst.level)
        scaled = taft_instance(
            inst.pres, TaftSpec(5, 5, zeta(5).lift(inst.level)), inst.gen_actions[0], eta
        )
        assert verify_module_algebra(scaled).ok


def test_emergent_skew_structure():
    # eta_kk = 0 and eta_ij eta_ji = 0 for every passing diagonal instance, m >= 3
    inst = plane_a(5, 5)
    assert verify_module_algebra(inst).ok
    eta = inst.skews[0].eta
    t = len(eta)
    for k in range(t):
        assert eta[k][k].is_zero()
    for i in range(t):
        for j in range(t):
            assert (eta[i][j] * eta[j][i]).is_zero()


def trivial_extension_t3(m=5):
    """Trivial extension of a plane action to t=3, x supported on (u1 <- u2)."""
    level = 5 if m == 5 else lcm(5, m)
    z = zeta(5).lift(level)
    one = Cyc.one(level)
    p = [
        [one, z, z**2],
        [z**-1, one, z],
        [z**-2, z**-1, one],
    ]
    pres = quantum_affine(p)
    lam = zeta(m).lift(level)
    p12, p13, p32 = p[0][1], p[0][2], p[2][1]
    alpha = [p12, lam.inv() * p12, p13 * p32]
    g = GrouplikeAction.diagonal(alpha)
    eta = eta_from_entries(3, {(0, 1): one}, level)
    n = 1
    for a in alpha:
        n = lcm(n, a.mult_order())
    n = lcm(n, m)
    return taft_instance(pres, TaftSpec(n, m, lam), g, eta)


def test_trivial_extension_and_dual():
    inst = trivial_extension_t3()
    assert verify_module_algebra(inst).ok
    dual = dual_action(inst)
    assert verify_module_algebra(dual).ok
    # dual grouplike equals the original; dual skew is the transpose
    assert dual.gen_actions[0] == inst.gen_actions[0]
    assert dual.skews[0].support() == {(1, 0)}


def test_dual_plane_example():
    inst = plane_a(3, 4, eta_val=3)
    dual = dual_action(inst)
    assert verify_module_algebra(dual).ok
    assert dual.lam(0) == inst.lam(0).inv()
    zero_inst = taft_instance(
        inst.pres,
        TaftSpec(12, 4, zeta(4).lift(12)),
        inst.gen_actions[0],
        eta_from_entries(2, {}, 12),
    )
    assert dual_action(zero_inst).skews[0].is_zero()
    with pytest.raises(InputError):
        dual_action(
            taft_instance(
                quantum_matrix(2, zeta(5)),
                TaftSpec(5, 5, zeta(5)),
                GrouplikeAction.diagonal([zeta(5)] * 4),
                eta_from_entries(4, {}, 5),
            )
        )


def test_instance_json_roundtrip():
    inst = plane_a(3, 4)
    obj = instance_to_json(inst)
    assert obj["hopf"]["type"] == "taft"
    assert obj["skews"][0]["grouplike"] == 0
    back = instance_from_json(obj)
    assert verify_module_algebra(back).ok
    assert back.lam(0) == inst.lam(0)

    G = AbelianGroup((9,))
    qls = QLSData(G, [(1,), (4,)], [Character(G, (3,)), Character(G, (6,))])
    pres = quantum_plane(zeta(9, 3))
    w = zeta(9)
    gen = GrouplikeAction.diagonal([w, w])
    inst2 = ActionInstance(
        pres, qls, [gen], [eta_from_entries(2, {}, 9), eta_from_entries(2, {}, 9)]
    )
    obj2 = instance_to_json(inst2)
    assert obj2["hopf"]["type"] == "bosonization"
    back2 = instance_from_json(obj2)
    assert back2.qls.gs == ((1,), (4,))


def test_scaling_rescales_gamma():
    # scaling the skew matrix by c rescales gamma by c^m (nonzero gamma case)
    alpha = zeta(9)
    lam = alpha**-3
    one = Cyc.one(9)
    p12, p23, p31 = lam * lam * alpha, lam * alpha, alpha
    p = [
        [one, p12, p31.inv()],
        [p12.inv(), one, p23],
        [p31, p23.inv(), one],
    ]
    pres = quantum_affine(p)
    g = GrouplikeAction.diagonal([lam * lam * alpha, lam * alpha, alpha])
    gamma = (alpha**3 - 1).inv()
    for c in (1, 2):
        cc = Cyc.rational(c, 9)
        eta = eta_from_entries(3, {(0, 1): cc, (1, 2): cc, (2, 0): cc}, 9)
        spec = TaftSpec(9, 3, lam, gamma * cc**3)
        inst = taft_instance(pres, spec, g, eta)
        assert verify_module_algebra(inst).ok


def test_bosonization_witness_roundtrip():
    # a max-rank witness (rank 3 over (Z_5)^3) serializes and re-verifies
    from qhact.classify import example_m2_rank3

    w = example_m2_rank3(zeta(5))
    obj = instance_to_json(w)
    assert obj["hopf"]["type"] == "bosonization"
    assert obj["hopf"]["group"] == [5, 5, 5]
    back = instance_from_json(obj)
    assert verify_module_algebra(back).ok
    assert inner_faithfulness(back) == "inner_faithful"


def test_dual_of_rank4_bosonization():
    # the full rank-4 affine patching transports to the exterior algebra
    from qhact.classify import example_affine_sharp, generic_affine_p

    pres = quantum_affine(generic_affine_p(3, 5))
    witness = example_affine_sharp(pres)
    dual = dual_action(witness)
    assert dual.qls.theta == 4
    assert verify_module_algebra(dual).ok
    for i in range(4):
        assert dual.qls.lam(i) == witness.qls.lam(i).inv()


# pinned violation lists: axiom names, contexts and order are part of the
# verify report and must not move when the checker is restructured


def _no_witness(axiom, **context):
    return {"axiom": axiom, "context": context, "witness": None}


def test_pinned_violations_wrong_lambda_on_plane():
    inst = plane_a(3, 4)
    wrong = zeta(4, 3).lift(inst.level)
    bad = taft_instance(inst.pres, TaftSpec(12, 4, wrong), inst.gen_actions[0], inst.skews[0])
    assert verify_module_algebra(bad).violations == [
        _no_witness("grouplike-skew-commutation", grouplike=0, skew=0)
    ]
    # a group of the wrong order adds the group-only violation first
    bad = taft_instance(inst.pres, TaftSpec(4, 4, wrong), inst.gen_actions[0], inst.skews[0])
    assert verify_module_algebra(bad).violations == [
        _no_witness("group-generator-order", grouplike=0, order=4),
        _no_witness("grouplike-skew-commutation", grouplike=0, skew=0),
    ]


def test_pinned_violations_ungraded_weyl():
    from qhact.classify import example_weyl_nonfiltered

    inst = example_weyl_nonfiltered(zeta(5), zeta(5, 2))
    assert not inst.pres.is_graded()
    spec = TaftSpec(inst.qls.group.orders[0], 5, inst.lam(0) ** 2)
    bad = taft_instance(inst.pres, spec, inst.gen_actions[0], inst.skews[0])
    assert verify_module_algebra(bad).violations == [
        _no_witness("grouplike-skew-commutation", grouplike=0, skew=0)
    ]


def test_pinned_violations_cycle_wrong_gamma():
    alpha = zeta(9)
    lam = alpha**-3
    one = Cyc.one(9)
    p12, p23, p31 = lam * lam * alpha, lam * alpha, alpha
    pres = quantum_affine([[one, p12, p31.inv()], [p12.inv(), one, p23], [p31, p23.inv(), one]])
    g = GrouplikeAction.diagonal([lam * lam * alpha, lam * alpha, alpha])
    eta = eta_from_entries(3, {(0, 1): one, (1, 2): one, (2, 0): one}, 9)
    gamma = (alpha**3 - 1).inv()
    assert verify_module_algebra(taft_instance(pres, TaftSpec(9, 3, lam, gamma), g, eta)).ok
    for wrong in (gamma * 2, Cyc.zero(9)):
        inst = taft_instance(pres, TaftSpec(9, 3, lam, wrong), g, eta)
        assert verify_module_algebra(inst).violations == [
            _no_witness("skew-power-identity", skew=0, m=3)
        ]


def test_pinned_violations_noncommuting_generators():
    pres = quantum_plane(zeta(3).lift(6))
    group = AbelianGroup((2, 2))
    qls = QLSData(group, [(1, 0)], [Character(group, (1, 0))])
    one = Cyc.one(6)
    swap = GrouplikeAction((1, 0), [one, one])
    sign = GrouplikeAction.diagonal([one, -one])
    inst = ActionInstance(pres, qls, [swap, sign], [eta_from_entries(2, {}, 6)])
    assert verify_module_algebra(inst).violations == [
        {
            "axiom": "grouplike-preserves-relation",
            "context": {"grouplike": 0, "relation": 0},
            "witness": [{"word": ["u1", "u2"], "coeff": {"level": 6, "coeffs": ["1", "-2"]}}],
        },
        _no_witness("group-generators-commute", pair=[0, 1]),
    ]


def test_pinned_violations_rank3_wrong_character():
    from qhact.classify import example_m2_rank3

    w = example_m2_rank3(zeta(5))
    group = w.qls.group
    shifted = Character(group, group.reduce(tuple(e + 1 for e in w.qls.chis[0].exps)))
    qls = QLSData(group, w.qls.gs, (shifted,) + w.qls.chis[1:])
    bad = ActionInstance(w.pres, qls, w.gen_actions, w.skews, w.gammas)
    assert verify_module_algebra(bad).violations == [
        _no_witness("grouplike-skew-commutation", grouplike=0, skew=0),
        _no_witness("grouplike-skew-commutation", grouplike=1, skew=0),
        _no_witness("grouplike-skew-commutation", grouplike=2, skew=0),
        _no_witness("skew-skew-commutation", pair=[1, 0]),
    ]


def commutative_pair(e):
    """Two skew primitives on commutative k[u, v] over G = Z_5^2, both sending
    v to u: g_1 = diag(1, zeta_5), g_2 = diag(1, zeta_5^e), chi_1 = chi_2 with
    exponents (4, -e mod 5), so chi_1(g_2) chi_2(g_1) = zeta_5^(4 - e)."""
    one = Cyc.one(5)
    group = AbelianGroup((5, 5))
    chi = Character(group, (4, -e % 5))
    qls = QLSData(group, [(1, 0), (0, 1)], [chi, chi])
    gens = [GrouplikeAction.diagonal([one, zeta(5)]), GrouplikeAction.diagonal([one, zeta(5, e)])]
    x = eta_from_entries(2, {(0, 1): one}, 5)
    return ActionInstance(quantum_affine([[one, one], [one, one]]), qls, gens, [x, x])


def hopf_relation_defects(inst, d):
    """Which Hopf-relation operators are nonzero on A_d, each built directly:
    g x_i - chi_i(g) x_i g per generator g of G, x_i x_j - chi_j(g_i) x_j x_i
    per ordered pair, and x_i^{m_i} - gamma_i (g_i^{m_i} - 1)."""
    pres, level, qls = inst.pres, inst.level, inst.qls

    def commutator(A, B, c):
        return linalg.s_sub(linalg.s_mul(A, B), _s_scale(linalg.s_mul(B, A), c))

    G = [operator_matrix(pres, g, d) for g in inst.gen_actions]
    X = [operator_matrix(pres, inst.attached_grouplike(i), d, x) for i, x in enumerate(inst.skews)]
    ops = {}
    for i in range(qls.theta):
        for j, Gj in enumerate(G):
            h = tuple(int(k == j) for k in range(qls.group.rank))
            ops[("grouplike", j, i)] = commutator(Gj, X[i], inst.chi_value(i, h))
        for j in range(qls.theta):
            if j != i:
                ops[("pair", i, j)] = commutator(X[i], X[j], inst.chi_value(j, qls.gs[i]))
        m = qls.m(i)
        gm = operator_matrix(pres, inst.attached_grouplike(i).power(m), d)
        rhs = _s_scale(linalg.s_sub(gm, linalg.s_identity(len(gm), level)), inst.gammas[i])
        ops[("power", i)] = linalg.s_sub(linalg.s_pow(X[i], m, level), rhs)
    return [key for key, D in ops.items() if not linalg.s_is_zero(D)]


def _high_degree(degree, pair):
    return _no_witness("relation-operator-nonzero-high-degree", degree=degree, pair=pair)


def test_pinned_violations_pair_outside_quantum_linear_space():
    # degree one passes, but chi_1(g_2) chi_2(g_1) = zeta_5^3 != 1 leaves the
    # chi-commutation of the pair nonzero on every degree from 2 on
    inst = commutative_pair(1)
    assert verify_module_algebra(inst, d_check=1).ok
    assert verify_module_algebra(inst, d_check=2).violations == [
        _high_degree(2, [0, 1]), _high_degree(2, [1, 0])
    ]
    assert verify_module_algebra(inst, d_check=3).violations == [
        _high_degree(2, [0, 1]), _high_degree(2, [1, 0]),
        _high_degree(3, [0, 1]), _high_degree(3, [1, 0]),
    ]
    assert hopf_relation_defects(inst, 2) == [("pair", 0, 1), ("pair", 1, 0)]
    # at e = 4 the pair is a quantum-linear-space pair and nothing fails
    assert verify_module_algebra(commutative_pair(4), d_check=5).ok
    assert hopf_relation_defects(commutative_pair(4), 3) == []


def _oracle_cases():
    q = zeta(5)
    pres = quantum_affine(generic_affine_p(3, 5))
    cases = [
        pytest.param(lambda r=r: m2_family(q, r).instance(), (2, 3), id=f"M2-row{r}")
        for r in range(1, 9)
    ]
    cases += [
        pytest.param(pa.instance, (2, 3), id=f"M3-{pa.tag}") for pa in all_matrix_families(3, q)
    ]
    cases += [
        pytest.param(lambda: example_m2_rank3(q), (2, 3), id="m2-rank3"),
        pytest.param(lambda: example_affine_sharp(pres), (2, 3), id="affine-sharp"),
        pytest.param(
            lambda: dual_action(example_affine_sharp(pres)), (2, 3), id="dual-affine-sharp"
        ),
    ]
    cases += [
        pytest.param(
            lambda i=i, j=j: dual_action(affine_pair_family(pres, zeta(5, 2), i, j).instance()),
            (2, 3),
            id=f"dual-pair-{i}{j}",
        )
        for i in range(3)
        for j in range(3)
        if i != j
    ]
    # the N = 5 witness at degree 3 takes seconds, so it stops at degree 2
    cases += [
        pytest.param(lambda N=N: example_matrix_max_rank(N, q), degrees, id=f"max-rank-M{N}")
        for N, degrees in ((3, (2, 3)), (4, (2, 3)), (5, (2,)))
    ]
    return cases


@pytest.mark.parametrize("build,degrees", _oracle_cases())
def test_degree_one_settles_every_hopf_relation(build, degrees):
    # the twisted-derivation argument of verify_module_algebra: an instance
    # that passes on degree one, with only quantum-linear-space pairs, has
    # every Hopf-relation operator zero on the higher degrees too
    inst = build()
    assert inst.qls.validate().ok
    assert verify_module_algebra(inst, d_check=1).ok
    for d in degrees:
        assert hopf_relation_defects(inst, d) == [], d


@pytest.mark.parametrize("N", [5, 6])
def test_verify_large_max_rank_witness(N):
    assert verify_module_algebra(example_matrix_max_rank(N, zeta(5))).ok


# closed-form columns on quantum affine spaces -----------------------------------


@pytest.fixture
def raw_calls(monkeypatch):
    """Counts the calls of act_grouplike_raw and act_skew_raw."""
    calls = {"grouplike": 0, "skew": 0}

    def spy(kind, original):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(hopf, "act_grouplike_raw", spy("grouplike", act_grouplike_raw))
    monkeypatch.setattr(hopf, "act_skew_raw", spy("skew", act_skew_raw))
    return calls


def _oracle_matrix(pres, g, d, x=None):
    """The columns of operator_matrix, built word by word from act_*_raw."""
    basis = [(k,) for k in range(pres.ngens)] if d == 1 else pres.basis(d)
    index = {w: i for i, w in enumerate(basis)}
    one = Cyc.one(g.scalars[0].L)
    cols = []
    for w in basis:
        if x is None:
            img = act_grouplike_raw(pres, g, {w: one})
        else:
            img = act_skew_raw(pres, g, x, {w: one})
        cols.append({index[wi]: c for wi, c in img.terms.items()})
    return cols


def _assert_closed_form(pres, g, d, x, raw_calls):
    before = dict(raw_calls)
    fast = operator_matrix(pres, g, d, x)
    assert raw_calls == before, "the closed form must not call act_*_raw"
    assert fast == _oracle_matrix(pres, g, d, x), d
    assert not any(v.is_zero() for col in fast for v in col.values()), d


def test_closed_form_matches_oracle_on_plane_actions(raw_calls):
    for k in range(2, 7):
        for m in range(2, 7):
            inst, _ = plane_instance(k, m)
            g, g_att, x = inst.gen_actions[0], inst.attached_grouplike(0), inst.skews[0]
            for d in range(9):
                _assert_closed_form(inst.pres, g, d, None, raw_calls)
                _assert_closed_form(inst.pres, g_att, d, x, raw_calls)


def _seeded_affine_case(rng):
    """A t = 3 quantum affine space, a diagonal g and a multi-arrow eta, all
    over roots of unity of a seeded level (an odd level allows -zeta)."""
    L = rng.choice([3, 4, 5, 6, 7, 8])

    def unit():
        z = zeta(L, rng.randrange(L))
        return -z if rng.random() < 0.3 else z

    one = Cyc.one(L)
    p = [[one] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            p[i][j] = unit()
            p[j][i] = p[i][j].inv()
    g = GrouplikeAction.diagonal([unit() for _ in range(3)])
    values = [one, Cyc.rational(2, L) * zeta(L), -zeta(L, 2), Cyc.rational(-3, L)]
    eta = [[Cyc.zero(L)] * 3 for _ in range(3)]
    for _ in range(rng.randrange(1, 6)):
        eta[rng.randrange(3)][rng.randrange(3)] = rng.choice(values)
    return quantum_affine(p), g, SkewAction(eta)


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_matches_oracle_on_affine_grids(seed, raw_calls):
    rng = random.Random(seed)
    for _ in range(10):
        pres, g, x = _seeded_affine_case(rng)
        for d in range(6):
            _assert_closed_form(pres, g, d, None, raw_calls)
            _assert_closed_form(pres, g, d, x, raw_calls)


def test_closed_form_drops_vanishing_terms(raw_calls):
    # g = diag(-1, i) on the plane with p_01 = i: the arrow u_0 -> u_0 has
    # delta = alpha_0 = M/2, so S(delta, 2) = 1 - 1 = 0, and x.(u_0^2) = 0
    i4 = zeta(4)
    minus = Cyc.rational(-1, 4)
    pres = quantum_plane(i4)
    g = GrouplikeAction.diagonal([minus, i4])
    x = eta_from_entries(2, {(0, 0): Cyc.one(4), (0, 1): Cyc.one(4)}, 4)
    M, (alpha,), _ = hopf.root_exponents(4, [g], pres)
    assert hopf._geometric(4, alpha[0], 2).is_zero()
    for d in range(7):
        _assert_closed_form(pres, g, d, x, raw_calls)
    assert operator_matrix(pres, g, 2, x)[0] == {}
    # two diagonal arrows that cancel on one word: x.(u_0 u_1) = u_0 u_1 - u_0 u_1
    one = GrouplikeAction.identity(2, 4)
    y = eta_from_entries(2, {(0, 0): Cyc.one(4), (1, 1): minus}, 4)
    for d in range(7):
        _assert_closed_form(pres, one, d, y, raw_calls)
    assert operator_matrix(pres, one, 2, y)[1] == {}


def _other_cases():
    """(presentation, grouplike, skew, degree) the closed form must not take."""
    z3, one3 = zeta(3), Cyc.one(3)
    plane = quantum_plane(z3)
    x2 = eta_from_entries(2, {(0, 1): one3}, 3)
    q = zeta(5)
    weyl = example_weyl_nonfiltered(q, zeta(5, 2))
    m2 = m2_family(q, 3).instance()
    dual = dual_action(plane_a(3, 4))
    return [
        pytest.param(plane, GrouplikeAction((1, 0), [one3, one3]), x2, 3, id="permuting"),
        pytest.param(
            plane, GrouplikeAction.diagonal([Cyc.rational(2, 3), one3]), x2, 3, id="scalar-2"
        ),
        pytest.param(
            dual.pres, dual.attached_grouplike(0), dual.skews[0], 2, id="exterior"
        ),
        pytest.param(m2.pres, m2.attached_grouplike(0), m2.skews[0], 2, id="M2"),
        pytest.param(weyl.pres, weyl.attached_grouplike(0), weyl.skews[0], 1, id="weyl"),
    ]


@pytest.mark.parametrize("pres,g,x,d", _other_cases())
def test_other_cases_keep_the_raw_actions(pres, g, x, d, raw_calls):
    G, X = operator_matrix(pres, g, d), operator_matrix(pres, g, d, x)
    if d == 1:  # the letter images are read directly
        assert raw_calls == {"grouplike": 0, "skew": 0}
    else:
        assert raw_calls["grouplike"] > 0 and raw_calls["skew"] > 0
    assert G == _oracle_matrix(pres, g, d) and X == _oracle_matrix(pres, g, d, x)


def test_attached_grouplikes_are_built_once(monkeypatch):
    inst = plane_a(3, 4)
    first = inst.attached_grouplike(0)
    monkeypatch.setattr(ActionInstance, "group_elem_action", None)
    assert inst.attached_grouplike(0) is first


def _census_sweeps():
    # the presentations and candidate grouplikes of the census plane, Weyl
    # and affine searches: (k, m) in 3..6, and t = 3 at orders 5 and 7
    # under every Galois conjugate of the generic p; and every diagonal
    # grouplike of O_q(M_2) at ord 5, whose relation x11 x22 - x22 x11 -
    # (q - q^-1) x12 x21 has words of different letters
    from itertools import permutations

    from qhact.classify import _diag_candidates, _monomial_candidates
    from qhact.ncalg import first_weyl

    for k in range(3, 7):
        for m in range(3, 7):
            L = lcm(k, m)
            cands = list(_diag_candidates(2, L)) + list(_monomial_candidates(2, L, [(1, 0)]))
            mu = zeta(L, L // k)
            yield quantum_plane(mu), cands, L
            yield first_weyl(mu), cands, L
    for order in (5, 7):
        p = generic_affine_p(3, order)
        cands = list(_monomial_candidates(3, order, permutations(range(3))))
        for a in range(1, order):
            # on roots of unity the Galois conjugate zeta -> zeta^a is v -> v^a
            yield quantum_affine([[v**a for v in row] for row in p]), cands, order
    yield quantum_matrix(2, zeta(5)), list(_diag_candidates(4, 5)), 5


def test_fixed_relations_never_claims_a_moved_relation():
    # a relation fixed_relations calls fixed is one act_grouplike_raw sends
    # to 0, and the preservation memo, which skips the check for the same
    # reason, agrees with preserves_relations on every candidate
    from qhact.classify import _grouplike, _PreservationMemo, preserves_relations

    claimed = 0
    for pres, cands, L in _census_sweeps():
        rels = [{w: c.lift(L) for w, c in rel.items()} for rel in pres.relations()]
        memo = _PreservationMemo(pres, L)
        for perm, exps in cands:
            g = _grouplike(perm, exps, L)
            for rel, fixed in zip(rels, hopf.fixed_relations(g, rels)):
                if fixed:
                    claimed += 1
                    assert act_grouplike_raw(pres, g, rel).is_zero(), (pres.family, perm, exps)
            if len(rels) == 1 or g.is_diagonal():
                assert memo(perm, exps) == preserves_relations(pres, g)
    assert claimed > 1000


def test_fixed_relations_keep_the_failure_witnesses(monkeypatch):
    # a diagonal g that moves one relation of O_q(M_2) and fixes the others,
    # and a Weyl grouplike off alpha_u alpha_v = 1: the violations are the
    # ones act_grouplike_raw alone reports
    q = zeta(5)
    pres = quantum_matrix(2, q)
    g = GrouplikeAction.diagonal([q**-4, q**-2, q**-1, Cyc.one(5)])
    eta = eta_from_entries(4, {(3, 0): Cyc.one(5)}, 5)
    moved = taft_instance(pres, TaftSpec(5, 5, q**4), g, eta)
    weyl = example_weyl_nonfiltered(zeta(5), zeta(5, 2))
    a = weyl.gen_actions[0].scalars
    off = GrouplikeAction.diagonal([a[0], a[1] * zeta(5).lift(a[1].L), a[2], a[3]])
    weyl = taft_instance(weyl.pres, TaftSpec(10, 5, weyl.lam(0)), off, weyl.skews[0])
    for inst in (moved, weyl):
        rels = inst.pres.relations()
        assert not all(hopf.fixed_relations(inst.gen_actions[0], rels))
        got = verify_module_algebra(inst).violations
        monkeypatch.setattr(hopf, "fixed_relations", lambda g, rels: [False] * len(rels))
        want = verify_module_algebra(inst).violations
        monkeypatch.undo()
        assert got == want
        assert any(v["axiom"] == "grouplike-preserves-relation" for v in got)


def test_power_squares_from_self(monkeypatch):
    """GrouplikeAction.power agrees with composing g with itself e times,
    for e = 0..12, on diagonal grouplikes with scalars of mixed levels and
    on a permuting one, and g^3 takes two compose calls."""
    two = Cyc.rational(2)
    gs = [
        GrouplikeAction.diagonal([zeta(3), zeta(5, 2), zeta(4) * two]),
        GrouplikeAction.diagonal([zeta(12, 5), Cyc.one(1), zeta(7)]),
        GrouplikeAction((2, 0, 1), [zeta(5), zeta(3) * two, zeta(4, 3)]),
    ]
    for g in gs:
        loop = GrouplikeAction.identity(3, g.scalars[0].L)
        for e in range(13):
            assert g.power(e) == loop, (g, e)
            loop = g.compose(loop)
    calls = []
    compose = GrouplikeAction.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(GrouplikeAction, "compose", counted)
    gs[2].power(3)
    assert len(calls) == 2
