from math import gcd

import pytest

from qhact.cyclotomic import Cyc, InputError, lcm, zeta
from qhact.hopf import (
    AbelianGroup,
    ActionInstance,
    Character,
    GrouplikeAction,
    QLSData,
    TaftSpec,
    act_grouplike,
    act_skew,
    dual_action,
    eta_from_entries,
    inner_faithfulness,
    instance_from_json,
    instance_to_json,
    is_faithful_qls,
    operator_matrix,
    taft_inner_faithful,
    taft_instance,
    verify_module_algebra,
)
from qhact import linalg
from qhact.classify import example_weyl_nonfiltered, m2_family
from qhact.ncalg import (
    NCPoly,
    from_word,
    multiply,
    p_add,
    quantum_affine,
    quantum_matrix,
    quantum_plane,
)


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


def test_verify_plane_a_passes():
    for k, m in [(3, 3), (3, 4), (4, 3), (5, 5)]:
        inst = plane_a(k, m)
        rep = verify_module_algebra(inst)
        assert rep.ok, (k, m, rep.violations)
        assert taft_inner_faithful(inst, lcm(k, m))


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
    g1 = operator_matrix(pres, g, 1)
    G = g.matrix(inst.level)
    for j, col in enumerate(g1):
        for i, v in col.items():
            assert v == G[j][i]
    assert g1 == G
    # x^2 at degree 1 is the matrix square
    X1 = operator_matrix(pres, g, 1, x)
    x2 = linalg.s_mul(X1, X1)
    X = x.matrix(inst.level)
    XX = linalg.s_mul(X, X)
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
    assert linalg.s_is_zero(linalg.s_sub(gx, linalg.s_scale(xg, lam)))


def test_operator_matrix_degree_one_is_the_generator_matrices():
    weyl = example_weyl_nonfiltered(zeta(5), zeta(5, 2))
    assert not weyl.pres.is_graded()
    for inst in (plane_a(3, 4), m2_family(zeta(5), 3).instance(), weyl):
        for j, g in enumerate(inst.gen_actions):
            assert operator_matrix(inst.pres, g, 1) == g.matrix(inst.level), j
        for i, x in enumerate(inst.skews):
            X = operator_matrix(inst.pres, inst.attached_grouplike(i), 1, x)
            assert X == x.matrix(inst.level), i


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
