import pytest

from qhact.cyclotomic import Cyc, InputError, lcm, zeta
from qhact.classify import (
    all_matrix_families,
    plane_family,
    SearchGrid,
    affine_pair_family,
    compatibility,
    enumerate_taft_affine,
    enumerate_taft_matrix,
    enumerate_taft_qplane,
    generic_affine_p,
    m2_family,
    m2_order3_family,
    max_rank,
    skew_support,
    solve_skew_space,
    spans_equal,
    verify_family,
)
from qhact.hopf import (
    GrouplikeAction,
    verify_module_algebra,
)
from qhact import linalg
from qhact.ncalg import quantum_affine, quantum_plane


def test_skew_support_examples():
    mu, lam = zeta(5), zeta(5, 2)
    g = GrouplikeAction.diagonal([mu, lam.inv() * mu])
    assert skew_support(g, lam) == {(0, 1)}
    one = Cyc.one(5)
    g_id = GrouplikeAction.diagonal([one, mu])
    assert skew_support(g_id, one) == {(0, 0), (1, 1)}
    lam4 = zeta(8)
    alpha = zeta(8, 3)
    g3 = GrouplikeAction.diagonal([alpha, lam4 * alpha, lam4 * lam4 * alpha])
    assert skew_support(g3, lam4) == {(1, 0), (2, 1)}


def test_census_count_frozen():
    # brute-force count of distinct (g, x) families at k = m = 3
    fams = enumerate_taft_qplane(3, 3)
    assert len(fams) == 4
    assert sorted(f.tag for f in fams) == ["a", "a", "b", "b"]


def test_weyl_census_constraint():
    # lambda = mu^{+-2} has order 3, never 4: no Weyl actions at (3, 4)
    assert enumerate_taft_qplane(3, 4, algebra="weyl") == []
    fams = enumerate_taft_qplane(5, 5, algebra="weyl")
    assert sorted(f.tag for f in fams) == ["a", "b"]


def test_matrix_search_lambda_off_menu():
    # at ord 7, q is not among q^{+-2}, q^{+-4}: no actions
    q = zeta(7)
    assert enumerate_taft_matrix(2, q, q) == []


def test_matrix_search_no_transpose_actions():
    q = zeta(5)
    for lam in (q * q, q**4):
        for fam in enumerate_taft_matrix(2, q, lam, include_tau=True):
            assert fam.g.is_diagonal()


def test_affine_monomial_grouplikes_admit_nothing():
    # nontrivial permutation parts never survive at t=3, m in {4, 5}
    p = generic_affine_p(3, 5)
    for m in (4, 5):
        fams = enumerate_taft_affine(
            p, m, grid=SearchGrid(level=5 if m == 5 else lcm(5, m), g_shape="monomial")
        )
        assert all(f.g.is_diagonal() for f in fams)


def test_scalar_ratio_needs_equal_supports():
    from qhact.classify import _scalar_ratio

    one, two = Cyc.one(5), Cyc.rational(2, 5)
    assert _scalar_ratio([{0: two}, {1: two}], [{0: one}, {1: one}]) == 2
    assert _scalar_ratio([{0: two}, {}], [{0: one}, {1: one}]) is None
    assert _scalar_ratio([{0: two}, {1: two}], [{0: one}, {}]) is None
    assert _scalar_ratio([{0: two}, {1: one}], [{0: one}, {1: one}]) is None
    assert _scalar_ratio([{}, {}], [{}, {}]) is None


def test_solve_power_scalar_cycle():
    # X is the 3-cycle of ones, so X^3 = I: gamma (G^3 - I) = I needs every
    # alpha_k^3 equal and different from 1
    from qhact.classify import solve_power_scalar
    from qhact.hopf import eta_from_entries

    alpha = zeta(9)
    one = Cyc.one(9)
    pres = quantum_affine([[one] * 3] * 3)
    x = eta_from_entries(3, {(0, 1): one, (1, 2): one, (2, 0): one}, 9)
    g = GrouplikeAction.diagonal([alpha, alpha * zeta(3).lift(9), alpha])
    assert solve_power_scalar(pres, g, x, 3, 9) == (alpha**3 - 1).inv()
    assert solve_power_scalar(pres, GrouplikeAction.diagonal([alpha, alpha, one]), x, 3, 9) is None
    assert solve_power_scalar(pres, GrouplikeAction.identity(3, 9), x, 3, 9) is None
    nil = eta_from_entries(3, {(0, 1): one, (1, 2): one}, 9)
    assert solve_power_scalar(pres, g, nil, 3, 9) == 0


def test_found_affine_structure():
    # row/column uniqueness and nilpotency (m != 3) for every found family
    p = generic_affine_p(3, 5)
    fams = enumerate_taft_affine(p, 5)
    for fam in fams:
        for member in fam.members():
            sup = member.support()
            rows = [a for a, _ in sup]
            cols = [k for _, k in sup]
            assert len(rows) == len(set(rows)) and len(cols) == len(set(cols))
            for (a, k) in sup:
                assert (k, a) not in sup
            L = fam.g.scalars[0].L
            assert linalg.s_is_zero(linalg.s_pow(member.matrix(L), 3, L))


def test_compat_symmetry():
    q = zeta(5)
    rows = [m2_family(q, r) for r in range(1, 9)]
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            res = compatibility(rows[i], rows[j], q)
            mirror = compatibility(rows[j], rows[i], q)
            assert res.compatible == mirror.compatible
            if res.compatible:
                assert res.zeta == mirror.zeta.inv()


def test_ord3_extras_compat():
    # with gamma and at least one of delta/epsilon surviving, the first extra
    # family is compatible only with type 6 and the second only with type 3
    q = zeta(3)
    rows = {r: m2_family(q, r) for r in range(1, 9)}

    def genuinely_compatible(extra):
        keep = set()
        for r, row in rows.items():
            res = compatibility(row, extra, q)
            if not res.compatible:
                continue
            killed = {lab for side, lab in res.forced_zero if side == "j"}
            if "gamma" in killed or {"delta", "epsilon"} <= killed:
                continue
            keep.add(r)
        return keep

    assert genuinely_compatible(m2_order3_family(q, 1)) == {6}
    assert genuinely_compatible(m2_order3_family(q, 2)) == {3}


def test_plane_max_rank_two():
    res = max_rank(enumerate_taft_qplane(5, 5))
    assert res.theta == 2
    w = res.witness
    assert verify_module_algebra(w).ok
    omega = w.qls.lam(0)
    assert w.qls.chis[1].eval(w.qls.gs[0], w.level) == omega
    assert w.qls.lam(1) == omega.inv()
    assert w.qls.chis[0].eval(w.qls.gs[1], w.level) == omega.inv()


def test_mn_family_reduces_to_m2():
    q = zeta(5)
    # column-shift families evaluated at the smallest sizes agree with the
    # 2x2 table rows 1 and 4
    r1 = m2_family(q, 1)
    r4 = m2_family(q, 4)
    assert r1.lam == q * q and r4.lam == (q * q).inv()
    assert r1.g.scalars == (q, q.inv(), q, q.inv())
    assert {p[0] for p in r1.parts} == {"delta"}


def test_solve_skew_space_positions():
    mu, lam = zeta(5), zeta(5, 2)
    pres = quantum_plane(mu)
    g = GrouplikeAction.diagonal([mu, lam.inv() * mu])
    positions, basis = solve_skew_space(pres, g, lam)
    assert positions == [(0, 1)]
    assert len(basis) == 1


def test_affine_pair_family_alpha_rule():
    p = generic_affine_p(3, 5)
    pres = quantum_affine(p)
    lam = zeta(5)
    fam = affine_pair_family(pres, lam, 0, 1)
    # the outside scalar is p_1k p_k2 (0-based: p[0][2] p[2][1])
    assert fam.g.scalars[2] == pres.p[0][2] * pres.p[2][1]
    assert verify_module_algebra(fam.instance()).ok


@pytest.mark.slow
def test_matrix_search_n3_full():
    # the exhaustive diagonal sweep at N = 3 finds exactly the printed families
    q = zeta(5)
    found = enumerate_taft_matrix(3, q, q * q, include_tau=False)
    assert sorted(f.tag for f in found) == [
        "f1[b=2]", "f1[b=3]", "f2[a=2]", "f2[a=3]", "f3", "f4",
    ]
    found5 = enumerate_taft_matrix(3, q, (q * q).inv(), include_tau=False)
    assert sorted(f.tag for f in found5) == [
        "f5[b=1]", "f5[b=2]", "f6[a=1]", "f6[a=2]", "f7", "f8",
    ]
    for fam in found + found5:
        verify_family(fam, 5)


def test_disjoint_arrows_fail_at_t4():
    # eta_12 and eta_34 simultaneously nonzero never verifies (t = 4)
    p = generic_affine_p(4, 5)
    pres = quantum_affine(p)
    lam = zeta(5)
    # pick g satisfying the degree-one commutation for both arrows
    alpha = [pres.p[0][1], lam.inv() * pres.p[0][1], pres.p[2][3], lam.inv() * pres.p[2][3]]
    g = GrouplikeAction.diagonal(alpha)
    from qhact.hopf import TaftSpec, eta_from_entries, taft_instance

    one = Cyc.one(5)
    eta = eta_from_entries(4, {(0, 1): one, (2, 3): one}, 5)
    n = lcm(g.order(), 5)
    inst = taft_instance(pres, TaftSpec(n, 5, lam), g, eta)
    assert not verify_module_algebra(inst).ok


def test_max_rank_bound_other_order():
    # the rank bound holds and is attained at ord(q) = 7 as well
    q = zeta(7)
    res = max_rank(all_matrix_families(2, q), q)
    assert res.theta == 3
    assert verify_module_algebra(res.witness).ok


def test_search_hypothesis_gates():
    with pytest.raises(InputError):
        enumerate_taft_qplane(1, 3)  # ord(mu) must exceed 1
    with pytest.raises(InputError):
        enumerate_taft_qplane(3, 2)  # m >= 3
    with pytest.raises(InputError):
        enumerate_taft_affine(generic_affine_p(2, 5), 5)  # t >= 3
    one = Cyc.one(2)
    with pytest.raises(InputError):
        # ord(p_ij) = 2 < 3
        enumerate_taft_affine(
            [[one, -one, -one], [-one, one, -one], [-one, -one, one]], 5
        )
    with pytest.raises(InputError):
        enumerate_taft_matrix(2, Cyc.rational(-1), zeta(5))  # q = -1
    with pytest.raises(InputError):
        enumerate_taft_matrix(2, zeta(5), Cyc.rational(-1))  # ord(lambda) = 2
    with pytest.raises(InputError):
        SearchGrid(level=5, g_shape="rank_one")  # diagonal or monomial only


def test_compat_requires_same_presentation():
    q = zeta(5)
    with pytest.raises(InputError):
        compatibility(m2_family(q, 1), plane_family(q, q * q, "a"))


@pytest.mark.parametrize("grid", ["plane-3-4", "affine-3-ord5"])
def test_unpruned_solver_spans_pruned(grid):
    from itertools import product
    from math import gcd

    from qhact.cyclotomic import root_of_unity

    if grid == "plane-3-4":
        L, m, t = 12, 4, 2
        pres = quantum_plane(zeta(3).lift(L))
    else:
        L, m, t = 5, 5, 3
        pres = quantum_affine(generic_affine_p(3, 5))
    lams = [root_of_unity(L, (L // m) * j) for j in range(1, m) if gcd(j, m) == 1]
    nonzero = 0
    for exps in product(range(L), repeat=t):
        g = GrouplikeAction.diagonal([root_of_unity(L, e) for e in exps])
        for lam in lams:
            _, pruned = solve_skew_space(pres, g, lam, L)
            _, unpruned = solve_skew_space(pres, g, lam, L, unpruned=True)
            assert spans_equal(unpruned, pruned, t), (exps, lam)
            nonzero += bool(pruned)
    assert nonzero > 0
