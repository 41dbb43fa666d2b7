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
    matrix_max_rank_components,
    max_rank,
    _SkewRows,
    solve_skew_space,
    spans_equal,
    verify_family,
)
from qhact.hopf import (
    GrouplikeAction,
    verify_module_algebra,
)
from qhact import linalg
from qhact.ncalg import first_weyl, quantum_affine, quantum_matrix, quantum_plane


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


def test_matrix_max_rank_component_tags():
    # down-shifts of types 1/2 at every even b, a <= N, then up-shifts of
    # types 5/6 at every even b, a < N: 2N - 2 components for odd and even N
    expected = {
        3: ["f1[b=2]", "f2[a=2]", "f5[b=2]", "f6[a=2]"],
        4: ["f1[b=2]", "f1[b=4]", "f2[a=2]", "f2[a=4]", "f5[b=2]", "f6[a=2]"],
        5: ["f1[b=2]", "f1[b=4]", "f2[a=2]", "f2[a=4]",
            "f5[b=2]", "f5[b=4]", "f6[a=2]", "f6[a=4]"],
        6: ["f1[b=2]", "f1[b=4]", "f1[b=6]", "f2[a=2]", "f2[a=4]", "f2[a=6]",
            "f5[b=2]", "f5[b=4]", "f6[a=2]", "f6[a=4]"],
    }
    for N, tags in expected.items():
        assert [a.tag for a in matrix_max_rank_components(N, zeta(5))] == tags


def test_skew_support_examples():
    # the same support rule mod p, as zero_kernel applies it to exponents of
    # fp_root(L): (a, k) stays when alpha_a = lam alpha_k
    def fp_support(pres, exps, ell, L):
        tables = _SkewRows.of(pres, tuple(range(len(exps))), L)
        pw = tables.powers
        alpha = [pw[e] for e in exps]
        lam_alpha = [pw[(ell + e) % L] for e in exps]
        return tables.system(alpha, lam_alpha, None, {}, True)[0]

    plane = quantum_plane(zeta(5))
    # mu = w, lam = w^2, lam^-1 mu = w^4
    assert fp_support(plane, [1, 4], 2, 5) == [(0, 1)]
    # the x = 0 kernel is not certified where the exact kernel is nonzero
    assert not _SkewRows.of(plane, (0, 1), 5).zero_kernel([1, 4], 2)
    assert fp_support(plane, [0, 1], 0, 5) == [(0, 0), (1, 1)]
    # at level 40: zeta_8 = w^5, alpha = zeta_8^3 = w^15
    affine = quantum_affine(generic_affine_p(3, 5))
    assert fp_support(affine, [15, 20, 25], 5, 40) == [(1, 0), (2, 1)]


def test_solve_skew_space_positions():
    # a diagonal g keeps the positions (a, k) with alpha_a = lam alpha_k
    mu, lam = zeta(5), zeta(5, 2)
    pres = quantum_plane(mu)
    g = GrouplikeAction.diagonal([mu, lam.inv() * mu])
    positions, basis = solve_skew_space(pres, g, lam)
    assert positions == [(0, 1)]
    assert len(basis) == 1
    one = Cyc.one(5)
    g_id = GrouplikeAction.diagonal([one, mu])
    assert solve_skew_space(pres, g_id, one)[0] == [(0, 0), (1, 1)]
    lam4 = zeta(8)
    alpha = zeta(8, 3)
    g3 = GrouplikeAction.diagonal([alpha, lam4 * alpha, lam4 * lam4 * alpha])
    pres3 = quantum_affine(generic_affine_p(3, 5))
    assert solve_skew_space(pres3, g3, lam4)[0] == [(1, 0), (2, 1)]


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


def _prefilter_grid(name):
    """(presentation, level, lambdas, candidates) of a sweep grid, with every
    primitive lambda of the order."""
    from itertools import permutations

    from qhact.classify import (
        _diag_candidates,
        _monomial_candidates,
        _rank_one_candidates,
        primitive_lambdas,
    )

    if name in ("plane-3-4", "weyl-3-4"):
        L = 12
        mu = zeta(3).lift(L)
        pres = quantum_plane(mu) if name == "plane-3-4" else first_weyl(mu)
        cands = list(_diag_candidates(2, L)) + list(_monomial_candidates(2, L, [(1, 0)]))
        return pres, L, primitive_lambdas(L, 4), cands
    if name == "affine-3-ord5":
        L = 5
        cands = list(_monomial_candidates(3, L, permutations(range(3))))
        return quantum_affine(generic_affine_p(3, 5)), L, primitive_lambdas(L, 5), cands
    L = 5
    cands = [c for tau in (False, True) for c in _rank_one_candidates(2, L, tau=tau)]
    return quantum_matrix(2, zeta(5), level=L), L, primitive_lambdas(L, 5), cands


@pytest.mark.parametrize("grid", ["plane-3-4", "weyl-3-4", "affine-3-ord5", "m2-ord5-tau"])
def test_sweep_prefilter_is_sound(grid):
    """On every candidate of the grid and every lambda, the sweep's
    preservation memo gives the verdict of preserves_relations, and a zero
    kernel certified mod p is a zero kernel of the exact solver."""
    from qhact.classify import (
        _grouplike,
        _PreservationMemo,
        _SkewRows,
        preserves_relations,
    )
    from qhact.cyclotomic import as_q_power, root_of_unity

    pres, L, lams, cands = _prefilter_grid(grid)
    ells = [as_q_power(lam, root_of_unity(L, 1)) for lam in lams]
    memo = _PreservationMemo(pres, L)
    tables = {}
    certified = uncertified = 0
    for perm, exps in cands:
        g = _grouplike(perm, exps, L)
        assert memo(perm, exps) == preserves_relations(pres, g, L), (perm, exps)
        if perm not in tables:
            tables[perm] = _SkewRows(pres, perm, L)
        for lam, ell in zip(lams, ells):
            if tables[perm].zero_kernel(exps, ell):
                certified += 1
                assert solve_skew_space(pres, g, lam, L)[1] == [], (perm, exps, lam)
            else:
                uncertified += 1
    assert len(memo.verdicts) < len(cands)
    assert certified > 0 and uncertified > 0


@pytest.mark.parametrize("grid", ["plane-3-4", "weyl-3-4", "affine-3-ord5", "m2-ord5-tau"])
def test_skew_rows_match_act_skew_raw(grid, monkeypatch):
    """On every candidate of the grid, the relation rows that
    solve_skew_space takes from the tables are, at every unit eta, the
    act_skew_raw image of that unit eta on each relation."""
    from qhact import classify
    from qhact.classify import _grouplike, _SkewRows
    from qhact.hopf import act_skew_raw, eta_from_entries

    pres, L, lams, cands = _prefilter_grid(grid)
    t = pres.ngens
    one = Cyc.one(L)
    rels = [{w: c.lift(L) for w, c in rel.items()} for rel in pres.relations()]
    built = []
    real = _SkewRows.system

    def recording(self, *args):
        out = real(self, *args)
        built.append((self, out))
        return out

    monkeypatch.setattr(_SkewRows, "system", recording)
    monkeypatch.setattr(classify.linalg, "nullspace", lambda rows, ncols, level=1: [])
    for perm, exps in cands:
        g = _grouplike(perm, exps, L)
        built.clear()
        solve_skew_space(pres, g, lams[0], L, unpruned=True)
        ((tables, (positions, rows)),) = built
        assert positions == [(a, k) for a in range(t) for k in range(t)]
        for col, (a, k) in enumerate(positions):
            x = eta_from_entries(t, {(a, k): one}, L)
            got = {}
            for row, entries in rows.items():
                v = entries.get(col)
                if row < len(tables.labels) and v is not None and not v.is_zero():
                    ridx, word = tables.labels[row]
                    got.setdefault(ridx, {})[word] = v
            for ridx, rel in enumerate(rels):
                want = act_skew_raw(pres, g, x, rel).terms
                assert got.get(ridx, {}) == want, (perm, exps, (a, k), ridx)
