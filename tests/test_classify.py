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
    _diagonal_support,
    _SkewRows,
    solve_skew_space,
    spans_equal,
    verify_family,
)
from qhact.hopf import (
    GrouplikeAction,
    operator_matrix,
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
            X = operator_matrix(fam.pres, fam.g, 1, member)
            assert linalg.s_is_zero(linalg.s_pow(X, 3, L))


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
    # the support rule on exponents, as the sweep and solve_skew_space apply
    # it: (a, k) stays when alpha_a = lam alpha_k, i.e. e_a - e_k = ell mod L
    def support(exps, ell, L):
        return _diagonal_support(exps, [ell], L)[0]

    plane = quantum_plane(zeta(5))
    # mu = w, lam = w^2, lam^-1 mu = w^4
    assert support([1, 4], 2, 5) == [(0, 1)]
    # the x = 0 kernel is not certified where the exact kernel is nonzero: a
    # certified block would be skipped and leave no basis vector
    assert solve_skew_space(plane, (0, 1), (1, 4), 2, 5, [(0, 1)])[1] != []
    assert support([0, 1], 0, 5) == [(0, 0), (1, 1)]
    # at level 40: zeta_8 = w^5, alpha = zeta_8^3 = w^15
    assert support([15, 20, 25], 5, 40) == [(1, 0), (2, 1)]
    assert _diagonal_support([0, 1], [3, 1], 5) == [[], [(1, 0)]]


def test_solve_skew_space_positions():
    # a diagonal g keeps the positions (a, k) with alpha_a = lam alpha_k;
    # mu = w = zeta_5, lam = w^2 and lam^-1 mu = w^4
    pres = quantum_plane(zeta(5))
    positions, basis = solve_skew_space(pres, (0, 1), (1, 4), 2, 5)
    assert positions == [(0, 1)]
    assert len(basis) == 1
    # g = (1, mu) at lam = 1
    assert solve_skew_space(pres, (0, 1), (0, 1), 0, 5)[0] == [(0, 0), (1, 1)]
    # at level 40: lam = zeta_8 = w^5 and alpha = zeta_8^3 = w^15, so g is
    # (alpha, lam alpha, lam^2 alpha)
    pres3 = quantum_affine(generic_affine_p(3, 5))
    assert solve_skew_space(pres3, (0, 1, 2), (15, 20, 25), 5, 40)[0] == [(1, 0), (2, 1)]


def test_affine_pair_family_alpha_rule():
    p = generic_affine_p(3, 5)
    pres = quantum_affine(p)
    lam = zeta(5)
    fam = affine_pair_family(pres, lam, 0, 1)
    # the outside scalar is p_1k p_k2 (0-based: p[0][2] p[2][1])
    assert fam.g.scalars[2] == pres.p[0][2] * pres.p[2][1]
    assert verify_module_algebra(fam.instance()).ok


@pytest.mark.slow
def test_matrix_search_n4_tau_ord3():
    # 54 of the 55 transpose blocks peel; the sweep finds the printed
    # families f1, f2, f3 and f4 and nothing under the transpose
    found = enumerate_taft_matrix(4, zeta(3), zeta(3) ** 2)
    assert sorted(f.tag for f in found) == [
        "f1[b=2]", "f1[b=3]", "f1[b=4]", "f2[a=2]", "f2[a=3]", "f2[a=4]", "f3", "f4",
    ]


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

    if grid == "plane-3-4":
        L, m, t = 12, 4, 2
        pres = quantum_plane(zeta(3).lift(L))
    else:
        L, m, t = 5, 5, 3
        pres = quantum_affine(generic_affine_p(3, 5))
    ells = [(L // m) * j for j in range(1, m) if gcd(j, m) == 1]
    identity = tuple(range(t))
    nonzero = 0
    for exps in product(range(L), repeat=t):
        for ell in ells:
            _, pruned = solve_skew_space(pres, identity, exps, ell, L)
            _, unpruned = solve_skew_space(pres, identity, exps, ell, L, unpruned=True)
            assert spans_equal(unpruned, pruned, t), (exps, ell)
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
    if name == "m3-ord3":
        L = 3
        cands = list(_rank_one_candidates(3, L))
        return quantum_matrix(3, zeta(3), level=L), L, primitive_lambdas(L, 3), cands
    L = 5
    cands = [c for tau in (False, True) for c in _rank_one_candidates(2, L, tau=tau)]
    return quantum_matrix(2, zeta(5), level=L), L, primitive_lambdas(L, 5), cands


GRIDS = ["plane-3-4", "weyl-3-4", "affine-3-ord5", "m2-ord5-tau", "m3-ord3"]


def _unknowns(tables, exps, ells):
    """The unknowns the sweep hands solve_skew_space at each ell: every
    position for a permuting g, _diagonal_support otherwise."""
    if not tables.diagonal:
        return [tables.positions for _ in ells]
    return _diagonal_support(exps, ells, tables.L)


def _exact_solve(monkeypatch, pres, perm, exps, ell, L, positions=None, unpruned=False):
    """solve_skew_space with the F_p certificate off: _SkewRows.full_rank
    certifies nothing and the tables' keyed verdicts start empty, so no
    verdict of a certified run is read and none is left for one.  Every
    present block is eliminated exactly."""
    tables = _SkewRows.of(pres, perm, L)
    kept, tables.verdicts = tables.verdicts, {}
    try:
        with monkeypatch.context() as patch:
            patch.setattr(_SkewRows, "full_rank", lambda *args: False)
            return solve_skew_space(pres, perm, exps, ell, L, positions, unpruned)
    finally:
        tables.verdicts = kept


def _support_by_differences(exps, L):
    """{ell mod L: positions (a, k) with exps[a] - exps[k] = ell}, from all
    t^2 differences, the way the sweep found the support before the bucket
    join; kept as the oracle."""
    out = {}
    for a, ea in enumerate(exps):
        for k, ek in enumerate(exps):
            out.setdefault((ea - ek) % L, []).append((a, k))
    return out


@pytest.mark.parametrize("grid", GRIDS)
def test_bucket_join_matches_the_differences(grid):
    from qhact.cyclotomic import as_q_power

    _, L, lams, cands = _prefilter_grid(grid)
    ells = [as_q_power(lam, zeta(L)) for lam in lams]
    for _, exps in cands:
        want = _support_by_differences(exps, L)
        got = _diagonal_support(exps, ells, L)
        assert got == [want.get(ell % L, []) for ell in ells], exps


@pytest.mark.parametrize("grid", GRIDS)
def test_sweep_prefilter_is_sound(grid, monkeypatch):
    """On every candidate of the grid and every lambda, the sweep's
    preservation memo gives the verdict of preserves_relations, and a
    system that solve_skew_space certifies mod p block by block, calling
    nullspace on no block, has a zero kernel when every block is eliminated
    exactly."""
    from qhact import classify
    from qhact.classify import (
        _grouplike,
        _PreservationMemo,
        preserves_relations,
    )
    from qhact.cyclotomic import as_q_power, root_of_unity

    pres, L, lams, cands = _prefilter_grid(grid)
    ells = [as_q_power(lam, root_of_unity(L, 1)) for lam in lams]
    memo = _PreservationMemo(pres, L)
    nullspace = _count_calls(monkeypatch, classify.linalg, "nullspace")
    certified = uncertified = 0
    for perm, exps in cands:
        g = _grouplike(perm, exps, L)
        assert memo(perm, exps) == preserves_relations(pres, g), (perm, exps)
        unknowns = _unknowns(_SkewRows.of(pres, perm, L), exps, ells)
        for ell, positions in zip(ells, unknowns):
            nullspace[0] = 0
            solve_skew_space(pres, perm, exps, ell, L, positions)
            if nullspace[0]:
                uncertified += 1
                continue
            certified += 1
            got = _exact_solve(monkeypatch, pres, perm, exps, ell, L, positions)
            assert got[1] == [], (perm, exps, ell)
    assert len(memo.verdicts) < len(cands)
    assert certified > 0 and uncertified > 0


def _chis(tables, alpha, one):
    """The product of alpha over each prefix of the tables, exactly."""
    out = []
    for prefix in tables.prefixes:
        c = one
        for k in prefix:
            c = c * alpha[k]
        out.append(c)
    return out


@pytest.mark.parametrize("grid", ["plane-3-4", "weyl-3-4", "affine-3-ord5", "m2-ord5-tau"])
def test_skew_rows_match_act_skew_raw(grid):
    """On every candidate of the grid, the relation rows that
    _SkewRows.rows builds, block by block over every position, are at every
    unit eta the act_skew_raw image of that unit eta on each relation; the
    blocks partition the positions, and every column of a block that peels
    is nonzero."""
    from qhact.classify import _grouplike
    from qhact.hopf import act_skew_raw, eta_from_entries

    pres, L, lams, cands = _prefilter_grid(grid)
    t = pres.ngens
    one = Cyc.one(L)
    rels = [{w: c.lift(L) for w, c in rel.items()} for rel in pres.relations()]
    peeled = 0
    for perm, exps in cands:
        g = _grouplike(perm, exps, L)
        tables = _SkewRows.of(pres, perm, L)
        alpha = g.scalars
        lam_alpha = [lams[0] * a for a in alpha]
        assert sorted(pos for block in tables.blocks for pos in block.positions) == tables.positions
        chis = _chis(tables, alpha, one)
        got = {}
        for block in tables.blocks:
            order = block.positions
            cols = {pos: c for c, pos in enumerate(order)}
            for row, entries in tables.rows(block, cols, alpha, lam_alpha, chis, False, False):
                for col, v in entries.items():
                    if row < len(tables.labels) and not v.is_zero():
                        ridx, word = tables.labels[row]
                        got.setdefault(order[col], {}).setdefault(ridx, {})[word] = v
            if block.peels:
                peeled += 1
                for pos in order:
                    assert got.get(pos), (perm, exps, pos)
        for a, k in tables.positions:
            x = eta_from_entries(t, {(a, k): one}, L)
            for ridx, rel in enumerate(rels):
                want = act_skew_raw(pres, g, x, rel).terms
                assert got.get((a, k), {}).get(ridx, {}) == want, (perm, exps, (a, k), ridx)
    # no block of the plane or the Weyl algebra peels
    assert (peeled > 0) == (grid not in ("plane-3-4", "weyl-3-4"))


def _whole_system(tables, positions, alpha, lam_alpha, chi, image, pruned):
    """The skew system as one matrix, the way solve_skew_space built it
    before the blocks, kept as the oracle: rows over positions from the
    position-major table, each coefficient mapped by image into the field of
    alpha, lam_alpha and chi, and the rows of g x = lam x g unless pruned."""
    t = tables.t
    rows = {}
    if not pruned:
        perm, base = tables.perm, len(tables.labels)
        inv = [0] * t
        for k in range(t):
            inv[perm[k]] = k
        for r in range(t):
            for c in range(t):
                col1, col2 = inv[r] * t + c, r * t + perm[c]
                if col1 == col2:
                    rows[base + r * t + c] = {col1: alpha[inv[r]] - lam_alpha[c]}
                else:
                    rows[base + r * t + c] = {col1: alpha[inv[r]], col2: -lam_alpha[c]}
    for col, pos in enumerate(positions):
        for prefix, terms in tables.exact.get(pos, ()):
            x = chi(prefix)
            for row, c in terms:
                entries = rows.setdefault(row, {})
                v = image(c) * x
                entries[col] = v if col not in entries else entries[col] + v
    return list(rows.values())


@pytest.mark.parametrize("grid", GRIDS)
def test_blocks_match_the_whole_system(grid, monkeypatch):
    """On every candidate of the grid and every lambda, solve_skew_space
    certifies every block mod p, calling nullspace on none, exactly when
    rank_mod gives the whole system full column rank; on every uncertified
    candidate the block-wise solver returns the positions and basis, in
    order, of nullspace on the whole system, pruned and unpruned; and an
    empty diagonal support leaves only x = 0.  The keyed verdicts ask
    rank_mod no more often than with them forgotten, and on the affine grid
    less often."""
    from qhact import classify
    from qhact.classify import _grouplike
    from qhact.cyclotomic import as_q_power, fp_image
    from qhact.hopf import eta_from_entries

    rank_mod, nullspace = linalg.rank_mod, linalg.nullspace
    calls = _count_calls(monkeypatch, classify.linalg, "rank_mod")
    eliminated = _count_calls(monkeypatch, classify.linalg, "nullspace")

    def certifies(perm, exps, ell, positions):
        """Whether solve_skew_space skips every block it is given."""
        eliminated[0] = 0
        solve_skew_space(pres, perm, exps, ell, L, positions)
        return eliminated[0] == 0

    pres, L, lams, cands = _prefilter_grid(grid)
    t = pres.ngens
    one = Cyc.one(L)
    ells = [as_q_power(lam, zeta(L)) for lam in lams]
    tables = {}
    uncertified = empty = cached = fresh = 0
    for perm, exps in cands:
        tb = tables.get(perm) or tables.setdefault(perm, _SkewRows.of(pres, perm, L))
        assert all(block.fp is not None for block in tb.blocks)
        p, pw = tb.p, tb.powers
        g = _grouplike(perm, exps, L)
        alpha = g.scalars

        def chi(prefix):
            c = one
            for k in prefix:
                c = c * alpha[k]
            return c

        for lam, ell, positions in zip(lams, ells, _unknowns(tb, exps, ells)):
            calls[0] = 0
            verdict = certifies(perm, exps, ell, positions)
            cached += calls[0]
            kept, tb.verdicts = tb.verdicts, {}
            calls[0] = 0
            assert certifies(perm, exps, ell, positions) == verdict
            fresh += calls[0]
            tb.verdicts = kept
            fp_alpha = [pw[e] for e in exps]
            fp_lam_alpha = [pw[(ell + e) % L] for e in exps]
            if tb.diagonal:
                assert positions == [
                    (a, k) for a in range(t) for k in range(t) if fp_alpha[a] == fp_lam_alpha[k]
                ]
            rows = _whole_system(
                tb,
                positions,
                fp_alpha,
                fp_lam_alpha,
                lambda prefix: pw[sum(exps[k] for k in prefix) % L],
                lambda v: fp_image(v, p, pw[1], L),
                tb.diagonal,
            )
            n = len(positions)
            assert verdict == (rank_mod(rows, n, p) == n), (perm, exps, ell)
            if tb.diagonal and n > 1:
                # fewer unknowns at the same exponents are a different key
                sub = positions[1:]
                rows = _whole_system(
                    tb,
                    sub,
                    fp_alpha,
                    fp_lam_alpha,
                    lambda prefix: pw[sum(exps[k] for k in prefix) % L],
                    lambda v: fp_image(v, p, pw[1], L),
                    True,
                )
                want = rank_mod(rows, n - 1, p) == n - 1
                assert certifies(perm, exps, ell, sub) == want, (perm, exps, ell, sub)
            if not positions:
                empty += 1
                assert solve_skew_space(pres, perm, exps, ell, L) == ([], [])
            if verdict:
                continue
            uncertified += 1
            lam_alpha = [lam * a for a in alpha]
            for unpruned in (False, True):
                pruned = tb.diagonal and not unpruned
                cols = tb.positions
                if pruned:
                    cols = [(a, k) for a in range(t) for k in range(t) if alpha[a] == lam_alpha[k]]
                rows = _whole_system(tb, cols, alpha, lam_alpha, chi, lambda v: v, pruned)
                rows = [{c: v for c, v in row.items() if not v.is_zero()} for row in rows]
                kernel = nullspace([row for row in rows if row], len(cols), L)
                want = [eta_from_entries(t, {cols[c]: v for c, v in vec.items()}, L) for vec in kernel]
                got_cols, got = solve_skew_space(pres, perm, exps, ell, L, unpruned=unpruned)
                assert got_cols == cols
                assert [x.eta for x in got] == [x.eta for x in want], (perm, exps, ell, unpruned)
    assert uncertified > 0
    assert empty > 0 or not all(tb.diagonal for tb in tables.values())
    assert cached <= fresh
    if grid == "affine-3-ord5":
        assert cached < fresh
    if grid == "m3-ord3":
        # every block that does not peel reads every exponent: none is keyed
        assert not any(tb.verdicts for tb in tables.values())


@pytest.mark.parametrize("grid", GRIDS)
def test_keyed_blocks_hold_one_position(grid):
    """Why a keyed verdict need not vary with the present positions today:
    on the diagonal tables of every grid, each keyed block that does not
    peel holds one position, so its present positions are always the same.
    A family with a larger keyed block needs a test that varies them."""
    pres, L, _, _ = _prefilter_grid(grid)
    tables = _SkewRows.of(pres, tuple(range(pres.ngens)), L)
    keyed = [block.positions for block in tables.blocks if block.keyed and not block.peels]
    for positions in keyed:
        assert len(positions) == 1, f"{grid}: keyed block {positions} holds several positions"
    want = {"plane-3-4": 2, "weyl-3-4": 2, "affine-3-ord5": 6, "m2-ord5-tau": 2, "m3-ord3": 0}
    assert len(keyed) == want[grid], keyed


@pytest.mark.parametrize("grid", GRIDS)
def test_power_scalar_early_answer_matches_power_ratio(grid):
    """On every skew basis vector the sweep of the grid hands to keep,
    solve_power_scalar gives hopf.power_ratio's answer, ANY read as 0."""
    from qhact.classify import _sweep, solve_power_scalar
    from qhact.hopf import power_ratio

    pres, L, lams, cands = _prefilter_grid(grid)
    m = lams[0].mult_order()
    nilpotent = []

    def keep(g, x):
        g = g.lift(L)
        X = operator_matrix(pres, g, 1, x)
        want = power_ratio(pres, g, X, m, L)
        got = solve_power_scalar(pres, g, x, m, L)
        if want is None:
            assert got is None, (g, x)
        else:
            assert got == (Cyc.zero(L) if want is linalg.ANY else want), (g, x)
        nilpotent.append(linalg.s_is_zero(linalg.s_pow(X, m, L)))
        return False

    _sweep(pres, lams, cands, L, keep)
    # no candidate of the Weyl grid has a skew solution; X^m != 0 is
    # test_solve_power_scalar_cycle's case
    assert any(nilpotent) == (grid != "weyl-3-4")


def _grid_form(cands):
    """The sweep's grid form of a candidate list: (perm, None) for each
    permutation, in order of first appearance."""
    return [(perm, None) for perm in dict.fromkeys(perm for perm, _ in cands)]


@pytest.mark.parametrize(
    "t,L", [(2, 3), (2, 5), (2, 12), (2, 30), (3, 3), (3, 5), (3, 12), (3, 30),
            (4, 3), (4, 5), (4, 12)],
)
def test_live_exponents_are_the_filtered_grid(t, L):
    """_live_exponents is _diag_candidates filtered by _diagonal_support,
    in its order: one ell, several, an ell past L and an ell of 0 mod L."""
    from qhact.classify import _diag_candidates, _live_exponents

    ells_sets = [[1], [1, L - 1], [L // 3, 2 * L // 3, L + 1], [L], []]
    for ells in ells_sets:
        want = [
            exps for _, exps in _diag_candidates(t, L)
            if any(s != [] for s in _diagonal_support(exps, ells, L))
        ]
        assert list(_live_exponents(t, ells, L)) == want, ells
        if ells == [1] and t < L:
            assert 0 < len(want) < L**t


def _keys_of(memo, perm):
    return {key for p, key in memo.verdicts if p == perm}


@pytest.mark.parametrize("grid", GRIDS)
def test_refused_permutations_keep_no_candidate(grid):
    """The reachable keys are the keys of the exponent grid, each with a
    representative of that key.  A permutation whose reachable keys all
    refuse has no candidate in the grid that the per-candidate memo keeps;
    refuses asks each reachable key once, and the full grid of the
    permutation reaches no other key."""
    from itertools import product

    from qhact.classify import _PreservationMemo

    pres, L, _, cands = _prefilter_grid(grid)
    t = pres.ngens
    identity = tuple(range(t))
    per_candidate = _PreservationMemo(pres, L)
    reps = per_candidate.reachable
    assert all(per_candidate.key(exps) == key for key, exps in reps.items())
    if L**t <= 5**4:
        assert set(reps) == {per_candidate.key(exps) for exps in product(range(L), repeat=t)}
    keys = {}
    for perm, _ in _grid_form(cands):
        if perm == identity:
            continue
        memo = _PreservationMemo(pres, L)
        refused = memo.refuses(perm)
        reached = _keys_of(memo, perm)
        for exps in product(range(L), repeat=t):
            memo(perm, exps)
        if refused:
            assert not any(per_candidate(p, exps) for p, exps in cands if p == perm), perm
            assert _keys_of(memo, perm) == reached, perm
        keys[perm] = len(_keys_of(memo, perm)), refused
    # the plane's swap has one key, the Weyl swap L, and each of the five
    # permutations of affine t = 3 one; all of them refuse
    want = {
        "plane-3-4": {(1, 0): (1, True)},
        "weyl-3-4": {(1, 0): (L, True)},
        "affine-3-ord5": {
            perm: (1, True) for perm, _ in _grid_form(cands) if perm != identity
        },
    }
    if grid in want:
        assert keys == want[grid]


def _count_calls(monkeypatch, module, name):
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("grid", ["plane-3-4", "weyl-3-4", "affine-3-ord5"])
def test_grid_sweep_matches_the_candidate_sweep(grid, monkeypatch):
    """_sweep over the grid form finds the same families, hands keep the
    same skew solutions in the same order, keeps the same memo and block
    verdicts and asks preserves_relations no more often than over the
    candidate list."""
    from qhact import classify

    calls = _count_calls(monkeypatch, classify, "preserves_relations")
    memos = []

    class Memo(classify._PreservationMemo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(classify, "_PreservationMemo", Memo)
    runs = []
    for form in (list, _grid_form):
        pres, L, lams, cands = _prefilter_grid(grid)
        kept = []

        def keep(g, x):
            kept.append((g.key(), x.eta))
            return True

        calls[0] = 0
        found = classify._sweep(pres, lams, form(cands), L, keep)
        blocks = {
            (perm, tb.blocks.index(key[0]), key[1], key[2]): v
            for perm, tb in ((perm, pres._skew_tables[perm, L]) for perm, _ in pres._skew_tables)
            for key, v in tb.verdicts.items()
        }
        families = [(f.lam, f.g, [x.eta for x in f.basis]) for f in found]
        runs.append((families, kept, memos[-1].verdicts, blocks, calls[0]))
    (families, kept, verdicts, blocks, before), (families2, kept2, verdicts2, blocks2, after) = runs
    assert families2 == families and kept2 == kept
    assert verdicts2 == verdicts and blocks2 == blocks
    assert after <= before
    # no candidate of the Weyl grid has a skew solution
    assert bool(families) == (grid != "weyl-3-4")


def test_census_searches_ask_no_more_preservation_checks(monkeypatch):
    """On the census searches, plane and Weyl at (k, m) in 3..6 and the
    monomial affine grids at orders 5 and 7, the grid sweep asks
    preserves_relations no more often than the candidate sweep."""
    from itertools import permutations

    from qhact import classify
    from qhact.classify import _diag_candidates, _monomial_candidates, primitive_lambdas

    calls = _count_calls(monkeypatch, classify, "preserves_relations")
    searches = []
    for k in range(3, 7):
        for m in range(3, 7):
            L = lcm(k, m)
            cands = list(_diag_candidates(2, L)) + list(_monomial_candidates(2, L, [(1, 0)]))
            mu = zeta(L, L // k)
            searches += [(quantum_plane, mu, L, m, cands), (first_weyl, mu, L, m, cands)]
    for order in (5, 7):
        cands = list(_monomial_candidates(3, order, permutations(range(3))))
        searches.append((quantum_affine, generic_affine_p(3, order), order, order, cands))
    total = [0, 0]
    for build, arg, L, m, cands in searches:
        for side, form in enumerate((list, _grid_form)):
            calls[0] = 0
            classify._sweep(build(arg), primitive_lambdas(L, m), form(cands), L, lambda g, x: False)
            total[side] += calls[0]
            assert side == 0 or calls[0] <= before, (build, L, m)
            before = calls[0]
    assert 0 < total[1] <= total[0]


@pytest.mark.parametrize("grid", GRIDS)
def test_skew_certificate_keeps_the_exact_bases(grid, monkeypatch):
    """solve_skew_space, which skips a block whose rows mod p have full
    column rank, returns the positions and basis of the exact elimination
    of every present block, pruned and unpruned, at every lambda on at
    least 60 candidates spread over the grid; and it skips some block.  The
    certified runs share the keyed verdicts, as the sweep does; the exact
    runs neither read nor write them.  On every grid with a keyed block,
    some keyed block is certified."""
    from qhact import classify
    from qhact.cyclotomic import as_q_power

    pres, L, lams, cands = _prefilter_grid(grid)
    nullspace = _count_calls(monkeypatch, classify.linalg, "nullspace")
    ells = [as_q_power(lam, zeta(L)) for lam in lams]
    with_cert = without = 0
    for perm, exps in cands[:: max(1, len(cands) // 60)]:
        for ell in ells:
            for unpruned in (False, True):
                nullspace[0] = 0
                got = solve_skew_space(pres, perm, exps, ell, L, unpruned=unpruned)
                with_cert += nullspace[0]
                nullspace[0] = 0
                want = _exact_solve(monkeypatch, pres, perm, exps, ell, L, unpruned=unpruned)
                without += nullspace[0]
                assert got[0] == want[0]
                assert [x.eta for x in got[1]] == [x.eta for x in want[1]], (perm, exps, ell)
    assert with_cert < without
    verdicts = [v for tb in pres._skew_tables.values() for v in tb.verdicts.values()]
    assert any(verdicts) == (grid != "m3-ord3"), verdicts


@pytest.mark.parametrize("grid", GRIDS)
def test_sweep_certificate_keeps_the_families(grid, monkeypatch):
    """_sweep finds the same families, in the same order, with the same
    lambda, g and basis, when the F_p certificate certifies nothing and
    every block is eliminated exactly."""
    from qhact.classify import _sweep

    runs = []
    for full_rank in (_SkewRows.full_rank, lambda *args: False):
        monkeypatch.setattr(_SkewRows, "full_rank", full_rank)
        pres, L, lams, cands = _prefilter_grid(grid)
        found = _sweep(pres, lams, cands, L, lambda g, x: True)
        runs.append([(f.lam, f.g, [x.eta for x in f.basis]) for f in found])
    assert runs[0] == runs[1]
    # no candidate of the Weyl grid has a skew solution
    assert bool(runs[0]) == (grid != "weyl-3-4")


def test_max_rank_builds_degree_one_once_per_action(monkeypatch):
    """max_rank's compatibility results, with the degree-one operators
    built once per action, equal compatibility's own for every pair of
    the O_q(M_3) families."""
    from qhact import classify

    q = zeta(5)
    actions = all_matrix_families(3, q)
    built = _count_calls(monkeypatch, classify, "_degree_one")
    seen = {}
    real = classify.compatibility

    def recording(ai, aj, q=None, *args):
        res = real(ai, aj, q, *args)
        seen[actions.index(ai), actions.index(aj)] = res
        return res

    monkeypatch.setattr(classify, "compatibility", recording)
    res = max_rank(actions, q)
    assert res.theta == 4
    n = len(actions)
    assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert built[0] == n
    for (i, j), got in seen.items():
        assert got == real(actions[i], actions[j], q), (i, j)


def _peel_oracle_tables():
    """The tables of every grid, and of O_q(M_3) with the transpose at L = 3."""
    out = []
    for grid in GRIDS:
        pres, L, _, cands = _prefilter_grid(grid)
        out += [_SkewRows(pres, perm, L) for perm in dict.fromkeys(perm for perm, _ in cands)]
    tau = tuple((k % 3) * 3 + k // 3 for k in range(9))
    out.append(_SkewRows(quantum_matrix(3, zeta(3), level=3), tau, 3))
    return out


def test_peeled_blocks_have_full_column_rank():
    """Every block that peels has exact full column rank (linalg.rank) for
    random g, scalars off the roots of unity included, and random sets of
    its positions, with the rows of g x = lam x g on those positions when g
    permutes."""
    import random

    from qhact.cyclotomic import root_of_unity

    rng = random.Random(18)
    checked = 0
    for tb in _peel_oracle_tables():
        L, t = tb.L, tb.t
        one = Cyc.one(L)
        for block in tb.blocks:
            if not block.peels:
                continue
            for _ in range(4):
                alpha = [root_of_unity(L, rng.randrange(L)) * rng.randint(1, 3) for _ in range(t)]
                lam = root_of_unity(L, rng.randrange(L))
                lam_alpha = [lam * a for a in alpha]
                present = [pos for pos in block.positions if rng.random() < 0.7] or block.positions
                cols = {pos: c for c, pos in enumerate(present)}
                rows = [r for _, r in tb.rows(block, cols, None, None, _chis(tb, alpha, one), False, True)]
                if not tb.diagonal:
                    for _, pos1, pos2, i, c in block.identity:
                        row = {}
                        if pos1 in cols:
                            row[cols[pos1]] = alpha[i]
                        if pos2 in cols:
                            row[cols[pos2]] = row.get(cols[pos2], Cyc.zero(L)) - lam_alpha[c]
                        rows.append(row)
                rows = [{c: v for c, v in r.items() if not v.is_zero()} for r in rows]
                assert linalg.rank([r for r in rows if r]) == len(cols), (tb.perm, block.positions)
                checked += 1
    assert checked > 0


def test_skew_blocks_of_quantum_matrices():
    """The blocks of O_q(M_N) follow its row and column grading: a unit eta
    (a, k) moves the degree by deg u_a - deg u_k.  Singleton-row presolve
    empties all but the blocks of the three-term relations."""

    def tables_of(N, L, tau=False):
        flat = range(N * N)
        perm = tuple((k % N) * N + k // N for k in flat) if tau else tuple(flat)
        return _SkewRows(quantum_matrix(N, zeta(L), level=L), perm, L)

    def sizes(tables):
        return sorted(len(block.positions) for block in tables.blocks)

    def peeled(tables):
        return sum(block.peels for block in tables.blocks), len(tables.blocks)

    tables = tables_of(3, 3)
    assert sizes(tables) == [1] * 36 + [3] * 12 + [9]
    # the 36 single positions peel and nothing else does; the nine are the
    # diagonal (a, a)
    assert [len(block.positions) for block in tables.blocks if block.peels] == [1] * 36
    (diagonal,) = [block for block in tables.blocks if len(block.positions) == 9]
    assert diagonal.positions == [(a, a) for a in range(9)]
    assert sizes(tables_of(2, 7)) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    assert sizes(tables_of(2, 7, tau=True)) == [1, 1, 4, 4, 6]
    assert peeled(tables_of(2, 5, tau=True)) == (4, 5)
    assert peeled(tables_of(3, 3, tau=True)) == (18, 19)
    assert peeled(tables_of(4, 5)) == (152, 169)
    assert peeled(tables_of(4, 3, tau=True)) == (54, 55)


def _order_by_powers(g, cap=10_000):
    """The order of g by composing it with itself, kept as the oracle; None
    past cap."""
    cur = g
    for e in range(1, cap + 1):
        if cur.is_identity():
            return e
        cur = cur.compose(g)
    return None


def _order_or_none(g, cap=10_000):
    try:
        return g.order(cap)
    except InputError:
        return None


@pytest.mark.parametrize("grid", GRIDS)
def test_order_closed_form_matches_powers_on_grids(grid):
    from qhact.classify import _grouplike

    _, L, _, cands = _prefilter_grid(grid)
    for perm, exps in cands:
        g = _grouplike(perm, exps, L)
        assert g.order() == _order_by_powers(g), (perm, exps)


def test_order_closed_form_matches_powers():
    import random
    from fractions import Fraction

    from qhact.cyclotomic import root_of_unity

    half, two = Cyc.rational(Fraction(1, 2)), Cyc.rational(2)
    rng = random.Random(13)
    for _ in range(150):
        t = rng.randint(1, 5)
        perm = list(range(t))
        rng.shuffle(perm)
        scalars = []
        for _ in range(t):
            L = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10, 12])
            scalars.append(root_of_unity(L, rng.randrange(L)))
        if rng.random() < 0.2:
            # a scalar that is no root of unity, balanced or not on its cycle
            k = rng.randrange(t)
            scalars[k] = scalars[k] * two
            if rng.random() < 0.5 and perm[k] != k:
                scalars[perm[k]] = scalars[perm[k]] * half
        g = GrouplikeAction(perm, scalars)
        assert _order_or_none(g, 720) == _order_by_powers(g, 720), g
    # 2 and 1/2 on one 2-cycle: not roots of unity, but g^2 = 1
    assert GrouplikeAction((1, 0), (two, half)).order() == 2
    with pytest.raises(InputError):
        GrouplikeAction((1, 0), (two, Cyc.rational(Fraction(1, 3)))).order()
    with pytest.raises(InputError):
        GrouplikeAction.diagonal([two, zeta(5), zeta(5, 2)]).order()
    # the cap keeps its meaning: 7 * 11 * 13 = 1001
    g = GrouplikeAction.diagonal([zeta(7), zeta(11), zeta(13)])
    assert g.order() == 1001 == _order_by_powers(g)
    with pytest.raises(InputError):
        g.order(cap=1000)
