from itertools import product

import pytest

from qhact.cyclotomic import Cyc, InputError, lcm, zeta
from qhact.classify import (
    all_matrix_families,
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


def _plane_a_family(mu, lam):
    """The type (a) rank-one family on the quantum plane: g = diag(mu,
    lam^-1 mu) and x: v -> u."""
    from qhact.classify import ParamAction
    from qhact.hopf import eta_from_entries

    L = lcm(mu.L, lam.L)
    mu, lam = mu.lift(L), lam.lift(L)
    g = GrouplikeAction.diagonal([mu, lam.inv() * mu])
    parts = (("eta", eta_from_entries(2, {(0, 1): Cyc.one(L)}, L)),)
    return ParamAction(quantum_plane(mu), g, lam, parts, "plane-a")


def test_compat_requires_same_presentation():
    q = zeta(5)
    with pytest.raises(InputError):
        compatibility(m2_family(q, 1), _plane_a_family(q, q * q))


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
    certifies nothing, so every present block is eliminated exactly."""
    with monkeypatch.context() as patch:
        patch.setattr(_SkewRows, "full_rank", lambda *args: False)
        return solve_skew_space(pres, perm, exps, ell, L, positions, unpruned)


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


def _peels_by_counts(block):
    """Singleton-row presolve over Counters of each row's positions, the way
    the tables were first built; kept as the oracle of _peels."""
    from collections import Counter

    rows = [Counter(pos for pos, _, _ in terms) for _, terms in block.exact]
    left = set(block.positions)
    while left:
        forced = set()
        for counts in rows:
            remaining = [pos for pos in counts if pos in left]
            if len(remaining) == 1 and counts[remaining[0]] == 1:
                forced.add(remaining[0])
        if not forced:
            return False
        left -= forced
    return True


class _PositionMajorRows(_SkewRows):
    """The tables built the way they were first built, kept as the oracle of
    the one-pass build: every normal form asked per (place, letter), the
    terms summed position-major into exact[(a, k)] = [(prefix, [(row,
    coefficient)])], then regrouped by row, dealt, numbered and imaged mod p
    term by term.  congruences and cycles are _SkewRows' own, read off these
    blocks."""

    def __init__(self, pres, perm, L):
        from qhact.cyclotomic import fp_root
        from qhact.ncalg import nf_word

        t = pres.ngens
        self.t, self.L, self.perm = t, L, perm
        self.p, omega = fp_root(L)
        self.powers = [pow(omega, e, self.p) for e in range(L)]
        self.diagonal = perm == tuple(range(t))
        self.positions = [(a, k) for a in range(t) for k in range(t)]
        self.sums = None, None, None
        merged = {}
        rows = {}
        for ridx, rel in enumerate(pres.relations()):
            for word, c in rel.items():
                for pos, k in enumerate(word):
                    prefix, suffix = word[:pos], word[pos + 1 :]
                    head = tuple(perm[x] for x in prefix)
                    for a in range(t):
                        acc = merged.setdefault((a, k), {})
                        for u, cu in nf_word(pres, head + (a,) + suffix).items():
                            key = (rows.setdefault((ridx, u), len(rows)), prefix)
                            acc[key] = c * cu if key not in acc else acc[key] + c * cu
        self.labels = list(rows)
        self.exact = {}
        for pos, acc in merged.items():
            by_prefix = {}
            for (row, prefix), v in acc.items():
                if not v.is_zero():
                    by_prefix.setdefault(prefix, []).append((row, v.lift(L)))
            self.exact[pos] = list(by_prefix.items())
        self._regroup(omega)

    def _regroup(self, omega):
        from itertools import zip_longest

        from qhact.classify import _Block
        from qhact.cyclotomic import fp_image

        t, perm, L, p = self.t, self.perm, self.L, self.p
        inv = [0] * t
        for k in range(t):
            inv[perm[k]] = k
        identity = [(r * t + c, (inv[r], c), (r, perm[c]), inv[r], c) for r in range(t) for c in range(t)]
        by_row = {}
        for pos, by_prefix in self.exact.items():
            for prefix, terms in by_prefix:
                for row, v in terms:
                    by_row.setdefault(row, []).append((pos, prefix, v))
        links = [(pos1, pos2) for _, pos1, pos2, _, _ in identity]
        links += [(terms[0][0], pos) for terms in by_row.values() for pos, _, _ in terms[1:]]
        root = {pos: pos for pos in self.positions}

        def find(pos):
            while root[pos] != pos:
                root[pos] = pos = root[root[pos]]
            return pos

        for pos1, pos2 in links:
            root[find(pos1)] = find(pos2)
        classes = {}
        for pos in self.positions:
            classes.setdefault(find(pos), []).append(pos)
        self.blocks = [_Block(positions) for positions in classes.values()]
        block_of = {pos: b for b, block in enumerate(self.blocks) for pos in block.positions}
        for row, terms in by_row.items():
            self.blocks[block_of[terms[0][0]]].exact.append((row, terms))
        for ident in identity:
            self.blocks[block_of[ident[1]]].identity.append(ident)
        index = {}
        for block in self.blocks:
            dealt = {}
            for item in block.exact:
                dealt.setdefault(item[1][0][0], []).append(item)
            block.exact = [
                (row, [(pos, index.setdefault(prefix, len(index)), v) for pos, prefix, v in terms])
                for turn in zip_longest(*dealt.values())
                for row, terms in filter(None, turn)
            ]
            block.peels = _peels_by_counts(block)
            block.fp = [
                (row, [(pos, j, fp_image(v, p, omega, L)) for pos, j, v in terms])
                for row, terms in block.exact
            ]
        if any(v is None for block in self.blocks for _, terms in block.fp for _, _, v in terms):
            for block in self.blocks:
                block.fp = None
        self.prefixes = list(index)
        self.unpeeled = {pos: b for pos, b in block_of.items() if not self.blocks[b].peels}


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
    position-major table of _PositionMajorRows, each coefficient mapped by
    image into the field of alpha, lam_alpha and chi, and the rows of
    g x = lam x g unless pruned."""
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
    rank_mod gives the whole system full column rank, pruned, over fewer
    unknowns, and unpruned with the identity's rows; on every uncertified
    candidate the block-wise solver returns the positions and basis, in
    order, of nullspace on the whole system, pruned and unpruned; and an
    empty diagonal support leaves only x = 0."""
    from qhact import classify
    from qhact.classify import _grouplike
    from qhact.cyclotomic import as_q_power, fp_image
    from qhact.hopf import eta_from_entries

    rank_mod, nullspace = linalg.rank_mod, linalg.nullspace
    eliminated = _count_calls(monkeypatch, classify.linalg, "nullspace")

    def certifies(perm, exps, ell, positions, unpruned=False):
        """Whether solve_skew_space skips every block it is given."""
        eliminated[0] = 0
        solve_skew_space(pres, perm, exps, ell, L, positions, unpruned)
        return eliminated[0] == 0

    pres, L, lams, cands = _prefilter_grid(grid)
    t = pres.ngens
    one = Cyc.one(L)
    ells = [as_q_power(lam, zeta(L)) for lam in lams]
    tables, oracles = {}, {}
    uncertified = empty = 0
    for perm, exps in cands:
        tb = tables.get(perm) or tables.setdefault(perm, _SkewRows.of(pres, perm, L))
        oracle = oracles.get(perm) or oracles.setdefault(perm, _PositionMajorRows(pres, perm, L))
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
            fp_alpha = [pw[e] for e in exps]
            fp_lam_alpha = [pw[(ell + e) % L] for e in exps]

            def fp_full_rank(cols, pruned):
                """Whether the whole system mod p over cols has full column rank."""
                rows = _whole_system(
                    oracle,
                    cols,
                    fp_alpha,
                    fp_lam_alpha,
                    lambda prefix: pw[sum(exps[k] for k in prefix) % L],
                    lambda v: fp_image(v, p, pw[1], L),
                    pruned,
                )
                return rank_mod(rows, len(cols), p) == len(cols)

            verdict = certifies(perm, exps, ell, positions)
            if tb.diagonal:
                assert positions == [
                    (a, k) for a in range(t) for k in range(t) if fp_alpha[a] == fp_lam_alpha[k]
                ]
            assert verdict == fp_full_rank(positions, tb.diagonal), (perm, exps, ell)
            if tb.diagonal and len(positions) > 1:
                # fewer unknowns at the same exponents: a one-unknown block
                # of several positions sums only its present one
                sub = positions[1:]
                assert certifies(perm, exps, ell, sub) == fp_full_rank(sub, True), (perm, exps, ell, sub)
            if tb.diagonal:
                # unpruned, a block of one position reaches full rank through
                # its identity row too
                whole = certifies(perm, exps, ell, None, True)
                assert whole == fp_full_rank(tb.positions, False), (perm, exps, ell)
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
                rows = _whole_system(oracle, cols, alpha, lam_alpha, chi, lambda v: v, pruned)
                rows = [{c: v for c, v in row.items() if not v.is_zero()} for row in rows]
                kernel = nullspace([row for row in rows if row], len(cols), L)
                want = [eta_from_entries(t, {cols[c]: v for c, v in vec.items()}, L) for vec in kernel]
                got_cols, got = solve_skew_space(pres, perm, exps, ell, L, unpruned=unpruned)
                assert got_cols == cols
                assert [x.eta for x in got] == [x.eta for x in want], (perm, exps, ell, unpruned)
    assert uncertified > 0
    assert empty > 0 or not all(tb.diagonal for tb in tables.values())


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
    """_congruent_exponents with no congruences, over the t unit columns
    and over the rank-one columns of O_q(M_t) (when that grid has at most
    12^3 vectors), is the grid of _grid_exponents filtered by
    _diagonal_support, in its order, each vector with the ell at which its
    support is not empty: one ell, several, an ell past L and an ell of
    0 mod L; a position mapped to None adds no vector."""
    from qhact.classify import (
        _congruent_exponents,
        _diag_candidates,
        _grid_exponents,
        _rank_one_grid,
    )

    grids = [(t, _units(t))]
    if L ** (2 * t - 1) <= 12**3:
        grids.append((t * t, _rank_one_grid(t)[1]))
    assert list(_grid_exponents(_units(t), L)) == [exps for _, exps in _diag_candidates(t, L)]
    ells_sets = [[1], [1, L - 1], [L // 3, 2 * L // 3, L + 1], [L], []]
    for size, cols in grids:
        for ells in ells_sets:
            want = []
            for exps in _grid_exponents(cols, L):
                supports = _diagonal_support(exps, ells, L)
                live = {ell for ell, support in zip(ells, supports) if support}
                if live:
                    want.append((exps, live))
            assert _congruent_exponents(cols, ells, L, {}) == want, (size, ells)
            if ells == [1] and size < L:
                assert 0 < len(want) < L**size
            dead = dict.fromkeys(product(range(size), repeat=2))
            assert _congruent_exponents(cols, ells, L, dead) == []


def _solutions_letter_by_letter(system, t, L):
    """The congruence solver before the unit-pivot reduction, kept as the
    oracle: each congruence is tested on its own, letter by letter."""
    from math import gcd

    rows = []
    for coeffs, r in system:
        c = [0] * t
        for x, n in coeffs:
            c[x] += n
        tails = [L] * (t + 1)
        for i in reversed(range(t)):
            tails[i] = gcd(tails[i + 1], c[i])
        rows.append((c, r % L, tails))
    heads = [((), [0] * len(rows))]
    for i in range(t):
        nxt = []
        for head, sums in heads:
            classes = []
            for s, (c, r, tails) in zip(sums, rows):
                g = tails[i + 1]
                h = gcd(c[i], g)
                want = (r - s) % g
                if want % h:
                    break
                step = g // h
                classes.append((step, want // h * pow(c[i] // h, -1, step) % step))
            else:
                (step, first), *rest = sorted(classes, reverse=True)
                for e in range(first, L, step):
                    if all((e - f) % m == 0 for m, f in rest):
                        moved = [(s + c[i] * e) % L for s, (c, _, _) in zip(sums, rows)]
                        nxt.append((head + (e,), moved))
        heads = nxt
    return [head for head, _ in heads]


def test_solutions_match_the_letter_by_letter_solver():
    """_solutions over random systems mod L = 2..35, t <= 5, L^(t-1) <=
    40,000: the same vectors in the same order as the solver without the
    unit-pivot reduction, and, where L^t <= 4,000, as the filtered product
    itself.  Coefficients are drawn from the multiples of a divisor of L
    half the time, so that many letters have no unit pivot, and a letter
    may repeat within a congruence.  No congruence at all gives every
    vector."""
    import random

    from qhact.classify import _solutions

    rng = random.Random(58)
    cases = 0
    while cases < 300:
        L, t = rng.randint(2, 35), rng.randint(1, 5)
        if L ** (t - 1) > 40_000:
            continue
        cases += 1
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        system = []
        for _ in range(rng.randint(1, 6)):
            d = rng.choice(divisors) if rng.random() < 0.5 else 1
            coeffs = tuple(
                (rng.randrange(t), d * rng.randint(-2 * L, 2 * L))
                for _ in range(rng.randint(0, t + 1))
            )
            system.append((coeffs, rng.randint(-L, 2 * L)))
        got = _solutions(system, t, L)
        assert got == _solutions_letter_by_letter(system, t, L), (system, t, L)
        if L**t <= 4000:
            want = [
                e for e in product(range(L), repeat=t)
                if all((sum(n * e[x] for x, n in coeffs) - r) % L == 0 for coeffs, r in system)
            ]
            assert got == want, (system, t, L)
    for t, L in ((1, 2), (2, 3), (3, 4)):
        assert _solutions([], t, L) == list(product(range(L), repeat=t))
    assert _solutions([(((0, 2),), 1)], 1, 4) == []
    assert _solutions([(((0, 6), (1, 35)), 0)], 2, 35) == [
        (e0, e1) for e0 in range(35) for e1 in range(35) if 6 * e0 % 35 == 0
    ]


def _congruence_case(name):
    """(presentation, level) of a congruence cross-check: the plane and the
    Weyl algebra at mu = zeta_3, L = 12 and at mu = zeta_5, L = 5 (odd, so
    -1 is no power of zeta_L); generic affine t = 3 at ord 5; a non-generic
    p with p_12 = -1 at L = 10 and at L = 5, and with p_12 = 2, no root of
    unity; O_q(M_2) at ord 3 and 5, whose blocks peel or hold several
    positions."""
    if name in ("plane-3-4", "weyl-3-4", "plane-5-5", "weyl-5-5"):
        family, k, m = name.split("-")
        L = lcm(int(k), int(m))
        return (quantum_plane if family == "plane" else first_weyl)(zeta(L, L // int(k))), L
    if name == "affine-3-ord5":
        return quantum_affine(generic_affine_p(3, 5)), 5
    if name in ("m2-ord3", "m2-ord5"):
        L = int(name[-1])
        return quantum_matrix(2, zeta(L), level=L), L
    kind, L = name.split("-")[1:]
    L = int(L)
    p = generic_affine_p(3, 5)
    p12 = Cyc.rational(-1 if kind == "minus" else 2).lift(5)
    p[0][1], p[1][0] = p12, p12.inv()
    return quantum_affine(p), L


# what each case holds: lone positions with congruences, positions where x
# is always 0, and positions that share their block, with the congruences
# of their own rows or with no own row (the diagonal block)
SHARED_DIAGONAL = {"congruences", "shared-free"}
CONGRUENCE_CASES = {
    "plane-3-4": SHARED_DIAGONAL, "weyl-3-4": SHARED_DIAGONAL,
    "plane-5-5": SHARED_DIAGONAL, "weyl-5-5": SHARED_DIAGONAL,
    "affine-3-ord5": SHARED_DIAGONAL, "affine-minus-10": SHARED_DIAGONAL,
    "affine-minus-5": {"never", "shared-free"}, "affine-two-5": {"never", "shared-free"},
    "m2-ord3": {"congruences", "never", "shared-congruences", "shared-free"},
    "m2-ord5": {"congruences", "never", "shared-congruences", "shared-free"},
}


@pytest.mark.parametrize("name", CONGRUENCE_CASES)
def test_congruences_match_the_single_position_solver(name, monkeypatch):
    """_SkewRows.congruences against the exact solver, at every exponent
    vector and every ell.  Every position is mapped, to None when its block
    peels, and one mapped to None carries x = 0.  At a lone position, or
    one whose block peels, with one unknown, x != 0 only where its
    congruences hold, and exactly there when each of its block's rows has
    two terms.  At a position that shares its block, some kernel vector of
    the whole support is nonzero there only where its own rows'
    congruences hold.  With the F_p certificate off every block is
    eliminated."""
    monkeypatch.setattr(_SkewRows, "full_rank", lambda *args: False)
    pres, L = _congruence_case(name)
    t = pres.ngens
    identity = tuple(range(t))
    tables = _SkewRows.of(pres, identity, L)
    congruences = tables.congruences
    assert sorted(congruences) == tables.positions

    def holds(pos, exps):
        conds = congruences[pos]
        return conds is not None and all(
            sum(n * exps[x] for x, n in coeffs) % L == r for coeffs, r in conds
        )

    kinds = set()
    shared = []
    for block in tables.blocks:
        # a block that peels has x = 0 at each position on its own
        single = len(block.positions) == 1 or block.peels
        for pos in block.positions:
            conds = congruences[pos]
            assert conds is None or not block.peels
            kind = "never" if conds is None else "congruences" if conds else "free"
            kinds.add(kind if single else "shared-" + kind)
            if not single:
                shared.append(pos)
                continue
            a, k = pos
            exact = all(len(terms) == 2 for _, terms in block.exact)
            for exps in product(range(L), repeat=t):
                for ell in range(L):
                    if (exps[a] - exps[k] - ell) % L:
                        continue
                    _, basis = solve_skew_space(pres, identity, exps, ell, L, [pos])
                    assert holds(pos, exps) or not basis, (pos, exps, ell)
                    if exact:
                        assert holds(pos, exps) == bool(basis), (pos, exps, ell)
    carried = 0
    for exps in product(range(L), repeat=t):
        for ell in range(L):
            _, basis = solve_skew_space(pres, identity, exps, ell, L)
            for x in basis:
                for pos in x.support() & set(shared):
                    assert holds(pos, exps), (pos, exps, ell)
                    carried += 1
    # every case has a shared block, and some family is nonzero on it
    assert carried > 0
    assert kinds == CONGRUENCE_CASES[name]


@pytest.mark.parametrize("name", CONGRUENCE_CASES)
def test_congruent_sweep_keeps_every_family(name):
    """_sweep over the identity's unit grid, which generates only the
    vectors that the congruences allow, finds at every lam = zeta_L^ell the
    families, and hands keep the skew solutions, of the sweep over every
    diagonal candidate."""
    from qhact.classify import _diag_candidates, _sweep

    pres, L = _congruence_case(name)
    t = pres.ngens
    lams = [zeta(L, ell) for ell in range(L)]
    runs = []
    for cands in ([(tuple(range(t)), None)], list(_diag_candidates(t, L))):
        kept = []

        def keep(g, x):
            kept.append((g.key(), x.eta))
            return True

        found = _sweep(pres, lams, cands, L, keep)
        runs.append(([(f.lam, f.g, [x.eta for x in f.basis]) for f in found], kept))
    assert runs[0] == runs[1]
    assert runs[0][0]


def test_affine_search_asks_the_solver_rarely(monkeypatch):
    """Affine t = 4 at ord 5 with m = 3 hands the solver at most 100
    (candidate, lambda) pairs; sweeping the grid asked it 59,820 times."""
    from qhact import classify

    calls = _count_calls(monkeypatch, classify, "solve_skew_space")
    found = enumerate_taft_affine(generic_affine_p(4, 5), 3)
    assert 0 < calls[0] <= 100
    assert len(found) == 24


def _keys_of(memo, perm):
    return {key for p, key in memo.verdicts if p == perm}


@pytest.mark.parametrize("grid", GRIDS)
def test_refused_permutations_keep_no_candidate(grid):
    """The reachable keys are the keys of the exponent grid, each with a
    representative of that key.  A permutation whose reachable keys all
    refuse has no candidate in the grid that the per-candidate memo keeps;
    grid asks each reachable key once, and the full grid of the
    permutation reaches no other key."""
    from itertools import product

    from qhact.classify import _PreservationMemo

    pres, L, _, cands = _prefilter_grid(grid)
    t = pres.ngens
    identity = tuple(range(t))
    per_candidate = _PreservationMemo(pres, L)
    units = [tuple(int(x == k) for x in range(t)) for k in range(t)]
    reps = per_candidate.reachable(units)
    assert all(per_candidate.key(exps) == key for key, exps in reps.items())
    if L**t <= 5**4:
        assert set(reps) == {per_candidate.key(exps) for exps in product(range(L), repeat=t)}
    keys = {}
    for perm, _ in _grid_form(cands):
        if perm == identity:
            continue
        memo = _PreservationMemo(pres, L)
        refused = not any(memo.grid(perm, units))
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
    same skew solutions in the same order, keeps a subset of the memo
    verdicts, each with the same value, and asks preserves_relations no more
    often than over the candidate list: the grid form generates only the
    candidates that some lone position's congruences allow."""
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
        families = [(f.lam, f.g, [x.eta for x in f.basis]) for f in found]
        runs.append((families, kept, memos[-1].verdicts, calls[0]))
    (families, kept, verdicts, before), (families2, kept2, verdicts2, after) = runs
    assert families2 == families and kept2 == kept
    assert verdicts2.items() <= verdicts.items()
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


def _units(t):
    return [tuple(int(x == k) for x in range(t)) for k in range(t)]


def _listed(cands, level, t):
    """The explicit candidate list of the sweep's grids: the monomial
    candidates of a unit grid (perm, None), the rank-one candidates of a
    rank-one grid (perm, cols)."""
    from qhact.classify import _monomial_candidates, _rank_one_candidates

    out = []
    for perm, cols in cands:
        if cols is None:
            out += _monomial_candidates(t, level, [perm])
        else:
            out += _rank_one_candidates(int(t**0.5), level, tau=perm != tuple(range(t)))
    return out


def _cycle_case(name):
    """(presentation, level, ells, grids) of a cycle cross-check, the grids
    in the sweep's form: the plane or Weyl swap at (k, m) and affine t = 3
    at ord 3 under its five non-identity permutations, at every ell mod L;
    the transpose grid of O_q(M_N) at ord(q) = L, a prime, at every ell on
    O_q(M_2) at ord 3 and at every ell but 0 otherwise."""
    from itertools import permutations

    from qhact.classify import _rank_one_grid

    family, *sizes = name.split("-")
    if family in ("plane", "weyl"):
        k, m = map(int, sizes)
        L = lcm(k, m)
        pres = (quantum_plane if family == "plane" else first_weyl)(zeta(L, L // k))
        return pres, L, list(range(L)), [((1, 0), None)]
    if family == "affine":
        perms = [perm for perm in permutations(range(3)) if perm != (0, 1, 2)]
        return quantum_affine(generic_affine_p(3, 3)), 3, [0, 1, 2], [(p, None) for p in perms]
    N, L = int(family[1]), int(sizes[0][3:])
    ells = range(L) if (N, L) == (2, 3) else range(1, L)
    return quantum_matrix(N, zeta(L), level=L), L, list(ells), [_rank_one_grid(N, tau=True)]


def _live_by_identity(tables, exps, ell):
    """Whether the rows of g x = lam x g on
    some cycle of (a, c) -> (perm a, perm c) in a block that does not peel
    have a solution eta != 0, that is whether eta_(perm a, perm c) =
    alpha_a / (lam alpha_c) eta_ac brings eta back to itself around the
    cycle, in exact roots of unity."""
    L = tables.L
    alpha = [zeta(L, e) for e in exps]
    lam, seen = zeta(L, ell), set()
    for pos in tables.positions:
        if pos in seen or pos not in tables.unpeeled:
            continue
        ratio = Cyc.one(L)
        while pos not in seen:
            seen.add(pos)
            a, c = pos
            ratio = ratio * alpha[a] / (lam * alpha[c])
            pos = tables.perm[a], tables.perm[c]
        if ratio == Cyc.one(L):
            return True
    return False


# the (candidate, ell) pairs with a nonzero basis: at lam = 1 and -1 on the
# plane, the Weyl algebra, affine t = 3 and O_q(M_2) at ord 3; none at a lam
# of order 3 or more
CYCLE_CASES = {
    "plane-2-3": 42, "weyl-2-3": 12, "plane-2-4": 20, "weyl-2-4": 8,
    "plane-3-4": 0, "weyl-3-4": 0, "plane-4-3": 0, "weyl-4-3": 0,
    "affine-3-ord3": 54, "m2-ord3": 27, "m2-ord5": 0, "m2-ord7": 0,
    "m3-ord3": 0, "m3-ord5": 0, "m4-ord3": 0,
}


@pytest.mark.parametrize("name", CYCLE_CASES)
def test_open_cycles_settle_the_permuting_candidates(name):
    """The open-cycle rule against the solver.  At every permuting
    candidate of each grid and every ell, solve_skew_space over every
    position returns an empty basis unless some open cycle is live, the
    identity rows walked around it bringing eta back to itself; and
    _SkewRows.reaches accepts the grid at ell exactly when some candidate
    of it has a live open cycle, so a grid it skips holds only empty
    candidates."""
    pres, L, ells, grids = _cycle_case(name)
    t = pres.ngens
    nonzero = 0
    for perm, cols in grids:
        tables = _SkewRows.of(pres, perm, L)
        cands = [exps for _, exps in _listed([(perm, cols)], L, t)]
        for ell in ells:
            live_somewhere = False
            for exps in cands:
                live = _live_by_identity(tables, exps, ell)
                _, basis = solve_skew_space(pres, perm, exps, ell, L)
                assert live or not basis, (perm, exps, ell)
                nonzero += bool(basis)
                live_somewhere |= live
            assert tables.reaches(cols or _units(t), [ell]) == live_somewhere, (perm, ell)
    assert nonzero == CYCLE_CASES[name]


@pytest.mark.parametrize(
    "name,ells",
    [("plane-2-3", {0, 3}), ("weyl-2-3", {0}), ("plane-2-4", {0, 2}), ("weyl-2-4", {0}),
     ("plane-3-4", set()), ("affine-3-ord3", {0}), ("m2-ord3", {0})],
)
def test_sweep_keeps_the_permuting_families(name, ells):
    """_sweep over the permuting grids of a cycle case, at every root of
    unity lam of the level, finds the same families over the grid form as
    over the explicit candidate lists, which no open-cycle test skips; the
    families sit at lam = zeta_L^ell for the given ells, that is at lam = 1
    and -1."""
    from qhact.classify import _sweep
    from qhact.cyclotomic import as_q_power

    pres, L, _, grids = _cycle_case(name)
    lams = [zeta(L, ell) for ell in range(L)]
    runs = []
    for cands in (grids, _listed(grids, L, pres.ngens)):
        found = _sweep(pres, lams, cands, L, lambda g, x: True)
        runs.append([(f.lam, f.g, [x.eta for x in f.basis]) for f in found])
    assert runs[0] == runs[1]
    assert {as_q_power(lam, zeta(L)) % L for lam, _, _ in runs[0]} == ells


@pytest.mark.parametrize(
    "search", ["m2-ord3", "m2-ord5", "m3-ord3", "plane-2-3", "plane-2-4", "weyl-2-3", "weyl-2-4"]
)
def test_grid_searches_match_the_candidate_lists(search, monkeypatch):
    """enumerate_taft_matrix with the transpose and enumerate_taft_qplane at
    k = 2, where the swap preserves the relation, find the same families
    with the same tags over their grids as over the explicit candidate
    lists, which no open-cycle test skips."""
    from qhact import classify

    real = classify._sweep
    mode = ["grid"]

    def sweep(pres, lams, cands, level, keep):
        if mode[0] != "grid":
            cands = _listed(cands, level, pres.ngens)
        return real(pres, lams, cands, level, keep)

    monkeypatch.setattr(classify, "_sweep", sweep)
    family, size = search.split("-", 1)
    runs = []
    for mode[0] in ("grid", "listed"):
        if family in ("plane", "weyl"):
            found = enumerate_taft_qplane(2, int(size[2:]), algebra=family)
        else:
            q = zeta(int(size[3:]))
            found = enumerate_taft_matrix(int(family[1]), q, q * q, include_tau=True)
        runs.append([(f.lam, f.g, [x.eta for x in f.basis], f.tag) for f in found])
    assert runs[0] == runs[1]
    # the Weyl algebra at mu = -1 has no family
    assert bool(runs[0]) == (family != "weyl")


@pytest.mark.parametrize("N,L", [(2, 3), (2, 7), (3, 3), (3, 5), (4, 3)])
def test_rank_one_grids_have_one_preservation_key(N, L):
    """On a rank-one grid e_ij = a_i + b_j of O_q(M_N), e_il + e_jk =
    e_ik + e_jl, so the preservation key is the same at every candidate of
    both branches: the grid reaches one key, the key of each candidate the
    sweep used to list, and its one verdict is preserves_relations' at
    every candidate asked."""
    from qhact.classify import (
        _grouplike,
        _PreservationMemo,
        _rank_one_candidates,
        _rank_one_grid,
        preserves_relations,
    )

    pres = quantum_matrix(N, zeta(L), level=L)
    memo = _PreservationMemo(pres, L)
    for tau in (False, True):
        perm, cols = _rank_one_grid(N, tau)
        (key,) = memo.reachable(cols)
        (verdict,) = memo.grid(perm, cols)
        cands = list(_rank_one_candidates(N, L, tau=tau))
        assert {memo.key(exps) for _, exps in cands} == {key}
        for p, exps in cands[:: max(1, len(cands) // 20)]:
            assert p == perm
            assert preserves_relations(pres, _grouplike(perm, exps, L)) == verdict
    assert memo.diffs  # the three-term relations are in the key


@pytest.mark.parametrize(
    "search", ["m2-ord3", "m2-ord5", "m2-ord7", "m3-ord3", "m3-ord5", "m4-ord3"]
)
def test_congruent_rank_one_sweep_matches_the_candidate_lists(search, monkeypatch):
    """enumerate_taft_matrix without the transpose, at every primitive lam of
    order ord(q), finds the same families with the same tags and bases three
    ways: over its rank-one grid, which the sweep solves by congruences and
    asks the solver only at the live ell; with that ell filter off, so every
    congruent candidate is asked at every lam; and over the explicit
    _rank_one_candidates list, which no congruence filters.  On O_q(M_2)
    _sweep over the grid and over the list also agree at every root of
    unity lam of the level, lam = 1 included."""
    from qhact import classify
    from qhact.classify import _rank_one_candidates, _rank_one_grid, primitive_lambdas

    N, L = int(search[1]), int(search[6:])
    real_sweep, real_exponents = classify._sweep, classify._congruent_exponents
    mode = ["grid"]

    def sweep(pres, lams, cands, level, keep):
        if mode[0] == "listed":
            cands = _listed(cands, level, pres.ngens)
        return real_sweep(pres, lams, cands, level, keep)

    def every_ell(cols, ells, level, congruences):
        return [(exps, set(ells)) for exps, _ in real_exponents(cols, ells, level, congruences)]

    monkeypatch.setattr(classify, "_sweep", sweep)
    q = zeta(L)
    runs = {}
    for mode[0] in ("grid", "every-ell", "listed"):
        with monkeypatch.context() as patch:
            if mode[0] == "every-ell":
                patch.setattr(classify, "_congruent_exponents", every_ell)
            runs[mode[0]] = [
                (f.lam, f.g, [x.eta for x in f.basis], f.tag)
                for lam in primitive_lambdas(L, L)
                for f in enumerate_taft_matrix(N, q, lam, include_tau=False)
            ]
    assert runs["grid"] == runs["every-ell"] == runs["listed"]
    assert runs["grid"] and all(tag != "unclassified" for *_, tag in runs["grid"])
    if N == 2:
        pres = quantum_matrix(2, q, level=L)
        lams = [zeta(L, ell) for ell in range(L)]
        grid = [_rank_one_grid(2)]
        found = []
        for cands in (grid, list(_rank_one_candidates(2, L))):
            families = real_sweep(pres, lams, cands, L, lambda g, x: True)
            found.append([(f.lam, f.g, [x.eta for x in f.basis]) for f in families])
        assert found[0] == found[1] and found[0]


def test_matrix_search_asks_the_solver_rarely(monkeypatch):
    """O_q(M_3) at ord 3 with the transpose hands the solver at most 40
    (candidate, lambda) pairs at either primitive lambda; sweeping its
    rank-one grid asked it 240 times."""
    from qhact import classify
    from qhact.classify import primitive_lambdas

    calls = _count_calls(monkeypatch, classify, "solve_skew_space")
    for lam in primitive_lambdas(3, 3):
        calls[0] = 0
        found = enumerate_taft_matrix(3, zeta(3), lam, include_tau=True)
        assert 0 < calls[0] <= 40
        assert len(found) == 6


def test_matrix_searches_ask_each_preservation_key_once(monkeypatch):
    """The census count check on the matrix searches: with the transpose,
    O_q(M_2) at ord 5 and 7 at every lambda and O_q(M_3) at ord 3 ask
    preserves_relations at most once per (permutation, key), so twice per
    search, and no more often than the sweep over the explicit candidate
    lists."""
    from qhact import classify
    from qhact.classify import primitive_lambdas

    calls = _count_calls(monkeypatch, classify, "preserves_relations")
    real = classify._sweep
    listed = [False]

    def sweep(pres, lams, cands, level, keep):
        if listed[0]:
            cands = _listed(cands, level, pres.ngens)
        return real(pres, lams, cands, level, keep)

    monkeypatch.setattr(classify, "_sweep", sweep)
    searches = [(2, 5, lam) for lam in primitive_lambdas(5, 5)]
    searches += [(2, 7, lam) for lam in primitive_lambdas(7, 7)]
    searches.append((3, 3, zeta(3, 2)))
    for N, order, lam in searches:
        counts = []
        for listed[0] in (False, True):
            calls[0] = 0
            enumerate_taft_matrix(N, zeta(order), lam, include_tau=True)
            counts.append(calls[0])
        assert counts[0] <= 2, (N, order, lam, counts)
        assert counts[0] <= counts[1], (N, order, lam, counts)


@pytest.mark.parametrize("N, order", [(2, 5), (2, 7), (3, 3)])
def test_rank_one_identity_grid_computes_one_key(N, order, monkeypatch):
    """Without the transpose, the matrix search computes the preservation
    key of each of the 2N - 1 columns and of the zero vector, and of no
    candidate: every column's key is 0, so the rank-one grid reaches the
    one key of 0, which it asks once."""
    from qhact import classify

    calls = _count_calls(monkeypatch, classify._PreservationMemo, "key")
    found = enumerate_taft_matrix(N, zeta(order), zeta(order, 2), include_tau=False)
    assert found
    assert calls[0] == 2 * N


@pytest.mark.parametrize("grid", GRIDS)
def test_skew_certificate_keeps_the_exact_bases(grid, monkeypatch):
    """solve_skew_space, which skips a block whose rows mod p have full
    column rank, returns the positions and basis of the exact elimination
    of every present block, pruned and unpruned, at every lambda on at
    least 60 candidates spread over the grid; and it skips some block.  On
    every grid but O_q(M_3) some block with one present unknown is certified
    with no rank_mod call."""
    from qhact import classify
    from qhact.cyclotomic import as_q_power

    pres, L, lams, cands = _prefilter_grid(grid)
    nullspace = _count_calls(monkeypatch, classify.linalg, "nullspace")
    read_off = _one_unknown_certificates(monkeypatch)
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
    # the singles of the plane, Weyl, affine and O_q(M_2) tables; the blocks
    # of O_q(M_3) that do not peel hold several positions
    assert (read_off[0] > 0) == (grid != "m3-ord3"), read_off


def _one_unknown_certificates(monkeypatch):
    """Wraps _SkewRows.full_rank to count, in the returned [count], the
    blocks with one present unknown it certifies without calling rank_mod."""
    from qhact import classify

    rank_mod = _count_calls(monkeypatch, classify.linalg, "rank_mod")
    full_rank = _SkewRows.full_rank
    count = [0]

    def counted(self, block, cols, *args):
        before = rank_mod[0]
        full = full_rank(self, block, cols, *args)
        count[0] += full and len(cols) == 1 and rank_mod[0] == before
        return full

    monkeypatch.setattr(_SkewRows, "full_rank", counted)
    return count


@pytest.mark.parametrize("grid", GRIDS)
def test_skew_solver_answers_do_not_depend_on_call_order(grid):
    """solve_skew_space keeps no verdicts between calls: every (candidate,
    lambda) of the grid, solved in sweep order on one presentation and in
    reverse order on a fresh one, gives the same positions and basis,
    pruned and unpruned."""
    from qhact.cyclotomic import as_q_power

    def solve_all(pres, jobs):
        return {
            job: (positions, [x.eta for x in basis])
            for job in jobs
            for positions, basis in [solve_skew_space(pres, job[0], job[1], job[2], L, unpruned=job[3])]
        }

    pres, L, lams, cands = _prefilter_grid(grid)
    ells = [as_q_power(lam, zeta(L)) for lam in lams]
    jobs = [
        (perm, exps, ell, unpruned)
        for perm, exps in cands
        for ell in ells
        for unpruned in (False, True)
    ]
    forward = solve_all(pres, jobs)
    backward = solve_all(_prefilter_grid(grid)[0], jobs[::-1])
    assert forward == backward
    assert any(basis for _, basis in forward.values())


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


def _table_case(name):
    """(presentation, permutation, level) of a one-pass table check:
    "grid/<grid>/<i>" is the i-th permutation of a grid of GRIDS,
    "identity/<case>" the identity of a case of CONGRUENCE_CASES, and
    "mN-ordL" or "mN-ordL-tau" O_q(M_N) at ord(q) = L, with or without the
    transpose."""
    kind, *rest = name.split("/")
    if kind == "grid":
        pres, L, _, cands = _prefilter_grid(rest[0])
        return pres, _grid_perms(cands)[int(rest[1])], L
    if kind == "identity":
        pres, L = _congruence_case(rest[0])
        return pres, tuple(range(pres.ngens)), L
    N, L = int(kind[1]), int(kind.split("-")[1][3:])
    flat = range(N * N)
    perm = tuple((k % N) * N + k // N for k in flat) if kind.endswith("tau") else tuple(flat)
    return quantum_matrix(N, zeta(L), level=L), perm, L


def _grid_perms(cands):
    return list(dict.fromkeys(perm for perm, _ in cands))


TABLE_CASES = (
    [f"grid/{grid}/{i}" for grid in GRIDS for i in range(len(_grid_perms(_prefilter_grid(grid)[3])))]
    + [f"identity/{name}" for name in CONGRUENCE_CASES]
    + [f"m{N}-ord{L}{tau}" for N, L in [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7), (4, 3)] for tau in ("", "-tau")]
)


def _block_terms(tables, rows, key):
    """A block's rows as the set of (row, prefix, position, key(coefficient))."""
    return {(row, tables.prefixes[j], pos, key(c)) for row, terms in rows for pos, j, c in terms}


def _up_to_sign(conds, L):
    """A position's congruences with each one's sign fixed, sorted; None
    stays None."""
    if conds is None:
        return None
    out = []
    for letters, r in conds:
        negated = tuple((x, -n) for x, n in letters), -r % L
        out.append(min((letters, r % L), negated))
    return sorted(out)


@pytest.mark.parametrize("name", TABLE_CASES)
def test_one_pass_tables_match_the_position_major_build(name):
    """_SkewRows, built in one pass, holds the tables of _PositionMajorRows
    up to the numbering of the prefixes, the order of the terms within a
    row and the sign of a congruence: the same blocks with their positions
    in order, peels, identity rows, labels and unpeeled map; each block's
    exact and F_p rows as sets of (row, prefix, position, coefficient); the
    same congruences and open cycles."""
    pres, perm, L = _table_case(name)
    got, want = _SkewRows(pres, perm, L), _PositionMajorRows(pres, perm, L)
    assert [b.positions for b in got.blocks] == [b.positions for b in want.blocks]
    assert [b.peels for b in got.blocks] == [b.peels for b in want.blocks]
    assert [b.identity for b in got.blocks] == [b.identity for b in want.blocks]
    assert got.labels == want.labels
    assert got.unpeeled == want.unpeeled
    for mine, theirs in zip(got.blocks, want.blocks):
        assert _block_terms(got, mine.exact, Cyc.sort_key) == _block_terms(want, theirs.exact, Cyc.sort_key)
        assert mine.fp is not None and theirs.fp is not None
        assert _block_terms(got, mine.fp, int) == _block_terms(want, theirs.fp, int)
    assert {pos: _up_to_sign(c, L) for pos, c in got.congruences.items()} == {
        pos: _up_to_sign(c, L) for pos, c in want.congruences.items()
    }
    assert got.cycles == want.cycles


def test_one_pass_tables_sum_the_terms_of_shared_places(monkeypatch):
    """Two places of one relation with the same position, prefix and normal
    word add their terms, and a sum that cancels leaves no term.  No family's
    relations reach this (the words of a relation have distinct first
    letters), so the tables of affine t = 3 are built for cubic relations
    u_1 (u_2 u_3 + c u_3 u_2): at the first place, where x sends u_1 to
    u_a, both words have the normal word of u_a u_2 u_3, with coefficients
    that cancel when the relation holds (c = -p_23) and add otherwise."""
    pres, _, _, _ = _prefilter_grid("affine-3-ord5")
    one = Cyc.one(5)
    p23 = pres.p[1][2]
    pres._rules  # the straightening rules stay those of the quadratic relations
    rels = [{(0, 1, 2): one, (0, 2, 1): -p23}, {(0, 1, 2): one, (0, 2, 1): one}]
    monkeypatch.setattr(pres, "relations", lambda: rels)
    identity = (0, 1, 2)
    got, want = _SkewRows(pres, identity, 5), _PositionMajorRows(pres, identity, 5)
    assert got.labels == want.labels
    assert [b.positions for b in got.blocks] == [b.positions for b in want.blocks]
    terms = [_block_terms(tables, [r for b in tables.blocks for r in b.exact], Cyc.sort_key) for tables in (got, want)]
    assert terms[0] == terms[1]
    fps = [_block_terms(tables, [r for b in tables.blocks for r in b.fp], int) for tables in (got, want)]
    assert fps[0] == fps[1]
    # the first relation's first place cancels at every letter, the second's adds
    first = {(row, pos) for row, prefix, pos, _ in terms[0] if prefix == ()}
    assert {got.labels[row][0] for row, _ in first} == {1}
    assert len(first) == 3
