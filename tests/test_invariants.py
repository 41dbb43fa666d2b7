import pytest

from qhact import invariants
from qhact.classify import plane_instance
from qhact.cyclotomic import Cyc, InputError, lcm, zeta
from qhact.hopf import (
    GrouplikeAction,
    TaftSpec,
    eta_from_entries,
    operator_matrix,
    root_exponents,
    taft_instance,
)
from qhact.invariants import (
    FixedRingCase,
    commutativity_check,
    fixed_space,
    group_closure,
    is_reflection,
    molien_check,
    presentation_match,
    series_equal,
    trace_series_direct,
    trace_series_product,
)
from qhact.ncalg import NCPoly, commutator, from_word, quantum_plane, quantum_affine


def plane_a(k, m):
    level = lcm(k, m)
    mu = zeta(k).lift(level)
    lam = zeta(m).lift(level)
    pres = quantum_plane(mu)
    g = GrouplikeAction.diagonal([mu, lam.inv() * mu])
    eta = eta_from_entries(2, {(0, 1): Cyc.one(level)}, level)
    return taft_instance(pres, TaftSpec(lcm(k, m), m, lam), g, eta), mu


def test_fixed_space_examples():
    inst, mu = plane_a(3, 3)
    deg0 = fixed_space(inst, 0)
    assert len(deg0) == 1 and list(deg0[0].terms) == [()]
    # u^k lies in the degree-k fixed space for the k = m = n action
    deg3 = fixed_space(inst, 3)
    assert any(set(p.terms) == {(0, 0, 0)} for p in deg3)


def _exact(vectors):
    """Fixed-space vectors with their terms in order, scalars by exact key."""
    return [[(w, c.sort_key()) for w, c in v.terms.items()] for v in vectors]


@pytest.fixture
def stacked_calls(monkeypatch):
    """Counts the calls of the stacked-kernel path."""
    calls = []
    original = invariants._stacked_kernel

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(invariants, "_stacked_kernel", spy)
    return calls


def _odd_level_sign_instance():
    """Level 3 with g = diag(-zeta_3, -1): the weights live in mu_6, so
    they must be read mod 6, not mod the level."""
    z = zeta(3)
    g = GrouplikeAction.diagonal([-z, Cyc.rational(-1, 3)])
    eta = eta_from_entries(2, {(0, 1): Cyc.one(3)}, 3)
    return taft_instance(quantum_plane(z), TaftSpec(3, 3, z), g, eta)


def _assert_matches_stacked(inst, D, stacked_calls):
    for d in range(D + 1):
        words = inst.pres.basis(d)
        for group_only in (False, True):
            del stacked_calls[:]
            fast = fixed_space(inst, d, group_only=group_only)
            assert stacked_calls == []
            oracle = invariants._stacked_fixed_space(inst, d, words, group_only)
            assert _exact(fast) == _exact(oracle), (d, group_only)


def test_weight_path_returns_the_stacked_vectors(stacked_calls):
    for k in range(3, 7):
        for m in range(3, 7):
            inst, _ = plane_instance(k, m)
            _assert_matches_stacked(inst, 12, stacked_calls)
    inst = _odd_level_sign_instance()
    assert inst.level == 3
    _assert_matches_stacked(inst, 12, stacked_calls)
    # u^a v^b has weight 3b - a mod 6: u^3 and v^3 are not fixed, u^3 v and v^4 are
    assert fixed_space(inst, 3, group_only=True) == []
    fixed = {w for v in fixed_space(inst, 4, group_only=True) for w in v.terms}
    assert fixed == {(0, 0, 0, 1), (1, 1, 1, 1)}


@pytest.mark.parametrize("g", [
    GrouplikeAction((1, 0), [Cyc.one(3), Cyc.one(3)]),  # not diagonal
    GrouplikeAction.diagonal([Cyc.rational(2, 3), Cyc.one(3)]),  # 2 is no root of unity
])
def test_other_groups_take_the_stacked_path(g, stacked_calls):
    z = zeta(3)
    eta = eta_from_entries(2, {(0, 1): Cyc.one(3)}, 3)
    inst = taft_instance(quantum_plane(z), TaftSpec(3, 3, z), g, eta)
    assert root_exponents(inst.level, inst.gen_actions) is None
    for d in range(1, 5):
        fixed_space(inst, d)
        assert stacked_calls == [d + 1]
        del stacked_calls[:]


def test_fixed_monomial_criterion():
    # u^a v^b fixed iff m | b and k | a + b
    inst, _ = plane_a(4, 3)
    for d in range(13):
        expected = sum(
            1 for b in range(d + 1) if b % 3 == 0 and d % 4 == 0
        )
        assert len(fixed_space(inst, d)) == expected


def test_fixed_dims_monotone_under_stacking():
    inst, _ = plane_a(3, 4)
    for d in range(8):
        group_dim = len(fixed_space(inst, d, group_only=True))
        full_dim = len(fixed_space(inst, d))
        assert full_dim <= group_dim


def _skew_kernel_space(inst, d):
    """Kernel of the skew operators alone on degree d."""
    words = inst.pres.basis(d)
    vecs = invariants._stacked_kernel(len(words), inst.level, skews=invariants._skew_matrices(inst, d))
    return [NCPoly({words[c]: v for c, v in vec.items()}) for vec in vecs]


def _x_fixed_subalgebra_check(inst, D, plane=(0, 1)):
    """For a trivial extension of a plane action (x: u_j -> u_i on the plane
    (i, j)), check degree-by-degree that ker X equals the span of monomials
    whose u_j-exponent is divisible by m."""
    i, j = plane
    support = inst.skews[0].support()
    if support != {(i, j)}:
        raise InputError("instance is not a trivial extension on the stated plane")
    m = inst.qls.m(0)
    pres = inst.pres
    for d in range(D + 1):
        words = pres.basis(d)
        expected = {w for w in words if w.count(j) % m == 0}
        kernel = _skew_kernel_space(inst, d)
        if len(kernel) != len(expected):
            return False
        for vec in kernel:
            if not set(vec.terms) <= expected:
                return False
    return True


def test_x_fixed_subalgebra():
    inst, _ = plane_a(3, 3)
    assert _x_fixed_subalgebra_check(inst, 9)
    # trivial extension at t = 3
    level = 15
    z = zeta(5).lift(level)
    one = Cyc.one(level)
    p = [[one, z, z * z], [z.inv(), one, z], [(z * z).inv(), z.inv(), one]]
    pres = quantum_affine(p)
    lam = zeta(3).lift(level)
    alpha = [p[0][1], lam.inv() * p[0][1], p[0][2] * p[2][1]]
    g = GrouplikeAction.diagonal(alpha)
    eta = eta_from_entries(3, {(0, 1): one}, level)
    n = lcm(15, 3)
    inst3 = taft_instance(pres, TaftSpec(n, 3, lam), g, eta)
    assert _x_fixed_subalgebra_check(inst3, 6)
    # precondition gate: chain-supported skew is rejected
    chain_eta = eta_from_entries(3, {(0, 1): one, (1, 2): one}, level)
    chain_inst = taft_instance(pres, TaftSpec(n, 3, lam), g, chain_eta)
    with pytest.raises(InputError):
        _x_fixed_subalgebra_check(chain_inst, 4)


def test_trace_series():
    mu = zeta(5)
    # identity on n degree-one generators gives the binomial series
    ident = GrouplikeAction.identity(2, 5)
    direct = trace_series_direct(quantum_plane(mu), ident, 6)
    assert direct == [1, 2, 3, 4, 5, 6, 7]
    # single generator, eigenvalue -1: alternating signs
    alt = trace_series_product([Cyc.rational(-1)], [1], 6)
    assert alt == [1, -1, 1, -1, 1, -1, 1]
    # weighted generators (1, m)
    w = trace_series_product([mu, mu**3], [1, 3], 6)
    direct_check = [Cyc.one(5)] + [Cyc.zero(5)] * 6
    for a in range(7):
        for b in range(0, 7, 3):
            d = a + b
            if 0 < d <= 6:
                direct_check[d] = direct_check[d] + mu**a * (mu**3) ** (b // 3)
    assert series_equal(w, direct_check)


def test_trace_direct_vs_product_grid():
    for k, m in [(3, 3), (4, 3), (5, 4), (6, 5)]:
        inst, _ = plane_a(k, m)
        g = inst.gen_actions[0]
        assert series_equal(
            trace_series_direct(inst.pres, g, 20),
            trace_series_product(list(g.scalars), [1, 1], 20),
        )


def test_molien():
    mu = zeta(5)
    pres = quantum_plane(mu.lift(15))
    g = GrouplikeAction.diagonal([zeta(3).lift(15), zeta(3, 2).lift(15)])
    ok, avg, dims = molien_check(pres, [g], 12)
    assert ok
    # trivial group: both sides are the Hilbert series
    ident = GrouplikeAction.identity(2, 5)
    ok2, avg2, dims2 = molien_check(quantum_plane(mu), [ident], 8)
    assert ok2 and dims2 == [d + 1 for d in range(9)]
    # Taft grouplike of the k = m = 3 action
    inst, _ = plane_a(3, 3)
    ok3, _, _ = molien_check(inst.pres, [inst.gen_actions[0]], 12)
    assert ok3
    # a permuting generator takes the degree-d matrices: symmetric polynomials
    swap = GrouplikeAction((1, 0), [Cyc.one(2), Cyc.one(2)])
    ok4, _, dims4 = molien_check(quantum_plane(Cyc.one(2)), [swap], 8)
    assert ok4 and dims4 == [d // 2 + 1 for d in range(9)]


def _molien_direct(pres, g, D):
    """Molien from the degree-d matrices: the average of the direct trace
    series and the dimensions of the stacked kernels."""
    group = group_closure([g])
    level = group[0].scalars[0].L
    total = [Cyc.zero(level)] * (D + 1)
    for h in group:
        total = [a + b for a, b in zip(total, trace_series_direct(pres, h, D))]
    inv_order = Cyc.rational(1, level) / Cyc.rational(len(group), level)
    avg = [inv_order * c for c in total]
    g = g.lift(level)
    dims = [
        len(invariants._stacked_kernel(len(pres.basis(d)), level, [operator_matrix(pres, g, d)]))
        for d in range(D + 1)
    ]
    return all(a == n for a, n in zip(avg, dims)), avg, dims


def test_molien_weight_path_matches_direct_route(stacked_calls):
    checked = 0
    for k in range(3, 7):
        for m in range(3, 7):
            if lcm(k, m) > 12:
                continue
            inst, _ = plane_instance(k, m)
            g = inst.gen_actions[0]
            equal, avg, dims = molien_check(inst.pres, [g], 12)
            assert stacked_calls == []
            d_equal, d_avg, d_dims = _molien_direct(inst.pres, g, 12)
            assert (equal, dims) == (d_equal, d_dims)
            assert [c.sort_key() for c in avg] == [c.sort_key() for c in d_avg]
            assert equal
            checked += 1
            del stacked_calls[:]
    assert checked == 10


def test_group_closure_sizes():
    g = GrouplikeAction.diagonal([zeta(3), zeta(3).inv()])
    assert len(group_closure([g])) == 3
    swap = GrouplikeAction((1, 0), [Cyc.one(3), Cyc.one(3)])
    assert len(group_closure([g, swap])) > 3


def test_is_reflection():
    mu = zeta(6)
    flag, xi = is_reflection(GrouplikeAction.diagonal([mu, Cyc.one(6)]))
    assert flag and xi == mu
    assert not is_reflection(GrouplikeAction.identity(2, 6))[0]
    flag3, _ = is_reflection(
        GrouplikeAction.diagonal([zeta(3).lift(15), zeta(5).lift(15)])
    )
    assert not flag3


def test_commutativity():
    inst, _ = plane_a(4, 3)
    assert commutativity_check(inst, 16)
    # control: the ambient plane itself is noncommutative
    pres = inst.pres
    u, v = from_word(pres, (0,)), from_word(pres, (1,))
    assert not commutator(pres, u, v).is_zero()
    # u^3 and v^3 commute in the k = m = 3 fixed ring
    inst33, _ = plane_a(3, 3)
    p3 = inst33.pres
    u3, v3 = from_word(p3, (0, 0, 0)), from_word(p3, (1, 1, 1))
    assert commutator(p3, u3, v3).is_zero()


def test_presentation_match_and_gates():
    inst, _ = plane_a(3, 6)
    ok, dims, cand = presentation_match(inst, FixedRingCase("divides_km", 3, 6), 24)
    assert ok and dims == cand
    with pytest.raises(InputError):
        FixedRingCase("divides_km", 4, 6)
    with pytest.raises(InputError):
        FixedRingCase("hypersurface", 7, 3)  # k - m does not divide k
    case = FixedRingCase("hypersurface", 6, 4)
    assert case.s == 2
    # printed numerator 1 + t^k + ... + t^(sk)
    ser = case.series(12)
    assert ser[0] == 1 and ser[6] == 2 and ser[12] == 4


def test_degree2_trace_value():
    mu = zeta(5)
    pres = quantum_plane(mu)
    g = GrouplikeAction.diagonal([mu, mu.inv()])
    series = trace_series_direct(pres, g, 2)
    # eigenvalues on u^2, uv, v^2
    assert series[2] == mu * mu + 1 + (mu * mu).inv()


def test_group_closure_cap_guard():
    g = GrouplikeAction.diagonal([zeta(5), zeta(5).inv()])
    with pytest.raises(InputError):
        group_closure([g], cap=2)


def test_reflection_needs_diagonal():
    swap = GrouplikeAction((1, 0), [Cyc.one(3), Cyc.one(3)])
    with pytest.raises(InputError):
        is_reflection(swap)
