import random
from fractions import Fraction

import pytest

from qhact.cyclotomic import Cyc, zeta
from qhact.ncalg import (
    EXTERIOR,
    NotGraded,
    commutator,
    confluence_check,
    first_weyl,
    from_word,
    koszul_dual,
    multiply,
    normalize,
    poly_to_json,
    quantized_weyl,
    quantum_affine,
    quantum_exterior,
    quantum_matrix,
    quantum_plane,
)
from qhact.cyclotomic import InputError


def rand_p(rng, t, order):
    z = zeta(order)
    one = Cyc.one(order)
    p = [[one for _ in range(t)] for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            e = rng.randrange(1, order)
            p[i][j] = z**e
            p[j][i] = z**-e
    return p


# -- presentations and rewrite rules -------------------------------------------


def test_plane_rule():
    mu = zeta(5)
    pres = quantum_plane(mu)
    # u2 u1 rewrites with coefficient p_21 = mu^{-1}
    nf = normalize(pres, {(1, 0): Cyc.one(5)})
    assert nf.terms == {(0, 1): mu.inv()}


def test_matrix_rule_DA():
    q = zeta(5)
    pres = quantum_matrix(2, q)
    # D*A -> AD - (q - q^{-1}) BC
    nf = normalize(pres, {(3, 0): Cyc.one(5)})
    assert nf.terms[(0, 3)] == 1
    assert nf.terms[(1, 2)] == -(q - q.inv())
    assert len(nf.terms) == 2


def test_exterior_square_is_zero():
    pres = quantum_exterior(rand_p(random.Random(0), 2, 5))
    assert normalize(pres, {(0, 0): Cyc.one(5)}).is_zero()
    assert normalize(pres, {(1, 1, 0): Cyc.one(5)}).is_zero()


def test_bad_p_rejected():
    one = Cyc.one(5)
    mu = zeta(5)
    with pytest.raises(InputError):
        quantum_affine([[one, mu], [mu, one]])  # p12 * p21 != 1
    with pytest.raises(InputError):
        quantum_affine([[mu, mu], [mu.inv(), one]])  # p11 != 1
    with pytest.raises(InputError):
        quantized_weyl([[one]], [Cyc.zero(5)])


# -- normalization ---------------------------------------------------------------


def test_plane_relation_normalizes_to_zero():
    mu = zeta(7)
    pres = quantum_plane(mu)
    rel = {(0, 1): Cyc.one(7), (1, 0): -mu}
    assert normalize(pres, rel).is_zero()


def test_m2_commutator_AD():
    q = zeta(5)
    pres = quantum_matrix(2, q)
    A = from_word(pres, (0,))
    D = from_word(pres, (3,))
    B = from_word(pres, (1,))
    C = from_word(pres, (2,))
    lhs = commutator(pres, A, D)
    rhs = p_scale_mul(pres, q - q.inv(), B, C)
    assert lhs == rhs


def p_scale_mul(pres, c, x, y):
    from qhact.ncalg import multiply, p_scale

    return p_scale(multiply(pres, x, y), c)


def test_weyl_uv():
    mu = zeta(5)
    pres = first_weyl(mu)
    # gens are (v, u); u*v = 1 + mu v u
    nf = normalize(pres, {(1, 0): Cyc.one(5)})
    assert nf.terms == {(): Cyc.one(5), (0, 1): mu}


def test_multiply_examples():
    mu = zeta(6)
    pres = quantum_plane(mu)
    u = from_word(pres, (0,))
    v = from_word(pres, (1,))
    assert multiply(pres, u, v).terms == {(0, 1): Cyc.one(6)}
    assert multiply(pres, v, u).terms == {(0, 1): mu.inv()}


def test_relations_lists():
    pres = quantum_affine(rand_p(random.Random(1), 3, 5))
    assert len(pres.relations()) == 3
    q = zeta(5)
    m2 = quantum_matrix(2, q)
    assert len(m2.relations()) == 6
    w2 = quantized_weyl(rand_p(random.Random(2), 2, 5), [zeta(5), zeta(5, 2)])
    rels = w2.relations()
    # includes u2 v2 - 1 - gamma_2 v2 u2 - (gamma_1 - 1) v1 u1
    gam1, gam2 = w2.gammas
    target = {(3, 2): Cyc.one(5), (): -Cyc.one(5), (2, 3): -gam2, (0, 1): -(gam1 - 1)}
    assert any(r == target for r in rels)


def test_every_relation_normalizes_to_zero():
    rng = random.Random(3)
    q = zeta(5)
    presentations = [
        quantum_affine(rand_p(rng, 3, 5)),
        quantum_exterior(rand_p(rng, 3, 7)),
        quantum_matrix(2, q),
        quantum_matrix(3, q),
        quantized_weyl(rand_p(rng, 2, 5), [zeta(5), zeta(5, 3)]),
    ]
    for pres in presentations:
        for rel in pres.relations():
            assert normalize(pres, rel).is_zero(), (pres, rel)


def _rule_terms(pres):
    return {key: [(w, c) for c, w in terms] for key, terms in pres._rules.items()}


def test_weyl_rules_are_derived_from_the_relations():
    # generators (v1, u1, v2, u2, v3, u3); p12 = z, p13 = z^2, p23 = z^4 and
    # gamma = (1, z^2, z^3), so (gamma_1 - 1) v1 u1 = 0 drops out of the
    # rules of u2 v2 and u3 v3
    z, one = zeta(5), Cyc.one(5)
    p = [[one, z, z**2], [z**4, one, z**4], [z**3, z, one]]
    pres = quantized_weyl(p, [one, z**2, z**3])
    assert "_rules" not in vars(pres)  # built on first use
    assert _rule_terms(pres) == {
        # v_j v_i -> p_ji v_i v_j
        (2, 0): [((0, 2), z**4)],
        (4, 0): [((0, 4), z**3)],
        (4, 2): [((2, 4), z)],
        # u_j u_i -> (gamma_i p_ij)^-1 u_i u_j
        (3, 1): [((1, 3), z**4)],
        (5, 1): [((1, 5), z**3)],
        (5, 3): [((3, 5), z**4)],
        # v_j u_i -> p_ij u_i v_j
        (2, 1): [((1, 2), z)],
        (4, 1): [((1, 4), z**2)],
        (4, 3): [((3, 4), z**4)],
        # u_j v_i -> gamma_i p_ij v_i u_j
        (3, 0): [((0, 3), z)],
        (5, 0): [((0, 5), z**2)],
        (5, 2): [((2, 5), z)],
        # u_j v_j -> 1 + gamma_j v_j u_j + sum_{l<j} (gamma_l - 1) v_l u_l
        (1, 0): [((), one), ((0, 1), one)],
        (3, 2): [((), one), ((2, 3), z**2)],
        (5, 4): [((), one), ((4, 5), z**3), ((2, 3), z**2 - one)],
    }
    assert all(c.L == 5 for terms in pres._rules.values() for c, _ in terms)


def test_matrix_rules_are_derived_from_the_relations():
    # O_q(M_3), Y_ij at flat index 3(i-1) + (j-1): for i < l and j < m,
    # Y_lm Y_ij -> Y_ij Y_lm - (q - q^-1) Y_im Y_lj; every other pair
    # commutes up to q^-1 (same row or column) or 1
    q = zeta(5)
    one, corr = Cyc.one(5), q - q.inv()
    pres = quantum_matrix(3, q)
    rules = _rule_terms(pres)
    three = {key: terms for key, terms in rules.items() if len(terms) == 2}
    assert three == {
        (4, 0): [((0, 4), one), ((1, 3), -corr)],
        (5, 0): [((0, 5), one), ((2, 3), -corr)],
        (5, 1): [((1, 5), one), ((2, 4), -corr)],
        (7, 0): [((0, 7), one), ((1, 6), -corr)],
        (8, 0): [((0, 8), one), ((2, 6), -corr)],
        (8, 1): [((1, 8), one), ((2, 7), -corr)],
        (7, 3): [((3, 7), one), ((4, 6), -corr)],
        (8, 3): [((3, 8), one), ((5, 6), -corr)],
        (8, 4): [((4, 8), one), ((5, 7), -corr)],
    }
    assert set(rules) == {(b, a) for b in range(9) for a in range(b)}
    for (b, a), terms in rules.items():
        if (b, a) in three:
            continue
        (l, m), (i, j) = divmod(b, 3), divmod(a, 3)
        assert terms == [((a, b), q.inv() if i == l or j == m else one)], (b, a)


# -- bases and Hilbert series ---------------------------------------------------


def test_m2_degree2_basis():
    pres = quantum_matrix(2, zeta(5))
    words = pres.basis(2)
    names = [tuple(pres.word_names(w)) for w in words]
    assert names == [
        ("Y11", "Y11"), ("Y11", "Y12"), ("Y11", "Y21"), ("Y11", "Y22"),
        ("Y12", "Y12"), ("Y12", "Y21"), ("Y12", "Y22"),
        ("Y21", "Y21"), ("Y21", "Y22"), ("Y22", "Y22"),
    ]


def _hilbert_coeffs(pres, D):
    return [len(pres.basis(d)) for d in range(D + 1)]


def _expected_hilbert(pres, d):
    """Independent combinatorial dimension count for the graded families."""
    from math import comb

    if pres.family == EXTERIOR:
        return comb(pres.t, d) if d <= pres.t else 0
    n = pres.ngens
    return comb(d + n - 1, n - 1)


def _poly_from_json(pres, data):
    """The inverse of poly_to_json."""
    lookup = {g: k for k, g in enumerate(pres.gens)}
    terms = []
    for rec in data:
        terms.append((tuple(lookup[n] for n in rec["word"]), Cyc.from_json(rec["coeff"])))
    return normalize(pres, terms)


def test_affine_basis_and_hilbert():
    pres = quantum_plane(zeta(5))
    assert pres.basis(3) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert _hilbert_coeffs(pres, 4) == [1, 2, 3, 4, 5]
    m2 = quantum_matrix(2, zeta(5))
    assert _hilbert_coeffs(m2, 2) == [1, 4, 10]
    ext = quantum_exterior(rand_p(random.Random(4), 2, 5))
    assert _hilbert_coeffs(ext, 3) == [1, 2, 1, 0]
    assert ext.basis(2) == [(0, 1)]


def test_hilbert_matches_combinatorial_count():
    pres = quantum_affine(rand_p(random.Random(5), 3, 5))
    for d in range(7):
        assert len(pres.basis(d)) == _expected_hilbert(pres, d)
    m = quantum_matrix(2, zeta(7))
    for d in range(5):
        assert len(m.basis(d)) == _expected_hilbert(m, d)


def test_weyl_not_graded():
    pres = first_weyl(zeta(5))
    with pytest.raises(NotGraded):
        pres.basis(2)
    words = pres.pbw_words_up_to_length(2)
    # normal words over v,u of length <= 2: (), v, u, vv, vu, uu  (uv excluded)
    assert set(words) == {(), (0,), (1,), (0, 0), (0, 1), (1, 1)}


# -- confluence -------------------------------------------------------------------


def test_confluence_all_families():
    rng = random.Random(6)
    for order in range(3, 9):
        aff = quantum_affine(rand_p(rng, 3, order))
        assert confluence_check(aff).ok
        ext = quantum_exterior(rand_p(rng, 3, order))
        assert confluence_check(ext).ok
        m2 = quantum_matrix(2, zeta(order))
        assert confluence_check(m2).ok
        w = quantized_weyl(rand_p(rng, 2, order), [zeta(order), zeta(order)])
        assert confluence_check(w).ok


def test_confluence_m3():
    assert confluence_check(quantum_matrix(3, zeta(5))).ok


# -- Koszul dual ------------------------------------------------------------------


def test_koszul_dual_one_generator():
    one_gen = quantum_affine([[Cyc.one(5)]])
    dual1 = koszul_dual(one_gen)
    assert normalize(dual1, {(0, 0): Cyc.one(5)}).is_zero()


def test_koszul_dual():
    pres = quantum_plane(zeta(5))
    dual = koszul_dual(pres)
    assert dual.family == "quantum_exterior"
    assert dual.p == pres.p
    # (u*)^2 = 0
    assert normalize(dual, {(0, 0): Cyc.one(5)}).is_zero()
    with pytest.raises(InputError):
        koszul_dual(quantum_matrix(2, zeta(5)))


# -- properties -------------------------------------------------------------------


def rand_poly(rng, pres, max_deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        d = rng.randrange(max_deg + 1)
        w = tuple(rng.randrange(pres.ngens) for _ in range(d))
        terms[w] = Cyc.rational(rng.randrange(-3, 4), pres.level)
    return normalize(pres, terms)


def test_normalize_idempotent_and_assoc():
    rng = random.Random(7)
    q = zeta(5)
    presentations = [
        quantum_affine(rand_p(rng, 3, 5)),
        quantum_exterior(rand_p(rng, 3, 5)),
        quantum_matrix(2, q),
        quantized_weyl(rand_p(rng, 2, 5), [zeta(5), zeta(5, 2)]),
    ]
    for pres in presentations:
        for _ in range(30):
            a = rand_poly(rng, pres)
            b = rand_poly(rng, pres)
            c = rand_poly(rng, pres)
            assert normalize(pres, a) == a
            left = multiply(pres, multiply(pres, a, b), c)
            right = multiply(pres, a, multiply(pres, b, c))
            assert left == right


def test_poly_json_roundtrip():
    pres = quantum_matrix(2, zeta(5))
    poly = normalize(
        pres, {(3, 0): Cyc.one(5), (1, 2): Cyc.rational(2, 5)}
    )
    data = poly_to_json(pres, poly)
    assert data[0]["word"] <= data[-1]["word"]
    back = _poly_from_json(pres, data)
    assert back == poly


def test_fast_paths_agree_with_generic_engine():
    # the insertion-sort normal forms must equal the rule-driven ones
    from qhact.ncalg import _nf_generic, nf_word

    rng = random.Random(13)
    for order in (3, 5, 7):
        aff = quantum_affine(rand_p(rng, 4, order))
        ext = quantum_exterior(rand_p(rng, 4, order))
        for pres in (aff, ext):
            for _ in range(80):
                d = rng.randrange(1, 6)
                w = tuple(rng.randrange(4) for _ in range(d))
                fast = nf_word(pres, w)
                slow = _nf_generic(pres, w)
                assert set(fast) == set(slow)
                assert all(fast[k] == slow[k] for k in fast)


def _nf_affine_by_swaps(pres, word):
    """Insertion sort; each adjacent swap of (a, b) with a > b picks up
    p[a][b] (affine) or -p[b][a] (exterior), and an exterior word that
    brings two equal letters together is 0."""
    w = list(word)
    coeff = Cyc.one(pres.level)
    exterior = pres.family == "quantum_exterior"
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            a, b = w[j - 1], w[j]
            coeff = -(coeff * pres.p[b][a]) if exterior else coeff * pres.p[a][b]
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
        if exterior and j > 0 and w[j - 1] == w[j]:
            return {}
    return {tuple(w): coeff}


def test_nf_affine_inversion_counts_match_insertion_sort():
    # affine and exterior words alike
    from qhact.ncalg import _nf_affine

    rng = random.Random(29)
    # t = 3 carries a rational p_01 = 1/2, which is no root of unity
    p3 = rand_p(rng, 3, 5)
    p3[0][1], p3[1][0] = Cyc.rational(Fraction(1, 2), 5), Cyc.rational(2, 5)
    cases = [quantum_affine(rand_p(rng, 2, 7)), quantum_affine(p3),
             quantum_affine(rand_p(rng, 4, 12)), quantum_exterior(p3)]
    for pres in cases:
        t = pres.t
        # exterior words longer than t are all 0
        longest = 40 if pres.family == "quantum_affine" else t + 2
        for _ in range(300):
            w = tuple(rng.randrange(t) for _ in range(rng.randrange(0, longest)))
            fast = _nf_affine(pres, w)
            slow = _nf_affine_by_swaps(pres, w)
            assert list(fast) == list(slow)
            assert [c.sort_key() for c in fast.values()] == [c.sort_key() for c in slow.values()]


def test_zero_q_rejected():
    with pytest.raises(InputError):
        quantum_matrix(2, Cyc.zero(5))
    pres = quantum_plane(zeta(5))
    with pytest.raises(InputError):
        pres.basis(-1)
