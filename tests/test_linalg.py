import random

from qhact import linalg
from qhact.cyclotomic import Cyc, zeta


def _s_scale(A, c):
    """c A, storing no zero entry: the scalar multiple the sparse operators
    of linalg are checked against."""
    if c.is_zero():
        return [{} for _ in A]
    return [{i: c * v for i, v in col.items()} for col in A]


def C(x):
    return Cyc.rational(x)


def test_nullspace_simple():
    # x + y = 0 over Q
    rows = [{0: C(1), 1: C(1)}]
    basis = linalg.nullspace(rows, 2)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[1] == 1 and vec[0] == -1


def test_nullspace_full_rank():
    rows = [{0: C(1)}, {1: C(2)}]
    assert linalg.nullspace(rows, 2) == []


def test_nullspace_cyclotomic():
    z = zeta(5)
    # z*x - y = 0 and redundant scalar multiple
    rows = [{0: z, 1: C(-1)}, {0: z * z, 1: -z}]
    basis = linalg.nullspace(rows, 2, level=5)
    assert len(basis) == 1
    assert basis[0][1] == 1 and basis[0][0] == z.inv()


def test_rank_and_rref_idempotence():
    z = zeta(3)
    rows = [{0: z, 1: C(1)}, {0: z * z, 1: z}, {2: C(1)}]
    assert linalg.rank(rows) == 2


def test_s_pow():
    z = zeta(4)
    one = Cyc.one(4)
    # diagonal of order 4: e = 0 and e = 4 give the identity, e = 1 itself
    M = [{0: z}, {1: z.inv()}]
    assert linalg.s_pow(M, 0, 4) == linalg.s_identity(2, 4)
    assert linalg.s_pow(M, 1, 4) == M
    assert linalg.s_pow(M, 4, 4) == linalg.s_identity(2, 4)
    assert linalg.s_pow(M, 3, 4) == [{0: z.inv()}, {1: z}]
    assert linalg.s_mul(M, linalg.s_identity(2, 4)) == M
    assert linalg.s_is_zero(linalg.s_sub(M, M))
    # the shift u0 -> u1 -> u2 -> 0 is nilpotent of index 3
    N = [{1: one}, {2: z}, {}]
    assert linalg.s_pow(N, 2, 4) == [{2: z}, {}, {}]
    assert linalg.s_is_zero(linalg.s_pow(N, 3, 4))
    assert linalg.s_is_zero(linalg.s_pow(N, 5, 4))


def test_s_pow_never_multiplies_by_the_identity(monkeypatch):
    products = []
    real = linalg.s_mul

    def counting(A, B):
        products.append((A, B))
        return real(A, B)

    monkeypatch.setattr(linalg, "s_mul", counting)
    z = zeta(5)
    M = [{1: z}, {0: z}]
    for e, expected in ((0, 0), (1, 0), (2, 1), (4, 2), (5, 3), (7, 4)):
        products.clear()
        linalg.s_pow(M, e, 5)
        assert len(products) == expected, e
        assert all(linalg.s_identity(2, 5) not in pair for pair in products)


def test_sparse_ops():
    z = zeta(5)
    A = [{0: z}, {1: z * z}]
    B = [{1: C(1)}, {0: C(1)}]
    AB = linalg.s_mul(A, B)
    assert AB[0] == {1: z * z} or AB[0][1] == z * z
    assert linalg.s_trace(A, 5) == z + z * z
    assert linalg.s_is_zero(linalg.s_sub(A, A))
    rows = linalg.s_rows(A, 2)
    assert rows[0] == {0: z}


def test_rref_and_nullspace_random_cyclotomic_systems():
    rng = random.Random(5)
    for L in (3, 5, 7, 12):
        deg = len(zeta(L).num)
        for _ in range(15):
            ncols = rng.randrange(1, 7)
            def sparse(row):
                return {j: v for j, v in row.items() if not v.is_zero()}

            def scalar(b):
                return Cyc(L, [rng.randrange(-b, b + 1) for _ in range(deg)])

            basis = [
                sparse({c: scalar(3) for c in range(ncols) if rng.random() < 0.6})
                for _ in range(rng.randrange(1, 4))
            ]
            # combinations of the base rows keep the rank below the row count
            rows = list(basis)
            for _ in range(rng.randrange(0, 4)):
                c1, c2 = scalar(2), scalar(2)
                r1, r2 = rng.choice(basis), rng.choice(basis)
                zero = Cyc.zero(L)
                rows.append(sparse({j: c1 * r1.get(j, zero) + c2 * r2.get(j, zero)
                                    for j in set(r1) | set(r2)}))
            rows = [r for r in rows if r]
            rng.shuffle(rows)
            pivots = linalg.rref(rows)
            for lead, prow in pivots.items():
                assert min(prow) == lead and prow[lead] == 1
                assert all(col not in prow for col in pivots if col != lead)
            kernel = linalg.nullspace(rows, ncols, L)
            assert len(pivots) + len(kernel) == ncols
            for vec in kernel:
                for row in rows:
                    acc = Cyc.zero(L)
                    for j, v in row.items():
                        if j in vec:
                            acc = acc + v * vec[j]
                    assert acc.is_zero()


def test_s_ratio_needs_equal_supports():
    one, two = Cyc.one(5), Cyc.rational(2, 5)
    assert linalg.s_ratio([{0: two}, {1: two}], [{0: one}, {1: one}]) == 2
    assert linalg.s_ratio([{0: two}, {}], [{0: one}, {1: one}]) is None
    assert linalg.s_ratio([{0: two}, {1: two}], [{0: one}, {}]) is None
    assert linalg.s_ratio([{0: two}, {1: one}], [{0: one}, {1: one}]) is None
    # P = Q = 0 holds for every scalar, and P = 0 != Q only for 0
    assert linalg.s_ratio([{}, {}], [{}, {}]) is linalg.ANY
    assert linalg.s_ratio([{}, {}], [{}, {1: two}]) == 0


def test_s_ratio_matches_subtract_and_scale():
    # s_ratio(P, Q) is ANY or c exactly when P - c Q = 0.  A c that works is
    # P_e / Q_e at every stored entry e of Q, so trying the c read off Q's
    # last entry, s_ratio's own answer, 0 and a random scalar decides it
    rng = random.Random(17)
    kinds = {"multiple": 0, "perturbed": 0, "disjoint": 0, "random": 0, "zero": 0}
    for L in (3, 5, 12):
        deg = len(zeta(L).num)

        def scalar():
            # a root of unity or, mostly, a cyclotomic integer that is none
            if rng.random() < 0.4:
                return zeta(L, rng.randrange(L))
            return Cyc(L, [rng.randrange(-3, 4) for _ in range(deg)])

        def sparse(n, density, skip=None):
            # columns may come out empty; skip[j] lists rows column j leaves out
            cols = [
                {i: scalar() for i in range(n) if rng.random() < density
                 and (skip is None or i not in skip[j])}
                for j in range(n)
            ]
            return [{i: v for i, v in col.items() if not v.is_zero()} for col in cols]

        for _ in range(60):
            n = rng.randrange(1, 5)
            Q = sparse(n, rng.choice((0.0, 0.3, 0.7)))
            kind = rng.choice(list(kinds))
            kinds[kind] += 1
            P = _s_scale(Q, scalar())
            if kind == "perturbed" and not linalg.s_is_zero(Q):
                j = rng.choice([j for j, col in enumerate(Q) if col])
                P[j] = linalg.s_sub([P[j]], [{rng.choice(list(Q[j])): scalar()}])[0]
            elif kind == "disjoint":
                P = sparse(n, 0.6, skip=Q)
            elif kind == "random":
                P = sparse(n, 0.5)
            elif kind == "zero":
                P = [{} for _ in range(n)]
            r = linalg.s_ratio(P, Q)
            tries = [Cyc.zero(L), scalar()] + ([r] if isinstance(r, Cyc) else [])
            for j, col in enumerate(Q):
                if col:
                    i, q = list(col.items())[-1]
                    last = P[j].get(i, Cyc.zero(L)) / q
            if not linalg.s_is_zero(Q):
                tries.append(last)
            for c in tries:
                holds = linalg.s_is_zero(linalg.s_sub(P, _s_scale(Q, c)))
                assert (r is linalg.ANY or r == c) == holds, (P, Q, c, r)
            assert (r is linalg.ANY) == (linalg.s_is_zero(P) and linalg.s_is_zero(Q))
    assert min(kinds.values()) > 10


def _assert_no_zeros(dicts, what):
    for k, d in enumerate(dicts):
        for i, v in d.items():
            assert not v.is_zero(), (what, k, i)


def test_sparse_matrices_store_no_zeros(monkeypatch):
    """No sparse matrix or row holds a zero entry: rref takes min(row) as
    the lead, so a stored zero would be divided by."""
    from itertools import product
    from math import gcd

    from qhact import classify
    from qhact.classify import generic_affine_p, m2_family, solve_skew_space
    from qhact.cyclotomic import root_of_unity
    from qhact.hopf import GrouplikeAction, operator_matrix
    from qhact.ncalg import quantum_affine, quantum_plane

    # entries that cancel are dropped
    one = C(1)
    A = [{0: one, 1: one}, {0: -one, 1: one}]
    assert linalg.s_mul(A, [{0: one, 1: one}]) == [{1: C(2)}]
    assert linalg.s_sub(A, [{0: one}, {1: one}]) == [{1: one}, {0: -one}]
    assert _s_scale(A, C(0)) == [{}, {}]

    rows_in, solved = [], []
    real = classify.linalg.nullspace

    def recording(rows, ncols, level=1):
        rows_in.extend(rows)
        vecs = real(rows, ncols, level)
        solved.append((len(rows), ncols, len(vecs)))
        return vecs

    monkeypatch.setattr(classify.linalg, "nullspace", recording)
    real_rank_mod, ranked = classify.linalg.rank_mod, [0]

    def counted_rank_mod(*args):
        ranked[0] += 1
        return real_rank_mod(*args)

    monkeypatch.setattr(classify.linalg, "rank_mod", counted_rank_mod)
    full_rank, read_off = classify._SkewRows.full_rank, [0]

    def certify(self, block, cols, *args):
        """full_rank, counting the one-unknown blocks it certifies with no
        rank_mod call."""
        before = ranked[0]
        full = full_rank(self, block, cols, *args)
        read_off[0] += full and len(cols) == 1 and ranked[0] == before
        return full

    systems = members = 0
    grids = [
        (12, 4, quantum_plane(zeta(3).lift(12))),
        (5, 5, quantum_affine(generic_affine_p(3, 5))),
    ]
    for L, m, pres in grids:
        t = len(pres.gens)
        ells = [(L // m) * j for j in range(1, m) if gcd(j, m) == 1]
        identity = tuple(range(t))
        read_off[0] = 0
        for exps in product(range(L), repeat=t):
            g = GrouplikeAction.diagonal([root_of_unity(L, e) for e in exps])
            G = operator_matrix(pres, g, 1)
            _assert_no_zeros(G, "operator_matrix of g")
            for ell in ells:
                lam = root_of_unity(L, ell)
                for unpruned, certified in product((False, True), repeat=2):
                    # with the F_p certificate off, the full-rank blocks are
                    # eliminated exactly too, as when p divides a denominator
                    patched = certify if certified else (lambda *args: False)
                    monkeypatch.setattr(classify._SkewRows, "full_rank", patched)
                    rows_in.clear()
                    _, basis = solve_skew_space(pres, identity, exps, ell, L, unpruned=unpruned)
                    _assert_no_zeros(rows_in, "solve_skew_space rows")
                    systems += bool(rows_in)
                members += len(basis)
                for x in basis:
                    X = operator_matrix(pres, g, 1, x)
                    _assert_no_zeros(X, "operator_matrix of x")
                    GX, XG = linalg.s_mul(G, X), linalg.s_mul(X, G)
                    for what, M in (
                        ("s_mul", GX),
                        ("s_mul", XG),
                        ("s_scale", _s_scale(XG, lam)),
                        ("s_sub", linalg.s_sub(GX, _s_scale(XG, lam))),
                        ("s_sub", linalg.s_sub(GX, XG)),
                        ("s_pow", linalg.s_pow(X, m, L)),
                        ("s_pow", linalg.s_pow(linalg.s_sub(G, X), m, L)),
                        ("s_rows", linalg.s_rows(linalg.s_sub(G, X), t)),
                    ):
                        _assert_no_zeros(M, what)
        # the certified runs read some one-unknown block's verdict off its rows
        assert read_off[0] > 0, L
    assert systems > 0 and members > 0
    # a block of several positions with a nonzero kernel: the grouplike
    # (q, q^-1, q, q^-1) of O_q(M_2) row 1 at lambda = q^2, q = zeta_5, whose
    # delta spans (0,1) and (2,3)
    fam = m2_family(zeta(5), 1)
    exps = (1, 4, 1, 4)
    assert fam.g.scalars == tuple(zeta(5, e) for e in exps) and fam.lam == zeta(5, 2)
    rows_in.clear()
    solved.clear()
    _, basis = solve_skew_space(fam.pres, (0, 1, 2, 3), exps, 2, 5)
    _assert_no_zeros(rows_in, "solve_skew_space rows")
    assert any(nrows > 0 and ncols > 1 and nvecs > 0 for nrows, ncols, nvecs in solved), solved
    assert [x.support() for x in basis] == [{(0, 1), (2, 3)}]


def test_rank_mod():
    # rank over F_7, not over Q: the second row is 3 times the first mod 7
    assert linalg.rank_mod([{0: 1, 1: 2}, {0: 3, 1: 13}], 2, 7) == 1
    assert linalg.rank([{0: C(1), 1: C(2)}, {0: C(3), 1: C(13)}]) == 2
    # entries that vanish mod p may be stored
    assert linalg.rank_mod([{0: 7, 1: 14}, {1: 1}], 2, 7) == 1
    assert linalg.rank_mod([], 3, 7) == 0
    # the rank stops at the column count; later rows are not read
    assert linalg.rank_mod([{0: 1}, {1: 1}, None], 2, 7) == 2
