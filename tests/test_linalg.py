import random

from qhact import linalg
from qhact.cyclotomic import Cyc, zeta


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
    from qhact.classify import generic_affine_p, solve_skew_space
    from qhact.cyclotomic import root_of_unity
    from qhact.hopf import GrouplikeAction
    from qhact.ncalg import quantum_affine, quantum_plane

    # entries that cancel are dropped
    one = C(1)
    A = [{0: one, 1: one}, {0: -one, 1: one}]
    assert linalg.s_mul(A, [{0: one, 1: one}]) == [{1: C(2)}]
    assert linalg.s_sub(A, [{0: one}, {1: one}]) == [{1: one}, {0: -one}]
    assert linalg.s_scale(A, C(0)) == [{}, {}]

    rows_in = []
    real = classify.linalg.nullspace

    def recording(rows, ncols, level=1):
        rows_in.extend(rows)
        return real(rows, ncols, level)

    monkeypatch.setattr(classify.linalg, "nullspace", recording)
    systems = members = 0
    grids = [
        (12, 4, quantum_plane(zeta(3).lift(12))),
        (5, 5, quantum_affine(generic_affine_p(3, 5))),
    ]
    for L, m, pres in grids:
        t = len(pres.gens)
        lams = [root_of_unity(L, (L // m) * j) for j in range(1, m) if gcd(j, m) == 1]
        for exps in product(range(L), repeat=t):
            g = GrouplikeAction.diagonal([root_of_unity(L, e) for e in exps])
            G = g.matrix(L)
            _assert_no_zeros(G, "GrouplikeAction.matrix")
            for lam in lams:
                for unpruned in (False, True):
                    rows_in.clear()
                    _, basis = solve_skew_space(pres, g, lam, L, unpruned=unpruned)
                    _assert_no_zeros(rows_in, "solve_skew_space rows")
                    systems += bool(rows_in)
                members += len(basis)
                for x in basis:
                    X = x.matrix(L)
                    _assert_no_zeros(X, "SkewAction.matrix")
                    GX, XG = linalg.s_mul(G, X), linalg.s_mul(X, G)
                    for what, M in (
                        ("s_mul", GX),
                        ("s_mul", XG),
                        ("s_scale", linalg.s_scale(XG, lam)),
                        ("s_sub", linalg.s_sub(GX, linalg.s_scale(XG, lam))),
                        ("s_sub", linalg.s_sub(GX, XG)),
                        ("s_pow", linalg.s_pow(X, m, L)),
                        ("s_pow", linalg.s_pow(linalg.s_sub(G, X), m, L)),
                        ("s_rows", linalg.s_rows(linalg.s_sub(G, X), t)),
                    ):
                        _assert_no_zeros(M, what)
    assert systems > 0 and members > 0
