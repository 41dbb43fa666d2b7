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


def test_dense_ops():
    z = zeta(4)
    ident = linalg.d_identity(2, 4)
    M = [[z, Cyc.zero(4)], [Cyc.zero(4), z.inv()]]
    assert linalg.d_eq(linalg.d_mul(M, ident), M)
    assert linalg.d_is_zero(linalg.d_sub(M, M))
    M4 = linalg.d_pow(M, 4)
    assert linalg.d_eq(M4, linalg.d_identity(2, 4))


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
