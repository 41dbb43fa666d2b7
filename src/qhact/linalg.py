"""Exact linear algebra over cyclotomic fields.

Two matrix flavors, both with Cyc entries:

* dense lists of lists for the small degree-one operator identities,
* sparse column-major dicts for graded-degree operators, whose kernels
  feed the fixed-ring computations.

Kernels are computed by exact row reduction; ranks and dimensions are
exact integers by construction.
"""

from __future__ import annotations

from .cyclotomic import Cyc, lcm_all

# dense ----------------------------------------------------------------------


def d_zero(n, m, level=1):
    z = Cyc.zero(level)
    return [[z for _ in range(m)] for _ in range(n)]


def d_identity(n, level=1):
    one, z = Cyc.one(level), Cyc.zero(level)
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def d_from_monomial(perm, scalars, level=None):
    """Matrix of u_k -> scalars[k] * u_{perm[k]} on the generator basis."""
    n = len(perm)
    if level is None:
        level = lcm_all(s.L for s in scalars)
    M = d_zero(n, n, level)
    for k in range(n):
        M[perm[k]][k] = scalars[k]
    return M


def d_mul(A, B):
    n, m, p = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(m):
            acc = None
            for k in range(p):
                a = Ai[k]
                if a.is_zero():
                    continue
                b = B[k][j]
                if b.is_zero():
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Cyc.zero(A[i][0].L))
        out.append(row)
    return out


def d_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def d_scale(A, c):
    return [[c * a for a in row] for row in A]


def d_pow(A, e):
    n = len(A)
    out = d_identity(n, A[0][0].L)
    base = A
    while e:
        if e & 1:
            out = d_mul(out, base)
        base = d_mul(base, base)
        e >>= 1
    return out


def d_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def d_is_zero(A):
    return all(a.is_zero() for row in A for a in row)


# sparse column-major ----------------------------------------------------------


def s_identity(n, level=1):
    one = Cyc.one(level)
    return [{j: one} for j in range(n)]


def s_mul(A, B):
    """Composite A o B, both column-major: col j of result = A applied to B[j]."""
    out = []
    for col in B:
        acc: dict[int, Cyc] = {}
        for k, c in col.items():
            for i, a in A[k].items():
                v = a * c
                cur = acc.get(i)
                nv = v if cur is None else cur + v
                if nv.is_zero():
                    acc.pop(i, None)
                else:
                    acc[i] = nv
        out.append(acc)
    return out


def s_sub(A, B):
    out = []
    for ca, cb in zip(A, B):
        acc = dict(ca)
        for i, b in cb.items():
            cur = acc.get(i)
            nv = -b if cur is None else cur - b
            if nv.is_zero():
                acc.pop(i, None)
            else:
                acc[i] = nv
        out.append(acc)
    return out


def s_scale(A, c):
    if c.is_zero():
        return [{} for _ in A]
    return [{i: c * v for i, v in col.items()} for col in A]


def s_is_zero(A):
    return all(not col for col in A)


def s_trace(A, level=1):
    acc = Cyc.zero(level)
    for j, col in enumerate(A):
        v = col.get(j)
        if v is not None:
            acc = acc + v
    return acc


def s_rows(A, nrows):
    """Row dicts of a column-major matrix."""
    rows = [dict() for _ in range(nrows)]
    for j, col in enumerate(A):
        for i, v in col.items():
            rows[i][j] = v
    return rows


# elimination -----------------------------------------------------------------


def _subtract(row, c, piv):
    """row -= c * piv in place, dropping entries that cancel."""
    for j, v in piv.items():
        cur = row.get(j)
        nv = -(c * v) if cur is None else cur - c * v
        if nv.is_zero():
            row.pop(j, None)
        else:
            row[j] = nv


def rref(rows):
    """Reduced row echelon pivots of sparse rows; returns {pivot_col: row}.

    Each pivot row is 1 at its lead and 0 on every other pivot column, so
    one pass over an incoming row's pivot columns reduces it fully.
    """
    pivots: dict[int, dict[int, Cyc]] = {}
    for row in rows:
        r = dict(row)
        for col in [c for c in r if c in pivots]:
            _subtract(r, r[col], pivots[col])
        if not r:
            continue
        lead = min(r)
        inv = r[lead].inv()
        r = {j: inv * v for j, v in r.items()}
        # keep existing pivot rows reduced against the new one
        for prow in pivots.values():
            c = prow.get(lead)
            if c is not None:
                _subtract(prow, c, r)
        pivots[lead] = r
    return pivots


def rank(rows):
    return len(rref(rows))


def nullspace(rows, ncols, level=1):
    """Basis of the right kernel of the sparse row system, one vector per
    free column, canonical (free coordinate set to 1)."""
    pivots = rref(rows)
    one = Cyc.one(level)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: one}
        for pcol, prow in pivots.items():
            c = prow.get(f)
            if c is not None:
                vec[pcol] = -c
        basis.append(vec)
    return basis
