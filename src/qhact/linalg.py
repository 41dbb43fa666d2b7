"""Exact linear algebra over cyclotomic fields.

Every matrix is sparse and column-major: a list of {row: Cyc} dicts, one per
column, so column j holds the image of the j-th basis vector.  Elimination
takes sparse rows, {column: Cyc} dicts.  A sparse matrix or row never stores
a zero entry: every helper here drops the entries that cancel, and `rref`
relies on it, since `min(row)` must pick a nonzero lead.

Every operator identity P = c Q of the engine, checked for a known c or
solved for an unknown one, is read through `s_ratio`.

Kernels are computed by exact row reduction; ranks and dimensions are
exact integers by construction.  `rank_mod` is the one routine over F_p: it
takes rows of integers, reduces them mod p itself, and serves the skew
solver's block certificate.
"""

from __future__ import annotations

from .cyclotomic import Cyc

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


# perfbench/tracing.py resolves `linalg.d_mul` by name; it now names the one
# matrix product.
d_mul = s_mul


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


def s_pow(A, e, level=1):
    """A^e by repeated squaring; the identity only for e = 0."""
    if e == 0:
        return s_identity(len(A), level)
    out = None
    while True:
        if e & 1:
            out = A if out is None else s_mul(out, A)
        e >>= 1
        if not e:
            return out
        A = s_mul(A, A)


def s_is_zero(A):
    return all(not col for col in A)


class _Any:
    __slots__ = ()

    def __repr__(self):
        return "ANY"


# s_ratio's answer when P = Q = 0: every scalar works
ANY = _Any()


def s_ratio(P, Q):
    """The scalar c with P = c Q, for sparse column-major matrices of one
    shape: ANY when P = Q = 0, None when no scalar works.  c is read off the
    first stored entry of Q, the one division; every other entry is checked
    with a product."""
    j = next((j for j, col in enumerate(Q) if col), None)
    if j is None:
        return ANY if s_is_zero(P) else None
    i, q = next(iter(Q[j].items()))
    p = P[j].get(i)
    if p is None:
        return Cyc.zero(q.L) if s_is_zero(P) else None
    c = p / q
    for cp, cq in zip(P, Q):
        if cp.keys() != cq.keys() or any(v != c * cq[k] for k, v in cp.items()):
            return None
    return c


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


def rank_mod(rows, ncols, p):
    """Rank over F_p of sparse rows of integers ({column: int}, columns below
    ncols); the rows left once the rank is ncols are not read.  Entries that
    vanish mod p are dropped here, so the rows may hold them."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: v % p for j, v in row.items() if v % p}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = r
                break
            # r <- a r - c piv clears the lead without an inverse
            a, c = piv[lead], r[lead]
            r = {j: v * a % p for j, v in r.items()}
            for j, v in piv.items():
                nv = (r.get(j, 0) - c * v) % p
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
        if len(pivots) == ncols:
            break
    return len(pivots)


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
