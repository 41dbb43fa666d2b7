"""Constraint-driven search and classification of pointed Hopf actions.

The searches enumerate grouplike candidates (diagonal, monomial, or
rank-one with an optional transpose twist), solve the linear system that
the module-algebra axioms impose on the skew matrix, and report each
nonzero solution space as a found family.  Pruning uses only exact
necessary conditions (the degree-one commutation identity restricts the
skew support; relation equations are linear in the skew matrix), so a
pruned search is still exhaustive at its grid resolution; an unpruned
mode is kept as the ground-truth oracle for small cases.

The skew system has one builder, _SkewRows: normal-form tables made once
per (presentation, permutation, level), which hold each coefficient exactly
and mod a prime p = 1 (mod L).  Before the exact solver, the sweep passes
each candidate through two filters.  Whether g preserves the relations
depends only on its permutation and on the exponent differences within each
relation, so it is decided once per such key, exactly.  The system is then
read from the tables mod p and its rank taken over F_p (multimodular linear
algebra, W. Stein, Modular Forms: A Computational Approach, AMS 2007).  That
certificate is one-sided: full column rank mod p proves the kernel over
Q(zeta_L) is 0, and only then is the candidate skipped.  Every other
candidate goes to the exact solver, which reads the same tables exactly and
decides every reported family.

Compatibility of two rank-one actions solves the three pair relations
  x_i x_j = zeta x_j x_i,  g_i x_j = zeta x_j g_i,  g_j x_i = zeta^{-1} x_i g_j
exactly for zeta, reporting any free scalars that must vanish.  Maximum
rank is a clique search over the compatibility graph, where a clique is
rejected if the union of its forced-zero constraints silences some
member's skew matrix entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from math import gcd

from . import linalg
from .cyclotomic import (
    Cyc,
    InputError,
    as_q_power,
    fp_image,
    fp_root,
    lcm,
    lcm_all,
    root_of_unity,
    root_powers,
)
from .hopf import (
    AbelianGroup,
    ActionInstance,
    Character,
    GrouplikeAction,
    QLSData,
    SkewAction,
    TaftSpec,
    act_grouplike_raw,
    eta_from_entries,
    taft_instance,
    verify_module_algebra,
)
from .ncalg import (
    AFFINE,
    Presentation,
    first_weyl,
    nf_word,
    quantum_affine,
    quantum_matrix,
    quantum_plane,
)


# ---------------------------------------------------------------------------
# search configuration


# Affine family members whose skew matrix has a larger support are dropped.
SUPPORT_CAP = 4


@dataclass(frozen=True)
class SearchGrid:
    """Grid for an exhaustive search: ambient level and grouplike shape
    (diagonal, or monomial to add the nontrivial permutations)."""

    level: int
    g_shape: str = "diagonal"

    def __post_init__(self):
        if self.g_shape not in ("diagonal", "monomial"):
            raise InputError(f"unknown grouplike shape {self.g_shape!r}")


def primitive_lambdas(L, m):
    """The primitive m-th roots of unity at level L (m | L)."""
    return [root_of_unity(L, (L // m) * j) for j in range(1, m) if gcd(j, m) == 1]


def span_canonical(skews, t):
    """Canonical form of the span of skew matrices, as RREF row data."""
    rows = []
    for x in skews:
        row = {}
        for a in range(t):
            for k in range(t):
                e = x.eta[a][k]
                if not e.is_zero():
                    row[a * t + k] = e
        rows.append(row)
    pivots = linalg.rref(rows)
    return tuple(
        (piv, tuple((c, v.sort_key()) for c, v in sorted(pivots[piv].items())))
        for piv in sorted(pivots)
    )


def spans_equal(skews_a, skews_b, t):
    return span_canonical(skews_a, t) == span_canonical(skews_b, t)


# ---------------------------------------------------------------------------
# the core linear solver


def solve_skew_space(
    pres: Presentation, g: GrouplikeAction, lam: Cyc, level=None, unpruned=False
):
    """Kernel basis of the linear system a skew matrix must satisfy.

    Unknowns are the entries of eta.  Equations: the degree-one identity
    g x = lam x g, and the vanishing of x on every defining relation, as
    _SkewRows.system builds them from the tables of (pres, g.perm, level).
    A diagonal g restricts the unknowns to the positions that identity
    allows unless `unpruned` is set; otherwise every position is an unknown
    and the identity enters as rows.  Returns (positions, basis) where
    positions orders the unknowns and basis is a list of SkewAction kernel
    vectors (empty when only x = 0).
    """
    t = pres.ngens
    level = level or lcm_all([pres.level, lam.L] + [s.L for s in g.scalars])
    lam = lam.lift(level)
    alpha = g.lift(level).scalars
    one = Cyc.one(level)

    def chi(prefix):
        c = one
        for k in prefix:
            c = c * alpha[k]
        return c

    tables = _SkewRows.of(pres, g.perm, level)
    pruned = g.is_diagonal() and not unpruned
    positions, rows = tables.system(alpha, [lam * a for a in alpha], chi, tables.exact, pruned)
    if not positions:
        return [], []
    # the sparse contract: entries that cancel are not stored
    rows = [{c: v for c, v in row.items() if not v.is_zero()} for row in rows.values()]
    kernel = linalg.nullspace([row for row in rows if row], len(positions), level)
    basis = []
    for vec in kernel:
        entries = {positions[c]: v for c, v in vec.items()}
        basis.append(eta_from_entries(t, entries, level))
    return positions, basis


def solve_power_scalar(pres, g: GrouplikeAction, x: SkewAction, m, level):
    """gamma with X^m = gamma (G^m - I), or None when no scalar works."""
    X = x.matrix(level)
    Xm = linalg.s_pow(X, m, level)
    if linalg.s_is_zero(Xm):
        return Cyc.zero(level)
    D = linalg.s_sub(g.power(m).matrix(level), linalg.s_identity(len(X), level))
    return _scalar_ratio(Xm, D)


def preserves_relations(pres, g: GrouplikeAction, level):
    for rel in pres.relations():
        if not act_grouplike_raw(pres, g, {w: c.lift(level) for w, c in rel.items()}).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# grouplike candidate generators (exponent grids over mu_L)


# A candidate is (perm, exps): the grouplike u_k -> zeta_L^exps[k] u_perm[k].


def _grouplike(perm, exps, L):
    return GrouplikeAction(perm, [root_of_unity(L, e) for e in exps])


def _diag_candidates(t, L):
    perm = tuple(range(t))
    for exps in product(range(L), repeat=t):
        yield perm, exps


def _monomial_candidates(t, L, perms):
    for perm in map(tuple, perms):
        for exps in product(range(L), repeat=t):
            yield perm, exps


def _rank_one_candidates(N, L, tau=False):
    """Rank-one flat diagonals alpha_{ij} = zeta^(a_i + b_j); tau composes
    with the transpose permutation."""
    flat = list(range(N * N))
    if tau:
        perm = tuple((k % N) * N + k // N for k in flat)
    else:
        perm = tuple(flat)
    for a in product(range(L), repeat=N):
        for b in product(range(L), repeat=N - 1):
            bb = b + (0,)
            yield perm, tuple((a[i] + bb[j]) % L for i in range(N) for j in range(N))


# ---------------------------------------------------------------------------
# the sweep's prefilter: an exact preservation memo and a zero-kernel
# certificate mod p


class _PreservationMemo:
    """Whether the candidate (perm, exps) preserves the relations, decided by
    preserves_relations once per key.  g . r = zeta^E(w0) sum_w c_w
    zeta^(E(w) - E(w0)) nf(perm w), with E(w) the exponent sum of the word
    w, so the verdict depends on g only through perm and the differences
    E(w) - E(w0) mod L within each relation."""

    def __init__(self, pres, L):
        self.pres = pres
        self.L = L
        self.words = [tuple(rel) for rel in pres.relations()]
        self.verdicts = {}

    def __call__(self, perm, exps):
        L = self.L
        diffs = []
        for words in self.words:
            sums = [sum(map(exps.__getitem__, w)) for w in words]
            diffs.append(tuple((e - sums[0]) % L for e in sums[1:]))
        key = (perm, tuple(diffs))
        ok = self.verdicts.get(key)
        if ok is None:
            ok = self.verdicts[key] = preserves_relations(self.pres, _grouplike(perm, exps, L), L)
        return ok


class _SkewRows:
    """The system solve_skew_space sets up, for every grouplike with the
    permutation perm at once, at level L.

    x kills the relation r at the unit eta (a, k) through the twisted Leibniz
    rule: the sum, over the places of k in the words w of r, of
    c_w chi_g(prefix) nf(perm(prefix) a suffix).  Only chi_g(prefix), the
    product of g's scalars over the prefix, depends on g, so the normal forms
    are tabled once: exact[(a, k)] lists (prefix, [(row, coefficient)]), one
    row per (relation, normal word) as labels[row] names it, and fp is the
    same table mod p (fp_root(L)).  fp is None when p divides a
    coefficient's denominator: that table certifies nothing.  The terms of
    one position are grouped by prefix, so each character is taken once."""

    def __init__(self, pres, perm, L):
        t = pres.ngens
        self.t, self.L, self.perm = t, L, perm
        self.p, omega = fp_root(L)
        self.powers = [pow(omega, e, self.p) for e in range(L)]
        self.diagonal = perm == tuple(range(t))
        merged: dict[tuple, dict] = {}
        rows: dict[tuple, int] = {}
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
            by_prefix: dict[tuple, list] = {}
            for (row, prefix), v in acc.items():
                if not v.is_zero():
                    by_prefix.setdefault(prefix, []).append((row, v.lift(L)))
            self.exact[pos] = list(by_prefix.items())
        self.fp = {}
        for pos, by_prefix in self.exact.items():
            self.fp[pos] = [
                (prefix, [(row, fp_image(v, self.p, omega, L)) for row, v in terms])
                for prefix, terms in by_prefix
            ]
            if any(v is None for _, terms in self.fp[pos] for _, v in terms):
                self.fp = None
                break

    @classmethod
    def of(cls, pres, perm, L):
        """The tables of (pres, perm, L), built once per presentation."""
        tables = pres._skew_tables.get((perm, L))
        if tables is None:
            tables = pres._skew_tables[perm, L] = cls(pres, perm, L)
        return tables

    def system(self, alpha, lam_alpha, chi, table, pruned):
        """(positions, rows) of the skew system of the grouplike u_k ->
        alpha[k] u_perm[k] at lam, with lam_alpha[k] = lam alpha[k] and
        chi(prefix) the product of alpha over the prefix, all in the field of
        table (exact or fp).  A pruned diagonal keeps the positions (a, k)
        with alpha[a] = lam alpha[k], the support g x = lam x g allows;
        otherwise every position is an unknown and that identity enters
        entrywise as rows.  rows maps a row id to {column: entry}: the
        relation rows have the ids of labels, the identity's rows the ids
        from len(labels) on.  Entries may vanish."""
        t = self.t
        rows: dict[int, dict] = {}
        if pruned:
            positions = [(a, k) for a in range(t) for k in range(t) if alpha[a] == lam_alpha[k]]
        else:
            positions = [(a, k) for a in range(t) for k in range(t)]
            perm, base = self.perm, len(self.labels)
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
            for prefix, terms in table.get(pos, ()):
                x = chi(prefix)
                for row, c in terms:
                    entries = rows.setdefault(row, {})
                    entries[col] = c * x if col not in entries else entries[col] + c * x
        return positions, rows

    def zero_kernel(self, exps, ell):
        """True when the system of (perm, exps) at lam = zeta_L^ell has full
        column rank mod p.  A maximal minor that is nonzero mod p is nonzero
        over Q(zeta_L), so the exact kernel is 0.  False certifies nothing."""
        L, pw = self.L, self.powers
        alpha = [pw[e] for e in exps]
        lam_alpha = [pw[(ell + e) % L] for e in exps]

        def chi(prefix):
            return pw[sum(map(exps.__getitem__, prefix)) % L]

        positions, rows = self.system(alpha, lam_alpha, chi, self.fp or {}, self.diagonal)
        if self.fp is None or not positions:
            return not positions
        return linalg.rank_mod(list(rows.values()), len(positions), self.p) == len(positions)


# ---------------------------------------------------------------------------
# family classification tags


def _affine_tag(fam):
    supports = [x.support() for x in fam.basis]
    union = set().union(*supports) if supports else set()
    if len(union) == 1 and fam.dim == 1:
        (a, k) = next(iter(union))
        return f"pair({a + 1}<-{k + 1})"
    if len(union) == 2 and fam.dim == 2:
        # two linked arrows i <- j <- k carrying independent scalars
        targets = {i for i, _ in union}
        sources = {j for _, j in union}
        link = targets & sources
        if len(link) == 1:
            j = next(iter(link))
            heads = [i for i, s in union if s == j]
            tails = [s for i, s in union if i == j]
            if len(heads) == 1 and len(tails) == 1 and heads[0] != tails[0]:
                return f"chain({heads[0] + 1}<-{j + 1}<-{tails[0] + 1})"
    if len(union) == 3 and fam.dim == 3:
        targets = {i for i, _ in union}
        sources = {j for _, j in union}
        if targets == sources and len(targets) == 3:
            return "cycle(" + ",".join(str(i + 1) for i in sorted(targets)) + ")"
    return "unclassified"


# ---------------------------------------------------------------------------
# enumerations (spec operations)


def _sweep(pres, lams, cands, level, keep):
    """Families over every lambda and every relation-preserving grouplike
    candidate (perm, exps) at this level: the skew solutions x with
    keep(g, x), as parts p0, p1, ..., sorted by (lambda, g).  A candidate
    whose system _SkewRows certifies to have kernel 0 is skipped; every
    other one goes to solve_skew_space."""
    preserves = _PreservationMemo(pres, level)
    zeta_L = root_of_unity(level, 1)
    ells = [as_q_power(lam, zeta_L) for lam in lams]  # lam = zeta_L^ell, or None
    found = []
    for perm, exps in cands:
        if not preserves(perm, exps):
            continue
        tables = _SkewRows.of(pres, perm, level)
        for lam, ell in zip(lams, ells):
            if ell is not None and tables.zero_kernel(exps, ell):
                continue
            g = _grouplike(perm, exps, level)
            _, basis = solve_skew_space(pres, g, lam, level)
            kept = [x for x in basis if keep(g, x)]
            if kept:
                parts = tuple((f"p{i}", x) for i, x in enumerate(kept))
                found.append(ParamAction(pres, g, lam, parts))
    found.sort(key=lambda f: (f.lam.sort_key(), f.g.key()))
    return found


def _gamma_zero(pres, m, level):
    """The keep test of the gamma = 0 searches: X^m = 0."""
    zero = Cyc.zero(level)
    return lambda g, x: solve_power_scalar(pres, g, x, m, level) == zero


def enumerate_taft_qplane(k, m, grid: SearchGrid | None = None, algebra="plane"):
    """Unpruned census of T_n(lam, m, 0) actions on the quantum plane or the
    first quantum Weyl algebra, n = lcm(k, m), mu = zeta_k.

    Enumerates every diagonal and anti-diagonal grouplike with entries in
    mu_n and solves for the skew matrix; keeps the inner-faithful actions.
    On the Weyl algebra the generator order is (v, u).
    """
    if k <= 1 or m < 3:
        raise InputError("census requires ord(mu) > 1 and m >= 3")
    n = lcm(k, m)
    grid = grid or SearchGrid(level=n)
    if grid.level % n:
        raise InputError("grid level must cover lcm(k, m)")
    L = grid.level
    mu = root_of_unity(L, L // k)
    if algebra == "plane":
        pres = quantum_plane(mu)
        u_idx, v_idx = 0, 1
    elif algebra == "weyl":
        pres = first_weyl(mu)
        v_idx, u_idx = 0, 1
    else:
        raise InputError(f"unknown algebra {algebra!r}")
    cands = list(_diag_candidates(2, L)) + list(_monomial_candidates(2, L, [(1, 0)]))
    found = _sweep(pres, primitive_lambdas(L, m), cands, L, _gamma_zero(pres, m, L))
    # inner faithfulness for the rank-one case: x != 0, ord(g) = n
    found = [fam for fam in found if fam.g.order() == n]
    for fam in found:
        fam.tag = _plane_tag(fam, mu, u_idx, v_idx)
    return found


def _plane_tag(fam, mu, u_idx, v_idx):
    g, lam = fam.g, fam.lam
    if not g.is_diagonal() or fam.dim != 1:
        return "unclassified"
    support = fam.basis[0].support()
    a_g = g.scalars[u_idx] == mu and g.scalars[v_idx] == lam.inv() * mu
    b_g = g.scalars[u_idx] == (lam * mu).inv() and g.scalars[v_idx] == mu.inv()
    if a_g and support == {(u_idx, v_idx)}:
        return "a"
    if b_g and support == {(v_idx, u_idx)}:
        return "b"
    return "unclassified"


def enumerate_taft_affine(p, m, grid: SearchGrid | None = None):
    """All T_n(lam, m, gamma) actions on k_p[u_1..u_t] over the grid.

    Diagonal grouplikes by default; the monomial shape constraint widens the
    sweep to nontrivial permutations (used to confirm none admit actions).
    Found families are tagged pair / chain / cycle by their skew support.
    """
    t = len(p)
    if t < 3 or m < 3:
        raise InputError("affine search requires t >= 3 and m >= 3")
    pres = quantum_affine(p)
    for i in range(t):
        for j in range(t):
            if i != j:
                order = pres.p[i][j].mult_order()
                if order is None or order < 3:
                    raise InputError("ord(p_ij) must be at least 3")
    grid = grid or SearchGrid(level=lcm(pres.level, m))
    L = lcm(grid.level, lcm(pres.level, m))
    if grid.g_shape == "diagonal":
        cands = list(_diag_candidates(t, L))
    else:
        cands = list(_monomial_candidates(t, L, list(permutations(range(t)))))

    def keep(g, x):
        return (
            len(x.support()) <= SUPPORT_CAP
            and solve_power_scalar(pres, g, x, m, L) is not None
        )

    found = _sweep(pres, primitive_lambdas(L, m), cands, L, keep)
    for fam in found:
        fam.tag = _affine_tag(fam)
    return found


def enumerate_taft_matrix(N, q, lam, grid: SearchGrid | None = None, include_tau=True):
    """All T_n(lam, m, 0) actions on O_q(M_N) with the grouplike running over
    rank-one diagonals in mu_ord(q), composed with the transpose as well
    when include_tau is set.  Only the grid's level is read."""
    n = q.mult_order()
    if n is None or n < 3:
        raise InputError("q must be a root of unity of order >= 3 (and != +-1)")
    m = lam.mult_order()
    if m is None or m < 3:
        raise InputError("lambda must be a root of unity of order >= 3")
    grid = grid or SearchGrid(level=lcm(n, m))
    L = lcm(grid.level, lcm(n, m))
    pres = quantum_matrix(N, q.lift(L), level=L)
    branches = [False, True] if include_tau else [False]
    cands = [c for tau in branches for c in _rank_one_candidates(N, L, tau=tau)]
    # ord(lam) divides L, so lam is a power of zeta_L whatever level it was written at
    lam = root_of_unity(L, as_q_power(lam, root_of_unity(L, 1)) % L)
    found = _sweep(pres, [lam], cands, L, _gamma_zero(pres, m, L))
    for fam in found:
        fam.tag = match_matrix_family(N, q, fam)
    return found


def verify_family(fam: ParamAction, m, n=None):
    """Run the full module-algebra verification on family representatives.

    Returns the list of verified instances (one per representative).
    """
    level = fam.g.scalars[0].L
    out = []
    for x in fam.members():
        gamma = solve_power_scalar(fam.pres, fam.g, x, m, level)
        if gamma is None:
            raise InputError("family member admits no power scalar")
        order = fam.g.order()
        nn = n or lcm(order, m)
        spec = TaftSpec(nn, m, fam.lam, gamma)
        inst = taft_instance(fam.pres, spec, fam.g, x)
        report = verify_module_algebra(inst)
        if not report.ok:
            raise InputError(f"family member failed verification: {report.violations}")
        out.append(inst)
    return out


# ---------------------------------------------------------------------------
# template actions (parameterized families used for pair compatibility)


@dataclass
class ParamAction:
    """A rank-one action family at a fixed (g, lambda): the skew matrices
    spanned by labelled parts, each carrying a free scalar.  Templates name
    their parts; the searches label them p0, p1, ..."""

    pres: Presentation
    g: GrouplikeAction
    lam: Cyc
    parts: tuple[tuple[str, SkewAction], ...]
    tag: str = ""

    @property
    def m(self):
        return self.lam.mult_order()

    @property
    def basis(self):
        return tuple(part for _, part in self.parts)

    @property
    def dim(self):
        return len(self.parts)

    def members(self):
        """Representative skew matrices: each part and, when there are
        several, their sum."""
        out = list(self.basis)
        if len(self.parts) > 1:
            out.append(self.skew())
        return out

    def skew(self, coeffs=None):
        t = self.pres.ngens
        level = self.g.scalars[0].L
        acc = [[Cyc.zero(level) for _ in range(t)] for _ in range(t)]
        for label, part in self.parts:
            c = Cyc.one(level) if coeffs is None else coeffs.get(label, Cyc.zero(level))
            for a in range(t):
                for k in range(t):
                    if not part.eta[a][k].is_zero():
                        acc[a][k] = acc[a][k] + c * part.eta[a][k]
        return SkewAction(acc)

    def instance(self, coeffs=None, n=None):
        m = self.m
        nn = n or lcm(self.g.order(), m)
        spec = TaftSpec(nn, m, self.lam)
        return taft_instance(self.pres, spec, self.g, self.skew(coeffs))


def m2_family(q, row) -> ParamAction:
    """The eight action families on O_q(M_2): (lambda, g, skew parts).

    Rows 3 and 6 carry two independent scalars (delta, epsilon); the rest a
    single delta.  Flat generator order is (A, B, C, D)."""
    L = q.L
    one = Cyc.one(L)
    qi = q.inv()
    pres = quantum_matrix(2, q, level=L)
    data = {
        1: (q * q, (q, qi, q, qi), (("delta", {(0, 1): one, (2, 3): one}),)),
        2: (q * q, (q, q, qi, qi), (("delta", {(0, 2): one, (1, 3): one}),)),
        3: (
            q * q,
            (q**-3, qi, qi, q),
            (("delta", {(1, 0): one}), ("epsilon", {(2, 0): one})),
        ),
        4: (qi * qi, (q, qi, q, qi), (("delta", {(1, 0): one, (3, 2): one}),)),
        5: (qi * qi, (q, q, qi, qi), (("delta", {(2, 0): one, (3, 1): one}),)),
        6: (
            qi * qi,
            (qi, q, q, q**3),
            (("delta", {(1, 3): one}), ("epsilon", {(2, 3): one})),
        ),
        7: (q**4, (q**-4, qi * qi, qi * qi, one), (("delta", {(3, 0): one}),)),
        8: (q**-4, (one, q * q, q * q, q**4), (("delta", {(0, 3): one}),)),
    }
    if row not in data:
        raise InputError(f"unknown M2 family {row!r}")
    lam, alpha, parts = data[row]
    g = GrouplikeAction.diagonal(alpha)
    parts = tuple((lab, eta_from_entries(4, ent, L)) for lab, ent in parts)
    return ParamAction(pres, g, lam, parts, f"r{row}")


def mn_family(N, q, kind, a=None, b=None) -> ParamAction:
    """The eight action families on O_q(M_N), N >= 3: column/row shifts
    (kinds 1/2/5/6, parameterized by the shifted column b or row a) and the
    four corner moves (kinds 3/4/7/8)."""
    if N < 3:
        raise InputError("mn_family needs N >= 3; use m2_family for N = 2")
    L = q.L
    one = Cyc.one(L)
    qi = q.inv()
    pres = quantum_matrix(N, q, level=L)

    def flat(i, j):
        return i * N + j

    def rank_one(avec, bvec):
        return GrouplikeAction.diagonal(
            [avec[i] * bvec[j] for i in range(N) for j in range(N)]
        )

    avec = [one] * N
    bvec = [one] * N
    if kind == 1:
        if b is None or not (2 <= b <= N):
            raise InputError("family 1 needs 2 <= b <= N")
        bvec[b - 2], bvec[b - 1] = q, qi
        lam = q * q
        entries = {(flat(i, b - 2), flat(i, b - 1)): one for i in range(N)}
        tag = f"f1[b={b}]"
    elif kind == 2:
        if a is None or not (2 <= a <= N):
            raise InputError("family 2 needs 2 <= a <= N")
        avec[a - 2], avec[a - 1] = q, qi
        lam = q * q
        entries = {(flat(a - 2, j), flat(a - 1, j)): one for j in range(N)}
        tag = f"f2[a={a}]"
    elif kind == 5:
        if b is None or not (1 <= b <= N - 1):
            raise InputError("family 5 needs 1 <= b <= N-1")
        bvec[b - 1], bvec[b] = q, qi
        lam = qi * qi
        entries = {(flat(i, b), flat(i, b - 1)): one for i in range(N)}
        tag = f"f5[b={b}]"
    elif kind == 6:
        if a is None or not (1 <= a <= N - 1):
            raise InputError("family 6 needs 1 <= a <= N-1")
        avec[a - 1], avec[a] = q, qi
        lam = qi * qi
        entries = {(flat(a, j), flat(a - 1, j)): one for j in range(N)}
        tag = f"f6[a={a}]"
    elif kind == 3:
        avec = [qi * qi] + [one] * (N - 1)
        bvec = [qi] + [one] * (N - 2) + [q]
        lam = q * q
        entries = {(flat(0, N - 1), flat(0, 0)): one}
        tag = "f3"
    elif kind == 4:
        avec = [qi] + [one] * (N - 2) + [q]
        bvec = [qi * qi] + [one] * (N - 1)
        lam = q * q
        entries = {(flat(N - 1, 0), flat(0, 0)): one}
        tag = "f4"
    elif kind == 7:
        avec = [qi] + [one] * (N - 2) + [q]
        bvec = [one] * (N - 1) + [q * q]
        lam = qi * qi
        entries = {(flat(0, N - 1), flat(N - 1, N - 1)): one}
        tag = "f7"
    elif kind == 8:
        avec = [one] * (N - 1) + [q * q]
        bvec = [qi] + [one] * (N - 2) + [q]
        lam = qi * qi
        entries = {(flat(N - 1, 0), flat(N - 1, N - 1)): one}
        tag = "f8"
    else:
        raise InputError(f"unknown matrix family {kind!r}")
    g = rank_one(avec, bvec)
    parts = (("delta", eta_from_entries(N * N, entries, L)),)
    return ParamAction(pres, g, lam, parts, tag)


def matrix_family(N, q, kind, a=None, b=None) -> ParamAction:
    if N == 2:
        return m2_family(q, kind)
    return mn_family(N, q, kind, a=a, b=b)


def m2_order3_family(q, which) -> ParamAction:
    """The two extra families at ord(q) = 3: a corner move plus a two-scalar
    spread, with three independent parts."""
    if q.mult_order() != 3:
        raise InputError("these families need ord(q) = 3")
    L = q.L
    one = Cyc.one(L)
    pres = quantum_matrix(2, q, level=L)
    qi = q.inv()
    if which == 1:
        g = GrouplikeAction.diagonal([one, qi, qi, q])
        parts = (
            ("gamma", eta_from_entries(4, {(0, 3): one}, L)),
            ("delta", eta_from_entries(4, {(1, 0): one}, L)),
            ("epsilon", eta_from_entries(4, {(2, 0): one}, L)),
        )
        return ParamAction(pres, g, q * q, parts, "x1")
    if which == 2:
        g = GrouplikeAction.diagonal([qi, q, q, one])
        parts = (
            ("gamma", eta_from_entries(4, {(3, 0): one}, L)),
            ("delta", eta_from_entries(4, {(1, 3): one}, L)),
            ("epsilon", eta_from_entries(4, {(2, 3): one}, L)),
        )
        return ParamAction(pres, g, qi * qi, parts, "x2")
    raise InputError("which must be 1 or 2")


def plane_family(mu, lam, kind, algebra="plane") -> ParamAction:
    """Type (a)/(b) rank-one families on the plane or first Weyl algebra."""
    L = lcm(mu.L, lam.L)
    mu, lam = mu.lift(L), lam.lift(L)
    one = Cyc.one(L)
    if algebra == "plane":
        pres = quantum_plane(mu)
        u_idx, v_idx = 0, 1
    else:
        pres = first_weyl(mu)
        v_idx, u_idx = 0, 1
    if kind == "a":
        scal = [None, None]
        scal[u_idx], scal[v_idx] = mu, lam.inv() * mu
        g = GrouplikeAction.diagonal(scal)
        parts = (("eta", eta_from_entries(2, {(u_idx, v_idx): one}, L)),)
    elif kind == "b":
        scal = [None, None]
        scal[u_idx], scal[v_idx] = (lam * mu).inv(), mu.inv()
        g = GrouplikeAction.diagonal(scal)
        parts = (("eta", eta_from_entries(2, {(v_idx, u_idx): one}, L)),)
    else:
        raise InputError("kind must be 'a' or 'b'")
    return ParamAction(pres, g, lam, parts, f"plane-{kind}")


def affine_pair_family(pres: Presentation, lam, i, j) -> ParamAction:
    """Trivial extension to k_p[u_1..u_t] of the plane action with x: u_j -> u_i
    (0-based indices); the other grouplike scalars are forced to p_ik p_kj."""
    if pres.family != AFFINE:
        raise InputError("needs a quantum affine presentation")
    t = pres.ngens
    L = lcm(pres.level, lam.L)
    lam = lam.lift(L)
    one = Cyc.one(L)
    p = [[e.lift(L) for e in row] for row in pres.p]
    scal = [None] * t
    scal[i] = p[i][j]
    scal[j] = lam.inv() * p[i][j]
    for k in range(t):
        if k != i and k != j:
            scal[k] = p[i][k] * p[k][j]
    g = GrouplikeAction.diagonal(scal)
    parts = (("eta", eta_from_entries(t, {(i, j): one}, L)),)
    return ParamAction(pres, g, lam, parts, f"pair({i + 1}<-{j + 1})")


def all_matrix_families(N, q):
    """Every printed template on O_q(M_N) at the given q (a/b ranges filled)."""
    out = []
    if N == 2:
        out = [m2_family(q, row) for row in range(1, 9)]
        if q.mult_order() == 3:
            out.append(m2_order3_family(q, 1))
            out.append(m2_order3_family(q, 2))
        return out
    for b in range(2, N + 1):
        out.append(mn_family(N, q, 1, b=b))
    for a in range(2, N + 1):
        out.append(mn_family(N, q, 2, a=a))
    out.append(mn_family(N, q, 3))
    out.append(mn_family(N, q, 4))
    for b in range(1, N):
        out.append(mn_family(N, q, 5, b=b))
    for a in range(1, N):
        out.append(mn_family(N, q, 6, a=a))
    out.append(mn_family(N, q, 7))
    out.append(mn_family(N, q, 8))
    return out


def match_matrix_family(N, q, fam: ParamAction):
    """Tag a found matrix family against the printed templates."""
    t = N * N
    for cand in all_matrix_families(N, q):
        if cand.lam != fam.lam or not (cand.g == fam.g):
            continue
        if spans_equal(fam.basis, cand.basis, t):
            return cand.tag
    return "unclassified"


# ---------------------------------------------------------------------------
# pair compatibility


@dataclass
class CompatResult:
    compatible: bool
    zeta: Cyc | None = None
    forced_zero: frozenset = frozenset()
    required_unity: int | None = None

    def to_json(self, q=None):
        obj = {"compatible": self.compatible}
        if self.compatible:
            obj["zeta"] = self.zeta.to_json()
            if q is not None:
                e = as_q_power(self.zeta, q)
                if e is not None:
                    obj["zeta_as_q_power"] = e
            obj["forced_zero"] = sorted(f"{side}:{label}" for side, label in self.forced_zero)
        elif self.required_unity is not None:
            obj["required_unity"] = self.required_unity
        return obj


def _scalar_ratio(P, Q):
    """r with P = r Q for sparse matrices of the same support, or None."""
    r = None
    for cp, cq in zip(P, Q):
        if cp.keys() != cq.keys():
            return None
        for i, v in cp.items():
            cand = v / cq[i]
            if r is None:
                r = cand
            elif r != cand:
                return None
    return r


def compatibility(ai: ParamAction, aj: ParamAction, q=None) -> CompatResult:
    """Solve x_i x_j = zeta x_j x_i, g_i x_j = zeta x_j g_i, g_j x_i = zeta^{-1} x_i g_j.

    Returns the unique zeta (= chi_j(g_i)) and the free scalars forced to
    zero, or incompatible; when incompatible because two exact candidates
    differ by a power of q, that exponent is reported as required_unity.
    """
    if not (ai.pres == aj.pres):
        raise InputError("actions must live on the same presentation")
    level = lcm_all(
        [ai.g.scalars[0].L, aj.g.scalars[0].L, ai.lam.L, aj.lam.L]
    )
    Gi = ai.g.lift(level).matrix(level)
    Gj = aj.g.lift(level).matrix(level)
    parts_i = [(lab, part.matrix(level)) for lab, part in ai.parts]
    parts_j = [(lab, part.matrix(level)) for lab, part in aj.parts]

    # candidate zeta per part, from the grouplike equations
    zeta_j, dead = {}, set()
    for lab, B in parts_j:
        r = _scalar_ratio(linalg.s_mul(Gi, B), linalg.s_mul(B, Gi))
        if r is None:
            dead.add(("j", lab))
        else:
            zeta_j[lab] = r
    zeta_i = {}
    for lab, B in parts_i:
        r = _scalar_ratio(linalg.s_mul(Gj, B), linalg.s_mul(B, Gj))
        if r is None:
            dead.add(("i", lab))
        else:
            zeta_i[lab] = r.inv()

    # product conditions per part pair: None (no constraint), Cyc, or "conflict"
    prod_req = {}
    for lab_i, Bi in parts_i:
        if ("i", lab_i) in dead:
            continue
        for lab_j, Bj in parts_j:
            if ("j", lab_j) in dead:
                continue
            P = linalg.s_mul(Bi, Bj)
            Q = linalg.s_mul(Bj, Bi)
            pz, qz = linalg.s_is_zero(P), linalg.s_is_zero(Q)
            if pz and qz:
                prod_req[(lab_i, lab_j)] = None
            elif pz or qz:
                prod_req[(lab_i, lab_j)] = "conflict"
            else:
                r = _scalar_ratio(P, Q)
                prod_req[(lab_i, lab_j)] = r if r is not None else "conflict"

    labels_i = [lab for lab, _ in parts_i if ("i", lab) not in dead]
    labels_j = [lab for lab, _ in parts_j if ("j", lab) not in dead]

    def subsets(labels):
        out = []
        for mask in range(1, 1 << len(labels)):
            out.append([labels[k] for k in range(len(labels)) if mask >> k & 1])
        out.sort(key=lambda s: (-len(s), s))
        return out

    if labels_i and labels_j:
        for Si in subsets(labels_i):
            for Sj in subsets(labels_j):
                vals = [zeta_i[lab] for lab in Si] + [zeta_j[lab] for lab in Sj]
                zeta = vals[0]
                if any(v != zeta for v in vals[1:]):
                    continue
                ok = True
                for li in Si:
                    for lj in Sj:
                        req = prod_req[(li, lj)]
                        if req == "conflict" or (req is not None and req != zeta):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                forced = set(dead)
                forced.update(("i", lab) for lab in labels_i if lab not in Si)
                forced.update(("j", lab) for lab in labels_j if lab not in Sj)
                return CompatResult(True, zeta, frozenset(forced))

    required = None
    if q is not None:
        cands = []
        for v in list(zeta_i.values()) + list(zeta_j.values()):
            if all(v != c for c in cands):
                cands.append(v)
        if len(cands) >= 2:
            e = as_q_power(cands[0] / cands[1], q)
            if e:
                required = abs(e)
    return CompatResult(False, required_unity=required)


# ---------------------------------------------------------------------------
# maximum rank


@dataclass
class MaxRankResult:
    theta: int
    clique: tuple[int, ...]
    witness: ActionInstance | None
    zeta: dict = field(default_factory=dict)


def max_rank(actions: list[ParamAction], q=None) -> MaxRankResult:
    """Maximum size of a pairwise-compatible set whose forced-zero constraints
    leave every member's skew matrix nonzero, plus a verified witness."""
    n = len(actions)
    compat = {}
    for i in range(n):
        for j in range(i + 1, n):
            compat[(i, j)] = compatibility(actions[i], actions[j], q)

    def valid(clique):
        kills = {v: set() for v in clique}
        for x in range(len(clique)):
            for y in range(x + 1, len(clique)):
                i, j = clique[x], clique[y]
                res = compat[(i, j)]
                for side, lab in res.forced_zero:
                    kills[i if side == "i" else j].add(lab)
        for v in clique:
            alive = [lab for lab, _ in actions[v].parts if lab not in kills[v]]
            if not alive:
                return None
        return kills

    best = (0, (), None)
    cliques = [((), list(range(n)))]
    while cliques:
        clique, cands = cliques.pop()
        kills = valid(clique)
        if kills is not None and len(clique) > best[0]:
            best = (len(clique), clique, kills)
        for idx, v in enumerate(cands):
            if all(compat[tuple(sorted((v, u)))].compatible for u in clique):
                rest = [u for u in cands[idx + 1 :]]
                cliques.append((clique + (v,), rest))

    theta, clique, kills = best
    witness = None
    zeta_table = {}
    if theta:
        for x in range(theta):
            for y in range(x + 1, theta):
                i, j = clique[x], clique[y]
                zeta_table[(i, j)] = compat[(i, j)].zeta
        witness = assemble_bosonization(actions, clique, kills, zeta_table)
    return MaxRankResult(theta, clique, witness, zeta_table)


def assemble_bosonization(actions, clique, kills, zeta_table) -> ActionInstance:
    """Build the bosonization instance of a compatible clique: G is a product
    of cyclic groups, g_i the i-th generator, chi read off the zeta table."""
    theta = len(clique)
    members = [actions[v] for v in clique]
    level = lcm_all(
        [a.g.scalars[0].L for a in members] + [a.lam.L for a in members]
    )

    def zeta(i, j):
        # chi_j(g_i) for clique positions i != j
        vi, vj = clique[i], clique[j]
        if (vi, vj) in zeta_table:
            return zeta_table[(vi, vj)].lift(level)
        return zeta_table[(vj, vi)].lift(level).inv()

    orders = []
    for i, act in enumerate(members):
        vals = [act.lam.lift(level)] + [zeta(i, j) for j in range(theta) if j != i]
        n_i = act.g.order()
        for v in vals:
            n_i = lcm(n_i, v.mult_order())
        orders.append(n_i)
    group = AbelianGroup(tuple(orders))
    gs = []
    for i in range(theta):
        e = [0] * theta
        e[i] = 1
        gs.append(tuple(e))
    chis = []
    for j, act in enumerate(members):
        exps = []
        for i in range(theta):
            val = act.lam.lift(level) if i == j else zeta(i, j)
            e = root_powers(orders[i])(val)
            if e is None:
                raise InputError("zeta value does not lie in the factor's roots of unity")
            exps.append(e % orders[i])
        chis.append(Character(group, tuple(exps)))
    qls = QLSData(group, gs, chis)
    gen_actions = [a.g.lift(level) for a in members]
    skews = []
    for v, act in zip(clique, members):
        coeffs = {
            lab: Cyc.one(level)
            for lab, _ in act.parts
            if lab not in kills[v]
        }
        skews.append(act.skew(coeffs).lift(level))
    return ActionInstance(members[0].pres, qls, gen_actions, skews)


# ---------------------------------------------------------------------------
# named witness constructions


def _patch(acts, q=None) -> ActionInstance:
    """The bosonization of actions that are pairwise compatible with no free
    scalar forced to zero (raises otherwise)."""
    theta = len(acts)
    zeta_table = {}
    for i in range(theta):
        for j in range(i + 1, theta):
            res = compatibility(acts[i], acts[j], q)
            if not res.compatible or res.forced_zero:
                raise InputError(f"components {i},{j} unexpectedly incompatible")
            zeta_table[(i, j)] = res.zeta
    kills = {i: set() for i in range(theta)}
    return assemble_bosonization(acts, tuple(range(theta)), kills, zeta_table)


def example_m2_rank3(q) -> ActionInstance:
    """The rank-3 bosonization acting on O_q(M_2): components of types 1, 2,
    and 8, patched over G = (Z_n)^3 with the compatibility character table."""
    return _patch([m2_family(q, 1), m2_family(q, 2), m2_family(q, 8)], q)


def matrix_max_rank_components(N, q):
    """The 2N-2 components of the maximal patched action on O_q(M_N):
    interleaved down-shifts (types 1/2) and up-shifts (types 5/6) with
    spacing-2 rows and columns."""
    if N < 3:
        raise InputError("needs N >= 3")
    return (
        [mn_family(N, q, 1, b=b) for b in range(2, N + 1, 2)]
        + [mn_family(N, q, 2, a=a) for a in range(2, N + 1, 2)]
        + [mn_family(N, q, 5, b=b) for b in range(2, N, 2)]
        + [mn_family(N, q, 6, a=a) for a in range(2, N, 2)]
    )


def example_matrix_max_rank(N, q) -> ActionInstance:
    """The verified rank-(2N-2) patched action on O_q(M_N)."""
    return _patch(matrix_max_rank_components(N, q), q)


def affine_sharp_components(pres: Presentation, lams=None):
    """2(t-1) pairwise-compatible trivial extensions on k_p[u_1..u_t]:
    for each k >= 2 a pair of actions with x: u_k -> u_1 and inverse lambdas."""
    if pres.family != AFFINE:
        raise InputError("needs a quantum affine presentation")
    t = pres.ngens
    if lams is None:
        lam = root_of_unity(pres.level, pres.level // pres.p[0][1].mult_order())
        lams = [lam] * (t - 1)
    acts = []
    for k in range(1, t):
        acts.append(affine_pair_family(pres, lams[k - 1], 0, k))
    for k in range(1, t):
        acts.append(affine_pair_family(pres, lams[k - 1].inv(), 0, k))
    return acts


def example_affine_sharp(pres: Presentation, lams=None) -> ActionInstance:
    return _patch(affine_sharp_components(pres, lams))


def generic_affine_p(t, order):
    """A multiplicatively antisymmetric matrix with all off-diagonal orders
    equal to `order` and pairwise-independent exponent pattern."""
    if order < 2:
        raise InputError(f"order must be at least 2, got {order}")
    z = root_of_unity(order, 1)
    one = Cyc.one(order)
    p = [[one for _ in range(t)] for _ in range(t)]
    exp = 1
    for i in range(t):
        for j in range(i + 1, t):
            p[i][j] = z**exp
            p[j][i] = z**-exp
            exp = exp % (order - 1) + 1
    return p


def plane_instance(k, m):
    """The type-(a) T_n(lam, m, 0) action on the quantum plane with
    mu = zeta_k, lam = zeta_m, n = lcm(k, m); returns (instance, mu)."""
    level = lcm(k, m)
    mu = root_of_unity(k, 1).lift(level)
    lam = root_of_unity(m, 1).lift(level)
    pres = quantum_plane(mu)
    g = GrouplikeAction.diagonal([mu, lam.inv() * mu])
    eta = eta_from_entries(2, {(0, 1): Cyc.one(level)}, level)
    return taft_instance(pres, TaftSpec(level, m, lam), g, eta), mu


def example_weyl_nonfiltered(lam, p12) -> ActionInstance:
    """A verified action on the rank-2 quantized Weyl algebra that does not
    respect the weighted filtration: x sends v_1 (weight 1) to v_2 (weight 2).

    Presentation parameters gamma_1 = gamma_2 = lam; the grouplike is
    diag(a_1, a_1^{-1}, a_2, a_2^{-1}) on (u_1, v_1, u_2, v_2) with
    a_2 = p_12 and a_1 = lam a_2; x. u_2 = u_1 and x. v_1 = -a_2^{-1} v_2.
    """
    level = lcm(lam.L, p12.L)
    lam, p12 = lam.lift(level), p12.lift(level)
    one = Cyc.one(level)
    from .ncalg import quantized_weyl

    pres = quantized_weyl([[one, p12], [p12.inv(), one]], [lam, lam], level=level)
    a2 = p12
    a1 = lam * a2
    # generator order is (v1, u1, v2, u2)
    g = GrouplikeAction.diagonal([a1.inv(), a1, a2.inv(), a2])
    eta = eta_from_entries(
        4, {(1, 3): one, (2, 0): -a2.inv()}, level
    )
    m = lam.mult_order()
    n = lcm(lcm(a1.mult_order(), a2.mult_order()), m)
    spec = TaftSpec(n, m, lam)
    return taft_instance(pres, spec, g, eta)


def respects_filtration(inst: ActionInstance) -> bool:
    """Whether every operator maps each filtration level into itself,
    checked on the generators (linear actions)."""
    pres = inst.pres
    t = pres.ngens
    weights = [pres.gen_weight(k) for k in range(t)]
    for g in inst.gen_actions:
        for k in range(t):
            if weights[g.perm[k]] > weights[k]:
                return False
    for x in inst.skews:
        for k in range(t):
            for a in range(t):
                if not x.eta[a][k].is_zero() and weights[a] > weights[k]:
                    return False
    return True
