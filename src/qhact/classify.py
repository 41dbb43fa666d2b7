"""Constraint-driven search and classification of pointed Hopf actions.

The searches enumerate grouplike candidates (diagonal, monomial, or
rank-one with an optional transpose twist), solve the linear system that
the module-algebra axioms impose on the skew matrix, and report each
nonzero solution space as a found family.  Pruning uses only exact
necessary conditions (the degree-one commutation identity restricts the
skew support; relation equations are linear in the skew matrix), so a
pruned search is still exhaustive at its grid resolution; an unpruned
mode is kept as the ground-truth oracle for small cases.

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
from .cyclotomic import Cyc, InputError, as_q_power, lcm, lcm_all, root_of_unity
from .hopf import (
    AbelianGroup,
    ActionInstance,
    Character,
    GrouplikeAction,
    QLSData,
    SkewAction,
    TaftSpec,
    act_grouplike_raw,
    act_skew_raw,
    eta_from_entries,
    taft_instance,
    verify_module_algebra,
)
from .ncalg import (
    AFFINE,
    Presentation,
    first_weyl,
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


def skew_support(g: GrouplikeAction, lam: Cyc):
    """Positions (target, source) where the skew matrix may be nonzero,
    for a diagonal grouplike: alpha_target = lam * alpha_source."""
    if not g.is_diagonal():
        raise InputError("skew_support needs a diagonal grouplike")
    t = len(g.scalars)
    out = set()
    for a in range(t):
        for k in range(t):
            if g.scalars[a] == lam * g.scalars[k]:
                out.add((a, k))
    return out


def solve_skew_space(
    pres: Presentation, g: GrouplikeAction, lam: Cyc, level=None, unpruned=False
):
    """Kernel basis of the linear system a skew matrix must satisfy.

    Unknowns are the entries of eta.  Equations: the degree-one identity
    g x = lam x g, and the vanishing of x on every defining relation.  A
    diagonal g restricts the unknowns to skew_support(g, lam) unless
    `unpruned` is set; otherwise every position is an unknown and the
    identity enters as rows.  Returns (positions, basis) where positions
    orders the unknowns and basis is a list of SkewAction kernel vectors
    (empty when only x = 0).
    """
    t = pres.ngens
    level = level or lcm_all([pres.level, lam.L] + [s.L for s in g.scalars])
    lam = lam.lift(level)
    g = g.lift(level)
    pruned = g.is_diagonal() and not unpruned
    if pruned:
        positions = sorted(skew_support(g, lam))
    else:
        positions = [(a, k) for a in range(t) for k in range(t)]
    if not positions:
        return [], []
    pos_index = {p: c for c, p in enumerate(positions)}

    rows = []
    if not pruned:
        # g x = lam x g entrywise; for monomial g this pairs positions
        sigma = g.perm
        sigma_inv = [0] * t
        for k in range(t):
            sigma_inv[sigma[k]] = k
        for r in range(t):
            for c in range(t):
                row = {}
                p1 = (sigma_inv[r], c)
                row[pos_index[p1]] = g.scalars[sigma_inv[r]]
                p2 = (r, sigma[c])
                w = -(lam * g.scalars[c])
                cur = row.get(pos_index[p2])
                row[pos_index[p2]] = w if cur is None else cur + w
                row = {k: v for k, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)

    by_source: dict[int, list] = {}
    for p in positions:
        by_source.setdefault(p[1], []).append(p)

    relations = pres.relations()
    for ridx, rel in enumerate(relations):
        sources = {letter for w in rel for letter in w}
        touched = sorted(p for s in sources & set(by_source) for p in by_source[s])
        if not touched:
            continue
        word_rows: dict[tuple, dict[int, Cyc]] = {}
        for p in touched:
            a, k = p
            eta = eta_from_entries(t, {(a, k): Cyc.one(level)}, level)
            img = act_skew_raw(pres, g, eta, {w: c.lift(level) for w, c in rel.items()})
            for w, c in img.terms.items():
                word_rows.setdefault(w, {})[pos_index[p]] = c
        rows.extend(word_rows.values())

    kernel = linalg.nullspace(rows, len(positions), level)
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


def _diag_candidates(t, L):
    for exps in product(range(L), repeat=t):
        yield GrouplikeAction.diagonal([root_of_unity(L, e) for e in exps])


def _monomial_candidates(t, L, perms):
    for perm in perms:
        for exps in product(range(L), repeat=t):
            yield GrouplikeAction(perm, [root_of_unity(L, e) for e in exps])


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
            scalars = [root_of_unity(L, a[i] + bb[j]) for i in range(N) for j in range(N)]
            yield GrouplikeAction(perm, scalars)


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
    candidate: the skew solutions x with keep(g, x), as parts p0, p1, ...,
    sorted by (lambda, g).  cands is iterated once per lambda."""
    found = []
    for lam in lams:
        for g in cands:
            if not preserves_relations(pres, g, level):
                continue
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
    cands = (g for tau in branches for g in _rank_one_candidates(N, L, tau=tau))
    found = _sweep(pres, [lam.lift(L)], cands, L, _gamma_zero(pres, m, L))
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
            for e in range(orders[i]):
                if root_of_unity(orders[i], e) == val:
                    exps.append(e)
                    break
            else:
                raise InputError("zeta value does not lie in the factor's roots of unity")
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
    acts = []
    if N % 2:
        half = (N - 1) // 2
        for i in range(1, half + 1):
            acts.append(mn_family(N, q, 1, b=2 * i))
        for i in range(half + 1, N):
            acts.append(mn_family(N, q, 2, a=2 * (i - half)))
        for i in range(N, N + half):
            acts.append(mn_family(N, q, 5, b=2 * (i - N + 1)))
        for i in range(N + half, 2 * N - 1):
            acts.append(mn_family(N, q, 6, a=2 * (i - (N - 1 + half))))
    else:
        for i in range(1, N // 2 + 1):
            acts.append(mn_family(N, q, 1, b=2 * i))
        for i in range(N // 2 + 1, N + 1):
            acts.append(mn_family(N, q, 2, a=2 * (i - N // 2)))
        for i in range(N + 1, N + (N - 2) // 2 + 1):
            acts.append(mn_family(N, q, 5, b=2 * (i - N)))
        for i in range(N + (N - 2) // 2 + 1, 2 * N - 1):
            acts.append(mn_family(N, q, 6, a=2 * (i - N - (N - 2) // 2)))
    if len(acts) != 2 * N - 2:
        raise InputError("component count mismatch")
    return acts


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
