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
and mod a prime p = 1 (mod L).  They are built in one pass that puts each
term straight into its row: the normal forms of each context
(perm(prefix), suffix) are read once, as a column over the t letters, and
each distinct product of a relation coefficient and a normal-form
coefficient is made, lifted and imaged mod p once (on O_q(M_3) 162 normal
forms and 12 products, for 1,612 terms).  Whether g preserves the
relations depends only on its permutation and on the exponent differences
within each relation, so the sweep decides it once per such key, exactly, and hands
each preserving candidate to the one solver, solve_skew_space, with g and
lambda as exponents of zeta_L.  The solver reads each block of the system
from the tables mod p and takes its rank over F_p (multimodular linear
algebra, W. Stein, Modular Forms: A Computational Approach, AMS 2007).
That certificate is one-sided: full column rank mod p proves the block's
kernel over Q(zeta_L) is 0, and only then is the block skipped.  Every
other block is eliminated at once from the same tables read exactly, which
decides every reported family.

The system is block diagonal.  The relations of k_p[u_1..u_t] and O_q(M_N)
are homogeneous for a grading (Z^t, or rows and columns Z^N x Z^N; K. Brown
and K. Goodearl, Lectures on Algebraic Quantum Groups, 2002, I.1), and the
unit eta at (a, k) moves degree by deg u_a - deg u_k, so two unknowns share
an equation only when their shifts match.  _SkewRows finds the blocks from
its table, not from the grading: positions that share a row are joined by
union-find.  The solver works one block at a time, and each block is
presolved once, when the tables are built: a row whose one remaining
position has a single term c chi_g(prefix), c != 0, forces that position
to 0, so it is removed, and so on (singleton-row presolve).  A block that
this empties has full column rank for every g and is never checked.  A
pruned block with one present unknown has full column rank mod p exactly
when some row's entry at that unknown is nonzero mod p, so its verdict is
read off its rows without ranking them.

On a grid of the identity, the unit grid (Z_L)^t or the rank-one grid
e_ij = a_i + b_j of O_q(M_N) over its 2N - 1 columns, the sweep solves for
the diagonal candidates that can carry an x != 0 instead of listing the
grid.  x != 0 needs a position (a, k) in a block that does not peel with
e_a - e_k = ell (mod L) for some lambda = zeta_L^ell.  A row whose terms
all sit at that position, one of its own rows, reads entry * x_(a, k) = 0,
so x is 0 there unless the entry vanishes: a row of one term never does,
and one of two terms, c1 chi_g(pre1) + c2 chi_g(pre2), vanishes on one
congruence in the exponents or never (_SkewRows.congruences).  Every row
of a position alone in its block is its own: on k_p[u_1..u_t] every
off-diagonal position is alone, as the relations at the arrow (a, k) pin
the grouplike, every action there being a trivial extension of one on a
quantum plane.  On O_q(M_3) the blocks that do not peel hold three or
nine positions, but 15-18 of the 27-30 rows of each block of three are own
rows of two terms.  The sweep reads the congruences off the identity's
tables before it asks the memo, maps each onto the grid's columns, and
generates the solutions of each position's support congruence and its own
letter by letter, after reducing them on unit pivots from the last letter
down (_congruent_exponents, _solutions), each with the lambdas at which
some position is live; the solver is asked only there.  Affine t = 3 at
ord 7 hands the solver 36 (candidate, lambda) pairs, each with a basis,
where the whole grid handed it 1,260; O_q(M_3) at ord 3 27 for 6 bases,
where its rank-one grid handed it 240.  The sweep finds a candidate's
unknowns at each lambda by a bucket join on the exponents.  A grid of a
non-identity permutation, the sums of some exponent columns (the t unit
columns, or the rank-one columns composed with the transpose), is decided
whole first: the memo's key is linear in the
exponents, so the keys the grid reaches are the sums of its columns' keys,
and each is asked once; a permutation none of whose keys preserves the
relations (the swap of the plane and of the Weyl algebra, every
non-identity permutation of a generic k_p[u_1..u_3]) is never swept.  On a
rank-one grid, where e_il + e_jk = e_ik + e_jl, one key settles every
candidate.  Only a preserving candidate of such a grid reads the tables of
its permutation.

A permuting g is settled by the cycles of (a, c) -> (perm a, perm c) on the
positions.  The identity rows of g x = lam x g read alpha_a eta_ac =
lam alpha_c eta_(perm a, perm c), so around a cycle C the entries of eta
vanish unless sum_C (e_a - e_c) = |C| ell (mod L); such a cycle is live.
Those rows join a cycle into one block, and a block that peels has kernel
0, so x = 0 unless some cycle of a block that does not peel (an open
cycle) is live.  The sweep skips a permuting grid whole when no open
cycle's congruence is solvable over its columns (_SkewRows.reaches), as on
every transpose grid of O_q(M_N) measured (N = 2, 3 at ord(q) = 3, 5, 7
and N = 4 at 3, 5).  The power scalar of a kept x is 0 as soon as x^m = 0
on degree one.

Compatibility of two rank-one actions solves the three pair relations
  x_i x_j = zeta x_j x_i,  g_i x_j = zeta x_j g_i,  g_j x_i = zeta^{-1} x_i g_j
exactly for zeta, reporting any free scalars that must vanish.  These and
the power scalar gamma of x^m = gamma (g^m - 1) are solved by the routine
verification checks them with, `linalg.s_ratio`, and whether a grouplike
preserves the relations is `hopf.moved_relations`'s test.  Maximum
rank is a clique search over the compatibility graph, where a clique is
rejected if the union of its forced-zero constraints silences some
member's skew matrix entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections import Counter
from itertools import permutations, product, repeat, zip_longest
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
    root_log,
    root_of_unity,
    root_table,
    unit_level,
)
from .hopf import (
    AbelianGroup,
    ActionInstance,
    Character,
    GrouplikeAction,
    QLSData,
    SkewAction,
    TaftSpec,
    eta_from_entries,
    moved_relations,
    operator_matrix,
    power_ratio,
    taft_instance,
    verify_module_algebra,
)
from .ncalg import (
    AFFINE,
    Presentation,
    first_weyl,
    nf_word,
    quantum_affine,
    quantized_weyl,
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
    rows = [{a * t + k: e for k, col in enumerate(x.arrows) for a, e in col} for x in skews]
    pivots = linalg.rref(rows)
    return tuple(
        (piv, tuple((c, v.sort_key()) for c, v in sorted(pivots[piv].items())))
        for piv in sorted(pivots)
    )


def spans_equal(skews_a, skews_b, t):
    return span_canonical(skews_a, t) == span_canonical(skews_b, t)


# ---------------------------------------------------------------------------
# the core linear solver


def solve_skew_space(pres: Presentation, perm, exps, ell, level, positions=None, unpruned=False):
    """Kernel basis of the linear system a skew matrix must satisfy, for the
    grouplike u_k -> zeta_L^exps[k] u_perm[k] at lam = zeta_L^ell, L = level.

    Unknowns are the entries of eta.  Equations: the degree-one identity
    g x = lam x g, and the vanishing of x on every defining relation, as
    _SkewRows.rows builds them, block by block, from the tables of
    (pres, perm, L).  A diagonal g restricts the unknowns to positions, by
    default those of _diagonal_support, unless `unpruned` is set; otherwise
    every position is an unknown and the identity enters as rows.

    One pass over the blocks that hold an unknown and do not peel: a block
    whose rows mod p have full column rank (_SkewRows.full_rank) has kernel
    0 and is skipped, since a maximal minor that is nonzero mod p is nonzero
    over Q(zeta_L).  Every other block is eliminated exactly on its own,
    with its scalars read from the same exponents.  The RREF of a block
    diagonal matrix is the union of its blocks' RREFs, so ordering the
    blocks' kernel vectors by free column gives the basis of the whole
    system.  Returns (positions, basis) where positions orders the unknowns
    and basis is a list of SkewAction kernel vectors (empty when only
    x = 0).
    """
    t, L = pres.ngens, level
    tables = _SkewRows.of(pres, perm, L)
    pruned = tables.diagonal and not unpruned
    if positions is None:
        positions = _diagonal_support(exps, [ell], L)[0] if pruned else list(tables.positions)
    todo = tables.present(positions)
    if not todo:
        return positions, []
    pw = tables.powers
    key = tuple(exps)
    if tables.sums[0] != key:  # the sweep asks one candidate at each lambda in turn
        es = [sum(map(exps.__getitem__, prefix)) % L for prefix in tables.prefixes]
        tables.sums = key, es, [pw[e] for e in es]
    _, es, chis = tables.sums
    fp = None, None, chis
    if not pruned:  # the identity's rows enter, reading alpha and lam alpha
        fp = [pw[e] for e in exps], [pw[(ell + e) % L] for e in exps], fp[2]
    exact = None
    found = []
    for block, cols in todo:
        if block.fp is not None and tables.full_rank(block, cols, *fp, pruned):
            continue
        if exact is None:
            # zeta_L^e is the shared root zeta_M^(e M / L), M = unit_level(L)
            roots = root_table(L)[0]
            step = len(roots) // L
            exact = [[roots[e % L * step] for e in v] for v in (exps, [ell + e for e in exps], es)]
        # the sparse contract: entries that cancel are not stored
        rows = []
        for _, row in tables.rows(block, cols, *exact, False, pruned):
            row = {c: v for c, v in row.items() if not v.is_zero()}
            if row:
                rows.append(row)
        order = list(cols)
        for vec in linalg.nullspace(rows, len(order), L):
            # the free column is the last: a pivot row is 0 left of its lead
            found.append((order[max(vec)], {order[c]: v for c, v in vec.items()}))
    found.sort(key=lambda fv: fv[0])
    return positions, [eta_from_entries(t, entries, L) for _, entries in found]


def solve_power_scalar(pres, g: GrouplikeAction, x: SkewAction, m, level):
    """gamma with X^m = gamma (G^m - I), or None when none does: 0 once
    X^m = 0, where 0 always works, and hopf.power_ratio otherwise."""
    g = g.lift(level)
    X = operator_matrix(pres, g, 1, x)
    if linalg.s_is_zero(linalg.s_pow(X, m, level)):
        return Cyc.zero(level)
    return power_ratio(pres, g, X, m, level)


def preserves_relations(pres, g: GrouplikeAction):
    return next(moved_relations(pres, g, pres.relations()), None) is None


# ---------------------------------------------------------------------------
# grouplike candidate generators (exponent grids over mu_L)


# A candidate is (perm, exps): the grouplike u_k -> zeta_L^exps[k] u_perm[k].
# The searches hand _sweep a whole grid of perm as (perm, cols), cols a list of
# exponent columns, or (perm, None) for the t unit columns; the explicit lists
# of _diag_candidates, _monomial_candidates and _rank_one_candidates remain as
# its oracles.


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


def _grid_exponents(cols, L):
    """The exponent vectors sum_j s_j cols[j] (mod L), s running over
    (Z_L)^len(cols) in product order; the vectors of all but the last
    column are listed first."""
    *outer, last = cols
    heads = [(0,) * len(last)]
    for col in outer:
        heads = [tuple((e + s * c) % L for e, c in zip(v, col)) for v in heads for s in range(L)]
    for v in heads:
        for s in range(L):
            yield tuple((e + s * c) % L for e, c in zip(v, last))


def _rank_one_grid(N, tau=False):
    """_rank_one_candidates as a grid: the permutation and the 2N - 1 columns
    of e_ij = a_i + b_j, a_1..a_N then b_1..b_(N-1) (b_N = 0), in that
    generator's order."""
    flat = range(N * N)
    perm = tuple((k % N) * N + k // N for k in flat) if tau else tuple(flat)
    cols = [tuple(int(k // N == i) for k in flat) for i in range(N)]
    return perm, cols + [tuple(int(k % N == j) for k in flat) for j in range(N - 1)]


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
# the sweep's preservation memo and the skew system's tables


class _PreservationMemo:
    """Whether the candidate (perm, exps) preserves the relations, decided by
    preserves_relations once per key.  g . r = zeta^E(w0) sum_w c_w
    zeta^(E(w) - E(w0)) nf(perm w), with E(w) the exponent sum of the word
    w, so the verdict depends on g only through perm and the differences
    E(w) - E(w0) mod L within each relation.  E(w) - E(w0) is the dot
    product of exps with the letter counts of w minus those of w0; a word
    whose counts match w0's, as in every relation of a quantum affine
    space, adds nothing to the key.  A relation whose part of the key is 0
    under a diagonal g, on the first Weyl algebra alpha_u alpha_v = 1, is
    one that preserves_relations, through `hopf.moved_relations`, settles
    without a normal form."""

    def __init__(self, pres, L):
        self.pres = pres
        self.L = L
        self.diffs = []
        for rel in pres.relations():
            words = list(rel)
            for w in words[1:]:
                d = Counter(w)
                d.subtract(words[0])
                d = tuple((x, n) for x, n in d.items() if n)
                if d:
                    self.diffs.append(d)
        self.verdicts = {}

    def key(self, exps):
        L = self.L
        return tuple(sum(n * exps[x] for x, n in d) % L for d in self.diffs)

    def __call__(self, perm, exps):
        return self._verdict(perm, self.key(exps), exps)

    def _verdict(self, perm, key, exps):
        ok = self.verdicts.get((perm, key))
        if ok is None:
            ok = self.verdicts[perm, key] = preserves_relations(
                self.pres, _grouplike(perm, exps, self.L)
            )
        return ok

    def reachable(self, cols):
        """{key: exps} over every key of the grid of cols, the exps =
        sum_j s_j cols[j] mod L.  The key is linear in exps, so the keys are
        the sums of the columns' keys: a breadth-first search from
        key(0, ..., 0) adds one column at a time, and the exponent vector
        that first reaches a key represents it.  The unit columns reach
        every key of (Z_L)^t; a rank-one grid of O_q(M_N) only key(0), since
        there e_il + e_jk = e_ik + e_jl."""
        L = self.L
        steps = [(self.key(col), col) for col in cols]
        exps = (0,) * len(cols[0])
        reps = {self.key(exps): exps}
        todo = list(reps)
        for key in todo:  # todo grows as the search goes
            exps = reps[key]
            for step, col in steps:
                nxt = tuple((a + b) % L for a, b in zip(key, step))
                if nxt not in reps:
                    reps[nxt] = tuple((e + c) % L for e, c in zip(exps, col))
                    todo.append(nxt)
        return reps

    def grid(self, perm, cols):
        """The verdict of each key of the grid (perm, cols), asking each key
        at most once, as __call__ would."""
        return [self._verdict(perm, key, exps) for key, exps in self.reachable(cols).items()]


class _Block:
    """One block of the skew system: its positions, in the order of the
    unknowns, and its rows as (row, ((position, j, coefficient), ...)), j
    the index of the prefix in the table's prefixes, exactly (exact) and mod
    p (fp; None when p divides a denominator, and then the block certifies
    nothing).  Both hold the tuples the one-pass build made for each term,
    in the order the rows were dealt.  identity holds the rows of
    g x = lam x g as (row, pos1, pos2, i, c): alpha[i] at pos1 minus
    lam alpha[c] at pos2.  peels marks a block that singleton-row presolve
    empties: it has full column rank for every g and every set of present
    positions, so neither field is asked."""

    __slots__ = ("positions", "exact", "fp", "identity", "peels")

    def __init__(self, positions):
        self.positions = positions
        self.exact, self.fp, self.identity = [], [], []
        self.peels = False


def _peels(block):
    """Whether singleton-row presolve (E. D. Andersen and K. D. Andersen,
    "Presolving in linear programming", Math. Programming 71, 1995) removes
    every position of the block.  A row with a single term at the remaining
    positions, (position, j, coefficient), has there the entry
    c chi_g(prefixes[j]), c != 0 exactly, so that position is 0 in every
    kernel vector; remove it and repeat.  The first round, over every
    position, takes the rows of one term.  Leaving out absent positions or
    adding the identity rows only shrinks the kernel, so the verdict holds
    for every g and every set of present positions."""
    left = set(block.positions)
    forced = {terms[0][0] for _, terms in block.exact if len(terms) == 1}
    while forced:
        left -= forced
        if not left:
            return True
        forced = set()
        for _, terms in block.exact:
            remaining = [pos for pos, _, _ in terms if pos in left]
            if len(remaining) == 1:
                forced.add(remaining[0])
    return False


class _SkewRows:
    """The system solve_skew_space sets up, for every grouplike with the
    permutation perm at once, at level L.

    x kills the relation r at the unit eta (a, k) through the twisted Leibniz
    rule: the sum, over the places of k in the words w of r, of
    c_w chi_g(prefix) nf(perm(prefix) a suffix).  Only chi_g(prefix), the
    product of g's scalars over the prefix, depends on g, so the system is
    tabled once, in one pass that puts each term straight into its row: one
    row per (relation, normal word) as labels[row] names it, holding
    (position, prefix, coefficient) terms.  The normal forms of a place's
    context (perm(prefix), suffix) are read once, as a column over the t
    letters a, and shared by every place with that context; each distinct
    product c_w c_u of a relation coefficient and a normal-form coefficient
    is made, lifted to L and imaged mod p once.

    The system splits into blocks.  Positions that share a row, and for a
    permuting g the two positions of each row of g x = lam x g, lie in one
    block (union-find over the rows), so the matrix is block diagonal and
    its kernel is the sum of the blocks' kernels.  On k_p[u_1..u_t] and
    O_q(M_N) the relations are homogeneous for a grading in which the unit
    eta (a, k) moves degree by deg u_a - deg u_k, so a block never mixes
    shifts: O_q(M_3) at L = 3 has 49 blocks, 36 of them single positions.
    A block that singleton-row presolve empties (_peels, which reads the
    one-term rows first) has full column rank whatever g and the present
    positions are, and is never checked:
    the 36 singles of O_q(M_3), and 18 of the 19 blocks with the transpose.
    blocks holds the _Block of each class, and unpeeled[(a, k)] the index of
    the block of (a, k) when that block does not peel; each block keeps its
    rows, exactly and mod p (fp_root(L)), for rows(), with the prefixes they
    read chi_g at listed once for the table in prefixes.

    For a diagonal g the F_p rows of a block over its present columns are
    sums of c omega^E(prefix), E the exponent sum of g's scalars over the
    prefix.  sums holds the last exps solve_skew_space was given, with
    E(prefix) mod L for each of the prefixes and its power of omega mod p;
    it is a memo of a pure function of exps, and the tables keep no
    verdicts."""

    def __init__(self, pres, perm, L):
        t = pres.ngens
        self.t, self.L, self.perm = t, L, perm
        p, omega = fp_root(L)
        self.p = p
        self.powers = [pow(omega, e, p) for e in range(L)]
        self.diagonal = perm == tuple(range(t))
        self.positions = [(a, k) for a in range(t) for k in range(t)]
        self.sums = None, None, None
        # equal coefficients are made one object, so that a product is keyed
        # by the ids of its factors; every keyed object lives until the end
        # of the build, so no id is reused
        same: dict[tuple, Cyc] = {}
        columns: dict[tuple, list] = {}
        products: dict[tuple, tuple] = {}

        def column(head, suffix):
            """The normal forms of head a suffix over the letters a."""
            col = columns.get((head, suffix))
            if col is None:
                col = columns[head, suffix] = [
                    [(u, same.setdefault(cu.sort_key(), cu)) for u, cu in nf_word(pres, head + (a,) + suffix).items()]
                    for a in range(t)
                ]
            return col

        index: dict[tuple, int] = {}
        rows: list[dict] = []  # rows[ridx][u]: the terms of the row (ridx, u)
        at = [self.positions[k::t] for k in range(t)]  # at[k][a] = (a, k)
        for rel in pres.relations():
            rows.append({})
            for word, c in rel.items():
                c = same.setdefault(c.sort_key(), c)
                for i, k in enumerate(word):
                    prefix, suffix = word[:i], word[i + 1 :]
                    j = index.setdefault(prefix, len(index))
                    head = tuple(perm[x] for x in prefix)
                    for pos, nf in zip(at[k], column(head, suffix)):
                        key = pos, j
                        for u, cu in nf:
                            terms = rows[-1].get(u)
                            if terms is None:
                                terms = rows[-1][u] = {}
                            v = products.get((id(c), id(cu)))
                            if v is None:  # (c cu at level L, its image mod p), or () for 0
                                v = (c * cu).lift(L)
                                v = products[id(c), id(cu)] = (v, fp_image(v, p, omega, L)) if v else ()
                            if not v:
                                continue
                            if key in terms:  # two places with one context and normal word
                                (_, _, v1), (_, _, f1) = terms.pop(key)
                                v = v1 + v[0], None if None in (f1, v[1]) else (f1 + v[1]) % p
                                if not v[0]:  # a row holds no zero term
                                    continue
                            terms[key] = (pos, j, v[0]), (pos, j, v[1])
        self.labels = [(ridx, u) for ridx, by_word in enumerate(rows) for u in by_word]
        self.prefixes = list(index)
        certified = all(f is not None for _, f in filter(None, products.values()))
        self._split((terms for by_word in rows for terms in by_word.values()), certified)

    def _split(self, rows, certified):
        """The blocks, from the rows' terms, each {(position, j):
        ((position, j, exact), (position, j, fp))}, j the index of the
        prefix: union-find over the positions, joining the positions of each
        row and of each row of g x = lam x g; each block's rows dealt out by
        first position, so the first rows of a block span its positions and
        rank_mod stops early; and whether the block peels.  The F_p rows are
        kept only when certified, every coefficient having an image mod p."""
        t, perm = self.t, self.perm
        root = {pos: pos for pos in self.positions}

        def find(pos):
            while root[pos] != pos:
                root[pos] = pos = root[root[pos]]
            return pos

        dealt: dict[tuple, list] = {}
        for row, terms in enumerate(rows):
            if not terms:
                continue
            exact, fp = zip(*terms.values())
            first = exact[0][0]
            for pos, _, _ in exact[1:]:
                if pos != first:
                    root[find(pos)] = find(first)
            dealt.setdefault(first, []).append((row, exact, fp))
        inv = [0] * t
        for k in range(t):
            inv[perm[k]] = k
        identity = [(r * t + c, (inv[r], c), (r, perm[c]), inv[r], c) for r in range(t) for c in range(t)]
        for _, pos1, pos2, _, _ in identity:
            root[find(pos1)] = find(pos2)
        classes: dict[tuple, list] = {}
        for pos in self.positions:
            classes.setdefault(find(pos), []).append(pos)
        self.blocks = [_Block(positions) for positions in classes.values()]
        block_of = {pos: b for b, block in enumerate(self.blocks) for pos in block.positions}
        for ident in identity:
            self.blocks[block_of[ident[1]]].identity.append(ident)
        for block in self.blocks:
            for turn in zip_longest(*(dealt[pos] for pos in block.positions if pos in dealt)):
                for item in turn:
                    if item is not None:
                        row, exact, fp = item
                        block.exact.append((row, exact))
                        block.fp.append((row, fp))
            block.peels = _peels(block)
            if not certified:
                block.fp = None
        self.unpeeled = {pos: b for pos, b in block_of.items() if not self.blocks[b].peels}

    @classmethod
    def of(cls, pres, perm, L):
        """The tables of (pres, perm, L), built once per presentation."""
        tables = pres._skew_tables.get((perm, L))
        if tables is None:
            tables = pres._skew_tables[perm, L] = cls(pres, perm, L)
        return tables

    def present(self, positions):
        """The blocks that hold some of positions and do not peel, each as
        (block, {position: column}) with the columns in the order of
        positions."""
        out: dict[int, dict] = {}
        unpeeled = self.unpeeled
        for pos in positions:
            b = unpeeled.get(pos)
            if b is not None:
                cols = out.setdefault(b, {})
                cols[pos] = len(cols)
        return [(self.blocks[b], cols) for b, cols in out.items()]

    def rows(self, block, cols, alpha, lam_alpha, chis, fp, pruned):
        """The rows of one block of the skew system of the grouplike u_k ->
        alpha[k] u_perm[k] at lam, as (row, {column: entry}) over the
        unknowns cols ({position: column}), built one at a time.
        lam_alpha[k] = lam alpha[k] and chis[j] is the product of alpha
        over prefixes[j], all in the field of the table: fp, or exact.
        A pruned diagonal keeps the positions (a, k) with alpha[a] =
        lam alpha[k], the support g x = lam x g allows; otherwise every
        position is an unknown and that identity enters entrywise as rows,
        whose ids run from len(labels) on.  Entries may vanish."""
        if not pruned:
            base = len(self.labels)
            for row, pos1, pos2, i, c in block.identity:
                if pos1 == pos2:
                    yield base + row, {cols[pos1]: alpha[i] - lam_alpha[c]}
                else:
                    yield base + row, {cols[pos1]: alpha[i], cols[pos2]: -lam_alpha[c]}
        for row, terms in block.fp if fp else block.exact:
            entries = {}
            for pos, j, c in terms:
                col = cols.get(pos)
                if col is not None:
                    v = c * chis[j]
                    entries[col] = v if col not in entries else entries[col] + v
            if entries:
                yield row, entries

    def full_rank(self, block, cols, alpha, lam_alpha, chis, pruned):
        """Whether the block's rows mod p over the unknowns cols have full
        column rank, alpha, lam_alpha and chis given mod p as for rows().
        A maximal minor that is nonzero mod p is nonzero exactly.  A pruned
        block has no identity rows, so over one unknown it has full rank
        when some row's entry there, the sum of c chis[j] over the row's
        terms at that position, is nonzero mod p."""
        if pruned and len(cols) == 1:
            p = self.p
            return any(
                sum(c * chis[j] for pos, j, c in terms if pos in cols) % p for _, terms in block.fp
            )
        rows = self.rows(block, cols, alpha, lam_alpha, chis, True, pruned)
        return linalg.rank_mod((r for _, r in rows), len(cols), self.p) == len(cols)

    @cached_property
    def cycles(self):
        """The open cycles of (a, c) -> (perm a, perm c): those in a block
        that does not peel, as (letter coefficients, length), each distinct
        pair once.  A cycle C is live at exps and ell when sum_C (e_a - e_c)
        = |C| ell (mod L); the letter coefficients are that sum's, as
        ((letter, count), ...)."""
        perm, seen, out = self.perm, set(), {}
        for pos in self.unpeeled:
            coeffs, size = Counter(), 0
            while pos not in seen:
                seen.add(pos)
                a, c = pos
                coeffs[a] += 1
                coeffs[c] -= 1
                size += 1
                pos = perm[a], perm[c]
            if size:
                out[tuple(sorted((x, n) for x, n in coeffs.items() if n)), size] = None
        return list(out)

    @cached_property
    def congruences(self):
        """What a diagonal g needs for x != 0 at a position, for every
        position: None when x is 0 there for every g, the position's block
        peeling or one of its own rows never vanishing; otherwise the
        [(letter coefficients, residue)] its own rows impose, empty for a
        position with none, which only the support e_a - e_k = ell restricts.

        A position's own rows are the rows whose terms all sit at it; every
        row of a position alone in its block is its own.  An own row reads
        entry * x_pos = 0 in every system that holds the position, so x is 0
        there unless the entry vanishes, exactly.  The entry of a one-term
        row, c chi_g(pre), never does.  A row of two terms has the entry
        c1 chi_g(pre1) + c2 chi_g(pre2), which is 0 iff
        zeta_L^(E(pre1) - E(pre2)) = -c2/c1.  That holds for some g iff
        -c2/c1 = zeta_M^d, M = unit_level(L), with (M/L) | d, and then iff
        E(pre1) - E(pre2) = d/(M/L) (mod L); the letter coefficients are
        that difference's, as ((letter, count), ...).  A row of three or
        more terms is left out, which only keeps more candidates; at a lone
        position whose rows all have two terms the congruences are exact.
        On O_q(M_3) 15-18 of the 27-30 rows of each block of three
        positions are own rows of two terms.  Only the identity's tables, a
        diagonal g's, are asked."""
        L, prefixes = self.L, self.prefixes
        step = unit_level(L) // L
        out = {}
        for block in self.blocks:
            if block.peels:
                out.update(dict.fromkeys(block.positions))
                continue
            conds = {pos: [] for pos in block.positions}
            for _, terms in block.exact:
                pos = terms[0][0]
                if conds[pos] is None or len(terms) > 2 or any(q != pos for q, _, _ in terms):
                    continue
                if len(terms) == 1:
                    conds[pos] = None
                    continue
                (_, j1, c1), (_, j2, c2) = terms
                d = root_log(-c2 * c1.inv(), L)
                if d is None or d % step:
                    conds[pos] = None
                    continue
                coeffs = Counter(prefixes[j1])
                coeffs.subtract(prefixes[j2])
                letters = tuple(sorted((x, n) for x, n in coeffs.items() if n))
                conds[pos].append((letters, d // step))
            out.update(conds)
        return out

    def reaches(self, cols, ells):
        """Whether some exps = sum_j s_j cols[j] (mod L) makes an open cycle
        live at some ell.  The cycle's sum is then sum_j s_j c_j, c_j its
        coefficients dotted with cols[j], which takes exactly the multiples
        of gcd(L, c_1, c_2, ...) mod L."""
        L = self.L
        for coeffs, size in self.cycles:
            d = gcd(L, *(sum(n * col[x] for x, n in coeffs) for col in cols))
            if any(size * ell % d == 0 for ell in ells):
                return True
        return False


def _diagonal_support(exps, ells, L):
    """For each ell, the positions (a, k) with exps[a] - exps[k] = ell
    (mod L), in (a, k) order: the unknowns of the diagonal grouplike
    u_k -> zeta_L^exps[k] u_k at lam = zeta_L^ell.  A bucket join: the
    letters grouped by exponent, then for each a the k in
    bucket[(exps[a] - ell) mod L]."""
    buckets: dict[int, list] = {}
    for k, e in enumerate(exps):
        buckets.setdefault(e % L, []).append(k)
    return [
        [(a, k) for a, e in enumerate(exps) for k in buckets.get((e - ell) % L, ())]
        for ell in ells
    ]


def _congruent_exponents(cols, ells, L, congruences):
    """The exponent vectors of the grid exps = sum_j s_j cols[j] (mod L), in
    _grid_exponents' order, at which some position (a, k) can carry x != 0
    at some ell, each with the set of those ell: e_a - e_k = ell (mod L),
    the support _diagonal_support gives, and every congruence of
    congruences[(a, k)] holds (_SkewRows.congruences; a position it omits
    has none, and one it maps to None is never live).  A congruence
    sum_x c_x e_x = r reads sum_j (sum_x c_x cols[j][x]) s_j = r on the
    grid, which _solutions solves for s.  With no congruences these are the
    vectors at which _diagonal_support finds some unknown, with the ell at
    which it does."""
    t = len(cols[0])

    def on_grid(coeffs, r):
        sums = (sum(n * col[x] for x, n in coeffs) for col in cols)
        return tuple((j, c) for j, c in enumerate(sums) if c), r

    systems = {}
    for a, k in product(range(t), repeat=2):
        conds = congruences.get((a, k), [])
        if conds is not None:
            systems[a, k] = [on_grid(coeffs, r) for coeffs, r in conds]
    live: dict[tuple, set] = {}
    for ell in ells:
        for (a, k), system in systems.items():
            for s in _solutions([on_grid(((a, 1), (k, -1)), ell)] + system, len(cols), L):
                live.setdefault(s, set()).add(ell)
    return [
        (tuple(sum(sj * col[x] for sj, col in zip(s, cols)) % L for x in range(t)), live[s])
        for s in sorted(live)
    ]


def _solutions(system, t, L):
    """The vectors of (Z_L)^t, in product order, at which every congruence
    (letter coefficients, residue) of system holds, found letter by letter.
    With the letters before i fixed at the partial sum s, the congruence
    sum_x c_x e_x = r stays solvable after e_i = e exactly when c_i e = r - s
    (mod g), g = gcd(L, c_(i+1), c_(i+2), ...): with h = gcd(c_i, g), for no
    e unless h divides r - s, and otherwise for the e of one residue class
    mod g / h.  That test is exact for each congruence alone, not for
    several, so the system is first reduced from the last letter down: a
    congruence whose coefficient of letter i is a unit mod L is subtracted,
    times the factor that clears letter i, from every other congruence not
    yet so used.  The steps are invertible, so the solutions are the same,
    but the rest no longer reach past their last non-unit letters, and
    their joint conditions on the earlier letters are tested there instead
    of after the dead prefixes they allowed."""
    pending = []
    for coeffs, r in system:
        c = [0] * t
        for x, n in coeffs:
            c[x] += n
        pending.append((tuple(n % L for n in c), r % L))
    pending = list(dict.fromkeys(pending))
    rows = []
    for i in reversed(range(t)):
        unit = next((row for row in pending if gcd(row[0][i], L) == 1), None)
        if unit is None:
            continue
        pending.remove(unit)
        rows.append(unit)
        c, r = unit
        u = pow(c[i], -1, L)
        for j, (d, s) in enumerate(pending):
            f = d[i] * u % L
            if f:
                pending[j] = tuple((dx - f * cx) % L for dx, cx in zip(d, c)), (s - f * r) % L
    for c, r in pending:
        if any(c):
            rows.append((c, r))
        elif r:
            return []
    for j, (c, r) in enumerate(rows):
        tails = [L] * (t + 1)
        for i in reversed(range(t)):
            tails[i] = gcd(tails[i + 1], c[i])
        rows[j] = c, r, tails
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
                (step, first), *rest = sorted(classes, reverse=True) or [(1, 0)]
                for e in range(first, L, step):
                    if all((e - f) % m == 0 for m, f in rest):
                        moved = [(s + c[i] * e) % L for s, (c, _, _) in zip(sums, rows)]
                        nxt.append((head + (e,), moved))
        heads = nxt
    return [head for head, _ in heads]


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
    (perm, cols), cols a list of exponent columns, stands for the grid
    (perm, exps), exps = sum_j s_j cols[j] over s in (Z_L)^len(cols) in
    product order, and (perm, None) for the grid of the t unit columns,
    (Z_L)^t; the sweep generates them itself.  On every grid of the
    identity, unit or rank-one, it reads the congruences of the identity's
    tables first and takes only the vectors of _congruent_exponents, each
    asked only at the lambdas where some position of its support can be
    live.  Such a grid that reaches one preservation key (every rank-one
    grid, and the unit grid of the plane or of k_p[u_1..u_t], whose
    relations' words share their letter counts) asks it once, is skipped
    when it does not preserve the relations, and its candidates skip the
    memo; on one that reaches more (the Weyl algebra's) the memo decides
    each candidate.  A grid of any other permutation is skipped when none of
    its keys preserves the relations (_PreservationMemo.grid) or when no
    open cycle can be live on it (_SkewRows.reaches), and its candidates
    skip the memo when all of its keys preserve them.  A diagonal candidate's unknowns at
    each lambda come from _diagonal_support, and a listed one with none at
    any lambda has only x = 0 and is dropped.  Only then does
    _PreservationMemo decide the candidate, and only a preserving one reads
    the tables of a permutation other than the identity; a permuting
    candidate keeps every position.  solve_skew_space solves each live
    (candidate, lambda) in one pass over its blocks."""
    preserves = _PreservationMemo(pres, level)
    z = root_of_unity(level, 1)
    ells = [as_q_power(lam, z) for lam in lams]  # lam = zeta_L^ell
    t = pres.ngens
    identity = tuple(range(t))
    units = [tuple(int(x == k) for x in range(t)) for k in range(t)]

    def candidates():
        """(perm, exps, whether the memo must still decide the candidate,
        the ell at which to ask the solver, or None for every ell)."""
        for perm, spec in cands:
            if isinstance(spec, tuple):
                yield perm, spec, True, None
                continue
            cols = spec or units
            if perm == identity:
                # the key is linear in exps, so the grid reaches one key,
                # that of 0, exactly when every column's key is 0
                check = any(any(preserves.key(col)) for col in cols)
                if not (check or preserves(perm, (0,) * t)):
                    continue
                congruences = _SkewRows.of(pres, perm, level).congruences
                for exps, live in _congruent_exponents(cols, ells, level, congruences):
                    yield perm, exps, check, live
            else:
                verdicts = preserves.grid(perm, cols)
                if any(verdicts) and _SkewRows.of(pres, perm, level).reaches(cols, ells):
                    check = not all(verdicts)
                    yield from ((perm, exps, check, None) for exps in _grid_exponents(cols, level))

    found = []
    for perm, exps, check, live in candidates():
        diagonal = perm == identity
        supports = _diagonal_support(exps, ells, level) if diagonal else None
        if (diagonal and not any(supports)) or (check and not preserves(perm, exps)):
            continue
        tables = _SkewRows.of(pres, perm, level)
        for lam, ell, positions in zip(lams, ells, supports or repeat(tables.positions)):
            if not positions or (live is not None and ell not in live):
                continue
            _, basis = solve_skew_space(pres, perm, exps, ell, level, positions)
            if not basis:
                continue
            g = _grouplike(perm, exps, level)
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
    mu_L, L = lcm(grid level, n), and solves for the skew matrix; keeps the
    inner-faithful actions.  On the Weyl algebra the generator order is (v, u).
    """
    if k <= 1 or m < 3:
        raise InputError("census requires ord(mu) > 1 and m >= 3")
    n = lcm(k, m)
    L = lcm(grid.level, n) if grid else n
    mu = root_of_unity(L, L // k)
    if algebra == "plane":
        pres = quantum_plane(mu)
        u_idx, v_idx = 0, 1
    elif algebra == "weyl":
        pres = first_weyl(mu)
        v_idx, u_idx = 0, 1
    else:
        raise InputError(f"unknown algebra {algebra!r}")
    cands = [((0, 1), None), ((1, 0), None)]
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
    perms = [tuple(range(t))] if grid.g_shape == "diagonal" else permutations(range(t))
    cands = [(perm, None) for perm in perms]

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
    cands = [_rank_one_grid(N, tau) for tau in branches]
    # ord(lam) divides L, so lam is a power of zeta_L whatever level it was written at
    lam = root_of_unity(L, as_q_power(lam, root_of_unity(L, 1)) % L)
    found = _sweep(pres, [lam], cands, L, _gamma_zero(pres, m, L))
    templates = all_matrix_families(N, q) if found else []
    for fam in found:
        tags = (c.tag for c in templates if c.lam == fam.lam and c.g == fam.g
                and spans_equal(fam.basis, c.basis, N * N))
        fam.tag = next(tags, "unclassified")
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
        zero = Cyc.zero(level)
        acc = [[zero] * t for _ in range(t)]
        for label, part in self.parts:
            c = Cyc.one(level) if coeffs is None else coeffs.get(label, zero)
            for k, col in enumerate(part.arrows):
                for a, e in col:
                    acc[a][k] = acc[a][k] + c * e
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


def family_parameter(N, kind):
    """(name, low, high) of the shifted column b or row a that the family
    kind on O_q(M_N) takes; None when it takes neither, as on O_q(M_2)."""
    if N < 3:
        return None
    return {1: ("b", 2, N), 2: ("a", 2, N), 5: ("b", 1, N - 1), 6: ("a", 1, N - 1)}.get(kind)


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

    param = family_parameter(N, kind)
    if param is not None:
        name, low, high = param
        value = a if name == "a" else b
        if value is None or not low <= value <= high:
            raise InputError(f"family {kind} needs {low} <= {name} <= {high}")
    avec = [one] * N
    bvec = [one] * N
    if kind == 1:
        bvec[b - 2], bvec[b - 1] = q, qi
        lam = q * q
        entries = {(flat(i, b - 2), flat(i, b - 1)): one for i in range(N)}
        tag = f"f1[b={b}]"
    elif kind == 2:
        avec[a - 2], avec[a - 1] = q, qi
        lam = q * q
        entries = {(flat(a - 2, j), flat(a - 1, j)): one for j in range(N)}
        tag = f"f2[a={a}]"
    elif kind == 5:
        bvec[b - 1], bvec[b] = q, qi
        lam = qi * qi
        entries = {(flat(i, b), flat(i, b - 1)): one for i in range(N)}
        tag = f"f5[b={b}]"
    elif kind == 6:
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


def _degree_one(act: ParamAction, level):
    """The degree-one operators of act with g lifted to level: G and
    (label, X) for each part."""
    g = act.g.lift(level)
    parts = [(lab, operator_matrix(act.pres, g, 1, part)) for lab, part in act.parts]
    return operator_matrix(act.pres, g, 1), parts


def compatibility(
    ai: ParamAction, aj: ParamAction, q=None, degree_one=_degree_one
) -> CompatResult:
    """Solve x_i x_j = zeta x_j x_i, g_i x_j = zeta x_j g_i, g_j x_i = zeta^{-1} x_i g_j.

    Returns the unique zeta (= chi_j(g_i)) and the free scalars forced to
    zero, or incompatible; when incompatible because two exact candidates
    differ by a power of q, that exponent is reported as required_unity.
    degree_one(act, level) gives the degree-one operators (_degree_one's);
    max_rank passes one that builds them once per action and level.
    """
    if not (ai.pres == aj.pres):
        raise InputError("actions must live on the same presentation")
    level = lcm_all(
        [ai.g.scalars[0].L, aj.g.scalars[0].L, ai.lam.L, aj.lam.L]
    )
    Gi, parts_i = degree_one(ai, level)
    Gj, parts_j = degree_one(aj, level)

    # zeta per part from g_j x_i = zeta^-1 x_i g_j and g_i x_j = zeta x_j g_i,
    # and per part pair from x_i x_j = zeta x_j x_i, each read through
    # linalg.s_ratio: ANY is no constraint and None a conflict
    def ratio_of(A, B):
        return linalg.s_ratio(linalg.s_mul(A, B), linalg.s_mul(B, A))

    ratio = {("i", lab): ratio_of(B, Gj) for lab, B in parts_i}
    ratio.update((("j", lab), ratio_of(Gi, B)) for lab, B in parts_j)
    dead = {key for key, r in ratio.items() if r is None}
    labels_i = [lab for lab, _ in parts_i if ("i", lab) not in dead]
    labels_j = [lab for lab, _ in parts_j if ("j", lab) not in dead]
    prod_req = {
        (lab_i, lab_j): ratio_of(Bi, Bj)
        for lab_i, Bi in parts_i if lab_i in labels_i
        for lab_j, Bj in parts_j if lab_j in labels_j
    }

    def subsets(labels):
        out = []
        for mask in range(1, 1 << len(labels)):
            out.append([labels[k] for k in range(len(labels)) if mask >> k & 1])
        out.sort(key=lambda s: (-len(s), s))
        return out

    if labels_i and labels_j:
        for Si in subsets(labels_i):
            for Sj in subsets(labels_j):
                vals = [ratio["i", lab] for lab in Si] + [ratio["j", lab] for lab in Sj]
                vals = [v for v in vals if v is not linalg.ANY]
                if not vals or any(v != vals[0] for v in vals[1:]):
                    continue
                zeta = vals[0]
                if not all(prod_req[li, lj] is linalg.ANY or prod_req[li, lj] == zeta
                           for li in Si for lj in Sj):
                    continue
                forced = set(dead)
                forced.update(("i", lab) for lab in labels_i if lab not in Si)
                forced.update(("j", lab) for lab in labels_j if lab not in Sj)
                return CompatResult(True, zeta, frozenset(forced))

    required = None
    if q is not None:
        cands = []
        for v in ratio.values():
            if v is not None and v is not linalg.ANY and all(v != c for c in cands):
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


def max_rank(actions: list[ParamAction], q=None) -> MaxRankResult:
    """Maximum size of a pairwise-compatible set whose forced-zero constraints
    leave every member's skew matrix nonzero, plus a verified witness."""
    n = len(actions)
    built = {}

    def degree_one(act, level):
        key = (id(act), level)
        if key not in built:
            built[key] = _degree_one(act, level)
        return built[key]

    compat = {}
    for i in range(n):
        for j in range(i + 1, n):
            compat[(i, j)] = compatibility(actions[i], actions[j], q, degree_one)

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

    # Kills only grow with the clique, so no superset of an invalid clique is
    # valid, and a branch that cannot beat the best size is never pushed;
    # the surviving branches are visited in the same order, so the same
    # witness comes out.
    best = (0, (), None)
    cliques = [((), list(range(n)))]
    while cliques:
        clique, cands = cliques.pop()
        kills = valid(clique)
        if kills is None:
            continue
        if len(clique) > best[0]:
            best = (len(clique), clique, kills)
        for idx, v in enumerate(cands):
            rest = cands[idx + 1 :]
            if len(clique) + 1 + len(rest) <= best[0]:
                break
            if all(compat[tuple(sorted((v, u)))].compatible for u in clique):
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
    return MaxRankResult(theta, clique, witness)


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
            e = as_q_power(val, root_of_unity(orders[i], 1))
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
    return not any(weights[a] > weights[k] for x in inst.skews for a, k in x.support())
