"""Fixed rings, trace series, Molien identity, reflections, and fixed-ring
presentation matching.

Fixed spaces are exact kernels over the cyclotomic field of the stacked
operators {G_h - 1} and {X_i} on each graded piece; all series are exact
integer (or cyclotomic) coefficient vectors.  Hilbert-series agreement with
a candidate presentation is reported as evidence to the stated degree, not
as an isomorphism proof.

When every group generator is diagonal with root-of-unity scalars, each
normal word is an eigenvector of the group, and the group-fixed part of a
graded piece is spanned by the words of trivial weight.  The fixed space is
then the kernel of the X_i on those words alone, and Molien's fixed
dimensions are counts of them.  Any other group takes the stacked path.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cyclotomic import Cyc, InputError, lcm_all, root_powers
from .hopf import ActionInstance, GrouplikeAction, operator_matrix
from .ncalg import AFFINE, NCPoly, Presentation, commutator


# fixed spaces -----------------------------------------------------------------


def _stacked_kernel(n, level, grouplikes=(), skews=()):
    """Right kernel of the stacked sparse operators {G - 1 : G in grouplikes}
    and {X : X in skews} on an n-dimensional graded piece."""
    ident = linalg.s_identity(n, level)
    rows = []
    for mat in grouplikes:
        rows.extend(r for r in linalg.s_rows(linalg.s_sub(mat, ident), n) if r)
    for mat in skews:
        rows.extend(r for r in linalg.s_rows(mat, n) if r)
    return linalg.nullspace(rows, n, level)


def _weights(gens, level):
    """(M, exps) with gens[j].scalars[k] = zeta_M^exps[j][k], where mu_M is
    the group of roots of unity of Q(zeta_level); None unless every
    generator is diagonal with root-of-unity scalars."""
    if not all(g.is_diagonal() for g in gens):
        return None
    M = level if level % 2 == 0 else 2 * level
    powers = root_powers(M)
    exps = [[powers(s) for s in g.scalars] for g in gens]
    if any(e is None for row in exps for e in row):
        return None
    return M, exps


def _trivial_words(words, weights):
    """The words every generator fixes: a diagonal g sends the word w to
    prod_k scalars[k]^(count of k in w) times w."""
    M, exps = weights
    return [w for w in words if all(sum(e[k] for k in w) % M == 0 for e in exps)]


def _skew_matrices(inst: ActionInstance, d, words=None):
    """The matrices of the X_i on degree d, lazily; words as in
    operator_matrix."""
    return (
        operator_matrix(inst.pres, inst.attached_grouplike(i), d, x, words)
        for i, x in enumerate(inst.skews)
    )


def fixed_space(inst: ActionInstance, d, group_only=False):
    """Basis of the degree-d invariants: kernel of the stacked operators
    {G_h - 1 : group generators h} and (unless group_only) {X_i}.

    For a diagonal group the basis is the kernel of the X_i on the
    trivial-weight words.  It is the same list of vectors the stacked path
    gives: a reduced-echelon kernel basis depends only on the kernel and
    the column order, and the rows of G_h - 1 only zero the other columns.
    """
    words = inst.pres.basis(d)
    if not words:
        return []
    weights = _weights(inst.gen_actions, inst.level)
    if weights is None:
        return _stacked_fixed_space(inst, d, words, group_only)
    fixed = _trivial_words(words, weights)
    if group_only:
        one = Cyc.one(inst.level)
        return [NCPoly({w: one}) for w in fixed]
    rows = [
        r
        for X in _skew_matrices(inst, d, fixed)
        for r in linalg.s_rows(X, len(words))
        if r
    ]
    vecs = linalg.nullspace(rows, len(fixed), inst.level)
    return [NCPoly({fixed[c]: v for c, v in vec.items()}) for vec in vecs]


def _stacked_fixed_space(inst: ActionInstance, d, words, group_only=False):
    """fixed_space for any group, from the stacked operators on all words."""
    gs = (operator_matrix(inst.pres, g, d) for g in inst.gen_actions)
    xs = () if group_only else _skew_matrices(inst, d)
    vecs = _stacked_kernel(len(words), inst.level, gs, xs)
    return [NCPoly({words[c]: v for c, v in vec.items()}) for vec in vecs]


def fixed_dims(inst, D, group_only=False):
    return [len(fixed_space(inst, d, group_only=group_only)) for d in range(D + 1)]


def skew_kernel_space(inst: ActionInstance, d):
    """Kernel of the skew operators alone on degree d."""
    words = inst.pres.basis(d)
    vecs = _stacked_kernel(len(words), inst.level, skews=_skew_matrices(inst, d))
    return [NCPoly({words[c]: v for c, v in vec.items()}) for vec in vecs]


def x_fixed_subalgebra_check(inst: ActionInstance, D, plane=(0, 1)) -> bool:
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
        kernel = skew_kernel_space(inst, d)
        if len(kernel) != len(expected):
            return False
        for vec in kernel:
            if not set(vec.terms) <= expected:
                return False
    return True


# trace series -----------------------------------------------------------------


def trace_series_product(eigenvalues, weights, D):
    """Coefficients of prod_i (1 - lam_i t^{w_i})^{-1} up to degree D."""
    if len(eigenvalues) != len(weights):
        raise InputError("one weight per eigenvalue")
    level = lcm_all(lam.L for lam in eigenvalues)
    series = [Cyc.one(level)] + [Cyc.zero(level)] * D
    for lam, w in zip(eigenvalues, weights):
        lam = lam.lift(level)
        # multiply by 1/(1 - lam t^w): s[d] += lam * s[d - w]
        for d in range(w, D + 1):
            series[d] = series[d] + lam * series[d - w]
    return series


def trace_series_direct(pres: Presentation, g: GrouplikeAction, D):
    """Trace of the induced operator on each graded piece, degrees 0..D."""
    level = lcm_all(s.L for s in g.scalars)
    out = [Cyc.one(level)]
    for d in range(1, D + 1):
        mat = operator_matrix(pres, g, d)
        out.append(linalg.s_trace(mat, level))
    return out


def series_equal(a, b):
    if len(a) != len(b):
        return False
    return all(x == y for x, y in zip(a, b))


# Molien ------------------------------------------------------------------------


def group_closure(gens, cap=10_000):
    """All monomial operators generated by gens (a finite group, or error)."""
    if not gens:
        raise InputError("need at least one grouplike")
    t = len(gens[0].perm)
    level = lcm_all(s.L for g in gens for s in g.scalars)
    gens = [g.lift(level) for g in gens]
    ident = GrouplikeAction.identity(t, level)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = g.compose(cur)
            key = nxt.key()
            if key not in seen:
                if len(seen) >= cap:
                    raise InputError("grouplike closure exceeded the cap")
                seen[key] = nxt
                frontier.append(nxt)
    return list(seen.values())


def molien_check(pres: Presentation, gens, D):
    """Molien identity: average trace series of the generated group versus
    dimensions of the joint fixed spaces, degrees 0..D.

    Returns (equal, averaged series as exact rationals, fixed dimensions).
    On a quantum affine space with a diagonal group, the trace series of g
    is prod_k (1 - scalars[k] t)^{-1} and the fixed dimensions count the
    trivial-weight words; otherwise both come from the degree-d matrices.
    """
    group = group_closure(gens)
    level = group[0].scalars[0].L
    gens = [g.lift(level) for g in gens]
    weights = _weights(gens, level) if pres.family == AFFINE else None
    if weights is None:
        traces = (trace_series_direct(pres, g, D) for g in group)
        dims = [
            len(_stacked_kernel(len(pres.basis(d)), level,
                                (operator_matrix(pres, g, d) for g in gens)))
            for d in range(D + 1)
        ]
    else:
        ones = [1] * pres.ngens
        traces = (trace_series_product(g.scalars, ones, D) for g in group)
        dims = [len(_trivial_words(pres.basis(d), weights)) for d in range(D + 1)]
    total = [Cyc.zero(level)] * (D + 1)
    for tr in traces:
        total = [a + b for a, b in zip(total, tr)]
    inv_order = Cyc.rational(1, level) / Cyc.rational(len(group), level)
    avg = [inv_order * c for c in total]
    equal = all(avg[d] == dims[d] for d in range(D + 1))
    return equal, avg, dims


# reflections ---------------------------------------------------------------------


def is_reflection(g: GrouplikeAction):
    """Whether a diagonal operator on a quantum polynomial ring is a
    reflection: exactly one eigenvalue differs from 1.  Returns (flag, xi)."""
    if not g.is_diagonal():
        raise InputError("is_reflection needs a diagonal grouplike")
    nontrivial = [s for s in g.scalars if s != 1]
    if len(nontrivial) == 1:
        return True, nontrivial[0]
    return False, None


# commutativity of the fixed ring ---------------------------------------------------


def commutativity_check(inst: ActionInstance, D) -> bool:
    """Whether all pairs of fixed-space basis elements of total degree <= D
    commute after normalization."""
    pres = inst.pres
    bases = {d: fixed_space(inst, d) for d in range(1, D + 1)}
    for da in range(1, D + 1):
        for db in range(da, D + 1 - da):
            for a in bases[da]:
                for b in bases[db]:
                    if not commutator(pres, a, b).is_zero():
                        return False
    return True


# fixed-ring presentation matching ---------------------------------------------------


@dataclass(frozen=True)
class FixedRingCase:
    """One of the three matched fixed-ring shapes for the plane action:
    divides_km (k | m), veronese (m | k), hypersurface (k > m, k - m | k)."""

    tag: str
    k: int
    m: int

    def __post_init__(self):
        if self.tag == "divides_km":
            if self.m % self.k:
                raise InputError("divides_km needs k | m")
        elif self.tag == "veronese":
            if self.k % self.m:
                raise InputError("veronese needs m | k")
        elif self.tag == "hypersurface":
            if not (self.k > self.m and self.k % (self.k - self.m) == 0):
                raise InputError("hypersurface needs k > m and (k - m) | k")
        else:
            raise InputError(f"unknown fixed-ring case {self.tag!r}")

    @property
    def s(self):
        if self.tag != "hypersurface":
            raise InputError("s is defined for the hypersurface case")
        return self.m // (self.k - self.m)

    def series(self, D):
        """Exact coefficients of the candidate Hilbert series to degree D."""
        k, m = self.k, self.m
        if self.tag == "divides_km":
            return _rational_series([(k, 1), (m, 1)], [0], D)
        if self.tag == "veronese":
            # Veronese (k/m)-th of k[a, b] with deg a = deg b = m
            out = [0] * (D + 1)
            for d in range(0, D + 1):
                if d % k == 0:
                    out[d] = d // m + 1
            return out
        s = self.s
        return _rational_series([(k, 1), (s * k, 1)], list(range(0, s * k + 1, k)), D)


def _rational_series(denominator_factors, numerator_exponents, D):
    """Series of (sum_e t^e) / prod (1 - t^k) to degree D, integer coeffs."""
    series = [0] * (D + 1)
    for e in numerator_exponents:
        if e <= D:
            series[e] = 1
    for k, mult in denominator_factors:
        for _ in range(mult):
            for d in range(k, D + 1):
                series[d] += series[d - k]
    return series


def presentation_match(inst: ActionInstance, case: FixedRingCase, D):
    """Compare fixed-ring dimensions against the candidate series to degree D.

    Returns (match, fixed dimensions, candidate series).
    """
    dims = fixed_dims(inst, D)
    cand = case.series(D)
    return dims == cand, dims, cand
