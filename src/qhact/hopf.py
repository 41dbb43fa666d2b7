"""Acting Hopf algebras and module-algebra verification.

The acting algebras are bosonizations of quantum linear spaces over a
finite abelian group: grouplike generators act as monomial matrices on the
degree-one space, each skew-primitive x_i acts through a matrix eta with
x_i . u_k = sum_a eta[a][k] u_a and the twisted Leibniz rule
x . (ab) = (g . a)(x . b) + (x . a) b.

Generalized Taft algebras are the rank-one case over a cyclic group and
get a thin spec type of their own.  Verification checks that every
grouplike preserves the defining relations, every x_i kills them, and the
operator identities of the Hopf relations hold on degree one.  Whether g
preserves the relations has one test, `moved_relations`, shared with the
searches: a diagonal grouplike that gives every word of a relation one
exponent sum only rescales it (`fixed_relations`), and only the other
relations are normalized.  Every operator identity P = c Q is read through
one routine, `linalg.s_ratio`: verification checks the c it returns against
the known chi value or gamma_i, and the searches solve for it
(`power_ratio` builds both sides of x^m = gamma (g^m - 1) for both).  Each
of those identities reads D = 0 for a twisted derivation D, which vanishes
on the whole algebra once it vanishes on the degree-one generators.  The
one exception is x_i x_j - chi_j(g_i) x_j x_i when chi_i(g_j) chi_j(g_i)
!= 1, so only that identity, for only those pairs, is re-checked on
degrees 2..d_check (`verify_module_algebra` gives the argument).

Every matrix of a grouplike or a skew primitive on a graded piece A_d comes
from one builder, `operator_matrix`: column w is the normal form of the
operator applied to the word w.  Verification, fixed spaces, trace series,
the Molien check and the compatibility and power-scalar equations of the
searches all use it.  Degree one is indexed by the letters, whose images
are already normal, so it is read directly off perm, scalars and eta, and
it serves the ungraded Weyl family too.  On a quantum affine space with a
diagonal grouplike, all of whose scalars are roots of unity, a normal word
is an exponent vector and each column has a closed form (`_affine_columns`);
every other case applies `act_grouplike_raw` or `act_skew_raw` to the word.
Those exponents, and the orders of grouplikes, are read from the one table
of roots of unity per level that `cyclotomic` keeps (`root_log`,
`root_table`, `Cyc.mult_order`); this module keeps none of its own.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import lcm

from . import linalg
from .cyclotomic import (
    Cyc,
    InputError,
    as_int,
    as_q_power,
    lcm_all,
    root_log,
    root_of_unity,
    root_table,
    unit_level,
)
from .ncalg import (
    AFFINE,
    NCPoly,
    Presentation,
    koszul_dual,
    normalize,
    poly_to_json,
    presentation_from_json,
    presentation_to_json,
)


# group data -------------------------------------------------------------------

# the largest |G| whose elements are enumerated (the faithfulness checks)
MAX_GROUP_ORDER = 100_000


@dataclass(frozen=True)
class AbelianGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.orders):
            raise InputError("cyclic factor orders must be >= 1")

    @property
    def rank(self):
        return len(self.orders)

    def order(self):
        out = 1
        for d in self.orders:
            out *= d
        return out

    def identity(self):
        return (0,) * self.rank

    def elements(self):
        """Every element, refused above MAX_GROUP_ORDER before any is made."""
        if self.order() > MAX_GROUP_ORDER:
            raise InputError(f"hopf.group: {self.order()} elements, over {MAX_GROUP_ORDER}")
        return product(*(range(d) for d in self.orders))

    def reduce(self, exps):
        return tuple(e % d for e, d in zip(exps, self.orders))

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def char_level(self):
        return lcm_all(self.orders)


@dataclass(frozen=True)
class Character:
    group: AbelianGroup
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.exps) != self.group.rank:
            raise InputError("character exponent tuple has wrong length")

    def eval(self, elem, level=None):
        L = level or self.group.char_level()
        out = Cyc.one(L)
        for d, f, e in zip(self.group.orders, self.exps, elem):
            if d > 1 and f * e % d:
                out = out * root_of_unity(d, f * e).lift(L)
        return out

    def inv(self):
        return Character(self.group, self.group.reduce(tuple(-f for f in self.exps)))


# quantum linear space data ------------------------------------------------------


class QLSData:
    """Discrete data (G, g_i, chi_i) of a quantum linear space."""

    def __init__(self, group: AbelianGroup, gs, chis):
        if len(gs) != len(chis):
            raise InputError("g list and chi list must have the same length")
        self.group = group
        self.gs = tuple(group.reduce(g) for g in gs)
        self.chis = tuple(chis)
        for chi in self.chis:
            if chi.group != group:
                raise InputError("character is over the wrong group")

    @property
    def theta(self):
        return len(self.gs)

    def lam(self, i, level=None):
        return self.chis[i].eval(self.gs[i], level)

    def m(self, i):
        order = self.lam(i).mult_order()
        if order is None:
            raise InputError("chi_i(g_i) is not a root of unity")
        return order

    def nu(self, g):
        g = self.group.reduce(g)
        return sum(1 for h in self.gs if h == g)

    def validate(self):
        """Check the compatibility invariants; reports every violated pair."""
        violations = []
        for i in range(self.theta):
            lam = self.lam(i)
            order = lam.mult_order()
            if order is None or order < 2:
                violations.append(
                    {"axiom": "chi_i(g_i) must have order >= 2", "context": {"i": i},
                     "witness": lam.to_json()}
                )
        for i in range(self.theta):
            for j in range(i + 1, self.theta):
                prod_val = self.chis[i].eval(self.gs[j]) * self.chis[j].eval(self.gs[i])
                if prod_val != 1:
                    violations.append(
                        {
                            "axiom": "chi_i(g_j) * chi_j(g_i) must be 1",
                            "context": {"i": i, "j": j},
                            "witness": prod_val.to_json(),
                        }
                    )
        return Report(not violations, violations)


def is_faithful_qls(qls: QLSData):
    """Whether G acts faithfully on span(x_i); returns (flag, generators of N)."""
    kernel = []
    for h in qls.group.elements():
        if all(chi.eval(h) == 1 for chi in qls.chis):
            kernel.append(h)
    ident = qls.group.identity()
    gens = []
    span = {ident}
    for h in kernel:
        if h in span:
            continue
        gens.append(h)
        new = set(span)
        frontier = list(span)
        while frontier:
            elem = frontier.pop()
            nxt = qls.group.add(elem, h)
            if nxt not in new:
                new.add(nxt)
                frontier.append(nxt)
        span = new
    return len(kernel) == 1, gens


@dataclass(frozen=True)
class TaftSpec:
    """Generalized Taft algebra data: g^n = 1, x^m = gamma (g^m - 1), g x = lam x g."""

    n: int
    m: int
    lam: Cyc
    gamma: Cyc = field(default_factory=lambda: Cyc.zero())

    def __post_init__(self):
        if self.lam.mult_order() != self.m:
            raise InputError("lambda must be a primitive m-th root of unity")
        if self.n % self.m:
            raise InputError("m must divide n")
        if self.m == self.n and not self.gamma.is_zero():
            # g^m - 1 = 0 in this case, so gamma is immaterial; normalize it away
            object.__setattr__(self, "gamma", Cyc.zero(self.gamma.L))

    def to_qls(self):
        e = as_q_power(self.lam, root_of_unity(self.n, 1))
        if e is None:
            raise InputError("lambda does not lie in the n-th roots of unity")
        group = AbelianGroup((self.n,))
        return QLSData(group, [(1,)], [Character(group, (e % self.n,))])


# actions -------------------------------------------------------------------------


class GrouplikeAction:
    """Monomial operator on the degree-one space: u_k -> scalars[k] u_{perm[k]}."""

    __slots__ = ("perm", "scalars")

    def __init__(self, perm, scalars):
        perm = tuple(perm)
        scalars = tuple(scalars)
        if sorted(perm) != list(range(len(perm))):
            raise InputError("perm must be a permutation of 0..t-1")
        if len(scalars) != len(perm):
            raise InputError("scalars length must match perm")
        if any(s.is_zero() for s in scalars):
            raise InputError("grouplike scalars must be nonzero")
        self.perm = perm
        self.scalars = scalars

    @staticmethod
    def diagonal(scalars):
        scalars = tuple(scalars)
        return GrouplikeAction(tuple(range(len(scalars))), scalars)

    @staticmethod
    def identity(t, level=1):
        return GrouplikeAction(tuple(range(t)), tuple(Cyc.one(level) for _ in range(t)))

    def is_diagonal(self):
        return self.perm == tuple(range(len(self.perm)))

    def is_identity(self):
        return self.is_diagonal() and all(s == 1 for s in self.scalars)

    def compose(self, other):
        """self after other (matrix product self . other)."""
        perm = tuple(self.perm[other.perm[k]] for k in range(len(self.perm)))
        scalars = tuple(
            other.scalars[k] * self.scalars[other.perm[k]] for k in range(len(self.perm))
        )
        return GrouplikeAction(perm, scalars)

    def power(self, e):
        """g^e for e >= 0, by squaring from g itself and multiplying by g
        at each set bit below the leading one (g^3 takes two compose
        calls); the identity for e = 0."""
        if e == 0:
            return GrouplikeAction.identity(len(self.perm), self.scalars[0].L)
        out = self
        for i in range(e.bit_length() - 2, -1, -1):
            out = out.compose(out)
            if e >> i & 1:
                out = self.compose(out)
        return out

    def order(self, cap=10_000):
        """The least e >= 1 with g^e = 1: the lcm, over the cycles C of perm,
        of |C| ord(prod_{k in C} scalars[k]), as g^|C| scales each u_k, k in
        C, by that product.  InputError when a product is no root of unity
        or the order exceeds cap."""
        order, seen = 1, set()
        for start in range(len(self.perm)):
            size, prod, k = 0, 1, start
            while k not in seen:
                seen.add(k)
                size, prod, k = size + 1, self.scalars[k] * prod, self.perm[k]
            if size:
                n = prod.mult_order()
                if n is None:
                    raise InputError("grouplike order exceeds cap")
                order = lcm(order, size * n)
        if order > cap:
            raise InputError("grouplike order exceeds cap")
        return order

    def lift(self, level):
        return GrouplikeAction(self.perm, tuple(s.lift(level) for s in self.scalars))

    def __eq__(self, other):
        return (
            isinstance(other, GrouplikeAction)
            and self.perm == other.perm
            and all(a == b for a, b in zip(self.scalars, other.scalars))
        )

    __hash__ = None

    def key(self):
        return (self.perm, tuple(s.sort_key() for s in self.scalars))

    def __repr__(self):
        return f"GrouplikeAction(perm={self.perm}, scalars={list(self.scalars)})"


class SkewAction:
    """Linear operator of a skew primitive: x . u_k = sum_a eta[a][k] u_a.
    arrows[k] lists the pairs (a, eta[a][k]) with eta[a][k] != 0, a
    ascending; eta stays dense, as its zero entries carry levels too."""

    __slots__ = ("eta", "arrows")

    def __init__(self, eta):
        eta = tuple(tuple(row) for row in eta)
        t = len(eta)
        if any(len(row) != t for row in eta):
            raise InputError("eta must be square")
        self.eta = eta
        self.arrows = tuple(
            tuple((a, row[k]) for a, row in enumerate(eta) if not row[k].is_zero())
            for k in range(t)
        )

    def is_zero(self):
        return not any(self.arrows)

    def support(self):
        return {(a, k) for k, col in enumerate(self.arrows) for a, _ in col}

    def transpose(self):
        return SkewAction(tuple(zip(*self.eta)))

    def lift(self, level):
        return SkewAction(tuple(tuple(e.lift(level) for e in row) for row in self.eta))

    def __repr__(self):
        return f"SkewAction({self.support()})"


def eta_from_entries(t, entries, level=1):
    """eta matrix with the given {(target, source): scalar} entries."""
    z = Cyc.zero(level)
    eta = [[z for _ in range(t)] for _ in range(t)]
    for (a, k), val in entries.items():
        eta[a][k] = val if isinstance(val, Cyc) else Cyc.rational(val, level)
    return SkewAction(eta)


# reports --------------------------------------------------------------------------


class Report:
    """Structured verdict: ok iff the violation list is empty."""

    def __init__(self, ok, violations):
        self.ok = ok
        self.violations = violations
        if ok == bool(violations):
            raise InputError("report verdict inconsistent with violations")

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"verdict": "pass" if self.ok else "fail", "violations": self.violations}

    def __repr__(self):
        if self.ok:
            return "Report(pass)"
        return f"Report(fail, {len(self.violations)} violations)"


# action instances -------------------------------------------------------------------


class ActionInstance:
    """A candidate action of a bosonization B(G, g, chi) on a presented algebra.

    gen_actions[j] is the operator of the j-th cyclic factor generator of G;
    skews[i] is the operator of x_i, whose attached grouplike is qls.gs[i].
    """

    def __init__(self, pres: Presentation, qls: QLSData, gen_actions, skews, gammas=None):
        t = pres.ngens
        gen_actions = tuple(gen_actions)
        skews = tuple(skews)
        # the fields are named as instance_to_json writes them
        if len(gen_actions) != qls.group.rank:
            raise InputError(f"grouplikes: need {qls.group.rank}, one per cyclic factor of G")
        if len(skews) != qls.theta:
            raise InputError(f"skews: need {qls.theta}, one per x_i")
        for j, g in enumerate(gen_actions):
            if len(g.perm) != t:
                raise InputError(f"grouplikes[{j}].perm: expected {t} entries")
        for i, x in enumerate(skews):
            if len(x.eta) != t:
                raise InputError(f"skews[{i}].eta: expected a {t} x {t} matrix")
        level = lcm_all(
            [pres.level, qls.group.char_level()]
            + [s.L for g in gen_actions for s in g.scalars]
            + [e.L for x in skews for row in x.eta for e in row]
            + ([g.L for g in gammas] if gammas else [])
        )
        self.pres = pres
        self.qls = qls
        self.level = level
        self.gen_actions = tuple(g.lift(level) for g in gen_actions)
        self.skews = tuple(x.lift(level) for x in skews)
        if gammas is None:
            gammas = tuple(Cyc.zero(level) for _ in skews)
        self.gammas = tuple(
            (g if isinstance(g, Cyc) else Cyc.rational(g, level)).lift(level)
            for g in gammas
        )

    def group_elem_action(self, exps) -> GrouplikeAction:
        out = GrouplikeAction.identity(self.pres.ngens, self.level)
        for j, e in enumerate(self.qls.group.reduce(exps)):
            if e:
                out = self.gen_actions[j].power(e).compose(out)
        return out

    @cached_property
    def _attached(self):
        return tuple(self.group_elem_action(g) for g in self.qls.gs)

    def attached_grouplike(self, i) -> GrouplikeAction:
        return self._attached[i]

    def chi_value(self, i, elem) -> Cyc:
        return self.qls.chis[i].eval(elem, self.level)

    def lam(self, i) -> Cyc:
        return self.qls.lam(i, self.level)


def taft_instance(pres, spec: TaftSpec, g_action: GrouplikeAction, eta) -> ActionInstance:
    if not isinstance(eta, SkewAction):
        eta = SkewAction(eta)
    qls = spec.to_qls()
    return ActionInstance(pres, qls, [g_action], [eta], [spec.gamma])


# acting on algebra elements -----------------------------------------------------------


def act_grouplike(pres: Presentation, g: GrouplikeAction, poly: NCPoly) -> NCPoly:
    return act_grouplike_raw(pres, g, poly.terms)


def act_grouplike_raw(pres, g, raw_terms) -> NCPoly:
    """Multiplicative extension of a monomial operator on a raw term map, then
    normalization."""
    terms = []
    for word, coeff in raw_terms.items():
        c = coeff
        for k in word:
            c = c * g.scalars[k]
        terms.append((tuple(g.perm[k] for k in word), c))
    return normalize(pres, terms)


def act_skew_raw(pres, g_att: GrouplikeAction, x: SkewAction, raw_terms) -> NCPoly:
    """Twisted Leibniz rule x.(a_1...a_d) = sum_pos (g.a_1)...(g.a_{pos-1}) (x.a_pos) a_{pos+1}...a_d.
    The prefix scalar is carried only up to the last letter of the word
    that x moves."""
    out_terms = []
    arrows = x.arrows
    scalars, perm = g_att.scalars, g_att.perm
    for word, coeff in raw_terms.items():
        last = len(word) - 1
        while last >= 0 and not arrows[word[last]]:
            last -= 1
        prefix_coeff = coeff
        prefix = ()
        for pos in range(last + 1):
            k = word[pos]
            for a, e in arrows[k]:
                out_terms.append((prefix + (a,) + word[pos + 1 :], prefix_coeff * e))
            if pos < last:
                prefix_coeff = prefix_coeff * scalars[k]
                prefix += (perm[k],)
    return normalize(pres, out_terms) if out_terms else NCPoly()


def act_skew(pres, inst: ActionInstance, i: int, poly: NCPoly) -> NCPoly:
    return act_skew_raw(pres, inst.attached_grouplike(i), inst.skews[i], poly.terms)


# degree-d operator matrices -------------------------------------------------------------


def root_exponents(level, grouplikes, pres=None):
    """(M, alphas, pi) with M = unit_level(level), every scalar of
    grouplikes[j] on u_k equal to zeta_M^alphas[j][k] and, when pres is
    given, pres.p[a][b] = zeta_M^pi[a][b] (pi is None without pres); every
    exponent lies in 0..M-1.  None unless each grouplike is diagonal with
    root-of-unity scalars and pres, if given, is a quantum affine space
    whose p are roots of unity."""
    if pres is not None and pres.family != AFFINE:
        return None

    def exps(values):
        out = [root_log(v, level) for v in values]
        return None if None in out else out

    alphas = [exps(g.scalars) if g.is_diagonal() else None for g in grouplikes]
    pi = None
    if pres is not None:
        if level not in pres._p_exponents:
            pres._p_exponents[level] = [exps(row) for row in pres.p]
        pi = pres._p_exponents[level]
    if None in alphas or (pi is not None and None in pi):
        return None
    return unit_level(level), alphas, pi


def fixed_relations(g: GrouplikeAction, rels):
    """For each relation r, whether g . r = 0 in A follows from exponents
    alone: g diagonal with scalars zeta_M^alpha_k, and every word w of r
    with the same exponent sum s = sum_{k in w} alpha_k (mod M).  Then
    g . r = zeta_M^s r, which is 0 in A.  False leaves the question open,
    for act_grouplike_raw to decide."""
    exps = root_exponents(lcm_all(s.L for s in g.scalars), [g])
    if exps is None:
        return [False] * len(rels)
    M, (alpha,), _ = exps
    return [len({sum(alpha[k] for k in w) % M for w in rel}) <= 1 for rel in rels]


def moved_relations(pres, g: GrouplikeAction, rels):
    """(index, g . r) for each relation r of rels that g does not preserve,
    g . r != 0 in A; the relations fixed_relations proves fixed get no
    normal form.  The one relation test of verification and the searches."""
    for ridx, (rel, fixed) in enumerate(zip(rels, fixed_relations(g, rels))):
        if not fixed:
            img = act_grouplike_raw(pres, g, rel)
            if not img.is_zero():
                yield ridx, img


@lru_cache(maxsize=None)
def _geometric(L, delta, n):
    """S(delta, n) = sum_{j<n} zeta_M^(j delta) at level L, M = unit_level(L)."""
    powers = root_table(L)[0]
    out = Cyc.zero(L)
    for j in range(n):
        out = out + powers[j * delta % len(powers)]
    return out


def _affine_columns(pres, words, index, level, exps, x):
    """operator_matrix columns on a quantum affine space for a diagonal
    grouplike g = diag(zeta_M^alpha) and p = zeta_M^pi, exps as
    root_exponents gives them.  A normal word is an exponent vector e, and
    g . w = zeta_M^(sum_k alpha_k e_k) w.  x . w is a sum over the letters k
    of w and the arrows eta_ak != 0 of x: the twisted Leibniz rule gives the
    e_k copies of u_k the prefix characters zeta_M^(c + j delta), j < e_k,
    and moving u_a to its place in e - eps_k + eps_a picks up the p of
    the letters it passes, so the term is eta_ak zeta_M^c S(delta, e_k) with
      a < k: delta = alpha_k + pi_ka,
             c = sum_{l<k} alpha_l e_l + sum_{a<l<k} pi_la e_l;
      a > k: delta = alpha_k - pi_ak,
             c = sum_{l<k} alpha_l e_l + pi_ak (e_k - 1) + sum_{k<l<a} pi_al e_l;
      a = k: delta = alpha_k, c = sum_{l<k} alpha_l e_l."""
    M, (alpha,), pi = exps
    powers = root_table(level)[0]
    t = pres.ngens
    if x is None:
        return [{index[w]: powers[sum(alpha[k] for k in w) % M]} for w in words]
    arrows = []
    for k, col in enumerate(x.arrows):
        for a, eta_ak in col:
            delta = alpha[k] + (pi[k][a] if a < k else -pi[a][k] if a > k else 0)
            arrows.append((a, k, eta_ak, delta % M))
    cols = []
    for w in words:
        e = [0] * t
        for k in w:
            e[k] += 1
        col = {}
        for a, k, eta_ak, delta in arrows:
            n = e[k]
            if not n:
                continue
            S = _geometric(level, delta, n)
            if S.is_zero():
                continue
            c = sum(alpha[l] * e[l] for l in range(k))
            if a < k:
                c += sum(pi[l][a] * e[l] for l in range(a + 1, k))
            elif a > k:
                c += pi[a][k] * (n - 1) + sum(pi[a][l] * e[l] for l in range(k + 1, a))
            target = list(w)
            target.remove(k)
            insort(target, a)
            row = index[tuple(target)]
            v = eta_ak * powers[c % M] * S
            cur = col.get(row)
            v = v if cur is None else cur + v
            if v.is_zero():
                del col[row]
            else:
                col[row] = v
        cols.append(col)
    return cols


def operator_matrix(pres, g: GrouplikeAction, d, x: SkewAction | None = None, words=None):
    """Sparse column-major matrix on the normal words of length d of the
    grouplike g, or, when x is given, of the skew primitive x with attached
    grouplike g.  words, a sub-list of those normal words, keeps only their
    columns; the rows always index all of them.  Degree one is the letters,
    whose images are already normal, so it needs no grading and is read off
    perm, scalars and eta.  Entries are at the lcm of the levels of pres, g
    and x there and wherever the closed form applies."""
    level = lcm_all(
        [pres.level]
        + [s.L for s in g.scalars]
        + ([] if x is None else [e.L for row in x.eta for e in row])
    )
    if d == 1:
        letters = range(pres.ngens) if words is None else [k for (k,) in words]
        if x is None:
            return [{g.perm[k]: g.scalars[k].lift(level)} for k in letters]
        return [{a: e.lift(level) for a, e in x.arrows[k]} for k in letters]
    basis = pres.basis(d)
    index = {w: i for i, w in enumerate(basis)}
    words = basis if words is None else words
    if pres.family == AFFINE:
        exps = root_exponents(level, [g], pres)
        if exps is not None:
            return _affine_columns(pres, words, index, level, exps, x)
    one = Cyc.one(g.scalars[0].L)
    cols = []
    for w in words:
        if x is None:
            img = act_grouplike_raw(pres, g, {w: one})
        else:
            img = act_skew_raw(pres, g, x, {w: one})
        cols.append({index[wi]: c for wi, c in img.terms.items()})
    return cols


# verification ----------------------------------------------------------------------------


def power_ratio(pres, g: GrouplikeAction, X, m, level):
    """linalg.s_ratio(X^m, G^m - 1) on degree one, G the matrix of g and X
    that of a skew primitive attached to g: the gamma of
    x^m = gamma (g^m - 1), ANY or None as s_ratio gives them."""
    Gm = linalg.s_pow(operator_matrix(pres, g, 1), m, level)
    return linalg.s_ratio(
        linalg.s_pow(X, m, level), linalg.s_sub(Gm, linalg.s_identity(len(X), level))
    )


def verify_module_algebra(inst: ActionInstance, d_check: int = 3) -> Report:
    """Full module-algebra check for an action instance.

    (a) every group generator preserves every defining relation;
    (b) every x_i kills every defining relation (twisted Leibniz);
    (c) the group generators commute and have the orders of G;
    (d) the operator identities of the Hopf relations hold on degree one:
        g x_i = chi_i(g) x_i g for each generator g of G, the
        chi-commutation x_i x_j = chi_j(g_i) x_j x_i, and
        x_i^{m_i} = gamma_i (g_i^{m_i} - 1).

    Once (a)-(d) pass, every identity but one holds on all of A.  By (a)
    and (b) each operator is well defined on A, and A is generated in
    degree one.  Each identity reads D = 0 for an operator D with
    D(ab) = D(a) sigma(b) + tau(a) D(b), sigma and tau grouplike, and such
    a D vanishes on A as soon as it vanishes on the generators:
      - D = h x_i - chi_i(h) x_i h, with sigma = h and tau = h g_i; this
        needs h g_i = g_i h, which (c) gives;
      - D = x_i^{m_i} - gamma_i (g_i^{m_i} - 1), with sigma = 1 and
        tau = g_i^{m_i}: the q-binomial formula, as lambda_i = chi_i(g_i)
        has order exactly m_i (Kassel, Quantum Groups, GTM 155, ch. IV);
      - D = x_i x_j - chi_j(g_i) x_j x_i, with sigma = 1 and tau = g_i g_j,
        but only when chi_i(g_j) chi_j(g_i) = 1.  Otherwise D(ab) keeps the
        cross term (1 - chi_j(g_i) chi_i(g_j)) x_i(g_j(a)) x_j(b).
    So on a graded presentation that passes (a)-(d), degrees 2..d_check
    re-check only the chi-commutation, only for the ordered pairs with
    chi_i(g_j) chi_j(g_i) != 1, and report a failure as
    relation-operator-nonzero-high-degree with its degree and pair.
    """
    pres, level, qls = inst.pres, inst.level, inst.qls
    gens = inst.gen_actions
    violations = []

    def fail(axiom, context, witness=None):
        violations.append({"axiom": axiom, "context": context, "witness": witness})

    def holds(ratio, c):
        # P = c Q, given ratio = s_ratio(P, Q)
        return ratio is linalg.ANY or ratio == c

    def commutes(A, B, c):
        return holds(linalg.s_ratio(linalg.s_mul(A, B), linalg.s_mul(B, A)), c)

    rels = [{w: c.lift(level) for w, c in rel.items()} for rel in pres.relations()]

    # (a) grouplikes act by automorphisms
    for j, g in enumerate(gens):
        for ridx, img in moved_relations(pres, g, rels):
            context = {"grouplike": j, "relation": ridx}
            fail("grouplike-preserves-relation", context, poly_to_json(pres, img))

    # (b) skew primitives kill the relations
    for i in range(qls.theta):
        g_att = inst.attached_grouplike(i)
        for ridx, rel in enumerate(rels):
            img = act_skew_raw(pres, g_att, inst.skews[i], rel)
            if not img.is_zero():
                fail("skew-kills-relation", {"skew": i, "relation": ridx}, poly_to_json(pres, img))

    # (c) the group relations
    for j in range(len(gens)):
        for k in range(j + 1, len(gens)):
            if gens[j].compose(gens[k]) != gens[k].compose(gens[j]):
                fail("group-generators-commute", {"pair": [j, k]})
    for j, g in enumerate(gens):
        d_j = qls.group.orders[j]
        if not g.power(d_j).is_identity():
            fail("group-generator-order", {"grouplike": j, "order": d_j})

    # (d) the Hopf-relation operators vanish on degree one
    theta, gs = qls.theta, qls.gs
    g_mats = [operator_matrix(pres, g, 1) for g in gens]
    x_mats = [
        operator_matrix(pres, inst.attached_grouplike(i), 1, inst.skews[i])
        for i in range(theta)
    ]
    for i, X in enumerate(x_mats):
        for j, G in enumerate(g_mats):
            generator = tuple(int(k == j) for k in range(len(gens)))
            if not commutes(G, X, inst.chi_value(i, generator)):
                fail("grouplike-skew-commutation", {"grouplike": j, "skew": i})
    pairs = [(i, j) for i in range(theta) for j in range(theta) if i != j]
    for i, j in pairs:
        if not commutes(x_mats[i], x_mats[j], inst.chi_value(j, gs[i])):
            fail("skew-skew-commutation", {"pair": [i, j]})
    for i, X in enumerate(x_mats):
        m_i = qls.m(i)
        if not holds(power_ratio(pres, inst.attached_grouplike(i), X, m_i, level), inst.gammas[i]):
            fail("skew-power-identity", {"skew": i, "m": m_i})

    # degrees 2..d_check: the chi-commutation of the pairs that are not
    # quantum-linear-space pairs, the one identity degree one does not settle
    open_pairs = [
        (i, j) for i, j in pairs if inst.chi_value(i, gs[j]) * inst.chi_value(j, gs[i]) != 1
    ]
    if violations or not open_pairs or not pres.is_graded():
        return Report(not violations, violations)
    involved = {i for pair in open_pairs for i in pair}
    for d in range(2, d_check + 1):
        mats = {
            i: operator_matrix(pres, inst.attached_grouplike(i), d, inst.skews[i])
            for i in involved
        }
        for i, j in open_pairs:
            if not commutes(mats[i], mats[j], inst.chi_value(j, gs[i])):
                fail("relation-operator-nonzero-high-degree", {"degree": d, "pair": [i, j]})
    return Report(not violations, violations)


def group_acts_faithfully(inst: ActionInstance):
    """Whether G embeds into GL(A_1) through the grouplike matrices."""
    for h in inst.qls.group.elements():
        if any(h):
            if inst.group_elem_action(h).is_identity():
                return False
    return True


def inner_faithfulness(inst: ActionInstance):
    """Verdict per the nonzero-x criterion, gated on its hypotheses.

    Returns one of "inner_faithful", "not_inner_faithful", or a tuple
    ("hypotheses_unmet", reason).  A zero skew matrix always kills inner
    faithfulness (the ideal it generates annihilates the algebra).  The
    hypothesis gate accepts either a faithful quantum linear space or a
    grouplike representation that is faithful on the degree-one space: the
    skew-primitive argument only needs 1 - g never to act by zero.
    """
    qls = inst.qls
    if any(x.is_zero() for x in inst.skews):
        return "not_inner_faithful"
    faithful, kernel_gens = is_faithful_qls(qls)
    if not faithful and not group_acts_faithfully(inst):
        return (
            "hypotheses_unmet",
            f"neither the quantum linear space nor the grouplike representation is "
            f"faithful; chi-kernel generated by {kernel_gens}",
        )
    for g in set(qls.gs):
        if qls.nu(g) >= 2:
            for i in range(qls.theta):
                if qls.gs[i] == g and qls.m(i) == 2:
                    return (
                        "hypotheses_unmet",
                        f"nu_g >= 2 with m_{i} = 2 at g = {g}",
                    )
    return "inner_faithful"


def dual_action(inst: ActionInstance) -> ActionInstance:
    """Transport a verified affine action to the Koszul dual exterior algebra.

    The grouplike matrices carry over unchanged (they are diagonal), the
    skew matrices transpose, and the characters invert.
    """
    if inst.pres.family != AFFINE:
        raise InputError("dual_action needs a quantum affine presentation")
    if any(not g.is_diagonal() for g in inst.gen_actions):
        raise InputError("dual_action needs diagonal grouplikes")
    if any(not g.is_zero() for g in inst.gammas):
        raise InputError("dual_action needs gamma = 0")
    dual_pres = koszul_dual(inst.pres)
    dual_qls = QLSData(inst.qls.group, inst.qls.gs, [c.inv() for c in inst.qls.chis])
    return ActionInstance(
        dual_pres,
        dual_qls,
        inst.gen_actions,
        [x.transpose() for x in inst.skews],
    )


# serialization -----------------------------------------------------------------------


class ScalarJson:
    """The JSON objects of one report's scalars: one {"level", "coeffs"}
    dict per distinct scalar, with "as_q_power" when q is given and
    as_q_power finds an exponent, and one list per distinct eta row.  A
    dense eta matrix repeats a few values many times, so each is converted
    once.  The objects are shared wherever their value recurs, so the tree
    they go into is read-only.  Make one per report: the memo keeps every
    object it has handed out."""

    def __init__(self, q=None):
        self.q = q
        self._scalars = {}
        self._rows = {}

    def scalar(self, c: Cyc):
        key = (c.L, c.den, *c.num)
        obj = self._scalars.get(key)
        if obj is None:
            obj = self._scalars[key] = c.to_json()
            if self.q is not None:
                e = as_q_power(c, self.q)
                if e is not None:
                    obj["as_q_power"] = e
        return obj

    def row(self, row):
        """The list of the scalars of row, one list per distinct row; the
        ids of its dicts name it, since the memo keeps them alive."""
        objs = [self.scalar(e) for e in row]
        return self._rows.setdefault(tuple(map(id, objs)), objs)


def instance_to_json(inst: ActionInstance):
    """The instance as a JSON tree.  Its scalar dicts and eta rows are
    shared (ScalarJson), so treat the tree as read-only; the hopf fields
    and every other list are fresh objects, so an edit to one of them
    changes that field alone."""
    enc = ScalarJson()
    qls = inst.qls
    if qls.group.rank == 1 and qls.theta == 1 and qls.gs[0] == (1,):
        hopf = {
            "type": "taft",
            "n": qls.group.orders[0],
            "m": qls.m(0),
            "lambda": inst.lam(0).to_json(),
            "gamma": inst.gammas[0].to_json(),
        }
    else:
        hopf = {
            "type": "bosonization",
            "group": list(qls.group.orders),
            "g": [list(g) for g in qls.gs],
            "chi": [list(c.exps) for c in qls.chis],
            "gamma": [g.to_json() for g in inst.gammas],
        }
    return {
        "presentation": presentation_to_json(inst.pres),
        "hopf": hopf,
        "grouplikes": [
            {"perm": list(g.perm), "alpha": [enc.scalar(s) for s in g.scalars]}
            for g in inst.gen_actions
        ],
        "skews": [
            {"eta": [enc.row(row) for row in x.eta], "grouplike": i}
            for i, x in enumerate(inst.skews)
        ],
    }


def _int_tuple(values, field, length=None, low=None):
    if length is not None and len(values) != length:
        raise InputError(f"{field}: expected {length} entries, got {len(values)}")
    return tuple(as_int(v, f"{field}[{i}]", low) for i, v in enumerate(values))


def _scalar_reader():
    """Cyc.from_json that reads each distinct scalar object once: one Cyc
    per value of the fields it reads, keyed by each value's type as well,
    since Python's == and hash equate 1, 1.0 and True.  An object that
    cannot be keyed, or that is new, goes to Cyc.from_json, so whatever it
    refuses is refused as before; only what it accepts is kept."""
    memo = {}

    def read(obj):
        try:
            level, coeffs = obj["level"], obj["coeffs"]
            key = (level.__class__, level, coeffs.__class__, tuple(coeffs), tuple(map(type, coeffs)))
            c = memo.get(key)
        except (KeyError, IndexError, TypeError):
            return Cyc.from_json(obj)
        if c is None:
            c = memo[key] = Cyc.from_json(obj)
        return c

    return read


def instance_from_json(obj) -> ActionInstance:
    """The instance of a JSON tree that instance_to_json writes.  Equal
    scalar objects are read once (_scalar_reader), so the instance's
    grouplikes, eta matrices and hopf scalars share their Cyc values."""
    scalar = _scalar_reader()
    try:
        pres = presentation_from_json(obj["presentation"])
        t = pres.ngens
        hopf = obj["hopf"]
        kind = hopf["type"]
        grouplikes = []
        for j, rec in enumerate(obj["grouplikes"]):
            perm = _int_tuple(rec["perm"], f"grouplikes[{j}].perm", t)
            alpha = rec["alpha"]
            if len(alpha) != t:
                raise InputError(f"grouplikes[{j}].alpha: expected {t} entries, got {len(alpha)}")
            grouplikes.append(GrouplikeAction(perm, [scalar(s) for s in alpha]))
        skews = []
        for i, rec in enumerate(obj["skews"]):
            eta = [[scalar(e) for e in row] for row in rec["eta"]]
            if len(eta) != t or any(len(row) != t for row in eta):
                raise InputError(f"skews[{i}].eta: expected a {t} x {t} matrix")
            skews.append(SkewAction(eta))
        if kind == "taft":
            spec = TaftSpec(
                as_int(hopf["n"], "hopf.n", 1),
                as_int(hopf["m"], "hopf.m", 1),
                scalar(hopf["lambda"]),
                scalar(hopf["gamma"]) if "gamma" in hopf else Cyc.zero(),
            )
        elif kind == "bosonization":
            group = AbelianGroup(_int_tuple(hopf["group"], "hopf.group", low=1))
            rank = group.rank
            gs = [_int_tuple(g, f"hopf.g[{i}]", rank) for i, g in enumerate(hopf["g"])]
            chis = [
                Character(group, _int_tuple(c, f"hopf.chi[{i}]", rank))
                for i, c in enumerate(hopf["chi"])
            ]
            if len(chis) != len(gs):
                raise InputError(
                    f"hopf.chi: expected {len(gs)} characters, one per entry of hopf.g, got {len(chis)}"
                )
            gammas = hopf.get("gamma", [])
            if not isinstance(gammas, list) or len(gammas) not in (0, len(gs)):
                raise InputError(
                    f"hopf.gamma: expected a list of {len(gs)} scalars, one per entry of hopf.g"
                )
            gammas = [scalar(g) for g in gammas] or None
        else:
            raise InputError(f"unknown hopf type {kind!r}")
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"malformed instance object: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed instance object: {exc}") from exc
    if kind == "taft":
        for field, items in (("grouplikes", grouplikes), ("skews", skews)):
            if len(items) != 1:
                raise InputError(f"{field}: a taft instance needs exactly one, got {len(items)}")
        return taft_instance(pres, spec, grouplikes[0], skews[0])
    return ActionInstance(pres, QLSData(group, gs, chis), grouplikes, skews, gammas)
