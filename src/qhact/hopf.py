"""Acting Hopf algebras and module-algebra verification.

The acting algebras are bosonizations of quantum linear spaces over a
finite abelian group: grouplike generators act as monomial matrices on the
degree-one space, each skew-primitive x_i acts through a matrix eta with
x_i . u_k = sum_a eta[a][k] u_a and the twisted Leibniz rule
x . (ab) = (g . a)(x . b) + (x . a) b.

Generalized Taft algebras are the rank-one case over a cyclic group and
get a thin spec type of their own.  Verification checks that every
grouplike preserves the defining relations, every x_i kills them, and the
degree-one operator identities of the Hopf relations hold; degree one
suffices because the relation elements are skew-primitive and the module
algebra is generated in degree one, but a configurable re-check on low
degrees is run as an independent guard.

Every matrix of a grouplike or a skew primitive on a graded piece A_d comes
from one builder, `operator_matrix`: column w is the normal form of the
operator applied to the word w.  Verification, fixed spaces, trace series
and the Molien check all use it; degree one is indexed by the letters, so
it serves the ungraded Weyl family too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd

from . import linalg
from .cyclotomic import Cyc, InputError, as_int, lcm_all, root_powers
from .ncalg import (
    AFFINE,
    NCPoly,
    Presentation,
    koszul_dual,
    normalize,
    poly_to_json,
)


# group data -------------------------------------------------------------------


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
        return product(*(range(d) for d in self.orders))

    def reduce(self, exps):
        return tuple(e % d for e, d in zip(exps, self.orders))

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def element_order(self, exps):
        return lcm_all(d // gcd(d, e) for e, d in zip(exps, self.orders))

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
        from .cyclotomic import root_of_unity

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

    def n(self, i):
        return self.group.element_order(self.gs[i])

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
        e = root_powers(self.n)(self.lam)
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
        out = GrouplikeAction.identity(len(self.perm), self.scalars[0].L)
        base = self
        while e:
            if e & 1:
                out = base.compose(out)
            base = base.compose(base)
            e >>= 1
        return out

    def inv(self):
        inv_perm = [0] * len(self.perm)
        inv_scal = [None] * len(self.perm)
        for k in range(len(self.perm)):
            inv_perm[self.perm[k]] = k
            inv_scal[self.perm[k]] = self.scalars[k].inv()
        return GrouplikeAction(tuple(inv_perm), tuple(inv_scal))

    def order(self, cap=10_000):
        cur = self
        for e in range(1, cap + 1):
            if cur.is_identity():
                return e
            cur = cur.compose(self)
        raise InputError("grouplike order exceeds cap")

    def matrix(self, level=None):
        """Sparse column-major matrix: column k is scalars[k] at row perm[k]."""
        level = level or lcm_all(s.L for s in self.scalars)
        return [{p: s.lift(level)} for p, s in zip(self.perm, self.scalars)]

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
    """Linear operator of a skew primitive: x . u_k = sum_a eta[a][k] u_a."""

    __slots__ = ("eta",)

    def __init__(self, eta):
        eta = tuple(tuple(row) for row in eta)
        t = len(eta)
        if any(len(row) != t for row in eta):
            raise InputError("eta must be square")
        self.eta = eta

    def is_zero(self):
        return all(e.is_zero() for row in self.eta for e in row)

    def support(self):
        return {
            (a, k)
            for a, row in enumerate(self.eta)
            for k, e in enumerate(row)
            if not e.is_zero()
        }

    def matrix(self, level=None):
        """Sparse column-major matrix: column k holds the nonzero eta[a][k]."""
        level = level or lcm_all(
            [1] + [e.L for row in self.eta for e in row if not e.is_zero()]
        )
        return [
            {a: row[k].lift(level) for a, row in enumerate(self.eta) if not row[k].is_zero()}
            for k in range(len(self.eta))
        ]

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
        if len(gen_actions) != qls.group.rank:
            raise InputError("need one grouplike action per cyclic factor of G")
        if len(skews) != qls.theta:
            raise InputError("need one skew action per x_i")
        for g in gen_actions:
            if len(g.perm) != t:
                raise InputError("grouplike action has wrong dimension")
        for x in skews:
            if len(x.eta) != t:
                raise InputError("skew action has wrong dimension")
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

    def attached_grouplike(self, i) -> GrouplikeAction:
        return self.group_elem_action(self.qls.gs[i])

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
    """Twisted Leibniz rule x.(a_1...a_d) = sum_pos (g.a_1)...(g.a_{pos-1}) (x.a_pos) a_{pos+1}...a_d."""
    out_terms = []
    eta = x.eta
    for word, coeff in raw_terms.items():
        prefix_coeff = coeff
        prefix = []
        for pos, k in enumerate(word):
            for a in range(len(eta)):
                e = eta[a][k]
                if e.is_zero():
                    continue
                out_terms.append(
                    (tuple(prefix) + (a,) + word[pos + 1 :], prefix_coeff * e)
                )
            prefix_coeff = prefix_coeff * g_att.scalars[k]
            prefix.append(g_att.perm[k])
    return normalize(pres, out_terms)


def act_skew(pres, inst: ActionInstance, i: int, poly: NCPoly) -> NCPoly:
    return act_skew_raw(pres, inst.attached_grouplike(i), inst.skews[i], poly.terms)


# degree-d operator matrices -------------------------------------------------------------


def operator_matrix(pres, g: GrouplikeAction, d, x: SkewAction | None = None, words=None):
    """Sparse column-major matrix on the normal words of length d of the
    grouplike g, or, when x is given, of the skew primitive x with attached
    grouplike g.  Degree one is the letters, so it needs no grading.  words,
    a sub-list of those normal words, keeps only their columns; the rows
    always index all of them."""
    basis = [(k,) for k in range(pres.ngens)] if d == 1 else pres.basis(d)
    index = {w: i for i, w in enumerate(basis)}
    one = Cyc.one(g.scalars[0].L)
    cols = []
    for w in basis if words is None else words:
        if x is None:
            img = act_grouplike_raw(pres, g, {w: one})
        else:
            img = act_skew_raw(pres, g, x, {w: one})
        cols.append({index[wi]: c for wi, c in img.terms.items()})
    return cols


# verification ----------------------------------------------------------------------------


def verify_module_algebra(inst: ActionInstance, d_check: int = 3) -> Report:
    """Full module-algebra check for an action instance.

    (a) every group generator preserves every defining relation;
    (b) every x_i kills every defining relation (twisted Leibniz);
    (c) the group generators commute and have the orders of G;
    (d) the operator identities of the Hopf relations, g x_i = chi_i(g) x_i g,
        the chi-commutation of the x_i, and x_i^{m_i} = gamma_i (g_i^{m_i} - 1),
        on degree one and, for graded presentations that pass everything on
        degree one, re-checked on degrees 2..d_check.
    """
    pres = inst.pres
    level = inst.level
    violations = []
    relations = pres.relations()

    def lift_rel(rel):
        return {w: c.lift(level) for w, c in rel.items()}

    rels = [lift_rel(r) for r in relations]

    # (a) grouplikes act by automorphisms
    for j, g in enumerate(inst.gen_actions):
        for ridx, rel in enumerate(rels):
            img = act_grouplike_raw(pres, g, rel)
            if not img.is_zero():
                violations.append(
                    {
                        "axiom": "grouplike-preserves-relation",
                        "context": {"grouplike": j, "relation": ridx},
                        "witness": poly_to_json(pres, img),
                    }
                )

    # (b) skew primitives kill the relations
    for i in range(inst.qls.theta):
        g_att = inst.attached_grouplike(i)
        for ridx, rel in enumerate(rels):
            img = act_skew_raw(pres, g_att, inst.skews[i], rel)
            if not img.is_zero():
                violations.append(
                    {
                        "axiom": "skew-kills-relation",
                        "context": {"skew": i, "relation": ridx},
                        "witness": poly_to_json(pres, img),
                    }
                )

    # (c) the group relations
    gens = inst.gen_actions
    for j in range(len(gens)):
        for k in range(j + 1, len(gens)):
            if gens[j].compose(gens[k]) != gens[k].compose(gens[j]):
                violations.append(
                    {
                        "axiom": "group-generators-commute",
                        "context": {"pair": [j, k]},
                        "witness": None,
                    }
                )
    for j, g in enumerate(gens):
        d_j = inst.qls.group.orders[j]
        if not g.power(d_j).is_identity():
            violations.append(
                {
                    "axiom": "group-generator-order",
                    "context": {"grouplike": j, "order": d_j},
                    "witness": None,
                }
            )

    # (d) the Hopf-relation operators vanish on degree one and, as an
    # independent guard, on degrees 2..d_check
    gen_elems = []
    for j in range(inst.qls.group.rank):
        e = [0] * inst.qls.group.rank
        e[j] = 1
        gen_elems.append(tuple(e))

    def nonzero(d, axiom, context):
        if d > 1:
            axiom, context = "relation-operator-nonzero-high-degree", {"degree": d, **context}
        violations.append({"axiom": axiom, "context": context, "witness": None})

    for d in range(1, max(d_check, 1) + 1):
        if d == 2 and (violations or not pres.is_graded()):
            break
        g_mats = [operator_matrix(pres, g, d) for g in inst.gen_actions]
        x_mats = [
            operator_matrix(pres, inst.attached_grouplike(i), d, inst.skews[i])
            for i in range(inst.qls.theta)
        ]
        for i, X in enumerate(x_mats):
            for j, G in enumerate(g_mats):
                chi = inst.chi_value(i, gen_elems[j])
                delta = linalg.s_sub(
                    linalg.s_mul(G, X), linalg.s_scale(linalg.s_mul(X, G), chi)
                )
                if not linalg.s_is_zero(delta):
                    nonzero(d, "grouplike-skew-commutation", {"grouplike": j, "skew": i})
        for i in range(len(x_mats)):
            for j in range(len(x_mats)):
                if i == j:
                    continue
                chi = inst.chi_value(j, inst.qls.gs[i])
                delta = linalg.s_sub(
                    linalg.s_mul(x_mats[i], x_mats[j]),
                    linalg.s_scale(linalg.s_mul(x_mats[j], x_mats[i]), chi),
                )
                if not linalg.s_is_zero(delta):
                    nonzero(d, "skew-skew-commutation", {"pair": [i, j]})
        for i, X in enumerate(x_mats):
            m_i = inst.qls.m(i)
            ident = linalg.s_identity(len(X), level)
            power = linalg.s_pow(X, m_i, level)
            gm = operator_matrix(pres, inst.attached_grouplike(i).power(m_i), d)
            rhs_op = linalg.s_scale(linalg.s_sub(gm, ident), inst.gammas[i])
            if not linalg.s_is_zero(linalg.s_sub(power, rhs_op)):
                context = {"skew": i, "m": m_i} if d == 1 else {"skew-power": i}
                nonzero(d, "skew-power-identity", context)
    return Report(not violations, violations)


def group_acts_faithfully(inst: ActionInstance, cap=100_000):
    """Whether G embeds into GL(A_1) through the grouplike matrices."""
    if inst.qls.group.order() > cap:
        raise InputError("group too large for the faithfulness sweep")
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


def taft_inner_faithful(inst: ActionInstance, n: int):
    """Rank-one criterion: x nonzero and the grouplike matrix has order n."""
    if inst.qls.theta != 1:
        raise InputError("rank-one criterion needs exactly one skew primitive")
    if inst.skews[0].is_zero():
        return False
    return inst.gen_actions[0].order() == n


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


def instance_to_json(inst: ActionInstance):
    from .ncalg import presentation_to_json

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
            {"perm": list(g.perm), "alpha": [s.to_json() for s in g.scalars]}
            for g in inst.gen_actions
        ],
        "skews": [
            {"eta": [[e.to_json() for e in row] for row in x.eta], "grouplike": i}
            for i, x in enumerate(inst.skews)
        ],
    }


def _int_tuple(values, field):
    return tuple(as_int(v, f"{field}[{i}]") for i, v in enumerate(values))


def instance_from_json(obj) -> ActionInstance:
    from .ncalg import presentation_from_json

    try:
        pres = presentation_from_json(obj["presentation"])
        hopf = obj["hopf"]
        kind = hopf["type"]
        grouplikes = [
            GrouplikeAction(
                _int_tuple(rec["perm"], f"grouplikes[{j}].perm"),
                [Cyc.from_json(s) for s in rec["alpha"]],
            )
            for j, rec in enumerate(obj["grouplikes"])
        ]
        skews = [
            SkewAction([[Cyc.from_json(e) for e in row] for row in rec["eta"]])
            for rec in obj["skews"]
        ]
        if kind == "taft":
            spec = TaftSpec(
                as_int(hopf["n"], "hopf.n"),
                as_int(hopf["m"], "hopf.m"),
                Cyc.from_json(hopf["lambda"]),
                Cyc.from_json(hopf["gamma"]) if "gamma" in hopf else Cyc.zero(),
            )
        elif kind == "bosonization":
            group = AbelianGroup(_int_tuple(hopf["group"], "hopf.group"))
            gs = [_int_tuple(g, f"hopf.g[{i}]") for i, g in enumerate(hopf["g"])]
            chis = [
                Character(group, _int_tuple(c, f"hopf.chi[{i}]"))
                for i, c in enumerate(hopf["chi"])
            ]
            gammas = [Cyc.from_json(g) for g in hopf.get("gamma", [])] or None
        else:
            raise InputError(f"unknown hopf type {kind!r}")
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"malformed instance object: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed instance object: {exc}") from exc
    if kind == "taft":
        if len(grouplikes) != 1 or len(skews) != 1:
            raise InputError("taft instance needs one grouplike and one skew")
        return taft_instance(pres, spec, grouplikes[0], skews[0])
    return ActionInstance(pres, QLSData(group, gs, chis), grouplikes, skews, gammas)
