"""Finitely presented quantum algebras with canonical-form rewriting.

Four families are supported, each with a fixed normal-word order:

* quantum affine space  k_p[u_1..u_t]      (normal: non-decreasing indices)
* quantum exterior algebra on u_i*          (normal: strictly increasing)
* single-parameter quantum matrix algebra   (normal: row-major non-decreasing)
* multiparameter quantized Weyl algebra     (normal: v_1^a u_1^b v_2^... )

Each family's confluent straightening rules are derived from its defining
relations (Bergman's diamond lemma).  Each relation has exactly one
length-two word ba with b >= a, its leading word, and the rule rewrites ba
as the relation solved for ba.  The rules are built the first time a
normal form needs them.

Elements are NCPoly values: finite maps from normal words to Cyc scalars.
Degree-two ideal membership is decided by normal form = 0; confluence_check
certifies the rule set per parameter choice by resolving every length-3
overlap both ways.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement

from .cyclotomic import Cyc, InputError, as_int, lcm_all, root_log, root_table

AFFINE = "quantum_affine"
EXTERIOR = "quantum_exterior"
MATRIX = "quantum_matrix"
WEYL = "quantized_weyl"


class NotGraded(InputError):
    """Operation needs a graded family; the quantized Weyl algebra is filtered only."""


def _as_cyc(x, level=1):
    if isinstance(x, Cyc):
        return x
    return Cyc.rational(x, level)


def _check_mult_antisym(p):
    t = len(p)
    for row in p:
        if len(row) != t:
            raise InputError("p must be square")
    for i in range(t):
        if p[i][i] != 1:
            raise InputError(f"p[{i}][{i}] must be 1")
        for j in range(t):
            if p[i][j].is_zero():
                raise InputError("p entries must be nonzero")
            if p[i][j] * p[j][i] != 1:
                raise InputError(f"p[{i}][{j}] * p[{j}][{i}] != 1")


class NCPoly:
    """Canonical noncommutative polynomial: map normal word -> nonzero Cyc."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[w] == other.terms[w] for w in self.terms)

    __hash__ = None

    def items(self):
        return self.terms.items()

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = [f"{c!r}*{w}" for w, c in sorted(self.terms.items())]
        return "NCPoly(" + " + ".join(bits) + ")"


def p_add(a: NCPoly, b: NCPoly) -> NCPoly:
    out = dict(a.terms)
    for w, c in b.terms.items():
        cur = out.get(w)
        nv = c if cur is None else cur + c
        if nv.is_zero():
            out.pop(w, None)
        else:
            out[w] = nv
    return NCPoly(out)


def p_sub(a: NCPoly, b: NCPoly) -> NCPoly:
    return p_add(a, p_scale(b, Cyc.rational(-1)))


def p_scale(a: NCPoly, c) -> NCPoly:
    if not isinstance(c, Cyc):
        c = Cyc.rational(c)
    if c.is_zero():
        return NCPoly()
    return NCPoly({w: c * v for w, v in a.terms.items()})


class Presentation:
    """One of the four supported families.  Its straightening rules are
    derived from relations() the first time a normal form needs them."""

    def __init__(self, family, *, t=None, N=None, p=None, q=None, gammas=None, level=None):
        self.family = family
        if family in (AFFINE, EXTERIOR):
            if t is None or p is None:
                raise InputError("affine/exterior need t and p")
            lev = level or lcm_all(
                [1] + [e.L for row in p for e in row if isinstance(e, Cyc)]
            )
            p = tuple(tuple(_as_cyc(e, lev).lift(lev) for e in row) for row in p)
            _check_mult_antisym(p)
            if len(p) != t:
                raise InputError("p size must match t")
            self.t = t
            self.p = p
            self.level = lev
            self.gens = tuple(
                (f"u{i+1}" if family == AFFINE else f"u{i+1}*") for i in range(t)
            )
        elif family == MATRIX:
            if N is None or q is None:
                raise InputError("matrix family needs N and q")
            q = _as_cyc(q)
            if q.is_zero():
                raise InputError("q must be nonzero")
            lev = level or q.L
            self.N = N
            self.q = q.lift(lev)
            self.level = lev
            self.gens = tuple(f"Y{i+1}{j+1}" for i in range(N) for j in range(N))
        elif family == WEYL:
            if t is None or p is None or gammas is None:
                raise InputError("weyl family needs t, p, gammas")
            lev = level or lcm_all(
                [1]
                + [e.L for row in p for e in row if isinstance(e, Cyc)]
                + [g.L for g in gammas if isinstance(g, Cyc)]
            )
            p = tuple(tuple(_as_cyc(e, lev).lift(lev) for e in row) for row in p)
            _check_mult_antisym(p)
            gammas = tuple(_as_cyc(g, lev).lift(lev) for g in gammas)
            if any(g.is_zero() for g in gammas):
                raise InputError("gamma entries must be nonzero")
            if len(p) != t or len(gammas) != t:
                raise InputError("p and gammas must match t")
            self.t = t
            self.p = p
            self.gammas = gammas
            self.level = lev
            names = []
            for i in range(t):
                names += [f"v{i+1}", f"u{i+1}"]
            self.gens = tuple(names)
        else:
            raise InputError(f"unknown family {family!r}")
        self._one = Cyc.one(self.level)
        self._nf_cache: dict[tuple, dict] = {}
        self._skew_tables: dict[tuple, object] = {}
        self._p_exponents: dict[int, list] = {}

    # the rule table ---------------------------------------------------------

    @cached_property
    def _rules(self):
        """The straightening rules, read off relations() on first use.  Each
        relation has one length-two word ba with b >= a; its rule sends ba to
        minus the rest of the relation over the coefficient c of ba.  Each
        distinct quotient -v / c is computed once and shared by the rules."""
        rules, quotients = {}, {}
        for rel in self.relations():
            lead = next(w for w in rel if len(w) == 2 and w[0] >= w[1])
            c = rel[lead]
            terms = []
            for w, v in rel.items():
                if w != lead:
                    key = (v.sort_key(), c.sort_key())
                    if key not in quotients:
                        quotients[key] = -(v / c)
                    terms.append((quotients[key], w))
            rules[lead] = tuple(terms)
        return rules

    # basic structure ------------------------------------------------------

    @property
    def ngens(self):
        return len(self.gens)

    def is_graded(self):
        return self.family != WEYL

    def gen_weight(self, k):
        """Grading weight (graded families) or filtration weight (Weyl)."""
        if self.family == WEYL:
            return k // 2 + 1
        return 1

    def __eq__(self, other):
        if not isinstance(other, Presentation) or self.family != other.family:
            return False
        if self.family == MATRIX:
            return self.N == other.N and self.q == other.q
        if self.family == WEYL:
            return (
                self.t == other.t
                and self.p == other.p
                and all(a == b for a, b in zip(self.gammas, other.gammas))
            )
        return self.t == other.t and all(
            a == b for ra, rb in zip(self.p, other.p) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __repr__(self):
        if self.family == MATRIX:
            return f"Presentation({self.family}, N={self.N})"
        return f"Presentation({self.family}, t={self.t})"

    # relations -------------------------------------------------------------

    def relations(self):
        """Degree-two (Weyl: filtration-level-two) defining relations as raw
        free-algebra term maps; each normalizes to zero."""
        one = self._one
        rels = []
        if self.family == AFFINE:
            for i in range(self.t):
                for j in range(i + 1, self.t):
                    rels.append({(i, j): one, (j, i): -self.p[i][j]})
        elif self.family == EXTERIOR:
            for i in range(self.t):
                rels.append({(i, i): one})
            for i in range(self.t):
                for j in range(i + 1, self.t):
                    rels.append({(i, j): one, (j, i): self.p[j][i]})
        elif self.family == MATRIX:
            N, q = self.N, self.q
            corr = q - q.inv()
            for k2 in range(N * N):
                for k1 in range(k2):
                    i, j = divmod(k1, N)
                    l, m = divmod(k2, N)
                    if i == l or j == m:
                        rels.append({(k1, k2): one, (k2, k1): -q})
                    elif j > m:
                        rels.append({(k1, k2): one, (k2, k1): -one})
                    else:
                        rels.append(
                            {
                                (k1, k2): one,
                                (k2, k1): -one,
                                (i * N + m, l * N + j): -corr,
                            }
                        )
        else:
            t, p, gam = self.t, self.p, self.gammas
            for i in range(t):
                for j in range(i + 1, t):
                    rels.append({(2 * i, 2 * j): one, (2 * j, 2 * i): -p[i][j]})
                    rels.append(
                        {(2 * i + 1, 2 * j + 1): one, (2 * j + 1, 2 * i + 1): -gam[i] * p[i][j]}
                    )
                    rels.append({(2 * i + 1, 2 * j): one, (2 * j, 2 * i + 1): -p[j][i]})
                    rels.append({(2 * j + 1, 2 * i): one, (2 * i, 2 * j + 1): -gam[i] * p[i][j]})
            for j in range(t):
                rel = {(2 * j + 1, 2 * j): one, (): -one, (2 * j, 2 * j + 1): -gam[j]}
                for l in range(j):
                    c = gam[l] - one
                    if not c.is_zero():
                        rel[(2 * l, 2 * l + 1)] = -c
                rels.append(rel)
        return rels

    # bases ----------------------------------------------------------------

    def basis(self, d):
        """All normal words of total degree d, lexicographic order."""
        if not self.is_graded():
            raise NotGraded("quantized Weyl algebras are filtered, not graded; "
                            "use pbw_words_up_to_length")
        if d < 0:
            raise InputError("degree must be >= 0")
        n = self.ngens
        if self.family == EXTERIOR:
            return [tuple(w) for w in combinations(range(n), d)]
        return [tuple(w) for w in combinations_with_replacement(range(n), d)]

    def pbw_words_up_to_length(self, length):
        """Normal PBW words of word length <= length (any family)."""
        out = [()]
        frontier = [()]
        rules = self._rules
        for _ in range(length):
            nxt = []
            for w in frontier:
                last = w[-1] if w else None
                for g in range(self.ngens):
                    if last is not None and (last, g) in rules:
                        continue
                    nxt.append(w + (g,))
            out.extend(nxt)
            frontier = nxt
        return out

    def word_names(self, word):
        return [self.gens[k] for k in word]


# normalization engine ----------------------------------------------------------


def nf_word(pres: Presentation, word) -> dict:
    """Full normal form of a single word as a dict {normal word: Cyc}."""
    word = tuple(word)
    cached = pres._nf_cache.get(word)
    if cached is not None:
        return cached
    if pres.family in (AFFINE, EXTERIOR):
        result = _nf_affine(pres, word)
    else:
        result = _nf_generic(pres, word)
    if len(word) <= 24 and len(pres._nf_cache) < 500_000:
        pres._nf_cache[word] = result
    return result


def _nf_affine(pres, word):
    """Normal form of a word in an affine or exterior presentation, where
    each rule ba -> c ab (a < b) has one term.  Sorting the word swaps each
    pair b > a with b before a once, picking up c (p[b][a] affine, -p[a][b]
    exterior); the coefficient is prod c^(number of such pairs).  An
    exterior word with a repeated letter is 0."""
    if pres.family == EXTERIOR and len(set(word)) < len(word):
        return {}
    t = pres.t
    seen = [0] * t
    inversions = {}
    for b in word:
        for a in range(b + 1, t):
            if seen[a]:
                inversions[a, b] = inversions.get((a, b), 0) + seen[a]
        seen[b] += 1
    coeff = pres._one
    for pair, n in inversions.items():
        coeff = coeff * _pair_power(pres, pair, n)
    return {tuple(sorted(word)): coeff}


def _pair_power(pres, pair, n):
    """c^n for the factor c of the rule of pair: one lookup in the root
    table when c is a root of unity."""
    base = pres._rules[pair][0][0]
    e = root_log(base, base.L)
    if e is None:
        return base**n
    powers = root_table(base.L)[0]
    return powers[e * n % len(powers)]


def _nf_generic(pres, word):
    rules = pres._rules
    out: dict[tuple, Cyc] = {}
    stack = [(pres._one, tuple(word))]
    while stack:
        coeff, w = stack.pop()
        idx = -1
        n = len(w)
        for i in range(n - 1):
            if (w[i], w[i + 1]) in rules:
                idx = i
                break
        if idx < 0:
            cur = out.get(w)
            nv = coeff if cur is None else cur + coeff
            if nv.is_zero():
                out.pop(w, None)
            else:
                out[w] = nv
            continue
        pre, post = w[:idx], w[idx + 2 :]
        for rc, rw in rules[(w[idx], w[idx + 1])]:
            stack.append((coeff * rc, pre + rw + post))
    return out


def normalize(pres: Presentation, terms) -> NCPoly:
    """Canonical form of a raw term map over arbitrary words."""
    if isinstance(terms, NCPoly):
        items = terms.terms.items()
    elif isinstance(terms, dict):
        items = terms.items()
    else:
        items = terms
    out: dict[tuple, Cyc] = {}
    for word, coeff in items:
        if not isinstance(coeff, Cyc):
            coeff = Cyc.rational(coeff, pres.level)
        if coeff.is_zero():
            continue
        for w, c in nf_word(pres, tuple(word)).items():
            v = coeff * c
            cur = out.get(w)
            nv = v if cur is None else cur + v
            if nv.is_zero():
                out.pop(w, None)
            else:
                out[w] = nv
    return NCPoly(out)


def from_word(pres, word, coeff=1) -> NCPoly:
    return normalize(pres, [(tuple(word), _as_cyc(coeff, pres.level))])


def multiply(pres: Presentation, a: NCPoly, b: NCPoly) -> NCPoly:
    out: dict[tuple, Cyc] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            c = ca * cb
            for w, k in nf_word(pres, wa + wb).items():
                v = c * k
                cur = out.get(w)
                nv = v if cur is None else cur + v
                if nv.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = nv
    return NCPoly(out)


def commutator(pres, a, b):
    return p_sub(multiply(pres, a, b), multiply(pres, b, a))


# confluence ---------------------------------------------------------------------


class ConfluenceReport:
    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok


def confluence_check(pres: Presentation) -> ConfluenceReport:
    """Resolve every length-3 overlap ambiguity both ways and compare."""
    rules = pres._rules
    failures = []
    n = pres.ngens
    for a in range(n):
        for b in range(n):
            if (a, b) not in rules:
                continue
            for c in range(n):
                if (b, c) not in rules:
                    continue
                left_terms = [(rw + (c,), rc) for rc, rw in rules[(a, b)]]
                right_terms = [((a,) + rw, rc) for rc, rw in rules[(b, c)]]
                left = normalize(pres, left_terms)
                right = normalize(pres, right_terms)
                if left != right:
                    failures.append(((a, b, c), left, right))
    return ConfluenceReport(not failures, failures)


def koszul_dual(pres: Presentation) -> Presentation:
    """Quantum exterior algebra on the dual generators, built from the same p."""
    if pres.family != AFFINE:
        raise InputError("koszul_dual is defined for quantum affine spaces")
    return Presentation(EXTERIOR, t=pres.t, p=pres.p, level=pres.level)


# family constructors -----------------------------------------------------------


def quantum_affine(p, level=None) -> Presentation:
    return Presentation(AFFINE, t=len(p), p=p, level=level)


def quantum_plane(mu) -> Presentation:
    mu = _as_cyc(mu)
    one = Cyc.one(mu.L)
    return quantum_affine([[one, mu], [mu.inv(), one]])


def quantum_exterior(p, level=None) -> Presentation:
    return Presentation(EXTERIOR, t=len(p), p=p, level=level)


def quantum_matrix(N, q, level=None) -> Presentation:
    return Presentation(MATRIX, N=N, q=q, level=level)


def quantized_weyl(p, gammas, level=None) -> Presentation:
    return Presentation(WEYL, t=len(p), p=p, gammas=gammas, level=level)


def first_weyl(mu) -> Presentation:
    """A_1: u v = 1 + mu v u."""
    mu = _as_cyc(mu)
    one = Cyc.one(mu.L)
    return quantized_weyl([[one]], [mu])


# serialization -------------------------------------------------------------------


def poly_to_json(pres, poly: NCPoly):
    items = sorted(poly.terms.items())
    return [
        {"word": pres.word_names(w), "coeff": c.to_json()} for w, c in items
    ]


def presentation_to_json(pres):
    if pres.family == MATRIX:
        return {"family": MATRIX, "N": pres.N, "q": pres.q.to_json()}
    obj = {
        "family": pres.family,
        "t": pres.t,
        "p": [[e.to_json() for e in row] for row in pres.p],
    }
    if pres.family == WEYL:
        obj["gamma"] = [g.to_json() for g in pres.gammas]
    return obj


def presentation_from_json(obj):
    try:
        family = obj["family"]
    except (KeyError, TypeError) as exc:
        raise InputError("presentation object needs a 'family' field") from exc
    if family == MATRIX:
        N = as_int(obj["N"], "presentation.N")
        if N < 1:
            raise InputError(f"presentation.N: must be at least 1, got {N}")
        return quantum_matrix(N, Cyc.from_json(obj["q"]))
    if family not in (AFFINE, EXTERIOR, WEYL):
        raise InputError(f"unknown family {family!r}")
    p = [[Cyc.from_json(e) for e in row] for row in obj["p"]]
    if not p:
        raise InputError("presentation.p: needs at least one generator")
    if family == AFFINE:
        return quantum_affine(p)
    if family == EXTERIOR:
        return quantum_exterior(p)
    gammas = [Cyc.from_json(g) for g in obj["gamma"]]
    return quantized_weyl(p, gammas)
