"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Every scalar the engine touches (deformation parameters, character values,
skew-action coefficients, ...) is a :class:`Cyc`: an element of
Q[x]/(Phi_L(x)) with x mapped to exp(2*pi*i/L), stored as the reduced
residue mod the L-th cyclotomic polynomial.  Working mod Phi_L (a field)
rather than mod x^L - 1 keeps zero tests and inverses exact and trivial.

Representation: an integer numerator vector of length phi(L) over a single
positive denominator, normalized so gcd(content, den) = 1.  Operands at
different levels are lifted to the lcm level before combining; no attempt
is made to compress results back into minimal subfields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import _kernel as K


class InputError(ValueError):
    """Malformed input to an engine operation (bad level, shape, parameter)."""


class DivisionByZero(ZeroDivisionError):
    """Inverse of the zero scalar was requested."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            out[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


def divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_L, low degree first (monic).

    Computed by dividing x^L - 1 by the product of Phi_d over proper
    divisors d of L.
    """
    if L < 1:
        raise InputError(f"level must be >= 1, got {L}")
    num = [0] * (L + 1)
    num[0], num[L] = -1, 1
    den = [1]
    for d in divisors(L):
        if d != L:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_divmod_int(num, den))


@lru_cache(maxsize=None)
def _ctx(L: int):
    """Per-level data: degree, Phi_L, and reduction rows for x^(deg+e)."""
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    rows = []
    if deg >= 1:
        cur = [-c for c in phi[:deg]]
        rows.append(tuple(cur))
        for _ in range(deg - 2):
            nxt = [0] + cur[: deg - 1]
            top = cur[deg - 1]
            if top:
                base = rows[0]
                nxt = [nxt[i] + top * base[i] for i in range(deg)]
            rows.append(tuple(nxt))
            cur = nxt
    return deg, phi, tuple(rows)


@lru_cache(maxsize=None)
def _power_row(L: int, k: int) -> tuple[int, ...]:
    """x^k reduced mod Phi_L as an integer vector of length deg."""
    deg, _, rows = _ctx(L)
    if k < deg:
        row = [0] * deg
        row[k] = 1
        return tuple(row)
    if k - deg < len(rows):
        return rows[k - deg]
    prev = _power_row(L, k - 1)
    shifted = [0] + list(prev[: deg - 1])
    top = prev[deg - 1]
    if top:
        base = rows[0]
        shifted = [shifted[i] + top * base[i] for i in range(deg)]
    return tuple(shifted)


def _normalize(L, num, den):
    if den < 0:
        den = -den
        num = [-x for x in num]
    if den == 0:
        raise InputError("zero denominator")
    g = K.content(num, den)
    if g > 1:
        num = [x // g for x in num]
        den //= g
    return num, den


class Cyc:
    """An element of Q(zeta_L), reduced mod Phi_L.

    Immutable; all operations return new values.  Mixed-level operands are
    lifted to the lcm level first.
    """

    __slots__ = ("L", "num", "den")

    def __init__(self, L, num, den=1, _norm=True):
        deg, _, _ = _ctx(L)
        num = list(num)
        if len(num) != deg:
            raise InputError(
                f"coefficient vector has length {len(num)}, expected phi({L}) = {deg}"
            )
        if _norm:
            num, den = _normalize(L, num, den)
        self.L = L
        self.num = num
        self.den = den

    # construction -----------------------------------------------------

    @staticmethod
    def rational(value, level=1):
        fr = Fraction(value)
        deg, _, _ = _ctx(level)
        num = [0] * deg
        num[0] = fr.numerator
        return Cyc(level, num, fr.denominator)

    @staticmethod
    def zero(level=1):
        return Cyc.rational(0, level)

    @staticmethod
    def one(level=1):
        return Cyc.rational(1, level)

    # predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise InputError("scalar is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return not self.is_zero()

    # level management ---------------------------------------------------

    def lift(self, M):
        """Re-express at level M; requires L | M."""
        if M % self.L:
            raise InputError(f"level {self.L} does not divide target level {M}")
        if M == self.L:
            return self
        step = M // self.L
        deg, _, _ = _ctx(M)
        out = [0] * deg
        for j, c in enumerate(self.num):
            if c:
                row = _power_row(M, j * step)
                for i in range(deg):
                    ri = row[i]
                    if ri:
                        out[i] += c * ri
        return Cyc(M, out, self.den)

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other, self.L)
        if self.L == other.L:
            return self, other
        M = self.L * other.L // gcd(self.L, other.L)
        return self.lift(M), other.lift(M)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        num = K.add_scaled(a.num, b.num, b.den, a.den)
        return Cyc(a.L, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.L, [-x for x in self.num], self.den, _norm=False)

    def __sub__(self, other):
        a, b = self._pair(other)
        num = K.add_scaled(a.num, b.num, b.den, -a.den)
        return Cyc(a.L, num, a.den * b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a.is_rational():
            return Cyc(b.L, K.scale(b.num, a.num[0]), a.den * b.den)
        if b.is_rational():
            return Cyc(a.L, K.scale(a.num, b.num[0]), a.den * b.den)
        deg, _, rows = _ctx(a.L)
        num = K.conv_reduce(a.num, b.num, rows, deg)
        return Cyc(a.L, num, a.den * b.den)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            fr = 1 / Fraction(self.num[0], self.den)
            return Cyc.rational(fr, self.L)
        deg, phi, _ = _ctx(self.L)
        # extended Euclid in Q[x] against Phi_L (irreducible, so the gcd is
        # a nonzero constant once the remainder drops to degree 0)
        r0 = [Fraction(c) for c in phi]
        r1 = [Fraction(n, self.den) for n in self.num]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, r = _fr_poly_divmod(r0, r1)
            s = _fr_poly_sub(s0, _fr_poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s
        c = r1[0]
        inv_coeffs = [x / c for x in s1]
        inv_coeffs += [Fraction(0)] * (deg - len(inv_coeffs))
        den = 1
        for f in inv_coeffs:
            den = den * f.denominator // gcd(den, f.denominator)
        num = [int(f * den) for f in inv_coeffs[:deg]]
        return Cyc(self.L, num, den)

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = Cyc.one(self.L)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # comparison -------------------------------------------------------------

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.L)
        elif not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # semantic equality across levels; do not use as dict key

    def sort_key(self):
        return (self.L, self.den, tuple(self.num))

    # orders -------------------------------------------------------------------

    def mult_order(self):
        """Multiplicative order, or None when not a root of unity.

        Roots of unity in Q(zeta_L) are exactly mu_M with M = L for even L
        and M = 2L for odd L, so membership is one power test.
        """
        if self.is_zero():
            return None
        M = self.L if self.L % 2 == 0 else 2 * self.L
        if self**M != 1:
            return None
        order = M
        for p in _prime_factors(M):
            while order % p == 0 and self ** (order // p) == 1:
                order //= p
        return order

    # io -------------------------------------------------------------------

    def to_json(self):
        coeffs = []
        for n in self.num:
            fr = Fraction(n, self.den)
            coeffs.append(
                str(fr.numerator)
                if fr.denominator == 1
                else f"{fr.numerator}/{fr.denominator}"
            )
        return {"level": self.L, "coeffs": coeffs}

    @staticmethod
    def from_json(obj):
        try:
            L = int(obj["level"])
            fracs = [Fraction(c) for c in obj["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad scalar object: {obj!r}") from exc
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return Cyc(L, [int(f * den) for f in fracs], den)

    def __repr__(self):
        if self.is_rational():
            fr = Fraction(self.num[0], self.den)
            return f"Cyc({fr})"
        return f"Cyc(L={self.L}, {self.num}/{self.den})"

    def __reduce__(self):
        return (_rebuild_cyc, (self.L, tuple(self.num), self.den))


def _rebuild_cyc(L, num, den):
    return Cyc(L, list(num), den, _norm=False)


# Fraction-polynomial helpers used only by inv (not hot).


def _fr_poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        if a[k]:
            c = a[k] / lead
            q[k - db] = c
            for j in range(db + 1):
                a[k - db + j] -= c * b[j]
    while len(a) > 1 and not a[-1]:
        a.pop()
    return q, a


def _fr_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _fr_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


@lru_cache(maxsize=None)
def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


# module-level convenience API ------------------------------------------------


def root_of_unity(L: int, k: int) -> Cyc:
    """zeta_L^k reduced mod Phi_L, at level L."""
    if L < 1:
        raise InputError(f"level must be >= 1, got {L}")
    k %= L
    return Cyc(L, list(_power_row(L, k)))


def zeta(L: int, k: int = 1) -> Cyc:
    return root_of_unity(L, k)


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def lcm_all(values) -> int:
    out = 1
    for v in values:
        out = lcm(out, v)
    return out


def as_q_power(value: Cyc, q: Cyc):
    """Exponent e with value = q^e, minimal |e| (positive on ties), or None."""
    n = q.mult_order()
    if n is None:
        return None
    cur = Cyc.one(q.L)
    for e in range(n):
        if cur == value:
            if e > n - e:
                return e - n
            return e
        cur = cur * q
    return None
