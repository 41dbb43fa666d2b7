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

Arithmetic stays on integer vectors.  Products reduce through the rows of
x^k mod Phi_L (one recurrence, `_power_row`).  Inverses use the Galois
norm: the product P of the conjugates sigma_j(a), j a unit mod L other
than 1, satisfies a * P = N(a), a rational, so 1/a = P / N(a) (H. Cohen,
A Course in Computational Algebraic Number Theory, GTM 138).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import _kernel as K


class InputError(ValueError):
    """Malformed input to an engine operation (bad level, shape, parameter)."""


def as_int(value, field):
    """A JSON integer: floats, booleans and strings are refused, not rounded."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"job field {field}: expected an integer, got {value!r}")


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
    """Per-level data: degree, Phi_L, and the rows of x^(deg+e) mod Phi_L
    (e < deg - 1) that conv_reduce folds back."""
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    return deg, phi, tuple(_power_row(L, deg + e) for e in range(deg - 1))


def _power_row(L: int, k: int) -> tuple[int, ...]:
    """x^k reduced mod Phi_L as an integer vector of length deg."""
    return _power_table(L)[k % L]


@lru_cache(maxsize=None)
def _power_table(L: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_L for 0 <= k < L, which are all the powers (x^L = 1).

    x^k is x^(k-1) shifted up one degree, with its x^deg term folded back
    through the monic Phi_L.
    """
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    rows = [tuple(int(i == k) for i in range(deg)) for k in range(deg)]
    for _ in range(deg, L):
        prev = rows[-1]
        rows.append(tuple((prev[i - 1] if i else 0) - prev[-1] * phi[i] for i in range(deg)))
    return tuple(rows)


def _substitute(num, M, m):
    """sum_k num[k] x^(m*k) reduced mod Phi_M: x replaced by x^m.  With
    M = m*L this lifts a level-L vector to level M; with M = L and m a unit
    mod L it is the Galois conjugate sigma_m."""
    deg = _ctx(M)[0]
    out = [0] * deg
    for k, c in enumerate(num):
        if c:
            row = _power_row(M, m * k)
            for i in range(deg):
                ri = row[i]
                if ri:
                    out[i] += c * ri
    return out


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
        return Cyc(M, _substitute(self.num, M, M // self.L), self.den)

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other, self.L)
        if self.L == other.L:
            return self, other
        M = lcm(self.L, other.L)
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
        """num/den inverts to den * P / (num * P), where P is the product of
        the conjugates sigma_j(num), j a unit mod L other than 1: num * P is
        the rational norm of num, an integer."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        L, num = self.L, self.num
        deg, _, rows = _ctx(L)
        if self.is_rational():
            return Cyc(L, [self.den] + [0] * (deg - 1), num[0])
        prod = None
        for j in range(2, L):
            if gcd(j, L) != 1:
                continue
            conj = _substitute(num, L, j)
            prod = conj if prod is None else K.conv_reduce(prod, conj, rows, deg)
        norm = K.conv_reduce(num, prod, rows, deg)[0]
        return Cyc(L, K.scale(prod, self.den), norm)

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
        """A {"level": L, "coeffs": [...]} object.  Each coefficient is a JSON
        integer or a string such as "3/5"; a float is refused, not rounded."""
        try:
            L = as_int(obj["level"], "level")
            if not isinstance(obj["coeffs"], list):
                raise InputError(f"job field coeffs: expected a list, got {obj['coeffs']!r}")
            fracs = [
                Fraction(c if isinstance(c, str) else as_int(c, f"coeffs[{i}]"))
                for i, c in enumerate(obj["coeffs"])
            ]
        except InputError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad scalar object: {obj!r}") from exc
        den = lcm_all(f.denominator for f in fracs)
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
    return Cyc(L, list(_power_row(L, k)))


def zeta(L: int, k: int = 1) -> Cyc:
    return root_of_unity(L, k)


def lcm_all(values) -> int:
    return lcm(*values)


class QPowers:
    """value -> exponent e with value = q^e, minimal |e| (positive on ties),
    or None.  ord(q) and the powers q^e are computed once; the powers are
    lifted once per level they are compared at."""

    def __init__(self, q: Cyc):
        self.q = q
        self.n = q.mult_order()
        self._tables = {}

    def __call__(self, value: Cyc):
        if self.n is None:
            return None
        M = lcm(value.L, self.q.L)
        table = self._tables.get(M)
        if table is None:
            table = self._tables[M] = {}
            cur = Cyc.one(self.q.L)
            for e in range(self.n):
                table[cur.lift(M).sort_key()] = e - self.n if e > self.n - e else e
                cur = cur * self.q
        return table.get(value.lift(M).sort_key())


def as_q_power(value: Cyc, q: Cyc):
    """Exponent e with value = q^e, minimal |e| (positive on ties), or None."""
    return QPowers(q)(value)


@lru_cache(maxsize=None)
def root_powers(M: int) -> QPowers:
    """QPowers of zeta_M, built once per M: the discrete log in mu_M."""
    return QPowers(zeta(M))


# reduction mod a prime of degree one -------------------------------------------


def _is_prime(n):
    """Deterministic Miller-Rabin; these bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def fp_root(L: int):
    """(p, omega): the first prime p > 2^31 with p = 1 (mod L), and an omega
    of exact order L in F_p.  zeta_L -> omega is then a ring map from the
    integers of Q(zeta_L) onto F_p (reduction mod a prime above p)."""
    p = (2**31 // L + 1) * L + 1
    while not _is_prime(p):
        p += L
    h = 2
    while True:
        omega = pow(h, (p - 1) // L, p)
        if all(pow(omega, L // r, p) != 1 for r in _prime_factors(L)):
            return p, omega
        h += 1


def fp_image(value: Cyc, p, omega, L):
    """Image of value in F_p under zeta_L -> omega (omega of exact order L),
    or None when p divides its denominator or its level does not divide L."""
    if L % value.L or value.den % p == 0:
        return None
    w = pow(omega, L // value.L, p)
    acc = 0
    for c in reversed(value.num):
        acc = (acc * w + c) % p
    return acc * pow(value.den, -1, p) % p
