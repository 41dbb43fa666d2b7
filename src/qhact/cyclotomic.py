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

The roots of unity of Q(zeta_L) are mu_M, M = unit_level(L); `root_table(L)`
holds zeta_M^e, e < M, and the log that inverts it, built on first use.
Every question of which power of zeta a value is reads it: `root_log`,
`Cyc.mult_order`, `as_q_power`, the inverse of a root of unity, and the
exponents of `hopf`'s closed-form operators and `ncalg`'s rewriting.

Most engine scalars are +-1 or roots of unity, so two cheap paths come
before the integer vectors.  A value caches its exponent e (value =
zeta_M^e) in the slot `_exp`, or -1 once it is known to be no root of
unity; -2 means not looked up yet.  Table entries, `root_of_unity`,
products and negations of rooted values, the inverse of a root and `lift`
carry it, and `root_log` fills it on its first table lookup, so a product
of two rooted values is the table entry zeta_M^(e1 + e2).  A factor +-1
returns the other operand, or its negation, at the lcm level, as the
product would.  The slot is a cache: equality, `sort_key`, pickling and
JSON ignore it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import _kernel as K


class InputError(ValueError):
    """Malformed input to an engine operation (bad level, shape, parameter)."""


def as_int(value, field, low=None, high=None):
    """A JSON integer: floats, booleans and strings are refused, not rounded,
    and so is a value outside low..high where a bound is given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"job field {field}: expected an integer, got {value!r}")
    if low is not None and value < low:
        raise InputError(f"job field {field}: must be at least {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"job field {field}: must be at most {high}, got {value}")
    return value


class DivisionByZero(ZeroDivisionError):
    """Inverse of the zero scalar was requested."""


# Cyc._exp before root_log has looked the value up, and once it has found
# no root of unity; any other value is the exponent.
_UNKNOWN, _NOT_ROOT = -2, -1


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

    __slots__ = ("L", "num", "den", "_exp")

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
        self._exp = _UNKNOWN

    # construction -----------------------------------------------------

    @staticmethod
    def rational(value, level=1):
        fr = value if type(value) is int else Fraction(value)
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

    def __bool__(self):
        return not self.is_zero()

    # level management ---------------------------------------------------

    def lift(self, M):
        """Re-express at level M; requires L | M."""
        if M % self.L:
            raise InputError(f"level {self.L} does not divide target level {M}")
        if M == self.L:
            return self
        out = Cyc(M, _substitute(self.num, M, M // self.L), self.den)
        e = self._exp
        out._exp = e * (unit_level(M) // unit_level(self.L)) if e >= 0 else e
        return out

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other, self.L)
        if self.L == other.L:
            return self, other
        M = lcm(self.L, other.L)
        return self.lift(M), other.lift(M)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        """A zero operand returns the other one, at the common level, with
        its root-of-unity exponent."""
        a, b = self._pair(other)
        if not any(a.num):
            return b
        if not any(b.num):
            return a
        num = K.add_scaled(a.num, b.num, b.den, a.den)
        return Cyc(a.L, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        out = Cyc(self.L, [-x for x in self.num], self.den, _norm=False)
        e = self._exp
        if e >= 0:
            M = unit_level(self.L)
            e = (e + M // 2) % M
        out._exp = e
        return out

    def __sub__(self, other):
        a, b = self._pair(other)
        num = K.add_scaled(a.num, b.num, b.den, -a.den)
        return Cyc(a.L, num, a.den * b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        ea, eb = a._exp, b._exp
        if ea >= 0 and eb >= 0:
            powers = root_table(a.L)[0]
            return powers[(ea + eb) % len(powers)]
        n = a.num
        if a.den == 1 and (n[0] == 1 or n[0] == -1) and n.count(0) == len(n) - 1:
            return b if n[0] == 1 else -b
        n = b.num
        if b.den == 1 and (n[0] == 1 or n[0] == -1) and n.count(0) == len(n) - 1:
            return a if n[0] == 1 else -a
        if a.is_rational():
            return Cyc(b.L, K.scale(b.num, a.num[0]), a.den * b.den)
        if b.is_rational():
            return Cyc(a.L, K.scale(a.num, b.num[0]), a.den * b.den)
        deg, _, rows = _ctx(a.L)
        num = K.conv_reduce(a.num, b.num, rows, deg)
        return Cyc(a.L, num, a.den * b.den)

    __rmul__ = __mul__

    def inv(self):
        """A root of unity zeta_M^e inverts to zeta_M^-e, read from the root
        table.  Any other num/den inverts to den * P / (num * P), where P is
        the product of the conjugates sigma_j(num), j a unit mod L other
        than 1: num * P is the rational norm of num, an integer."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        L, num = self.L, self.num
        e = root_log(self, L)
        if e is not None:
            return root_table(L)[0][-e % unit_level(L)]
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
        """Multiplicative order, or None when not a root of unity: M / gcd(e, M)
        for self = zeta_M^e, M = unit_level(L), read off the exponent slot or
        the root table."""
        e = root_log(self, self.L)
        if e is None:
            return None
        M = unit_level(self.L)
        return M // gcd(e, M)

    # io -------------------------------------------------------------------

    def to_json(self):
        """Each coefficient n/den in lowest terms, as "n" or "n/d"."""
        den = self.den
        if den == 1:
            coeffs = [str(n) for n in self.num]
        else:
            coeffs = []
            for n in self.num:
                g = gcd(n, den)
                coeffs.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return {"level": self.L, "coeffs": coeffs}

    @staticmethod
    def from_json(obj):
        """A {"level": L, "coeffs": [...]} object.  Each coefficient is a JSON
        integer or a string such as "3/5"; a float is refused, not rounded.
        A string without "/" is read by int first; whatever int refuses
        goes to Fraction, which takes every string int takes, at the same
        value, and also "3.0" or "1e3"."""
        try:
            L = as_int(obj["level"], "level")
            if not isinstance(obj["coeffs"], list):
                raise InputError(f"job field coeffs: expected a list, got {obj['coeffs']!r}")
            fracs = [_parse_coeff(c, i) for i, c in enumerate(obj["coeffs"])]
        except InputError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad scalar object: {obj!r}") from exc
        den = lcm_all(f.denominator for f in fracs)
        return Cyc(L, [f.numerator * (den // f.denominator) for f in fracs], den)

    def __repr__(self):
        if self.is_rational():
            fr = Fraction(self.num[0], self.den)
            return f"Cyc({fr})"
        return f"Cyc(L={self.L}, {self.num}/{self.den})"

    def __reduce__(self):
        return (_rebuild_cyc, (self.L, tuple(self.num), self.den))


def _rebuild_cyc(L, num, den):
    return Cyc(L, list(num), den, _norm=False)


def _parse_coeff(c, i):
    """One from_json coefficient: an int or a Fraction."""
    if not isinstance(c, str):
        return as_int(c, f"coeffs[{i}]")
    if "/" not in c:
        try:
            return int(c)
        except ValueError:
            pass
    return Fraction(c)


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
    """zeta_L^k reduced mod Phi_L, at level L: zeta_M^(k M / L)."""
    if L < 1:
        raise InputError(f"level must be >= 1, got {L}")
    out = Cyc(L, _power_row(L, k), 1, _norm=False)
    out._exp = k % L * (unit_level(L) // L)
    return out


def zeta(L: int, k: int = 1) -> Cyc:
    return root_of_unity(L, k)


def lcm_all(values) -> int:
    return lcm(*values)


def unit_level(L: int) -> int:
    """M with mu_M the roots of unity of Q(zeta_L): L for even L, 2L for
    odd L, as zeta_2L = -zeta_L^((L+1)/2) lies in Q(zeta_L) then."""
    return L if L % 2 == 0 else 2 * L


@lru_cache(maxsize=None)
def root_table(L: int):
    """(powers, logs): the roots of unity of Q(zeta_L), mu_M with
    M = unit_level(L), written at level L.  powers[e] = zeta_M^e for
    0 <= e < M, each carrying its exponent, and logs maps the numerator
    tuple of zeta_M^e to e.  For odd L, zeta_2L = -zeta_L^((L+1)/2), so
    zeta_2L^e = (-1)^e zeta_L^(e(L+1)/2): every entry is a sign times a row
    of the power table, and no product is taken."""
    M = unit_level(L)
    h = 1 if M == L else (L + 1) // 2
    powers = []
    for e in range(M):
        row = _power_row(L, e * h)
        p = Cyc(L, [-x for x in row] if e % 2 and M != L else row, 1, _norm=False)
        p._exp = e
        powers.append(p)
    return tuple(powers), {tuple(p.num): e for e, p in enumerate(powers)}


def root_log(value: Cyc, L: int):
    """e with value = zeta_M^e, 0 <= e < M = unit_level(L), or None when
    value is no root of unity or its level does not divide L.  The exponent
    is value's slot, filled from the table of value's own level on the first
    lookup, scaled up to L, as unit_level(value.L) divides M, so value is
    never lifted."""
    if L % value.L:
        return None
    e = value._exp
    if e == _UNKNOWN:
        e = _NOT_ROOT
        if value.den == 1:
            e = root_table(value.L)[1].get(tuple(value.num), _NOT_ROOT)
        value._exp = e
    return None if e < 0 else e * (unit_level(L) // unit_level(value.L))


def as_q_power(value: Cyc, q: Cyc):
    """Exponent e with value = q^e, minimal |e| (positive on ties), or None.
    With a = log q and b = log value in mu_M, M = unit_level of the lcm of
    their levels, e solves e a = b (mod M); q has order n = M / gcd(a, M),
    and the solution is unique mod n when gcd(a, M) divides b."""
    L = lcm(value.L, q.L)
    a, b = root_log(q, L), root_log(value, L)
    if a is None or b is None:
        return None
    M = unit_level(L)
    g = gcd(a, M)
    if b % g:
        return None
    n = M // g
    e = b // g * pow(a // g, -1, n) % n
    return e - n if e > n - e else e


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
