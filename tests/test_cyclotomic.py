import random
from fractions import Fraction
from math import lcm

import pytest

from qhact import _cycore_py
from qhact.cyclotomic import (
    Cyc,
    DivisionByZero,
    InputError,
    _ctx,
    _poly_divmod_int,
    _power_row,
    cyclotomic_polynomial,
    root_of_unity,
    zeta,
)


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    # zeta_6^2 reduces mod Phi_6 = x^2 - x + 1 to zeta_6 - 1
    z = root_of_unity(6, 2)
    assert z.num == [-1, 1] and z.den == 1


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # prime p: 1 + x + ... + x^(p-1)
    assert cyclotomic_polynomial(7) == (1,) * 7


def test_field_arithmetic_examples():
    w = zeta(3)
    assert w + w**2 == -1
    assert zeta(5, 2) * zeta(5, 3) == 1
    assert zeta(5, 2).inv() == zeta(5, 3)
    two = Cyc.rational(2)
    i = zeta(4)
    assert (two * i - (i + i)).is_zero()
    assert (1 + w + w * w).is_zero()
    assert not zeta(8).is_zero()


def test_rational_values_and_division():
    half = Cyc.rational(Fraction(1, 2), level=5)
    assert (half + half) == 1
    assert (half / half) == 1
    with pytest.raises(DivisionByZero):
        Cyc.zero(3).inv()


def test_mult_order():
    assert root_of_unity(6, 2).mult_order() == 3
    assert Cyc.rational(-1).mult_order() == 2
    assert Cyc.rational(2).mult_order() is None
    assert (zeta(5) + 1).mult_order() is None
    assert Cyc.one().mult_order() == 1


def test_mult_order_grid():
    for L in range(1, 25):
        for k in range(1, L + 1):
            expected = L // __import__("math").gcd(L, k)
            assert root_of_unity(L, k).mult_order() == expected


def test_lift():
    assert zeta(3).lift(6) == zeta(6, 2)
    assert Cyc.one().lift(17) == 1
    assert zeta(5, 2).lift(15) == zeta(15, 6)
    with pytest.raises(InputError):
        zeta(4).lift(6)


def test_lift_is_ring_embedding():
    rng = random.Random(7)
    for _ in range(50):
        L = rng.choice([2, 3, 4, 5, 6])
        M = L * rng.choice([2, 3])
        a = Cyc(L, [rng.randrange(-3, 4) for _ in range(len(zeta(L).num))])
        b = Cyc(L, [rng.randrange(-3, 4) for _ in range(len(zeta(L).num))])
        assert (a * b).lift(M) == a.lift(M) * b.lift(M)
        assert (a + b).lift(M) == a.lift(M) + b.lift(M)


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(120):
        L = rng.choice([3, 4, 5, 6, 7, 8, 9, 12, 15, 20, 36, 60])
        deg = len(zeta(L).num)
        big = rng.random() < 0.3
        bound = 2**70 if big else 4
        dens = 2**66 + 1 if big else 4
        a = Cyc(L, [rng.randrange(-bound, bound + 1) for _ in range(deg)], rng.randrange(1, dens))
        b = Cyc(L, [rng.randrange(-bound, bound + 1) for _ in range(deg)], rng.randrange(1, dens))
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inv() == 1
        # rationals, negative ones included, invert at every level
        r = Fraction(-rng.randrange(1, 2**65), rng.randrange(1, 2**65))
        assert Cyc.rational(r, L).inv() == Cyc.rational(1 / r, L)


def test_power_rows_are_residues_mod_phi():
    # x^k - _power_row(L, k) is an exact multiple of Phi_L
    for L in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 20, 36):
        phi = cyclotomic_polynomial(L)
        deg = len(phi) - 1
        for k in range(3 * L):
            diff = [-c for c in _power_row(L, k)] + [0] * max(k + 1 - deg, 0)
            diff[k] += 1
            _poly_divmod_int(diff, phi)  # raises unless exact


def test_conv_reduce_matches_power_rows():
    rng = random.Random(3)
    for L in (1, 2, 3, 5, 7, 9, 12, 20, 36):
        deg, _, rows = _ctx(L)
        for _ in range(10):
            a = [rng.randrange(-(10**20), 10**20) for _ in range(deg)]
            b = [rng.randrange(-(10**20), 10**20) for _ in range(deg)]
            expected = [0] * deg
            for i in range(deg):
                for j in range(deg):
                    row = _power_row(L, i + j)
                    for e in range(deg):
                        expected[e] += a[i] * b[j] * row[e]
            assert _cycore_py.conv_reduce(a, b, rows, deg) == expected


def test_pow_and_order_consistency():
    for L in (3, 4, 5, 6, 7, 8, 12):
        for k in range(L):
            a = root_of_unity(L, k)
            n = a.mult_order()
            assert a**n == 1


def test_cross_level_equality():
    assert zeta(6, 2) == zeta(3)
    assert zeta(3) == zeta(6, 2)
    assert zeta(4) != zeta(8)


def test_json_roundtrip():
    a = (zeta(12, 5) + Cyc.rational(Fraction(2, 3), 12)) * zeta(12, 7)
    obj = a.to_json()
    assert obj["level"] == 12
    assert all(isinstance(c, str) for c in obj["coeffs"])
    assert Cyc.from_json(obj) == a
    with pytest.raises(InputError):
        Cyc.from_json({"coeffs": ["1"]})


def test_negative_powers():
    q = zeta(5)
    assert q**-2 == q**3
    assert (q**-1) * q == 1


def test_level_validation():
    with pytest.raises(InputError):
        root_of_unity(0, 1)
    with pytest.raises(InputError):
        cyclotomic_polynomial(-3)
    with pytest.raises(InputError):
        Cyc(6, [1, 2, 3])  # wrong coefficient length for phi(6) = 2


def test_q_powers_match_the_power_loop():
    # minimal |e|, positive on ties, looked up across levels
    from qhact.cyclotomic import as_q_power

    for q in (zeta(5), zeta(6), zeta(7, 3)):
        n = q.mult_order()
        for e in range(n):
            want = e - n if e > n - e else e
            value = q**e
            assert as_q_power(value, q) == want
            assert as_q_power(value.lift(value.L * 4), q) == want
        assert as_q_power(Cyc.rational(2), q) is None
        assert as_q_power(zeta(4), q) is None
    assert as_q_power(Cyc.one(), Cyc.rational(2)) is None


def test_roots_of_unity_table_matches_powering():
    # every level's table is zeta_M^e by powering, root_log inverts it, and
    # the inverse read from the table is the inverse
    from qhact.cyclotomic import root_log, root_table, unit_level

    for L in range(1, 41):
        M = unit_level(L)
        powers, logs = root_table(L)
        z = zeta(M)
        assert len(powers) == len(logs) == M
        for e, value in enumerate(powers):
            assert value.L == L and value == z**e
            assert root_log(value, L) == e
            assert value * value.inv() == 1
    assert root_log(zeta(3), 5) is None
    assert root_log(zeta(5) + 1, 5) is None
    assert root_log(zeta(3), 6) == 2  # zeta_3 = zeta_6^2, read off level 3


def test_fp_image_is_a_ring_map():
    from qhact.cyclotomic import fp_image, fp_root

    rng = random.Random(3)
    for L in (1, 2, 5, 8, 12, 30):
        p, omega = fp_root(L)
        assert p > 2**31 and (p - 1) % L == 0
        assert all(p % d for d in range(2, 46400))
        assert pow(omega, L, p) == 1
        assert all(pow(omega, k, p) != 1 for k in range(1, L))
        deg = _ctx(L)[0]
        for _ in range(20):
            a = Cyc(L, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(1, 9))
            b = Cyc(L, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(1, 9))
            fa, fb = fp_image(a, p, omega, L), fp_image(b, p, omega, L)
            assert fp_image(a * b, p, omega, L) == fa * fb % p
            assert fp_image(a + b, p, omega, L) == (fa + fb) % p
        # a scalar of a dividing level maps through the same omega
        for d in (1, L):
            assert fp_image(root_of_unity(d, 1), p, omega, L) == pow(omega, L // d, p)
    p, omega = fp_root(5)
    assert fp_image(Cyc.rational(Fraction(1, p), 5), p, omega, 5) is None
    assert fp_image(zeta(3), p, omega, 5) is None


# the fast paths: +-1 products, exponent slots, integer I/O ----------------


def _old_to_json(value):
    # every coefficient through a Fraction, as the writer did before
    coeffs = []
    for n in value.num:
        fr = Fraction(n, value.den)
        coeffs.append(
            str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"
        )
    return {"level": value.L, "coeffs": coeffs}


def _old_from_json(obj):
    # every string coefficient through Fraction, as the reader did before
    fracs = [Fraction(c) for c in obj["coeffs"]]
    den = lcm(*(f.denominator for f in fracs))
    return Cyc(obj["level"], [int(f * den) for f in fracs], den)


@pytest.mark.parametrize(
    "text",
    ["3.0", " 3 ", "+3", "-0", "03", "1_000", "٣", "1e3", "3/5", " 3/5",
     "0x10", "", "-", "1__0", "\x1c3", "-7", "12345678901234567890"],
)
def test_from_json_accepts_and_refuses_what_fraction_does(text):
    obj = {"level": 1, "coeffs": [text]}
    try:
        want = _old_from_json(obj)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError) as err:
            Cyc.from_json(obj)
        assert str(err.value) == f"bad scalar object: {obj!r}"
        return
    got = Cyc.from_json(obj)
    assert got == want and (got.num, got.den) == (want.num, want.den)
    assert all(type(n) is int for n in got.num)


def test_to_json_matches_the_fraction_writer():
    rng = random.Random(11)
    for L in (1, 4, 5, 12):
        deg = _ctx(L)[0]
        for den in (1, 1, 2, 6, 35):
            for _ in range(20):
                value = Cyc(L, [rng.randint(-40, 40) for _ in range(deg)], den)
                assert value.to_json() == _old_to_json(value)
                assert Cyc.from_json(value.to_json()) == value


def test_unit_products_keep_the_lcm_level():
    # 1 * x returns x and -1 * x its negation, lifted to the lcm level as
    # the general product would be
    for one, x in [
        (Cyc.one(10), zeta(5)),
        (Cyc.one(), zeta(5)),
        (Cyc.one(3), Cyc.rational(Fraction(2, 7), 4)),
        (root_of_unity(4, 2), zeta(6) + 1),
        (Cyc.rational(-1, 15), zeta(5, 2) * 3),
    ]:
        M = lcm(one.L, x.L)
        want = x.lift(M) if one == 1 else -x.lift(M)
        for got in (one * x, x * one):
            assert got.L == M
            assert got == want and got.to_json() == want.to_json()
    assert (Cyc.one(10) * zeta(5)).L == 10
    assert (zeta(5) * Cyc.one(10)).to_json() == zeta(5).lift(10).to_json()


def test_root_products_read_the_table():
    # every pair of table entries: the product is the conv_reduce product
    # and carries (e1 + e2) mod M; lifted, inverted and pickled entries
    # equal the values the integer paths give
    import pickle

    from qhact.cyclotomic import root_log, root_table, unit_level

    for L in range(1, 41):
        M = unit_level(L)
        powers = root_table(L)[0]
        deg, _, rows = _ctx(L)
        for e1, a in enumerate(powers):
            assert a._exp == e1
            for e2, b in enumerate(powers):
                c = a * b
                assert c._exp == (e1 + e2) % M
                assert c.den == 1 and c.num == _cycore_py.conv_reduce(a.num, b.num, rows, deg)
            fresh = Cyc(L, a.num)  # the same value with an empty slot
            assert fresh._exp == -2
            assert a.inv() == fresh.inv() and (a.inv() * a) == 1
            assert a.inv()._exp == -e1 % M
            up = a.lift(3 * L)
            assert up == Cyc(L, a.num).lift(3 * L)
            assert up._exp == root_log(fresh, 3 * L) == e1 * unit_level(3 * L) // M
            assert (-a)._exp == (e1 + M // 2) % M and -a == Cyc(L, [-x for x in a.num])
            back = pickle.loads(pickle.dumps(a))
            assert back == a and back.to_json() == a.to_json() and back._exp == -2
    assert (zeta(5) + 1)._exp == -2
    assert (zeta(5) + 1).mult_order() is None
    assert root_of_unity(12, -5)._exp == 7 and root_of_unity(9, 4)._exp == 8


def test_adding_zero_returns_the_other_operand(monkeypatch):
    # 0 + x is x at the common level, with its exponent slot, so the trace
    # series of one root of unity is its powers, each read from the table
    from qhact import _kernel
    from qhact.invariants import trace_series_product

    z = zeta(5, 2)
    for total in (Cyc.zero(5) + z, z + Cyc.zero(5), 0 + z, z + 0):
        assert total == z and total.L == 5 and total._exp == z._exp >= 0
    for total in (Cyc.zero(15) + z, z + Cyc.zero(3)):
        assert total == z.lift(15) and total.L == 15
        assert total._exp == z.lift(15)._exp >= 0
    assert (Cyc.zero(4) + Cyc.zero(6)).L == 12 and (Cyc.zero(4) + Cyc.zero(6)).is_zero()
    lam = zeta(7, 3)
    want = [lam**d for d in range(13)]
    calls = [0]
    real = _kernel.conv_reduce

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(_kernel, "conv_reduce", counted)
    assert trace_series_product([lam], [1], 12) == want
    assert calls[0] == 0
