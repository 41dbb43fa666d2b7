"""Kernels for cyclotomic coefficient vectors (the L0 layer under ``Cyc``).

Vectors are lists of Python ints (numerators over a shared denominator),
so all arithmetic stays exact at arbitrary precision.
"""

from math import gcd

# One pure-Python kernel: perfbench traces conv_reduce/content here by name and
# records BACKEND, and a compiled twin would gain at most 1.12x end to end
# (README, "Install").
BACKEND = "python"


def conv_reduce(a, b, rows, deg):
    """Product of coefficient vectors a, b reduced mod the cyclotomic polynomial.

    ``rows[e]`` is the reduced integer vector representing x^(deg+e); only
    exponents up to 2*deg-2 occur, so len(rows) >= deg-1 suffices.
    """
    n = 2 * deg - 1
    c = [0] * n
    for i in range(deg):
        ai = a[i]
        if ai:
            for j in range(deg):
                bj = b[j]
                if bj:
                    c[i + j] += ai * bj
    out = c[:deg]
    for e in range(deg - 1):
        ce = c[deg + e]
        if ce:
            row = rows[e]
            for i in range(deg):
                ri = row[i]
                if ri:
                    out[i] += ce * ri
    return out


def add_scaled(a, b, ca, cb):
    """Entrywise ca*a + cb*b."""
    return [ca * x + cb * y for x, y in zip(a, b)]


def scale(a, c):
    return [c * x for x in a]


def content(a, extra):
    """gcd of the entries of a and of extra (extra > 0)."""
    g = extra
    for x in a:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g
