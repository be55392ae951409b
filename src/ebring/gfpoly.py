"""Polynomial arithmetic over a finite field given as an element-indexed carrier.

A polynomial is a tuple of field element indices in ascending degree order
with no trailing zero coefficients; the empty tuple is the zero polynomial.
The field argument only needs ``order``, ``zero``, ``one``, ``add``, ``mul``,
``neg``, ``inverse`` and ``name`` from the ring interface.
"""

from __future__ import annotations

import re
from itertools import product as _tuples

_DIGITS = re.compile(r"^[0-9]+$")


def trim(field, coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == field.zero:
        cs.pop()
    return tuple(cs)


def degree(coeffs) -> int:
    """Degree of a trimmed polynomial; the zero polynomial has degree -1."""
    return len(coeffs) - 1


def constant(field, c):
    return trim(field, (c,))


def from_int_coeffs(field, ints):
    """Map integer coefficients to field elements via repeated addition of 1,
    c reduced mod the field order, which the characteristic divides."""
    out = []
    for c in ints:
        acc = field.zero
        for _ in range(c % field.order):
            acc = field.add(acc, field.one)
        out.append(acc)
    return trim(field, out)


def add(field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return trim(field, out)


def neg(field, a):
    return tuple(field.neg(c) for c in a)


def mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return trim(field, out)


def scale(field, c, a):
    return trim(field, tuple(field.mul(c, x) for x in a))


def shift(field, a, k):
    """Multiply by x^k."""
    if not a:
        return ()
    return (field.zero,) * k + tuple(a)


def divmod_poly(field, a, b):
    """Quotient and remainder of a by b; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = field.inverse(b[-1])
    if lead_inv is None:
        raise ValueError("leading coefficient is not invertible")
    rem = list(a)
    quo = [field.zero] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b) and trim(field, rem):
        rem = list(trim(field, rem))
        if len(rem) < len(b):
            break
        d = len(rem) - len(b)
        c = field.mul(rem[-1], lead_inv)
        quo[d] = c
        for i, y in enumerate(b):
            rem[d + i] = field.add(rem[d + i], field.neg(field.mul(c, y)))
    return trim(field, quo), trim(field, rem)


def mod(field, a, b):
    return divmod_poly(field, a, b)[1]


def is_monic(field, a) -> bool:
    return bool(a) and a[-1] == field.one


def monic_polys(field, deg):
    """All monic polynomials of the given degree, lexicographically least
    ascending-degree coefficient tuple first."""
    for lower in _tuples(range(field.order), repeat=deg):
        yield tuple(lower) + (field.one,)


def is_irreducible(field, f) -> bool:
    """Trial division against every monic polynomial of degree <= deg(f)/2."""
    d = degree(f)
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in monic_polys(field, e):
            if not mod(field, f, g):
                return False
    return True


def find_irreducible(field, deg):
    """First irreducible monic polynomial of the given degree in tuple order."""
    for f in monic_polys(field, deg):
        if is_irreducible(field, f):
            return f
    raise ValueError(f"no irreducible polynomial of degree {deg} found")


def factor_monic(field, f):
    """Factor a monic polynomial into monic irreducibles with multiplicity.

    Returns a list of (factor, multiplicity) pairs ordered by degree and then
    by coefficient tuple. Plain trial division: divisor degrees ascend, so
    only irreducible divisors of the remaining cofactor ever succeed.
    """
    if not is_monic(field, f):
        raise ValueError("factor_monic needs a monic polynomial")
    factors = []
    rest = f
    d = 1
    while degree(rest) >= 2 * d:
        for g in monic_polys(field, d):
            count = 0
            q, r = divmod_poly(field, rest, g)
            while not r and degree(rest) >= d:
                count += 1
                rest = q
                q, r = divmod_poly(field, rest, g)
            if count:
                factors.append((g, count))
            if degree(rest) < 2 * d:
                break
        d += 1
    if degree(rest) >= 1:
        factors.append((rest, 1))
    factors.sort(key=lambda fk: (degree(fk[0]), fk[0]))
    return factors


def render(field, coeffs) -> str:
    """Sparse human form, descending degree: "x^3+2x+1", "0" for zero."""
    if not coeffs:
        return "0"
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == field.zero:
            continue
        cname = field.name(c)
        wrapped = cname if _DIGITS.match(cname) else f"({cname})"
        if d == 0:
            parts.append(wrapped)
        else:
            head = "" if c == field.one else wrapped
            parts.append(f"{head}x" if d == 1 else f"{head}x^{d}")
    return "+".join(parts) if parts else "0"
