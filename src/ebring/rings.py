"""Finite commutative unitary rings on an element-indexed carrier.

Every ring presents the same interface: elements are the indices
``0..order-1`` and the structure is given by total ``add``/``mul``/``neg``
operations plus distinguished ``zero`` and ``one`` indices. The same
operations come vectorized as ``vadd``/``vmul``/``vneg``, which take integer
index arrays and broadcast like numpy ufuncs; the ideal layer is written
against them.

A constructor gives either operation tables or vectorized kernels (callables
with the broadcasting behaviour of ``vadd``/``vmul``/``vneg``). Rings of up to
``TABLE_CAP`` elements always hold full numpy tables, built from the kernels
by array indexing, never by a per-element callback; above the cap the
operations run on the kernels. Rings of order up to ``VALIDATION_CAP`` are
checked against the ring axioms at construction time; structured backends
above the cap are trusted by construction, while raw table input above the
cap is rejected because it carries no correctness guarantee.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence as Seq

import numpy as np

from . import gfpoly
from .errors import AxiomViolation

TABLE_CAP = 4096
VALIDATION_CAP = 512
# Queries over every element build index arrays of the ring's order; above
# this order they are refused rather than allocating hundreds of MiB.
ARRAY_CAP = 1 << 24
# Most entries one kernel call computes while building a table or scanning
# rows; bounds the temporaries of the digit kernels of polynomial quotients.
BLOCK = 1 << 16


class FiniteRing:
    """A finite commutative unitary ring with elements indexed 0..order-1.

    Pass ``tables=(add, mul)`` (order-by-order index arrays) or
    ``kernels=(add, mul, neg)`` (vectorized callables; ``neg`` may be None
    when the order is within ``TABLE_CAP``, since tables are built then).
    """

    def __init__(self, order: int, zero: int, one: int, label: str, *,
                 tables=None, kernels: tuple[Callable, ...] | None = None,
                 names: Callable[[int], str] | Seq[str] | None = None,
                 validate: bool = True):
        if order < 2:
            raise ValueError("a unitary nonzero ring needs at least two elements")
        self.order = order
        self.zero = zero
        self.one = one
        self.label = label
        self._names = names
        self._units: frozenset[int] | None = None
        self._idempotents: frozenset[int] | None = None
        self._char: int | None = None

        if tables is None and order <= TABLE_CAP:
            tables = (_tabulate(order, kernels[0]), _tabulate(order, kernels[1]))
        if tables is not None:
            self._add_t, self._mul_t = (np.asarray(t, dtype=np.int32).reshape(order, order)
                                        for t in tables)
        else:
            if kernels[2] is None:
                raise ValueError("rings beyond the table cap need an explicit negation")
            self._add_t = self._mul_t = self._neg_t = None
            self._add_k, self._mul_k, self._neg_k = kernels

        if validate and order <= VALIDATION_CAP:
            validate_ring(self)

        if self._add_t is not None:
            self._neg_t = np.argmax(self._add_t == zero, axis=1).astype(np.int32)

    # vectorized operations ------------------------------------------------

    def vadd(self, x, y):
        """Elementwise sum of two broadcastable index arrays."""
        return self._add_t[x, y] if self._add_t is not None else self._add_k(x, y)

    def vmul(self, x, y):
        """Elementwise product of two broadcastable index arrays."""
        return self._mul_t[x, y] if self._mul_t is not None else self._mul_k(x, y)

    def vneg(self, x):
        """Elementwise additive inverse of an index array."""
        return self._neg_t[x] if self._neg_t is not None else self._neg_k(x)

    def element_array(self) -> np.ndarray:
        """All element indices as an int64 array."""
        if self.order > ARRAY_CAP:
            raise ValueError(f"{self.label} has more than {ARRAY_CAP} elements; "
                             "queries over every element are limited to that order")
        return np.arange(self.order, dtype=np.int64)

    # element operations -------------------------------------------------

    def add(self, i: int, j: int) -> int:
        return int(self.vadd(i, j))

    def mul(self, i: int, j: int) -> int:
        return int(self.vmul(i, j))

    def neg(self, i: int) -> int:
        return int(self.vneg(i))

    def inverse(self, x: int) -> Optional[int]:
        return inverse(self, x)

    def name(self, i: int) -> str:
        if self._names is None:
            return str(i)
        if callable(self._names):
            return self._names(i)
        return self._names[i]

    @property
    def elements(self) -> range:
        return range(self.order)

    @property
    def char(self) -> int:
        """Characteristic: the additive order of 1."""
        if self._char is None:
            acc, c = self.one, 1
            while acc != self.zero:
                acc = self.add(acc, self.one)
                c += 1
            self._char = c
        return self._char

    def __repr__(self):
        return f"FiniteRing({self.label}, order={self.order})"


def row_blocks(rows: int, width: int):
    """Consecutive slices of ``range(rows)`` spanning at most ``BLOCK`` entries
    of a table ``width`` wide (at least one row each)."""
    step = max(1, BLOCK // width)
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


def _tabulate(order, kernel):
    idx = np.arange(order, dtype=np.int64)
    table = np.empty((order, order), dtype=np.int32)
    for rows in row_blocks(order, order):
        table[rows] = kernel(idx[rows, None], idx[None, :])
    return table


def additive_span(ring: FiniteRing, seeds, within=None) -> tuple[np.ndarray, list[int]]:
    """Additive closure of ``within`` (a boolean mask of an additive subgroup;
    default the zero subgroup) and ``seeds``, as a boolean mask, plus the seeds
    that enlarged it, in seed order.

    A seed s outside the current subgroup H adds the cosets H + ks in doubling
    steps: H + {0..2^j - 1}s grows by translation by 2^j s until a step adds
    nothing. Every element it adds is a sum of a member and seeds, so on
    tables not yet known to form a ring it still adds nothing else.
    """
    mask = np.zeros(ring.order, dtype=bool) if within is None else within.copy()
    mask[ring.zero] = True
    seeds = np.asarray(seeds, dtype=np.int64).ravel()
    used = []
    while True:
        pending = seeds[~mask[seeds]]
        if not pending.size:
            return mask, used
        step = int(pending[0])
        used.append(step)
        members = np.flatnonzero(mask)
        while True:
            mask[ring.vadd(members, step)] = True
            grown = np.flatnonzero(mask)
            if grown.size == members.size:
                break
            members, step = grown, ring.add(step, step)


# axioms -------------------------------------------------------------------

def validate_ring(ring: FiniteRing) -> None:
    """Check every ring axiom on the tables; raise AxiomViolation with a witness.

    Closure, commutativity, the identities and additive inverses are checked
    on every pair. Associativity of + and ·, and distributivity, are checked
    for every x, y and each g in G = {0} ∪ (an additive generating set),
    found greedily by ``additive_span``: (x + g) + y = x + (g + y),
    (x·g)·y = x·(g·y) and x·(g + y) = x·g + x·y. For each identity the g that
    satisfy it for all x, y form a set closed under + (Light's associativity
    test, Clifford–Preston I §1.2; for distributivity once + is associative,
    for · once distributivity holds), so G certifies every triple. Cost
    O(|G|·n²) instead of O(n³); |G| is at most 1 + log2(n) for a ring.

    Requires materialized tables, so it only applies up to the table cap.
    """
    a, m = ring._add_t, ring._mul_t
    if a is None or m is None:
        raise ValueError("cannot validate a ring without tables")
    n = ring.order
    rng = np.arange(n)
    for opname, t in (("addition", a), ("multiplication", m)):
        if int(t.min()) < 0 or int(t.max()) >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise AxiomViolation(f"{opname} closure", (int(bad[0]), int(bad[1])))
        if not np.array_equal(t, t.T):
            bad = np.argwhere(t != t.T)[0]
            raise AxiomViolation(f"{opname} commutativity", (int(bad[0]), int(bad[1])))
    if ring.zero == ring.one:
        raise AxiomViolation("distinct identities", (ring.zero,))
    if not np.array_equal(a[ring.zero], rng):
        j = int(np.argwhere(a[ring.zero] != rng)[0][0])
        raise AxiomViolation("additive identity", (ring.zero, j))
    if not np.array_equal(m[ring.one], rng):
        j = int(np.argwhere(m[ring.one] != rng)[0][0])
        raise AxiomViolation("multiplicative identity", (ring.one, j))
    if not bool((a == ring.zero).any(axis=1).all()):
        i = int(np.argwhere(~(a == ring.zero).any(axis=1))[0][0])
        raise AxiomViolation("additive inverse", (i,))
    for g in [ring.zero] + additive_span(ring, rng)[1]:
        for axiom, left, right in (
                ("addition associativity", a[a[:, g]], a[:, a[g]]),
                ("multiplication associativity", m[m[:, g]], m[:, m[g]]),
                ("distributivity", m[:, a[g]], a[m[:, g, None], m])):
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                raise AxiomViolation(axiom, (int(x), g, int(y)))


# integers --------------------------------------------------------------------

def prime_factors(n: int):
    """Yield (p, k) for each prime p dividing n >= 1 with multiplicity k,
    p ascending, by trial division. Lazy: stopping early stops the search."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            yield p, k
        p += 1
    if n > 1:
        yield n, 1


def _prime_power(q):
    """(p, k) with q = p^k for a prime p, or None."""
    p, k = next(prime_factors(q), (None, 0))
    return (p, k) if p is not None and p ** k == q else None


# constructors --------------------------------------------------------------

class MixedRadix:
    """Mixed-radix codec: the index of digits (x_0, ..., x_{r-1}), x_k < sizes[k],
    is the sum of x_k·w_k with w_k = sizes[0]···sizes[k-1], so x_0 varies fastest.

    ``order`` is an exact Python int; callers bound it before using the int64
    weights.
    """

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.order = math.prod(int(s) for s in sizes)
        self.weights = np.cumprod(np.concatenate(([1], self.sizes)))[:-1]

    def digits(self, x) -> np.ndarray:
        """Digits of an index array, along a new last axis."""
        return np.asarray(x)[..., None] // self.weights % self.sizes

    def encode(self, digits) -> np.ndarray:
        """Indices of digit arrays given along their last axis."""
        return np.asarray(digits, dtype=np.int64) @ self.weights


def make_zmod(n: int) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    return _zmod(n, f"Z/{n}")


def _zmod(n, label):
    return FiniteRing(n, 0, 1, label, kernels=(lambda x, y: (x + y) % n,
                                               lambda x, y: (x * y) % n,
                                               lambda x: -x % n))


def make_gf(q: int) -> FiniteRing:
    """The finite field with q elements; q must be a prime power within
    ``VALIDATION_CAP``."""
    pk = _prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    if q > VALIDATION_CAP:
        raise ValueError(f"field order {q} exceeds the cap {VALIDATION_CAP}")
    p, k = pk
    if k == 1:
        return _zmod(p, f"GF({p})")
    base = make_gf(p)
    modulus = gfpoly.find_irreducible(base, k)
    return make_poly_quotient(base, modulus, label=f"GF({q})")


def make_poly_quotient(base: FiniteRing, f, label: str | None = None) -> FiniteRing:
    """Residue ring of base[x] modulo a monic polynomial f of degree >= 1.

    f is given as base element indices in ascending degree order. Elements of
    the quotient are residue polynomials of degree < deg(f), packed into a
    single index whose base-q digits are the coefficient indices.

    The kernels work on digit arrays through the base tables: a product is
    the sum over s of a_s·(x^s·b), with x^s·b obtained by s shift-and-reduce
    steps by f. Within ``TABLE_CAP`` the tables are filled a digit position at
    a time: the rows of indices a = a' + c·q^s (a' < q^s) are the rows of a'
    plus the rows of the monomial (c - c0)·x^s, c0 being the base element of
    index 0, so the whole table costs O(order²) array work.
    """
    if not is_field(base):
        raise ValueError("polynomial quotients are only built over a field")
    f = gfpoly.trim(base, tuple(f))
    if not gfpoly.is_monic(base, f):
        raise ValueError("modulus polynomial must be monic")
    d = gfpoly.degree(f)
    if d < 1:
        raise ValueError("modulus polynomial must have degree at least 1")
    q = base.order
    order = q ** d
    if order > 1 << 62:
        raise ValueError(f"quotient order {q}^{d} exceeds 2^62")
    if base._add_t is None:
        raise ValueError("base field is too large to serve as a coefficient field")

    badd, bmul, bneg = base._add_t, base._mul_t, base._neg_t
    bzero, bone = base.zero, base.one
    codec = MixedRadix([q] * d)
    digits, encode = codec.digits, codec.encode
    red = bneg[list(f[:d])]  # x^d mod f, as coefficient indices

    def add_k(x, y):
        return encode(badd[digits(x), digits(y)])

    def neg_k(x):
        return encode(bneg[digits(x)])

    def scale(c, y):
        """Coefficient c (a base index) times y."""
        return encode(bmul[np.asarray(c)[..., None], digits(y)])

    def times_x(y):
        dig = digits(y)
        low = np.concatenate([np.full(dig.shape[:-1] + (1,), bzero), dig[..., :-1]], axis=-1)
        return encode(badd[low, bmul[dig[..., -1:], red]])

    def mul_k(x, y):
        coeffs, acc, power = digits(x), zero_idx, np.asarray(y)
        for s in range(d):
            acc = add_k(acc, scale(coeffs[..., s], power))
            power = times_x(power)
        return acc

    def name_fn(i):
        coeffs = digits(i).tolist()
        while coeffs and coeffs[-1] == bzero:
            coeffs.pop()
        return gfpoly.render(base, tuple(coeffs))

    zero_idx = int(encode([bzero] * d))
    one_idx = int(encode([bone] + [bzero] * (d - 1)))
    if label is None:
        label = f"{base.label}[x]/({gfpoly.render(base, f)})"
    if order > TABLE_CAP:
        return FiniteRing(order, zero_idx, one_idx, label,
                          kernels=(add_k, mul_k, neg_k), names=name_fn)

    idx = np.arange(order, dtype=np.int64)
    add = np.empty((order, order), dtype=np.int32)
    mul = np.empty_like(add)
    add[0], mul[0] = add_k(0, idx), mul_k(0, idx)
    steps = badd[np.arange(1, q), bneg[0]]  # c - c0 for digits c = 1..q-1
    dig = digits(idx)
    for s, lo in enumerate(codec.weights.tolist()):
        digit = dig[:, s]
        shifted = idx + (badd[steps[:, None], digit] - digit) * lo  # b + (c - c0)x^s
        for k in range(q - 1):
            add[(k + 1) * lo:(k + 2) * lo] = add[:lo][:, shifted[k]]
    power = idx  # x^s·b for every b; the mul rows need the whole add table
    for lo in codec.weights.tolist():
        mono = scale(steps[:, None], power)  # (c - c0)x^s·b
        for k in range(q - 1):
            mul[(k + 1) * lo:(k + 2) * lo] = add[mul[:lo], mono[k]]
        power = times_x(power)
    return FiniteRing(order, zero_idx, one_idx, label, tables=(add, mul), names=name_fn)


def make_product(factors: Seq[FiniteRing]) -> FiniteRing:
    """Componentwise product ring on the Cartesian product of the factors."""
    if not factors:
        raise ValueError("a product ring needs at least one factor")
    codec = MixedRadix([f.order for f in factors])
    if codec.order > TABLE_CAP:
        raise ValueError(f"product order exceeds the cap {TABLE_CAP}")

    def componentwise(op):
        def kernel(x, y):
            dx, dy = codec.digits(x), codec.digits(y)
            # stacking on a leading axis copies whole blocks, unlike axis=-1
            return codec.encode(np.moveaxis(np.stack([op(f, dx[..., k], dy[..., k])
                                                      for k, f in enumerate(factors)]), 0, -1))
        return kernel

    zero = int(codec.encode([f.zero for f in factors]))
    one = int(codec.encode([f.one for f in factors]))
    return FiniteRing(codec.order, zero, one, " x ".join(f.label for f in factors),
                      kernels=(componentwise(FiniteRing.vadd),
                               componentwise(FiniteRing.vmul), None),
                      names=lambda i: _tuple_name(factors, codec.digits(i).tolist()))


def _tuple_name(factors, digits):
    return "(" + ",".join(f.name(dk) for f, dk in zip(factors, digits)) + ")"


def make_from_table(n: int, add_table, mul_table, names: Seq[str] | None = None,
                    label: str = "table ring") -> FiniteRing:
    """Build and fully validate a ring from raw n-by-n operation tables.

    Table input above the validation cap is rejected: unlike the structured
    backends there is nothing to trust it by.
    """
    if n < 2:
        raise ValueError("a unitary nonzero ring needs at least two elements")
    if n > VALIDATION_CAP:
        raise ValueError(f"table rings above {VALIDATION_CAP} elements cannot be validated")
    add = np.asarray(add_table, dtype=np.int64)
    mul = np.asarray(mul_table, dtype=np.int64)
    if add.size != n * n or mul.size != n * n:
        raise ValueError("operation tables must have n*n entries")
    add = add.reshape(n, n)
    mul = mul.reshape(n, n)
    if add.min() < 0 or add.max() >= n or mul.min() < 0 or mul.max() >= n:
        t = add if (add.min() < 0 or add.max() >= n) else mul
        bad = np.argwhere((t < 0) | (t >= n))[0]
        raise AxiomViolation("closure", (int(bad[0]), int(bad[1])))
    rng = np.arange(n)
    zeros = [i for i in range(n) if np.array_equal(add[i], rng)]
    if not zeros:
        raise AxiomViolation("additive identity", ())
    ones = [i for i in range(n) if np.array_equal(mul[i], rng)]
    if not ones:
        raise AxiomViolation("multiplicative identity", ())
    if names is not None and len(names) != n:
        raise ValueError("names must list one string per element")
    return FiniteRing(n, zeros[0], ones[0], label, tables=(add, mul),
                      names=list(names) if names is not None else None)


# queries --------------------------------------------------------------------

def units(ring: FiniteRing) -> frozenset[int]:
    """All elements with a multiplicative inverse."""
    if ring._units is None:
        x = ring.element_array()
        hit = np.zeros(ring.order, dtype=bool)
        for rows in row_blocks(ring.order, ring.order):
            hit[rows] = (ring.vmul(x[rows, None], x[None, :]) == ring.one).any(axis=1)
        ring._units = frozenset(np.flatnonzero(hit).tolist())
    return ring._units


def idempotents(ring: FiniteRing) -> frozenset[int]:
    """All elements equal to their own square; always contains 0 and 1."""
    if ring._idempotents is None:
        x = ring.element_array()
        ring._idempotents = frozenset(np.flatnonzero(ring.vmul(x, x) == x).tolist())
    return ring._idempotents


def is_field(ring: FiniteRing) -> bool:
    return len(units(ring)) == ring.order - 1


def inverse(ring: FiniteRing, x: int) -> Optional[int]:
    """The multiplicative inverse of x, or None when x is not a unit."""
    hits = np.flatnonzero(ring.vmul(x, ring.element_array()) == ring.one)
    return int(hits[0]) if hits.size else None
