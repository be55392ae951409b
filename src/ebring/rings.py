"""Finite commutative unitary rings on an element-indexed carrier.

Every ring presents the same interface: elements are the indices
``0..order-1`` and the structure is given by total ``add``/``mul``/``neg``
operations plus distinguished ``zero`` and ``one`` indices. The same
operations come vectorized as ``vadd``/``vmul``/``vneg``, which take integer
index arrays and broadcast like numpy ufuncs; the ideal layer is written
against them.

A constructor gives either operation tables or vectorized kernels (callables
with the broadcasting behaviour of ``vadd``/``vmul``/``vneg``). A ring built
from kernels computes on them and tabulates them, by array indexing, only when
something reads its tables through ``FiniteRing.tables``: validation, the
exact search, a product ring or a polynomial quotient over it. Tables are
refused above ``TABLE_CAP`` elements. Polynomial quotients and product rings
within the cap are built with their tables, filled from the base tables or
broadcast from the factors' tables, never by a per-element callback. Rings of
order up to ``VALIDATION_CAP`` are checked against the ring axioms at
construction time; structured backends above the cap are trusted by
construction, while raw table input above the cap is rejected because it
carries no correctness guarantee.
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


def check_table_cap(label: str, order: int) -> None:
    """Refuse an order² table, of a ring or a group, above ``TABLE_CAP``."""
    if order > TABLE_CAP:
        raise ValueError(f"{label} has {order} elements, beyond the table cap {TABLE_CAP}")


class FiniteRing:
    """A finite commutative unitary ring with elements indexed 0..order-1.

    Pass ``tables=(add, mul)`` (order-by-order index arrays) or
    ``kernels=(add, mul, neg)`` (vectorized callables). The operations
    ``vadd``/``vmul``/``vneg`` are bound at construction, to the kernels, and
    rebound to gathers from the tables once they exist. ``names`` gives
    ``name``: a callable, a list of one string per element, or None for the
    index itself.
    """

    def __init__(self, order: int, zero: int, one: int, label: str, *,
                 tables=None, kernels: tuple[Callable, ...] | None = None,
                 names: Callable[[int], str] | Seq[str] | None = None):
        if order < 2:
            raise ValueError("a unitary nonzero ring needs at least two elements")
        self.order = order
        self.zero = zero
        self.one = one
        self.label = label
        self.name: Callable[[int], str] = (
            str if names is None else names if callable(names) else list(names).__getitem__)
        self._units: frozenset[int] | None = None
        # (mask, generators) of each maximal ideal, not the Ideal objects:
        # those point back at the ring and would keep it in a reference cycle
        self._maximal: list[tuple[np.ndarray, tuple[int, ...]]] | None = None
        self._idempotents: frozenset[int] | None = None
        self._unit_group = None  # groups.unit_group_view's AbelianGroupView

        self._add_t = self._mul_t = self._neg_t = None
        if tables is not None:
            self._set_tables(*tables)
        else:
            self.vadd, self.vmul, self.vneg = kernels

        if order <= VALIDATION_CAP:
            validate_ring(self)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The (add, mul) operation tables as int32 arrays, tabulated from the
        kernels on the first call; refused above ``TABLE_CAP`` elements."""
        if self._add_t is None:
            check_table_cap(self.label, self.order)
            self._set_tables(_tabulate(self.order, self.vadd),
                             _tabulate(self.order, self.vmul))
        return self._add_t, self._mul_t

    def _set_tables(self, add, mul):
        """Store the tables and rebind ``vadd``/``vmul``/``vneg`` to gathers
        from them."""
        add, mul = (np.asarray(t, dtype=np.int32).reshape(self.order, self.order)
                    for t in (add, mul))
        neg = np.argmax(add == self.zero, axis=1).astype(np.int32)
        self._add_t, self._mul_t, self._neg_t = add, mul, neg
        self.vadd = lambda x, y: add[x, y]
        self.vmul = lambda x, y: mul[x, y]
        self.vneg = neg.__getitem__

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

    @property
    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"FiniteRing({self.label}, order={self.order})"


def row_blocks(rows: int, width: int):
    """Consecutive slices of ``range(rows)`` spanning at most ``BLOCK`` entries
    of a table ``width`` wide (at least one row each)."""
    step = max(1, BLOCK // width)
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


def _tabulate(order, kernel):
    # int32 indices suffice, and keep the Z/n kernels in int32: within
    # TABLE_CAP every i + j and i·j is below 2^24
    idx = np.arange(order, dtype=np.int32)
    table = np.empty((order, order), dtype=np.int32)
    for rows in row_blocks(order, order):
        table[rows] = kernel(idx[rows, None], idx[None, :])
    return table


def additive_span(ring: FiniteRing, seeds, within=None) -> tuple[np.ndarray, list[int]]:
    """Additive closure of ``within`` (a boolean mask of an additive subgroup;
    default the zero subgroup) and ``seeds``, as a boolean mask, plus the seeds
    that enlarged it, in seed order.

    A seed s outside the current subgroup H adds the cosets H + ks in doubling
    steps: H + {0..2^j - 1}s grows by translation by 2^j s until 2^j s is
    inside it. The set holds zero, so a translate grows it exactly when the
    step is outside, and once 2^j s is inside, the set is the subgroup
    H + <s>. The loop ends because a translate puts the step itself in the
    set, as zero + step = step, which ``validate_ring`` checks before it
    spans. Every element added is a sum of a member and seeds, so on tables
    not yet known to form a ring it still adds nothing else.
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
        while not mask[step]:
            mask[ring.vadd(np.flatnonzero(mask), step)] = True
            step = ring.add(step, step)


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
    Commutativity, checked first, turns each side into a gather of whole rows
    or columns of one table, with no transpose: (x∘g)∘y is the row gather
    t.take(t[g], axis=0) and x∘(g∘y) the column gather t.take(t[g], axis=1);
    x·(g + y) is the column gather m.take(a[g], axis=1), and g·x + x·y is the
    row gather a.take(m[g], axis=0) read at the flat indices x·n + x·y, one
    index plane built per call. Each compared array equals the direct one
    entry by entry, so the first failing (x, g, y) is the same. The gathers
    read uint16 copies of the tables, made once the closure checks have
    passed (every order up to ``TABLE_CAP`` fits): half the bytes of int32.

    Reads the tables, so it only applies up to the table cap.
    """
    a, m = ring.tables()
    n = ring.order
    rng = np.arange(n)
    for opname, t in (("addition", a), ("multiplication", m)):
        if int(t.min()) < 0 or int(t.max()) >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise AxiomViolation(f"{opname} closure", (int(bad[0]), int(bad[1])))
        if not np.array_equal(t, t.T):
            bad = np.argwhere(t != t.T)[0]
            raise AxiomViolation(f"{opname} commutativity", (int(bad[0]), int(bad[1])))
    a, m = a.astype(np.uint16), m.astype(np.uint16)
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
    plane = m + n * rng[:, None]  # flat index of (x, x·y) in an n-by-n array
    for g in [ring.zero] + additive_span(ring, rng)[1]:
        for axiom, left, right in (
                ("addition associativity", a.take(a[g], axis=0), a.take(a[g], axis=1)),
                ("multiplication associativity", m.take(m[g], axis=0), m.take(m[g], axis=1)),
                ("distributivity", m.take(a[g], axis=1), a.take(m[g], axis=0).take(plane))):
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


def _field_prime_power(q):
    """``_prime_power(q)`` for a field order q; an order above
    ``VALIDATION_CAP`` is refused before any trial division."""
    if q > VALIDATION_CAP:
        raise ValueError(f"field order {q} exceeds the cap {VALIDATION_CAP}")
    return _prime_power(q)


def make_gf(q: int) -> FiniteRing:
    """The finite field with q elements; q must be a prime power within
    ``VALIDATION_CAP``."""
    pk = _field_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
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
    badd, bmul = base.tables()
    bneg = base._neg_t
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
    """Componentwise product ring on the Cartesian product of the factors.

    The tables broadcast the factor tables: with x_0 varying fastest, each
    factor's table scaled by the order so far is added, as an outer sum, to
    the table of the earlier factors. Every factor is within ``TABLE_CAP``,
    so its tables can be read, since the product is.
    """
    if not factors:
        raise ValueError("a product ring needs at least one factor")
    if math.prod(f.order for f in factors) > TABLE_CAP:  # before the int64 codec
        raise ValueError(f"product order exceeds the cap {TABLE_CAP}")
    codec = MixedRadix([f.order for f in factors])
    add, mul = factors[0].tables()
    for f in factors[1:]:
        lo, hi = len(add), f.order
        f_add, f_mul = f.tables()
        add = (f_add[:, None, :, None] * lo + add[None, :, None, :]).reshape(lo * hi, lo * hi)
        mul = (f_mul[:, None, :, None] * lo + mul[None, :, None, :]).reshape(lo * hi, lo * hi)
    zero = int(codec.encode([f.zero for f in factors]))
    one = int(codec.encode([f.one for f in factors]))
    return FiniteRing(codec.order, zero, one, " x ".join(f.label for f in factors),
                      tables=(add, mul),
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
    try:
        add = np.asarray(add_table, dtype=np.int64)
        mul = np.asarray(mul_table, dtype=np.int64)
    except OverflowError:
        raise ValueError("operation table entries must be element indices below n") from None
    if add.size != n * n or mul.size != n * n:
        raise ValueError("operation tables must have n*n entries")
    add = add.reshape(n, n)
    mul = mul.reshape(n, n)
    if add.min() < 0 or add.max() >= n or mul.min() < 0 or mul.max() >= n:
        t = add if (add.min() < 0 or add.max() >= n) else mul
        bad = np.argwhere((t < 0) | (t >= n))[0]
        raise AxiomViolation("closure", (int(bad[0]), int(bad[1])))
    rng = np.arange(n)
    zeros = (add == rng).all(axis=1)
    if not zeros.any():
        raise AxiomViolation("additive identity", ())
    ones = (mul == rng).all(axis=1)
    if not ones.any():
        raise AxiomViolation("multiplicative identity", ())
    if names is not None and len(names) != n:
        raise ValueError("names must list one string per element")
    return FiniteRing(n, int(np.argmax(zeros)), int(np.argmax(ones)), label, tables=(add, mul),
                      names=names)


# queries --------------------------------------------------------------------

def vpower(vmul, x, k: int) -> np.ndarray:
    """Elementwise x^k for k >= 1 under the vectorized operation ``vmul``,
    by repeated squaring."""
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else vmul(acc, x)
        k >>= 1
        if k:
            x = vmul(x, x)
    return acc


def idempotents(ring: FiniteRing) -> frozenset[int]:
    """All elements equal to their own square; always contains 0 and 1."""
    if ring._idempotents is None:
        x = ring.element_array()
        ring._idempotents = frozenset(np.flatnonzero(ring.vmul(x, x) == x).tolist())
    return ring._idempotents


def is_field(ring: FiniteRing) -> bool:
    """Whether every nonzero element is a unit: x^(n-1) = 1 for every x != 0,
    which holds in a field of n elements (Lagrange) and makes each such x a
    unit."""
    x = ring.element_array()
    return bool((vpower(ring.vmul, x[x != ring.zero], ring.order - 1) == ring.one).all())


def inverse(ring: FiniteRing, x: int) -> Optional[int]:
    """The multiplicative inverse of x, or None when x is not a unit."""
    hits = np.flatnonzero(ring.vmul(x, ring.element_array()) == ring.one)
    return int(hits[0]) if hits.size else None
