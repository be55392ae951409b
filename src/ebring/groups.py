"""The unit group as a concrete abelian group: invariant factors, the exact
Davenport constant with a maximal zero-sum-free witness, and synthetic
products of cyclic groups.

A group is a sorted tuple of element indices with a vectorized operation
``vmul`` that broadcasts over index arrays like ``FiniteRing.vmul``. Group
work runs on arrays: the position table is one ``vmul`` over the element
array, read by validation and the Davenport sweep only; invariant factors
and the basis witness need only elementwise powers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, InternalConsistencyError, SearchRefused
from .ideals import units
from .records import Record
from .rings import (TABLE_CAP, VALIDATION_CAP, FiniteRing, MixedRadix, _prime_power,
                    check_table_cap, prime_factors, row_blocks, vpower)
from .search import longest_free_length
from .sequences import Sequence, product_set

DAVENPORT_CAP = 64


class AbelianGroupView:
    """A finite abelian group on element indices with a vectorized operation.

    For unit groups the indices are ring element indices; synthetic groups
    use 0..order-1. ``vmul``, ``one`` and ``name`` are those of the carrier
    protocol, so sequences and the searches work over it as over a ring.
    """

    def __init__(self, elements, vmul, one, label, name=str):
        self.elements = tuple(sorted(elements))
        self.vmul = vmul
        self.one = one
        self.label = label
        self.name = name
        self._table: np.ndarray | None = None
        self._invariant_factors: list[int] | None = None
        if one not in set(self.elements):
            raise ValueError("identity must be one of the group elements")
        if len(self.elements) <= VALIDATION_CAP:
            validate_group(self)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

    def element_array(self) -> np.ndarray:
        return np.asarray(self.elements, dtype=np.int64)

    def table(self) -> np.ndarray:
        """Position table: entry [i, j] is the position in ``elements`` of the
        product of the elements at positions i and j. A product outside the
        carrier gets the position where it would be inserted. Held as int32
        and refused above ``TABLE_CAP`` elements, as ring tables are."""
        if self._table is None:
            check_table_cap(self.label, self.order)
            e = self.element_array()
            self._table = np.empty((len(e), len(e)), dtype=np.int32)
            for rows in row_blocks(len(e), len(e)):
                self._table[rows] = np.searchsorted(e, self.vmul(e[rows, None], e[None, :]))
        return self._table

    def __repr__(self):
        return f"AbelianGroupView({self.label}, order={self.order})"


def validate_group(view: AbelianGroupView) -> None:
    """Closure, commutativity, identity, inverses, and associativity.

    Associativity is Light's test, as in ``validate_ring``: the g with
    a*(g*b) = (a*g)*b for all a, b are closed under *, so it is enough to
    test the elements of a generating set, grown greedily on the table.
    """
    els = view.element_array()
    n = len(els)
    e = view.elements.index(view.one)
    prod = np.asarray(view.vmul(els[:, None], els[None, :]))
    bad = np.flatnonzero(prod[e] != els)
    if bad.size:
        raise ValueError(f"identity fails at element {els[bad[0]]}")
    if view._table is None:  # the position table, from the products just taken
        view._table = np.searchsorted(els, prod).astype(np.int32)
    t = np.minimum(view._table, n - 1)
    escapes = els[t] != prod
    bad = np.argwhere(escapes | (prod != prod.T))
    if bad.size:
        i, j = bad[0]
        if escapes[i, j]:
            raise ValueError(f"operation escapes the carrier at ({els[i]}, {els[j]})")
        raise ValueError(f"commutativity fails at ({els[i]}, {els[j]})")
    bad = np.flatnonzero(~(t == e).any(axis=1))
    if bad.size:
        raise ValueError(f"element {els[bad[0]]} has no inverse")
    known = np.zeros(n, dtype=bool)
    known[e] = True
    for g in range(n):
        if known[g]:
            continue
        bad = np.argwhere(t[:, t[g]] != t[t[:, g]])
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"associativity fails at ({els[i]}, {els[g]}, {els[j]})")
        while True:  # known grows to the closure of known ∪ {g} under * by g
            members = np.flatnonzero(known)
            known[t[members, g]] = True
            if np.count_nonzero(known) == members.size:
                break


def unit_group_view(ring: FiniteRing) -> AbelianGroupView:
    """The group of units under ring multiplication. Cached per ring."""
    if ring._unit_group is None:
        ring._unit_group = AbelianGroupView(units(ring), ring.vmul, ring.one,
                                            f"U({ring.label})", ring.name)
    return ring._unit_group


def synthetic_group(spec) -> AbelianGroupView:
    """Direct product of cyclic groups of the given orders (each >= 2),
    under componentwise addition. The empty spec is the trivial group."""
    sizes = list(spec)
    for d in sizes:
        if d < 2:
            raise ValueError("cyclic factors must have order at least 2")
    if math.prod(sizes) > TABLE_CAP:
        raise ValueError(f"synthetic group order exceeds the cap {TABLE_CAP}")
    codec = MixedRadix(sizes)

    def vmul(a, b):
        return codec.encode((codec.digits(a) + codec.digits(b)) % codec.sizes)

    label = " x ".join(f"Z{d}" for d in sizes) if sizes else "Z1"
    name = ((lambda i: "(" + ",".join(map(str, codec.digits(i).tolist())) + ")")
            if len(sizes) > 1 else str)
    return AbelianGroupView(range(codec.order), vmul, 0, label, name)


def invariant_factors(view: AbelianGroupView) -> list[int]:
    """Invariant factor decomposition d_1 | d_2 | ... | d_r.

    For each prime p of |G| with p-part Z_{p^e_1} x ... x Z_{p^e_s}, the
    elements with x^(p^k) = 1 number p^(r_1 + ... + r_k), where r_j counts
    the e_i >= j; so the counts give the exponents e_i. The largest invariant
    factor takes the largest exponent of every prime, the next the next.
    """
    if view._invariant_factors is not None:
        return list(view._invariant_factors)
    exps = []  # per prime p: the exponents e_i, descending
    for p, v in prime_factors(view.order):
        x, logs = view.element_array(), [0]  # logs[k] = log_p #{x : x^(p^k) = 1}
        while logs[-1] < v:
            x = vpower(view.vmul, x, p)
            logs.append(round(math.log(np.count_nonzero(x == view.one), p)))
        ranks = np.diff(logs)  # ranks[k - 1] = r_k
        exps.append((p, [int(np.count_nonzero(ranks >= i)) for i in range(1, ranks[0] + 1)]))
    out = [math.prod(p ** e[i] for p, e in exps if i < len(e))
           for i in reversed(range(max((len(e) for _, e in exps), default=0)))]
    view._invariant_factors = list(out)
    return out


class DavenportResult(Record):
    """Exact Davenport constant with a maximal zero-sum-free witness."""
    value: int
    witness: Sequence


def is_zero_sum_free(view: AbelianGroupView, seq: Sequence) -> bool:
    return view.one not in product_set(seq)


def _basis_witness(view: AbelianGroupView, factors: list[int]) -> tuple[int, ...]:
    """g_1^(n_1-1)...g_r^(n_r-1) for the invariant factors n_1 >= ... >= n_r,
    where g_i is the least element of order exactly n_i modulo the span H of
    g_1, ..., g_(i-1): g_i^(n_i) in H and g_i^(n_i/p) not in H for each
    prime p of n_i. For a cyclic group, g_1 is its least generator.

    g_i exists: an element of largest order in G/H generates a direct
    summand, so G/H keeps the factors n_i, ..., n_r. The witness is zero-sum
    free: take a product of the g_i^(k_i), 0 <= k_i < n_i and not all zero,
    and the largest i with k_i != 0; it is the identity only if g_i^(k_i)
    lies in H, against the order of g_i modulo H.
    """
    els = view.element_array()
    span = els == view.one  # H, by position in ``els``
    terms = []
    for n in sorted(factors, reverse=True):
        fits = span[np.searchsorted(els, vpower(view.vmul, els, n))]
        for p, _ in prime_factors(n):
            fits &= ~span[np.searchsorted(els, vpower(view.vmul, els, n // p))]
        if not fits.any():
            raise InternalConsistencyError(
                f"no element of {view.label} has order {n} modulo the earlier basis elements")
        g = int(els[np.argmax(fits)])
        terms += [g] * (n - 1)
        coset = els[span]
        for _ in range(n - 1):
            coset = view.vmul(coset, g)
            span[np.searchsorted(els, coset)] = True
    return tuple(terms)


def davenport(view: AbelianGroupView, *, budget: int | None = None) -> DavenportResult:
    """Smallest length forcing a subsequence with identity product, with a
    zero-sum-free witness of one term less.

    D(G) >= D*(G) = 1 + sum(n_i - 1) over the invariant factors n_i, and
    D(G) = D*(G) is a theorem for cyclic groups, for rank two and for
    p-groups (Olson 1969; Geroldinger-Halter-Koch, Non-Unique Factorizations,
    2006, ch. 5). Those groups take D* and run no search; the rest take the
    value of the level sweep over the product sets of non-identity elements.
    Either way the witness is the basis witness of length D* - 1 (see
    ``_basis_witness``), checked zero-sum free. So a sweep value above D*,
    as for Z2^4 x Z2k with odd k >= 3, is refused: no witness method
    applies. One below D* is an inconsistency. Groups above
    ``VALIDATION_CAP``, or above ``DAVENPORT_CAP`` when the sweep runs, are
    refused unless a node budget is given, which bounds the sweep.
    """
    factors = invariant_factors(view)
    value = 1 + sum(d - 1 for d in factors)
    swept = len(factors) > 2 and _prime_power(view.order) is None
    cap = DAVENPORT_CAP if swept else VALIDATION_CAP
    if view.order > cap and budget is None:
        raise SearchRefused(f"group order {view.order} exceeds the "
                            f"{'search' if swept else 'witness'} cap {cap}; pass --budget to run it")
    if swept:
        e = view.elements.index(view.one)
        try:
            found = longest_free_length(view.table(), range(view.order), {e}, budget=budget) + 1
        except BudgetExceeded as exc:
            raise exc.within(f"Davenport sweep of {view.label}") from None
        if found > value:
            raise SearchRefused(f"the sweep found D = {found} in {view.label}, above "
                                f"D* = {value}, and no witness method applies")
        if found < value:
            raise InternalConsistencyError(
                f"the sweep found D = {found} in {view.label}, below D* = {value}")
    witness = Sequence.make(view, _basis_witness(view, factors))
    if len(witness) != value - 1 or not is_zero_sum_free(view, witness):
        raise InternalConsistencyError(f"Davenport witness of {view.label} is not zero-sum free")
    return DavenportResult(value, witness)
