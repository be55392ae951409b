"""The unit group as a concrete abelian group: invariant factors, the exact
Davenport constant with a maximal zero-sum-free witness, and synthetic
products of cyclic groups.

A group is a sorted tuple of element indices with a vectorized operation
``vop`` that broadcasts over index arrays like ``FiniteRing.vmul``. Group
work runs on arrays: the position table is one ``vop`` over the element
array, and invariant factors need only elementwise powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InternalConsistencyError
from .rings import FiniteRing, MixedRadix, _prime_power, prime_factors, row_blocks, units
from .search import max_free_sequence
from .sequences import Sequence, product_set

GROUP_VALIDATION_CAP = 512
DAVENPORT_CAP = 64


class AbelianGroupView:
    """A finite abelian group on element indices with a vectorized operation.

    For unit groups the indices are ring element indices; synthetic groups
    use 0..order-1. Exposes ``mul``/``vmul``/``one`` so sequences work over it.
    """

    def __init__(self, elements, vop, identity, label, names=None):
        self.elements = tuple(sorted(elements))
        self.vop = vop
        self.identity = identity
        self.label = label
        self._names = names
        self._table: np.ndarray | None = None
        self._invariant_factors: list[int] | None = None
        if identity not in set(self.elements):
            raise ValueError("identity must be one of the group elements")
        if len(self.elements) <= GROUP_VALIDATION_CAP:
            validate_group(self)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def one(self) -> int:
        return self.identity

    def mul(self, a: int, b: int) -> int:
        return int(self.vop(a, b))

    @property
    def vmul(self):
        return self.vop

    def name(self, i: int) -> str:
        if self._names is None:
            return str(i)
        if callable(self._names):
            return self._names(i)
        return self._names[i]

    def element_array(self) -> np.ndarray:
        return np.asarray(self.elements, dtype=np.int64)

    def table(self) -> np.ndarray:
        """Position table: entry [i, j] is the position in ``elements`` of the
        product of the elements at positions i and j. A product outside the
        carrier gets the position where it would be inserted."""
        if self._table is None:
            e = self.element_array()
            self._table = np.empty((len(e), len(e)), dtype=np.int64)
            for rows in row_blocks(len(e), len(e)):
                self._table[rows] = np.searchsorted(e, self.vop(e[rows, None], e[None, :]))
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
    e = view.elements.index(view.identity)
    prod = np.asarray(view.vop(els[:, None], els[None, :]))
    bad = np.flatnonzero(prod[e] != els)
    if bad.size:
        raise ValueError(f"identity fails at element {els[bad[0]]}")
    t = np.minimum(view.table(), n - 1)
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
    view = getattr(ring, "_unit_group_view", None)
    if view is None:
        view = AbelianGroupView(sorted(units(ring)), ring.vmul, ring.one,
                                f"U({ring.label})", names=ring.name)
        ring._unit_group_view = view
    return view


def synthetic_group(spec) -> AbelianGroupView:
    """Direct product of cyclic groups of the given orders (each >= 2),
    under componentwise addition. The empty spec is the trivial group."""
    sizes = list(spec)
    for d in sizes:
        if d < 2:
            raise ValueError("cyclic factors must have order at least 2")
    codec = MixedRadix(sizes)
    if codec.order > 4096:
        raise ValueError("synthetic group order exceeds the cap 4096")

    def vop(a, b):
        return codec.encode((codec.digits(a) + codec.digits(b)) % codec.sizes)

    label = " x ".join(f"Z{d}" for d in sizes) if sizes else "Z1"
    names = ((lambda i: "(" + ",".join(map(str, codec.digits(i).tolist())) + ")")
             if len(sizes) > 1 else str)
    return AbelianGroupView(range(codec.order), vop, 0, label, names=names)


def _power(view: AbelianGroupView, x: np.ndarray, k: int) -> np.ndarray:
    """Elementwise x^k for k >= 1, by repeated squaring."""
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else view.vop(acc, x)
        k >>= 1
        if k:
            x = view.vop(x, x)
    return acc


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
            x = _power(view, x, p)
            logs.append(round(math.log(np.count_nonzero(x == view.identity), p)))
        ranks = np.diff(logs)  # ranks[k - 1] = r_k
        exps.append((p, [int(np.count_nonzero(ranks >= i)) for i in range(1, ranks[0] + 1)]))
    out = [math.prod(p ** e[i] for p, e in exps if i < len(e))
           for i in reversed(range(max((len(e) for _, e in exps), default=0)))]
    view._invariant_factors = list(out)
    return out


@dataclass(frozen=True)
class DavenportResult:
    """Exact Davenport constant with a maximal zero-sum-free witness."""
    value: int
    witness: Sequence
    group: AbelianGroupView


def is_zero_sum_free(view: AbelianGroupView, seq: Sequence) -> bool:
    return view.identity not in product_set(seq)


def _least_generator(view: AbelianGroupView) -> int:
    """Least element of a cyclic group whose power n/p is not the identity
    for any prime p of the order n."""
    els = view.element_array()
    gen = np.ones(len(els), dtype=bool)
    for p, _ in prime_factors(view.order):
        gen &= _power(view, els, view.order // p) != view.identity
    return int(els[np.argmax(gen)])


def davenport(view: AbelianGroupView, *, budget: int | None = None) -> DavenportResult:
    """Smallest length forcing a subsequence with identity product, with the
    lexicographically least zero-sum-free witness of one term less.

    D(G) = D*(G) = 1 + sum(n_i - 1) over the invariant factors n_i is a
    theorem for cyclic groups, for rank two and for p-groups (Olson 1969;
    Geroldinger-Halter-Koch, Non-Unique Factorizations, 2006, ch. 5).
    Cyclic groups up to ``GROUP_VALIDATION_CAP`` take the closed form: the
    zero-sum-free sequences of length n - 1 in Z_n are g^(n-1) for the
    generators g, so the witness is the least generator n - 1 times. Other
    groups run the exact search over canonical nondecreasing sequences of
    non-identity elements, within ``DAVENPORT_CAP`` unless a node budget is
    given; where the theorem holds it is the search's ceiling, and the search
    must meet it. Every witness is checked zero-sum free.
    """
    factors = invariant_factors(view)
    value = 1 + sum(d - 1 for d in factors)
    if len(factors) <= 1 and view.order <= GROUP_VALIDATION_CAP:
        terms = (_least_generator(view),) * (view.order - 1)
    else:
        if view.order > DAVENPORT_CAP and budget is None:
            raise BudgetExceeded(
                f"group order {view.order} exceeds the search cap {DAVENPORT_CAP}; "
                "pass a budget to override")
        theorem = len(factors) <= 2 or _prime_power(view.order) is not None
        e = view.elements.index(view.identity)
        candidates = [i for i in range(view.order) if i != e]
        try:
            length, wit_pos = max_free_sequence(view.table().tolist(), candidates, {e},
                                                budget=budget, ceiling=value - 1 if theorem else None)
        except BudgetExceeded as exc:
            raise exc.within(f"Davenport search of {view.label}") from None
        if theorem and length != value - 1:
            raise InternalConsistencyError(
                f"search found D = {length + 1} in {view.label}, against the theorem's {value}")
        value = length + 1
        terms = tuple(view.elements[p] for p in wit_pos)
    witness = Sequence.make(view, terms)
    if len(witness) != value - 1 or not is_zero_sum_free(view, witness):
        raise InternalConsistencyError(f"Davenport witness of {view.label} is not zero-sum free")
    return DavenportResult(value, witness, view)
