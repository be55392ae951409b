"""The unit group as a concrete abelian group: invariant factors, the exact
Davenport constant with a maximal zero-sum-free witness, and synthetic
products of cyclic groups."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .rings import FiniteRing, units
from .search import SearchBudget, max_free_sequence
from .sequences import Sequence, product_set

GROUP_VALIDATION_CAP = 512
DAVENPORT_CAP = 64


class AbelianGroupView:
    """A finite abelian group on element indices with a total operation.

    For unit groups the indices are ring element indices; synthetic groups
    use 0..order-1. Exposes ``mul``/``one`` so sequences work over it.
    """

    def __init__(self, elements, op, identity, label, names=None, validate=True):
        self.elements = tuple(sorted(elements))
        self.op = op
        self.identity = identity
        self.label = label
        self._names = names
        self._invariant_factors: list[int] | None = None
        if identity not in set(self.elements):
            raise ValueError("identity must be one of the group elements")
        if validate and len(self.elements) <= GROUP_VALIDATION_CAP:
            validate_group(self)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def one(self) -> int:
        return self.identity

    def mul(self, a: int, b: int) -> int:
        return self.op(a, b)

    def name(self, i: int) -> str:
        if self._names is None:
            return str(i)
        if callable(self._names):
            return self._names(i)
        return self._names[i]

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != self.identity:
            acc = self.op(acc, a)
            k += 1
        return k

    def exponent(self) -> int:
        return max(self.element_order(a) for a in self.elements)

    def __repr__(self):
        return f"AbelianGroupView({self.label}, order={self.order})"


def validate_group(view: AbelianGroupView) -> None:
    """Closure, commutativity, identity, inverses, and associativity.

    Associativity is checked through a greedy generating set: it is enough
    to test a*(g*b) = (a*g)*b for every generator g.
    """
    els = view.elements
    elset = set(els)
    op = view.op
    e = view.identity
    for a in els:
        if op(e, a) != a:
            raise ValueError(f"identity fails at element {a}")
    for a in els:
        for b in els:
            c = op(a, b)
            if c not in elset:
                raise ValueError(f"operation escapes the carrier at ({a}, {b})")
            if op(b, a) != c:
                raise ValueError(f"commutativity fails at ({a}, {b})")
    for a in els:
        if not any(op(a, b) == e for b in els):
            raise ValueError(f"element {a} has no inverse")
    for g in _greedy_generators(view):
        for a in els:
            for b in els:
                if op(a, op(g, b)) != op(op(a, g), b):
                    raise ValueError(f"associativity fails at ({a}, {g}, {b})")


def _greedy_generators(view) -> list[int]:
    known = {view.identity}
    gens = []
    for x in view.elements:
        if x not in known:
            gens.append(x)
            powers = [view.identity]
            acc = x
            while acc not in known and acc != view.identity:
                powers.append(acc)
                acc = view.op(acc, x)
            known = {view.op(k, p) for k in known for p in powers}
    return gens


def unit_group_view(ring: FiniteRing) -> AbelianGroupView:
    """The group of units under ring multiplication. Cached per ring."""
    view = getattr(ring, "_unit_group_view", None)
    if view is None:
        view = AbelianGroupView(sorted(units(ring)), ring.mul, ring.one,
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
    order = 1
    for d in sizes:
        order *= d
        if order > 4096:
            raise ValueError("synthetic group order exceeds the cap 4096")
    weights = []
    w = 1
    for d in sizes:
        weights.append(w)
        w *= d

    def decode(idx):
        return tuple((idx // weights[k]) % sizes[k] for k in range(len(sizes)))

    def op(a, b):
        da, db = decode(a), decode(b)
        return sum(((da[k] + db[k]) % sizes[k]) * weights[k] for k in range(len(sizes)))

    label = " x ".join(f"Z{d}" for d in sizes) if sizes else "Z1"
    names = (lambda i: "(" + ",".join(str(t) for t in decode(i)) + ")") if len(sizes) > 1 else str
    return AbelianGroupView(range(order), op, 0, label, names=names)


def _quotient_by_cyclic(view: AbelianGroupView, g: int) -> AbelianGroupView:
    powers = [view.identity]
    acc = g
    while acc != view.identity:
        powers.append(acc)
        acc = view.op(acc, g)
    rep_of = {}
    reps = []
    for x in view.elements:
        if x not in rep_of:
            for h in powers:
                rep_of[view.op(x, h)] = x
            reps.append(x)
    return AbelianGroupView(reps, lambda a, b: rep_of[view.op(a, b)],
                            rep_of[view.identity], f"{view.label} quotient",
                            names=view._names, validate=False)


def invariant_factors(view: AbelianGroupView) -> list[int]:
    """Invariant factor decomposition d_1 | d_2 | ... | d_r.

    A maximal-order element generates a direct summand of a finite abelian
    group; extract it (ties broken by least index), quotient, recurse.
    """
    if view._invariant_factors is not None:
        return list(view._invariant_factors)
    factors_desc = []
    cur = view
    while cur.order > 1:
        best, best_ord = None, 0
        for a in cur.elements:
            k = cur.element_order(a)
            if k > best_ord:
                best, best_ord = a, k
        factors_desc.append(best_ord)
        cur = _quotient_by_cyclic(cur, best)
    out = list(reversed(factors_desc))
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


def davenport(view: AbelianGroupView, *, cap: int = DAVENPORT_CAP,
              budget: SearchBudget | None = None, trust_formulas: bool = False) -> DavenportResult:
    """Smallest length forcing a subsequence with identity product.

    Exact search over canonical nondecreasing sequences of non-identity
    elements, pruning branches whose product set reaches the identity.
    ``trust_formulas`` short-circuits cyclic groups to their order instead
    of searching.
    """
    if trust_formulas:
        facs = invariant_factors(view)
        if len(facs) <= 1:
            value = facs[0] if facs else 1
            gen = next((a for a in view.elements
                        if view.element_order(a) == value), view.identity)
            wit = Sequence.make(view, (gen,) * (value - 1))
            return DavenportResult(value, wit, view)
    if view.order > cap and budget is None:
        raise BudgetExceeded(
            f"group order {view.order} exceeds the search cap {cap}; "
            "pass a budget or use trust_formulas for cyclic groups")
    pos = {a: i for i, a in enumerate(view.elements)}
    rows = [[pos[view.op(a, b)] for b in view.elements] for a in view.elements]
    candidates = [pos[a] for a in view.elements if a != view.identity]
    length, wit_pos = max_free_sequence(rows, candidates, {pos[view.identity]}, budget=budget)
    witness = Sequence.make(view, tuple(view.elements[p] for p in wit_pos))
    return DavenportResult(length + 1, witness, view)
