"""Ideal arithmetic: generation, product, powers, index, nilradical,
maximal ideals, units, quotient rings and coset-intersection CRT solving.

All operations are pure functions of immutable inputs. An ideal is stored as
one read-only boolean membership mask over the ring's elements, and the work
runs on masks and index arrays through the ring's vectorized ``vadd``/``vmul``,
so the same code runs on a ring's tables where it holds them and on its
kernels otherwise. Additive closures come from ``rings.additive_span``: each
enlarging seed adds its cosets in doubling steps.

The maximal ideals come from the primitive idempotents of the ring itself,
each certified by a primitive element of its residue field, and the units
are the elements outside all of them, each certified by a power. No quotient
ring is built on the way.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import InternalConsistencyError
from .rings import (FiniteRing, VALIDATION_CAP, additive_span, idempotents,
                    prime_factors, vpower)


class Ideal:
    """A subset of ring elements closed under addition and absorption, stored
    as its read-only boolean membership ``mask`` only. ``members`` (a
    frozenset) and ``generators`` (a greedily reduced generating list, for
    rendering) are derived from it on first read, unless the generators are
    passed in. Ideals are equal when their rings are and their masks match.
    """

    def __init__(self, ring: FiniteRing, mask: np.ndarray, generators=None):
        mask.flags.writeable = False
        self.ring, self.mask = ring, mask
        if generators is not None:
            self.generators = generators

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return _greedy_generators(self.ring, self.mask)[0]

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def is_proper(self) -> bool:
        return not self.mask[self.ring.one]

    @property
    def is_zero(self) -> bool:
        return self.size == 1

    def render(self) -> str:
        if not self.generators:
            return f"({self.ring.name(self.ring.zero)})"
        return "(" + ",".join(self.ring.name(g) for g in self.generators) + ")"

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring is other.ring
                and np.array_equal(self.mask, other.mask))

    def __hash__(self):
        return hash((id(self.ring), self.mask.tobytes()))

    def __repr__(self):
        return f"Ideal({self.ring.label}, {self.render()}, size={self.size})"


def _ideal_closure(ring, gens, within=None) -> np.ndarray:
    """Mask of the ideal generated by gens and the ideal masked by ``within``."""
    seeds = ring.vmul(np.asarray(gens, dtype=np.int64)[:, None], ring.element_array()[None, :])
    return additive_span(ring, seeds, within)[0]


def _greedy_generators(ring, mask) -> tuple[tuple[int, ...], np.ndarray]:
    """Least members of the ideal masked by ``mask``, ascending, each outside
    the ideal the earlier ones generate; plus the mask of the ideal they all
    generate."""
    candidates = np.flatnonzero(mask)
    have = additive_span(ring, ())[0]  # the zero ideal
    gens: list[int] = []
    while True:
        missing = candidates[~have[candidates]]
        if not missing.size:
            return tuple(gens), have
        gens.append(int(missing[0]))
        have = _ideal_closure(ring, gens[-1:], have)


def _additive_generators(ideal: Ideal) -> list[int]:
    """Members of the ideal that generate it as an additive group."""
    return additive_span(ideal.ring, np.flatnonzero(ideal.mask))[1]


def _times(ideal: Ideal, gens) -> Ideal:
    """The additive span of all x·g, x in the ideal, g in ``gens``: the
    product with the ideal that ``gens`` generate additively, as x·y is
    additive in y."""
    ring = ideal.ring
    seeds = ring.vmul(np.flatnonzero(ideal.mask)[:, None], np.asarray(gens, dtype=np.int64))
    return Ideal(ring, additive_span(ring, seeds)[0])


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, np.ones(ring.order, dtype=bool), (ring.one,))


def ideal_generated_by(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing the given elements."""
    return Ideal(ring, _ideal_closure(ring, tuple(gens)))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """The additive span of all x·y (x in a, y in b)."""
    if a.ring is not b.ring:
        raise ValueError("ideals belong to different rings")
    return _times(b, _additive_generators(a))


def power_chain(n: Ideal) -> list[Ideal]:
    """The powers N^0 (the whole ring), N^1, ..., N^k up to the first k with
    N^k = N^(k+1); k is the index of N and the chain is stationary from there.
    N's additive generators are found once, and N^(i+1) is the additive span
    of x·g for x in N^i and g among them."""
    gens = _additive_generators(n)
    chain, nxt = [unit_ideal(n.ring)], n
    while nxt != chain[-1]:
        chain.append(nxt)
        nxt = _times(nxt, gens)
    return chain


def ideal_power(n: Ideal, i: int) -> Ideal:
    """i-th power of an ideal; the 0-th power is the whole ring."""
    if i < 0:
        raise ValueError("ideal powers need a nonnegative exponent")
    chain = power_chain(n)
    return chain[min(i, len(chain) - 1)]


def ideal_index(n: Ideal) -> int:
    """Least k with N^k = N^(k+1); the chain is stationary from there on."""
    return len(power_chain(n)) - 1


def _nil_mask(ring) -> np.ndarray:
    """Mask of the nilpotent elements. If x^m = 0 and x^(m-1) != 0, the
    ideals R, xR, ..., x^m R = 0 strictly decrease (x^i R = x^(i+1) R would
    give x^i = x^(i+j) r^j for every j, so x^i = 0), and each is a proper
    subgroup of the one before, at most half its size; x^(m-1) R has at least
    two elements, so 2^m <= n, the order, and m <= floor(log2 n). Hence x is
    nilpotent iff x^(2^k) = 0 for the least 2^k >= floor(log2 n): k squarings
    of the whole element array."""
    log_n = ring.order.bit_length() - 1
    return vpower(ring.vmul, ring.element_array(), 1 << max(log_n - 1, 0).bit_length()) == ring.zero


def nilradical(ring: FiniteRing) -> Ideal:
    """All nilpotent elements."""
    return Ideal(ring, _nil_mask(ring))


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, list[int]]:
    """Cosets of a proper ideal as a ring, plus the projection map.

    Coset representatives are the least member of each coset; coset indices
    follow representative order. The returned list maps every ring element
    index to its coset index.

    The least member of x + I is found by a running minimum over translates:
    for each additive generator g of I, 2^j doublings of the step g cover the
    translates by every multiple of g, since the order of g is at most |I|.
    """
    if not ideal.is_proper:
        raise ValueError("cannot form a quotient by the unit ideal")
    everything = ring.element_array()
    least = everything.copy()
    for g in _additive_generators(ideal):
        for _ in range((ideal.size - 1).bit_length()):
            least = np.minimum(least, least[ring.vadd(everything, g)])
            g = ring.add(g, g)
    reps = np.flatnonzero(least == everything)
    theta = np.searchsorted(reps, least)

    label = f"{ring.label}/{ideal.render()}"
    quot = FiniteRing(len(reps), int(theta[ring.zero]), int(theta[ring.one]), label,
                      kernels=(lambda i, j: theta[ring.vadd(reps[i], reps[j])],
                               lambda i, j: theta[ring.vmul(reps[i], reps[j])],
                               lambda i: theta[ring.vneg(reps[i])]),
                      names=lambda i: ring.name(int(reps[i])))
    if ring.order <= VALIDATION_CAP:
        for opname, t, qt in zip(("addition", "multiplication"), ring.tables(), quot.tables()):
            if not np.array_equal(theta[t], qt[theta[:, None], theta]):
                raise InternalConsistencyError(f"projection does not respect {opname}")
    return quot, theta.tolist()


def _residue_field_certified(ring, mask) -> bool:
    """Whether R/M is a field, M being the ideal masked by ``mask``: for
    q = |R/M|, some g has g^(q-1) in 1 + M but g^((q-1)/p) not in 1 + M for
    each prime p dividing q - 1. Then the class of g is a unit of order
    q - 1, so its powers are the q - 1 nonzero classes, all units.

    The elements outside M are tried in blocks of 1, 2, 4, ... up to the
    first block holding such a g: a field has many primitive elements, and
    when there is none the blocks together cost one pass over them all."""
    q = ring.order // int(np.count_nonzero(mask))
    everything = ring.element_array()
    near_one = mask[ring.vadd(everything, ring.vneg(ring.one))]  # x in 1 + M
    outside = everything[~mask]
    start = 0
    while start < outside.size:
        g = outside[start:2 * start + 1]
        found = near_one[vpower(ring.vmul, g, q - 1)]
        for p, _ in prime_factors(q - 1):
            found &= ~near_one[vpower(ring.vmul, g, (q - 1) // p)]
        if found.any():
            return True
        start = 2 * start + 1
    return False


def maximal_ideals(ring: FiniteRing) -> list[Ideal]:
    """The complete list of maximal ideals, each certified by a primitive
    element of its residue field.

    Idempotents lift modulo the nil ideal N (McDonald, *Finite Rings with
    Identity*, 1974), so the primitive idempotents e of R are those of R/N,
    a product of fields, and M_e = {x : x·e in N} runs over the maximal
    ideals with no quotient ring built. Each M_e is certified: its greedy
    generators generate exactly M_e, so it is an ideal; 1 is not in it; and
    R/M_e is a field by ``_residue_field_certified``.

    Cached per ring once every certificate has passed, as (mask,
    generators) pairs, the masks read-only; each call returns a fresh list of
    fresh ideals.
    """
    if ring._maximal is None:
        ring._maximal = _certified_maximal(ring)
    return [Ideal(ring, mask, gens) for mask, gens in ring._maximal]


def _certified_maximal(ring) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    nil = _nil_mask(ring)
    everything = ring.element_array()
    idem = np.array(sorted(idempotents(ring) - {ring.zero}), dtype=np.int64)
    # below[f, e]: f != e and f·e = f, i.e. f lies strictly under e
    below = (ring.vmul(idem[:, None], idem[None, :]) == idem[:, None]) & (idem[:, None] != idem)
    found = []
    for e in idem[~below.any(axis=0)]:
        mask = nil[ring.vmul(everything, e)]
        gens, generated = _greedy_generators(ring, mask)
        if (not np.array_equal(generated, mask) or mask[ring.one]
                or not _residue_field_certified(ring, mask)):
            raise InternalConsistencyError(
                f"candidate maximal ideal {Ideal(ring, mask, gens).render()} "
                "has a non-field quotient")
        found.append((mask, gens))
    found.sort(key=lambda m: np.flatnonzero(m[0]).tolist())
    return found


def units(ring: FiniteRing) -> frozenset[int]:
    """All elements with a multiplicative inverse: those outside every
    maximal ideal, as a member of a proper ideal is never a unit. Each is
    certified by x^|U| = 1, which makes x a unit. Cached per ring."""
    if ring._units is None:
        maxi = maximal_ideals(ring)  # refuses orders past the array cap first
        outside = np.ones(ring.order, dtype=bool)
        for m in maxi:
            outside &= ~m.mask
        claimed = np.flatnonzero(outside)
        if not (vpower(ring.vmul, claimed, claimed.size) == ring.one).all():
            raise InternalConsistencyError(
                "an element outside every maximal ideal fails the unit certificate")
        ring._units = frozenset(claimed.tolist())
    return ring._units


def crt_solve(ring: FiniteRing, constraints) -> int:
    """Least element congruent to a_i modulo Q_i for pairwise coprime ideals Q_i.

    constraints is a list of (Ideal, element) pairs. Solves by intersecting
    the coset membership masks.
    """
    constraints = list(constraints)
    if not constraints:
        raise ValueError("at least one congruence constraint is required")
    if any(q.ring is not ring for q, _ in constraints):
        raise ValueError("constraint ideal belongs to a different ring")
    for (i, (a, _)), (j, (b, _)) in combinations(enumerate(constraints), 2):
        if not additive_span(ring, np.flatnonzero(b.mask), a.mask)[0].all():
            raise ValueError(f"constraint ideals {i} and {j} are not coprime")
    sols = np.ones(ring.order, dtype=bool)
    for q, a in constraints:
        sols &= q.mask[ring.vadd(ring.element_array(), ring.neg(a))]  # x - a in Q
    if not sols.any():
        raise InternalConsistencyError("coprime cosets failed to intersect")
    return int(np.argmax(sols))
