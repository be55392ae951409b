"""Shared brute-force oracles, kept independent of the library's incremental
routines: products are enumerated subset by subset straight from the
definitions, and the search reference recomputes every product step from the
multiplication table. Property tests run under a derandomized hypothesis
profile, so every run draws the same examples."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import settings

from ebring import (AxiomViolation, Sequence, build_ring, idempotents,
                    make_from_table, search)
from ebring.rings import MixedRadix, additive_span, row_blocks

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None,
                          max_examples=20)
settings.load_profile("derandomized")


def subset_products(mul, terms):
    """Products of every nonempty subset, by direct mask enumeration."""
    n = len(terms)
    out = set()
    for mask in range(1, 1 << n):
        prod = None
        for i in range(n):
            if mask >> i & 1:
                prod = terms[i] if prod is None else mul(prod, terms[i])
        out.add(prod)
    return out


def ring_idempotents(ring):
    return {e for e in range(ring.order) if ring.mul(e, e) == e}


def is_free_sequence(ring, terms):
    return not (subset_products(ring.mul, terms) & ring_idempotents(ring))


def multiset_products(mul, one, terms):
    """Products of every nonempty sub-multiset of ``terms``, built one distinct
    term at a time with each of its multiplicities: ``one`` stands for the
    empty product, and ``mul`` multiplies single elements. Fast on the long
    runs of one term that Davenport witnesses have."""
    out = set()
    for a, m in Counter(terms).items():
        powers = [mul(one, a)]
        while len(powers) < m:
            powers.append(mul(powers[-1], a))
        out |= {mul(p, q) for p in out | {one} for q in powers}
    return out


def _positions(view):
    """``view``'s position table as lists, and each element's position."""
    return view.table().tolist(), {x: i for i, x in enumerate(view.elements)}


def zero_sum_free(view, terms):
    """Whether no nonempty subsequence of ``terms`` multiplies to the
    identity, by ``multiset_products`` on the position table: the reference
    for ``is_zero_sum_free``, which reads ``product_set``."""
    rows, pos = _positions(view)
    return pos[view.one] not in multiset_products(lambda a, b: rows[a][b], pos[view.one],
                                                  [pos[t] for t in terms])


def idempotent_product_free(ring, terms):
    """Whether no nonempty subsequence of ``terms`` multiplies to an
    idempotent, by ``multiset_products`` on ``ring.mul``."""
    return not multiset_products(ring.mul, ring.one, terms) & ring_idempotents(ring)


def basis_witness_oracle(view, factors):
    """The basis witness by its definition, on the position table: for each
    factor n, largest first, the least element g whose first power in the
    span H of the earlier picks is g^n, taken n - 1 times, after which H
    grows by the powers of g. Terms are sorted labels."""
    rows, pos = _positions(view)
    span, terms = {pos[view.one]}, []
    for n in sorted(factors, reverse=True):

        def order_mod_span(x):
            k, y = 1, x
            while y not in span:
                k, y = k + 1, rows[y][x]
            return k

        g = next(x for x in range(view.order) if order_mod_span(x) == n)
        terms += [view.elements[g]] * (n - 1)
        powers = [pos[view.one]]
        while len(powers) < n:
            powers.append(rows[powers[-1]][g])
        span = {rows[h][p] for h in span for p in powers}
    return tuple(sorted(terms))


def naive_eb(ring, limit=10):
    """Least length at which every sequence has an idempotent subset product."""
    for ell in range(1, limit + 1):
        if not any(is_free_sequence(ring, combo)
                   for combo in combinations_with_replacement(range(ring.order), ell)):
            return ell
    raise AssertionError(f"no bound found up to {limit}")


def naive_davenport(view, limit=10):
    """Least length at which every sequence has an identity subset product."""
    for ell in range(1, limit + 1):
        if not any(view.one not in subset_products(view.mul, combo)
                   for combo in combinations_with_replacement(view.elements, ell)):
            return ell
    raise AssertionError(f"no bound found up to {limit}")


def longest_oracle(mul_rows, candidates, forbidden):
    """Reference for the search engine's ``longest``: a function of (state,
    start) giving the most terms from ``sorted(candidates)[start:]`` that
    extend the product-set bitmask ``state`` without meeting ``forbidden``.
    Plain recursion that recomputes every step S·a from ``mul_rows`` for
    every candidate, with nothing inherited from the parent node."""
    cands = sorted(int(a) for a in candidates)
    forbidden_mask = sum(1 << int(e) for e in set(forbidden))
    memo: dict[tuple[int, int], int] = {}

    def longest(state, start):
        if (state, start) not in memo:
            best = 0
            for idx in range(start, len(cands)):
                a = cands[idx]
                ns = state | 1 << a
                for s in range(state.bit_length()):
                    if state >> s & 1:
                        ns |= 1 << int(mul_rows[s][a])
                if not ns & forbidden_mask:
                    best = max(best, 1 + longest(ns, idx))
            memo[(state, start)] = best
        return memo[(state, start)]

    return longest


def dfs_reference(mul_rows, candidates, forbidden, budget=None):
    """The reference DFS, ``search.max_free_sequence``, that the sweep is
    checked against. Returns the longest free length, its witness as
    candidate positions, the nodes expanded, and the engine, for its memo."""
    eng = search._Engine(mul_rows, sorted(candidates), forbidden, budget)
    length = eng.longest(0, 0, 0)
    nodes = eng.nodes
    return length, eng.witness(length), nodes, eng


def davenport_input(view):
    """The Davenport search's input on ``view``'s position table: its rows,
    every non-identity position as a candidate, and the identity forbidden."""
    e = view.elements.index(view.one)
    return view.table().tolist(), [i for i in range(view.order) if i != e], {e}


def dfs_exact_search(ring, budget=None):
    """The exact EB constant and a longest free sequence from the reference
    DFS, every element a candidate and every idempotent forbidden: the
    reference for ``exact_eb``'s level sweep."""
    length, witness, _, _ = dfs_reference(ring._mul_t.tolist(), range(ring.order),
                                          idempotents(ring), budget=budget)
    return length + 1, Sequence.make(ring, witness)


def free_product_sets(mul_rows, candidates, forbidden):
    """Every product set of a sequence of ``candidates`` that avoids
    ``forbidden``, the empty one included, as frozensets: a plain graph search
    from the empty set that recomputes each step S·a from ``mul_rows``."""
    rows = [[int(x) for x in row] for row in mul_rows]
    cands = sorted({int(a) for a in candidates})
    forbidden = {int(e) for e in forbidden}
    seen, todo = {frozenset()}, [frozenset()]
    while todo:
        state = todo.pop()
        for a in cands:
            nxt = state | {a} | {rows[s][a] for s in state}
            if not nxt & forbidden and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def sweep_oracle(mul_rows, candidates, forbidden):
    """Reference for the states of ``search.longest_free_length``: every free
    product set, as a bitmask, mapped to (the longest free sequence with that
    product set, its start). Free candidates take positions by |<a>|, the
    size of {a, a^2, ...}, then by label; a start is the least position of a
    step into the set from a set whose start is no later. Plain Python over
    popcount levels: every candidate is tried from every set, and each step
    S·a is recomputed from ``mul_rows``."""
    rows = [[int(x) for x in row] for row in mul_rows]
    forbidden_mask = sum(1 << int(e) for e in set(forbidden))

    def cyclic_size(a):
        powers, x = set(), a
        while x not in powers:
            powers.add(x)
            x = rows[x][a]
        return len(powers)

    cands = sorted({int(a) for a in candidates if not forbidden_mask >> int(a) & 1},
                   key=lambda a: (cyclic_size(a), a))
    found, levels = {}, {0: {0: (0, 0)}}
    for level in range(len(rows) + 1):
        for state, (dist, start) in levels.pop(level, {}).items():
            found[state] = dist, start
            for pos, a in enumerate(cands):
                nxt = state | 1 << a
                for s in range(state.bit_length()):
                    if state >> s & 1:
                        nxt |= 1 << rows[s][a]
                if nxt & forbidden_mask:
                    continue
                bucket = levels.setdefault(bin(nxt).count("1"), {})
                longest, least = bucket.get(nxt, (0, len(cands)))
                bucket[nxt] = max(longest, dist + 1), (min(least, pos) if pos >= start else least)
    return found


def relabel(ring, perm):
    """The same ring with element index i renamed ``perm[i]``."""
    n, perm = ring.order, np.asarray(perm)
    add, mul = np.empty((n, n), dtype=np.int64), np.empty((n, n), dtype=np.int64)
    add[perm[:, None], perm[None, :]] = perm[ring._add_t]
    mul[perm[:, None], perm[None, :]] = perm[ring._mul_t]
    return make_from_table(n, add.ravel(), mul.ravel(), label=f"relabelled {ring.label}")


def is_valid_ideal(ideal) -> bool:
    """Exhaustive membership check: additive closure and absorption."""
    ring = ideal.ring
    mem = ideal.members
    if ring.zero not in mem:
        return False
    for x in mem:
        for y in mem:
            if ring.add(x, y) not in mem:
                return False
        for r in ring.elements:
            if ring.mul(x, r) not in mem:
                return False
    return True


def exhaustive_validate(ring):
    """Every ring axiom on every pair and triple of the tables, O(n^3): the
    reference for ``validate_ring``, which tests the triples of a generating
    set only. Raises AxiomViolation with a witness."""
    a, m = ring._add_t, ring._mul_t
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
        raise AxiomViolation("additive identity", (ring.zero,))
    if not np.array_equal(m[ring.one], rng):
        raise AxiomViolation("multiplicative identity", (ring.one,))
    if not bool((a == ring.zero).any(axis=1).all()):
        raise AxiomViolation("additive inverse", ())
    for i in range(n):
        left, right = a[a[i], :], a[i, a]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            raise AxiomViolation("addition associativity", (i, int(j), int(k)))
        left, right = m[m[i], :], m[i, m]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            raise AxiomViolation("multiplication associativity", (i, int(j), int(k)))
        row = m[i]
        left, right = m[i, a], a[row[:, None], row[None, :]]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            raise AxiomViolation("distributivity", (i, int(j), int(k)))


def units_oracle(ring):
    """Every x with x·y = 1 for some y, by scanning all n² products a block of
    rows at a time: the reference for ``units``, which takes the complement
    of the maximal ideals."""
    x = ring.element_array()
    hit = np.zeros(ring.order, dtype=bool)
    for rows in row_blocks(ring.order, ring.order):
        hit[rows] = (ring.vmul(x[rows, None], x[None, :]) == ring.one).any(axis=1)
    return frozenset(np.flatnonzero(hit).tolist())


def span_reference(ring, seeds, within=None):
    """The additive span by doubling translates that stop only at a translate
    that adds nothing: the reference for ``additive_span``, which stops as
    soon as the step is inside the set and must give the same mask and the
    same seeds."""
    mask = np.zeros(ring.order, dtype=bool) if within is None else within.copy()
    mask[ring.zero] = True
    used = []
    for seed in np.asarray(seeds, dtype=np.int64).ravel().tolist():
        if mask[seed]:
            continue
        used.append(seed)
        members, step = np.flatnonzero(mask), seed
        while True:
            mask[ring.vadd(members, step)] = True
            grown = np.flatnonzero(mask)
            if grown.size == members.size:
                break
            members, step = grown, ring.add(step, step)
    return mask, used


def product_reference(factors):
    """The add and mul tables, zero, one and element names of the product of
    ``factors`` from the componentwise kernel: split the indices into digits,
    apply each factor's ``vadd``/``vmul`` to its digits and re-encode. The
    reference for ``make_product``, which broadcasts the factor tables."""
    codec = MixedRadix([f.order for f in factors])
    x = np.arange(codec.order)
    dx, dy = codec.digits(x[:, None]), codec.digits(x[None, :])

    def componentwise(op):
        return codec.encode(np.stack([op(f, dx[..., k], dy[..., k])
                                      for k, f in enumerate(factors)], axis=-1))

    names = ["(" + ",".join(f.name(d) for f, d in zip(factors, digits)) + ")"
             for digits in codec.digits(x).tolist()]
    return (componentwise(lambda f, x, y: f.vadd(x, y)),
            componentwise(lambda f, x, y: f.vmul(x, y)),
            int(codec.encode([f.zero for f in factors])),
            int(codec.encode([f.one for f in factors])), names)


def light_reference(ring):
    """Light's test with each identity indexed directly, (x + g) + y against
    x + (g + y) and so on, after the same pair checks: the reference for
    ``validate_ring``, which gathers rows of the tables instead and must
    raise the same AxiomViolation with the same witness."""
    a, m = ring._add_t, ring._mul_t
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


def group_light_reference(view):
    """``validate_group`` with Light's test indexed directly, a*(g*b) as
    ``t[:, t[g]]`` against (a*g)*b as ``t[t[:, g]]``, after the same pair
    checks: the reference for ``validate_group``, which compares a row
    gather with its transpose and must raise the same ValueError. Keeps no
    table on the view."""
    els = view.element_array()
    n = len(els)
    e = view.elements.index(view.one)
    prod = np.asarray(view.vmul(els[:, None], els[None, :]))
    bad = np.flatnonzero(prod[e] != els)
    if bad.size:
        raise ValueError(f"identity fails at element {els[bad[0]]}")
    t = np.minimum(np.searchsorted(els, prod), n - 1)
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
        while True:
            members = np.flatnonzero(known)
            known[t[members, g]] = True
            if np.count_nonzero(known) == members.size:
                break


FAMILY_SPECS = (
    [f"Z/{n}" for n in range(2, 17)]
    + [f"GF({q})" for q in (2, 3, 4, 5, 7, 8, 9)]
    + ["GF(2)[x]/(x^2)", "GF(2)[x]/(x^3)", "GF(2)[x]/(x^2+x)",
       "GF(2)[x]/(x^3+x^2)", "GF(3)[x]/(x^2)", "Z/4 x GF(3)"]
)

# every product of one to three cyclic groups with at most 32 elements
SMALL_GROUPS = [spec for r in (1, 2, 3) for spec in combinations_with_replacement(range(2, 33), r)
                if math.prod(spec) <= 32]

# rings whose relabellings (seed s relabels RELABELLED[s % 10]) the tests search
RELABELLED = ["Z/16", "Z/24", "Z/25", "Z/27", "Z/32", "Z/36", "GF(2)[x]/(x^4)",
              "GF(3)[x]/(x^2)", "Z/4 x GF(5)", "GF(2)[x]/(x^3) x Z/9"]

_family_cache: dict[str, object] = {}


def family_ring(spec: str):
    if spec not in _family_cache:
        _family_cache[spec] = build_ring(spec)
    return _family_cache[spec]


def family_and_relabelled():
    """(label, ring): every ``FAMILY_SPECS`` ring, then a relabelled twin of
    every ``RELABELLED`` ring, seed i relabelling the i-th."""
    for spec in FAMILY_SPECS:
        yield spec, family_ring(spec)
    for seed, spec in enumerate(RELABELLED):
        ring = family_ring(spec)
        yield f"relabelled {spec}", relabel(ring, random.Random(seed).sample(range(ring.order),
                                                                             ring.order))


@pytest.fixture(scope="session")
def family():
    return [(spec, family_ring(spec)) for spec in FAMILY_SPECS]
