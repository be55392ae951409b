"""Shared brute-force oracles, kept independent of the library's incremental
routines: products are enumerated subset by subset straight from the
definitions, and the search reference recomputes every product step from the
multiplication table. Property tests run under a derandomized hypothesis
profile, so every run draws the same examples."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import settings

from ebring import (AxiomViolation, Sequence, build_ring, idempotents, make_from_table,
                    max_free_sequence)

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
        if not any(view.identity not in subset_products(view.mul, combo)
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


def dfs_exact_search(ring, budget=None):
    """The exact EB constant and a longest free sequence from the witness DFS
    (``max_free_sequence``), every element a candidate and every idempotent
    forbidden: the reference for ``exact_eb``'s level sweep."""
    length, witness = max_free_sequence(ring._mul_t.tolist(), range(ring.order), idempotents(ring),
                                        budget=budget)
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


@pytest.fixture(scope="session")
def family():
    return [(spec, family_ring(spec)) for spec in FAMILY_SPECS]
