"""Exact idempotent-product-free invariants of a finite commutative ring:
the sharp lower bound through unit-group Davenport constants and maximal-ideal
indices, a constructive extremal sequence with verification, exhaustive exact
search, equality-case certificates, and cross-checks against integer and
polynomial factorization."""

from __future__ import annotations

import numpy as np

from . import gfpoly
from .errors import BudgetExceeded, InternalConsistencyError, SearchRefused
from .ideals import (Ideal, crt_solve, ideal_generated_by, ideal_index,
                     maximal_ideals, power_chain, units)
from .records import Record
from .rings import (FiniteRing, MixedRadix, TABLE_CAP, idempotents, make_gf,
                    make_poly_quotient, make_zmod, prime_factors)
from .search import longest_free_length
from .sequences import Sequence, is_idempotent_product_free
from .groups import davenport, invariant_factors, unit_group_view

EB_SEARCH_CAP = 24

LOCAL = "local"
ALL_INDICES_ONE = "all-indices-one"
BOTH = "both"
UNKNOWN = "unknown"


# construction ---------------------------------------------------------------

class IdealConstruction(Record):
    """One maximal ideal's part of the construction: its chosen elements,
    their lifts, and the prefix products y_1...y_j for j = 1 .. k-1, each
    checked to lie in M^j and outside M^(j+1)."""
    ideal: Ideal
    index: int
    chosen: tuple[int, ...]
    lifted: tuple[int, ...]
    products: tuple[int, ...]


class ConstructionTrace(Record):
    ring: FiniteRing
    per_ideal: tuple[IdealConstruction, ...]
    unit_witness: Sequence
    free_sequence: Sequence
    lower_bound: int


def _depth_tuple(ring, m_ideal, powers, k):
    """Elements of the ideal whose every prefix product sits exactly at its
    depth in the power filtration. A prefix that falls one level too deep
    would drag the full product into the stationary power, so prefix pruning
    is exact."""
    members = np.flatnonzero(m_ideal.mask).tolist()
    chosen: list[int] = []

    def dfs(prod, depth):
        if depth == k - 1:
            return True
        for y in members:
            p = ring.mul(prod, y)
            if powers[depth + 1].mask[p] and not powers[depth + 2].mask[p]:
                chosen.append(y)
                if dfs(p, depth + 1):
                    return True
                chosen.pop()
        return False

    if not dfs(ring.one, 0):
        raise InternalConsistencyError(
            f"no depth-respecting tuple found in {m_ideal.render()}; "
            "existence is guaranteed, so this is a bug")
    return tuple(chosen)


def _crt_lift(ring, moduli, target_pos, value):
    """Least element congruent to value mod moduli[target_pos] and to 1 mod
    every other modulus."""
    constraints = [(m, value if t == target_pos else ring.one)
                   for t, m in enumerate(moduli)]
    return crt_solve(ring, constraints)


def construct_extremal(ring: FiniteRing, *, budget: int | None = None) -> ConstructionTrace:
    """Build and verify an idempotent-product-free sequence of length
    D(U(R)) - 1 + sum of (index - 1) over the maximal ideals.

    Per maximal ideal of index k, k-1 ideal elements with exact prefix depths
    are found, lifted to be 1 modulo the other stationary ideal powers, and
    appended to a maximal zero-sum-free sequence of units. The node budget,
    if any, limits the unit-group Davenport sweep.

    Every check is made here: each prefix product y_1...y_j lies in M^j and
    outside M^(j+1), the sequence has length lower bound - 1, and it is
    idempotent-product free. A failure raises InternalConsistencyError, so
    every trace returned has passed all three.
    """
    maxi = maximal_ideals(ring)
    chains = [power_chain(m) for m in maxi]
    indices = [len(powers) - 1 for powers in chains]
    stationary = [powers[-1] for powers in chains]

    per_ideal = []
    all_lifted = []
    for pos, (m, k, powers) in enumerate(zip(maxi, indices, chains)):
        if k < 2:
            per_ideal.append(IdealConstruction(m, k, (), (), ()))
            continue
        chosen = _depth_tuple(ring, m, powers, k)
        products = []
        prod = ring.one
        for j, y in enumerate(chosen, start=1):
            prod = ring.mul(prod, y)
            if not powers[j].mask[prod] or powers[j + 1].mask[prod]:
                raise InternalConsistencyError("a prefix depth certificate failed")
            products.append(prod)
        lifted = tuple(_crt_lift(ring, stationary, pos, y) for y in chosen)
        all_lifted.extend(lifted)
        per_ideal.append(IdealConstruction(m, k, chosen, lifted, tuple(products)))

    dav = davenport(unit_group_view(ring), budget=budget)
    free = Sequence.make(ring, dav.witness.terms + tuple(all_lifted))
    lower = dav.value + sum(k - 1 for k in indices)

    if len(free) != lower - 1:
        raise InternalConsistencyError("assembled sequence has the wrong length")
    if not is_idempotent_product_free(free):
        raise InternalConsistencyError("assembled sequence is not idempotent-product free")
    return ConstructionTrace(ring, tuple(per_ideal), dav.witness, free, lower)


# exact search ----------------------------------------------------------------

def exact_eb(ring: FiniteRing, *, budget: int | None = None) -> int:
    """Smallest length forcing an idempotent subsequence product: one more
    than the longest idempotent-product-free sequence, which an exhaustive
    sweep over the distinct product sets of free sequences finds
    (``search.longest_free_length``). Exact, with exhaustion certified by the
    completed sweep rather than any formula. Rings above ``EB_SEARCH_CAP``
    elements need a node budget, which counts the product sets expanded."""
    if ring.order > EB_SEARCH_CAP and budget is None:
        raise SearchRefused(f"ring order {ring.order} exceeds the exact search cap "
                            f"{EB_SEARCH_CAP}; pass --budget to run it")
    try:
        return longest_free_length(ring.tables()[1], range(ring.order), idempotents(ring),
                                   budget=budget) + 1
    except BudgetExceeded as exc:
        raise exc.within(f"exact sweep of {ring.label}") from None


# equality-case certificates ---------------------------------------------------

def _subsequence_with_product(mul, terms, target):
    """Positions of a nonempty subsequence multiplying to target, or None.
    Incremental product reachability with one witness per product."""
    reach: dict[int, tuple[int, ...]] = {}
    for pos, a in enumerate(terms):
        fresh = {}
        if a not in reach:
            fresh[a] = (pos,)
        for p, positions in reach.items():
            q = mul(p, a)
            if q not in reach and q not in fresh:
                fresh[q] = positions + (pos,)
        reach.update(fresh)
        if target in reach:
            return reach[target]
    return None


class LocalCaseCertificate(Record):
    ring: FiniteRing
    unit_part: Sequence
    ideal_part: Sequence
    branch: str
    witness: Sequence
    product: int


def local_case_certificate(ring: FiniteRing, seq: Sequence) -> LocalCaseCertificate:
    """For a local ring and a sequence at least as long as the lower bound,
    exhibit a subsequence with idempotent product without exponential search.

    Splits the terms into units and maximal-ideal members; by pigeonhole
    either the unit part reaches the Davenport constant (a subsequence
    multiplies to 1) or the ideal part reaches the index (its product is 0).
    """
    if seq.carrier is not ring:
        raise ValueError("sequence is not over this ring")
    maxi = maximal_ideals(ring)
    if len(maxi) != 1:
        raise ValueError("ring is not local")
    m = maxi[0]
    k = ideal_index(m)
    dav = davenport(unit_group_view(ring))
    required = dav.value + k - 1
    if len(seq) < required:
        raise ValueError(f"sequence shorter than the lower bound {required}")
    u = units(ring)
    unit_terms = tuple(t for t in seq.terms if t in u)
    ideal_terms = tuple(t for t in seq.terms if t not in u)
    if not all(m.mask[t] for t in ideal_terms):
        raise InternalConsistencyError("non-unit escaping the maximal ideal in a local ring")
    unit_part = Sequence(seq.carrier, unit_terms)
    ideal_part = Sequence(seq.carrier, ideal_terms)

    if len(unit_terms) >= dav.value:
        positions = _subsequence_with_product(ring.mul, unit_terms, ring.one)
        if positions is None:
            raise InternalConsistencyError(
                "unit part at Davenport length has no identity-product subsequence")
        witness = Sequence.make(ring, tuple(unit_terms[p] for p in positions))
        return LocalCaseCertificate(ring, unit_part, ideal_part,
                                    "unit-zero-sum", witness, ring.one)
    if len(ideal_terms) < k:
        raise InternalConsistencyError("pigeonhole failed; lengths are inconsistent")
    head = ideal_terms[:k]
    prod = ring.one
    for t in head:
        prod = ring.mul(prod, t)
    if prod != ring.zero:
        raise InternalConsistencyError("k-fold ideal product escaped the zero ideal")
    witness = Sequence.make(ring, head)
    return LocalCaseCertificate(ring, unit_part, ideal_part,
                                "nilpotent-product", witness, ring.zero)


class SquarefreeCaseCertificate(Record):
    ring: FiniteRing
    original: Sequence
    lifted: tuple[int, ...]
    witness_positions: tuple[int, ...]
    witness: Sequence
    product: int


def squarefree_case_certificate(ring: FiniteRing, seq: Sequence) -> SquarefreeCaseCertificate:
    """When every maximal ideal has index one, exhibit an idempotent
    subsequence product in any sequence of Davenport length.

    Each term is lifted to a unit congruent to it away from the ideals that
    contain it and to 1 inside them; a zero-sum subsequence of the lifts maps
    back to a subsequence of the original terms whose product squares to
    itself because the maximal ideals intersect in the zero ideal.
    """
    if seq.carrier is not ring:
        raise ValueError("sequence is not over this ring")
    maxi = maximal_ideals(ring)
    indices = [ideal_index(m) for m in maxi]
    if any(k != 1 for k in indices):
        raise ValueError("some maximal ideal has index above one")
    dav = davenport(unit_group_view(ring))
    if len(seq) < dav.value:
        raise ValueError(f"sequence shorter than the Davenport constant {dav.value}")
    u = units(ring)
    lifted = []
    for a in seq.terms:
        constraints = [(m, ring.one if m.mask[a] else a) for m in maxi]
        b = crt_solve(ring, constraints)
        if b not in u:
            raise InternalConsistencyError("lift is not a unit")
        lifted.append(b)
    lifted = tuple(lifted)
    positions = _subsequence_with_product(ring.mul, lifted, ring.one)
    if positions is None:
        raise InternalConsistencyError(
            "lifted units at Davenport length have no identity-product subsequence")
    witness = Sequence.make(ring, tuple(seq.terms[p] for p in positions))
    prod = ring.one
    for t in witness.terms:
        prod = ring.mul(prod, t)
    if ring.mul(prod, prod) != prod:
        raise InternalConsistencyError("witness product is not idempotent")
    return SquarefreeCaseCertificate(ring, seq, lifted, tuple(positions), witness, prod)


# reports ----------------------------------------------------------------------

class MaximalIdealSummary(Record):
    generators: tuple[str, ...]
    size: int
    index: int


class InvariantReport(Record):
    ring_label: str
    ring_order: int
    units_order: int
    unit_group_factors: tuple[int, ...]
    davenport_of_units: int
    maximal_ideal_summaries: tuple[MaximalIdealSummary, ...]
    lower_bound: int
    exact_value: int | None
    exact_is_formula_derived: bool
    ghw_upper: int
    equality_case: str
    witness: Sequence | None


def classify_equality_case(num_maximal: int, indices) -> str:
    all_one = all(k == 1 for k in indices)
    if num_maximal == 1 and all_one:
        return BOTH
    if num_maximal == 1:
        return LOCAL
    if all_one:
        return ALL_INDICES_ONE
    return UNKNOWN


def report(ring: FiniteRing, *, exact: bool = False, budget: int | None = None) -> InvariantReport:
    """Assemble every invariant for one ring.

    Without ``exact``, the exact value is filled from the lower bound only in
    the certified equality cases and flagged as formula-derived; otherwise an
    exhaustive search runs under ``EB_SEARCH_CAP`` and the node budget. The
    witness is ``construct_extremal``'s checked sequence. A value outside
    [lower bound, upper bound], or unequal to the lower bound in an equality
    case, raises InternalConsistencyError.
    """
    trace = construct_extremal(ring, budget=budget)
    indices = [ic.index for ic in trace.per_ideal]
    summaries = tuple(
        MaximalIdealSummary(tuple(ring.name(g) for g in ic.ideal.generators),
                            ic.ideal.size, ic.index)
        for ic in trace.per_ideal)
    case = classify_equality_case(len(trace.per_ideal), indices)
    factors = tuple(invariant_factors(unit_group_view(ring)))
    dav_value = len(trace.unit_witness) + 1
    ghw = ring.order - len(idempotents(ring)) + 1

    if exact:
        value = exact_eb(ring, budget=budget)
        formula = False
    elif case != UNKNOWN:
        value = trace.lower_bound
        formula = True
    else:
        value, formula = None, False

    if value is not None and not trace.lower_bound <= value <= ghw:
        raise InternalConsistencyError(
            f"exact value {value} escapes [{trace.lower_bound}, {ghw}]")
    if value is not None and case != UNKNOWN and value != trace.lower_bound:
        raise InternalConsistencyError(
            f"equality case {case} but exact value {value} != {trace.lower_bound}")
    return InvariantReport(
        ring_label=ring.label,
        ring_order=ring.order,
        units_order=len(units(ring)),
        unit_group_factors=factors,
        davenport_of_units=dav_value,
        maximal_ideal_summaries=summaries,
        lower_bound=trace.lower_bound,
        exact_value=value,
        exact_is_formula_derived=formula,
        ghw_upper=ghw,
        equality_case=case,
        witness=trace.free_sequence,
    )


# factorization cross-checks -----------------------------------------------------

class CoincidenceRecord(Record):
    ring_label: str
    modulus: str
    factors: tuple[tuple[str, int], ...]
    ideal_indices: tuple[tuple[str, int], ...]
    big_omega: int
    small_omega: int
    index_sum: int


def _factor_coincidence(ring, modulus, factors, residue, render) -> CoincidenceRecord:
    """Match each factor g of multiplicity k to the maximal ideal (g) of the
    ring, check Ind((g)) = k, that every maximal ideal is matched, and that
    the index sum equals the multiplicity excess; then build the record.
    ``residue(g)`` is g as a ring element, ``render(g)`` its name. ``factors``
    may be lazy: it is read after the maximal ideals, which refuse a ring
    past the array cap, so such a modulus is never factored."""
    maxi = maximal_ideals(ring)
    factors = list(factors)
    indices = [ideal_index(m) for m in maxi]
    per_prime = []
    seen = set()
    for g, k in factors:
        gen = ideal_generated_by(ring, [residue(g)])
        pos = next((i for i, m in enumerate(maxi) if m == gen), None)
        if pos is None:
            raise InternalConsistencyError(f"({render(g)}) is not a maximal ideal of {ring.label}")
        if indices[pos] != k:
            raise InternalConsistencyError(
                f"Ind(({render(g)})) = {indices[pos]} but the factorization multiplicity is {k}")
        seen.add(pos)
        per_prime.append((render(g), indices[pos]))
    if len(seen) != len(maxi):
        raise InternalConsistencyError("maximal ideal count disagrees with the factorization")
    big, small = sum(k for _, k in factors), len(factors)
    index_sum = sum(k - 1 for k in indices)
    if index_sum != big - small:
        raise InternalConsistencyError(
            f"index sum {index_sum} disagrees with multiplicity excess {big - small}")
    return CoincidenceRecord(ring.label, modulus, tuple((render(g), k) for g, k in factors),
                             tuple(per_prime), big, small, index_sum)


def dedekind_crosscheck_int(n: int) -> CoincidenceRecord:
    """Check that the per-prime ideal indices of Z/n reproduce the prime
    factorization: Ind((p)) equals the multiplicity of p, and the index sum
    equals the multiplicity excess of n."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    return _factor_coincidence(make_zmod(n), str(n), prime_factors(n),
                               lambda p: p % n, str)


def dedekind_crosscheck_poly(q: int, f) -> CoincidenceRecord:
    """Same coincidence over a polynomial quotient: factor f by trial
    division over the coefficient field and compare against the ideal
    indices in the quotient ring, of at most ``rings.TABLE_CAP`` elements."""
    base = make_gf(q)
    f = gfpoly.trim(base, tuple(f))
    if not gfpoly.is_monic(base, f):
        raise ValueError("modulus polynomial must be monic")
    if base.order ** gfpoly.degree(f) > TABLE_CAP:
        raise ValueError("quotient order exceeds the cap")

    def residue(g):
        r = gfpoly.mod(base, g, f)
        return int(MixedRadix([base.order] * len(r)).encode(r))

    def render(g):
        return gfpoly.render(base, g)

    return _factor_coincidence(make_poly_quotient(base, f), f"{render(f)} over {base.label}",
                               gfpoly.factor_monic(base, f), residue, render)
