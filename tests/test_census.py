"""The paper's bound on a census of rings: every product of local atoms of
order at most 24, and every product in the unknown case up to order 48,
each with the exact constant from a completed sweep."""

import math
from itertools import combinations_with_replacement

import pytest

from ebring import ALL_INDICES_ONE, BOTH, LOCAL, UNKNOWN, build_ring, report

ALL_UP_TO, UNKNOWN_UP_TO = 24, 48


def _primes(bound):
    return [p for p in range(2, bound + 1) if all(p % d for d in range(2, p))]


def local_atoms():
    """(spec, order, index of the maximal ideal) of the local atoms of order
    at most ``UNKNOWN_UP_TO``: Z/p^k, GF(p^f) for f >= 2 (GF(p) is Z/p),
    GF(q)[x]/(x^e) and GF(p)[x]/(g^e) for an irreducible g of degree >= 2.
    Up to order 48 the last kind has one member, g = x^2+x+1 over GF(2), e = 2."""
    bound, atoms = UNKNOWN_UP_TO, []
    for p in _primes(bound):
        k = 1
        while p ** k <= bound:
            atoms.append((f"Z/{p ** k}", p ** k, k))
            if k >= 2:
                atoms.append((f"GF({p ** k})", p ** k, 1))
            k += 1
    for q in sorted({order for _, order, _ in atoms}):
        e = 2
        while q ** e <= bound:
            atoms.append((f"GF({q})[x]/(x^{e})", q ** e, e))
            e += 1
    atoms.append(("GF(2)[x]/(x^4+x^2+1)", 16, 2))
    return atoms


def _case(indices):
    if len(indices) == 1:
        return BOTH if indices[0] == 1 else LOCAL
    return ALL_INDICES_ONE if set(indices) == {1} else UNKNOWN


def census():
    """(spec, indices of its maximal ideals) for every product of local atoms
    of order at most ``ALL_UP_TO``, and every one in the unknown case of order
    at most ``UNKNOWN_UP_TO``."""
    atoms = local_atoms()
    out = []
    for r in range(1, int(math.log2(UNKNOWN_UP_TO)) + 1):
        for combo in combinations_with_replacement(atoms, r):
            order = math.prod(o for _, o, _ in combo)
            indices = [k for _, _, k in combo]
            if order <= ALL_UP_TO or (order <= UNKNOWN_UP_TO and _case(indices) == UNKNOWN):
                out.append((" x ".join(spec for spec, _, _ in combo), indices))
    return out


# The exact constant of every unknown-case ring of the census, as the sweep
# found it. These are observations, not theorems: each equals the ring's lower
# bound, and a value above it would answer the paper's open case for that ring.
UNKNOWN_CASE_EXACT = {
    "Z/2 x Z/4": 3, "Z/2 x Z/8": 5, "Z/2 x Z/16": 8, "Z/2 x Z/9": 7, "Z/2 x GF(2)[x]/(x^2)": 3,
    "Z/2 x GF(2)[x]/(x^3)": 6, "Z/2 x GF(2)[x]/(x^4)": 8, "Z/2 x GF(3)[x]/(x^2)": 7,
    "Z/2 x GF(4)[x]/(x^2)": 8, "Z/2 x GF(2)[x]/(x^4+x^2+1)": 8, "Z/4 x Z/4": 5, "Z/4 x GF(4)": 7,
    "Z/4 x Z/8": 7, "Z/4 x GF(8)": 15, "Z/4 x Z/3": 4, "Z/4 x Z/9": 9, "Z/4 x GF(9)": 10,
    "Z/4 x Z/5": 6, "Z/4 x Z/7": 8, "Z/4 x Z/11": 12, "Z/4 x GF(2)[x]/(x^2)": 5,
    "Z/4 x GF(2)[x]/(x^3)": 8, "Z/4 x GF(3)[x]/(x^2)": 9, "GF(4) x Z/8": 9, "GF(4) x Z/9": 9,
    "GF(4) x GF(2)[x]/(x^2)": 7, "GF(4) x GF(2)[x]/(x^3)": 14, "GF(4) x GF(3)[x]/(x^2)": 9,
    "Z/8 x Z/3": 6, "Z/8 x Z/5": 8, "Z/8 x GF(2)[x]/(x^2)": 7, "GF(8) x GF(2)[x]/(x^2)": 15,
    "Z/16 x Z/3": 9, "Z/3 x Z/9": 8, "Z/3 x GF(2)[x]/(x^2)": 4, "Z/3 x GF(2)[x]/(x^3)": 7,
    "Z/3 x GF(2)[x]/(x^4)": 9, "Z/3 x GF(3)[x]/(x^2)": 8, "Z/3 x GF(4)[x]/(x^2)": 9,
    "Z/3 x GF(2)[x]/(x^4+x^2+1)": 9, "Z/9 x Z/5": 14, "Z/9 x GF(2)[x]/(x^2)": 9,
    "GF(9) x GF(2)[x]/(x^2)": 10, "Z/5 x GF(2)[x]/(x^2)": 6, "Z/5 x GF(2)[x]/(x^3)": 9,
    "Z/5 x GF(3)[x]/(x^2)": 14, "Z/7 x GF(2)[x]/(x^2)": 8, "Z/11 x GF(2)[x]/(x^2)": 12,
    "GF(2)[x]/(x^2) x GF(2)[x]/(x^2)": 5, "GF(2)[x]/(x^2) x GF(2)[x]/(x^3)": 8,
    "GF(2)[x]/(x^2) x GF(3)[x]/(x^2)": 9, "Z/2 x Z/2 x Z/4": 3, "Z/2 x Z/2 x Z/8": 5,
    "Z/2 x Z/2 x Z/9": 7, "Z/2 x Z/2 x GF(2)[x]/(x^2)": 3, "Z/2 x Z/2 x GF(2)[x]/(x^3)": 6,
    "Z/2 x Z/2 x GF(3)[x]/(x^2)": 7, "Z/2 x Z/4 x Z/4": 5, "Z/2 x Z/4 x GF(4)": 7,
    "Z/2 x Z/4 x Z/3": 4, "Z/2 x Z/4 x Z/5": 6, "Z/2 x Z/4 x GF(2)[x]/(x^2)": 5,
    "Z/2 x GF(4) x GF(2)[x]/(x^2)": 7, "Z/2 x Z/8 x Z/3": 6, "Z/2 x Z/3 x GF(2)[x]/(x^2)": 4,
    "Z/2 x Z/3 x GF(2)[x]/(x^3)": 7, "Z/2 x Z/5 x GF(2)[x]/(x^2)": 6,
    "Z/2 x GF(2)[x]/(x^2) x GF(2)[x]/(x^2)": 5, "Z/4 x Z/4 x Z/3": 6, "Z/4 x GF(4) x Z/3": 8,
    "Z/4 x Z/3 x Z/3": 5, "Z/4 x Z/3 x GF(2)[x]/(x^2)": 6, "GF(4) x Z/3 x GF(2)[x]/(x^2)": 8,
    "Z/3 x Z/3 x GF(2)[x]/(x^2)": 5, "Z/3 x GF(2)[x]/(x^2) x GF(2)[x]/(x^2)": 6,
    "Z/2 x Z/2 x Z/2 x Z/4": 3, "Z/2 x Z/2 x Z/2 x GF(2)[x]/(x^2)": 3, "Z/2 x Z/2 x Z/4 x Z/3": 4,
    "Z/2 x Z/2 x Z/3 x GF(2)[x]/(x^2)": 4,
}


CENSUS = census()


def test_census_pins_every_unknown_case_ring():
    assert len(CENSUS) == 125
    assert sorted(spec for spec, indices in CENSUS if _case(indices) == UNKNOWN) == \
        sorted(UNKNOWN_CASE_EXACT)


@pytest.mark.parametrize("spec, indices", CENSUS, ids=[spec for spec, _ in CENSUS])
def test_exact_value_lies_between_the_bounds(spec, indices):
    """lower <= exact <= GHW (Gillam, Hall and Williams 1972) on every ring,
    with exact = lower where the paper proves it: a local ring, or every
    maximal ideal of index one."""
    rep = report(build_ring(spec), exact=True, budget=10**9)
    assert sorted(m.index for m in rep.maximal_ideal_summaries) == sorted(indices)
    assert rep.equality_case == _case(indices)
    assert rep.lower_bound <= rep.exact_value <= rep.ghw_upper
    if rep.equality_case == UNKNOWN:
        assert rep.exact_value == UNKNOWN_CASE_EXACT[spec]
    else:
        assert rep.exact_value == rep.lower_bound
