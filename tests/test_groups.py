import math
import random
from itertools import combinations_with_replacement

import numpy as np
import pytest

from ebring import (AbelianGroupView, BudgetExceeded, InternalConsistencyError, davenport,
                    groups, invariant_factors, is_zero_sum_free, make_gf, make_zmod, search,
                    synthetic_group, unit_group_view)
from ebring.sequences import Sequence, product_set

from conftest import (FAMILY_SPECS, RELABELLED, SMALL_GROUPS, family_ring, naive_davenport,
                      relabel, subset_products)


def _order(g, a):
    """Order of a, by multiplying until the identity comes back."""
    k, acc = 1, a
    while acc != g.identity:
        acc = g.mul(acc, a)
        k += 1
    return k


def _prime_powers(d):
    """{p: e} with d the product of the p^e."""
    out, p = {}, 2
    while d > 1:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    return out


def _normal_form(spec):
    """Invariant factors of the product of cyclic groups of the given orders:
    split each Z_d into its prime-power parts Z_{p^e}, then give the largest
    factor the largest p-power of every prime, the next factor the next."""
    parts = {}
    for d in spec:
        for p, e in _prime_powers(d).items():
            parts.setdefault(p, []).append(e)
    parts = {p: sorted(es, reverse=True) for p, es in parts.items()}
    rank = max((len(es) for es in parts.values()), default=0)
    return [math.prod(p ** es[i] for p, es in parts.items() if i < len(es))
            for i in reversed(range(rank))]


def test_invariant_factors_trivial_group():
    assert invariant_factors(synthetic_group([])) == []


def test_invariant_factors_of_unit_groups():
    assert invariant_factors(unit_group_view(make_zmod(12))) == [2, 2]
    assert invariant_factors(unit_group_view(make_zmod(16))) == [2, 4]
    assert invariant_factors(unit_group_view(make_zmod(4))) == [2]


def test_unit_group_of_field_is_cyclic():
    for q in (3, 4, 5, 7, 8, 9):
        g = unit_group_view(make_gf(q))
        assert invariant_factors(g) == [q - 1]
        assert any(_order(g, a) == q - 1 for a in g.elements)


def test_synthetic_factors_are_normalized():
    assert invariant_factors(synthetic_group([4, 2])) == [2, 4]
    assert invariant_factors(synthetic_group([2, 3])) == [6]
    assert invariant_factors(synthetic_group([2, 2, 2])) == [2, 2, 2]


def test_factor_product_and_exponent_invariants():
    for spec in ([2, 4], [3, 3], [6], [2, 2, 2]):
        g = synthetic_group(spec)
        facs = invariant_factors(g)
        prod = 1
        for d in facs:
            prod *= d
        assert prod == g.order
        assert facs[-1] == max(_order(g, a) for a in g.elements)
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0


def test_synthetic_group_rejects_unit_factor():
    with pytest.raises(ValueError):
        synthetic_group([1, 4])


def test_invariant_factors_match_closed_forms():
    # U(Z/p^k) is cyclic of order p^(k-1)(p-1) for odd p
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        k = 1
        while p ** k <= 2200:
            assert invariant_factors(unit_group_view(make_zmod(p ** k))) == \
                [p ** (k - 1) * (p - 1)], p ** k
            k += 1
    # U(Z/2^k) is Z2 x Z_{2^(k-2)} for k >= 3
    assert invariant_factors(unit_group_view(make_zmod(2))) == []
    assert invariant_factors(unit_group_view(make_zmod(4))) == [2]
    for k in range(3, 13):
        assert invariant_factors(unit_group_view(make_zmod(2 ** k))) == [2, 2 ** (k - 2)], k
    # a product of cyclic groups is normalised by its prime-power parts
    for r in (1, 2, 3):
        for spec in combinations_with_replacement(range(2, 9), r):
            for order in (spec, spec[::-1]):
                assert invariant_factors(synthetic_group(order)) == _normal_form(order), order


_LOOP = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
                  [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]])
_NONCOMMUTATIVE = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_group_validation_rejects_broken_ops():
    for order, vop, message in (
            (4, lambda a, b: a + b, r"operation escapes the carrier at \(1, 3\)"),
            (5, lambda a, b: (a - b) % 5, "identity fails at element 1"),
            (3, lambda a, b: _NONCOMMUTATIVE[a, b], r"commutativity fails at \(1, 2\)"),
            (4, lambda a, b: np.minimum(a + b, 3), "element 1 has no inverse"),
            (6, lambda a, b: _LOOP[a, b], "associativity fails at")):
        with pytest.raises(ValueError, match=message):
            AbelianGroupView(range(order), vop, 0, "broken")


def test_davenport_trivial_group():
    result = davenport(synthetic_group([]))
    assert result.value == 1
    assert len(result.witness) == 0


def test_davenport_cyclic_groups_equal_order():
    for n in range(2, 11):
        result = davenport(synthetic_group([n]))
        assert result.value == n
        assert result.witness.terms == (1,) * (n - 1)


def test_davenport_rank_two_and_three_groups():
    assert davenport(synthetic_group([2, 2])).value == 3
    assert davenport(synthetic_group([3, 3])).value == 5
    assert davenport(synthetic_group([2, 4])).value == 5
    assert davenport(synthetic_group([2, 2, 2])).value == 4


def test_davenport_rank_two_formula():
    # d1 + d2 - 1 is exact for rank-two groups
    for d1, d2 in ((2, 6), (3, 6), (4, 4), (2, 8)):
        assert davenport(synthetic_group([d1, d2])).value == d1 + d2 - 1


def test_davenport_matches_naive_oracle_on_small_groups():
    for spec in ([2], [3], [4], [2, 2], [5], [6], [2, 2, 2]):
        g = synthetic_group(spec)
        assert davenport(g).value == naive_davenport(g, limit=8)


def test_witness_is_zero_sum_free_of_length_value_minus_one():
    for spec in ([5], [2, 4], [3, 3], [2, 2, 2]):
        g = synthetic_group(spec)
        result = davenport(g)
        assert len(result.witness) == result.value - 1
        assert is_zero_sum_free(g, result.witness)


def test_classical_bounds_sandwich_the_value():
    for spec in ([2], [7], [2, 6], [3, 3], [2, 2, 4]):
        g = synthetic_group(spec)
        value = davenport(g).value
        facs = invariant_factors(g)
        assert 1 + sum(d - 1 for d in facs) <= value <= g.order


def test_unit_group_and_synthetic_twin_agree():
    assert davenport(unit_group_view(make_zmod(12))).value == \
        davenport(synthetic_group([2, 2])).value


def test_cap_exceeded_without_budget():
    g = synthetic_group([5, 5, 5])  # order 125 > 64
    with pytest.raises(BudgetExceeded):
        davenport(g)


def test_exhausted_node_budget_reports_partial_bound():
    g = synthetic_group([3, 3])
    with pytest.raises(BudgetExceeded) as err:
        davenport(g, budget=3)
    assert 0 <= err.value.best_length <= 4
    assert err.value.exact is False


def test_budget_overrides_the_cap(monkeypatch):
    g = synthetic_group([3, 3])
    monkeypatch.setattr(groups, "DAVENPORT_CAP", 5)
    with pytest.raises(BudgetExceeded, match="exceeds the search cap 5"):
        davenport(g)
    result = davenport(g, budget=1_000_000)
    assert result.value == 5


def test_search_matches_brute_force_oracle():
    for spec in ([3, 3], [2, 4]):
        g = synthetic_group(spec)
        result = davenport(g)
        assert result.value == naive_davenport(g)
        assert len(result.witness) == result.value - 1
        assert g.identity not in subset_products(g.mul, result.witness.terms)


def test_zero_sum_free_predicate():
    g = synthetic_group([4])
    assert is_zero_sum_free(g, Sequence.make(g, (1, 1, 1)))
    assert not is_zero_sum_free(g, Sequence.make(g, (1, 3)))
    assert g.identity not in product_set(Sequence.make(g, (1, 1)))


# D(G) by theorem against the exhaustive search ------------------------------

def _full_search(view):
    """Value, witness and node count of the exhaustive search with no ceiling,
    as ``max_free_sequence`` runs it on the group's table."""
    e = view.elements.index(view.identity)
    eng = search._Engine(view.table().tolist(), [i for i in range(view.order) if i != e], {e}, None)
    total = eng.longest(0, 0, 0)
    nodes = eng.nodes
    return total + 1, tuple(view.elements[p] for p in eng.witness(total)), nodes


def _assert_theorem_matches_search(view):
    """Same value and witness as the full search, within its node count."""
    value, witness, nodes = _full_search(view)
    result = davenport(view, budget=nodes)
    assert (result.value, result.witness.terms) == (value, witness), view.label


@pytest.mark.parametrize("spec", SMALL_GROUPS, ids=lambda s: "x".join(map(str, s)))
def test_theorem_matches_search_on_small_groups(spec):
    _assert_theorem_matches_search(synthetic_group(spec))


def test_theorem_matches_search_on_family_unit_groups():
    for spec in FAMILY_SPECS:
        _assert_theorem_matches_search(unit_group_view(family_ring(spec)))


@pytest.mark.parametrize("seed", range(20))
def test_theorem_matches_search_under_relabelling(seed):
    ring = family_ring(RELABELLED[seed % len(RELABELLED)])
    ring = relabel(ring, random.Random(seed).sample(range(ring.order), ring.order))
    _assert_theorem_matches_search(unit_group_view(ring))


def test_group_outside_the_theorems_runs_the_full_search():
    g = synthetic_group([2, 2, 6])  # rank 3, not a p-group
    value, witness, nodes = _full_search(g)
    assert (value, nodes) == (8, 8718)
    assert davenport(g).witness.terms == witness
    with pytest.raises(BudgetExceeded) as err:
        davenport(g, budget=nodes - 1)
    assert err.value.nodes == nodes - 1


def test_theorem_path_checks_its_witness(monkeypatch):
    # a wrong generator makes the closed form's witness reach the identity
    monkeypatch.setattr(groups, "_least_generator", lambda view: 2)
    with pytest.raises(InternalConsistencyError, match="not zero-sum free"):
        davenport(synthetic_group([6]))
    monkeypatch.undo()
    # a ceiling above the true maximum is reported, not returned
    monkeypatch.setattr(groups, "invariant_factors", lambda view: [2, 4])
    with pytest.raises(InternalConsistencyError, match="against the theorem"):
        davenport(synthetic_group([2, 2, 2]))


def test_cyclic_closed_form_above_the_search_cap():
    # 2 and 5 are the least primitive roots of 101 and 97
    for view, gen in ((unit_group_view(make_zmod(101)), 2), (unit_group_view(make_zmod(97)), 5),
                      (synthetic_group([128]), 1)):
        assert view.order > groups.DAVENPORT_CAP
        result = davenport(view)
        assert result.value == view.order
        assert result.witness.terms == (gen,) * (view.order - 1)
    with pytest.raises(BudgetExceeded):
        davenport(synthetic_group([2] * 7))  # order 128, not cyclic
