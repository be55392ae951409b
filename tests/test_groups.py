import pytest

from ebring import (AbelianGroupView, BudgetExceeded, SearchBudget, davenport,
                    invariant_factors, is_zero_sum_free, make_gf, make_zmod,
                    synthetic_group, unit_group_view)
from ebring.sequences import Sequence, product_set

from conftest import naive_davenport, subset_products


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
        assert any(g.element_order(a) == q - 1 for a in g.elements)


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
        assert facs[-1] == g.exponent()
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0


def test_synthetic_group_rejects_unit_factor():
    with pytest.raises(ValueError):
        synthetic_group([1, 4])


def test_group_validation_rejects_broken_ops():
    with pytest.raises(ValueError):
        AbelianGroupView(range(5), lambda a, b: (a - b) % 5, 0, "broken")
    with pytest.raises(ValueError):
        AbelianGroupView(range(4), lambda a, b: min(a + b, 3), 0, "no inverses")


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
        davenport(g, budget=SearchBudget(max_nodes=3))
    assert 0 <= err.value.best_length <= 4
    assert err.value.exact is False


def test_budget_overrides_the_cap():
    g = synthetic_group([3, 3])
    with pytest.raises(BudgetExceeded):
        davenport(g, cap=5)
    result = davenport(g, cap=5, budget=SearchBudget(max_nodes=1_000_000))
    assert result.value == 5


def test_trust_formulas_matches_search_for_cyclic_groups():
    for n in (2, 5, 9):
        g = synthetic_group([n])
        assert davenport(g, trust_formulas=True).value == davenport(g).value


def test_search_matches_brute_force_oracle():
    for spec in ([3, 3], [2, 4]):
        g = synthetic_group(spec)
        result = davenport(g)
        assert result.value == naive_davenport(g)
        assert len(result.witness) == result.value - 1
        assert g.identity not in subset_products(g.op, result.witness.terms)


def test_zero_sum_free_predicate():
    g = synthetic_group([4])
    assert is_zero_sum_free(g, Sequence.make(g, (1, 1, 1)))
    assert not is_zero_sum_free(g, Sequence.make(g, (1, 3)))
    assert g.identity not in product_set(Sequence.make(g, (1, 1)))
