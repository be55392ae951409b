import math
import random
from itertools import combinations_with_replacement

import numpy as np
import pytest

from ebring import (AbelianGroupView, BudgetExceeded, InternalConsistencyError, SearchRefused,
                    davenport, groups, invariant_factors, is_zero_sum_free, make_gf, make_zmod,
                    synthetic_group, unit_group_view)
from ebring.cli import run
from ebring.rings import MixedRadix, row_blocks
from ebring.sequences import Sequence, product_set

from conftest import (FAMILY_SPECS, RELABELLED, SMALL_GROUPS, basis_witness_oracle,
                      davenport_input, dfs_reference, family_ring, group_light_reference,
                      naive_davenport, relabel, subset_products, zero_sum_free)


def _order(g, a):
    """Order of a, by multiplying until the identity comes back."""
    k, acc = 1, a
    while acc != g.one:
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
    for order, vmul, message in (
            (4, lambda a, b: a + b, r"operation escapes the carrier at \(1, 3\)"),
            (5, lambda a, b: (a - b) % 5, "identity fails at element 1"),
            (3, lambda a, b: _NONCOMMUTATIVE[a, b], r"commutativity fails at \(1, 2\)"),
            (4, lambda a, b: np.minimum(a + b, 3), "element 1 has no inverse"),
            (6, lambda a, b: _LOOP[a, b], "associativity fails at")):
        with pytest.raises(ValueError, match=message):
            AbelianGroupView(range(order), vmul, 0, "broken")


def _group_verdict(validator, table):
    """The ValueError text ``validator`` raises on a fresh, unvalidated view
    of the position table ``table`` over 0..n-1 with identity 0, or None."""
    view = AbelianGroupView(range(len(table)), lambda a, b: table[a, b], 0, "corrupted")
    try:
        validator(view)
    except ValueError as exc:
        return str(exc)
    return None


def test_group_validation_row_gathers_keep_the_witness(monkeypatch):
    """On commutative position tables with one or two symmetric corrupted
    entries, and on the non-associative loop, ``validate_group`` raises the
    same error as Light's test indexed directly."""
    rng = random.Random(3)
    monkeypatch.setattr(groups, "VALIDATION_CAP", 0)
    cases = [_LOOP]
    for spec in ([6], [2, 4], [3, 3], [2, 2, 2], [8], [2, 6], [4, 4], [2, 2, 8]):
        table = synthetic_group(spec).table()
        n = len(table)
        singles = [(i, j, v) for i in range(n) for j in range(i, n) for v in range(n)
                   if v != table[i, j]]
        picks = [[c] for c in rng.sample(singles, min(len(singles), 150))]
        picks += [rng.sample(singles, 2) for _ in range(30)]
        for pick in picks:
            bad = table.copy()
            for i, j, v in pick:
                bad[i, j] = bad[j, i] = v
            cases.append(bad)
    verdicts = [_group_verdict(groups.validate_group, t) for t in cases]
    assert verdicts == [_group_verdict(group_light_reference, t) for t in cases]
    assert sum(v is not None and v.startswith("associativity fails at") for v in verdicts) > 100


@pytest.mark.parametrize("sizes", [[512], [2, 256], [8, 8, 8]])
def test_validation_takes_each_pair_product_once(sizes):
    """A view of 512 elements is validated as it is built, on every pair
    product, and keeps their positions as its table: building it and reading
    the table take the n² products once, and the table equals one built a
    block of rows at a time."""
    codec = MixedRadix(sizes)
    products = []

    def vmul(a, b):
        products.append(np.broadcast(a, b).size)
        return codec.encode((codec.digits(a) + codec.digits(b)) % codec.sizes)

    view = AbelianGroupView(range(codec.order), vmul, 0, "counted")
    table = view.table()
    assert sum(products) == 512 ** 2
    e = view.element_array()
    blocks = [np.searchsorted(e, vmul(e[rows, None], e[None, :])) for rows in row_blocks(512, 512)]
    assert np.array_equal(table, np.concatenate(blocks))


def test_position_tables_are_int32_on_both_construction_paths():
    """A view past ``VALIDATION_CAP`` builds its table a block of rows at a
    time; a validated view keeps the positions validation took. Both hold
    int32, as ring tables do, and the sweep reads them without a copy."""
    built = unit_group_view(make_zmod(9240))
    assert built.order > groups.VALIDATION_CAP
    validated = synthetic_group((2, 2, 6))
    assert validated._table is not None
    for view in (built, validated):
        table = view.table()
        assert table.dtype == np.int32
        e = view.element_array()
        assert np.array_equal(table[:64], np.searchsorted(e, view.vmul(e[:64, None], e[None, :])))

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
    g = synthetic_group([2, 2, 2, 2, 6])  # order 96 > 64, outside the theorems
    with pytest.raises(SearchRefused, match="group order 96 exceeds the search cap 64"):
        davenport(g)


def test_exhausted_node_budget_reports_partial_bound():
    g = synthetic_group([2, 2, 6])  # outside the theorems, so the sweep runs
    with pytest.raises(BudgetExceeded) as err:
        davenport(g, budget=3)
    assert 0 <= err.value.best_length <= 7
    assert err.value.exact is False


def test_budget_overrides_the_cap(monkeypatch):
    """A budget lets the sweep run above the cap, and bounds it. Z2 x Z2 x Z6
    under a cap of 5 finishes; Z2^4 x Z6 runs out of its 2000 nodes."""
    g = synthetic_group([2, 2, 2, 2, 6])
    with pytest.raises(BudgetExceeded, match="^Davenport sweep of Z2 x Z2 x Z2 x Z2 x Z6: ") as err:
        davenport(g, budget=2000)
    assert not isinstance(err.value, SearchRefused)
    assert err.value.nodes == 2000
    g = synthetic_group([2, 2, 6])
    monkeypatch.setattr(groups, "DAVENPORT_CAP", 5)
    with pytest.raises(SearchRefused, match="exceeds the search cap 5"):
        davenport(g)
    assert davenport(g, budget=1_000_000).value == 8


def test_search_matches_brute_force_oracle():
    for spec in ([3, 3], [2, 4]):
        g = synthetic_group(spec)
        result = davenport(g)
        assert result.value == naive_davenport(g)
        assert len(result.witness) == result.value - 1
        assert g.one not in subset_products(g.mul, result.witness.terms)


def test_zero_sum_free_predicate():
    g = synthetic_group([4])
    assert is_zero_sum_free(g, Sequence.make(g, (1, 1, 1)))
    assert not is_zero_sum_free(g, Sequence.make(g, (1, 3)))
    assert g.one not in product_set(Sequence.make(g, (1, 1)))


# D(G) by theorem or sweep against the exhaustive search -----------------------

def _reference(view):
    """D(G), the witness and the node count of the reference DFS."""
    length, positions, nodes, _ = dfs_reference(*davenport_input(view))
    return length + 1, tuple(view.elements[p] for p in positions), nodes


def _assert_theorem_matches_search(view):
    """The reference DFS's value, within its node count, the value coming
    from the theorem or, outside it, from the sweep; and the basis witness,
    zero-sum free by the oracle."""
    value, _, nodes = _reference(view)
    result = davenport(view, budget=nodes)
    assert result.value == value, view.label
    assert result.witness.terms == basis_witness_oracle(view, invariant_factors(view)), view.label
    assert zero_sum_free(view, result.witness.terms), view.label


@pytest.mark.parametrize("spec", SMALL_GROUPS, ids=lambda s: "x".join(map(str, s)))
def test_theorem_matches_search_on_small_groups(spec):
    _assert_theorem_matches_search(synthetic_group(spec))


def test_theorem_matches_search_on_family_unit_groups():
    for spec in FAMILY_SPECS:
        _assert_theorem_matches_search(unit_group_view(family_ring(spec)))


@pytest.mark.parametrize("seed", range(20))
def test_theorem_matches_search_under_relabelling(seed):
    # U(Z/84) = Z2 x Z2 x Z6 lies outside the theorems, so it takes the sweep
    for spec in (RELABELLED[seed % len(RELABELLED)], "Z/84"):
        ring = family_ring(spec)
        ring = relabel(ring, random.Random(seed).sample(range(ring.order), ring.order))
        _assert_theorem_matches_search(unit_group_view(ring))


def test_group_outside_the_theorems_takes_the_sweep_value_and_the_ceiling_witness():
    """Z2 x Z2 x Z6 has rank 3 and is not a p-group. The sweep expands 5027
    product sets for its value, against the reference DFS's 8718, and the
    witness is the basis witness, which runs no search. One node short, the
    sweep is named."""
    g = synthetic_group([2, 2, 6])
    value, _, nodes = _reference(g)
    assert (value, nodes) == (8, 8718)
    result = davenport(g, budget=5027)
    assert result.value == value
    assert result.witness.terms == basis_witness_oracle(g, [2, 2, 6])
    with pytest.raises(BudgetExceeded, match="^Davenport sweep of Z2 x Z2 x Z6: ") as err:
        davenport(g, budget=5026)
    assert err.value.nodes == 5026


def test_theorem_path_checks_its_witness(monkeypatch):
    # a witness that fails the check is reported, not returned
    monkeypatch.setattr(groups, "is_zero_sum_free", lambda view, seq: False)
    with pytest.raises(InternalConsistencyError, match="not zero-sum free"):
        davenport(synthetic_group([6]))
    monkeypatch.undo()
    # a sweep value above D* has no witness method, so it is refused
    monkeypatch.setattr(groups, "longest_free_length", lambda *args, budget: 8)
    with pytest.raises(SearchRefused, match="found D = 9 in Z2 x Z2 x Z6, above D\\* = 8, "
                                            "and no witness method applies"):
        davenport(synthetic_group([2, 2, 6]))
    # and one below D* is an inconsistency
    monkeypatch.setattr(groups, "longest_free_length", lambda *args, budget: 6)
    with pytest.raises(InternalConsistencyError, match="found D = 7 in Z2 x Z2 x Z6, below D\\* = 8"):
        davenport(synthetic_group([2, 2, 6]))


def test_wrong_invariant_factors_find_no_basis(monkeypatch):
    """Z2^3 has no element of order 4, so the type [2, 4] gives no basis: an
    inconsistency, not an IndexError."""
    monkeypatch.setattr(groups, "invariant_factors", lambda view: [2, 4])
    with pytest.raises(InternalConsistencyError, match="no element of Z2 x Z2 x Z2 has order 4"):
        davenport(synthetic_group([2, 2, 2]))


def _factor_types(limit):
    """Every invariant-factor type n_1 | n_2 | ... of order at most ``limit``."""
    out, todo = [], [([n], n) for n in range(2, limit + 1)]
    while todo:
        spec, order = todo.pop()
        out.append(spec)
        todo += [(spec + [n], order * n) for n in range(spec[-1], limit // order + 1, spec[-1])]
    return out


def test_basis_witness_census():
    """The basis witness has length D* - 1, is zero-sum free and follows its
    definition, by the oracles, on every type of order at most 128 and on
    the unit groups of the relabelled rings, outside the theorems too."""
    types = _factor_types(128)
    assert len(types) == 246  # the abelian groups of orders 2 to 128, up to isomorphism
    views = [synthetic_group(spec) for spec in types]
    for seed in range(20):
        ring = family_ring(RELABELLED[seed % len(RELABELLED)])
        views.append(unit_group_view(relabel(ring, random.Random(seed).sample(range(ring.order),
                                                                              ring.order))))
    for view in views:
        factors = invariant_factors(view)
        terms = tuple(sorted(groups._basis_witness(view, factors)))
        assert len(terms) == sum(n - 1 for n in factors), view.label
        assert zero_sum_free(view, terms), view.label
        assert terms == basis_witness_oracle(view, factors), view.label


# Digits in Z2^4 x Z6 of a zero-sum-free sequence of length D* = 10, so D > D*
# there, as for every Z2^4 x Z2k with odd k >= 3 (Gao and Geroldinger, Expo.
# Math. 24, 2006)
_LONG_FREE = ([(0, 0, 0, 1, 1), (0, 0, 0, 1, 4)] + [(0, 1, 0, 1, 5)] * 3
              + [(0, 1, 1, 0, 1), (0, 1, 1, 0, 4), (1, 1, 0, 0, 1), (1, 1, 0, 0, 4),
                 (1, 1, 1, 0, 5)])


def test_davenport_above_the_basis_bound_is_never_reported(capsys, monkeypatch):
    """D(Z2^4 x Z6) > D* = 10: this free sequence has 10 terms. No basis gives
    such a witness, so neither the group nor the ring Z/8 x Z/3 x Z/3 x Z/7,
    whose unit group it is, is reported with D = 10."""
    g = synthetic_group([2, 2, 2, 2, 6])
    codec = MixedRadix([2, 2, 2, 2, 6])
    terms = [int(codec.encode(d)) for d in _LONG_FREE]
    assert len(terms) == 10 == 1 + sum(n - 1 for n in invariant_factors(g))
    assert zero_sum_free(g, terms)
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    for argv in (["davenport", "Z2xZ2xZ2xZ2xZ6"], ["invariants", "Z/8 x Z/3 x Z/3 x Z/7"]):
        assert run(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("refused: "), argv


def test_cyclic_closed_form_above_the_search_cap():
    # 2 and 5 are the least primitive roots of 101 and 97
    for view, gen in ((unit_group_view(make_zmod(101)), 2), (unit_group_view(make_zmod(97)), 5),
                      (synthetic_group([128]), 1)):
        assert view.order > groups.DAVENPORT_CAP
        result = davenport(view)
        assert result.value == view.order
        assert result.witness.terms == (gen,) * (view.order - 1)
    assert davenport(synthetic_group([2] * 7)).value == 8  # a 2-group, no search
    with pytest.raises(SearchRefused):
        davenport(synthetic_group([2, 2, 2, 2, 6]))  # order 96, outside the theorems
