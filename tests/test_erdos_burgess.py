import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ebring import (ALL_INDICES_ONE, BOTH, BudgetExceeded, LOCAL, SearchRefused,
                    Sequence, UNKNOWN, construct_extremal, erdos_burgess,
                    dedekind_crosscheck_int, dedekind_crosscheck_poly,
                    exact_eb, idempotents, is_idempotent_product_free,
                    local_case_certificate, make_from_table, make_gf,
                    make_poly_quotient, make_zmod, report,
                    squarefree_case_certificate, units)

from conftest import (FAMILY_SPECS, dfs_exact_search, family_ring, idempotent_product_free,
                      is_free_sequence, naive_eb, relabel)

# frozen from the naive subset-product oracle (see conftest.naive_eb)
ORACLE_VALUES = {
    "Z/2": 1, "Z/3": 2, "Z/4": 3, "Z/5": 4, "Z/6": 2,
    "GF(4)": 3, "GF(2)[x]/(x^2)": 3, "GF(2)[x]/(x^2+x)": 1,
    "Z/8": 5,
}


def test_exact_search_matches_naive_oracle():
    for spec, frozen in ORACLE_VALUES.items():
        ring = family_ring(spec)
        assert naive_eb(ring, limit=6) == frozen, spec
        assert exact_eb(ring) == frozen, spec


def test_truncated_cubic_over_gf2():
    ring = family_ring("GF(2)[x]/(x^3)")
    assert naive_eb(ring, limit=7) == 6
    assert exact_eb(ring) == 6


def test_search_witness_is_free_and_maximal():
    for spec in ("Z/4", "Z/12", "GF(5)"):
        ring = family_ring(spec)
        value, witness = dfs_exact_search(ring)
        assert len(witness) == value - 1
        assert is_idempotent_product_free(witness)


def test_construction_on_fields_is_the_unit_witness():
    ring = family_ring("GF(5)")
    trace = construct_extremal(ring)
    assert trace.free_sequence.terms == (2, 2, 2)
    assert trace.free_sequence.terms == trace.unit_witness.terms
    assert all(ic.chosen == () for ic in trace.per_ideal)


def test_construction_on_z4():
    trace = construct_extremal(make_zmod(4))
    assert trace.lower_bound == 3
    assert sorted(trace.free_sequence.terms) == [2, 3]


def test_construction_on_z12():
    trace = construct_extremal(make_zmod(12))
    assert trace.lower_bound == 4
    assert len(trace.free_sequence) == 3
    indices = sorted(ic.index for ic in trace.per_ideal)
    assert indices == [1, 2]


def test_construction_certificates_verify_by_membership():
    from ebring import ideal_power
    for spec in ("Z/16", "GF(2)[x]/(x^3)", "GF(3)[x]/(x^2)", "Z/12"):
        trace = construct_extremal(family_ring(spec))
        for ic in trace.per_ideal:
            assert len(ic.chosen) == max(ic.index - 1, 0)
            prod, products = trace.ring.one, []
            for depth, y in enumerate(ic.chosen, start=1):
                assert y in ic.ideal.members
                prod = trace.ring.mul(prod, y)
                assert prod in ideal_power(ic.ideal, depth).members
                assert prod not in ideal_power(ic.ideal, depth + 1).members
                products.append(prod)
            assert ic.products == tuple(products)


def test_construction_lifts_are_congruent():
    from ebring import ideal_power
    ring = make_zmod(12)
    trace = construct_extremal(ring)
    stationary = {id(ic.ideal): ideal_power(ic.ideal, ic.index) for ic in trace.per_ideal}
    for ic in trace.per_ideal:
        own = stationary[id(ic.ideal)]
        for y, lifted in zip(ic.chosen, ic.lifted):
            assert ring.add(lifted, ring.neg(y)) in own.members
            for other in trace.per_ideal:
                if other is not ic:
                    other_power = stationary[id(other.ideal)]
                    assert ring.add(lifted, ring.neg(ring.one)) in other_power.members


def _two_generator_local_ring():
    """GF(2)[x,y]/(x^2, xy, y^3) as a 16-element table ring: bit k of an
    index is the coefficient of the k-th of the basis 1, x, y, y^2."""
    i, j = np.arange(16)[:, None], np.arange(16)[None, :]
    a, b, c, d = (i >> k & 1 for k in range(4))
    e, f, g, h = (j >> k & 1 for k in range(4))
    mul = ((a & e) | ((a & f) ^ (b & e)) << 1 | ((a & g) ^ (c & e)) << 2
           | ((a & h) ^ (d & e) ^ (c & g)) << 3)
    names = ["+".join(t for k, t in ((3, "y^2"), (2, "y"), (1, "x"), (0, "1")) if n >> k & 1)
             or "0" for n in range(16)]
    return make_from_table(16, i ^ j, mul, names=names, label="GF(2)[x,y]/(x^2,xy,y^3)")


def test_construction_backs_up_past_an_annihilating_generator():
    """The maximal ideal M = (x, y) has index 3. Its least member outside M^2
    is x, and x·M = 0, so the depth search must back up from x; it then
    chooses (y, y). The bound D(Z2 x Z4) + 2 = 7 is the exact value: the
    local case of the equality, on a maximal ideal with two generators."""
    ring = _two_generator_local_ring()
    trace = construct_extremal(ring)
    (ic,) = trace.per_ideal
    assert ic.index == 3
    assert [ring.name(y) for y in ic.chosen] == ["y", "y"]
    assert ring.name(ic.products[-1]) == "y^2"
    assert is_idempotent_product_free(trace.free_sequence)
    rep = report(ring, exact=True)
    assert (rep.lower_bound, rep.exact_value, rep.equality_case) == (7, 7, LOCAL)
    assert rep.unit_group_factors == (2, 4)


def test_trivial_unit_group_gives_empty_witness():
    trace = construct_extremal(family_ring("GF(2)[x]/(x^2+x)"))
    assert trace.lower_bound == 1
    assert len(trace.free_sequence) == 0
    assert is_idempotent_product_free(trace.free_sequence)


def test_exact_search_cap_and_budget_override(monkeypatch):
    ring = make_zmod(26)
    with pytest.raises(BudgetExceeded):
        exact_eb(ring)
    value = exact_eb(ring, budget=5_000_000)
    assert value == 12  # D(U(Z/26)) = D(Z_12), squarefree modulus
    monkeypatch.setattr(erdos_burgess, "EB_SEARCH_CAP", 11)
    with pytest.raises(SearchRefused, match="exceeds the exact search cap 11"):
        exact_eb(make_zmod(12))
    assert exact_eb(make_zmod(12), budget=1_000) == 4
    assert exact_eb(make_zmod(11)) == 10


def test_tiny_budget_carries_partial_bound():
    ring = make_zmod(13)
    with pytest.raises(BudgetExceeded) as err:
        exact_eb(ring, budget=5)
    assert err.value.exact is False
    assert 0 <= err.value.best_length < 12


def test_exact_value_invariant_under_relabeling():
    rng = random.Random(321)
    src = make_zmod(10)
    perm = list(range(10))
    rng.shuffle(perm)
    inv = [perm.index(i) for i in range(10)]
    add = [[perm[src.add(inv[i], inv[j])] for j in range(10)] for i in range(10)]
    mul = [[perm[src.mul(inv[i], inv[j])] for j in range(10)] for i in range(10)]
    relabeled = make_from_table(10, add, mul)
    assert exact_eb(relabeled) == exact_eb(src)


RELABEL_SPECS = ["Z/8", "Z/12", "Z/16", "GF(9)", "GF(2)[x]/(x^3)", "GF(2)[x]/(x^3+x^2)",
                 "Z/4 x GF(3)"]


@given(st.sampled_from(RELABEL_SPECS).flatmap(
    lambda spec: st.tuples(st.just(spec), st.permutations(range(family_ring(spec).order)))))
def test_exact_search_is_invariant_under_relabelling(spec_and_perm):
    """Renaming the elements changes the search's order of candidates but not
    the constant, and the witness stays free in the renamed ring."""
    spec, perm = spec_and_perm
    ring = relabel(family_ring(spec), perm)
    value, witness = dfs_exact_search(ring)
    assert value == exact_eb(family_ring(spec))
    assert len(witness.terms) == value - 1
    assert is_free_sequence(ring, witness.terms)


def _label_free_fields(rep):
    return (rep.ring_order, rep.units_order, rep.unit_group_factors, rep.davenport_of_units,
            sorted((m.size, m.index) for m in rep.maximal_ideal_summaries),
            rep.lower_bound, rep.exact_value, rep.ghw_upper, rep.equality_case)


@given(st.sampled_from(FAMILY_SPECS).flatmap(
    lambda spec: st.tuples(st.just(spec), st.permutations(range(family_ring(spec).order)))))
def test_report_is_invariant_under_relabelling(spec_and_perm):
    """Every report field that does not name elements is the same for a
    renamed ring, and the renamed ring's witness is free with lower - 1 terms."""
    spec, perm = spec_and_perm
    ring = relabel(family_ring(spec), perm)
    rep = report(ring, exact=True)
    assert _label_free_fields(rep) == _label_free_fields(report(family_ring(spec), exact=True))
    assert len(rep.witness) == rep.lower_bound - 1
    assert idempotent_product_free(ring, rep.witness.terms)


def test_local_certificate_unit_branch():
    ring = make_zmod(4)
    cert = local_case_certificate(ring, Sequence.make(ring, (3, 3, 2)))
    assert cert.branch == "unit-zero-sum"
    assert cert.product == ring.one
    assert sorted(cert.witness.terms) == [3, 3]


def test_local_certificate_nilpotent_branch():
    ring = make_zmod(4)
    cert = local_case_certificate(ring, Sequence.make(ring, (1, 2, 2)))
    assert cert.branch == "nilpotent-product"
    assert cert.product == ring.zero
    assert cert.witness.terms == (2, 2)


def test_local_certificate_rejects_non_local_rings():
    ring = make_zmod(12)
    with pytest.raises(ValueError):
        local_case_certificate(ring, Sequence.make(ring, (1, 2, 3, 4)))


def test_local_certificate_rejects_short_sequences():
    ring = make_zmod(4)
    with pytest.raises(ValueError):
        local_case_certificate(ring, Sequence.make(ring, (2, 2)))


def test_local_certificate_across_local_family():
    rng = random.Random(77)
    for spec in ("Z/8", "Z/9", "GF(2)[x]/(x^3)", "GF(3)[x]/(x^2)"):
        ring = family_ring(spec)
        bound = report(ring).lower_bound
        for _ in range(20):
            seq = Sequence.make(ring, tuple(rng.randrange(ring.order) for _ in range(bound)))
            cert = local_case_certificate(ring, seq)
            prod = ring.one
            for t in cert.witness.terms:
                prod = ring.mul(prod, t)
            assert prod == cert.product
            assert ring.mul(prod, prod) == prod  # idempotent found


def test_squarefree_certificate_on_z6():
    ring = make_zmod(6)
    cert = squarefree_case_certificate(ring, Sequence.make(ring, (2, 3)))
    assert ring.mul(cert.product, cert.product) == cert.product
    assert all(lift in units(ring) for lift in cert.lifted)
    assert len(cert.witness) >= 1


def test_squarefree_certificate_single_idempotent_element():
    ring = family_ring("GF(2)[x]/(x^2+x)")
    for x in ring.elements:
        cert = squarefree_case_certificate(ring, Sequence.make(ring, (x,)))
        assert cert.witness.terms == (x,)
        assert cert.product == x  # every element of this ring is idempotent


def test_squarefree_certificate_random_family():
    rng = random.Random(11)
    for spec in ("Z/6", "Z/10", "Z/15", "GF(7)"):
        ring = family_ring(spec)
        dav = report(ring).davenport_of_units
        for _ in range(20):
            seq = Sequence.make(ring, tuple(rng.randrange(ring.order) for _ in range(dav)))
            cert = squarefree_case_certificate(ring, seq)
            assert ring.mul(cert.product, cert.product) == cert.product


def test_squarefree_certificate_rejects_higher_index():
    ring = make_zmod(4)
    with pytest.raises(ValueError):
        squarefree_case_certificate(ring, Sequence.make(ring, (1, 1)))


def test_report_equality_cases():
    assert report(family_ring("Z/4")).equality_case == LOCAL
    assert report(family_ring("Z/6")).equality_case == ALL_INDICES_ONE
    assert report(family_ring("GF(5)")).equality_case == BOTH
    assert report(family_ring("Z/12")).equality_case == UNKNOWN


def test_report_formula_fill_without_exact_search():
    rep = report(family_ring("Z/9"))
    assert rep.exact_value == rep.lower_bound
    assert rep.exact_is_formula_derived
    rep = report(family_ring("Z/12"))
    assert rep.exact_value is None
    rep = report(family_ring("Z/12"), exact=True)
    assert rep.exact_value == 4
    assert not rep.exact_is_formula_derived


def test_report_fields_are_consistent():
    ring = family_ring("Z/12")
    rep = report(ring, exact=True)
    assert rep.ring_order == 12
    assert rep.units_order == 4
    assert tuple(rep.unit_group_factors) == (2, 2)
    assert rep.davenport_of_units == 3
    assert rep.lower_bound == 4
    assert rep.ghw_upper == 12 - 4 + 1
    assert [s.index for s in rep.maximal_ideal_summaries] == [2, 1]
    assert len(rep.witness) == rep.lower_bound - 1


def test_crosscheck_int_examples():
    rec = dedekind_crosscheck_int(12)
    assert rec.big_omega - rec.small_omega == 1
    assert rec.index_sum == 1
    assert dict(rec.ideal_indices) == {"2": 2, "3": 1}

    rec = dedekind_crosscheck_int(7)
    assert rec.index_sum == 0 and rec.big_omega == rec.small_omega == 1

    rec = dedekind_crosscheck_int(360)
    assert rec.index_sum == 3
    assert rec.big_omega == 6 and rec.small_omega == 3


def test_crosscheck_int_rejects_units():
    with pytest.raises(ValueError):
        dedekind_crosscheck_int(1)


def test_crosscheck_poly_examples():
    rec = dedekind_crosscheck_poly(2, (0, 0, 1, 1))  # x^2(x+1)
    assert rec.index_sum == 1
    assert dict(rec.ideal_indices) == {"x": 2, "x+1": 1}

    rec = dedekind_crosscheck_poly(2, (1, 1, 0, 1))  # irreducible cubic
    assert rec.index_sum == 0 and rec.small_omega == 1

    rec = dedekind_crosscheck_poly(3, (0, 0, 1))  # x^2 over GF(3)
    assert rec.index_sum == 1
    ring = make_poly_quotient(make_gf(3), (0, 0, 1))
    assert exact_eb(ring) == report(ring).lower_bound


def test_crosscheck_poly_rejects_non_monic():
    with pytest.raises(ValueError):
        dedekind_crosscheck_poly(3, (1, 2))


def test_ghw_bound_against_idempotent_count():
    for spec in ("Z/4", "Z/12", "GF(9)", "GF(2)[x]/(x^3+x^2)"):
        ring = family_ring(spec)
        assert exact_eb(ring) <= ring.order - len(idempotents(ring)) + 1


def test_search_matches_brute_force_oracle():
    ring = family_ring("Z/12")
    value, wit = dfs_exact_search(ring)
    assert value == naive_eb(ring)
    assert len(wit) == value - 1
    assert is_free_sequence(ring, wit.terms)


def test_product_ring_matches_its_modular_twin():
    twin = family_ring("Z/4 x GF(3)")
    flat = family_ring("Z/12")
    assert report(twin, exact=True).davenport_of_units == \
        report(flat, exact=True).davenport_of_units
    twin_indices = sorted(s.index for s in report(twin).maximal_ideal_summaries)
    flat_indices = sorted(s.index for s in report(flat).maximal_ideal_summaries)
    assert twin_indices == flat_indices
    assert exact_eb(twin) == exact_eb(flat)
