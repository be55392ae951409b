import random

import pytest

from ebring import (build_ring, crt_solve, ideal_generated_by,
                    ideal_index, ideal_power, ideal_product, is_field,
                    make_gf, make_poly_quotient, make_zmod, maximal_ideals,
                    nilradical, power_chain, quotient_ring, unit_ideal)

from conftest import family_ring, FAMILY_SPECS, is_valid_ideal


def test_generated_by_even_residues():
    r = make_zmod(12)
    assert sorted(ideal_generated_by(r, [2]).members) == [0, 2, 4, 6, 8, 10]


def test_generated_by_unit_is_whole_ring():
    r = make_zmod(12)
    assert ideal_generated_by(r, [7]).members == frozenset(range(12))


def test_generated_by_x_squared():
    r = make_poly_quotient(make_gf(2), (0, 0, 0, 1))
    assert sorted(ideal_generated_by(r, [4]).members) == [0, 4]


def test_generated_by_nothing_is_zero_ideal():
    r = make_zmod(9)
    i = ideal_generated_by(r, [])
    assert i.is_zero and i.generators == ()


def test_sum_and_product_examples():
    r = make_zmod(12)
    two, three = ideal_generated_by(r, [2]), ideal_generated_by(r, [3])
    assert sorted(ideal_product(two, three).members) == [0, 6]
    for other in (unit_ideal(r), three):
        total = ideal_generated_by(r, [*two.generators, *other.generators])
        assert total.members == frozenset(range(12))


def test_product_rejects_ring_mismatch():
    a = ideal_generated_by(make_zmod(4), [2])
    b = ideal_generated_by(make_zmod(6), [2])
    with pytest.raises(ValueError):
        ideal_product(a, b)


def test_power_zero_is_whole_ring():
    r = make_zmod(12)
    for gens in ([2], [3], [0]):
        n = ideal_generated_by(r, gens)
        assert ideal_power(n, 0).members == frozenset(range(12))


def test_power_chain_in_z4():
    r = make_zmod(4)
    m = ideal_generated_by(r, [2])
    assert ideal_power(m, 2).is_zero
    assert ideal_index(m) == 2


def test_power_chain_in_truncated_polynomials():
    r = make_poly_quotient(make_gf(2), (0, 0, 0, 1))
    m = ideal_generated_by(r, [2])
    assert sorted(ideal_power(m, 2).members) == [0, 4]
    assert ideal_power(m, 3).is_zero
    assert ideal_index(m) == 3
    chain = power_chain(m)
    assert [sorted(p.members) for p in chain] == [list(range(8)), [0, 2, 4, 6], [0, 4], [0]]


def test_index_of_unit_ideal_is_zero():
    assert ideal_index(unit_ideal(make_zmod(10))) == 0


def test_index_of_idempotent_maximal_ideal_is_one():
    r = make_zmod(12)
    assert ideal_index(ideal_generated_by(r, [3])) == 1


def test_powers_monotone_and_stationary():
    for spec in ("Z/12", "Z/16", "GF(2)[x]/(x^3+x^2)", "GF(3)[x]/(x^2)"):
        r = family_ring(spec)
        for m in maximal_ideals(r):
            k = ideal_index(m)
            powers = [ideal_power(m, i) for i in range(k + 4)]
            for i in range(len(powers) - 1):
                assert powers[i + 1].members <= powers[i].members
            for extra in range(1, 4):
                assert powers[k + extra].members == powers[k].members


def test_nilradical_examples():
    assert sorted(nilradical(make_zmod(12)).members) == [0, 6]
    for q in (3, 4, 9):
        assert nilradical(make_gf(q)).is_zero
    assert nilradical(make_poly_quotient(make_gf(2), (0, 1, 1))).is_zero


def test_nilradical_is_intersection_of_maximal_ideals():
    for spec in FAMILY_SPECS:
        r = family_ring(spec)
        inter = frozenset(r.elements)
        for m in maximal_ideals(r):
            inter &= m.members
        assert nilradical(r).members == inter


def test_maximal_ideals_of_z12():
    maxi = maximal_ideals(make_zmod(12))
    assert [m.size for m in maxi] == [6, 4]
    assert sorted(maxi[0].members) == [0, 2, 4, 6, 8, 10]
    assert sorted(maxi[1].members) == [0, 3, 6, 9]


def test_fields_have_only_the_zero_maximal_ideal():
    for q in (2, 5, 8):
        maxi = maximal_ideals(make_gf(q))
        assert len(maxi) == 1 and maxi[0].is_zero


def test_split_quadratic_has_two_maximal_ideals_of_index_one():
    r = make_poly_quotient(make_gf(2), (0, 1, 1))
    maxi = maximal_ideals(r)
    assert len(maxi) == 2
    assert all(m.size == 2 for m in maxi)
    assert all(ideal_index(m) == 1 for m in maxi)


def test_maximal_ideals_pairwise_coprime():
    for spec in FAMILY_SPECS:
        r = family_ring(spec)
        maxi = maximal_ideals(r)
        for i in range(len(maxi)):
            for j in range(i + 1, len(maxi)):
                total = ideal_generated_by(r, [*maxi[i].generators, *maxi[j].generators])
                assert total.members == frozenset(r.elements)


def test_local_ring_units_complement_the_maximal_ideal():
    from ebring import units
    for spec in ("Z/4", "Z/8", "Z/9", "GF(3)[x]/(x^2)", "GF(2)[x]/(x^3)"):
        r = family_ring(spec)
        maxi = maximal_ideals(r)
        assert len(maxi) == 1
        assert units(r) == frozenset(r.elements) - maxi[0].members


def test_quotient_by_zero_ideal_preserves_order():
    r = make_zmod(10)
    q, theta = quotient_ring(r, ideal_generated_by(r, []))
    assert q.order == 10
    assert sorted(set(theta)) == list(range(10))


def test_quotient_z12_by_three():
    r = make_zmod(12)
    q, theta = quotient_ring(r, ideal_generated_by(r, [3]))
    assert q.order == 3
    assert theta[4] == theta[1]
    assert is_field(q)


def test_quotient_by_nilradical_kills_nilpotents():
    r = make_zmod(12)
    q, _ = quotient_ring(r, nilradical(r))
    assert q.order == 6
    assert nilradical(q).is_zero


def test_quotient_by_unit_ideal_rejected():
    r = make_zmod(6)
    with pytest.raises(ValueError):
        quotient_ring(r, unit_ideal(r))


def test_quotient_map_is_a_homomorphism():
    r = make_poly_quotient(make_gf(2), (0, 0, 0, 1))
    m = ideal_generated_by(r, [4])
    q, theta = quotient_ring(r, m)
    for a in r.elements:
        for b in r.elements:
            assert theta[r.add(a, b)] == q.add(theta[a], theta[b])
            assert theta[r.mul(a, b)] == q.mul(theta[a], theta[b])


def test_crt_example_in_z12():
    r = make_zmod(12)
    four = ideal_generated_by(r, [4])
    three = ideal_generated_by(r, [3])
    assert crt_solve(r, [(four, 3), (three, 1)]) == 7


def test_crt_single_constraint_reduces_correctly():
    r = make_zmod(12)
    q = ideal_generated_by(r, [4])
    x = crt_solve(r, [(q, 3)])
    assert r.add(x, r.neg(3)) in q.members


def test_crt_rejects_non_coprime_ideals():
    r = make_zmod(12)
    two = ideal_generated_by(r, [2])
    with pytest.raises(ValueError):
        crt_solve(r, [(two, 1), (two, 0)])


def test_crt_random_instances_reduce_correctly():
    rng = random.Random(99)
    for spec in ("Z/12", "GF(2)[x]/(x^3+x^2)"):
        r = family_ring(spec)
        maxi = maximal_ideals(r)
        for _ in range(250):
            moduli = [ideal_power(m, rng.randint(1, ideal_index(m) or 1)) for m in maxi]
            targets = [rng.randrange(r.order) for _ in moduli]
            x = crt_solve(r, list(zip(moduli, targets)))
            for q, a in zip(moduli, targets):
                assert r.add(x, r.neg(a)) in q.members


def test_produced_ideals_are_valid():
    r = make_zmod(18)
    for gens in ([2], [3], [6], [9], []):
        assert is_valid_ideal(ideal_generated_by(r, gens))
    for m in maximal_ideals(r):
        assert is_valid_ideal(m)
    assert is_valid_ideal(nilradical(r))


def test_generators_regenerate_their_ideal():
    for spec in ("Z/12", "Z/16", "GF(2)[x]/(x^3+x^2)"):
        r = family_ring(spec)
        for m in maximal_ideals(r):
            assert ideal_generated_by(r, m.generators) == m


def _brute_force_maximal_ideals(ring):
    """All inclusion-maximal proper ideals by raw subset enumeration."""
    n = ring.order
    ideals = []
    for mask in range(1 << n):
        if not mask >> ring.zero & 1 or mask >> ring.one & 1:
            continue
        members = [x for x in range(n) if mask >> x & 1]
        if any(not mask >> ring.add(x, y) & 1 for x in members for y in members):
            continue
        if any(not mask >> ring.mul(x, r) & 1 for x in members for r in range(n)):
            continue
        ideals.append(frozenset(members))
    return {i for i in ideals if not any(i < j for j in ideals)}


def test_maximal_ideals_match_subset_enumeration():
    for spec in ("Z/8", "Z/12", "GF(2)[x]/(x^3)", "GF(2)[x]/(x^2+x)", "GF(9)"):
        r = family_ring(spec)
        expected = _brute_force_maximal_ideals(r)
        assert {m.members for m in maximal_ideals(r)} == expected, spec


def _maximal_by_extension(ring):
    """Each proper principal ideal (x) grown greedily by every y that keeps it
    proper. Every maximal ideal M holds an x in no other maximal ideal (prime
    avoidance), and (x) can only grow into M, so all of them are found."""
    found = set()
    for x in ring.elements:
        ideal = ideal_generated_by(ring, [x])
        if not ideal.is_proper:
            continue
        for y in ring.elements:
            if y not in ideal.members:
                bigger = ideal_generated_by(ring, [*ideal.generators, y])
                if bigger.is_proper:
                    ideal = bigger
        found.add(ideal.members)
    return found


def test_maximal_ideals_take_no_quotient_by_the_zero_ideal(monkeypatch):
    """R/(0) is R: reduced rings and fields must not get a full copy built."""
    from ebring import ideals
    zero_quotients = []
    original = ideals.quotient_ring

    def spy(ring, ideal):
        if ideal.is_zero:
            zero_quotients.append(ring.label)
        return original(ring, ideal)

    monkeypatch.setattr(ideals, "quotient_ring", spy)
    for spec in FAMILY_SPECS:
        r = build_ring(spec)
        assert {m.members for m in maximal_ideals(r)} == _maximal_by_extension(r), spec
    assert zero_quotients == []


def test_nilradical_matches_power_oracle():
    for spec in FAMILY_SPECS + ["Z/72", "GF(2)[x]/(x^4+x^2)", "GF(3)[x]/(x^3+x^2)"]:
        r = build_ring(spec)
        expected = set()
        for x in r.elements:
            acc = x
            for _ in range(r.order):
                if acc == r.zero:
                    expected.add(x)
                    break
                acc = r.mul(acc, x)
        assert nilradical(r).members == frozenset(expected)


def _naive_quotient(ring, ideal):
    """Cosets by scanning elements in order, tables by one scalar op per entry."""
    rep_of = [-1] * ring.order
    reps = []
    for x in ring.elements:
        if rep_of[x] < 0:
            for m in ideal.members:
                rep_of[ring.add(x, m)] = x
            reps.append(x)
    pos = {r: i for i, r in enumerate(reps)}
    theta = [pos[rep_of[x]] for x in ring.elements]
    add = [[theta[ring.add(a, b)] for b in reps] for a in reps]
    mul = [[theta[ring.mul(a, b)] for b in reps] for a in reps]
    return theta, add, mul, [ring.name(r) for r in reps]


def test_quotient_ring_matches_naive_coset_build():
    for spec in ("Z/12", "Z/16", "Z/36", "GF(2)[x]/(x^3+x^2)", "GF(2)[x]/(x^4)",
                 "GF(3)[x]/(x^3+x^2)", "Z/4 x GF(3)", "GF(4) x Z/4"):
        r = build_ring(spec)
        ideals = [ideal_generated_by(r, []), nilradical(r)]
        for m in maximal_ideals(r):
            ideals += power_chain(m)[1:]
        for ideal in ideals:
            quot, theta = quotient_ring(r, ideal)
            naive = _naive_quotient(r, ideal)
            got = (theta, quot._add_t.tolist(), quot._mul_t.tolist(),
                   [quot.name(i) for i in quot.elements])
            assert got == naive, (spec, ideal)
