import gc
import random
import weakref

import pytest

from ebring import (InternalConsistencyError, build_ring, crt_solve, gfpoly,
                    ideal_generated_by, ideal_index, ideal_power, ideal_product,
                    ideals, is_field, make_gf, make_poly_quotient, make_zmod,
                    maximal_ideals, nilradical, power_chain, quotient_ring, rings,
                    unit_ideal, units)
from ebring.cli import FieldAtom, QuotientAtom, parse_ring_spec, run

from conftest import (RELABELLED, family_ring, FAMILY_SPECS, is_valid_ideal, relabel,
                      units_oracle)


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


def _check_structure(ring):
    """Units, the field test and the maximal ideals against the O(n²) unit
    scan and the maximal ideals found by extension."""
    assert {m.members for m in maximal_ideals(ring)} == _maximal_by_extension(ring), ring.label
    want = units_oracle(ring)
    assert units(ring) == want, ring.label
    assert is_field(ring) == (len(want) == ring.order - 1), ring.label


def test_maximal_ideals_take_no_quotient_by_the_zero_ideal(monkeypatch):
    """Maximal ideals, units and the field test build no quotient ring at
    all, by the zero ideal or any other, and agree with the oracles."""
    def refuse(ring, ideal):
        raise AssertionError(f"quotient of {ring.label} by {ideal.render()} built")

    monkeypatch.setattr(ideals, "quotient_ring", refuse)
    for spec in FAMILY_SPECS:
        _check_structure(build_ring(spec))


def test_structure_matches_the_oracles_under_relabelling():
    for seed in range(20):
        ring = family_ring(RELABELLED[seed % 10])
        perm = random.Random(seed).sample(range(ring.order), ring.order)
        twin = relabel(ring, perm)
        _check_structure(twin)
        assert units(twin) == {perm[x] for x in units(ring)}


def test_structure_matches_the_oracles_on_kernels(monkeypatch):
    """Every single-atom family ring built above a TABLE_CAP of 1, its
    coefficient fields built beforehand."""
    bases = {q: make_gf(q) for q in (2, 3)}
    monkeypatch.setattr(rings, "TABLE_CAP", 1)
    monkeypatch.setattr(rings, "VALIDATION_CAP", 0)
    for spec in FAMILY_SPECS:
        atoms = parse_ring_spec(spec).atoms
        if len(atoms) > 1:
            continue  # products are refused above the table cap
        (atom,) = atoms
        if isinstance(atom, QuotientAtom):
            ring = make_poly_quotient(bases[atom.q], atom.coeffs)
        elif isinstance(atom, FieldAtom):
            p, k = rings._prime_power(atom.q)
            ring = (make_zmod(p) if k == 1
                    else make_poly_quotient(bases[p], gfpoly.find_irreducible(bases[p], k)))
        else:
            ring = build_ring(spec)
        assert ring._mul_t is None, spec
        _check_structure(ring)


def test_structure_above_the_table_cap():
    ring = make_zmod(6000)
    assert ring._mul_t is None
    assert units(ring) == units_oracle(ring)
    assert not is_field(ring)
    assert [m.members for m in maximal_ideals(ring)] == [
        frozenset(range(0, 6000, p)) for p in (2, 3, 5)]
    assert is_field(make_zmod(4099))


@pytest.mark.parametrize("spec, fake", [("Z/6", (0, 1)), ("Z/12", (0, 1)),
                                        ("GF(2) x GF(2) x GF(2)", (0, 3, 7))])
def test_maximal_ideals_refuse_a_non_primitive_idempotent(monkeypatch, spec, fake):
    """Idempotents hidden from the search make a non-primitive one look
    primitive; its ideal is not maximal, and the residue-field certificate
    refuses it."""
    monkeypatch.setattr(ideals, "idempotents", lambda ring: frozenset(fake))
    with pytest.raises(InternalConsistencyError, match="non-field quotient"):
        maximal_ideals(build_ring(spec))


def test_units_refuse_a_non_unit(monkeypatch):
    """With a maximal ideal left out, its members outside the others are
    claimed as units, and the power certificate refuses them."""
    full = ideals.maximal_ideals
    monkeypatch.setattr(ideals, "maximal_ideals", lambda ring: full(ring)[:1])
    with pytest.raises(InternalConsistencyError, match="unit certificate"):
        units(make_zmod(6))


def test_invariants_certify_each_maximal_ideal_once(monkeypatch, capsys):
    """The report and the unit group share one certified list per ring."""
    calls = []
    certify = ideals._residue_field_certified

    def counted(ring, mask):
        calls.append(ring.label)
        return certify(ring, mask)

    monkeypatch.setattr(ideals, "_residue_field_certified", counted)
    assert run(["invariants", "Z/4 x GF(3) x Z/5"]) == 0
    assert "maximal ideal" in capsys.readouterr().out
    assert calls == ["Z/4 x GF(3) x Z/5"] * 3


def test_maximal_ideals_are_fresh_on_each_call():
    ring = build_ring("Z/12")
    first = maximal_ideals(ring)
    want = [(m.members, m.generators) for m in first]
    first.pop()
    first.append(unit_ideal(ring))
    second = maximal_ideals(ring)
    assert second is not first
    assert [(m.members, m.generators) for m in second] == want


def test_cached_structure_keeps_no_reference_cycle():
    """The caches hold no ideal pointing back at the ring, so the ring is
    freed by reference counting alone."""
    gc.disable()
    try:
        ring = build_ring("GF(2)[x]/(x^2) x Z/9")
        maximal_ideals(ring)
        units(ring)
        ref = weakref.ref(ring)
        del ring
        assert ref() is None
    finally:
        gc.enable()


def test_a_failed_certificate_is_not_cached(monkeypatch):
    ring = build_ring("Z/12")
    monkeypatch.setattr(ideals, "idempotents", lambda ring: frozenset((0, 1)))
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="non-field quotient"):
            maximal_ideals(ring)
    monkeypatch.undo()
    assert [m.members for m in maximal_ideals(ring)] == [
        frozenset(range(0, 12, 2)), frozenset(range(0, 12, 3))]


def test_residue_certificate_tries_doubling_blocks(monkeypatch):
    """No element of Z/16 passes for the zero ideal, whose quotient is no
    field: every block, 1, 2, 4 and 8 elements, is tried, and the answer is
    False. In GF(7) the second block holds the primitive element 3."""
    sizes = []
    power = ideals.vpower

    def spy(vmul, x, k):
        sizes.append((k, len(x)))
        return power(vmul, x, k)

    monkeypatch.setattr(ideals, "vpower", spy)
    for n, want, blocks in ((16, False, [1, 2, 4, 8]), (7, True, [1, 2])):
        ring = make_zmod(n)
        sizes.clear()
        assert ideals._residue_field_certified(ring, ideals._mask(ring, [0])) is want
        assert [size for k, size in sizes if k == n - 1] == blocks, n


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
