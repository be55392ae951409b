import random

import numpy as np
import pytest

from ebring import (AxiomViolation, FiniteRing, gfpoly, ideal_index, idempotents,
                    inverse, is_field, make_from_table, make_gf, make_poly_quotient,
                    make_product, make_zmod, maximal_ideals, nilradical,
                    units, validate_ring)
from ebring import rings
from ebring.rings import MixedRadix, _prime_power, prime_factors

from conftest import FAMILY_SPECS, exhaustive_validate, family_ring


def test_zmod_smallest_field():
    r = make_zmod(2)
    assert r.order == 2 and r.add(1, 1) == 0


def test_zmod_twelve_squares():
    r = make_zmod(12)
    assert r.mul(4, 4) == 4
    assert r.mul(9, 9) == 9


def test_zmod_rejects_trivial_modulus():
    with pytest.raises(ValueError):
        make_zmod(1)


def test_gf_prime_field_has_all_inverses():
    f = make_gf(5)
    assert is_field(f)
    assert all(inverse(f, x) is not None for x in range(1, 5))


def test_gf4_is_a_field_with_cyclic_units():
    f = make_gf(4)
    assert all(inverse(f, x) is not None for x in range(1, 4))
    orders = []
    for x in sorted(units(f)):
        k, acc = 1, x
        while acc != f.one:
            acc = f.mul(acc, x)
            k += 1
        orders.append(k)
    assert max(orders) == 3


def test_gf_rejects_non_prime_power():
    with pytest.raises(ValueError):
        make_gf(6)


def test_mixed_radix_codec_round_trips():
    for sizes in ([], [5], [2, 3], [4, 1, 3], [3, 3, 3, 3]):
        codec = MixedRadix(sizes)
        idx = np.arange(codec.order)
        dig = codec.digits(idx)
        assert dig.shape == (codec.order, len(sizes))
        assert np.array_equal(codec.encode(dig), idx)
        for x in range(codec.order):  # digit k is x // (sizes[0]···sizes[k-1]) % sizes[k]
            rest = x
            for k, d in enumerate(sizes):
                assert dig[x, k] == rest % d
                rest //= d
    assert MixedRadix([4096] * 6).order == 2 ** 72  # exact, for the callers' caps


def test_prime_power_detection():
    assert _prime_power(8) == (2, 3)
    assert _prime_power(9) == (3, 2)
    assert _prime_power(13) == (13, 1)
    assert _prime_power(12) is None
    assert _prime_power(1) is None
    assert list(prime_factors(360)) == [(2, 3), (3, 2), (5, 1)]
    assert list(prime_factors(97)) == [(97, 1)]
    assert list(prime_factors(1)) == []


def test_quotient_x_squared_unit_square():
    r = make_poly_quotient(make_gf(2), (0, 0, 1))
    one_plus_x = 3
    assert r.mul(one_plus_x, one_plus_x) == r.one
    assert sorted(units(r)) == [1, 3]
    assert sorted(idempotents(r)) == [0, 1]


def test_quotient_split_ring_idempotents():
    r = make_poly_quotient(make_gf(2), (0, 1, 1))
    assert sorted(idempotents(r)) == [0, 1, 2, 3]


def test_quotient_local_ring_of_order_27():
    from ebring import maximal_ideals
    r = make_poly_quotient(make_gf(3), (0, 0, 0, 1))
    assert r.order == 27
    nonunits = set(r.elements) - units(r)
    assert len(nonunits) == 9
    assert all(x % 3 == 0 for x in nonunits)  # multiples of x have zero constant digit
    maxi = maximal_ideals(r)
    assert len(maxi) == 1 and maxi[0].members == frozenset(nonunits)


def test_quotient_requires_field_base():
    with pytest.raises(ValueError):
        make_poly_quotient(make_zmod(4), (0, 1))


def test_quotient_requires_monic_modulus():
    with pytest.raises(ValueError):
        make_poly_quotient(make_gf(3), (0, 2))


def test_product_unit_count_is_multiplicative():
    a, b = make_zmod(4), make_gf(3)
    p = make_product([a, b])
    assert p.order == 12
    assert len(units(p)) == len(units(a)) * len(units(b))


def test_product_single_factor_relabels():
    r = make_product([make_zmod(5)])
    assert r.order == 5
    assert sorted(units(r)) == [1, 2, 3, 4]


def test_product_of_two_local_rings():
    from ebring import ideal_index, maximal_ideals
    p = make_product([make_zmod(4), make_zmod(4)])
    maxi = maximal_ideals(p)
    assert len(maxi) == 2
    assert [ideal_index(m) for m in maxi] == [2, 2]


def test_table_ring_round_trip():
    src = make_zmod(6)
    add = [[src.add(i, j) for j in range(6)] for i in range(6)]
    mul = [[src.mul(i, j) for j in range(6)] for i in range(6)]
    r = make_from_table(6, add, mul, names=[str(i) for i in range(6)])
    assert r.zero == 0 and r.one == 1
    assert sorted(units(r)) == [1, 5]


def test_table_ring_names_failed_axiom_with_witness():
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
    mul[3][2] = 1  # break commutativity
    with pytest.raises(AxiomViolation) as err:
        make_from_table(4, add, mul)
    assert "commutativity" in err.value.axiom
    assert len(err.value.witness) >= 2


def test_table_ring_rejects_out_of_range_entries():
    add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    mul = [[(i * j) % 3 for j in range(3)] for i in range(3)]
    add[0][0] = 7
    with pytest.raises(AxiomViolation):
        make_from_table(3, add, mul)


def test_table_ring_without_identity_is_rejected():
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    mul = [[0] * 4 for _ in range(4)]
    with pytest.raises(AxiomViolation) as err:
        make_from_table(4, add, mul)
    assert "identity" in err.value.axiom


def test_units_examples():
    assert sorted(units(make_zmod(12))) == [1, 5, 7, 11]
    assert sorted(units(make_gf(4))) == [1, 2, 3]


def test_idempotents_examples():
    assert sorted(idempotents(make_zmod(12))) == [0, 1, 4, 9]
    for q in (3, 5, 9):
        assert sorted(idempotents(make_gf(q))) == [0, 1]


def test_idempotents_closed_under_multiplication():
    for r in (make_zmod(12), make_zmod(30), make_poly_quotient(make_gf(2), (0, 1, 1))):
        idem = idempotents(r)
        assert all(r.mul(e, f) in idem for e in idem for f in idem)


def test_units_closed_under_product_and_inverse():
    for r in (make_zmod(16), make_gf(9), make_product([make_zmod(4), make_gf(3)])):
        u = units(r)
        assert all(r.mul(x, y) in u for x in u for y in u)
        assert all(inverse(r, x) in u for x in u)


def test_inverse_absent_for_nonunits():
    r = make_zmod(12)
    assert inverse(r, 4) is None
    assert inverse(r, 5) == 5


def test_validate_passes_for_structured_rings():
    for r in (make_zmod(7), make_gf(8), make_product([make_zmod(2), make_zmod(9)])):
        validate_ring(r)


def test_characteristic():
    assert make_zmod(12).char == 12
    assert make_gf(9).char == 3
    assert make_poly_quotient(make_gf(2), (0, 0, 1)).char == 2


def test_neg_is_additive_inverse():
    for r in (make_zmod(10), make_gf(8)):
        assert all(r.add(x, r.neg(x)) == r.zero for x in r.elements)


def test_element_names():
    r = make_gf(8)
    assert [r.name(i) for i in range(4)] == ["0", "1", "x", "x+1"]
    p = make_product([make_zmod(2), make_zmod(3)])
    assert p.name(0) == "(0,0)"
    assert p.name(p.one) == "(1,1)"


def test_mul_rows_covers_table():
    r = make_zmod(6)
    rows = r._mul_t.tolist()
    assert rows[2][3] == 0 and rows[5][5] == 1
    assert np.asarray(rows).shape == (6, 6)


def test_large_rings_fall_back_to_on_demand_ops():
    r = make_zmod(5000)
    assert r._mul_t is None
    assert r.add(4999, 1) == 0
    assert r.mul(71, 71) == 5041 % 5000
    assert r.neg(1) == 4999
    big = make_poly_quotient(make_gf(2), (1,) + (0,) * 12 + (1,))
    assert big.order == 8192
    assert big.mul(2, 2) == 4  # x * x = x^2


def _verdict(validator, ring):
    try:
        validator(ring)
    except AxiomViolation as exc:
        return exc.axiom
    return None


def _symmetric_corruptions(ring):
    n = ring.order
    return [(t, i, j, v) for t, table in enumerate((ring._add_t, ring._mul_t))
            for i in range(n) for j in range(i, n) for v in range(n) if v != table[i, j]]


def test_validator_agrees_with_exhaustive_oracle_on_corruptions():
    """Every symmetric single-entry corruption of add or mul on rings of at most
    five elements, a fixed-seed sample of them above, plus fixed-seed double
    corruptions: the generator-based validator accepts exactly when the
    O(n^3) oracle does."""
    rng = random.Random(4)
    specs = FAMILY_SPECS + ["Z/2 x Z/2", "Z/2 x GF(4)", "Z/3 x Z/3", "Z/2 x Z/2 x Z/2",
                            "Z/2 x Z/4"]
    rejected_by = set()
    cases = 0
    for spec in specs:
        ring = family_ring(spec)
        singles = _symmetric_corruptions(ring)
        picks = [[c] for c in (singles if ring.order <= 5 else rng.sample(singles, 120))]
        picks += [rng.sample(singles, 2) for _ in range(30)]
        for pick in picks:
            tables = [ring._add_t.copy(), ring._mul_t.copy()]
            for t, i, j, v in pick:
                tables[t][i, j] = tables[t][j, i] = v
            bad = FiniteRing(ring.order, ring.zero, ring.one, "corrupted", tables=tables,
                             validate=False)
            new, old = _verdict(validate_ring, bad), _verdict(exhaustive_validate, bad)
            assert (new is None) == (old is None), (spec, pick, new, old)
            rejected_by.add(new)
            cases += 1
    assert cases > 4000
    assert {"addition associativity", "multiplication associativity",
            "distributivity"} <= rejected_by


def _relabeled_gf3():
    perm = [2, 0, 1]  # element i of GF(3) becomes index perm[i]; zero is index 2
    add = [[0] * 3 for _ in range(3)]
    mul = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            add[perm[i]][perm[j]] = perm[(i + j) % 3]
            mul[perm[i]][perm[j]] = perm[i * j % 3]
    return make_from_table(3, add, mul, label="GF(3) relabeled")


def test_poly_quotient_tables_match_gfpoly():
    odd = _relabeled_gf3()
    cases = [(make_gf(2), (1, 1, 0, 0, 0, 0, 1)), (make_gf(2), (0, 0, 0, 1, 1)),
             (make_gf(3), (0, 0, 1, 1)), (make_gf(4), (0, 1, 1)), (make_gf(4), (0, 0, 0, 1)),
             (make_gf(5), (2, 0, 1)), (odd, (2, 2, 0, 0))]
    for base, f in cases:
        ring = make_poly_quotient(base, f)
        q, d = base.order, len(f) - 1

        def poly(idx):
            return gfpoly.trim(base, [idx // q ** t % q for t in range(d)])

        def index(p):
            p = list(p) + [base.zero] * (d - len(p))
            return sum(c * q ** t for t, c in enumerate(p))

        polys = [poly(i) for i in ring.elements]
        add = [[index(gfpoly.add(base, a, b)) for b in polys] for a in polys]
        mul = [[index(gfpoly.mod(base, gfpoly.mul(base, a, b), f)) for b in polys] for a in polys]
        assert ring._add_t.tolist() == add, ring.label
        assert ring._mul_t.tolist() == mul, ring.label
        assert (ring.zero, ring.one) == (index(()), index((base.one,)))


UNTABLED_CASES = [12, 16, 30, 49, (2, (0, 0, 1, 1)), (3, (0, 0, 1)), (4, (0, 1, 1)),
                  (2, (0, 0, 0, 0, 1)), (5, (1, 0, 1)), (3, (0, 1, 0, 1))]


def test_untabled_kernels_match_tables(monkeypatch):
    """Rings built above a lowered TABLE_CAP run on the constructors' kernels;
    their operations, nilradical and maximal ideals match the tabled twins."""
    bases = {q: make_gf(q) for q in (2, 3, 4, 5)}

    def build(case):
        return make_zmod(case) if isinstance(case, int) else make_poly_quotient(bases[case[0]], case[1])

    tabled = [build(case) for case in UNTABLED_CASES]
    monkeypatch.setattr(rings, "TABLE_CAP", 1)
    monkeypatch.setattr(rings, "VALIDATION_CAP", 0)
    for case, t in zip(UNTABLED_CASES, tabled):
        u = build(case)
        assert u._mul_t is None and u.label == t.label
        x = np.arange(u.order)
        assert np.array_equal(u.vadd(x[:, None], x[None, :]), t._add_t)
        assert np.array_equal(u.vmul(x[:, None], x[None, :]), t._mul_t)
        assert np.array_equal(u.vneg(x), t._neg_t)
        assert [[u.mul(i, j) for j in x[:7]] for i in x] == t._mul_t[:, :7].tolist()
        assert (u.zero, u.one, u.char) == (t.zero, t.one, t.char)
        assert units(u) == units(t) and idempotents(u) == idempotents(t)
        assert [u.name(i) for i in x] == [t.name(i) for i in x]
        nu, nt = nilradical(u), nilradical(t)
        assert (nu.members, nu.generators) == (nt.members, nt.generators)
        mu, mt = maximal_ideals(u), maximal_ideals(t)
        assert [(m.members, m.generators) for m in mu] == [(m.members, m.generators) for m in mt]
        assert [ideal_index(m) for m in mu] == [ideal_index(m) for m in mt]
