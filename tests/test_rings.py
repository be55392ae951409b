import random

import numpy as np
import pytest

from ebring import (AxiomViolation, BudgetExceeded, FiniteRing, exact_eb, gfpoly,
                    ideal_index, idempotents, inverse, is_field, make_from_table, make_gf,
                    make_poly_quotient, make_product, make_zmod, maximal_ideals, nilradical,
                    units, validate_ring)
from ebring import erdos_burgess, rings
from ebring.cli import build_ring, run
from ebring.rings import MixedRadix, _prime_power, additive_span, prime_factors

from conftest import (FAMILY_SPECS, RELABELLED, exhaustive_validate, family_and_relabelled,
                      family_ring, light_reference, product_reference, relabel, span_reference)


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


def _product_factors():
    """Factor lists of two to four factors: the products among FAMILY_SPECS
    and RELABELLED, wider ones, products of relabelled table rings, and one
    product above VALIDATION_CAP, where no axiom check guards the tables."""
    specs = [s for s in FAMILY_SPECS + RELABELLED if " x " in s]
    specs += ["Z/2 x Z/3 x GF(4)", "GF(2) x Z/4 x Z/3 x GF(2)[x]/(x^2)",
              "GF(2) x GF(2) x GF(2) x GF(2)", "Z/16 x GF(2)[x]/(x^3) x Z/5"]
    for spec in specs:
        yield [family_ring(atom) for atom in spec.split(" x ")]
    rng = random.Random(13)
    tables = [relabel(r, rng.sample(range(r.order), r.order))
              for r in map(family_ring, ("Z/4", "GF(3)", "GF(2)[x]/(x^2)", "Z/2"))]
    for k in (2, 3, 4):
        yield tables[:k]
    yield [tables[0], family_ring("Z/5"), tables[1]]


def test_product_tables_match_the_componentwise_kernel():
    orders = []
    for factors in _product_factors():
        ring = make_product(factors)
        add, mul, zero, one, names = product_reference(factors)
        label = ring.label
        assert np.array_equal(ring._add_t, add), label
        assert np.array_equal(ring._mul_t, mul), label
        assert (ring.zero, ring.one) == (zero, one), label
        assert [ring.name(i) for i in ring.elements] == names, label
        orders.append(ring.order)
    assert max(orders) > rings.VALIDATION_CAP


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


def test_tables_are_refused_above_the_cap(monkeypatch):
    """A kernel ring above TABLE_CAP refuses its tables, and the exact sweep,
    which reads them, refuses before it starts."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(erdos_burgess, "longest_free_length", no_sweep)
    message = "Z/4097 has 4097 elements, beyond the table cap 4096"
    with pytest.raises(ValueError) as err:
        make_zmod(4097).tables()
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        exact_eb(make_zmod(4097), budget=1)
    assert str(err.value) == message


def test_zmod_tables_in_int32_match_int64_arithmetic():
    """Above VALIDATION_CAP, Z/n computes on its kernels until its tables are
    read; kernels, tables and int64 arithmetic agree on every pair."""
    # _tabulate runs the kernels on int32 indices, so every i·j within the
    # table cap must fit
    assert (rings.TABLE_CAP - 1) ** 2 < 2 ** 31
    for n in (513, 720, 1000, 1024):
        ring = make_zmod(n)
        x = np.arange(n, dtype=np.int64)
        add, mul = np.add.outer(x, x) % n, np.multiply.outer(x, x) % n

        def agrees():
            return (np.array_equal(ring.vadd(x[:, None], x), add)
                    and np.array_equal(ring.vmul(x[:, None], x), mul)
                    and np.array_equal(ring.vneg(x), -x % n))

        assert ring._add_t is None and agrees(), n
        ring_add, ring_mul = ring.tables()
        assert np.array_equal(ring_add, add), n
        assert np.array_equal(ring_mul, mul), n
        assert ring.tables()[0] is ring_add and agrees(), n


def test_structure_queries_on_zmod_build_no_table(monkeypatch, capsys):
    """crosscheck int, the maximal ideals, the units and the nilradical of
    Z/1024 run on its kernels: no table is tabulated."""
    def refuse(order, kernel):
        raise AssertionError(f"a table of order {order} was tabulated")

    monkeypatch.setattr(rings, "_tabulate", refuse)
    assert run(["crosscheck", "int", "1024"]) == 0
    assert '"index_sum": 9' in capsys.readouterr().out
    ring = make_zmod(1024)
    evens = frozenset(range(0, 1024, 2))
    assert [m.members for m in maximal_ideals(ring)] == [evens]
    assert units(ring) == frozenset(range(1, 1024, 2))
    assert nilradical(ring).members == evens
    with pytest.raises(AssertionError, match="order 1024"):
        ring.tables()


def test_readers_of_tables_tabulate_kernel_rings(monkeypatch):
    """The exact sweep, product rings and polynomial quotients read a
    kernel-backed ring's tables through ``tables`` and give what they give
    on a ring built with its tables."""
    with pytest.raises(BudgetExceeded) as exc:
        exact_eb(make_zmod(513), budget=1000)
    assert (exc.value.best_length, exc.value.nodes) == (3, 1000)
    p = make_product([make_zmod(600), make_zmod(2)])
    a, b = np.arange(1200) % 600, np.arange(1200) // 600
    add = (a[:, None] + a) % 600 + 600 * ((b[:, None] + b) % 2)
    mul = (a[:, None] * a) % 600 + 600 * ((b[:, None] * b) % 2)
    assert np.array_equal(p.tables()[0], add) and np.array_equal(p.tables()[1], mul)

    tabled = {n: make_zmod(n) for n in (3, 4, 12, 16, 18)}
    monkeypatch.setattr(rings, "VALIDATION_CAP", 0)
    kernel = {n: make_zmod(n) for n in tabled}
    assert all(r._add_t is None for r in kernel.values())
    for n in (12, 16, 18):
        assert exact_eb(kernel[n]) == exact_eb(tabled[n]), n
    for u, t in ((make_product([kernel[4], kernel[3]]), make_product([tabled[4], tabled[3]])),
                 (make_poly_quotient(kernel[3], (1, 0, 1)),
                  make_poly_quotient(tabled[3], (1, 0, 1)))):
        assert all(np.array_equal(ut, tt) for ut, tt in zip(u.tables(), t.tables())), t.label


def _verdict(validator, ring):
    try:
        validator(ring)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def _symmetric_corruptions(ring):
    n = ring.order
    return [(t, i, j, v) for t, table in enumerate((ring._add_t, ring._mul_t))
            for i in range(n) for j in range(i, n) for v in range(n) if v != table[i, j]]


def _corrupted_rings(monkeypatch):
    """(spec, corruption, ring): every symmetric single-entry corruption of add
    or mul on rings of at most five elements, a fixed-seed sample of them
    above, plus fixed-seed double corruptions. The corrupted rings are built
    under a ``VALIDATION_CAP`` of 0, so construction does not reject them."""
    rng = random.Random(4)
    specs = FAMILY_SPECS + ["Z/2 x Z/2", "Z/2 x GF(4)", "Z/3 x Z/3", "Z/2 x Z/2 x Z/2",
                            "Z/2 x Z/4"]
    sound = [(spec, family_ring(spec)) for spec in specs]
    monkeypatch.setattr(rings, "VALIDATION_CAP", 0)
    for spec, ring in sound:
        singles = _symmetric_corruptions(ring)
        picks = [[c] for c in (singles if ring.order <= 5 else rng.sample(singles, 120))]
        picks += [rng.sample(singles, 2) for _ in range(30)]
        for pick in picks:
            tables = [ring._add_t.copy(), ring._mul_t.copy()]
            for t, i, j, v in pick:
                tables[t][i, j] = tables[t][j, i] = v
            yield spec, pick, FiniteRing(ring.order, ring.zero, ring.one, "corrupted",
                                         tables=tables)


def test_validator_agrees_with_exhaustive_oracle_on_corruptions(monkeypatch):
    """On every corrupted ring the generator-based validator accepts exactly
    when the O(n^3) oracle does."""
    rejected_by = set()
    cases = 0
    for spec, pick, bad in _corrupted_rings(monkeypatch):
        new, old = _verdict(validate_ring, bad), _verdict(exhaustive_validate, bad)
        assert (new is None) == (old is None), (spec, pick, new, old)
        rejected_by.add(new and new[0])
        cases += 1
    assert cases > 4000
    assert {"addition associativity", "multiplication associativity",
            "distributivity"} <= rejected_by


def test_validator_row_gathers_keep_the_axiom_and_witness(monkeypatch):
    """On every corrupted ring the validator names the same axiom and the
    same witness tuple as Light's test indexed directly."""
    for spec, pick, bad in _corrupted_rings(monkeypatch):
        assert _verdict(validate_ring, bad) == _verdict(light_reference, bad), (spec, pick)


def _corrupt(ring, t, i, j, value, symmetric):
    """A copy of ``ring`` with entry (i, j) of its add (t = 0) or mul (t = 1)
    table set to ``value``, or to 2^16 plus the true entry if it is None, and
    entry (j, i) too if ``symmetric``; built unvalidated under the caller's
    ``VALIDATION_CAP`` of 0."""
    tables = [ring._add_t.copy(), ring._mul_t.copy()]
    value = (1 << 16) + tables[t][i, j] if value is None else value
    tables[t][i, j] = value
    if symmetric:
        tables[t][j, i] = value
    return FiniteRing(ring.order, ring.zero, ring.one, "corrupted", tables=tables)


_GF2_8 = " x ".join(["GF(2)"] * 8)


@pytest.mark.parametrize("spec, cases", [
    (_GF2_8, [((0, 255, 254, 5), "addition associativity"),
              ((1, 254, 0, 3), "multiplication associativity"),
              ((1, 44, 45, 2), "distributivity"),
              ((0, 255, 254, None), "addition closure")]),
    ("GF(2)[x]/(x^9)", [((0, 509, 510, 7), "addition associativity"),
                        ((1, 400, 0, 3), "multiplication associativity"),
                        ((0, 511, 510, 5), "distributivity"),
                        ((1, 511, 510, None), "multiplication closure")]),
])
def test_validator_keeps_the_witness_above_256_elements(monkeypatch, spec, cases):
    """Past 256 elements the uint16 copies of the tables and the flat index
    plane of distributivity (entries up to n²) still give Light's verdicts:
    one symmetric corruption per axiom class. An entry of 2^16 plus the
    true value, which a uint16 copy would wrap back to it, is still closure."""
    ring = family_ring(spec)
    monkeypatch.setattr(rings, "VALIDATION_CAP", 0)
    for (t, i, j, v), axiom in cases:
        bad = _corrupt(ring, t, i, j, v, symmetric=True)
        verdict = _verdict(validate_ring, bad)
        assert verdict == _verdict(light_reference, bad), (spec, t, i, j)
        assert verdict[0] == axiom, verdict


@pytest.mark.parametrize("spec", ["GF(3)[x]/(x^5+x^4)", _GF2_8, "GF(2)[x]/(x^9)"])
def test_validator_keeps_the_commutativity_witness(monkeypatch, spec):
    """An asymmetric single-entry corruption of add or mul is caught by the
    commutativity check on the padded uint16 copy, at a non-power-of-two
    order, at 256 and at 512 elements, with Light's witness: the first
    (x, y) in row order, whichever of (i, j) and (j, i) was changed. An
    entry of 2^16 plus the true value, symmetric on the uint16 copy, is
    still closure."""
    ring = family_ring(spec)
    n = ring.order
    rng = random.Random(n)
    monkeypatch.setattr(rings, "VALIDATION_CAP", 0)
    for t, opname in enumerate(("addition", "multiplication")):
        table = (ring._add_t, ring._mul_t)[t]
        entries = [(n - 1, n - 2), (1, n - 1)] + [tuple(rng.sample(range(n), 2)) for _ in range(3)]
        for i, j in entries:
            v = (table[i, j] + 1 + rng.randrange(n - 1)) % n
            bad = _corrupt(ring, t, i, j, int(v), symmetric=False)
            verdict = _verdict(validate_ring, bad)
            assert verdict == _verdict(light_reference, bad), (spec, t, i, j, v)
            assert verdict == (f"{opname} commutativity", (min(i, j), max(i, j))), verdict
        bad = _corrupt(ring, t, n - 1, n - 2, None, symmetric=False)
        verdict = _verdict(validate_ring, bad)
        assert verdict == _verdict(light_reference, bad)
        assert verdict == (f"{opname} closure", (n - 1, n - 2))


@pytest.mark.parametrize("corruption, axiom", [
    ((0, 18, 210, 137), "addition associativity"),
    ((1, 200, 0, 3), "multiplication associativity"),
    ((1, 242, 38, 101), "distributivity"),
    ((0, 26, 0, 145), "additive identity"),
    ((1, 1, 5, 7), "multiplicative identity"),
    ((0, 100, 173, 4), "additive inverse"),
    ((1, 242, 241, None), "multiplication closure")])
def test_validator_keeps_the_witness_at_243_elements(monkeypatch, corruption, axiom):
    """At 243 elements, where a row is not a power of two long, one symmetric
    corruption per axiom class gets Light's verdict and witness."""
    ring = family_ring("GF(3)[x]/(x^5+x^4)")
    monkeypatch.setattr(rings, "VALIDATION_CAP", 0)
    bad = _corrupt(ring, *corruption, symmetric=True)
    verdict = _verdict(validate_ring, bad)
    assert verdict == _verdict(light_reference, bad), corruption
    assert verdict[0] == axiom, verdict


@pytest.mark.parametrize("ring", [pytest.param(ring, id=label) for label, ring in family_and_relabelled()])
def test_span_matches_the_doubling_reference(ring):
    """Stopping once the step is inside the set gives the mask and the seeds
    of translating until a translate adds nothing: over all elements, and
    over all elements from each maximal ideal."""
    everything = ring.element_array()
    for within in [None] + [m.mask for m in maximal_ideals(ring)]:
        mask, used = additive_span(ring, everything, within)
        ref_mask, ref_used = span_reference(ring, everything, within)
        assert np.array_equal(mask, ref_mask) and used == ref_used


@pytest.mark.parametrize("spec, reference, translates", [
    (_GF2_8, 16, 8), ("GF(3)[x]/(x^5+x^4)", 15, 10), ("Z/2 x Z/16", 7, 5)])
def test_span_stops_without_a_translate_that_adds_nothing(spec, reference, translates):
    """Translates (``vadd`` calls with an array argument) of a span over all
    elements: one per doubling that grows the set, none to find it stopped."""
    ring = build_ring(spec)
    arrays = []
    vadd = ring.vadd

    def counting(x, y):
        arrays.append(np.ndim(x) + np.ndim(y) > 0)
        return vadd(x, y)

    ring.vadd = counting
    for span, expected in ((span_reference, reference), (additive_span, translates)):
        arrays.clear()
        span(ring, ring.element_array())
        assert sum(arrays) == expected, span


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
        assert (u.zero, u.one) == (t.zero, t.one)
        assert units(u) == units(t) and idempotents(u) == idempotents(t)
        assert [u.name(i) for i in x] == [t.name(i) for i in x]
        nu, nt = nilradical(u), nilradical(t)
        assert (nu.members, nu.generators) == (nt.members, nt.generators)
        mu, mt = maximal_ideals(u), maximal_ideals(t)
        assert [(m.members, m.generators) for m in mu] == [(m.members, m.generators) for m in mt]
        assert [ideal_index(m) for m in mu] == [ideal_index(m) for m in mt]
