import random

from ebring import Sequence, is_idempotent_product_free, make_zmod, product_set

from conftest import subset_products


def test_empty_sequence_has_empty_product_set():
    assert product_set(Sequence(make_zmod(5), ())) == frozenset()


def test_product_set_example_mod_five():
    r = make_zmod(5)
    assert product_set(Sequence.make(r, (2, 2, 2))) == frozenset({2, 4, 3})


def test_product_set_example_mod_four():
    r = make_zmod(4)
    assert product_set(Sequence.make(r, (3, 2))) == frozenset({3, 2})


def test_free_example_mod_four():
    r = make_zmod(4)
    assert is_idempotent_product_free(Sequence.make(r, (3, 2)))


def test_zero_term_is_never_free():
    r = make_zmod(7)
    assert not is_idempotent_product_free(Sequence.make(r, (0, 3)))


def test_unit_power_reaching_one_is_not_free():
    r = make_zmod(5)
    assert not is_idempotent_product_free(Sequence.make(r, (2, 2, 2, 2)))


def test_incremental_matches_brute_force():
    rng = random.Random(1234)
    r = make_zmod(12)
    for _ in range(500):
        terms = tuple(rng.randrange(12) for _ in range(rng.randint(0, 8)))
        seq = Sequence.make(r, terms)
        expected = subset_products(r.mul, seq.terms) if terms else set()
        assert product_set(seq) == frozenset(expected)


def test_permutation_invariance():
    rng = random.Random(5)
    r = make_zmod(10)
    terms = [3, 7, 7, 2, 9]
    reference = product_set(Sequence.make(r, terms))
    for _ in range(10):
        rng.shuffle(terms)
        assert product_set(Sequence.make(r, terms)) == reference


def test_product_set_monotone_under_concat():
    r = make_zmod(12)
    seq = Sequence.make(r, (5, 7))
    for a in r.elements:
        bigger = Sequence.make(r, seq.terms + (a,))
        assert product_set(seq) <= product_set(bigger)


def test_incremental_identity_under_concat():
    r = make_zmod(12)
    seq = Sequence.make(r, (2, 5, 7))
    for a in r.elements:
        s = product_set(seq)
        assert product_set(Sequence.make(r, seq.terms + (a,))) == (
            s | {a} | {r.mul(x, a) for x in s})


def test_product_set_equals_subsequence_products():
    rng = random.Random(42)
    r = make_zmod(12)
    for _ in range(100):
        seq = Sequence.make(r, tuple(rng.randrange(12) for _ in range(rng.randint(1, 8))))
        assert product_set(seq) == frozenset(subset_products(r.mul, seq.terms))


def test_render_uses_canonical_order_and_names():
    r = make_zmod(12)
    assert Sequence.make(r, (7, 5, 10)).render() == "5,7,10"
    assert Sequence(r, ()).render() == ""
