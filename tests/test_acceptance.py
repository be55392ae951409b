"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the exhaustive searches and the construction are exercised over the
whole ring family."""

import json
import random

import pytest
import sympy

from ebring import (Sequence, construct_extremal, crt_solve,
                    davenport, dedekind_crosscheck_int, dedekind_crosscheck_poly,
                    exact_eb, ideal_index, ideal_power, ideal_product,
                    idempotents, is_idempotent_product_free, make_gf,
                    maximal_ideals, product_set, synthetic_group,
                    unit_group_view)
from ebring import gfpoly
from ebring.cli import run

from conftest import FAMILY_SPECS, family_ring, naive_eb, subset_products


def _lower_bound(ring):
    maxi = maximal_ideals(ring)
    dav = davenport(unit_group_view(ring)).value
    return dav + sum(ideal_index(m) - 1 for m in maxi)


@pytest.fixture(scope="module")
def exact_values():
    return {spec: exact_eb(family_ring(spec)) for spec in FAMILY_SPECS}


@pytest.fixture(scope="module")
def lower_bounds():
    return {spec: _lower_bound(family_ring(spec)) for spec in FAMILY_SPECS}


def test_criterion_1_lower_bound_inequality(exact_values, lower_bounds):
    for spec in FAMILY_SPECS:
        assert exact_values[spec] >= lower_bounds[spec], spec
    print("PASS criterion 1: exact value >= Davenport/index lower bound on all "
          f"{len(FAMILY_SPECS)} family rings")


def test_criterion_2_equality_cases(exact_values, lower_bounds):
    checked = 0
    for spec in FAMILY_SPECS:
        ring = family_ring(spec)
        maxi = maximal_ideals(ring)
        local = len(maxi) == 1
        all_one = all(ideal_index(m) == 1 for m in maxi)
        if local or all_one:
            assert exact_values[spec] == lower_bounds[spec], spec
            checked += 1
    assert exact_values["Z/4"] == 3
    assert naive_eb(family_ring("Z/4"), limit=4) == 3
    assert exact_values["GF(5)"] == 4
    assert naive_eb(family_ring("GF(5)"), limit=5) == 4
    assert exact_values["GF(2)[x]/(x^3)"] == lower_bounds["GF(2)[x]/(x^3)"] == 6
    assert naive_eb(family_ring("GF(2)[x]/(x^3)"), limit=7) == 6
    print(f"PASS criterion 2: equality on all {checked} local/all-indices-one rings; "
          "oracle pins Z/4 -> 3, GF(5) -> 4, GF(2)[x]/(x^3) -> 6")


def test_criterion_3_integer_modulus_specialization():
    prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    squarefree = [6, 10, 14, 15]
    for n in prime_powers + squarefree:
        ring = family_ring(f"Z/{n}")
        dav = davenport(unit_group_view(ring)).value
        factors = sympy.factorint(n)
        big = sum(factors.values())
        small = len(factors)
        assert exact_eb(ring) == dav + big - small, n
    print(f"PASS criterion 3: exact = D(U) + multiplicity excess for "
          f"{len(prime_powers)} prime powers and {len(squarefree)} squarefree moduli")


def test_criterion_4_polynomial_modulus_specialization(exact_values, lower_bounds):
    for spec in ("GF(2)[x]/(x^3)", "GF(2)[x]/(x^2+x)"):
        assert exact_values[spec] == lower_bounds[spec], spec
    quotients = [s for s in FAMILY_SPECS if "[x]/" in s]
    for spec in quotients:
        trace = construct_extremal(family_ring(spec))
        assert trace.verified and trace.lower_bound == lower_bounds[spec]
    print("PASS criterion 4: equality for the prime-power and squarefree quotients; "
          f"construction certifies the bound in all {len(quotients)} polynomial quotients")


def test_criterion_5_construction_soundness(lower_bounds):
    for spec in FAMILY_SPECS:
        ring = family_ring(spec)
        trace = construct_extremal(ring)
        assert is_idempotent_product_free(trace.free_sequence), spec
        assert len(trace.free_sequence) == lower_bounds[spec] - 1, spec
        for ic in trace.per_ideal:
            prod = ring.one
            for depth, y in enumerate(ic.chosen, start=1):
                prod = ring.mul(prod, y)
                assert prod in ideal_power(ic.ideal, depth).members
                assert prod not in ideal_power(ic.ideal, depth + 1).members
            assert all(c.holds for c in ic.certificates)
    print(f"PASS criterion 5: free sequence of length lower bound - 1 with verified "
          f"depth certificates on all {len(FAMILY_SPECS)} family rings")


def test_criterion_6_factorization_coincidence():
    for n in range(2, 61):
        rec = dedekind_crosscheck_int(n)
        assert rec.index_sum == rec.big_omega - rec.small_omega, n
        factors = sympy.factorint(n)
        assert rec.big_omega == sum(factors.values()), n
        assert rec.small_omega == len(factors), n
    count = 0
    for q in (2, 3):
        base = make_gf(q)
        for deg in range(1, 5):
            for f in gfpoly.monic_polys(base, deg):
                rec = dedekind_crosscheck_poly(q, f)
                assert rec.index_sum == rec.big_omega - rec.small_omega
                count += 1
    print(f"PASS criterion 6: zero mismatches over n in [2,60] and {count} monic "
          "moduli of degree <= 4 over GF(2) and GF(3)")


def test_criterion_7_davenport_oracle():
    assert davenport(synthetic_group([])).value == 1
    for n in range(2, 11):
        assert davenport(synthetic_group([n])).value == n
    expected = {(2, 2): 3, (3, 3): 5, (2, 4): 5, (2, 2, 2): 4}
    for spec, value in expected.items():
        assert davenport(synthetic_group(list(spec))).value == value
    print("PASS criterion 7: D(Z_n) = n for n <= 10; D(2,2)=3, D(3,3)=5, "
          "D(2,4)=5, D(2,2,2)=4 by exhaustive search")


def test_criterion_8_ghw_upper_bound(exact_values):
    for spec in FAMILY_SPECS:
        ring = family_ring(spec)
        assert exact_values[spec] <= ring.order - len(idempotents(ring)) + 1, spec
    print("PASS criterion 8: exact value <= non-idempotent count + 1 everywhere")


def test_criterion_9_property_suites():
    rng = random.Random(20260810)
    ring = family_ring("Z/12")
    for _ in range(10_000):
        terms = tuple(rng.randrange(12) for _ in range(rng.randint(0, 8)))
        seq = Sequence.make(ring, terms)
        expected = subset_products(ring.mul, seq.terms) if terms else set()
        assert product_set(seq) == frozenset(expected)

    for spec in FAMILY_SPECS:
        r = family_ring(spec)
        acc = None
        for m in maximal_ideals(r):
            p = ideal_power(m, ideal_index(m))
            acc = p if acc is None else ideal_product(acc, p)
        assert acc.is_zero, spec

    for spec in ("Z/12", "GF(2)[x]/(x^3+x^2)"):
        r = family_ring(spec)
        maxi = maximal_ideals(r)
        for _ in range(500):
            moduli = [ideal_power(m, rng.randint(1, ideal_index(m))) for m in maxi]
            targets = [rng.randrange(r.order) for _ in moduli]
            x = crt_solve(r, list(zip(moduli, targets)))
            for q, a in zip(moduli, targets):
                assert r.add(x, r.neg(a)) in q.members
    print("PASS criterion 9: 10,000 product-set oracles, stationary-power products "
          "are the zero ideal, 1,000 CRT instances reduce correctly")


def test_criterion_10_deterministic_serialization(capsys, monkeypatch):
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["invariants", "Z/12", "--exact", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["invariants", "Z/12", "--exact", "--json"]) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    doc = json.loads(first)
    assert doc["witness_T"] == ["5", "7", "10"]

    # fresh interpreters with different hash seeds must also agree byte for byte;
    # they import the ebring under test, from src/ or an installed copy alike
    import os
    import subprocess
    import sys

    import ebring
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(ebring.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (import_root, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from ebring.cli import run; "
             "raise SystemExit(run(['invariants', 'Z/12', '--exact', '--json']))"],
            capture_output=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == first.encode()
    print("PASS criterion 10: byte-identical reports across runs and hash seeds")
