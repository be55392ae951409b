"""CLI stdout frozen byte for byte: ``invariants --json`` on ``FAMILY_SPECS``
plus Z/24, Z/36 and GF(3)[x]/(x^3), and ``davenport --json`` on every group
Z_a x Z_b x Z_c of at most three factors in 2..8 (nondecreasing) of order at
most 32. ``golden_cli.json`` was recorded before the group layer moved to
vectorized operations. The last six entries, ``invariants`` on Z/37, Z/41
and Z/64 and ``davenport`` on Z5 x Z7, Z5 x Z8 and Z6 x Z7, were recorded
from the exhaustive Davenport search (seconds to half a minute each) before
D(U(R)) was taken from the theorem, and pin that the theorem path keeps its
witnesses. The five after them, ``invariants`` on Z/84 and Z/168 (unit groups
Z2 x Z2 x Z6 and Z2 x Z2 x Z2 x Z6) and ``davenport`` on Z2 x Z2 x Z10,
Z2 x Z2 x Z12 and Z2 x Z2 x Z2 x Z6, were recorded from the exhaustive
Davenport search before the groups outside the theorems took their value
from the sweep. Every witness now comes from one basis rule; it kept those
bytes on all but five ``davenport`` entries (Z4 x Z6, Z2 x Z2 x Z3,
Z2 x Z2 x Z5, Z2 x Z2 x Z7 and Z2 x Z3 x Z3), whose witnesses were
recorded again, and every ``davenport`` witness is checked by the oracle.

``golden_construct.json`` freezes exit code, stdout and stderr of
``construct`` and ``construct --json`` on ``FAMILY_SPECS`` plus Z/24, Z/36
and Z/84, and of ``verify`` on ``FAMILY_SPECS`` plus Z/24. It was recorded
while the construction still carried a flag per depth certificate and
``verify`` recomputed each check, so it pins that the checks made once, where
each value is built, print the same bytes."""

import json
from itertools import combinations_with_replacement
from math import prod
from pathlib import Path

import pytest

from ebring.cli import parse_group_spec, run
from ebring.groups import synthetic_group

from conftest import FAMILY_SPECS, zero_sum_free

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
GOLDEN_CONSTRUCT = json.loads(Path(__file__).with_name("golden_construct.json").read_text())


def test_golden_covers_the_spec_lists():
    groups = [spec for r in (1, 2, 3) for spec in combinations_with_replacement(range(2, 9), r)
              if prod(spec) <= 32]
    assert [e["argv"] for e in GOLDEN] == (
        [["invariants", s, "--json"] for s in FAMILY_SPECS + ["Z/24", "Z/36", "GF(3)[x]/(x^3)"]]
        + [["davenport", " x ".join(f"Z{d}" for d in g), "--json"] for g in groups]
        + [["invariants", s, "--json"] for s in ("Z/37", "Z/41", "Z/64")]
        + [["davenport", s, "--json"] for s in ("Z5 x Z7", "Z5 x Z8", "Z6 x Z7")]
        + [["invariants", s, "--json"] for s in ("Z/84", "Z/168")]
        + [["davenport", s, "--json"] for s in ("Z2 x Z2 x Z10", "Z2 x Z2 x Z12",
                                                 "Z2 x Z2 x Z2 x Z6")])


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"][:2]))
def test_cli_stdout_matches_golden(entry, capsys):
    assert run(entry["argv"]) == 0
    assert capsys.readouterr().out == entry["stdout"]


@pytest.mark.parametrize("entry", [e for e in GOLDEN if e["argv"][0] == "davenport"],
                         ids=lambda e: e["argv"][1])
def test_golden_davenport_witness_is_zero_sum_free(entry):
    """Each frozen witness has D - 1 terms and no zero-sum subsequence, by the
    oracle, which reads the group's table and not ``product_set``."""
    doc = json.loads(entry["stdout"])
    group = synthetic_group([d for d in parse_group_spec(entry["argv"][1]) if d > 1])
    index = {group.name(i): i for i in group.elements}
    terms = [index[name] for name in doc["witness"]]
    assert len(terms) == doc["davenport"] - 1
    assert zero_sum_free(group, terms)


def test_construct_golden_covers_the_spec_lists():
    built = FAMILY_SPECS + ["Z/24", "Z/36", "Z/84"]
    assert [e["argv"] for e in GOLDEN_CONSTRUCT] == (
        [["construct", s] for s in built] + [["construct", s, "--json"] for s in built]
        + [["verify", s] for s in FAMILY_SPECS + ["Z/24"]])


@pytest.mark.parametrize("entry", GOLDEN_CONSTRUCT, ids=lambda e: " ".join(e["argv"]))
def test_construct_and_verify_match_golden(entry, capsys, monkeypatch):
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(entry["argv"]) == entry["exit"]
    assert capsys.readouterr() == (entry["stdout"], entry["stderr"])
