"""CLI stdout frozen byte for byte: ``invariants --json`` on ``FAMILY_SPECS``
plus Z/24, Z/36 and GF(3)[x]/(x^3), and ``davenport --json`` on every group
Z_a x Z_b x Z_c of at most three factors in 2..8 (nondecreasing) of order at
most 32. ``golden_cli.json`` was recorded before the group layer moved to
vectorized operations. The last six entries, ``invariants`` on Z/37, Z/41
and Z/64 and ``davenport`` on Z5 x Z7, Z5 x Z8 and Z6 x Z7, were recorded
from the exhaustive Davenport search (seconds to half a minute each) before
D(U(R)) was taken from the theorem, and pin that the theorem path keeps its
witnesses."""

import json
from itertools import combinations_with_replacement
from math import prod
from pathlib import Path

import pytest

from ebring.cli import run

from conftest import FAMILY_SPECS

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def test_golden_covers_the_spec_lists():
    groups = [spec for r in (1, 2, 3) for spec in combinations_with_replacement(range(2, 9), r)
              if prod(spec) <= 32]
    assert [e["argv"] for e in GOLDEN] == (
        [["invariants", s, "--json"] for s in FAMILY_SPECS + ["Z/24", "Z/36", "GF(3)[x]/(x^3)"]]
        + [["davenport", " x ".join(f"Z{d}" for d in g), "--json"] for g in groups]
        + [["invariants", s, "--json"] for s in ("Z/37", "Z/41", "Z/64")]
        + [["davenport", s, "--json"] for s in ("Z5 x Z7", "Z5 x Z8", "Z6 x Z7")])


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"][:2]))
def test_cli_stdout_matches_golden(entry, capsys):
    assert run(entry["argv"]) == 0
    assert capsys.readouterr().out == entry["stdout"]
