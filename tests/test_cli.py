import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from ebring import SpecParseError, build_ring, parse_group_spec, parse_ring_spec, report, serialize_report
from ebring.cli import RingSpec, _build_parser, run

VALID_SPECS = (
    [f"Z/{n}" for n in range(2, 17)]
    + ["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(25)", "GF(27)"]
    + ["GF(2)[x]/(x^2)", "GF(2)[x]/(x^3)", "GF(2)[x]/(x^2+x)", "GF(2)[x]/(x^3+x^2)",
       "GF(3)[x]/(x^2)", "GF(3)[x]/(x^2+2x+1)", "GF(2)[x]/(x^4+x+1)",
       "Z/4 x GF(3)", "Z/2 x Z/2", "GF(2) x GF(3) x Z/4",
       "  Z/6   x   GF(4) ", "GF(3)[x]/(2+x^2)", "GF(2)[x]/(1+x)"]
)

INVALID_SPECS = [
    "", "Z/", "Z12", "GF(6)", "GF(4", "GF(2)[x]/()", "GF(2)[x]/(2)",
    "GF(3)[x]/(2x^2+1)", "Z/12 x", "Z/12 y GF(3)", "Z/12 GF(3)",
    "table:", "GF(2)[x]/(x^2+*)", "Z/12 trailing",
]


def test_round_trip_corpus():
    assert len(VALID_SPECS) >= 30
    for text in VALID_SPECS:
        spec = parse_ring_spec(text)
        rendered = spec.render()
        again = parse_ring_spec(rendered)
        assert again.atoms == spec.atoms, text
        assert again.render() == rendered


def test_invalid_specs_carry_positions():
    for text in INVALID_SPECS:
        with pytest.raises(SpecParseError) as err:
            parse_ring_spec(text)
        assert isinstance(err.value.position, int), text
        assert 0 <= err.value.position <= len(text)


def test_poly_coefficients_reduce_mod_char():
    spec = parse_ring_spec("GF(2)[x]/(3x^2+2x+1)")
    assert spec.atoms[0].coeffs == (1, 0, 1)


def test_poly_accepts_any_term_order():
    a = parse_ring_spec("GF(2)[x]/(x^3+x^2)")
    b = parse_ring_spec("GF(2)[x]/(x^2+x^3)")
    assert a.atoms == b.atoms


def test_leading_cancellation_changes_degree():
    spec = parse_ring_spec("GF(3)[x]/(3x^3+x^2+2)")
    assert spec.atoms[0].coeffs == (2, 0, 1)


def test_group_spec_grammar():
    assert parse_group_spec("Z2 x Z4") == [2, 4]
    assert parse_group_spec("Z12") == [12]
    with pytest.raises(SpecParseError):
        parse_group_spec("Z2 x 4")
    with pytest.raises(SpecParseError):
        parse_group_spec("A5")
    assert parse_group_spec("Z1") == [1]
    for text, pos in (("Z0", 1), ("Z0 x Z3", 1), ("Z3 x Z00", 6)):
        with pytest.raises(SpecParseError) as err:
            parse_group_spec(text)
        assert err.value.position == pos


def test_davenport_cli_rejects_order_zero(capsys):
    assert run(["davenport", "Z0 x Z3", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "a cyclic order must be at least 1" in err


def test_build_ring_product_order():
    ring = build_ring("Z/4 x GF(3)")
    assert ring.order == 12
    assert ring.label == "Z/4 x GF(3)"


def test_build_quotient_ring_order():
    assert build_ring("GF(2)[x]/(x^3+x^2)").order == 8
    assert build_ring("GF(3)[x]/(x^2)").order == 9


def test_table_ring_file(tmp_path):
    import ebring
    src = ebring.make_zmod(4)
    doc = {
        "n": 4,
        "add": [src.add(i, j) for i in range(4) for j in range(4)],
        "mul": [src.mul(i, j) for i in range(4) for j in range(4)],
        "names": ["0", "1", "2", "3"],
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    ring = build_ring(f"table:{path}")
    assert ring.order == 4
    assert sorted(ebring.units(ring)) == [1, 3]


def test_table_ring_file_missing_fields(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 4}))
    with pytest.raises(ValueError):
        build_ring(f"table:{path}")


def test_serialize_report_field_names():
    rep = report(build_ring("Z/12"), exact=True)
    doc = json.loads(serialize_report(rep))
    assert list(doc) == ["ring", "order", "units_order", "unit_group", "davenport",
                         "maximal_ideals", "lower_bound", "exact_I",
                         "exact_is_formula_derived", "ghw_upper", "equality_case",
                         "witness_T"]
    assert doc["ring"] == "Z/12"
    assert doc["unit_group"] == [2, 2]
    assert doc["maximal_ideals"] == [
        {"generators": ["2"], "size": 6, "index": 2},
        {"generators": ["3"], "size": 4, "index": 1},
    ]
    assert doc["exact_I"] == 4
    assert doc["exact_is_formula_derived"] is False
    assert doc["witness_T"] == ["5", "7", "10"]


def test_serialize_report_null_fields():
    doc = json.loads(serialize_report(report(build_ring("Z/12"))))
    assert doc["exact_I"] is None


def test_run_exit_codes(capsys, monkeypatch):
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["invariants", "Z/12", "--json"]) == 0
    assert run(["invariants", "Z/banana"]) == 2
    assert run(["invariants", "GF(6)"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["invariants", "Z/26", "--exact"]) == 3  # above the search cap
    assert run(["davenport", "Z3 x Z3"]) == 0
    assert run(["verify", "Z/6"]) == 0
    assert run(["crosscheck", "int", "12"]) == 0
    assert run(["crosscheck", "poly", "2", "x^3+x^2"]) == 0
    assert run(["inspect", "Z/12", "units"]) == 0
    assert run(["construct", "GF(2)[x]/(x^3)"]) == 0
    capsys.readouterr()


def test_run_threads_validation(capsys):
    # the search is sequential; the old worker-count flag is an unknown option
    assert run(["invariants", "Z/4", "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_budget_exhaustion_reports_nodes_on_stderr(capsys):
    # rank 3 and not a p-group, so no theorem gives D(G) and the full search runs
    assert run(["davenport", "Z2xZ2xZ6", "--budget", "10", "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "best free length proven: " in err
    assert "nodes expanded: 10)" in err


def test_parser_is_built_once_per_process(capsys):
    assert run(["inspect", "Z/12", "units"]) == 0
    parser = _build_parser()
    assert run(["inspect", "Z/12", "idempotents"]) == 0
    assert _build_parser() is parser
    assert capsys.readouterr().out == "1,5,7,11\n0,1,4,9\n"


@pytest.mark.parametrize("budget, search, best", [
    (10, "Davenport search of U(Z/2 x Z/128)", 0),
    (40, "exact sweep of Z/2 x Z/128", 2),
])
def test_budget_exhaustion_names_the_search(capsys, monkeypatch, budget, search, best):
    """Each search gets the whole budget in turn: D(U(R)) of C2 x C32 takes
    34 nodes, so 10 run out there and 40 in the exact sweep."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["invariants", "Z/2 x Z/128", "--exact", "--budget", str(budget)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"budget exceeded: {search}: node budget exhausted "
                   f"(best free length proven: {best}, nodes expanded: {budget})\n")


@pytest.mark.parametrize("argv, search", [
    (["invariants", "Z/12", "--exact"], "Davenport search of U(Z/12)"),
    (["davenport", "Z2xZ2xZ6"], "Davenport search of Z2 x Z2 x Z6"),
    (["invariants", "Z/25", "--exact"], "exact sweep of Z/25"),
], ids=["invariants-Z12", "davenport-Z2xZ2xZ6", "invariants-Z25"])
def test_zero_budget_expands_no_node(capsys, monkeypatch, argv, search):
    """``--budget 0`` is a budget of zero nodes, not the absence of one. The
    first search each run reaches stops before its first node: U(Z/25) is
    cyclic, so Z/25 takes D(U(R)) from the closed form and stops in the
    exact sweep."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(argv + ["--budget", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"budget exceeded: {search}: node budget exhausted "
                   "(best free length proven: 0, nodes expanded: 0)\n")


@pytest.mark.parametrize("argv, code, err", [
    (["invariants", "Z/25", "--exact"], 3,
     "budget exceeded: ring order 25 exceeds the exact search cap 24; pass a node budget "
     "to override (best free length proven: 0, nodes expanded: 0)\n"),
    (["davenport", "Z2xZ34"], 3,
     "budget exceeded: group order 68 exceeds the search cap 64; pass a budget to override "
     "(best free length proven: 0, nodes expanded: 0)\n"),
    (["invariants", "GF(1024)"], 2, "error: field order 1024 exceeds the cap 512\n"),
    (["crosscheck", "poly", "2", "x^13+x+1"], 2, "error: quotient order exceeds the cap\n"),
    (["crosscheck", "poly", "2", "x^12+x^3+1"], 0, ""),
], ids=["exact-eb", "davenport", "field", "crosscheck-8192", "crosscheck-4096"])
def test_size_caps_refuse_above_and_run_at_the_cap(capsys, monkeypatch, argv, code, err):
    """Without a budget, the exact sweep takes rings of at most 24 elements
    and the Davenport search groups of at most 64; fields go up to 512
    elements and crosscheck quotients up to 4096."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(argv) == code
    out, got = capsys.readouterr()
    assert got == err
    assert bool(out) == (code == 0)


def test_perfbench_layers_resolve_in_the_package():
    """perfbench's tracer wraps every function its ``LAYERS`` table names, by
    ``getattr`` on the ebring module, so a name missing from the package
    breaks every traced benchmark run. The table is read from the file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, names in tracing.LAYERS.values() for name in names
               if not callable(getattr(importlib.import_module(f"ebring.{module}"), name, None))]
    assert missing == []


def test_inspect_outputs(capsys):
    run(["inspect", "Z/12", "units"])
    assert capsys.readouterr().out.strip() == "1,5,7,11"
    run(["inspect", "Z/12", "idempotents"])
    assert capsys.readouterr().out.strip() == "0,1,4,9"
    run(["inspect", "Z/12", "nilradical"])
    assert capsys.readouterr().out.strip() == "0,6"
    run(["inspect", "Z/12", "maxideals"])
    out = capsys.readouterr().out
    assert "(2)  size 6  index 2" in out
    assert "(3)  size 4  index 1" in out


def test_davenport_cli_accepts_trivial_factors(capsys):
    assert run(["davenport", "Z1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["davenport"] == 1
    assert doc["witness"] == []


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("EBRING_BUDGET", "5")
    assert run(["invariants", "Z/13", "--exact", "--json"]) == 3
    monkeypatch.setenv("EBRING_BUDGET", "100000000")
    assert run(["invariants", "Z/13", "--exact", "--json"]) == 0
    capsys.readouterr()


def test_crosscheck_int_takes_exactly_one_modulus(capsys):
    assert run(["crosscheck", "int", "12", "13"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "crosscheck int needs N" in err
    assert run(["crosscheck", "int"]) == 2  # argparse: values needs one or more
    capsys.readouterr()


def test_crosscheck_poly_bad_input(capsys):
    assert run(["crosscheck", "poly", "6", "x^2"]) == 2
    assert run(["crosscheck", "poly", "2", "2x^2"]) == 2
    capsys.readouterr()


def test_ring_spec_dataclass_render():
    spec = parse_ring_spec("Z/6 x GF(4)")
    assert isinstance(spec, RingSpec)
    assert spec.render() == "Z/6 x GF(4)"


def test_module_entry_point_runs_the_cli(capsys):
    """`python -m ebring.cli` runs the CLI once, as __main__, in a fresh
    interpreter that imports the ebring under test (as in criterion 10)."""
    import os
    import subprocess
    import sys

    import ebring
    import_dir = os.path.dirname(os.path.dirname(os.path.abspath(ebring.__file__)))
    pythonpath = os.pathsep.join(p for p in (import_dir, os.environ.get("PYTHONPATH")) if p)
    argv = ["davenport", "Z2xZ4", "--json"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "ebring.cli", *argv], capture_output=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()
    assert proc.stderr == b""  # no runpy warning about a second copy of the module


def test_verify_builds_the_construction_once(capsys, monkeypatch):
    from ebring import cli, erdos_burgess
    calls = []
    original = erdos_burgess.construct_extremal

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "construct_extremal", counted)
    monkeypatch.setattr(erdos_burgess, "construct_extremal", counted)
    assert run(["verify", "Z/12"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "Z/12: exact 4, lower 4, upper 9, case unknown")


def test_huge_rings_are_refused_not_enumerated(capsys):
    assert run(["inspect", "Z/33554432", "idempotents"]) == 2
    assert "queries over every element are limited" in capsys.readouterr().err
    assert run(["inspect", "GF(2)[x]/(x^70)", "units"]) == 2
    assert "exceeds 2^62" in capsys.readouterr().err


def test_negative_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    for argv in (["invariants", "Z/12"], ["construct", "Z/12"], ["davenport", "Z4xZ4"],
                 ["verify", "Z/6"]):
        assert run(argv + ["--budget", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--budget must be a nonnegative node count, got -1" in err
    for value, shown in (("-5", "-5"), ("abc", "'abc'"), (" ", "' '")):
        monkeypatch.setenv("EBRING_BUDGET", value)
        assert run(["davenport", "Z4xZ4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: EBRING_BUDGET must be a nonnegative node count, got {shown}\n"


def test_construct_takes_the_budget(capsys, monkeypatch):
    # U(Z/84) = Z2 x Z2 x Z6 is outside the theorems, so its Davenport search runs
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["construct", "Z/84", "--budget", "10"]) == 3
    assert "nodes expanded: 10)" in capsys.readouterr().err
    monkeypatch.setenv("EBRING_BUDGET", "10")
    assert run(["construct", "Z/84"]) == 3
    assert "nodes expanded: 10)" in capsys.readouterr().err
    assert run(["construct", "Z/84", "--budget", "100000"]) == 0
    assert "verified      idempotent-product free" in capsys.readouterr().out


def _parse_element(name):
    """'12' -> (12,); '(3,1)' -> (3, 1)."""
    return tuple(int(c) for c in name.strip("()").split(","))


@pytest.mark.parametrize("spec, moduli", [("Z/101", (101,)), ("Z/97 x Z/2", (97, 2))])
def test_cyclic_unit_groups_above_the_search_cap(spec, moduli, capsys, monkeypatch):
    """Unit groups of order 100 and 96 are above the search cap of 64; the
    closed form certifies D = |U| with a witness that an oracle over plain
    integer tuples finds zero-sum free."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["invariants", spec, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    n = doc["units_order"]
    assert doc["unit_group"] == [n] and doc["davenport"] == n
    terms = [_parse_element(t) for t in doc["witness_T"]]
    assert len(terms) == n - 1
    one = (1,) * len(moduli)
    products = set()
    for a in terms:
        products |= {a} | {tuple(x * y % m for x, y, m in zip(s, a, moduli)) for s in products}
    assert one not in products
