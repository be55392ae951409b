import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ebring import (SpecParseError, build_ring, parse_group_spec, parse_ring_spec, report,
                    serialize_report, synthetic_group)
from ebring import cli, erdos_burgess, ideals, search
from ebring.cli import BUDGET_ENV, RingSpec, run

from conftest import idempotent_product_free, product_reference, zero_sum_free

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
    with pytest.raises(SpecParseError, match="unexpected trailing input") as err:
        parse_group_spec("Z2 x Z3 y")
    assert err.value.position == 8


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


def test_build_ring_builds_each_atom_once(monkeypatch, tmp_path):
    """A spec that repeats an atom builds it once and takes it as every such
    factor: the product's tables, zero, one, label and element names are
    those of the product of separately built atoms."""
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"n": 4, "add": [(i + j) % 4 for i in range(4) for j in range(4)],
                                "mul": [i * j % 4 for i in range(4) for j in range(4)],
                                "names": ["0", "1", "2", "3"]}))
    cases = [("GF(2) x Z/3 x GF(2) x GF(2)", ["GF(2)", "Z/3", "GF(2)", "GF(2)"],
              {("make_gf", (2,)): 1, ("make_zmod", (3,)): 1}),
             (f"table:{path} x Z/2 x table:{path}", [f"table:{path}", "Z/2", f"table:{path}"],
              {("load_table_ring", (str(path),)): 1, ("make_zmod", (2,)): 1})]
    factors = [[build_ring(atom) for atom in atoms] for _, atoms, _ in cases]
    calls: dict = {}
    for name in ("make_gf", "make_zmod", "load_table_ring"):
        def counted(*args, name=name, build=getattr(cli, name)):
            calls[name, args] = calls.get((name, args), 0) + 1
            return build(*args)
        monkeypatch.setattr(cli, name, counted)
    for (spec, _, expected), parts in zip(cases, factors):
        calls.clear()
        ring = build_ring(spec)
        assert calls == expected, spec
        add, mul, zero, one, names = product_reference(parts)
        assert np.array_equal(ring._add_t, add) and np.array_equal(ring._mul_t, mul), spec
        assert (ring.zero, ring.one) == (zero, one)
        assert ring.label == " x ".join(f.label for f in parts) == spec
        assert [ring.name(i) for i in ring.elements] == names


def test_table_ring_file_missing_fields(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 4}))
    with pytest.raises(ValueError):
        build_ring(f"table:{path}")


_DEEP = "[" * 100000 + "]" * 100000


def test_deeply_nested_table_file_is_refused(capsys, tmp_path):
    """A table file nested past the JSON reader's recursion limit is bad
    input, exit 2 naming the file, not a RecursionError traceback (exit 1)."""
    path = tmp_path / "deep.json"
    for text in (_DEEP, '{"n": 2, "add": ' + _DEEP + ', "mul": [0, 0, 0, 1]}'):
        path.write_text(text)
        assert run(["invariants", f"table:{path}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: table ring file {path} nests too deeply to read\n")


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
    # an internal certificate that fails is an invariant violation, exit 1
    monkeypatch.setattr(ideals, "_residue_field_certified", lambda ring, mask: False)
    assert run(["inspect", "Z/12", "maxideals"]) == 1
    assert capsys.readouterr() == (
        "", "invariant violation: candidate maximal ideal (3) has a non-field quotient\n")


def test_run_threads_validation(capsys):
    # the search is sequential; the old worker-count flag is an unknown option
    assert run(["invariants", "Z/4", "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err


# The command-line grammar, pinned as argv -> (exit code, stdout, a token that
# stderr must name). The help texts are argparse's layout at 80 columns.
_SUBCOMMANDS = ["invariants", "construct", "davenport", "verify", "crosscheck", "inspect"]
_BUDGET_HELP = "  --budget BUDGET  search node budget (default from $EBRING_BUDGET)\n"
_HELP = {
    "": ("usage: ebring [-h]\n"
         "              {invariants,construct,davenport,verify,crosscheck,inspect} ...\n\n"
         "Exact invariants of finite commutative rings\n\n"
         "positional arguments:\n"
         "  {invariants,construct,davenport,verify,crosscheck,inspect}\n"
         "    invariants          full invariant report for a ring\n"
         "    construct           build and verify the extremal free sequence\n"
         "    davenport           exact Davenport constant of an abelian group\n"
         "    verify              exhaustive search checked against every bound\n"
         "    crosscheck          factorization coincidence record\n"
         "    inspect             element listings\n\n"
         "options:\n"
         "  -h, --help            show this help message and exit\n"),
    "invariants": ("usage: ebring invariants [-h] [--exact] [--json] [--budget BUDGET] ring_spec\n\n"
                   "positional arguments:\n  ring_spec\n\n"
                   "options:\n  -h, --help       show this help message and exit\n"
                   "  --exact          run the exhaustive search\n  --json\n" + _BUDGET_HELP),
    "construct": ("usage: ebring construct [-h] [--json] [--budget BUDGET] ring_spec\n\n"
                  "positional arguments:\n  ring_spec\n\n"
                  "options:\n  -h, --help       show this help message and exit\n"
                  "  --json\n" + _BUDGET_HELP),
    "davenport": ("usage: ebring davenport [-h] [--json] [--budget BUDGET] group_spec\n\n"
                  "positional arguments:\n  group_spec\n\n"
                  "options:\n  -h, --help       show this help message and exit\n"
                  "  --json\n" + _BUDGET_HELP),
    "verify": ("usage: ebring verify [-h] [--budget BUDGET] ring_spec\n\n"
               "positional arguments:\n  ring_spec\n\n"
               "options:\n  -h, --help       show this help message and exit\n" + _BUDGET_HELP),
    "crosscheck": ("usage: ebring crosscheck [-h] {int,poly} values [values ...]\n\n"
                   "positional arguments:\n  {int,poly}\n  values\n\n"
                   "options:\n  -h, --help  show this help message and exit\n"),
    "inspect": ("usage: ebring inspect [-h] ring_spec {units,idempotents,maxideals,nilradical}\n\n"
                "positional arguments:\n  ring_spec\n  {units,idempotents,maxideals,nilradical}\n\n"
                "options:\n  -h, --help            show this help message and exit\n"),
}
_UNITS = "1,5,7,11\n"
_DAV = "group      Z2 x Z2  (order 4)\ndavenport  3\nwitness    (1,0),(0,1)\n"
_DAV_JSON = ('{\n  "group": "Z2 x Z2",\n  "order": 4,\n  "davenport": 3,\n'
             '  "witness": [\n    "(1,0)",\n    "(0,1)"\n  ]\n}\n')
_Z2_EXACT = ("ring            Z/2\norder           2\nunits           1  (invariant factors [])\n"
             "davenport       1\nmaximal ideal   (0)  size 1  index 1\nlower bound     1\n"
             "exact value     1\nupper bound     1  (non-idempotent count + 1)\n"
             "equality case   both\nwitness         \n")
_GRAMMAR = [
    # options before, between or after the positionals
    (["davenport", "Z2xZ2", "--json"], 0, _DAV_JSON, None),
    (["davenport", "--json", "Z2xZ2"], 0, _DAV_JSON, None),
    (["inspect", "Z/12", "units"], 0, _UNITS, None),
    (["invariants", "--exact", "Z/2"], 0, _Z2_EXACT, None),
    (["--json", "davenport", "Z2xZ2"], 2, "", "--json"),
    # --budget N and --budget=N, the last one given winning (0 nodes exits 3
    # where a search runs; D(Z2 x Z2) is the theorem's, so none runs there)
    (["davenport", "--budget", "9", "Z2xZ2"], 0, _DAV, None),
    (["davenport", "Z2xZ2", "--budget=9", "--json"], 0, _DAV_JSON, None),
    (["davenport", "Z2xZ2", "--budget", "0", "--budget", "9"], 0, _DAV, None),
    (["davenport", "Z2xZ2", "--budget=9", "--budget", "0"], 0, _DAV, None),
    (["invariants", "Z/2", "--exact", "--budget", "0", "--budget", "9"], 0, _Z2_EXACT, None),
    (["invariants", "Z/2", "--exact", "--budget=9", "--budget", "0"], 3, "", "exact sweep of Z/2"),
    (["davenport", "Z2xZ2", "--json", "--json"], 0, _DAV_JSON, None),
    # unique prefixes of long options
    (["davenport", "Z2xZ2", "--js"], 0, _DAV_JSON, None),
    (["davenport", "Z2xZ2", "--j", "--bud", "9"], 0, _DAV_JSON, None),
    (["davenport", "Z2xZ2", "--bud=0"], 0, _DAV, None),
    (["invariants", "Z/2", "--ex", "--bud=0"], 3, "", "exact sweep of Z/2"),
    (["invariants", "Z/2", "--ex"], 0, _Z2_EXACT, None),
    (["davenport", "Z2xZ2", "--ex"], 2, "", "--ex"),
    (["davenport", "Z2xZ2", "--=1"], 2, "", "--=1"),
    # -- ends the options
    (["davenport", "--json", "--", "Z2xZ2"], 0, _DAV_JSON, None),
    (["inspect", "--", "Z/12", "units"], 0, _UNITS, None),
    (["davenport", "--", "--json"], 2, "", "--json"),
    (["crosscheck", "int", "--", "-h"], 2, "", "'-h'"),
    (["davenport", "Z2xZ2", "--json", "--"], 2, "", "unrecognized arguments: --"),
    # values that look like negative numbers are values
    (["crosscheck", "int", "-3"], 2, "", "'-3'"),
    (["davenport", "Z2xZ2", "--budget", "-1"], 2, "", "got -1"),
    (["davenport", "Z2xZ2", "--budget=-1"], 2, "", "got -1"),
    # a missing value after --budget
    (["davenport", "Z2xZ2", "--budget"], 2, "", "--budget"),
    (["davenport", "Z2xZ2", "--budget", "--json"], 2, "", "--budget"),
    (["davenport", "Z2xZ2", "--budget", "-h"], 2, "", "--budget"),
    # unknown options, and values given to flags
    (["invariants", "Z/4", "--threads", "2"], 2, "", "--threads 2"),
    (["davenport", "Z2xZ2", "-x"], 2, "", "-x"),
    (["davenport", "Z2xZ2", "--jsonx"], 2, "", "--jsonx"),
    (["davenport", "Z2xZ2", "--json=1"], 2, "", "'1'"),
    (["--bogus"], 2, "", "command"),
    # missing or extra positionals
    ([], 2, "", "command"),
    (["invariants"], 2, "", "ring_spec"),
    (["inspect", "Z/12"], 2, "", "what"),
    (["crosscheck", "int"], 2, "", "values"),
    (["davenport", "Z2xZ2", "Z3"], 2, "", "Z3"),
    (["inspect", "Z/12", "units", "extra"], 2, "", "extra"),
    # fixed choices
    (["inspect", "Z/12", "all"], 2, "", "'all'"),
    (["crosscheck", "rational", "3"], 2, "", "'rational'"),
    (["nonsense"], 2, "", "'nonsense'"),
    (["inspect", "Z/12", "all", "-h"], 2, "", "'all'"),
    # -h and --help, on the top level and on each subcommand
    (["-h"], 0, _HELP[""], None),
    (["--help"], 0, _HELP[""], None),
    (["--he", "nonsense"], 0, _HELP[""], None),
    (["-hx"], 2, "", "'x'"),
    *[([name, "-h"], 0, _HELP[name], None) for name in _SUBCOMMANDS],
    (["davenport", "Z2xZ2", "--json", "--help"], 0, _HELP["davenport"], None),
    (["davenport", "--bogus", "-hh"], 0, _HELP["davenport"], None),
    (["inspect", "Z/12", "-h", "all"], 0, _HELP["inspect"], None),
    (["davenport", "Z2xZ2", "--help=1"], 2, "", "'1'"),
]


@pytest.mark.parametrize("argv, code, out, named", _GRAMMAR,
                         ids=[" ".join(row[0]) or "(empty)" for row in _GRAMMAR])
def test_command_line_grammar(capsys, monkeypatch, argv, code, out, named):
    """Every usage error exits 2, prints nothing on stdout and names the bad
    token on stderr."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(argv) == code
    got, err = capsys.readouterr()
    assert got == out
    if named is None:
        assert err == ""
    else:
        assert named in err


def test_entry_points_list_every_subcommand(capsys):
    """`python -m ebring.cli --help` and the `ebring` script, `main()` with
    argv `ebring --help`, exit 0 and list the six subcommands; each
    subcommand with no arguments exits 2 under its usage line."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'ebring = "ebring.cli:main"' in pyproject.read_text()
    script = "import sys\nfrom ebring.cli import main\nsys.argv = ['ebring', '--help']\nmain()\n"
    for cmd in ([sys.executable, "-m", "ebring.cli", "--help"], [sys.executable, "-c", script]):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stderr) == (0, ""), cmd
        listed = [line.split()[0] for line in proc.stdout.splitlines()
                  if line.startswith("    ") and line[4] != " "]
        assert listed == _SUBCOMMANDS
    for name in _SUBCOMMANDS:
        assert run([name]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: ebring {name} ")


# Option order does not change a command: flags shuffled among the positionals,
# long options cut to unique prefixes and --budget in either form give the
# canonical line's exit code and stdout; an unknown option or a --budget
# missing its value makes any line a usage error.
_LINES = [(["davenport", "Z2xZ2"], ["--json"]), (["inspect", "Z/12", "units"], []),
          (["crosscheck", "int", "12"], []), (["verify", "Z/6"], []),
          (["invariants", "Z/2"], ["--exact", "--json"])]


@st.composite
def _shuffled_lines(draw):
    positionals, flags = draw(st.sampled_from(_LINES))
    chosen = draw(st.lists(st.sampled_from(flags), unique=True)) if flags else []
    units = [[flag[:draw(st.integers(3, len(flag)))]] for flag in chosen]
    budget = draw(st.sampled_from([None, "9", "100000"])) if positionals[0] != "crosscheck" else None
    if budget is not None:
        option = "--budget"[:draw(st.integers(3, 8))]
        units.append(draw(st.sampled_from([[option, budget], [f"{option}={budget}"]])))
    injected = draw(st.sampled_from([None, "--bogus", "-x", "--threads", "--budget"]))
    argv = [positionals[0]]
    rest = [[p] for p in positionals[1:]]
    for unit in units:
        rest.insert(draw(st.integers(0, len(rest))), unit)
    if injected == "--budget":
        rest.append(["--budget"])
    elif injected is not None:
        rest.insert(draw(st.integers(0, len(rest))), [injected])
    canonical = positionals + [f for f in flags if f in chosen]
    canonical += ["--budget", budget] if budget is not None else []
    return argv + [t for unit in rest for t in unit], canonical, injected is not None


@settings(max_examples=150, deadline=None)
@given(_shuffled_lines())
def test_option_order_does_not_change_a_command(case):
    argv, canonical, refused = case
    results = []
    for line in (argv, canonical):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop(BUDGET_ENV, None)
            results.append((run(line), out.getvalue()))
        assert results[-1][0] in (0, 1, 2, 3), line
        assert "Traceback" not in err.getvalue(), line
    if refused:
        assert results[0] == (2, ""), argv
    else:
        assert results[0] == results[1], argv


def test_a_request_loads_neither_argparse_nor_gettext():
    """The command line is read without argparse, so a request in a fresh
    interpreter imports neither it nor gettext."""
    script = (
        "import contextlib, io, sys\n"
        "import ebring.cli\n"
        "for argv in (['invariants', 'Z/12', '--json'], ['davenport', 'Z3xZ9']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert ebring.cli.run(argv) == 0, argv\n"
        "loaded = {'argparse', 'gettext'} & set(sys.modules)\n"
        "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()


def test_budget_exhaustion_reports_nodes_on_stderr(capsys):
    # rank 3 and not a p-group, so no theorem gives D(G) and the sweep runs
    assert run(["davenport", "Z2xZ2xZ6", "--budget", "10", "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "best free length proven: " in err
    assert "nodes expanded: 10)" in err


@pytest.mark.parametrize("budget, search, best", [
    (10, "Davenport sweep of U(Z/84)", 2),
    (40, "exact sweep of Z/2 x Z/128", 2),
])
def test_budget_exhaustion_names_the_search(capsys, monkeypatch, budget, search, best):
    """Each search gets the whole budget in turn. U(Z/84) = Z2 x Z2 x Z6 lies
    outside the theorems, so 10 nodes run out in its Davenport sweep, before
    the exact sweep; U(Z/2 x Z/128) = Z2 x Z32 takes the theorem with no
    search, so 40 run out in the exact sweep. The ring is the one the
    search names."""
    ring = search.partition(" of ")[2].removeprefix("U(").removesuffix(")")
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["invariants", ring, "--exact", "--budget", str(budget)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"budget exceeded: {search}: node budget exhausted "
                   f"(best free length proven: {best}, nodes expanded: {budget})\n")


@pytest.mark.parametrize("argv, search", [
    (["invariants", "Z/12", "--exact"], "exact sweep of Z/12"),
    (["invariants", "Z/84", "--exact"], "Davenport sweep of U(Z/84)"),
    (["davenport", "Z2xZ2xZ6"], "Davenport sweep of Z2 x Z2 x Z6"),
    (["invariants", "Z/25", "--exact"], "exact sweep of Z/25"),
], ids=["invariants-Z12", "invariants-Z84", "davenport-Z2xZ2xZ6", "invariants-Z25"])
def test_zero_budget_expands_no_node(capsys, monkeypatch, argv, search):
    """``--budget 0`` is a budget of zero nodes, not the absence of one. The
    first search each run reaches stops before its first node: U(Z/12) =
    Z2 x Z2 and the cyclic U(Z/25) take D(U(R)) from the theorem with no
    search, so they stop in the exact sweep; U(Z/84) = Z2 x Z2 x Z6 stops in
    its Davenport sweep."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(argv + ["--budget", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"budget exceeded: {search}: node budget exhausted "
                   "(best free length proven: 0, nodes expanded: 0)\n")


@pytest.mark.parametrize("argv, code, err", [
    (["invariants", "Z/25", "--exact"], 3,
     "refused: ring order 25 exceeds the exact search cap 24; pass --budget to run it\n"),
    (["davenport", "Z2xZ2xZ2xZ2xZ6"], 3,
     "refused: group order 96 exceeds the search cap 64; pass --budget to run it\n"),
    (["davenport", "Z1030"], 3,
     "refused: group order 1030 exceeds the witness cap 512; pass --budget to run it\n"),
    (["invariants", "GF(1024)"], 2, "error: field order 1024 exceeds the cap 512\n"),
    (["crosscheck", "poly", "2", "x^13+x+1"], 2, "error: quotient order exceeds the cap\n"),
    (["crosscheck", "poly", "2", "x^12+x^3+1"], 0, ""),
], ids=["exact-eb", "davenport", "davenport-theorem", "field", "crosscheck-8192",
        "crosscheck-4096"])
def test_size_caps_refuse_above_and_run_at_the_cap(capsys, monkeypatch, argv, code, err):
    """Without a budget, the exact sweep takes rings of at most 24 elements,
    the Davenport sweep groups of at most 64 and the basis witness groups of
    at most 512; fields go up to 512 elements and crosscheck quotients up to
    4096."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(argv) == code
    out, got = capsys.readouterr()
    assert got == err
    assert bool(out) == (code == 0)


@pytest.mark.parametrize("cap, best, nodes", [(100, 3, 15), (10, 1, 0)], ids=["cap-100", "cap-10"])
def test_sweep_memory_cap_stops_the_run_like_a_budget(capsys, monkeypatch, cap, best, nodes):
    """The sweep holds its pending product sets within ``PENDING_CAP`` words,
    whatever the budget. Past it the run stops with exit 3, naming the sweep
    and what it proved: Z/16's first 15 product sets leave more than 100
    words pending, and its 14 singletons alone pass 10 words, a cap decided
    on the empty set's level."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    monkeypatch.setattr(search, "PENDING_CAP", cap)
    assert run(["invariants", "Z/16", "--exact"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"budget exceeded: exact sweep of Z/16: pending product sets passed the cap "
                   f"of {cap} words (best free length proven: {best}, nodes expanded: {nodes})\n")


def test_sweep_decides_its_pending_cap_before_building_tables(capsys, monkeypatch):
    """U(Z/5000) has 2000 elements. Its Davenport sweep expands the empty set
    into 1999 singletons with no step table; their level would leave about 2M
    product sets of 32 words pending. Counted from the preimage masks, that
    passes the cap before any table is built, and the run stops as it would
    after expanding: same counters, same message."""
    def no_tables(*args):
        raise AssertionError("a step table was built")

    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    monkeypatch.setattr(search, "_step_tables", no_tables)
    assert run(["invariants", "Z/5000", "--exact", "--budget", "2000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("budget exceeded: Davenport sweep of U(Z/5000): pending product sets passed "
                   "the cap of 16777216 words (best free length proven: 2, nodes expanded: 1)\n")


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
    assert run(["crosscheck", "int"]) == 2  # a usage error: values takes one or more
    capsys.readouterr()


def test_crosscheck_poly_bad_input(capsys):
    assert run(["crosscheck", "poly", "6", "x^2"]) == 2
    assert run(["crosscheck", "poly", "2", "2x^2"]) == 2
    capsys.readouterr()
    assert run(["crosscheck", "poly", "2"]) == 2
    assert capsys.readouterr().err == "error: crosscheck poly needs Q and F (at position 0: '2')\n"
    assert run(["crosscheck", "poly", "2", "x^2+1 )"]) == 2
    assert capsys.readouterr().err == "error: unexpected trailing input (at position 6: ')')\n"


@pytest.mark.parametrize("argv, err", [
    (["invariants", "Z/\u00b2"], "expected a modulus (at position 2: '\u00b2')"),
    (["invariants", "Z/\u0663"], "expected a modulus (at position 2: '\u0663')"),
    (["invariants", "GF(\u0663)"], "expected a field order (at position 3: '\u0663)')"),
    (["invariants", "GF(2)[x]/(x^\u00b2+1)"], "expected an exponent (at position 12: '\u00b2+1)')"),
    (["invariants", "GF(2)[x]/(x^2+\u0661)"], "expected a polynomial term (at position 14: '\u0661)')"),
    (["davenport", "Z\u00b2"], "expected a cyclic order (at position 1: '\u00b2')"),
    (["crosscheck", "int", "1_000"], "unexpected trailing input (at position 1: '_000')"),
    (["crosscheck", "int", "+720"], "expected a modulus (at position 0: '+720')"),
    (["crosscheck", "int", "\u0663"], "expected a modulus (at position 0: '\u0663')"),
    (["crosscheck", "int", "0x10"], "unexpected trailing input (at position 1: 'x10')"),
    (["crosscheck", "int", "abc"], "expected a modulus (at position 0: 'abc')"),
    (["crosscheck", "int", ""], "expected a modulus (at position 0: '')"),
    (["crosscheck", "int", "-3"], "expected a modulus (at position 0: '-3')"),
    (["crosscheck", "poly", "+2", "x^2"], "expected a field order (at position 0: '+2')"),
    (["crosscheck", "poly", "\u0662", "x^2"], "expected a field order (at position 0: '\u0662')"),
    (["crosscheck", "poly", "0x2", "x^2"], "unexpected trailing input (at position 1: 'x2')"),
    (["crosscheck", "poly", "", "x^2"], "expected a field order (at position 0: '')"),
    (["crosscheck", "poly", "2", "x^\u00b2+1"], "expected an exponent (at position 2: '\u00b2+1')"),
], ids=["superscript-modulus", "arabic-indic-modulus", "arabic-indic-field", "superscript-exponent",
        "arabic-indic-coefficient", "superscript-cyclic-order", "int-underscore", "int-plus",
        "int-arabic-indic", "int-hex", "int-letters", "int-empty", "int-minus", "poly-plus",
        "poly-arabic-indic", "poly-hex", "poly-empty", "poly-superscript-exponent"])
def test_numbers_are_ascii_digits_only(capsys, argv, err):
    """A number is a run of the digits 0-9 and nothing else: no sign, no
    underscore, no base prefix, no other Unicode digit. Each refusal names
    its position."""
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_crosscheck_numbers_may_be_surrounded_by_space(capsys):
    assert run(["crosscheck", "int", "12"]) == 0
    plain = capsys.readouterr()
    assert run(["crosscheck", "int", " 12 "]) == 0
    assert capsys.readouterr() == plain


def test_ring_spec_dataclass_render():
    spec = parse_ring_spec("Z/6 x GF(4)")
    assert isinstance(spec, RingSpec)
    assert spec.render() == "Z/6 x GF(4)"


def _child_env():
    """Environment for a fresh interpreter that imports the ebring under test."""
    import ebring
    import_dir = os.path.dirname(os.path.dirname(os.path.abspath(ebring.__file__)))
    pythonpath = os.pathsep.join(p for p in (import_dir, os.environ.get("PYTHONPATH")) if p)
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath}


def test_module_entry_point_runs_the_cli(capsys):
    """`python -m ebring.cli` runs the CLI once, as __main__, in a fresh
    interpreter that imports the ebring under test (as in criterion 10)."""
    argv = ["davenport", "Z2xZ4", "--json"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "ebring.cli", *argv], capture_output=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()
    assert proc.stderr == b""  # no runpy warning about a second copy of the module


def test_cli_never_imports_numpy_ma():
    """np.unique (and np.setdiff1d, which calls it) imports numpy.ma, about
    2 MiB, on first use. The exact sweep, the group-mode sweep and the
    structure code run without it, in a fresh interpreter."""
    argvs = [["invariants", "Z/12", "--exact", "--json"],
             ["davenport", "Z2 x Z2 x Z6", "--json"],
             ["crosscheck", "int", "720"]]
    script = (
        "import contextlib, io, sys\n"
        "from ebring.cli import run\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()


def test_cli_imports_no_dataclasses():
    """The package's records share one base class, so importing the CLI
    execs no generated source and leaves ``dataclasses`` unimported."""
    script = "import sys, ebring.cli\nassert 'dataclasses' not in sys.modules\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()


def test_atoms_of_different_kinds_are_different_records():
    """build_ring builds each distinct atom once, keyed by the atom record,
    so ZmodAtom(4) equal to FieldAtom(4) would build Z/4 x GF(4) as
    Z/4 x Z/4, with 4 units in place of 2 * 3."""
    assert cli.ZmodAtom(4) != cli.FieldAtom(4)
    assert cli.ZmodAtom(4) == cli.ZmodAtom(n=4)
    assert hash(cli.ZmodAtom(4)) == hash(cli.ZmodAtom(n=4))
    assert report(build_ring("Z/4 x GF(4)")).units_order == 6
    summary = erdos_burgess.MaximalIdealSummary(("x",), 4, 2)
    assert repr(summary) == "MaximalIdealSummary(generators=('x',), size=4, index=2)"


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_starts_no_blas_thread_pool(preset):
    """Importing ebring before numpy sets OPENBLAS_NUM_THREADS=1 unless the
    caller set it, so numpy's OpenBLAS starts no worker threads to spin
    through the start-up; a request then runs on the one thread it began on."""
    script = (
        "import contextlib, io, os\n"
        "from ebring.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['invariants', 'Z/12', '--exact', '--json']) == 0\n"
        "threads = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads)\n")
    env = _child_env()
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    setting, threads = proc.stdout.split()
    assert setting == (preset or "1")
    if preset is None:
        assert threads == "1"


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


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_a_failed_depth_check_exits_1(command, capsys, monkeypatch):
    """Chosen elements (4, 4, 4) in Z/16 put the first prefix product in M^2,
    not at depth 1: the construction raises, and the command exits 1 with the
    check's message and no stdout."""
    monkeypatch.setattr(erdos_burgess, "_depth_tuple", lambda ring, m, powers, k: (4,) * (k - 1))
    assert run([command, "Z/16"]) == 1
    assert capsys.readouterr() == ("", "invariant violation: a prefix depth certificate failed\n")


def test_an_exact_value_past_the_upper_bound_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(erdos_burgess, "exact_eb", lambda ring, budget=None: 16)
    assert run(["verify", "Z/16"]) == 1
    assert capsys.readouterr() == ("", "invariant violation: exact value 16 escapes [8, 15]\n")


def test_a_unit_group_past_the_table_cap_is_refused(capsys):
    """U(Z/27720) has 5,760 elements and rank above two, so D(U) needs the
    sweep and its position table; the table is refused before it is built
    (5760^2 int32 entries), as a ring's tables are past the cap."""
    assert run(["invariants", "Z/27720", "--budget", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: U(Z/27720) has 5760 elements, beyond the table cap 4096\n")


def test_huge_rings_are_refused_not_enumerated(capsys):
    assert run(["inspect", "Z/33554432", "idempotents"]) == 2
    assert "queries over every element are limited" in capsys.readouterr().err
    assert run(["inspect", "GF(2)[x]/(x^70)", "units"]) == 2
    assert "exceeds 2^62" in capsys.readouterr().err


_HUGE = "9" * 23
_PAST_ARRAY_CAP = (f"error: Z/{_HUGE} has more than 16777216 elements; "
                   "queries over every element are limited to that order\n")


def test_huge_numbers_are_refused_from_their_size():
    """Field orders past 512 are refused before trial division, moduli past
    the array cap before factoring or allocating, products before their int64
    codec, and degrees past 62 before a coefficient per degree is built: each
    command exits 2 at once, with the message of its cap."""
    cases = [
        (["invariants", "GF(2305843009213693951)"],
         "error: field order 2305843009213693951 exceeds the cap 512\n"),
        (["crosscheck", "poly", "2305843009213693951", "x^2"],
         "error: field order 2305843009213693951 exceeds the cap 512\n"),
        (["crosscheck", "int", _HUGE], _PAST_ARRAY_CAP),
        (["invariants", "GF(2)[x]/(x^99999999999999999999)"],
         "error: quotient order 2^99999999999999999999 exceeds 2^62\n"),
        (["crosscheck", "poly", "2", "x^99999999999999999999"],
         "error: quotient order exceeds the cap\n"),
        (["inspect", f"Z/{_HUGE}", "units"], _PAST_ARRAY_CAP),
        (["invariants", f"Z/{_HUGE} x Z/2"], "error: product order exceeds the cap 4096\n"),
        (["invariants", "GF(1000)"], "error: field order 1000 exceeds the cap 512\n"),
    ]
    script = (
        "import contextlib, io, json\n"
        "from ebring.cli import run\n"
        "results = []\n"
        f"for argv in {[argv for argv, _ in cases]!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        results.append([run(argv), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_child_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout)
    assert got == [[2, "", err] for _, err in cases]


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
    # a count is ASCII digits, as spec numbers are, not Python's integer syntax
    monkeypatch.delenv("EBRING_BUDGET")
    for value in ("\u0663", "1_000", "+5"):
        assert run(["construct", "Z/12", "--budget", value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --budget must be a nonnegative node count, got {value!r}\n"
        monkeypatch.setenv("EBRING_BUDGET", value)
        assert run(["construct", "Z/12"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: EBRING_BUDGET must be a nonnegative node count, got {value!r}\n"
        monkeypatch.delenv("EBRING_BUDGET")


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


@pytest.mark.parametrize("spec", ["GF(9) x GF(9)", "GF(5)[x]/(x^3)", "GF(2)[x]/(x^8)"])
def test_unit_groups_the_theorems_cover_need_no_budget(spec, capsys, monkeypatch):
    """U(R) is Z8 x Z8, Z5 x Z20 and Z2 x Z2 x Z4 x Z8 (order 128): D(U(R))
    is D* by the theorems, and its basis witness takes no search, so no
    budget is needed. The reported sequence has length lower bound - 1 and
    is idempotent-product free by the oracle."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["invariants", spec, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["davenport"] == 1 + sum(n - 1 for n in doc["unit_group"])
    ring = build_ring(spec)
    index = {ring.name(i): i for i in range(ring.order)}
    terms = [index[name] for name in doc["witness_T"]]
    assert len(terms) == doc["lower_bound"] - 1
    assert idempotent_product_free(ring, terms)


def test_theorem_groups_above_the_search_cap_need_no_budget(capsys, monkeypatch):
    """Z2 x Z34 has rank two and order 68, and ``verify`` on GF(9) x GF(9),
    of 81 elements, stops at the exact search cap once D(U(R)) is known."""
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    assert run(["davenport", "Z2xZ34", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    group = synthetic_group([2, 34])
    index = {group.name(i): i for i in group.elements}
    assert doc["davenport"] == 35 == len(doc["witness"]) + 1
    assert zero_sum_free(group, [index[name] for name in doc["witness"]])
    assert run(["verify", "GF(9) x GF(9)"]) == 3
    assert capsys.readouterr() == (
        "", "refused: ring order 81 exceeds the exact search cap 24; pass --budget to run it\n")


# CLI fuzzing over a small grammar of ring and group specs, malformed ones
# included; the atoms stay small, so each command runs in milliseconds. The
# atom "table:TABLE" names a file holding the drawn table document.
_COEFF = st.sampled_from(["", "0", "1", "2", "3"])
_TERM = st.one_of(st.integers(0, 4).map(str),
                  st.builds("{}x{}".format, _COEFF, st.sampled_from(["", "^0", "^2"])))
_POLY = st.lists(_TERM, min_size=1, max_size=3).map("+".join)
_RING_ATOM = st.one_of(
    st.integers(2, 10).map("Z/{}".format),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9]).map("GF({})".format),
    st.builds("GF({})[x]/({})".format, st.sampled_from([2, 3, 4]), _POLY),
    st.sampled_from(["table:TABLE", "Z/0", "Z/1", "Z/-3", "GF(0)", "GF(1)", "GF(6)", "GF(-2)",
                     "GF(6)[x]/(x^2)", "GF(3)[x]/(2x^2+1)", "table:/nonexistent/ring.json",
                     "table:", "Z/", "Z12", "GF(4", "Q/5", ""]))
_RING = st.lists(_RING_ATOM, min_size=1, max_size=2).map(" x ".join)
_GROUP_ATOM = st.one_of(st.integers(1, 5).map("Z{}".format),
                        st.sampled_from(["Z0", "Z-2", "Z", "Z/4", "Y3", "", f"Z{10 ** 23}"]))
_GROUP = st.lists(_GROUP_ATOM, min_size=1, max_size=3).map(" x ".join)
_BUDGET = st.one_of(st.just([]), st.integers(-1, 1000).map(lambda b: ["--budget", str(b)]))
_FLAGS = st.lists(st.sampled_from(["--exact", "--json"]), unique=True)
_ARGV = st.one_of(
    st.builds(lambda r, f, b: ["invariants", r, *f, *b], _RING, _FLAGS, _BUDGET),
    st.builds(lambda r, f, b: ["construct", r, *f, *b], _RING,
              st.sampled_from([[], ["--json"]]), _BUDGET),
    st.builds(lambda r, b: ["verify", r, *b], _RING, _BUDGET),
    st.builds(lambda r, w: ["inspect", r, w], _RING,
              st.sampled_from(["units", "idempotents", "maxideals", "nilradical", "all"])),
    st.builds(lambda g, f, b: ["davenport", g, *f, *b], _GROUP,
              st.sampled_from([[], ["--json"]]), _BUDGET),
    st.builds(lambda n: ["crosscheck", "int", n],
              st.one_of(st.integers(-3, 200).map(str), st.just("twelve"))),
    st.builds(lambda q, f: ["crosscheck", "poly", q, f],
              st.sampled_from(["0", "1", "2", "3", "4", "6", "x"]), _POLY),
)
_Z2 = {"n": 2, "add": [0, 1, 1, 0], "mul": [0, 0, 0, 1]}
_ENTRY = st.one_of(st.integers(-1, 2), st.sampled_from([0.5, True, None, "1", [0], 10 ** 30]))
_TABLE = st.one_of(  # a document, or a file's text as it stands
    st.just(_Z2),
    st.sampled_from([_DEEP, '{"n": 2, "add": ' + _DEEP + "}"]),
    st.fixed_dictionaries(
        {"n": st.one_of(st.integers(-1, 3), st.sampled_from(["2", 2.5, True, None, float("inf")]))},
        optional={"add": st.one_of(st.lists(_ENTRY, max_size=9), st.sampled_from([5, "0110"])),
                  "mul": st.one_of(st.lists(_ENTRY, max_size=9), st.sampled_from([5, "0001"])),
                  "names": st.one_of(st.lists(st.sampled_from(["a", "b", 0]), max_size=3),
                                     st.sampled_from([5, "ab"]))}))


@settings(max_examples=300)
@given(_ARGV, _TABLE)
@example(["davenport", f"Z{10 ** 23}"], _Z2)
@example(["inspect", "table:TABLE", "units"], {**_Z2, "names": 5})
@example(["inspect", "table:TABLE", "units"], {**_Z2, "names": [0, 1]})
@example(["invariants", "table:TABLE"], {**_Z2, "add": [0, 1, 1, None]})
@example(["invariants", "table:TABLE"], {**_Z2, "add": [0, 1, 1, 10 ** 30]})
@example(["invariants", "table:TABLE"], {**_Z2, "n": float("inf")})
@example(["inspect", "table:TABLE", "units"], _DEEP)
def test_cli_exits_with_a_code_on_any_spec(argv, table):
    """Every command line of the grammar ends in an exit code (0 ok, 1
    failed check, 2 bad input, 3 refused or over budget), not a traceback.
    The examples raised OverflowError, TypeError or RecursionError before."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table if isinstance(table, str) else json.dumps(table))
        argv = [a.replace("table:TABLE", f"table:{path}") for a in argv]
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.environ.pop(BUDGET_ENV, None)
            code = run(argv)
    assert code in (0, 1, 2, 3), argv
