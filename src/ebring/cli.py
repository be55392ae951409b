"""Command-line surface: ring and group spec parsing, subcommands, human
tables and machine-readable JSON.

Ring spec grammar (whitespace insignificant):

    spec := atom ( "x" atom )*
    atom := "Z/" NAT | "GF(" NAT ")" | "GF(" NAT ")[x]/(" poly ")" | "table:" PATH
    poly := term ("+" term)* ;  term := NAT | NAT? "x" ("^" NAT)?

Polynomial coefficients are reduced modulo the field characteristic and the
polynomial must be monic after reduction. Group specs follow
"Z" NAT ("x" "Z" NAT)*.

Table ring file: a JSON document with fields ``n`` (integer), ``add`` and
``mul`` (n*n integers, row-major) and optional ``names`` (n strings).

Command lines are read against one table, ``_COMMANDS``: each subcommand's
positionals, flags, ``--budget`` and fixed choices. Options may come before,
between or after the positionals; ``--budget N`` and ``--budget=N`` are the
same, and the last one given wins; a unique prefix of a long option names it
(``--js``); ``--`` ends the options; a token that looks like a negative
number (``-1``, ``-3``) is a value. ``-h``/``--help`` prints the usage to
stdout and exits 0. A line the table refuses prints the usage and an error
naming the bad token to stderr and exits 2.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

import numpy as np

from .errors import BudgetExceeded, InternalConsistencyError, SearchRefused, SpecParseError
from .records import Record
from .rings import (FiniteRing, make_from_table, make_gf, make_poly_quotient,
                    make_product, make_zmod, idempotents, _field_prime_power)
from .ideals import ideal_index, maximal_ideals, nilradical, units
from .groups import davenport, synthetic_group
from .erdos_burgess import (InvariantReport, UNKNOWN, construct_extremal,
                            dedekind_crosscheck_int, dedekind_crosscheck_poly,
                            report)

BUDGET_ENV = "EBRING_BUDGET"


# ring spec parsing -----------------------------------------------------------

class ZmodAtom(Record):
    n: int

    def render(self):
        return f"Z/{self.n}"


class FieldAtom(Record):
    q: int

    def render(self):
        return f"GF({self.q})"


class QuotientAtom(Record):
    q: int
    coeffs: tuple[int, ...]

    def render(self):
        return f"GF({self.q})[x]/({_render_int_poly(self.coeffs)})"


class TableAtom(Record):
    path: str

    def render(self):
        return f"table:{self.path}"


class RingSpec(Record):
    atoms: tuple

    def render(self):
        return " x ".join(a.render() for a in self.atoms)


def _render_int_poly(coeffs) -> str:
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}x" if d == 1 else f"{head}x^{d}")
    return "+".join(parts) if parts else "0"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect_end(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise SpecParseError("unexpected trailing input", self.text, self.pos)

    def at_digit(self) -> bool:
        """Whether an ASCII digit is next; ``str.isdigit`` would take '²' or '٣'."""
        return self.pos < len(self.text) and self.text[self.pos] in "0123456789"

    def try_lit(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect_lit(self, lit: str, what: str):
        if not self.try_lit(lit):
            raise SpecParseError(f"expected {what}", self.text, self.pos)

    def nat(self, what: str = "a number") -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        while self.at_digit():
            self.pos += 1
        if self.pos == start:
            raise SpecParseError(f"expected {what}", self.text, start)
        return int(self.text[start:self.pos]), start


def _field_prime(q: int, text: str, pos: int) -> int:
    """The characteristic of GF(q), q read from ``text`` at ``pos``."""
    pk = _field_prime_power(q)
    if pk is None:
        raise SpecParseError(f"{q} is not a prime power", text, pos)
    return pk[0]


def _parse_poly(sc: _Scanner, char: int, too_large) -> tuple[int, ...]:
    """Coefficients of a monic polynomial over GF(char), ascending. A degree
    above 62 puts q^deg past 2^62 for every q, so it is refused, with the
    message ``too_large(deg)``, before deg + 1 coefficients are built."""
    by_degree: dict[int, int] = {}
    span_of: dict[int, int] = {}
    poly_start = sc.pos
    while True:
        sc.skip_ws()
        start = sc.pos
        coeff = None
        if sc.at_digit():
            coeff, _ = sc.nat()
        if sc.try_lit("x"):
            if sc.try_lit("^"):
                deg, _ = sc.nat("an exponent")
            else:
                deg = 1
            if coeff is None:
                coeff = 1
        else:
            if coeff is None:
                raise SpecParseError("expected a polynomial term", sc.text, start)
            deg = 0
        by_degree[deg] = (by_degree.get(deg, 0) + coeff) % char
        span_of.setdefault(deg, start)
        if not sc.try_lit("+"):
            break
    reduced = {d: c for d, c in by_degree.items() if c != 0}
    if not reduced:
        raise SpecParseError("polynomial vanishes after reduction", sc.text, poly_start)
    deg = max(reduced)
    if deg < 1:
        raise SpecParseError("modulus polynomial needs degree at least 1",
                             sc.text, span_of[0])
    if reduced[deg] != 1:
        raise SpecParseError(f"leading coefficient {reduced[deg]} is not 1 after reduction",
                             sc.text, span_of[deg])
    if deg > 62:
        raise ValueError(too_large(deg))
    return tuple(reduced.get(d, 0) for d in range(deg + 1))


def _parse_atom(sc: _Scanner):
    sc.skip_ws()
    if sc.try_lit("Z/"):
        n, _ = sc.nat("a modulus")
        return ZmodAtom(n)
    if sc.try_lit("GF("):
        q, qpos = sc.nat("a field order")
        char = _field_prime(q, sc.text, qpos)
        sc.expect_lit(")", "')'")
        if sc.try_lit("[x]/("):
            coeffs = _parse_poly(sc, char, lambda d: f"quotient order {q}^{d} exceeds 2^62")
            sc.expect_lit(")", "')' closing the modulus polynomial")
            return QuotientAtom(q, coeffs)
        return FieldAtom(q)
    if sc.try_lit("table:"):
        sc.skip_ws()
        start = sc.pos
        while sc.pos < len(sc.text) and not sc.text[sc.pos].isspace():
            sc.pos += 1
        if sc.pos == start:
            raise SpecParseError("expected a file path", sc.text, start)
        return TableAtom(sc.text[start:sc.pos])
    raise SpecParseError("expected a ring atom (Z/n, GF(q), GF(q)[x]/(...), table:PATH)",
                         sc.text, sc.pos)


def parse_ring_spec(text: str) -> RingSpec:
    sc = _Scanner(text)
    atoms = [_parse_atom(sc)]
    while sc.try_lit("x"):
        atoms.append(_parse_atom(sc))
    sc.expect_end()
    return RingSpec(tuple(atoms))


def parse_group_spec(text: str) -> list[int]:
    """Cyclic orders of a group spec; Z1 is the trivial group, Z0 is refused."""
    sc = _Scanner(text)
    factors = []
    while not factors or sc.try_lit("x"):
        sc.expect_lit("Z", "'Z'")
        d, pos = sc.nat("a cyclic order")
        if d == 0:
            raise SpecParseError("a cyclic order must be at least 1", text, pos)
        factors.append(d)
    sc.expect_end()
    return factors


def load_table_ring(path: str) -> FiniteRing:
    """Load the JSON table-ring document described in the module docstring."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"table ring file {path} nests too deeply to read") from None

    def ints(value):  # type(v) is int for every entry, so bools and floats are refused
        return isinstance(value, list) and set(map(type, value)) <= {int}

    if not (isinstance(doc, dict) and type(doc.get("n")) is int
            and ints(doc.get("add")) and ints(doc.get("mul"))):
        raise ValueError(f"table ring file {path} needs integer n and arrays add, mul "
                         "of integers")
    names = doc.get("names")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(s, str) for s in names)):
        raise ValueError(f"table ring file {path}: names must be an array of strings")
    return make_from_table(doc["n"], doc["add"], doc["mul"], names=names,
                           label=f"table:{path}")


def build_ring(spec: RingSpec | str) -> FiniteRing:
    """The product of the spec's atoms, each distinct atom built once."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec)
    built: dict[object, FiniteRing] = {}
    for atom in spec.atoms:
        if atom in built:
            continue
        if isinstance(atom, ZmodAtom):
            built[atom] = make_zmod(atom.n)
        elif isinstance(atom, FieldAtom):
            built[atom] = make_gf(atom.q)
        elif isinstance(atom, QuotientAtom):
            built[atom] = make_poly_quotient(make_gf(atom.q), atom.coeffs)
        else:
            built[atom] = load_table_ring(atom.path)
    rings = [built[atom] for atom in spec.atoms]
    if len(rings) == 1:
        return rings[0]
    return make_product(rings)


# serialization ----------------------------------------------------------------

def serialize_report(rep: InvariantReport) -> str:
    """Frozen machine-readable form; field names and order are stable."""
    doc = {
        "ring": rep.ring_label,
        "order": rep.ring_order,
        "units_order": rep.units_order,
        "unit_group": list(rep.unit_group_factors),
        "davenport": rep.davenport_of_units,
        "maximal_ideals": [
            {"generators": list(s.generators), "size": s.size, "index": s.index}
            for s in rep.maximal_ideal_summaries],
        "lower_bound": rep.lower_bound,
        "exact_I": rep.exact_value,
        "exact_is_formula_derived": rep.exact_is_formula_derived,
        "ghw_upper": rep.ghw_upper,
        "equality_case": rep.equality_case,
        "witness_T": rep.witness.names() if rep.witness is not None else None,
    }
    return json.dumps(doc, indent=2)


def _render_report(rep: InvariantReport) -> str:
    lines = [
        f"ring            {rep.ring_label}",
        f"order           {rep.ring_order}",
        f"units           {rep.units_order}  (invariant factors {list(rep.unit_group_factors)})",
        f"davenport       {rep.davenport_of_units}",
    ]
    for s in rep.maximal_ideal_summaries:
        gens = ",".join(s.generators) or "0"
        lines.append(f"maximal ideal   ({gens})  size {s.size}  index {s.index}")
    lines += [
        f"lower bound     {rep.lower_bound}",
        f"exact value     {rep.exact_value if rep.exact_value is not None else 'not computed'}"
        + ("  (formula-derived)" if rep.exact_is_formula_derived else ""),
        f"upper bound     {rep.ghw_upper}  (non-idempotent count + 1)",
        f"equality case   {rep.equality_case}",
        f"witness         {rep.witness.render() if rep.witness is not None else '-'}",
    ]
    return "\n".join(lines)


def _trace_doc(trace) -> dict:
    # construct_extremal returns only traces whose checks all passed
    return {
        "ring": trace.ring.label,
        "lower_bound": trace.lower_bound,
        "unit_witness": trace.unit_witness.names(),
        "sequence": trace.free_sequence.names(),
        "verified": True,
        "ideals": [
            {
                "generators": [trace.ring.name(g) for g in ic.ideal.generators],
                "size": ic.ideal.size,
                "index": ic.index,
                "chosen": [trace.ring.name(y) for y in ic.chosen],
                "lifted": [trace.ring.name(y) for y in ic.lifted],
                "certificates": [
                    {"depth": j, "product": trace.ring.name(p), "holds": True}
                    for j, p in enumerate(ic.products, start=1)],
            }
            for ic in trace.per_ideal],
    }


# subcommands -------------------------------------------------------------------

def _budget_from(args) -> int | None:
    """The node count of ``--budget``, else of ``$EBRING_BUDGET``, else None.
    A count is ASCII digits, as spec numbers are, with surrounding space."""
    text, source = args.budget, "--budget"
    if text is None and os.environ.get(BUDGET_ENV):
        text, source = os.environ[BUDGET_ENV], BUDGET_ENV
    if text is None:
        return None
    digits = text.strip()
    if digits.isascii() and digits.isdigit():
        return int(digits)
    negative = digits[:1] == "-" and digits[1:].isascii() and digits[1:].isdigit()
    raise ValueError(f"{source} must be a nonnegative node count, "
                     f"got {digits if negative else repr(text)}")


def _cmd_invariants(args) -> int:
    ring = build_ring(args.ring_spec)
    rep = report(ring, exact=args.exact, budget=_budget_from(args))
    print(serialize_report(rep) if args.json else _render_report(rep))
    return 0


def _cmd_construct(args) -> int:
    ring = build_ring(args.ring_spec)
    trace = construct_extremal(ring, budget=_budget_from(args))
    if args.json:
        print(json.dumps(_trace_doc(trace), indent=2))
        return 0
    print(f"ring          {trace.ring.label}")
    print(f"lower bound   {trace.lower_bound}")
    for ic in trace.per_ideal:
        gens = ",".join(trace.ring.name(g) for g in ic.ideal.generators) or "0"
        print(f"ideal ({gens})  size {ic.ideal.size}  index {ic.index}")
        if ic.chosen:
            print(f"  chosen  {','.join(trace.ring.name(y) for y in ic.chosen)}")
            print(f"  lifted  {','.join(trace.ring.name(y) for y in ic.lifted)}")
            # construct_extremal returns only traces whose checks all passed
            for j, p in enumerate(ic.products, start=1):
                print(f"  depth {j}: product {trace.ring.name(p)} ok")
    print(f"unit witness  {trace.unit_witness.render() or '-'}")
    print(f"sequence      {trace.free_sequence.render() or '-'}")
    print("verified      idempotent-product free")
    return 0


def _cmd_davenport(args) -> int:
    factors = [d for d in parse_group_spec(args.group_spec) if d > 1]
    group = synthetic_group(factors)
    result = davenport(group, budget=_budget_from(args))
    if args.json:
        print(json.dumps({
            "group": group.label,
            "order": group.order,
            "davenport": result.value,
            "witness": result.witness.names(),
        }, indent=2))
    else:
        print(f"group      {group.label}  (order {group.order})")
        print(f"davenport  {result.value}")
        print(f"witness    {result.witness.render() or '-'}")
    return 0


def _cmd_verify(args) -> int:
    """Print what the report certifies. ``report`` checks the exact value
    against both bounds and the equality case, and ``construct_extremal``
    checks the construction; a failure raises and exits 1."""
    ring = build_ring(args.ring_spec)
    rep = report(ring, exact=True, budget=_budget_from(args))
    checks = ["exact value meets the lower bound", "exact value meets the upper bound",
              "construction is idempotent-product free",
              "construction has length lower bound - 1", "depth certificates hold"]
    if rep.equality_case != UNKNOWN:
        checks.append(f"equality case '{rep.equality_case}' attained")
    for label in checks:
        print(f"ok   {label}")
    print(f"{ring.label}: exact {rep.exact_value}, lower {rep.lower_bound}, "
          f"upper {rep.ghw_upper}, case {rep.equality_case}")
    return 0


def _whole_number(text: str, what: str) -> tuple[int, int]:
    """The number that is all of ``text`` but surrounding space, and its position."""
    sc = _Scanner(text)
    number = sc.nat(what)
    sc.expect_end()
    return number


def _cmd_crosscheck(args) -> int:
    if args.kind == "int":
        if len(args.values) != 1:
            raise SpecParseError("crosscheck int needs N", " ".join(args.values), 0)
        record = dedekind_crosscheck_int(_whole_number(args.values[0], "a modulus")[0])
    else:
        if len(args.values) != 2:
            raise SpecParseError("crosscheck poly needs Q and F", " ".join(args.values), 0)
        q, qpos = _whole_number(args.values[0], "a field order")
        char = _field_prime(q, args.values[0], qpos)
        sc = _Scanner(args.values[1])
        coeffs = _parse_poly(sc, char, lambda d: "quotient order exceeds the cap")
        sc.expect_end()
        record = dedekind_crosscheck_poly(q, coeffs)
    doc = {
        "ring": record.ring_label,
        "modulus": record.modulus,
        "factors": [[p, k] for p, k in record.factors],
        "ideal_indices": [[g, k] for g, k in record.ideal_indices],
        "big_omega": record.big_omega,
        "small_omega": record.small_omega,
        "index_sum": record.index_sum,
        "coincides": record.index_sum == record.big_omega - record.small_omega,
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_inspect(args) -> int:
    ring = build_ring(args.ring_spec)
    what = args.what
    if what == "units":
        listing = sorted(units(ring))
        print(",".join(ring.name(x) for x in listing))
    elif what == "idempotents":
        listing = sorted(idempotents(ring))
        print(",".join(ring.name(x) for x in listing))
    elif what == "nilradical":
        nil = nilradical(ring)
        print(",".join(ring.name(x) for x in np.flatnonzero(nil.mask).tolist()))
    else:
        for m in maximal_ideals(ring):
            gens = ",".join(ring.name(g) for g in m.generators) or "0"
            print(f"({gens})  size {m.size}  index {ideal_index(m)}")
    return 0


# command line ---------------------------------------------------------------------

class _Command:
    """A subcommand's grammar: its positionals in order, the last taking one
    or more values with ``variadic``; ``choices``, the fixed values of some
    positionals; ``flags``, (option, help) pairs that set the attribute named
    after the option; and whether it takes ``--budget N``. The handler gets
    each one as an attribute. (A plain class: nothing compares or hashes a
    command, so it needs no ``records.Record`` base.)"""

    def __init__(self, handler, summary, positionals, flags=(), budget=False, choices=None,
                 variadic=False):
        self.handler, self.summary, self.positionals = handler, summary, positionals
        self.flags, self.budget, self.variadic = flags, budget, variadic
        self.choices = choices or {}

    def shown(self, positional) -> str:
        """A positional as usage and help show it: its name, or its choices."""
        choices = self.choices.get(positional)
        return "{" + ",".join(choices) + "}" if choices else positional


_COMMANDS = {
    "invariants": _Command(_cmd_invariants, "full invariant report for a ring", ("ring_spec",),
                           (("--exact", "run the exhaustive search"), ("--json", "")),
                           budget=True),
    "construct": _Command(_cmd_construct, "build and verify the extremal free sequence",
                          ("ring_spec",), (("--json", ""),), budget=True),
    "davenport": _Command(_cmd_davenport, "exact Davenport constant of an abelian group",
                          ("group_spec",), (("--json", ""),), budget=True),
    "verify": _Command(_cmd_verify, "exhaustive search checked against every bound",
                       ("ring_spec",), budget=True),
    "crosscheck": _Command(_cmd_crosscheck, "factorization coincidence record",
                           ("kind", "values"), choices={"kind": ("int", "poly")},
                           variadic=True),
    "inspect": _Command(_cmd_inspect, "element listings", ("ring_spec", "what"),
                        choices={"what": ("units", "idempotents", "maxideals", "nilradical")}),
}


def _usage(name) -> str:
    """The usage line of subcommand ``name``, or of the program for None."""
    if name is None:
        return f"usage: ebring [-h]\n{' ' * 14}{{{','.join(_COMMANDS)}}} ..."
    cmd = _COMMANDS[name]
    words = ["[-h]", *(f"[{flag}]" for flag, _ in cmd.flags)]
    if cmd.budget:
        words.append("[--budget BUDGET]")
    words += map(cmd.shown, cmd.positionals)
    if cmd.variadic:
        words.append(f"[{words[-1]} ...]")
    return f"usage: ebring {name} {' '.join(words)}"


def _help(name) -> str:
    """The ``-h`` text of subcommand ``name``, or of the program for None, in
    argparse's layout at 80 columns: each row's help starts two columns past
    the widest row, at column 24 at most."""
    if name is None:
        head = [_usage(None), "", "Exact invariants of finite commutative rings"]
        positional = [(2, "{" + ",".join(_COMMANDS) + "}", "")]
        positional += [(4, sub, cmd.summary) for sub, cmd in _COMMANDS.items()]
        options = []
    else:
        cmd = _COMMANDS[name]
        head = [_usage(name)]
        positional = [(2, cmd.shown(p), "") for p in cmd.positionals]
        options = [(2, flag, text) for flag, text in cmd.flags]
        if cmd.budget:
            options.append((2, "--budget BUDGET", f"search node budget (default from ${BUDGET_ENV})"))
    options.insert(0, (2, "-h, --help", "show this help message and exit"))
    column = min(max(indent + len(left) for indent, left, _ in positional + options) + 2, 24)

    def rows(entries):
        return [f"{' ' * indent}{left:<{column - indent - 2}}  {text}" if text
                else " " * indent + left for indent, left, text in entries]

    return "\n".join([*head, "", "positional arguments:", *rows(positional), "",
                      "options:", *rows(options)])


def _refuse(name, message):
    """Print the usage of ``name`` (None: the program) and ``message``; exit 2."""
    print(f"{_usage(name)}\nebring{' ' + name if name else ''}: error: {message}",
          file=sys.stderr)
    raise SystemExit(2)


def _read_option(token: str, options, name):
    """How ``token``, ahead of any ``--``, reads among ``options``: None for a
    value, else (the option it names, or None for an unknown one; the value
    after '=' or after ``-h``, or None). These are argparse's rules: a unique
    prefix names a long option, a token that looks like a negative number or
    holds a space is a value, and every other token that starts with '-' is
    an option."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    option, eq, value = token.partition("=")
    if eq and option in options:
        return option, value
    if token[1] == "-":
        matches = [o for o in options if o.startswith(option)]
        value = value if eq else None
    else:
        matches = [token[:2]] if token[:2] in options else []
        value = token[2:]
    if len(matches) > 1:
        _refuse(name, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _help_option(name, option, value):
    """``-h`` or ``--help``: print the help and exit 0. A value attached is
    refused, except that ``-hh`` is ``-h -h``."""
    if value is None or (option == "-h" and value and not value.strip("h")):
        print(_help(name))
        raise SystemExit(0)
    _refuse(name, f"argument -h/--help: ignored explicit argument {value!r}")


def _parse_command(name, tokens):
    """The attributes of subcommand ``name`` from the tokens after it, and the
    tokens no rule takes. Every token is read before any is taken, so an
    ambiguous prefix is refused even after ``-h``. A run of values between
    options fills the positionals still open, in order; a ``--`` next to a
    value that a positional takes is dropped, and any other is left over."""
    cmd = _COMMANDS[name]
    options = ["-h", "--help", *(flag for flag, _ in cmd.flags)]
    if cmd.budget:
        options.append("--budget")
    read = []
    for i, token in enumerate(tokens):
        if token == "--":
            read += ["--"] + [None] * (len(tokens) - i - 1)
            break
        read.append(_read_option(token, options, name))
    attrs = {"command": name, **{flag[2:]: False for flag, _ in cmd.flags}}
    if cmd.budget:
        attrs["budget"] = None
    wanted, extras, i = list(cmd.positionals), [], 0
    while i < len(tokens):
        if isinstance(read[i], tuple):
            (option, value), i = read[i], i + 1
            if option is None:
                extras.append(tokens[i - 1])
            elif option in ("-h", "--help"):
                _help_option(name, option, value)
            elif option != "--budget":
                if value is not None:
                    _refuse(name, f"argument {option}: ignored explicit argument {value!r}")
                attrs[option[2:]] = True
            elif value is not None:
                attrs["budget"] = value
            elif i < len(tokens) and read[i] is None:
                attrs["budget"], i = tokens[i], i + 1
            else:
                _refuse(name, "argument --budget: expected one argument")
            continue
        end = i
        while end < len(tokens) and not isinstance(read[end], tuple):
            end += 1
        while wanted and None in read[i:end]:
            first = read.index(None, i, end)
            if cmd.variadic and len(wanted) == 1:
                stop = end
            else:
                stop = first + 2 if read[first + 1:first + 2] == ["--"] else first + 1
            taken = tokens[i:stop]
            if "--" in taken:  # the first "--" among a positional's tokens is dropped
                taken.remove("--")
            key = wanted.pop(0)
            choices = cmd.choices.get(key)
            if (cmd.variadic and not wanted) or len(taken) != 1:
                attrs[key] = taken  # "-- --" leaves a single positional [], as in argparse
            elif choices is None or taken[0] in choices:
                attrs[key] = taken[0]
            else:
                _refuse(name, f"argument {key}: invalid choice: {taken[0]!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
            i = stop
        extras += tokens[i:end]
        i = end
    if wanted:
        _refuse(name, f"the following arguments are required: {', '.join(wanted)}")
    return attrs, extras


def _parse(argv):
    """The subcommand named in ``argv`` and its handler's attributes. ``-h``
    prints help and raises SystemExit(0); a refused line prints the usage and
    an error to stderr and raises SystemExit(2)."""
    extras = []
    for i, token in enumerate(argv):
        read = None if token == "--" else _read_option(token, ("-h", "--help"), None)
        if read is None:
            if token not in _COMMANDS:
                _refuse(None, f"argument command: invalid choice: {token!r} "
                              f"(choose from {', '.join(map(repr, _COMMANDS))})")
            attrs, more = _parse_command(token, argv[i + 1:])
            if extras or more:
                _refuse(token, f"unrecognized arguments: {' '.join(extras + more)}")
            return token, attrs
        if read[0] is None:
            extras.append(token)
        else:
            _help_option(None, *read)
    _refuse(None, "the following arguments are required: command")


def run(argv) -> int:
    try:
        name, attrs = _parse(list(argv))
    except SystemExit as exc:
        return exc.code
    try:
        return _COMMANDS[name].handler(SimpleNamespace(**attrs))
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc} (best free length proven: {exc.best_length}, "
              f"nodes expanded: {exc.nodes})", file=sys.stderr)
        return 3
    except (InternalConsistencyError,) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
