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
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InternalConsistencyError, SearchRefused, SpecParseError
from .rings import (FiniteRing, make_from_table, make_gf, make_poly_quotient,
                    make_product, make_zmod, idempotents, _field_prime_power)
from .ideals import ideal_index, maximal_ideals, nilradical, units
from .groups import davenport, synthetic_group
from .sequences import is_idempotent_product_free
from .erdos_burgess import (InvariantReport, UNKNOWN, construct_extremal,
                            dedekind_crosscheck_int, dedekind_crosscheck_poly,
                            report)

BUDGET_ENV = "EBRING_BUDGET"


# ring spec parsing -----------------------------------------------------------

@dataclass(frozen=True)
class ZmodAtom:
    n: int

    def render(self):
        return f"Z/{self.n}"


@dataclass(frozen=True)
class FieldAtom:
    q: int

    def render(self):
        return f"GF({self.q})"


@dataclass(frozen=True)
class QuotientAtom:
    q: int
    coeffs: tuple[int, ...]

    def render(self):
        return f"GF({self.q})[x]/({_render_int_poly(self.coeffs)})"


@dataclass(frozen=True)
class TableAtom:
    path: str

    def render(self):
        return f"table:{self.path}"


@dataclass(frozen=True)
class RingSpec:
    atoms: tuple
    source: str

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
    return RingSpec(tuple(atoms), text)


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
        doc = json.load(fh)

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
    return {
        "ring": trace.ring.label,
        "lower_bound": trace.lower_bound,
        "unit_witness": trace.unit_witness.names(),
        "sequence": trace.free_sequence.names(),
        "verified": trace.verified,
        "ideals": [
            {
                "generators": [trace.ring.name(g) for g in ic.ideal.generators],
                "size": ic.ideal.size,
                "index": ic.index,
                "chosen": [trace.ring.name(y) for y in ic.chosen],
                "lifted": [trace.ring.name(y) for y in ic.lifted],
                "certificates": [
                    {"depth": c.depth, "product": trace.ring.name(c.product),
                     "holds": c.holds}
                    for c in ic.certificates],
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
            for c in ic.certificates:
                print(f"  depth {c.depth}: product {trace.ring.name(c.product)} "
                      f"{'ok' if c.holds else 'FAIL'}")
    print(f"unit witness  {trace.unit_witness.render() or '-'}")
    print(f"sequence      {trace.free_sequence.render() or '-'}")
    print(f"verified      {'idempotent-product free' if trace.verified else 'FAILED'}")
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
    ring = build_ring(args.ring_spec)
    budget = _budget_from(args)
    trace = construct_extremal(ring, budget=budget)
    rep = report(ring, exact=True, budget=budget, trace=trace)
    checks = [
        ("exact value meets the lower bound", rep.exact_value >= rep.lower_bound),
        ("exact value meets the upper bound", rep.exact_value <= rep.ghw_upper),
        ("construction is idempotent-product free",
         trace.verified and is_idempotent_product_free(trace.free_sequence)),
        ("construction has length lower bound - 1",
         len(trace.free_sequence) == rep.lower_bound - 1),
        ("depth certificates hold",
         all(c.holds for ic in trace.per_ideal for c in ic.certificates)),
    ]
    if rep.equality_case != UNKNOWN:
        checks.append((f"equality case '{rep.equality_case}' attained",
                       rep.exact_value == rep.lower_bound))
    ok = True
    for label, good in checks:
        print(f"{'ok  ' if good else 'FAIL'} {label}")
        ok = ok and good
    print(f"{ring.label}: exact {rep.exact_value}, lower {rep.lower_bound}, "
          f"upper {rep.ghw_upper}, case {rep.equality_case}")
    return 0 if ok else 1


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` and kept for the process."""
    top = argparse.ArgumentParser(prog="ebring",
                                  description="Exact invariants of finite commutative rings")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget", default=None,
                       help=f"search node budget (default from ${BUDGET_ENV})")

    p = sub.add_parser("invariants", help="full invariant report for a ring")
    p.add_argument("ring_spec")
    p.add_argument("--exact", action="store_true", help="run the exhaustive search")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("construct", help="build and verify the extremal free sequence")
    p.add_argument("ring_spec")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("davenport", help="exact Davenport constant of an abelian group")
    p.add_argument("group_spec")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_davenport)

    p = sub.add_parser("verify", help="exhaustive search checked against every bound")
    p.add_argument("ring_spec")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("crosscheck", help="factorization coincidence record")
    p.add_argument("kind", choices=["int", "poly"])
    p.add_argument("values", nargs="+")
    p.set_defaults(fn=_cmd_crosscheck)

    p = sub.add_parser("inspect", help="element listings")
    p.add_argument("ring_spec")
    p.add_argument("what", choices=["units", "idempotents", "maxideals", "nilradical"])
    p.set_defaults(fn=_cmd_inspect)

    return top


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchRefused as exc:
        print(f"refused: {exc}; pass --budget to run it", file=sys.stderr)
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
