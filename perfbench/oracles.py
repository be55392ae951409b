"""Correctness checks for every benchmark request.

A request whose command line is the seed-0 one must print exactly the
golden output frozen from the seed commit. A transformed request must agree
with the golden on every field that does not depend on labels. Every
request, transformed or not, is also checked against oracles that do not use
ebring: witness freeness by the model ring's own product set, the bounds
``lower_bound <= exact_I <= ghw_upper``, D(G) = 1 + sum(n_i - 1) where that
is a theorem, and factorisations against sympy.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path

import numpy as np

from models import davenport_formula, render_poly

GOLDENS = Path(__file__).with_name("goldens.json")
_MAXIDEAL = re.compile(r"^\((.*)\)  size (\d+)  index (\d+)$")


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def label_free(kind: str, stdout: str):
    """The part of a request's output that no relabelling may change."""
    if kind == "inspect-maxideals":
        return sorted(_maxideal_rows(stdout))
    doc = json.loads(stdout)
    if kind == "invariants":
        doc = dict(doc, maximal_ideals=sorted((m["size"], m["index"])
                                              for m in doc["maximal_ideals"]),
                   witness_T=len(doc["witness_T"]))
        del doc["ring"]
        return doc
    if kind == "davenport":
        return [doc["order"], doc["davenport"], len(doc["witness"])]
    factors = sorted(k for _, k in doc["factors"])
    degrees = (sorted(_degree(g) for g, _ in doc["factors"])
               if kind == "crosscheck-poly" else None)
    return [doc["big_omega"], doc["small_omega"], doc["index_sum"], doc["coincides"],
            factors, sorted(k for _, k in doc["ideal_indices"]), degrees]


def _degree(poly: str) -> int:
    return max(int(t.partition("^")[2] or 1) if "x" in t else 0 for t in poly.split("+"))


def check(gen, result: dict, goldens: dict) -> list[str]:
    """Problems with one request's result; empty when it is correct."""
    if result.get("code") != 0:
        return [f"exit code {result.get('code')}: {result.get('stderr', '').strip()[-300:]}"]
    out = result["stdout"]
    golden = goldens.get(gen.source.key)
    if golden is None:
        return [f"no golden for {gen.source.key!r}"]
    kind = gen.source.kind
    try:
        if gen.canonical:
            problems = [] if out == golden else ["stdout differs from the golden"]
        elif label_free(kind, out) != label_free(kind, golden):
            problems = ["label-free fields differ from the golden"]
        else:
            problems = []
        return problems + _ORACLES[kind](gen, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _invariants(gen, out):
    doc = json.loads(out)
    ring = gen.ring
    problems = []
    lower, exact, ghw = doc["lower_bound"], doc["exact_I"], doc["ghw_upper"]
    if gen.source.exact and exact is None:
        problems.append("exact value missing")
    if exact is not None and not lower <= exact <= ghw:
        problems.append(f"exact_I {exact} outside [{lower}, {ghw}]")
    facs = doc["unit_group"]
    d = davenport_formula(facs)
    if d is None or d != doc["davenport"]:
        problems.append(f"davenport {doc['davenport']} but the theorem gives {d} for {facs}")
    if doc["order"] != ring.order or doc["units_order"] != len(ring.units):
        problems.append("order or unit count disagrees with the model ring")
    if int(np.prod(facs)) != doc["units_order"]:
        problems.append("invariant factors do not multiply to the unit count")
    if ghw != ring.order - len(ring.idempotents) + 1:
        problems.append("ghw_upper disagrees with the model's idempotent count")
    if lower != doc["davenport"] + sum(m["index"] - 1 for m in doc["maximal_ideals"]):
        problems.append("lower_bound is not D(U) + sum(index - 1)")
    terms = [gen.names[name] for name in doc["witness_T"]]
    if len(terms) != lower - 1:
        problems.append("witness length is not lower_bound - 1")
    reach = ring.product_set(terms)
    if reach[sorted(ring.idempotents)].any():
        problems.append("witness has a subsequence with idempotent product")
    return problems


def _davenport(gen, out):
    doc = json.loads(out)
    sizes = gen.factors
    problems = []
    if doc["order"] != int(np.prod(sizes)):
        problems.append("group order disagrees with the spec")
    d = davenport_formula(sizes)
    if d is None or doc["davenport"] != d:
        problems.append(f"davenport {doc['davenport']} but the theorem gives {d}")
    weights = np.cumprod((1,) + sizes[:-1])
    order = int(np.prod(sizes))
    idx = np.arange(order)
    table = sum((((idx // w) % n)[:, None] + ((idx // w) % n)[None, :]) % n * w
                for n, w in zip(sizes, weights))
    terms = []
    for name in doc["witness"]:
        coords = [int(c) for c in name.strip("()").split(",")]
        terms.append(sum(c * w for c, w in zip(coords, weights)))
    if len(terms) != doc["davenport"] - 1:
        problems.append("witness length is not D - 1")
    reach = np.zeros(order, dtype=bool)
    for a in terms:
        moved = np.zeros(order, dtype=bool)
        moved[table[reach, a]] = True
        reach |= moved
        reach[a] = True
    if reach[0]:
        problems.append("witness has a zero-sum subsequence")
    return problems


def _crosscheck_common(doc, expected):
    problems = []
    if [(g, k) for g, k in doc["factors"]] != expected:
        problems.append(f"factors {doc['factors']} but sympy gives {expected}")
    if [(g, k) for g, k in doc["ideal_indices"]] != expected:
        problems.append("ideal indices differ from the factor multiplicities")
    big = sum(k for _, k in expected)
    if (doc["big_omega"], doc["small_omega"]) != (big, len(expected)):
        problems.append("Omega or omega disagrees with sympy")
    if doc["index_sum"] != big - len(expected) or doc["coincides"] is not True:
        problems.append("index sum does not equal Omega - omega")
    return problems


def _crosscheck_int(gen, out):
    import sympy

    expected = [(str(p), k) for p, k in sorted(sympy.factorint(gen.source.n).items())]
    return _crosscheck_common(json.loads(out), expected)


def _crosscheck_poly(gen, out):
    doc = json.loads(out)
    p = gen.source.p
    expected = sorted(sympy_factors(p, gen.f), key=lambda gk: (len(gk[0]), gk[0]))
    problems = _crosscheck_common(doc, [(render_poly(g), k) for g, k in expected])
    if doc["modulus"] != f"{render_poly(gen.f)} over GF({p})":
        problems.append("modulus is not the requested polynomial")
    return problems


def _inspect_maxideals(gen, out):
    p, deg = gen.source.p, len(gen.f) - 1
    expected = sorted((p ** (deg - len(g) + 1), k) for g, k in sympy_factors(p, gen.f))
    if sorted(_maxideal_rows(out)) != expected:
        return [f"maximal ideals (size, index) differ from sympy's {expected}"]
    return []


def _maxideal_rows(stdout):
    rows = []
    for line in stdout.splitlines():
        m = _MAXIDEAL.match(line)
        if m is None:
            raise ValueError(f"unexpected maxideals line {line!r}")
        rows.append((int(m.group(2)), int(m.group(3))))
    return rows


@lru_cache(maxsize=None)
def sympy_factors(p: int, f: tuple) -> tuple:
    """Monic irreducible factors of f over GF(p) with multiplicities, as
    ascending coefficient tuples, by sympy."""
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
    out = []
    for g, k in factors:
        coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        out.append((tuple(c * inv % p for c in coeffs), k))
    return tuple(out)


_ORACLES = {
    "invariants": _invariants,
    "davenport": _davenport,
    "crosscheck-int": _crosscheck_int,
    "crosscheck-poly": _crosscheck_poly,
    "inspect-maxideals": _inspect_maxideals,
}
