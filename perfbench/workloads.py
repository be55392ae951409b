"""The benchmark's workloads and its seeded input generator.

Each workload is a list of CLI requests. Seed 0 runs them exactly as
listed. Any other seed keeps every ring and group up to isomorphism and
changes the labelling the algorithms see:

- ``exact-eb`` and ``davenport`` rings become ``table:`` JSON files of the
  same ring under a random element relabelling (the search order follows
  the labels);
- ``davenport`` group specs get a random factor order;
- ``structure`` moduli f(x) become f(x + c) for a random nonzero c;
- ``structure`` product specs get a random atom order;
- request order is permuted.

Pass ``k`` of a run draws its own transforms from (workload, seed, k), so a
run averages over several labellings while the same seed always gives the
same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from models import ModelRing, model_ring, render_poly, render_ring, shift_poly

# Lifts the exact search's order-24 cap; no request comes near it.
BUDGET = "100000000"

X = ("poly", 2, (0, 0, 0, 1))  # GF(2)[x]/(x^3)
F2 = ("GF", 2)


@dataclass(frozen=True)
class Request:
    """One CLI request before the seeded transforms.

    ``kind`` is ``invariants``, ``davenport``, ``crosscheck-int``,
    ``crosscheck-poly`` or ``inspect-maxideals``. Invariants requests name a
    ring (``atoms``) and say whether a seed relabels the ring or permutes its
    atoms; the others use ``factors``, ``n`` or the modulus ``f`` over GF(p).
    """
    kind: str
    atoms: tuple = ()
    exact: bool = False
    relabel: bool = True
    factors: tuple = ()
    n: int = 0
    p: int = 0
    f: tuple = ()

    def argv(self, atoms=None, factors=None, f=None, table=None) -> list[str]:
        if self.kind == "invariants":
            spec = f"table:{table}" if table else render_ring(atoms or self.atoms)
            extra = ["--exact", "--budget", BUDGET] if self.exact else []
            return ["invariants", spec, "--json", *extra]
        if self.kind == "davenport":
            return ["davenport", "x".join(f"Z{d}" for d in factors or self.factors), "--json"]
        if self.kind == "crosscheck-int":
            return ["crosscheck", "int", str(self.n)]
        poly = render_poly(f or self.f)
        if self.kind == "crosscheck-poly":
            return ["crosscheck", "poly", str(self.p), poly]
        return ["inspect", f"GF({self.p})[x]/({poly})", "maxideals"]

    @property
    def key(self) -> str:
        """Stable identifier: the seed-0 command line."""
        return " ".join(self.argv())


def _eb(*atoms):
    return Request("invariants", atoms=atoms, exact=True)


def _report(*atoms, relabel=True):
    return Request("invariants", atoms=atoms, relabel=relabel)


WORKLOADS: dict[str, list[Request]] = {
    # The exhaustive semigroup search: every idempotent is forbidden and zero
    # divisors are candidates.
    "exact-eb": [
        _eb(("Z", 40)),
        _eb(("Z", 36)),
        _eb(("Z", 27)),
        _eb(("poly", 3, (0, 0, 0, 1))),
        _eb(("Z", 2), ("Z", 16)),
    ],
    # The same search in group mode: one forbidden element, deep memo-heavy
    # sequences of up to D - 1 terms.
    "davenport": [
        _report(("poly", 2, (0, 0, 0, 0, 0, 0, 1))),
        _report(("Z", 80)),
        Request("davenport", factors=(3, 9)),
    ],
    # Large structured rings with tiny or no searched unit groups: the time
    # goes to ring construction, validation, polynomials and ideals.
    "structure": [
        Request("crosscheck-poly", p=3, f=(0, 0, 0, 0, 1, 1)),
        Request("crosscheck-int", n=1024),
        Request("crosscheck-int", n=720),
        Request("inspect-maxideals", p=2, f=(0,) * 7 + (1, 1)),
        _report(X, F2, F2, F2, F2, F2, relabel=False),
        _report(*(F2,) * 8, relabel=False),
    ],
}


@dataclass
class Generated:
    """A request as the program receives it, plus what its checks need.

    ``ring`` and ``names`` (name -> model element) are set for invariants
    requests; ``factors`` and ``f`` hold the transformed group and modulus.
    """
    source: Request
    argv: list[str]
    canonical: bool
    ring: ModelRing | None = None
    names: dict | None = None
    factors: tuple = ()
    f: tuple = ()


def generate(workload: str, requests, seed: int, pass_index: int, table_dir: str):
    """Inputs of one pass of ``requests``: the generated requests, in the
    order to issue them, and the table files they read as
    ``{path: JSON text}``, with paths under ``table_dir``."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}") if seed else None
    out, files = [], {}
    for req in requests:
        gen = Generated(req, req.argv(), True, factors=req.factors, f=req.f)
        if req.kind == "invariants":
            model = model_ring(req.atoms)
            if rng and req.relabel:
                perm = list(range(model.order))
                rng.shuffle(perm)
                model = model.relabel(perm)
                text = json.dumps({"n": model.order, "add": model.add.ravel().tolist(),
                                   "mul": model.mul.ravel().tolist()}, separators=(",", ":"))
                path = f"{table_dir}/{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
                files[path] = text
                gen.argv = req.argv(table=path)
            elif rng:
                atoms = list(req.atoms)
                rng.shuffle(atoms)
                model = model_ring(atoms)
                gen.argv = req.argv(atoms=atoms)
            gen.ring = model
            gen.names = {name: i for i, name in enumerate(model.names)}
        elif rng and req.kind == "davenport":
            factors = list(req.factors)
            rng.shuffle(factors)
            gen.factors = tuple(factors)
            gen.argv = req.argv(factors=factors)
        elif rng and req.kind in ("crosscheck-poly", "inspect-maxideals"):
            gen.f = shift_poly(req.f, rng.randrange(1, req.p), req.p)
            gen.argv = req.argv(f=gen.f)
        gen.canonical = gen.argv == req.argv()
        out.append(gen)
    if rng:
        rng.shuffle(out)
    return out, files


def digest(generated, table_dir: str) -> str:
    """SHA-256 of a pass's inputs. Table files are named by their content
    hash, so the command lines cover the tables too."""
    lines = [[a.replace(f"table:{table_dir}/", "table:") for a in g.argv] for g in generated]
    return hashlib.sha256(json.dumps(lines).encode()).hexdigest()
