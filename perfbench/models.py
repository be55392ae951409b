"""Ring and polynomial models built without ebring.

The benchmark uses them twice: to generate relabelled ``table:`` inputs, and
as oracles that check the program's answers. Element names follow the
program's documented spellings (``Z/n`` residues as integers, polynomial
residues in sparse descending form such as ``x^2+1``, product elements as
``(a,b,...)``) so that a witness printed by the program can be mapped back
to a model element.

A ring spec is a tuple of atoms: ``("Z", n)``, ``("GF", p)`` for a prime
``p``, or ``("poly", p, f)`` for ``GF(p)[x]/(f)`` with ``f`` a monic
coefficient tuple in ascending degree.
"""

from __future__ import annotations

import numpy as np


def render_poly(coeffs) -> str:
    """Sparse descending form of an integer coefficient tuple: ``x^3+2x+1``."""
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


def shift_poly(f, c: int, p: int) -> tuple[int, ...]:
    """f(x + c) over GF(p), by Horner's rule."""
    out: list[int] = []
    for a in reversed(f):
        # out = out * (x + c) + a
        nxt = [0] * (len(out) + 1)
        for e, b in enumerate(out):
            nxt[e + 1] = (nxt[e + 1] + b) % p
            nxt[e] = (nxt[e] + b * c) % p
        nxt[0] = (nxt[0] + a) % p
        out = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def render_atom(atom) -> str:
    if atom[0] == "Z":
        return f"Z/{atom[1]}"
    if atom[0] == "GF":
        return f"GF({atom[1]})"
    return f"GF({atom[1]})[x]/({render_poly(atom[2])})"


def render_ring(atoms) -> str:
    return " x ".join(render_atom(a) for a in atoms)


class ModelRing:
    """Operation tables and element names of a finite commutative ring."""

    def __init__(self, add, mul, names):
        self.add = np.asarray(add, dtype=np.int64)
        self.mul = np.asarray(mul, dtype=np.int64)
        self.names = list(names)
        self.order = len(self.names)
        rng = np.arange(self.order)
        self.one = int(np.flatnonzero((self.mul == rng).all(axis=1))[0])
        self.units = frozenset(int(i) for i in np.flatnonzero((self.mul == self.one).any(axis=1)))
        self.idempotents = frozenset(int(i) for i in np.flatnonzero(self.mul.diagonal() == rng))

    def product_set(self, terms) -> np.ndarray:
        """Boolean mask of all nonempty subsequence products of ``terms``."""
        reach = np.zeros(self.order, dtype=bool)
        for a in terms:
            moved = np.zeros(self.order, dtype=bool)
            moved[self.mul[reach, a]] = True
            reach |= moved
            reach[a] = True
        return reach

    def relabel(self, perm) -> "ModelRing":
        """The same ring with element ``i`` renamed ``perm[i]``; names become
        the new indices, as in a table ring without names."""
        p = np.asarray(perm)
        add = np.empty_like(self.add)
        mul = np.empty_like(self.mul)
        add[p[:, None], p[None, :]] = p[self.add]
        mul[p[:, None], p[None, :]] = p[self.mul]
        return ModelRing(add, mul, [str(i) for i in range(self.order)])


def _cyclic(n):
    i = np.arange(n)
    return ModelRing((i[:, None] + i[None, :]) % n, (i[:, None] * i[None, :]) % n,
                     [str(k) for k in range(n)])


def _poly_quotient(p, f):
    d = len(f) - 1
    n = p ** d
    digits = [[(idx // p ** e) % p for e in range(d)] for idx in range(n)]
    weights = [p ** e for e in range(d)]

    def encode(dig):
        return sum(c * w for c, w in zip(dig, weights))

    def times(a, b):
        conv = [0] * (2 * d - 1)
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                conv[s + t] = (conv[s + t] + x * y) % p
        for e in range(2 * d - 2, d - 1, -1):
            c = conv[e]
            if c:
                for k in range(d + 1):
                    conv[e - d + k] = (conv[e - d + k] - c * f[k]) % p
        return conv[:d]

    add = [[encode([(x + y) % p for x, y in zip(a, b)]) for b in digits] for a in digits]
    mul = [[encode(times(a, b)) for b in digits] for a in digits]
    return ModelRing(add, mul, [render_poly(_trim(dig)) for dig in digits])


def _trim(dig):
    dig = list(dig)
    while dig and dig[-1] == 0:
        dig.pop()
    return dig


def model_ring(atoms) -> ModelRing:
    """Model of the ring a spec names, with the program's element names."""
    parts = [_cyclic(a[1]) if a[0] in ("Z", "GF") else _poly_quotient(a[1], a[2])
             for a in atoms]
    if len(parts) == 1:
        return parts[0]
    sizes = [r.order for r in parts]
    weights = np.cumprod([1] + sizes[:-1])
    order = int(np.prod(sizes))
    idx = np.arange(order)
    add = np.zeros((order, order), dtype=np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    digits = []
    for r, w, s in zip(parts, weights, sizes):
        dk = (idx // w) % s
        digits.append(dk)
        add += r.add[dk[:, None], dk[None, :]] * w
        mul += r.mul[dk[:, None], dk[None, :]] * w
    names = ["(" + ",".join(r.names[dk[i]] for r, dk in zip(parts, digits)) + ")"
             for i in range(order)]
    return ModelRing(add, mul, names)


def davenport_formula(factors) -> int | None:
    """D(G) = 1 + sum(n_i - 1) for G = Z_{n_1} x ... with n_1 | n_2 | ...,
    where it is a theorem: rank at most two (Olson 1969; van Emde Boas and
    Kruyswijk 1967) or a p-group (Olson 1969). None elsewhere."""
    factors = sorted(n for n in factors if n > 1)
    if any(b % a for a, b in zip(factors, factors[1:])):
        return None
    primes = {q for n in factors for q in range(2, n + 1)
              if n % q == 0 and all(q % r for r in range(2, q))}
    if len(factors) <= 2 or len(primes) <= 1:
        return 1 + sum(n - 1 for n in factors)
    return None
