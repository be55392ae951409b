"""Multiset sequences over a commutative element-indexed carrier.

A carrier only needs ``mul(i, j)``, its vectorized form ``vmul`` over index
arrays, ``one`` and ``name(i)``; both rings and abelian group views qualify.
Sequences are order-insensitive: the canonical form is the nondecreasing
list of element indices, and any permutation of terms denotes the same
sequence.
"""

from __future__ import annotations

import numpy as np

from .records import Record
from .rings import idempotents


class Sequence(Record):
    carrier: object
    terms: tuple[int, ...]

    @staticmethod
    def make(carrier, terms) -> "Sequence":
        return Sequence(carrier, tuple(sorted(terms)))

    def __len__(self):
        return len(self.terms)

    def render(self) -> str:
        return ",".join(self.carrier.name(t) for t in self.terms)

    def names(self) -> list[str]:
        return [self.carrier.name(t) for t in self.terms]


def product_set(seq: Sequence) -> frozenset[int]:
    """Products of all nonempty subsequences, accumulated incrementally.

    Appending a term a maps the set S to S | {a} | S*a, one ``vmul`` over
    the array of S, so the whole set costs O(|T| * carrier order) instead of
    2^|T|.
    """
    vmul = seq.carrier.vmul
    acc: set[int] = set()  # not np.unique, which imports numpy.ma (about 1 MiB)
    for a in seq.terms:
        acc |= {a, *vmul(np.fromiter(acc, dtype=np.int64, count=len(acc)), a).tolist()}
    return frozenset(acc)


def is_idempotent_product_free(seq: Sequence) -> bool:
    """True iff no nonempty subsequence multiplies to an idempotent."""
    return product_set(seq).isdisjoint(idempotents(seq.carrier))
