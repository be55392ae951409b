"""Exhaustive longest-free-sequence search shared by the Davenport and
idempotent-product solvers.

Sequences are enumerated as canonical multisets: candidate elements in
nondecreasing order, so every multiset is visited once. The DFS state is the
product set of the chosen prefix, held as a Python-int bitmask, together with
the minimum candidate position still allowed; a branch dies as soon as its
product set meets the forbidden mask, which is exact because product sets only
grow. States are memoized with an LRU-capped table mapping (mask, position) to
the best extension depth proven from there. The DFS runs on an explicit stack,
so sequence length is not bounded by the interpreter's recursion limit.

A caller that knows no free sequence is longer than some ``ceiling`` may pass
it: a state whose prefix plus proven extension reaches the ceiling stops
expanding. Its memo entry is still exact, since no extension can be longer,
and the run is a prefix of the uncapped DFS, so it expands no more nodes and
reconstructs the same witness.

The product step is S·a = S | {a} | {s·a : s in S}. A node builds its free
children eagerly, as (position, S·a) pairs, from its parent's free pairs at
positions from its own on; a top-level call starts from every candidate at or
after ``start``, as a child of the empty set. Dropping the parent's forbidden
pairs is exact: S ⊆ S' implies S·a ⊆ S'·a, so a step that meets the
forbidden mask at S meets it at S' too, and the plain DFS would have skipped
it with no memo lookup. The step is incremental: with Δ = S' & ~S,
S'·a = S' | S·a | Δ·a, since s·a for s in S is already in S·a, so it reads the
tables at Δ only. Δ·a ORs one table entry per nonzero byte of Δ: entry
``256*j + b`` of a's table is the mask of s·a over s = 8j + k for the set bits
k of b. Above ``TABLE_CAP`` entries the tables go by element instead, and the
step walks the set bits of Δ. Neither shortcut changes a product set, so
nodes, memo traffic, counters and witnesses are those of the from-scratch
step.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

from .errors import BudgetExceeded, InternalConsistencyError

MEMO_CAP = 1 << 20
# Most byte-chunk table entries (candidates x chunks x 256) built eagerly:
# covers every full search of order up to 128, at a few tens of MiB.
TABLE_CAP = 1 << 20


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exhaustive search: node expansions and wall-clock time."""
    max_nodes: int | None = None
    max_seconds: float | None = None


def _chunk_table(mul_rows, a: int, n: int) -> list[int]:
    """Byte-chunk table of the product step by ``a`` (see the module docstring)."""
    flat = []
    for base in range(0, n, 8):
        tab = [0]
        for s in range(base, base + 8):
            bit = 1 << int(mul_rows[s][a]) if s < n else 0
            tab += [m | bit for m in tab]  # entry b now covers the low bits of b
        flat += tab
    return flat


class _Engine:
    def __init__(self, mul_rows, candidates, forbidden, budget, ceiling=None):
        # each term of a free sequence grows its product set, so n bounds the length
        self.ceiling = len(mul_rows) if ceiling is None else ceiling
        self.cands = tuple(int(a) for a in candidates)
        self.bits = tuple(1 << a for a in self.cands)
        self.forbidden = sum(1 << e for e in {int(e) for e in forbidden})
        self.memo: OrderedDict = OrderedDict()
        self.nodes = 0
        self.best_len = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = (time.monotonic() + budget.max_seconds
                         if budget and budget.max_seconds is not None else None)
        n = len(mul_rows)
        self.nbytes = -(-n // 8)
        self.chunked = len(self.cands) * self.nbytes * 256 <= TABLE_CAP
        if self.chunked:
            self.tables = [_chunk_table(mul_rows, a, n) for a in self.cands]
        else:
            bit_of = [1 << e for e in range(n)]
            self.tables = [[bit_of[int(mul_rows[s][a])] for s in range(n)] for a in self.cands]

    def children(self, state, parent, pairs):
        """Free (position, S'·a) pairs of S' = ``state``, from ``pairs`` of
        (position, S·a) for S = ``parent`` ⊆ S' (see the module docstring)."""
        delta = state & ~parent
        if self.chunked:
            keys = [256 * j + b for j, b in enumerate(delta.to_bytes(self.nbytes, "little")) if b]
        else:
            keys = [s for s in range(delta.bit_length()) if delta >> s & 1]
        tables, forbidden, out = self.tables, self.forbidden, []
        for idx, prod in pairs:
            tab = tables[idx]
            ns = state | prod
            for k in keys:
                ns |= tab[k]
            if not ns & forbidden:
                out.append((idx, ns))
        return out

    def roots(self, state, start):
        """Free pairs of the state (``state``, ``start``), computed from scratch."""
        return self.children(state, 0, [(idx, self.bits[idx]) for idx in range(start, len(self.cands))])

    def _visit(self):
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            raise BudgetExceeded("node budget exhausted", self.best_len, self.nodes)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted", self.best_len, self.nodes)
        self.nodes += 1

    def longest(self, state, start, depth):
        """Most terms extending the state (``state``, ``start``), reached by a
        prefix of length ``depth``, without meeting the forbidden mask. Runs on
        an explicit stack, with memo lookups, stores and evictions in the order
        of the plain recursion."""
        memo, children, ceiling = self.memo, self.children, self.ceiling
        key = (state, start)
        got = memo.get(key)
        if got is not None:
            memo.move_to_end(key)
            return got
        self._visit()
        stack = []
        pairs, pos, best = self.roots(state, start), 0, 0
        while True:
            while pos < len(pairs):
                idx, ns = pairs[pos]
                key = (ns, idx)
                got = memo.get(key)
                if got is None:
                    if ns == state:  # closed under ·a, so no power of a is forbidden
                        raise ValueError("no free sequence is maximal: the forbidden "
                                         "set holds no power of a candidate")
                    self._visit()
                    stack.append((state, start, depth, pairs, pos, best))
                    state, start, depth, pairs, pos, best = (
                        ns, idx, depth + 1, children(ns, state, pairs[pos:]), 0, 0)
                    continue
                memo.move_to_end(key)
                if got >= best:
                    best = got + 1
                    if depth + best >= ceiling:
                        break
                pos += 1
            if depth + best > self.best_len:
                self.best_len = depth + best
            memo[(state, start)] = best
            if len(memo) > MEMO_CAP:
                memo.popitem(last=False)
            if not stack:
                return best
            state, start, depth, pairs, pos, parent_best = stack.pop()
            best = max(parent_best, best + 1)
            pos = len(pairs) if depth + best >= ceiling else pos + 1

    def witness(self, total):
        """Lexicographically least canonical sequence achieving the maximum."""
        self.max_nodes = self.deadline = None
        seq = []
        state, remaining, pairs = 0, total, self.roots(0, 0)
        while remaining > 0:
            for pos, (idx, ns) in enumerate(pairs):
                if self.longest(ns, idx, len(seq) + 1) == remaining - 1:
                    seq.append(self.cands[idx])
                    state, remaining, pairs = ns, remaining - 1, self.children(ns, state, pairs[pos:])
                    break
            else:
                raise InternalConsistencyError("witness reconstruction diverged from the search")
        return tuple(seq)


def max_free_sequence(mul_rows, candidates, forbidden, *, budget: SearchBudget | None = None,
                      ceiling: int | None = None):
    """Length of the longest sequence whose product set avoids ``forbidden``,
    plus the lexicographically least witness of that length.

    ``mul_rows`` is an indexable table of rows covering every index reachable
    by multiplying candidates together. ``ceiling``, if given, must bound the
    length of every free sequence; the result is the same, found sooner.
    """
    eng = _Engine(mul_rows, sorted(candidates), forbidden, budget, ceiling)
    total = eng.longest(0, 0, 0)
    return total, eng.witness(total)
