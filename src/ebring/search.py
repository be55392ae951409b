"""Exhaustive longest-free-sequence searches shared by the Davenport and
idempotent-product solvers. A sequence is free when its product set, the
products of its nonempty subsequences, avoids the forbidden elements. A term
a added to a sequence with product set S gives the product set
S·a = S | {a} | {s·a : s in S}.

The level sweep, ``longest_free_length``, serves every searched value: the
exact EB constant, and D(G) for the groups no theorem covers. Whether
a sequence is free depends only on its product set S, so its states are the
distinct S. A free step S -> S·a strictly grows S: S·a = S would put every
power of a in S, and a candidate with no forbidden power is refused before the
sweep starts. So every edge goes up in popcount, and one ascending sweep over
popcount levels finishes each state's longest path from the empty set before
the state is expanded; the answer is the largest such distance.

Each pending state also carries a start: the least candidate position among
the steps that reached it. Deduplication keeps the least start next to the
largest distance, and a state is expanded only by the candidates at its start
and after. This is exact. A free multiset taken in nondecreasing position
order has product sets along the way that are states of the sweep, and by
induction each is reached with a start no later than its last term, so the
next term is tried and the distance reaches the sequence's length. Every
distance recorded is that of a real sequence, as freeness depends on S
alone. So the value, the set of states, and the count of states expanded do
not change. The candidates go in order of |<a>|, the size of the cyclic
semigroup {a, a^2, ...}, smallest first, ties by label: a term of a free
sequence repeats fewer than |<a>| times, as <a> holds an idempotent, so the
long runs come last, where few candidates are left to try. On the
benchmark's exact-eb rings this cut the free children from 806k to 185k.

A level is expanded in numpy, in blocks, and a step is tested for freeness
before its product set is built. States are rows of little-endian uint64
words, and each candidate a has its preimage mask amask[a] = {s : s·a
forbidden}, packed the same way. The test is exact: a pending S is free and
no candidate is forbidden, so S·a = S | {a} | {s·a : s in S} meets the
forbidden set just when some s in S has s·a forbidden, that is, when S &
amask[a] is nonzero in some word. Only the free steps, at or after their
state's start, are built: S·a ORs one byte-chunk table entry per byte of S
(entry ``[c, i, b]`` covers s and s·a_i for the elements s that byte value b
marks in byte c, and the chunk-0 entries also carry bit(a_i), which every
step reads once), read for every free step and every byte in one gather.
Free children wait at their popcount level, to be deduplicated when it comes
up. A level's states go in order of start, and a block of them takes the
candidates from its first state's start on. The candidates go in table
blocks that fit in ``STEP_TABLE_WORDS`` words, each built at most once per
level, when a free step needs it; the empty set needs none, as its children
are the singletons. The count of states expanded does not depend on the
labelling. The pending product sets are held within ``PENDING_CAP`` words,
so memory is bounded whatever the budget: every level, the empty set's
included, counts its free steps once, before it builds a table, and the sweep
stops at the block whose count passes the cap; otherwise the level files the
steps it counted. The sweep gives no witness.

The reference DFS, ``max_free_sequence``, has no caller in the package: the
tests check the sweep's values against it, and the benchmark's tracer names
it. It shares no table with the sweep. It gives the length and the
lexicographically least witness. Sequences are enumerated as canonical
multisets: candidate elements in nondecreasing order, so every multiset is
visited once. The DFS state is the product set of the chosen prefix, held as
a Python-int bitmask, together with the minimum candidate position still
allowed; a branch dies as soon as its product set meets the forbidden mask,
which is exact because product sets only grow. States are memoized in a
table mapping (mask, position) to the best extension depth proven from
there. The DFS runs on an explicit stack, so sequence length is not bounded
by the interpreter's recursion limit.

A DFS node builds its free children eagerly, as (position, S·a) pairs, from
its parent's free pairs at positions from its own on; a top-level call starts
from every candidate at or after ``start``, as a child of the empty set.
Dropping the parent's forbidden pairs is exact: S ⊆ S' implies S·a ⊆ S'·a, so
a step that meets the forbidden mask at S meets it at S' too, and the plain
DFS would have skipped it with no memo lookup. The step is incremental: with
Δ = S' & ~S, S'·a = S' | S·a | Δ·a, since s·a for s in S is already in S·a,
so it walks the set bits s of Δ only, lowest first, ORing the bit of s·a
from a's row of the multiplication table; s itself adds nothing, as Δ ⊆ S'.
This changes no product set, so nodes, memo traffic, counters and witnesses
are those of the from-scratch step.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, InternalConsistencyError

# Most uint64 words of the byte-chunk step table the sweep holds, 8 MiB: it
# builds the table a block of candidates at a time within this cap, down to
# one candidate, whose table passes the cap above 2048 elements, and drops a
# block's table before it builds the next.
STEP_TABLE_WORDS = 1 << 20
# Most (state, candidate) pairs of one sweep block, counted in words of their
# product sets (128 KiB). The block's mask test holds at most this many words,
# and the gather of its free steps one table entry per byte of a product set,
# at most n / 8 times this.
SWEEP_BLOCK = 1 << 14
# Most words of product sets the sweep holds pending at once (128 MiB, and
# 4 bytes more per product set for its length and start); past it the sweep
# stops as on an exhausted budget. The widest of the non-theorem groups of
# order up to 64, Z2 x Z2 x Z14, peaks at 12.1M words.
PENDING_CAP = 1 << 24
# The sweep's product sets are rows of little-endian words, so byte c of a
# row's uint8 view holds the elements 8c .. 8c+7 on any host.
_WORD = np.dtype("<u8")
# The sweep's pending lengths and start positions: each is at most n.
_SMALL = np.int16


class _Engine:
    def __init__(self, mul_rows, candidates, forbidden, budget):
        self.cands = tuple(int(a) for a in candidates)
        self.bits = tuple(1 << a for a in self.cands)
        self.forbidden = sum(1 << e for e in {int(e) for e in forbidden})
        self.memo: dict = {}
        self.nodes = 0
        self.best_len = 0
        self.budget = budget
        mul = np.asarray(mul_rows, dtype=np.int64)
        bit_of = [1 << s for s in range(len(mul))]
        # tables[i][s]: the bit of s·a_i, a reference into the shared bit_of
        self.tables = [[bit_of[x] for x in col] for col in mul[:, list(self.cands)].T.tolist()]

    def children(self, state, parent, pairs):
        """Free (position, S'·a) pairs of S' = ``state``, from ``pairs`` of
        (position, S·a) for S = ``parent`` ⊆ S' (see the module docstring)."""
        delta, keys = state & ~parent, []
        while delta:  # the set bits of Δ, lowest first
            low = delta & -delta
            keys.append(low.bit_length() - 1)
            delta ^= low
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
        if self.budget is not None and self.nodes >= self.budget:
            raise BudgetExceeded("node budget exhausted", self.best_len, self.nodes)
        self.nodes += 1

    def longest(self, state, start, depth):
        """Most terms extending the state (``state``, ``start``), reached by a
        prefix of length ``depth``, without meeting the forbidden mask. Runs on
        an explicit stack, with memo lookups and stores in the order of the
        plain recursion."""
        memo, children = self.memo, self.children
        got = memo.get((state, start))
        if got is not None:
            return got
        self._visit()
        stack = []
        pairs, pos, best = self.roots(state, start), 0, 0
        while True:
            while pos < len(pairs):
                idx, ns = pairs[pos]
                got = memo.get((ns, idx))
                if got is None:
                    if ns == state:  # closed under ·a, so no power of a is forbidden
                        raise ValueError("no free sequence is maximal: the forbidden "
                                         "set holds no power of a candidate")
                    self._visit()
                    stack.append((state, start, depth, pairs, pos, best))
                    state, start, depth, pairs, pos, best = (
                        ns, idx, depth + 1, children(ns, state, pairs[pos:]), 0, 0)
                    continue
                best = max(best, got + 1)
                pos += 1
            if depth + best > self.best_len:
                self.best_len = depth + best
            memo[(state, start)] = best
            if not stack:
                return best
            state, start, depth, pairs, pos, parent_best = stack.pop()
            best = max(parent_best, best + 1)
            pos += 1

    def witness(self, total):
        """Lexicographically least canonical sequence achieving the maximum."""
        self.budget = None
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


def max_free_sequence(mul_rows, candidates, forbidden, *, budget: int | None = None):
    """Length of the longest sequence whose product set avoids ``forbidden``,
    plus the lexicographically least witness of that length.

    ``mul_rows`` is an indexable table of rows covering every index reachable
    by multiplying candidates together. ``budget``, if given, is the most
    search nodes to expand.
    """
    eng = _Engine(mul_rows, sorted(candidates), forbidden, budget)
    total = eng.longest(0, 0, 0)
    return total, eng.witness(total)


# level sweep ------------------------------------------------------------------

def _bit_rows(elements, words: int):
    """One row of ``words`` words per element, holding that element's bit."""
    elements = np.asarray(elements, dtype=np.int64).ravel()
    rows = np.zeros((len(elements), words), dtype=_WORD)
    rows[np.arange(len(elements)), elements >> 6] = np.left_shift(
        np.uint64(1), (elements & 63).astype(np.uint64))
    return rows


def _step_tables(mul, cands, words: int):
    """Byte-chunk tables of S -> S·a for the candidates ``cands``: entry
    ``[c, i, b]`` is the mask of {s, s·a_i} over s = 8c + k for the set bits k
    of b, with bit(a_i) added in chunk 0, so S·a_i is the OR of the entries
    of S's bytes."""
    n, width = len(mul), len(cands)
    chunks = -(-n // 8)
    elem = np.zeros((chunks * 8, width, words), dtype=_WORD)
    elem[:n] = (_bit_rows(np.arange(n), words)[:, None]
                | _bit_rows(mul[:, cands], words).reshape(n, width, words))
    elem = elem.reshape(chunks, 8, width, words)
    tab = np.zeros((chunks, width, 256, words), dtype=_WORD)
    for k in range(8):  # entries 2^k .. 2^(k+1) - 1 add element 8c + k to entries 0 .. 2^k - 1
        np.bitwise_or(tab[:, :, :1 << k], elem[:, k, :, None], out=tab[:, :, 1 << k:2 << k])
    tab[0] |= _bit_rows(cands, words)[:, None]
    return tab


def _powers(mul, cands):
    """``seen[i, x]``: whether x is in <a_i> = {a_i, a_i^2, ...}; the powers
    a .. a^n cover it, as it holds at most n elements."""
    seen = np.zeros((len(cands), len(mul)), dtype=bool)
    rows, power = np.arange(len(cands)), cands
    for _ in range(len(mul)):
        seen[rows, power] = True
        power = mul[power, cands]
    return seen


def _popcounts(rows):
    """Set bits in each row of words. A row holds at most 32767 bits, as the
    sweep takes at most that many elements, so the sum fits in uint16."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.uint16)


def _changes(rows):
    """Whether each row after the first differs from the one before it."""
    out = rows[1:, 0] != rows[:-1, 0]
    for j in range(1, rows.shape[1]):
        out |= rows[1:, j] != rows[:-1, j]
    return out


def _dedup(parts):
    """The distinct product sets among ``parts`` of (states, distances,
    starts), each with its largest distance and least start, in order of
    start."""
    states, dists, starts = (np.concatenate(col) for col in zip(*parts))
    order = states[:, 0].argsort() if states.shape[1] == 1 else np.lexsort(states.T[::-1])
    states = states[order]
    fresh = np.empty(len(states), dtype=bool)
    fresh[0] = True
    fresh[1:] = _changes(states)
    heads = fresh.nonzero()[0]
    dists = np.maximum.reduceat(dists[order], heads)
    starts = np.minimum.reduceat(starts[order], heads)
    by_start = starts.argsort(kind="stable")
    return states[heads[by_start]], dists[by_start], starts[by_start]


def longest_free_length(mul_rows, candidates, forbidden, *,
                        budget: int | None = None) -> int:
    """Length of the longest sequence of ``candidates`` whose product set
    avoids ``forbidden``, by a sweep over distinct product sets in popcount
    order (see the module docstring). ``mul_rows`` is the multiplication
    table, as rows or a 2-D array of any integer type, read without a copy,
    of at most 32767 elements.

    ``budget``, if given, is the most product sets to expand, the empty one
    included. On exhaustion, ``BudgetExceeded.best_length`` is the longest
    free sequence found so far.
    """
    n = len(mul_rows)
    if n > np.iinfo(_SMALL).max:
        raise ValueError(f"the sweep holds lengths and positions as int16, so it takes "
                         f"at most {np.iinfo(_SMALL).max} elements, not {n}")
    mul = np.asarray(mul_rows)
    words, chunks = -(-n // 64), -(-n // 8)
    forbidden = sorted({int(e) for e in forbidden})
    # a forbidden candidate is never a term of a free sequence
    # (a set difference, not np.setdiff1d, whose np.unique imports numpy.ma)
    cands = np.array(sorted({int(a) for a in candidates}.difference(forbidden)), dtype=np.int64)
    powers = _powers(mul, cands)
    if not powers[:, forbidden].any(axis=1).all():
        # a, a, a, ... is free at every length
        raise ValueError("no free sequence is maximal: the forbidden "
                         "set holds no power of a candidate")
    cands = cands[np.lexsort((cands, powers.sum(axis=1)))]
    is_forbidden = np.zeros(n, dtype=bool)
    is_forbidden[forbidden] = True
    # amask[i]: the s with s·a_i forbidden, so a free S has S·a_i free just
    # when it misses amask[i]
    hits = np.zeros((len(cands), words * 64), dtype=bool)
    hits[:, :n] = is_forbidden[mul[:, cands]].T
    amask = np.packbits(hits, axis=1, bitorder="little").view(_WORD)
    positions = np.arange(len(cands), dtype=_SMALL)
    width = max(1, STEP_TABLE_WORDS // (chunks * 256 * words))
    bounds = [(lo, min(lo + width, len(cands))) for lo in range(0, len(cands), width)]
    table = None  # (lo, entries as rows of words, each chunk's first row) of the last block built

    # pending[p]: (states, distances, starts) found at popcount p
    zero = np.zeros(1, dtype=_SMALL)
    pending = {0: [(np.zeros((1, words), dtype=_WORD), zero, zero)]}
    best = nodes = 0
    held = words  # words of the pending product sets
    cap_passed = f"pending product sets passed the cap of {PENDING_CAP} words"

    def file(kids, kid_dists, kid_starts):
        """Files free children at their popcount levels."""
        nonlocal best, held
        best = max(best, int(kid_dists.max()))
        held += kids.size
        pops = _popcounts(kids)
        order = pops.argsort(kind="stable")
        kids, kid_dists, kid_starts = kids[order], kid_dists[order], kid_starts[order]
        j = 0
        for pop, count in enumerate(np.bincount(pops).tolist()):
            if count:
                i, j = j, j + count
                pending.setdefault(pop, []).append((kids[i:j], kid_dists[i:j], kid_starts[i:j]))

    for level in range(n + 1):
        if level not in pending:
            continue
        parts = pending.pop(level)
        held -= sum(part[0].size for part in parts)
        states, dists, starts = _dedup(parts)
        over = budget is not None and nodes + len(states) > budget
        if over:
            keep = budget - nodes
            states, dists, starts = states[:keep], dists[:keep], starts[:keep]
        # the level's free steps in sweep order, block by block, counted
        # against the cap before any table is built; the empty set's children
        # are the singletons, so its candidates form one block with no table
        plan, room = [], PENDING_CAP - held
        for lo, hi in bounds if level else [(0, len(cands))]:
            # states go in order of start, so a block's first has the least
            todo, i = int(starts.searchsorted(hi)), 0
            while i < todo:
                first = max(int(starts[i]), lo)
                j = min(todo, i + max(1, SWEEP_BLOCK // ((hi - first) * words)))
                clash = states[i:j, None, 0] & amask[first:hi, 0]
                for w in range(1, words):  # a word at a time: numpy reduces a short last axis slowly
                    clash |= states[i:j, None, w] & amask[first:hi, w]
                free = ((clash == 0) & (positions[first:hi] >= starts[i:j, None])).ravel().nonzero()[0]
                if len(free):
                    plan.append((lo, hi, first, i, j, free))
                    room -= len(free) * words
                    if room < 0:  # proven: one step past the deepest state counted
                        raise BudgetExceeded(cap_passed, max([best] + [
                            int(dists[at + steps // (end - col)].max()) + 1
                            for _, end, col, at, _, steps in plan]), nodes)
                i = j
        plan.reverse()
        while plan:  # each entry is dropped as its children are filed
            lo, hi, first, i, j, free = plan.pop()
            rows, cols = np.divmod(free, hi - first)
            cols += first
            if not level:
                kids = _bit_rows(cands[cols], words)
            else:
                if table is None or table[0] != lo:
                    table = None  # dropped before the next block's is built
                    table = (lo, _step_tables(mul, cands[lo:hi], words).reshape(-1, words),
                             np.arange(chunks, dtype=np.intp)[:, None] * ((hi - lo) << 8))
                # index[c, k]: the row of entry [c, col - lo, byte c of the state] of step k;
                # take copies a strided array whole, so it reads the block's bytes only
                index = table[2] + ((cols - lo) << 8)
                index += states[i:j].view(np.uint8)[:, :chunks].take(rows, axis=0).T
                kids = np.bitwise_or.reduce(table[1].take(index, axis=0), axis=0)
            rows += i
            file(kids, dists[rows] + 1, positions[cols])
        nodes += len(states)
        if over:
            raise BudgetExceeded("node budget exhausted", best, nodes)
    return best
