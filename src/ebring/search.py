"""Exhaustive longest-free-sequence searches shared by the Davenport and
idempotent-product solvers. A sequence is free when its product set, the
products of its nonempty subsequences, avoids the forbidden elements. A term
a added to a sequence with product set S gives the product set
S·a = S | {a} | {s·a : s in S}.

The level sweep, ``longest_free_length``, serves the exact EB value. Whether
a sequence is free depends only on its product set S, so its states are the
distinct S. A free step S -> S·a strictly grows S: S·a = S would let a repeat
forever, and is refused. So every edge goes up in popcount, and one ascending
sweep over popcount levels finishes each state's longest path from the empty
set before the state is expanded; the answer is the largest such distance.

Each pending state also carries a start: the least candidate position among
the steps that reached it. Deduplication keeps the least start next to the
largest distance, and a state is expanded only by the candidates at its start
and after. This is exact. A free multiset taken in nondecreasing position
order has product sets along the way that are states of the sweep, and by
induction each is reached with a start no later than its last term, so the
next term is tried and the distance reaches the sequence's length. Every
distance recorded is that of a real sequence, as freeness depends on S
alone. So the value, the set of states, and the count of states expanded do
not change, and the S·a = S refusal still fires on the ordered path of any
unbounded sequence. The candidates go in order of |<a>|, the size of the
cyclic semigroup {a, a^2, ...}, smallest first, ties by label: a term of a
free sequence repeats fewer than |<a>| times, as <a> holds an idempotent,
so the long runs come last, where few candidates are left to try. On the
benchmark's exact-eb rings this cut the free children from 806k to 185k.

A level is expanded in numpy, in blocks: states are rows of little-endian
uint64 words, S·a ORs bit(a) with one byte-chunk table entry per nonzero byte
of S (entry ``[c, b, a]`` covers s and s·a for the elements s that byte value
b marks in byte c), and free children wait at their popcount level, to be
deduplicated when it comes up. A level's states go in order of start, and a
block of them gathers the table columns from its first state's start on. The
candidates go in table blocks that fit in ``TABLE_CAP`` words, each built
once per level, and only for the states whose start comes before its end.
The count of states expanded does not depend on the labelling. The sweep
gives no witness, and it cannot stop early at a known ceiling.

The witness DFS, ``max_free_sequence``, serves witnesses, and D(U(R)) under a
theorem's ceiling. Sequences are enumerated as canonical multisets: candidate
elements in nondecreasing order, so every multiset is visited once. The DFS
state is the product set of the chosen prefix, held as a Python-int bitmask,
together with the minimum candidate position still allowed; a branch dies as
soon as its product set meets the forbidden mask, which is exact because
product sets only grow. States are memoized with an LRU-capped table mapping
(mask, position) to the best extension depth proven from there. The DFS runs
on an explicit stack, so sequence length is not bounded by the interpreter's
recursion limit.

A caller that knows no free sequence is longer than some ``ceiling`` may pass
it: a state whose prefix plus proven extension reaches the ceiling stops
expanding. Its memo entry is still exact, since no extension can be longer,
and the run is a prefix of the uncapped DFS, so it expands no more nodes and
reconstructs the same witness.

A DFS node builds its free children eagerly, as (position, S·a) pairs, from
its parent's free pairs at positions from its own on; a top-level call starts
from every candidate at or after ``start``, as a child of the empty set.
Dropping the parent's forbidden pairs is exact: S ⊆ S' implies S·a ⊆ S'·a, so
a step that meets the forbidden mask at S meets it at S' too, and the plain
DFS would have skipped it with no memo lookup. The step is incremental: with
Δ = S' & ~S, S'·a = S' | S·a | Δ·a, since s·a for s in S is already in S·a,
so it reads the tables at Δ only. Δ·a ORs one table entry per nonzero byte of Δ:
entry ``256*j + b`` of a's table is the mask of s·a over s = 8j + k for the
set bits k of b. Above ``TABLE_CAP`` entries the tables go by element instead,
and the step walks the set bits of Δ. Neither shortcut changes a product set,
so nodes, memo traffic, counters and witnesses are those of the from-scratch
step.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .errors import BudgetExceeded, InternalConsistencyError

MEMO_CAP = 1 << 20
# Most byte-chunk table entries (candidates x chunks x 256) built eagerly:
# covers every full search of order up to 128, at a few tens of MiB. The
# sweep counts uint64 words and builds its tables a block of candidates at a
# time within the same cap, 8 MiB, down to one candidate; one candidate's
# table passes the cap above 2048 elements.
TABLE_CAP = 1 << 20
# Most products of one sweep block, in words (128 KiB). On the benchmark's
# exact-eb rings this quarter of rings.BLOCK ran as fast as rings.BLOCK and
# peaked about 0.6 MiB lower, its temporaries staying small.
SWEEP_BLOCK = 1 << 14
# The sweep's product sets are rows of little-endian words, so byte c of a
# row's uint8 view holds the elements 8c .. 8c+7 on any host.
_WORD = np.dtype("<u8")
# Set bits of each byte value; np.bitwise_count needs numpy 2.0.
_POP8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_BYTE_SUM = np.uint64(0x0101010101010101)  # top byte of w * _BYTE_SUM is w's byte sum
# The sweep's pending lengths and start positions: each is at most n.
_SMALL = np.int16


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
        self.budget = budget
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
        if self.budget is not None and self.nodes >= self.budget:
            raise BudgetExceeded("node budget exhausted", self.best_len, self.nodes)
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


def max_free_sequence(mul_rows, candidates, forbidden, *, budget: int | None = None,
                      ceiling: int | None = None):
    """Length of the longest sequence whose product set avoids ``forbidden``,
    plus the lexicographically least witness of that length.

    ``mul_rows`` is an indexable table of rows covering every index reachable
    by multiplying candidates together. ``ceiling``, if given, must bound the
    length of every free sequence; the result is the same, found sooner.
    ``budget``, if given, is the most search nodes to expand.
    """
    eng = _Engine(mul_rows, sorted(candidates), forbidden, budget, ceiling)
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
    ``[c, b, i]`` is the mask of {s, s·a_i} over s = 8c + k for the set bits k
    of b, so S·a_i is bit(a_i) ORed with the entries of S's bytes."""
    n, width = len(mul), len(cands)
    chunks = -(-n // 8)
    elem = np.zeros((chunks * 8, width, words), dtype=_WORD)
    elem[:n] = (_bit_rows(np.arange(n), words)[:, None]
                | _bit_rows(mul[:, cands], words).reshape(n, width, words))
    elem = elem.reshape(chunks, 8, width, words)
    tab = np.zeros((chunks, 256, width, words), dtype=_WORD)
    for k in range(8):  # entries 2^k .. 2^(k+1) - 1 add element 8c + k to entries 0 .. 2^k - 1
        np.bitwise_or(tab[:, :1 << k], elem[:, k, None], out=tab[:, 1 << k:2 << k])
    return tab


def _semigroup_sizes(mul, cands):
    """|<a>| = |{a, a^2, a^3, ...}| for each candidate a; the powers a .. a^n
    cover it, as it holds at most n elements."""
    seen = np.zeros((len(cands), len(mul)), dtype=bool)
    rows, power = np.arange(len(cands)), cands
    for _ in range(len(mul)):
        seen[rows, power] = True
        power = mul[power, cands]
    return seen.sum(axis=1)


def _popcounts(rows):
    """Set bits in each row of words: an 8-bit lookup over the bytes, summed
    within each word by one multiply, since a word holds at most 64."""
    per_word = (_POP8[rows.view(np.uint8)].view(_WORD) * _BYTE_SUM) >> np.uint64(56)
    return per_word.sum(axis=1).astype(np.uint16)


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
    order = np.argsort(states[:, 0]) if states.shape[1] == 1 else np.lexsort(states.T[::-1])
    states = states[order]
    fresh = np.ones(len(states), dtype=bool)
    fresh[1:] = _changes(states)
    heads = np.flatnonzero(fresh)
    dists = np.maximum.reduceat(dists[order], heads)
    starts = np.minimum.reduceat(starts[order], heads)
    by_start = np.argsort(starts, kind="stable")
    return states[heads[by_start]], dists[by_start], starts[by_start]


def longest_free_length(mul_rows, candidates, forbidden, *,
                        budget: int | None = None) -> int:
    """Length of the longest sequence of ``candidates`` whose product set
    avoids ``forbidden``, by a sweep over distinct product sets in popcount
    order (see the module docstring). ``mul_rows`` is the multiplication
    table, as rows or a 2-D array, of at most 32767 elements.

    ``budget``, if given, is the most product sets to expand, the empty one
    included. On exhaustion, ``BudgetExceeded.best_length`` is the longest
    free sequence found so far.
    """
    n = len(mul_rows)
    if n > np.iinfo(_SMALL).max:
        raise ValueError(f"the sweep holds lengths and positions as int16, so it takes "
                         f"at most {np.iinfo(_SMALL).max} elements, not {n}")
    mul = np.asarray(mul_rows, dtype=np.int64)
    words, chunks = -(-n // 64), -(-n // 8)
    forbidden = sorted({int(e) for e in forbidden})
    forbidden_row = np.bitwise_or.reduce(_bit_rows(forbidden, words), axis=0)
    # a forbidden candidate is never a term of a free sequence
    cands = np.setdiff1d(np.asarray(list(candidates), dtype=np.int64), forbidden)
    cands = cands[np.lexsort((cands, _semigroup_sizes(mul, cands)))]
    width = max(1, TABLE_CAP // (chunks * 256 * words))
    blocks = [(lo, cands[lo:lo + width]) for lo in range(0, len(cands), width)]

    def tables_of(block):
        return _step_tables(mul, block, words), _bit_rows(block, words)

    # a single block's tables are built once, several blocks' once per level
    shared = tables_of(blocks[0][1]) if len(blocks) == 1 else None

    # pending[p]: (states, distances, starts) found at popcount p
    zero = np.zeros(1, dtype=_SMALL)
    pending = {0: [(np.zeros((1, words), dtype=_WORD), zero, zero)]}
    best = nodes = 0

    def expand(level, tab, abits, first, states, dists, starts):
        """The free children of ``states`` by the table columns ``tab`` of the
        candidates at positions ``first`` on, each at a position no less than
        its parent's start."""
        nonlocal best
        nbytes = states.view(np.uint8)[:, :chunks]
        prods = np.repeat(abits[None], len(states), axis=0)
        for c in np.flatnonzero(nbytes.any(axis=0)):
            prods |= tab[c, nbytes[:, c]]
        hit = np.zeros(prods.shape[:2], dtype=_WORD)
        for j in np.flatnonzero(forbidden_row):
            hit |= prods[:, :, j] & forbidden_row[j]
        positions = np.arange(first, first + len(abits), dtype=_SMALL)
        free = np.flatnonzero((hit == 0) & (positions >= starts[:, None]))
        if not len(free):
            return
        kids = prods.reshape(-1, words)[free]
        kid_dists = dists[free // len(abits)] + 1
        kid_starts = positions[free % len(abits)]
        best = max(best, int(kid_dists.max()))
        pops = _popcounts(kids)
        if (pops == level).any():  # S·a == S: closed under ·a, so no power of a is forbidden
            raise ValueError("no free sequence is maximal: the forbidden "
                             "set holds no power of a candidate")
        order = np.argsort(pops, kind="stable")
        pops, kids, kid_dists, kid_starts = pops[order], kids[order], kid_dists[order], kid_starts[order]
        cuts = [0, *(np.flatnonzero(pops[1:] != pops[:-1]) + 1), len(pops)]
        for i, j in zip(cuts, cuts[1:]):
            pending.setdefault(int(pops[i]), []).append((kids[i:j], kid_dists[i:j], kid_starts[i:j]))

    for level in range(n + 1):
        if level not in pending:
            continue
        states, dists, starts = _dedup(pending.pop(level))
        over = budget is not None and nodes + len(states) > budget
        if over:
            keep = budget - nodes
            states, dists, starts = states[:keep], dists[:keep], starts[:keep]
        # table blocks outside, so each is built once per level, and only for
        # the product sets whose start comes before its end
        for lo, block in blocks:
            todo = int(np.searchsorted(starts, lo + len(block)))
            if not todo:
                continue
            tab, abits = shared or tables_of(block)
            i = 0
            while i < todo:
                # states go in order of start, so the block's first has the least
                col = max(int(starts[i]) - lo, 0)
                j = min(todo, i + max(1, SWEEP_BLOCK // ((len(block) - col) * words)))
                expand(level, tab[:, :, col:], abits[col:], lo + col,
                       states[i:j], dists[i:j], starts[i:j])
                i = j
        nodes += len(states)
        if over:
            raise BudgetExceeded("node budget exhausted", best, nodes)
    return best
