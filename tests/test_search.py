import math
import random
import tracemalloc

import numpy as np
import pytest

from ebring import (BudgetExceeded, davenport, exact_eb, idempotents, max_free_sequence,
                    synthetic_group)
from ebring import search
from ebring.cli import run

from conftest import (FAMILY_SPECS, RELABELLED, SMALL_GROUPS, davenport_input, dfs_exact_search,
                      dfs_reference, family_ring, free_product_sets, longest_oracle, relabel,
                      sweep_oracle)


def test_sequence_longer_than_the_recursion_limit():
    n = 1201
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    assert max_free_sequence(rows, [1], {0}) == (n - 1, (1,) * (n - 1))


def test_unreachable_forbidden_set_is_refused():
    rows = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="no free sequence is maximal"):
        max_free_sequence(rows, [1], set())
    with pytest.raises(ValueError, match="no free sequence is maximal"):
        search.longest_free_length(rows, [1], set())
    # refused before the sweep starts, so before the budget is read
    with pytest.raises(ValueError, match="no free sequence is maximal"):
        search.longest_free_length(rows, [1], set(), budget=0)


def test_sweep_refuses_more_elements_than_int16_holds():
    rows = np.broadcast_to(np.zeros(1, dtype=np.int64), (1 << 15, 1 << 15))
    with pytest.raises(ValueError, match="at most 32767 elements, not 32768"):
        search.longest_free_length(rows, [1], {0})


@pytest.mark.parametrize("words", [1, 2, 3, 512])
def test_popcounts_match_int_bit_count(words):
    """Random rows, all-ones words and the all-zero row. At 512 words, the
    widest rows of the sweep (32767 elements), counts pass 255, so a sum
    narrower than uint16 would wrap."""
    rng = np.random.default_rng(words)
    rows = rng.integers(0, 1 << 64, size=(40, words), dtype=np.uint64)
    rows[0] = 0
    rows[1] = ~np.uint64(0)
    rows[2, ::2] = ~np.uint64(0)
    rows[3] = ~np.uint64(0)
    rows[3, -1] >>= np.uint64(1)  # 64 * words - 1 bits: 32767 at 512 words
    expected = [sum(w.bit_count() for w in row) for row in rows.tolist()]
    assert search._popcounts(rows.astype(search._WORD)).tolist() == expected


# each search returns its witness terms
@pytest.mark.parametrize("search_fn, nodes, witness", [
    (lambda b: dfs_exact_search(family_ring("Z/16"), budget=b)[1].terms, 677, (2, 2, 2, 3, 3, 3, 5)),
    (lambda b: dfs_exact_search(family_ring("Z/12"), budget=b)[1].terms, 36, None),
    (lambda b: dfs_reference(*davenport_input(synthetic_group([4, 4])), budget=b)[1],
     1375, (1, 1, 1, 4, 4, 4)),
    (lambda b: dfs_reference(*davenport_input(synthetic_group([3, 3])), budget=b)[1],
     98, (1, 1, 3, 3)),
], ids=["exact-Z16", "exact-Z12", "davenport-Z4xZ4", "davenport-Z3xZ3"])
def test_node_count_is_pinned_by_the_budget(search_fn, nodes, witness):
    terms = search_fn(nodes)
    assert witness is None or terms == witness
    with pytest.raises(BudgetExceeded) as err:
        search_fn(nodes - 1)
    assert err.value.nodes == nodes - 1


# The bit walk is the reference DFS's one step kernel; the case keeps its id.
@pytest.mark.parametrize("kernel", ["bit-walk"])
def test_engine_matches_the_from_scratch_oracle(kernel):
    """The value and every memo entry, witness lookups included, equal the
    plain recursion's on every family ring in exact mode and three small
    groups in group mode: an inherited candidate list that dropped a live
    candidate, or a wrong incremental step, would lower some entry. The
    bit walk's tables hold one single-bit entry per element and candidate."""
    inputs = ([_exact_input(family_ring(spec)) for spec in FAMILY_SPECS]
              + [davenport_input(synthetic_group(spec)) for spec in ([3, 3], [2, 4], [2, 2, 2])])
    for args in inputs:
        total, witness, _, eng = dfs_reference(*args)
        assert all(len(row) == len(args[0]) and all(b and not b & (b - 1) for b in row)
                   for row in eng.tables)
        oracle = longest_oracle(*args)
        assert total == oracle(0, 0)
        assert len(witness) == total
        assert eng.memo and all(oracle(state, start) == got for (state, start), got in eng.memo.items())


@pytest.mark.parametrize("nodes, best_length", [(5, 0), (300, 7)])
def test_node_budget_stops_the_search_with_partial_counters(nodes, best_length):
    """Z/16's first descent is 8 nodes deep, so after 5 nodes no sequence is
    proven yet; after 300 the longest one is, though not certified."""
    ring = family_ring("Z/16")
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as err:
        dfs_reference(*_exact_input(ring), budget=nodes)
    assert (err.value.nodes, err.value.best_length, err.value.exact) == (nodes, best_length, False)


# level sweep ------------------------------------------------------------------

# Distinct product sets the exact-mode sweep expands, the empty one included.
SWEEP_STATES = {
    "Z/12": 30, "Z/13": 270, "Z/16": 356,
    # the rings of the benchmark's exact-eb workload
    "Z/40": 19474, "Z/36": 14882, "Z/27": 17608, "GF(3)[x]/(x^3)": 16004, "Z/2 x Z/16": 8076,
    # the other rings of RELABELLED but its last, on which the DFS takes minutes
    "Z/24": 569, "Z/25": 10938, "Z/32": 30383, "GF(2)[x]/(x^4)": 524, "GF(3)[x]/(x^2)": 40,
    "Z/4 x GF(5)": 395,
    # 72 elements, so two words per product set
    "Z/9 x GF(2) x GF(2) x GF(2)": 81690, "Z/3 x Z/3 x Z/8": 58175,
}


def _exact_input(ring):
    return ring._mul_t.tolist(), range(ring.order), idempotents(ring)


def _sweep_within(args, states):
    """The sweep's value with a budget of ``states`` product sets, after
    checking that one fewer runs out, having expanded that many."""
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as err:
        search.longest_free_length(*args, budget=states - 1)
    assert err.value.nodes == states - 1
    return search.longest_free_length(*args, budget=states)


@pytest.mark.parametrize("spec", ["Z/40", "Z/9 x GF(2) x GF(2) x GF(2)"])
def test_step_tables_match_their_definition(spec):
    """For every element as a candidate a_i, the OR over the chunks c of entry
    [c, i, byte c of S] is S·a_i = S ∪ {a_i} ∪ {s·a_i : s in S}, on the empty
    set and on random product-set rows S, for one and two words per row."""
    ring = family_ring(spec)
    mul, n = ring.tables()[1], ring.order
    words, chunks = -(-n // 64), -(-n // 8)
    tab = search._step_tables(mul, np.arange(n), words)
    rng = random.Random(n)
    sets = [0] + [rng.getrandbits(n) for _ in range(50)]
    rows = np.array([list(s.to_bytes(8 * words, "little")) for s in sets], dtype=np.uint8)
    for i in range(n):
        got = np.bitwise_or.reduce(tab[np.arange(chunks), i, rows[:, :chunks]], axis=1)
        for s, row in zip(sets, got):
            members = [x for x in range(n) if s >> x & 1]
            want = {i} | set(members) | {int(mul[x, i]) for x in members}
            assert int.from_bytes(row.tobytes(), "little") == sum(1 << x for x in want)


@pytest.mark.parametrize("spec, length", [
    ("Z/12", 3), ("Z/16", 7), ("Z/13", 11), ("Z/40", 7), ("Z/36", 8), ("Z/27", 19),
    ("GF(3)[x]/(x^3)", 9), ("Z/2 x Z/16", 7)])
def test_sweep_state_count_is_pinned_by_the_budget(spec, length):
    assert _sweep_within(_exact_input(family_ring(spec)), SWEEP_STATES[spec]) == length


@pytest.mark.parametrize("step_words, block", [(search.STEP_TABLE_WORDS, search.SWEEP_BLOCK),
                                                (0, search.SWEEP_BLOCK),
                                                (search.STEP_TABLE_WORDS, 1)],
                         ids=["one-block", "per-candidate", "per-state"])
def test_sweep_matches_the_dfs_on_the_family(monkeypatch, step_words, block):
    """Same value as the DFS; the sweep expands exactly the product sets of
    free sequences, so never more states than the DFS has nodes. With no
    table room, the tables go one candidate at a time; with a block of one
    entry, the states go one at a time and each level's pending product sets
    are deduplicated as they arrive."""
    monkeypatch.setattr(search, "STEP_TABLE_WORDS", step_words)
    monkeypatch.setattr(search, "SWEEP_BLOCK", block)
    for spec in FAMILY_SPECS:
        args = _exact_input(family_ring(spec))
        total, _, nodes, _ = dfs_reference(*args)
        states = len(free_product_sets(*args))
        assert states <= nodes, spec
        assert _sweep_within(args, states) == total, spec


@pytest.mark.parametrize("seed", [s for s in range(20) if RELABELLED[s % len(RELABELLED)] in SWEEP_STATES])
def test_sweep_matches_the_dfs_under_relabelling(seed):
    spec = RELABELLED[seed % len(RELABELLED)]
    ring = family_ring(spec)
    args = _exact_input(relabel(ring, random.Random(seed).sample(range(ring.order), ring.order)))
    assert _sweep_within(args, SWEEP_STATES[spec]) == dfs_reference(*args)[0]


@pytest.mark.parametrize("spec", ["Z/9 x GF(2) x GF(2) x GF(2)", "Z/3 x Z/3 x Z/8"])
def test_sweep_matches_the_dfs_on_two_word_rings(spec):
    args = _exact_input(family_ring(spec))
    assert _sweep_within(args, SWEEP_STATES[spec]) == dfs_reference(*args)[0]


def _record_states(monkeypatch):
    """A dict that, from now on, maps each product set deduplication hands
    out, as a bitmask, to its (distance, start)."""
    found, dedup = {}, search._dedup

    def recording(parts):
        states, dists, starts = out = dedup(parts)
        for row, dist, start in zip(states, dists, starts):
            found[int.from_bytes(row.tobytes(), "little")] = int(dist), int(start)
        return out

    monkeypatch.setattr(search, "_dedup", recording)
    return found


@pytest.fixture(scope="module")
def state_oracles():
    """The family rings, two relabellings of each, the groups of up to 16
    elements, and two rings of 72 and 96 elements, whose product sets take a
    second word, each also under one relabelling; each with its
    ``sweep_oracle`` states."""
    inputs = [davenport_input(synthetic_group(spec)) for spec in SMALL_GROUPS if math.prod(spec) <= 16]
    for seed, spec in enumerate(FAMILY_SPECS * 3):
        ring = family_ring(spec)
        perm = random.Random(seed).sample(range(ring.order), ring.order)
        inputs.append(_exact_input(ring if seed < len(FAMILY_SPECS) else relabel(ring, perm)))
    for seed, spec in enumerate(["Z/2 x Z/2 x Z/2 x Z/3 x Z/3",
                                 "GF(2) x GF(2) x GF(2) x GF(2) x GF(2) x GF(3)"]):
        ring = family_ring(spec)
        perm = random.Random(seed).sample(range(ring.order), ring.order)
        inputs += [_exact_input(ring), _exact_input(relabel(ring, perm))]
    return [(args, sweep_oracle(*args)) for args in inputs]


@pytest.mark.parametrize("step_words, block", [(search.STEP_TABLE_WORDS, search.SWEEP_BLOCK),
                                                (0, search.SWEEP_BLOCK),
                                                (search.STEP_TABLE_WORDS, 1)],
                         ids=["one-block", "per-candidate", "per-state"])
def test_sweep_states_carry_the_longest_distance_and_least_start(monkeypatch, state_oracles,
                                                                 step_words, block):
    """Every state's distance and start against the plain oracle: a step that
    skipped the candidate at a state's start, a merge that kept another
    start, or a block that gathered too few columns would move some start
    even where the value and the set of states stay right."""
    monkeypatch.setattr(search, "STEP_TABLE_WORDS", step_words)
    monkeypatch.setattr(search, "SWEEP_BLOCK", block)
    found = _record_states(monkeypatch)
    for args, want in state_oracles:
        found.clear()
        assert search.longest_free_length(*args) == max(dist for dist, _ in want.values())
        assert found == want


@pytest.fixture(scope="module")
def family_oracles():
    """Each family ring's count of free product sets and its DFS value."""
    out = {}
    for spec in FAMILY_SPECS:
        args = _exact_input(family_ring(spec))
        out[spec] = len(free_product_sets(*args)), dfs_reference(*args)[0]
    return out


@pytest.mark.parametrize("seed", range(20))
def test_sweep_matches_the_oracles_on_the_relabelled_family(family_oracles, seed):
    """Candidates with cyclic semigroups of one size go in label order, so a
    relabelling moves the starts the states carry; the product sets expanded
    and the value must stay those of the oracles."""
    rng = random.Random(seed)
    for spec in FAMILY_SPECS:
        ring = family_ring(spec)
        states, length = family_oracles[spec]
        args = _exact_input(relabel(ring, rng.sample(range(ring.order), ring.order)))
        assert _sweep_within(args, states) == length, spec


def test_sweep_in_group_mode_gives_the_davenport_constant():
    """Every group's value, and the count of product sets expanded on the
    groups of up to 20 elements, where the plain oracle lists them quickly
    (about a second per group at 24 elements)."""
    for spec in SMALL_GROUPS:
        view = synthetic_group(spec)
        args = davenport_input(view)
        if view.order <= 20:
            length = _sweep_within(args, len(free_product_sets(*args)))
        else:
            length = search.longest_free_length(*args)
        assert length == davenport(view).value - 1, spec


# Forbidden sets other than the idempotents. Keeping each product set's
# largest start in place of its least (np.maximum.reduceat on the starts in
# _dedup) loses sequences here: it gives 8 on Z/27 and 7 on Z/25.
@pytest.mark.parametrize("n, candidates, forbidden, length, witness", [
    (27, range(27), {0, 1, 3, 4, 8, 12, 14, 17}, 9, (6, 6, 7, 7, 7, 7, 7, 7, 7)),
    (25, [a for a in range(25) if a not in (7, 13, 19)], {0, 1, 2, 14, 15, 16, 19}, 11, None),
])
def test_sweep_keeps_the_least_start_of_each_product_set(n, candidates, forbidden, length,
                                                          witness):
    rows = [[i * j % n for j in range(n)] for i in range(n)]
    dfs_length, dfs_witness = max_free_sequence(rows, candidates, forbidden)
    assert search.longest_free_length(rows, candidates, forbidden) == dfs_length == length
    assert witness is None or dfs_witness == witness


def test_sweep_matches_the_dfs_on_random_forbidden_sets():
    """Zero, one and a random set of other elements forbidden, and a random
    subset of the elements as candidates, on Z/n for n <= 27. A set that
    some candidate's powers never meet has no longest free sequence, and the
    sweep refuses it; such sets are skipped. With the largest start kept,
    the sweep gives a shorter length in 5 of the 30 cases compared."""
    rng = random.Random(2028)
    compared = 0
    for _ in range(50):
        ring = family_ring(f"Z/{rng.randrange(2, 28)}")
        n, rows = ring.order, ring.tables()[1].tolist()
        forbidden = {ring.zero, ring.one, *rng.sample(range(n), rng.randrange(n // 2))}
        candidates = [a for a in range(n) if rng.random() < 0.8]
        try:
            length = search.longest_free_length(rows, candidates, forbidden)
        except ValueError:
            continue
        compared += 1
        assert length == max_free_sequence(rows, candidates, forbidden)[0], (
            ring.label, sorted(forbidden), candidates)
    assert compared >= 25


@pytest.mark.parametrize("levels, nodes, best_length", [(0, 0, 0), (1, 1, 1), (4, 93, 4)])
def test_node_budget_stops_the_sweep_after_whole_levels(levels, nodes, best_length):
    """A budget of the product sets in Z/16's first k popcount levels stops
    the sweep after those levels. The longest sequence found by then is as
    long as the deepest level expanded, plus one for its children."""
    args = _exact_input(family_ring("Z/16"))
    assert sum(len(state) < levels for state in free_product_sets(*args)) == nodes
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as err:
        search.longest_free_length(*args, budget=nodes)
    assert (err.value.nodes, err.value.best_length, err.value.exact) == (nodes, best_length, False)


@pytest.mark.parametrize("step_words, block", [(search.STEP_TABLE_WORDS, search.SWEEP_BLOCK),
                                                (0, search.SWEEP_BLOCK),
                                                (search.STEP_TABLE_WORDS, 1)],
                         ids=["one-block", "per-candidate", "per-state"])
@pytest.mark.parametrize("spec, budget, best_length, length", [
    ("Z/27", 9000, 13, 19), ("Z/9 x GF(2) x GF(2) x GF(2)", 3000, 5, 6)])
def test_node_budget_stops_the_sweep_inside_a_level(monkeypatch, step_words, block,
                                                    spec, budget, best_length, length):
    """A budget that ends inside a popcount level expands that level's first
    states in order of start, so the longest sequence found by then depends
    on the order of the states within the level."""
    monkeypatch.setattr(search, "STEP_TABLE_WORDS", step_words)
    monkeypatch.setattr(search, "SWEEP_BLOCK", block)
    args = _exact_input(family_ring(spec))
    found = _record_states(monkeypatch)
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as err:
        search.longest_free_length(*args, budget=budget)
    assert (err.value.nodes, err.value.best_length, err.value.exact) == (budget, best_length, False)
    last = max(state.bit_count() for state in found)
    assert sum(state.bit_count() < last for state in found) < budget < len(found)
    assert search.longest_free_length(*args) == length


# Each cap's outcome: the sweep's value, or the (best_length, nodes) of its stop
# at the cap. nodes counts the product sets of the levels finished; the best
# length is one past the deepest state whose free steps were counted when the
# count passed the cap, so it can depend on the blocks, and is then given for
# each setting in order.
CAP_STOPS = [
    (lambda: _exact_input(family_ring("Z/16")),
     {5: (1, 0), 20: (2, 1), 60: (2, 1), 200: (4, 40), 700: 7}),
    (lambda: _exact_input(family_ring("Z/27")),
     {5: (1, 0), 20: (1, 0), 60: (2, 1), 200: (2, 1), 700: (3, 26), 2000: (4, 75),
      7000: (7, 1037)}),
    (lambda: _exact_input(family_ring("Z/9 x GF(2) x GF(2) x GF(2)")),
     {5: (1, 0), 20: (1, 0), 60: (1, 0), 200: (2, 1), 700: (2, 1), 2000: (2, 1),
      7000: ((4, 3, 3), 189), 20000: (4, 189), 70000: ((5, 6, 5), 4798)}),
    (lambda: davenport_input(synthetic_group([2, 2, 6])),
     {5: (1, 0), 20: (1, 0), 60: (2, 1), 200: (2, 1), 700: (4, 39), 2000: (6, 228), 7000: 7}),
]


@pytest.mark.parametrize("setting, step_words, block", [
    (0, search.STEP_TABLE_WORDS, search.SWEEP_BLOCK), (1, 0, search.SWEEP_BLOCK),
    (2, search.STEP_TABLE_WORDS, 1)], ids=["one-block", "per-candidate", "per-state"])
@pytest.mark.parametrize("carrier, stops", CAP_STOPS,
                         ids=["Z/16", "Z/27", "Z/9 x GF(2)^3", "C2 x C2 x C6"])
def test_pending_cap_stops_the_sweep_where_its_count_passes(monkeypatch, setting, step_words,
                                                            block, carrier, stops):
    """The sweep counts each level's free steps against ``PENDING_CAP`` before
    it files any, so a cap stops it at the same level, with the same counters,
    however the candidates and states are blocked; a cap above the sweep's
    peak lets it finish."""
    monkeypatch.setattr(search, "STEP_TABLE_WORDS", step_words)
    monkeypatch.setattr(search, "SWEEP_BLOCK", block)
    args = carrier()
    for cap, want in stops.items():
        monkeypatch.setattr(search, "PENDING_CAP", cap)
        if isinstance(want, int):
            assert search.longest_free_length(*args) == want, cap
            continue
        with pytest.raises(BudgetExceeded) as err:
            search.longest_free_length(*args)
        best = want[0] if isinstance(want[0], int) else want[0][setting]
        assert str(err.value) == f"pending product sets passed the cap of {cap} words"
        assert (err.value.best_length, err.value.nodes, err.value.exact) == (best, want[1], False), cap


@pytest.mark.parametrize("cap", [1 << 20, 1 << 22])
def test_pending_cap_bounds_the_sweep_memory(monkeypatch, cap):
    """Stopped at the cap, the sweep of C3 x C3 x C6 (one word per product set)
    has peaked below 2.5 bytes per byte of the cap. Besides the pending
    product sets it holds their lengths and starts, a level's copies while it
    is deduplicated and filed, and a level's counted free steps, 8 bytes
    each, until their children are built."""
    monkeypatch.setattr(search, "PENDING_CAP", cap)
    args = davenport_input(synthetic_group([3, 3, 6]))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="passed the cap"):
            search.longest_free_length(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * cap * 8


def test_large_ring_builds_its_tables_a_block_at_a_time(capsys, monkeypatch):
    """256 elements: the step tables of every candidate would take 64 MiB;
    the sweep holds those of one block of candidates, at most
    STEP_TABLE_WORDS words, and the next block's while it builds them. Through the CLI, D(U(R)) of
    C2 x C32 takes 34 nodes of the budget's 40 and finishes, so the budget
    runs out in the exact sweep, after 40 product sets."""
    ring = family_ring("Z/2 x Z/128")
    monkeypatch.delenv("EBRING_BUDGET", raising=False)
    tracemalloc.start()
    try:
        code = run(["invariants", "Z/2 x Z/128", "--exact", "--budget", "40"])
        cli = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(BudgetExceeded) as err:
            exact_eb(ring, budget=10)
        direct = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.nodes, err.value.best_length) == (10, 2)
    assert code == 3
    assert capsys.readouterr().err.endswith("(best free length proven: 2, nodes expanded: 40)\n")
    assert max(direct, cli) < 3 * search.STEP_TABLE_WORDS * 8
