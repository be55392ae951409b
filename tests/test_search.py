import math
import random
import tracemalloc

import numpy as np
import pytest

from ebring import (BudgetExceeded, davenport, exact_eb, idempotents, max_free_sequence,
                    synthetic_group)
from ebring import search
from ebring.cli import run

from conftest import (FAMILY_SPECS, RELABELLED, SMALL_GROUPS, dfs_exact_search, family_ring,
                      free_product_sets, longest_oracle, relabel, sweep_oracle)


def _group_input(view):
    pos = {a: i for i, a in enumerate(view.elements)}
    rows = [[pos[view.mul(a, b)] for b in view.elements] for a in view.elements]
    return rows, [pos[a] for a in view.elements if a != view.identity], {pos[view.identity]}


def _engine_run(rows, candidates, forbidden):
    eng = search._Engine(rows, sorted(candidates), forbidden, None)
    total = eng.longest(0, 0, 0)
    nodes = eng.nodes
    return eng, (total, eng.witness(total), nodes)


def test_sequence_longer_than_the_recursion_limit():
    n = 1201
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    assert max_free_sequence(rows, [1], {0}) == (n - 1, (1,) * (n - 1))
    assert max_free_sequence(rows, [1], {0}, ceiling=n - 1) == (n - 1, (1,) * (n - 1))


def test_unreachable_forbidden_set_is_refused():
    rows = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="no free sequence is maximal"):
        max_free_sequence(rows, [1], set())
    with pytest.raises(ValueError, match="no free sequence is maximal"):
        search.longest_free_length(rows, [1], set())


def test_sweep_refuses_more_elements_than_int16_holds():
    rows = np.broadcast_to(np.zeros(1, dtype=np.int64), (1 << 15, 1 << 15))
    with pytest.raises(ValueError, match="at most 32767 elements, not 32768"):
        search.longest_free_length(rows, [1], {0})


def _group_search(spec):
    """The Davenport search with no ceiling, on the table ``davenport`` uses."""
    view = synthetic_group(spec)
    e = view.elements.index(view.identity)
    rows, candidates = view.table().tolist(), [i for i in range(view.order) if i != e]
    return lambda b: max_free_sequence(rows, candidates, {e}, budget=b)[1]


# each search returns its witness terms; davenport on a group of rank two
# cuts the same search at the theorem's ceiling D* - 1
@pytest.mark.parametrize("search_fn, nodes, witness", [
    (lambda b: dfs_exact_search(family_ring("Z/16"), budget=b)[1].terms, 677, (2, 2, 2, 3, 3, 3, 5)),
    (lambda b: dfs_exact_search(family_ring("Z/12"), budget=b)[1].terms, 36, None),
    (_group_search([4, 4]), 1375, (1, 1, 1, 4, 4, 4)),
    (_group_search([3, 3]), 98, (1, 1, 3, 3)),
    (lambda b: davenport(synthetic_group([4, 4]), budget=b).witness.terms, 7, (1, 1, 1, 4, 4, 4)),
    (lambda b: davenport(synthetic_group([3, 3]), budget=b).witness.terms, 5, (1, 1, 3, 3)),
], ids=["exact-Z16", "exact-Z12", "davenport-Z4xZ4", "davenport-Z3xZ3",
        "ceiling-Z4xZ4", "ceiling-Z3xZ3"])
def test_node_count_is_pinned_by_the_budget(search_fn, nodes, witness):
    terms = search_fn(nodes)
    assert witness is None or terms == witness
    with pytest.raises(BudgetExceeded) as err:
        search_fn(nodes - 1)
    assert err.value.nodes == nodes - 1


def test_ceiling_keeps_length_witness_and_memo_exact():
    """A ceiling at the true maximum returns what the uncapped search does,
    and every memo entry it leaves is the uncapped search's value."""
    for args in ([_group_input(synthetic_group(spec)) for spec in ([4, 4], [2, 8], [3, 6])]
                 + [(ring._mul_t.tolist(), range(ring.order), idempotents(ring))
                    for ring in map(family_ring, ("Z/12", "Z/16", "GF(2)[x]/(x^3)"))]):
        full, (total, witness, nodes) = _engine_run(*args)
        eng = search._Engine(args[0], sorted(args[1]), args[2], None, ceiling=total)
        assert eng.longest(0, 0, 0) == total
        assert eng.nodes <= nodes
        assert eng.witness(total) == witness
        assert all(full.memo[key] == got for key, got in eng.memo.items())


def _kernel_inputs():
    """Every family ring in exact mode and three small groups in group mode."""
    inputs = [(ring._mul_t.tolist(), range(ring.order), idempotents(ring))
              for ring in map(family_ring, FAMILY_SPECS)]
    return inputs + [_group_input(synthetic_group(spec)) for spec in ([3, 3], [2, 4], [2, 2, 2])]


def test_bit_walk_kernel_matches_the_tables(monkeypatch):
    inputs = _kernel_inputs()
    tabled = []
    for args in inputs:
        eng, got = _engine_run(*args)
        assert eng.chunked
        tabled.append(got)
    monkeypatch.setattr(search, "TABLE_CAP", 0)
    for args, want in zip(inputs, tabled):
        eng, got = _engine_run(*args)
        assert not eng.chunked
        assert got == want


@pytest.mark.parametrize("table_cap", [search.TABLE_CAP, 0], ids=["chunked", "bit-walk"])
def test_engine_matches_the_from_scratch_oracle(monkeypatch, table_cap):
    """The value and every memo entry, witness lookups included, equal the
    plain recursion's: an inherited candidate list that dropped a live
    candidate, or a wrong incremental step, would lower some entry."""
    monkeypatch.setattr(search, "TABLE_CAP", table_cap)
    for args in _kernel_inputs():
        eng, (total, witness, _) = _engine_run(*args)
        assert eng.chunked == bool(table_cap)
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
        max_free_sequence(*_exact_input(ring), budget=nodes)
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


@pytest.mark.parametrize("spec, length", [
    ("Z/12", 3), ("Z/16", 7), ("Z/13", 11), ("Z/40", 7), ("Z/36", 8), ("Z/27", 19),
    ("GF(3)[x]/(x^3)", 9), ("Z/2 x Z/16", 7)])
def test_sweep_state_count_is_pinned_by_the_budget(spec, length):
    assert _sweep_within(_exact_input(family_ring(spec)), SWEEP_STATES[spec]) == length


@pytest.mark.parametrize("table_cap, block", [(search.TABLE_CAP, search.SWEEP_BLOCK),
                                               (0, search.SWEEP_BLOCK), (search.TABLE_CAP, 1)],
                         ids=["one-block", "per-candidate", "per-state"])
def test_sweep_matches_the_dfs_on_the_family(monkeypatch, table_cap, block):
    """Same value as the DFS; the sweep expands exactly the product sets of
    free sequences, so never more states than the DFS has nodes. With no
    table room, the tables go one candidate at a time; with a block of one
    entry, the states go one at a time and each level's pending product sets
    are deduplicated as they arrive."""
    monkeypatch.setattr(search, "TABLE_CAP", table_cap)
    monkeypatch.setattr(search, "SWEEP_BLOCK", block)
    for spec in FAMILY_SPECS:
        args = _exact_input(family_ring(spec))
        eng, (total, _, nodes) = _engine_run(*args)
        states = len(free_product_sets(*args))
        assert states <= nodes, spec
        assert _sweep_within(args, states) == total, spec


@pytest.mark.parametrize("seed", [s for s in range(20) if RELABELLED[s % len(RELABELLED)] in SWEEP_STATES])
def test_sweep_matches_the_dfs_under_relabelling(seed):
    spec = RELABELLED[seed % len(RELABELLED)]
    ring = family_ring(spec)
    args = _exact_input(relabel(ring, random.Random(seed).sample(range(ring.order), ring.order)))
    assert _sweep_within(args, SWEEP_STATES[spec]) == max_free_sequence(*args)[0]


@pytest.mark.parametrize("spec", ["Z/9 x GF(2) x GF(2) x GF(2)", "Z/3 x Z/3 x Z/8"])
def test_sweep_matches_the_dfs_on_two_word_rings(spec):
    args = _exact_input(family_ring(spec))
    assert _sweep_within(args, SWEEP_STATES[spec]) == max_free_sequence(*args)[0]


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
    """The family rings, two relabellings of each, and the groups of up to 16
    elements, each with its ``sweep_oracle`` states."""
    inputs = [_group_input(synthetic_group(spec)) for spec in SMALL_GROUPS if math.prod(spec) <= 16]
    for seed, spec in enumerate(FAMILY_SPECS * 3):
        ring = family_ring(spec)
        perm = random.Random(seed).sample(range(ring.order), ring.order)
        inputs.append(_exact_input(ring if seed < len(FAMILY_SPECS) else relabel(ring, perm)))
    return [(args, sweep_oracle(*args)) for args in inputs]


@pytest.mark.parametrize("table_cap, block", [(search.TABLE_CAP, search.SWEEP_BLOCK),
                                               (0, search.SWEEP_BLOCK), (search.TABLE_CAP, 1)],
                         ids=["one-block", "per-candidate", "per-state"])
def test_sweep_states_carry_the_longest_distance_and_least_start(monkeypatch, state_oracles,
                                                                 table_cap, block):
    """Every state's distance and start against the plain oracle: a step that
    skipped the candidate at a state's start, a merge that kept another
    start, or a block that gathered too few columns would move some start
    even where the value and the set of states stay right."""
    monkeypatch.setattr(search, "TABLE_CAP", table_cap)
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
        out[spec] = len(free_product_sets(*args)), max_free_sequence(*args)[0]
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
        e = view.elements.index(view.identity)
        args = view.table(), [i for i in range(view.order) if i != e], {e}
        if view.order <= 20:
            length = _sweep_within(args, len(free_product_sets(*args)))
        else:
            length = search.longest_free_length(*args)
        assert length == davenport(view).value - 1, spec


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


def test_large_ring_builds_its_tables_a_block_at_a_time(capsys, monkeypatch):
    """256 elements: the step tables of every candidate would take 64 MiB;
    the sweep holds those of one block of candidates, at most TABLE_CAP words,
    and the next block's while it builds them. Through the CLI, D(U(R)) of
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
    assert max(direct, cli) < 3 * search.TABLE_CAP * 8
