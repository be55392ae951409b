import itertools
import random
import tracemalloc

import pytest

from ebring import (BudgetExceeded, SearchBudget, davenport, exact_eb, idempotents,
                    max_free_sequence, synthetic_group)
from ebring import search
from ebring.cli import run

from conftest import (FAMILY_SPECS, RELABELLED, SMALL_GROUPS, dfs_exact_search, family_ring,
                      free_product_sets, longest_oracle, relabel)


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
    terms = search_fn(SearchBudget(max_nodes=nodes))
    assert witness is None or terms == witness
    with pytest.raises(BudgetExceeded) as err:
        search_fn(SearchBudget(max_nodes=nodes - 1))
    assert err.value.nodes == nodes - 1


def test_ceiling_keeps_length_witness_and_memo_exact():
    """A ceiling at the true maximum returns what the uncapped search does,
    and every memo entry it leaves is the uncapped search's value."""
    for args in ([_group_input(synthetic_group(spec)) for spec in ([4, 4], [2, 8], [3, 6])]
                 + [(ring.mul_rows(), range(ring.order), idempotents(ring))
                    for ring in map(family_ring, ("Z/12", "Z/16", "GF(2)[x]/(x^3)"))]):
        full, (total, witness, nodes) = _engine_run(*args)
        eng = search._Engine(args[0], sorted(args[1]), args[2], None, ceiling=total)
        assert eng.longest(0, 0, 0) == total
        assert eng.nodes <= nodes
        assert eng.witness(total) == witness
        assert all(full.memo[key] == got for key, got in eng.memo.items())


def _kernel_inputs():
    """Every family ring in exact mode and three small groups in group mode."""
    inputs = [(ring.mul_rows(), range(ring.order), idempotents(ring))
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
def test_time_budget_stops_the_search(monkeypatch, nodes, best_length):
    """A fake clock that ticks once per read: the deadline reads tick 0 and
    each node reads the clock once, so ``max_seconds = N + 0.5`` stops the
    search where ``max_nodes = N`` does, with the same partial counters.
    Z/16's first descent is 8 nodes deep, so after 5 nodes no sequence is
    proven yet; after 300 the longest one is, though not certified."""
    ring = family_ring("Z/16")
    args = (ring.mul_rows(), range(ring.order), idempotents(ring))
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as by_nodes:
        max_free_sequence(*args, budget=SearchBudget(max_nodes=nodes))
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    with pytest.raises(BudgetExceeded, match="^time budget exhausted$") as by_time:
        max_free_sequence(*args, budget=SearchBudget(max_seconds=nodes + 0.5))
    for err in (by_nodes.value, by_time.value):
        assert (err.nodes, err.best_length, err.exact) == (nodes, best_length, False)


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
    return ring.mul_rows(), range(ring.order), idempotents(ring)


def _sweep_within(args, states):
    """The sweep's value with a budget of ``states`` product sets, after
    checking that one fewer runs out, having expanded that many."""
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as err:
        search.longest_free_length(*args, budget=SearchBudget(max_nodes=states - 1))
    assert err.value.nodes == states - 1
    return search.longest_free_length(*args, budget=SearchBudget(max_nodes=states))


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


def test_sweep_in_group_mode_gives_the_davenport_constant():
    for spec in SMALL_GROUPS:
        view = synthetic_group(spec)
        e = view.elements.index(view.identity)
        length = search.longest_free_length(view.table(), [i for i in range(view.order) if i != e], {e})
        assert length == davenport(view).value - 1, spec


@pytest.mark.parametrize("levels, nodes, best_length", [(0, 0, 0), (1, 1, 1), (4, 93, 4)])
def test_time_budget_stops_the_sweep(monkeypatch, levels, nodes, best_length):
    """The fake clock of the test above. The sweep reads it once before each
    block of product sets, and each popcount level of Z/16 is one block, so
    ``max_seconds = k + 0.5`` stops after the first k levels, where a node
    budget of their size does. The longest sequence found by then is as
    long as the deepest level expanded, plus one for its children."""
    ring = family_ring("Z/16")
    args = _exact_input(ring)
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as by_nodes:
        search.longest_free_length(*args, budget=SearchBudget(max_nodes=nodes))
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    with pytest.raises(BudgetExceeded, match="^time budget exhausted$") as by_time:
        search.longest_free_length(*args, budget=SearchBudget(max_seconds=levels + 0.5))
    for err in (by_nodes.value, by_time.value):
        assert (err.nodes, err.best_length, err.exact) == (nodes, best_length, False)


def test_time_budget_counts_what_the_last_table_block_took(monkeypatch):
    """One candidate per table block and one product set per state block:
    Z/16's 14 free candidates make 14 table blocks, each reading the fake
    clock once per product set of the level. Level 0 is the empty set and
    level 1 the 14 singletons, so a stop in level 1's last table block has
    expanded the empty set and the singletons that block has taken; a stop
    in an earlier table block, the empty set alone."""
    monkeypatch.setattr(search, "TABLE_CAP", 0)
    monkeypatch.setattr(search, "SWEEP_BLOCK", 1)
    args = _exact_input(family_ring("Z/16"))
    for reads, nodes in [(14 + 5, 1), (14 + 13 * 14 + 3, 1 + 3)]:
        monkeypatch.setattr(search.time, "monotonic", itertools.count().__next__)
        with pytest.raises(BudgetExceeded, match="^time budget exhausted$") as err:
            search.longest_free_length(*args, budget=SearchBudget(max_seconds=reads + 0.5))
        assert err.value.nodes == nodes


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
            exact_eb(ring, budget=SearchBudget(max_nodes=10))
        direct = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.nodes, err.value.best_length) == (10, 2)
    assert code == 3
    assert capsys.readouterr().err.endswith("(best free length proven: 2, nodes expanded: 40)\n")
    assert max(direct, cli) < 3 * search.TABLE_CAP * 8
