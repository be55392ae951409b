import itertools

import pytest

from ebring import BudgetExceeded, SearchBudget, davenport, idempotents, max_free_sequence, synthetic_group
from ebring import search
from ebring.erdos_burgess import _exact_search

from conftest import FAMILY_SPECS, family_ring, longest_oracle


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


def _group_search(spec):
    """The Davenport search with no ceiling, on the table ``davenport`` uses."""
    view = synthetic_group(spec)
    e = view.elements.index(view.identity)
    rows, candidates = view.table().tolist(), [i for i in range(view.order) if i != e]
    return lambda b: max_free_sequence(rows, candidates, {e}, budget=b)[1]


# each search returns its witness terms; davenport on a group of rank two
# cuts the same search at the theorem's ceiling D* - 1
@pytest.mark.parametrize("search_fn, nodes, witness", [
    (lambda b: _exact_search(family_ring("Z/16"), budget=b)[1].terms, 677, (2, 2, 2, 3, 3, 3, 5)),
    (lambda b: _exact_search(family_ring("Z/12"), budget=b)[1].terms, 36, None),
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
